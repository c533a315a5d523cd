"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints its own pass/fail line (bypassing capture) so a plain pytest
run doubles as a checklist.  Tolerances are part of the contract; do not relax
them here.
"""

import json
import subprocess
import sys
import time

import numpy as np

from dilation_lab import (DiagonalState, GramSpace, SchurSymbol,
                          build_crossed_dilation, build_chain, build_dilation,
                          build_fermion_rep, build_schaffer, certify_symbol,
                          choi_matrix, config, convex_combination_dilation,
                          cyclic_group, embed_J, expectations, markov_residuals,
                          multiplier_map, random_posdef_symbol,
                          second_quantize, star_adjoint, star_swap_check,
                          symmetric_group, verify_factorization,
                          verify_fourier_identity, verify_gamma_factorization,
                          verify_markov_property, verify_ppnp, verify_rota,
                          verify_rota_secondquant)
from dilation_lab.fock import QWord, q_gram
from dilation_lab.matcore import (dagger, direct_sum, frobenius, matrix_unit, max_abs,
                                  random_symmetric_contraction,
                                  random_unital_psd_symbol, random_weights,
                                  rng)

Q_RANGE = (-0.9, -0.5, 0.0, 0.5, 0.9)


def _report(capsys, num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f"  ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\n[{status}] criterion {num:2d}: {label}{tail}", flush=True)


def _random_symbol_state(gen, n):
    symbol = SchurSymbol(random_unital_psd_symbol(gen, n, rank=int(gen.integers(1, n + 1))))
    state = DiagonalState(random_weights(gen, n))
    return symbol, state


def test_criterion_01_factorization_at_scale(capsys):
    gen = rng(101)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        n = 2 + trial % 3
        symbol, state = _random_symbol_state(gen, n)
        bundle = build_dilation(symbol, state)
        worst = max(worst, verify_factorization(bundle, symbol, state,
                                                samples=20, seed=trial))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed <= 10.0
    _report(capsys, 1, "factorization through the ambient pairing", ok,
            f"max residual {worst:.2e}, {elapsed:.1f} s for 50 symbols")
    assert worst <= 1e-9
    assert elapsed <= 10.0


def test_criterion_02_generator_symmetry_in_the_centralizer(capsys):
    gen = rng(102)
    worst = 0.0
    bundles = []
    for n in (2, 3, 4):
        for _ in range(3):
            symbol, state = _random_symbol_state(gen, n)
            bundles.append(build_dilation(symbol, state))
    for m in (2, 3):
        bundles.append(build_crossed_dilation(
            random_posdef_symbol(cyclic_group(m), gen)))
    for bundle in bundles:
        d = direct_sum(bundle.blocks)
        dens = bundle.ambient_state.density()
        worst = max(worst,
                    frobenius(d - dagger(d)),
                    frobenius(d @ d - np.eye(bundle.ambient_dim)),
                    frobenius(d @ dens - dens @ d))
    ok = worst <= 1e-12
    _report(capsys, 2, "dilation generator is a centralizer symmetry", ok,
            f"max defect {worst:.2e} over {len(bundles)} bundles")
    assert worst <= 1e-12


def test_criterion_03_car_and_q_gram(capsys):
    car_worst = 0.0
    for r in (1, 2, 3, 4):
        rep = build_fermion_rep(GramSpace.standard(r))
        eye = np.eye(rep.dim)
        for i in range(r):
            for j in range(r):
                wi, wj = rep.generator_omega(i), rep.generator_omega(j)
                delta = 1.0 if i == j else 0.0
                car_worst = max(car_worst,
                                max_abs(wi @ wj + wj @ wi - 2 * delta * eye),
                                abs(rep.vacuum_state(wi @ wj) - delta))
    gen = rng(103)
    min_eig = np.inf
    det_worst = 0.0
    for base in (2, 3):
        words = [QWord.vacuum(base)]
        words += [QWord(gen.standard_normal((k, base)))
                  for k in (1, 1, 2, 2, 3, 4)]
        for q in Q_RANGE:
            g = q_gram(words, q)
            min_eig = min(min_eig, np.linalg.eigvalsh((g + dagger(g)) / 2)[0])
        for k in (1, 2, 3, 4):
            left = QWord(gen.standard_normal((k, base)))
            right = QWord(gen.standard_normal((k, base)))
            g = q_gram([left, right], -1.0)
            det = np.linalg.det(np.conj(left.vectors) @ right.vectors.T)
            det_worst = max(det_worst, abs(g[0, 1] - det))
    ok = car_worst <= 1e-12 and min_eig >= -1e-10 and det_worst <= 1e-12
    _report(capsys, 3, "CAR relations and q-deformed Gram positivity", ok,
            f"CAR {car_worst:.2e}, min eig {min_eig:.2e}, det gap {det_worst:.2e}")
    assert car_worst <= 1e-12
    assert min_eig >= -1e-10
    assert det_worst <= 1e-12


def test_criterion_04_cp_verdict_matches_symbol_verdict(capsys):
    gen = rng(104)
    disagreements = []
    for trial in range(100):
        n = 2 + trial % 3
        if trial % 2 == 0:
            t = random_unital_psd_symbol(gen, n)
        else:
            t = random_unital_psd_symbol(gen, n)
            noise = gen.standard_normal((n, n))
            t = t + 0.4 * (noise + noise.T)
            np.fill_diagonal(t, 1.0)
        symbol = SchurSymbol(t)
        state = DiagonalState(random_weights(gen, n))
        res = markov_residuals(multiplier_map(symbol), state)
        from_choi = (res["cp_hermitian"] <= config.TOL_NUM
                     and res["cp_negative"] <= config.TOL_PSD)
        from_symbol = certify_symbol(symbol)["psd"] <= config.TOL_PSD
        if from_choi != from_symbol:
            disagreements.append(trial)
    ok = not disagreements
    _report(capsys, 4, "Choi positivity agrees with symbol positivity", ok,
            f"{100 - len(disagreements)}/100 verdicts agree")
    assert disagreements == []


def test_criterion_05_chain_markov_identities_depth_three(capsys):
    chain = build_chain(SchurSymbol([[1.0, 0.5], [0.5, 1.0]]),
                        DiagonalState([0.5, 0.5]), depth=3)
    worst = {"past": 0.0, "future": 0.0, "shift": 0.0}
    for res in verify_markov_property(chain).values():
        for key in worst:
            worst[key] = max(worst[key], res[key])
    ok = max(worst.values()) <= 1e-9
    _report(capsys, 5, "chain expectations compress along the filtration", ok,
            ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))
    assert max(worst.values()) <= 1e-9


def test_criterion_06_rota_reversal_identity(capsys):
    chain = build_chain(SchurSymbol([[1.0, 0.5], [0.5, 1.0]]),
                        DiagonalState([0.5, 0.5]), depth=2)
    worst = max(verify_rota(chain, n) for n in (1, 2))
    e01 = matrix_unit(2, 0, 1)
    past0 = expectations(chain, 0)[0]
    future1 = expectations(chain, 1)[1]
    j0 = embed_J(chain, 0)
    spot = max_abs(past0(future1(j0(e01))) - 0.25 * j0(e01))
    ok = worst <= 1e-9 and spot <= 1e-9
    _report(capsys, 6, "iterated expectations give even map powers", ok,
            f"residual {worst:.2e}, spot defect {spot:.2e}")
    assert worst <= 1e-9
    assert spot <= 1e-9


def test_criterion_07_group_multiplier_dilations(capsys):
    gen = rng(107)
    worst = 0.0
    groups = [cyclic_group(m) for m in range(1, 7)] + [symmetric_group(3)]
    for group in groups:
        for _ in range(20):
            t = random_posdef_symbol(group, gen)
            bundle = build_crossed_dilation(t)
            worst = max(worst,
                        verify_fourier_identity(bundle, t, samples=5, seed=7))
    ok = worst <= 1e-9
    _report(capsys, 7, "crossed-product pairing recovers group coefficients", ok,
            f"max residual {worst:.2e} over {20 * len(groups)} symbols")
    assert worst <= 1e-9


def test_criterion_08_shifted_unitary_dilation(capsys):
    gen = rng(108)
    unitary_worst = 0.0
    power_worst = 0.0
    sandwich_worst = 0.0
    cases = [(np.array([[0.5]]), 2), (np.array([[-0.8]]), 6),
             (random_symmetric_contraction(gen, 2), 4),
             (random_symmetric_contraction(gen, 2), 6)]
    for t, window in cases:
        dil = build_schaffer(t, window)
        u = dil.unitary
        unitary_worst = max(unitary_worst,
                            frobenius(u.T @ u - np.eye(u.shape[0])))
        for k in range(2 * window + 1):
            power_worst = max(power_worst,
                              max_abs(dil.compress(k)
                                      - np.linalg.matrix_power(t, k)))
        for n in range(3):
            sandwich_worst = max(sandwich_worst, verify_ppnp(dil, n))
    ok = (unitary_worst <= 1e-12 and power_worst <= 1e-10
          and sandwich_worst <= 1e-9)
    _report(capsys, 8, "cyclic window dilation reproduces contraction powers", ok,
            f"unitarity {unitary_worst:.2e}, powers {power_worst:.2e}, "
            f"sandwich {sandwich_worst:.2e}")
    assert unitary_worst <= 1e-12
    assert power_worst <= 1e-10
    assert sandwich_worst <= 1e-9


def test_criterion_09_second_quantization_suite(capsys):
    gen = rng(109)
    reps = {d: build_fermion_rep(GramSpace.standard(d)) for d in (1, 2, 3)}
    identity_exact = all(
        np.array_equal(second_quantize(reps[d], reps[d], np.eye(d)).super,
                       np.eye(4 ** d))
        for d in (1, 2, 3))
    functor_worst = 0.0
    choi_min = np.inf
    for d in (1, 2, 3):
        rep = reps[d]
        for _ in range(3):
            mats = []
            for _ in range(2):
                a = gen.standard_normal((d, d))
                mats.append(a / (np.linalg.norm(a, 2) * (1 + 1e-3)))
            s, t = mats
            lhs = second_quantize(rep, rep, s @ t)
            rhs = second_quantize(rep, rep, s).compose(
                second_quantize(rep, rep, t))
            functor_worst = max(functor_worst, max_abs(lhs.super - rhs.super))
            choi = choi_matrix(second_quantize(rep, rep, t))
            choi_min = min(choi_min,
                           np.linalg.eigvalsh((choi + dagger(choi)) / 2)[0])
    gamma_worst = max(verify_gamma_factorization(build_schaffer(np.array([[0.5]]), 1)),
                      verify_gamma_factorization(
                          build_schaffer(random_symmetric_contraction(gen, 2), 1)))
    rota_worst = max(verify_rota_secondquant(build_schaffer(np.array([[0.5]]), 2), 2))
    ok = (identity_exact and functor_worst <= 1e-9 and choi_min >= -1e-9
          and gamma_worst <= 1e-9 and rota_worst <= 1e-9)
    _report(capsys, 9, "second quantization is an exact Markov functor", ok,
            f"functor {functor_worst:.2e}, Choi min {choi_min:.2e}, "
            f"factorization {gamma_worst:.2e}, reversal {rota_worst:.2e}")
    assert identity_exact
    assert functor_worst <= 1e-9
    assert choi_min >= -1e-9
    assert gamma_worst <= 1e-9
    assert rota_worst <= 1e-9


def test_criterion_10_star_involution(capsys):
    gen = rng(110)
    adjoint_worst = 0.0
    for n in (2, 3, 4):
        symbol, state = _random_symbol_state(gen, n)
        adj = star_adjoint(multiplier_map(symbol), state)
        transposed = multiplier_map(SchurSymbol(symbol.matrix.T))
        adjoint_worst = max(adjoint_worst,
                            max_abs(adj.super - transposed.super))
    t = np.array([[1.0, 0.7], [0.7, 1.0]])
    state = DiagonalState([0.6, 0.4])
    bundle = build_dilation(SchurSymbol(t), state)
    swap = star_swap_check(bundle, SchurSymbol(t), state, samples=10, seed=3)
    s1 = np.array([[1.0, 0.5], [0.5, 1.0]])
    s2 = np.array([[1.0, -0.2], [-0.2, 1.0]])
    uniform = DiagonalState([0.5, 0.5])
    mixed = convex_combination_dilation(
        [build_dilation(SchurSymbol(s1), uniform),
         build_dilation(SchurSymbol(s2), uniform)], [0.25, 0.75])
    blended = SchurSymbol(0.25 * s1 + 0.75 * s2)
    convex = verify_factorization(mixed, blended, uniform, samples=10, seed=4)
    ok = adjoint_worst <= 1e-12 and swap <= 1e-9 and convex <= 1e-9
    _report(capsys, 10, "bilinear adjoint transposes the symbol", ok,
            f"adjoint {adjoint_worst:.2e}, swap {swap:.2e}, convex {convex:.2e}")
    assert adjoint_worst <= 1e-12
    assert swap <= 1e-9
    assert convex <= 1e-9


def test_criterion_11_cli_determinism(capsys):
    def run():
        return subprocess.run(
            [sys.executable, "-m", "dilation_lab", "check-schur",
             "--seed", "7041"],
            capture_output=True, text=True)

    first, second = run(), run()
    same = first.stdout == second.stdout
    ok = (first.returncode == 0 and second.returncode == 0 and same
          and json.loads(first.stdout)["pass"] is True)
    _report(capsys, 11, "command-line report is deterministic", ok,
            f"exit {first.returncode}, byte-identical={same}")
    assert first.returncode == 0
    assert second.returncode == 0
    assert same
