import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dilation_lab.dilation as dilation_module
from dilation_lab import (DiagonalState, PreconditionError, SchurSymbol,
                          ShapeError, apply_multiplier, build_crossed_dilation,
                          build_dilation, config, convex_combination_dilation,
                          cyclic_group, random_posdef_symbol, star_swap_check,
                          symmetric_group, verify_even_closure, verify_factorization,
                          verify_morphism_markov)
from dilation_lab.dilation import MorphismReport
from dilation_lab.matcore import (block_conjugate, dagger, matrix_unit, max_abs,
                                  random_complex, random_unital_psd_symbol,
                                  random_weights, rng)
from dilation_lab.states import modular_conjugate

T2 = np.array([[1.0, 0.5], [0.5, 1.0]])
UNIFORM2 = DiagonalState([0.5, 0.5])

T3 = np.array([[1.0, 0.3, 0.1],
               [0.3, 1.0, 0.4],
               [0.1, 0.4, 1.0]])
STATE3 = DiagonalState([0.5, 0.3, 0.2])


def test_worked_off_diagonal_pairing():
    # phi~(pi(e01) rho(e10)) recovers w_0 t_01 = 0.5 * 0.5
    bundle = build_dilation(SchurSymbol(T2), UNIFORM2)
    value = bundle.ambient_phi(bundle.pi(matrix_unit(2, 0, 1))
                               @ bundle.rho(matrix_unit(2, 1, 0)))
    assert abs(value - 0.25) < 1e-12


def test_factorization_recovers_the_map():
    assert verify_factorization(build_dilation(SchurSymbol(T2), UNIFORM2),
                                SchurSymbol(T2), UNIFORM2, seed=1) < 1e-12
    assert verify_factorization(build_dilation(SchurSymbol(T3), STATE3),
                                SchurSymbol(T3), STATE3, seed=1) < 1e-12


def test_generator_is_a_symmetry_in_the_centralizer():
    bundle = build_dilation(SchurSymbol(T2), UNIFORM2)
    d = bundle.d
    assert max_abs(d - dagger(d)) < 1e-12
    assert max_abs(d @ d - np.eye(bundle.ambient_dim)) < 1e-12
    rho_amb = bundle.ambient_state.density()
    assert max_abs(d @ rho_amb - rho_amb @ d) < 1e-12


def test_morphism_reports_vanish():
    bundle = build_dilation(SchurSymbol(T3), STATE3)
    reports = verify_morphism_markov(bundle, samples=6, seed=3)
    assert set(reports) == {"pi", "rho"}
    for rep in reports.values():
        assert rep.max_residual() < 1e-10


def test_star_swap_between_the_two_legs():
    t = np.array([[1.0, 0.7], [0.7, 1.0]])
    state = DiagonalState([0.6, 0.4])
    bundle = build_dilation(SchurSymbol(t), state)
    assert star_swap_check(bundle, SchurSymbol(t), state, samples=6,
                           seed=4) < 1e-10


def test_even_closure_of_the_image():
    bundle = build_dilation(SchurSymbol(T2), UNIFORM2)
    assert verify_even_closure(bundle) < 1e-10


def test_even_closure_on_a_crossed_bundle():
    # the generators are the images of the group basis, not of matrix units
    bundle = build_crossed_dilation(random_posdef_symbol(cyclic_group(3), rng(5)))
    assert bundle.domain_basis is not None
    assert verify_even_closure(bundle) == 0.0


def test_even_closure_reports_an_odd_leak():
    # rho over the blocks (w_0, 1) sends e_01 to the odd w_0 in block (0, 1)
    bundle = build_dilation(SchurSymbol(T2), UNIFORM2)
    blocks = np.stack([bundle.rep.generator_omega(0), np.eye(bundle.rep.dim)])
    leaky = dataclasses.replace(
        bundle, rho=lambda x: block_conjugate(blocks, np.asarray(x, dtype=complex)))
    assert verify_even_closure(leaky) > 0.5


def test_even_closure_on_a_full_rank_5x5_bundle():
    # ambient dimension 160: a numerical closure of the images is out of reach
    symbol = SchurSymbol(random_unital_psd_symbol(rng(11), 5))
    bundle = build_dilation(symbol, DiagonalState(random_weights(rng(12), 5)))
    assert bundle.gram.rank == 5
    assert verify_even_closure(bundle) <= 1e-12


def test_rank_one_symbol_collapses_the_legs():
    # the all-ones symbol has a single Gram direction, so both morphisms agree
    bundle = build_dilation(SchurSymbol(np.ones((2, 2))), UNIFORM2)
    assert bundle.gram.rank == 1
    x = matrix_unit(2, 0, 1)
    assert max_abs(bundle.pi(x) - bundle.rho(x)) < 1e-12


def test_build_rejects_uncertified_and_mismatched_inputs():
    with pytest.raises(PreconditionError):
        build_dilation(SchurSymbol([[1.0, 2.0], [2.0, 1.0]]), UNIFORM2)
    with pytest.raises(PreconditionError):
        build_dilation(SchurSymbol([[1.0, 1j], [-1j, 1.0]]), UNIFORM2)
    with pytest.raises(ShapeError):
        build_dilation(SchurSymbol(T2), STATE3)


def test_convex_combination_dilates_the_mixture():
    s1 = np.array([[1.0, 0.5], [0.5, 1.0]])
    s2 = np.array([[1.0, -0.2], [-0.2, 1.0]])
    b1 = build_dilation(SchurSymbol(s1), UNIFORM2)
    b2 = build_dilation(SchurSymbol(s2), UNIFORM2)
    mixed = convex_combination_dilation([b1, b2], [0.25, 0.75])
    blended = SchurSymbol(0.25 * s1 + 0.75 * s2)
    assert verify_factorization(mixed, blended, UNIFORM2, seed=6) < 1e-12
    assert mixed.rep is None
    with pytest.raises(PreconditionError):
        verify_even_closure(mixed)


def test_convex_combination_guards():
    b1 = build_dilation(SchurSymbol(T2), UNIFORM2)
    b2 = build_dilation(SchurSymbol(np.array([[1.0, -0.2], [-0.2, 1.0]])),
                        UNIFORM2)
    with pytest.raises(ShapeError):
        convex_combination_dilation([b1, b2], [1.0])
    with pytest.raises(PreconditionError):
        convex_combination_dilation([b1, b2], [0.5, 0.6])
    with pytest.raises(PreconditionError):
        convex_combination_dilation([b1, b2], [-0.5, 1.5])
    b3 = build_dilation(SchurSymbol(T3), STATE3)
    with pytest.raises(PreconditionError):
        convex_combination_dilation([b1, b3], [0.5, 0.5])


def test_ambient_state_restricts_to_the_input_state():
    state = DiagonalState([0.7, 0.3])
    bundle = build_dilation(SchurSymbol(np.array([[1.0, 0.4], [0.4, 1.0]])),
                            state)
    for leg in (bundle.pi, bundle.rho):
        for i in range(2):
            for j in range(2):
                x = matrix_unit(2, i, j)
                assert abs(bundle.ambient_phi(leg(x)) - state(x)) < 1e-12


# ---------------------------------------------------------------------------
# dense references: rho as d pi(x) d, pairings as ambient_phi of the product


def _dense_pairing_residual(bundle, state, symbol, left, right, samples, seed, swap):
    """max |phi(M(x) y) - ambient_phi(left(x) @ right(y))| over every pair of
    matrix units and the seeded random pairs (swapped for the star swap)."""
    n = bundle.input_dim
    units = [matrix_unit(n, i, j) for i in range(n) for j in range(n)]
    gen = rng(seed)
    pairs = [(random_complex(gen, n), random_complex(gen, n)) for _ in range(samples)]
    if swap:
        pairs = [(y, x) for x, y in pairs]
    worst = 0.0
    for x, y in [(u, v) for u in units for v in units] + pairs:
        lhs = state(apply_multiplier(symbol, x) @ y)
        worst = max(worst, abs(lhs - bundle.ambient_phi(left(x) @ right(y))))
    return worst


@st.composite
def symbols_and_states(draw):
    """Unital PSD symbols with n <= 4 of every Gram rank, with faithful states."""
    n = draw(st.integers(min_value=1, max_value=4))
    rank = draw(st.integers(min_value=1, max_value=n))
    gen = rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    symbol = SchurSymbol(random_unital_psd_symbol(gen, n, rank))
    return symbol, DiagonalState(random_weights(gen, n)), gen


@settings(max_examples=40, deadline=None)
@given(symbols_and_states())
def test_block_rho_matches_dense_conjugation(case):
    symbol, state, gen = case
    bundle = build_dilation(symbol, state)
    n, d = symbol.dim, bundle.d
    for x in [matrix_unit(n, 0, n - 1), random_complex(gen, n)]:
        assert max_abs(bundle.rho(x) - d @ bundle.pi(x) @ d) <= 1e-13


def _reference_bundles():
    b2 = build_dilation(SchurSymbol(T2), UNIFORM2)
    s2 = np.array([[1.0, -0.2], [-0.2, 1.0]])
    mixed = convex_combination_dilation(
        [b2, build_dilation(SchurSymbol(s2), UNIFORM2)], [0.25, 0.75])
    t_rank1 = np.ones((3, 3))
    return [(build_dilation(SchurSymbol(T3), STATE3), SchurSymbol(T3), STATE3),
            (b2, SchurSymbol(T2), UNIFORM2),
            (mixed, SchurSymbol(0.25 * T2 + 0.75 * s2), UNIFORM2),
            (build_dilation(SchurSymbol(t_rank1), STATE3), SchurSymbol(t_rank1), STATE3)]


def test_pairing_residuals_match_dense_products():
    for bundle, symbol, state in _reference_bundles():
        fact = verify_factorization(bundle, symbol, state, samples=6, seed=9)
        dense = _dense_pairing_residual(bundle, state, symbol, bundle.pi, bundle.rho,
                                        6, 9, swap=False)
        assert abs(fact - dense) <= 1e-13
        swap = star_swap_check(bundle, symbol, state, samples=6, seed=9)
        dense = _dense_pairing_residual(bundle, state, SchurSymbol(symbol.matrix.T),
                                        bundle.rho, bundle.pi, 6, 9, swap=True)
        assert abs(swap - dense) <= 1e-13


def test_image_pairings_in_chunks_match_one_stack(monkeypatch):
    bundle = build_dilation(SchurSymbol(T3), STATE3)
    whole = verify_factorization(bundle, SchurSymbol(T3), STATE3, samples=3, seed=2)
    # two images per chunk: every unit image is formed once per chunk of the other side
    monkeypatch.setattr(config, "CHUNK_BYTES", 2 * 16 * bundle.ambient_dim ** 2)
    chunked = verify_factorization(bundle, SchurSymbol(T3), STATE3, samples=3, seed=2)
    assert abs(chunked - whole) <= 1e-15


def test_perturbed_rho_block_fails_the_checks():
    # rho through one block 1.01 w_1 is no longer multiplicative, and its
    # pairing with pi no longer factorizes the multiplier
    bundle = build_dilation(SchurSymbol(T3), STATE3)
    omegas = np.stack([bundle.rep.generator_omega(i) for i in range(3)])
    omegas[1] *= 1.01
    bad = dataclasses.replace(bundle, rho=lambda x: block_conjugate(omegas, np.asarray(x)))
    tol = config.TOL_NUM
    assert verify_morphism_markov(bad, samples=2, seed=1)["rho"].multiplicative > tol
    assert verify_factorization(bad, SchurSymbol(T3), STATE3, samples=2, seed=1) > tol
    assert star_swap_check(bad, SchurSymbol(T3), STATE3, samples=2, seed=1) > tol


# ---------------------------------------------------------------------------
# dense reference for the morphism check: every product of two images formed
# whole, every target through the morphism, over the pairs a <= b


def _dense_morphism_reports(bundle, samples, seed, t_samples=config.T_SAMPLES):
    n = bundle.input_dim
    eye_n = np.eye(n, dtype=complex)
    gen = rng(seed)
    if bundle.domain_basis is None:
        xs = [matrix_unit(n, i, j) for i in range(n) for j in range(n)]
        xs += [random_complex(gen, n) for _ in range(samples)]
    else:
        basis = np.stack(bundle.domain_basis)
        xs = list(basis)
        xs += list(np.tensordot(random_complex(gen, samples, basis.shape[0]), basis, axes=1))
    out = {}
    for name, mor in (("pi", bundle.pi), ("rho", bundle.rho)):
        images = [mor(x) for x in xs]
        unital = max_abs(mor(eye_n) - np.eye(bundle.ambient_dim))
        mult = star = preserve = modular = 0.0
        for a, (x, mx) in enumerate(zip(xs, images)):
            star = max(star, max_abs(mor(dagger(x)) - dagger(mx)))
            preserve = max(preserve, abs(bundle.input_state(x) - bundle.ambient_phi(mx)))
            for t in t_samples:
                rhs = mor(modular_conjugate(bundle.input_state, x, t))
                modular = max(modular, max_abs(bundle.ambient_state.modular_phases(t) * mx - rhs))
            for b in range(a, len(xs)):
                mult = max(mult, max_abs(mx @ images[b] - mor(x @ xs[b])))
        out[name] = MorphismReport(unital=unital, multiplicative=mult, star=star,
                                   state_preserving=preserve, modular=modular)
    return out


def _assert_morphism_reports_match(bundle, samples, seed):
    reports = verify_morphism_markov(bundle, samples=samples, seed=seed)
    dense = _dense_morphism_reports(bundle, samples, seed)
    for leg in ("pi", "rho"):
        for field in dataclasses.fields(MorphismReport):
            assert abs(getattr(reports[leg], field.name)
                       - getattr(dense[leg], field.name)) <= 1e-13, (leg, field.name)


@settings(max_examples=40, deadline=None)
@given(symbols_and_states())
def test_morphism_reports_match_dense_products(case):
    symbol, state, _ = case
    _assert_morphism_reports_match(build_dilation(symbol, state), samples=3, seed=5)


def _convex_bundle():
    # fock dimensions 8 and 2: block i of the sum is not rows 10 i .. 10 i + 9
    rank_one = build_dilation(SchurSymbol(np.ones((3, 3))), STATE3)
    return convex_combination_dilation([build_dilation(SchurSymbol(T3), STATE3), rank_one],
                                       [0.4, 0.6])


def _rotated_bundle():
    # conjugating by a rotation of the indices 0 and f mixes blocks 0 and 1:
    # still *-morphisms, but their unit images fit no block pattern
    bundle = build_dilation(SchurSymbol(T3), STATE3)
    f = bundle.rep.dim
    u = np.eye(bundle.ambient_dim)
    u[np.ix_([0, f], [0, f])] = [[0.6, -0.8], [0.8, 0.6]]
    return dataclasses.replace(bundle, pi=lambda x: u @ bundle.pi(x) @ u.T,
                               rho=lambda x: u @ bundle.rho(x) @ u.T)


def test_morphism_reports_match_dense_products_on_other_bundles():
    mixed = _convex_bundle()
    assert mixed.ambient_dim == 8 * 3 + 2 * 3
    _assert_morphism_reports_match(mixed, samples=3, seed=5)
    _assert_morphism_reports_match(_rotated_bundle(), samples=3, seed=5)
    for group in (cyclic_group(3), symmetric_group(3)):
        bundle = build_crossed_dilation(random_posdef_symbol(group, rng(5)))
        _assert_morphism_reports_match(bundle, samples=2, seed=5)


@pytest.mark.parametrize("make", [lambda: build_dilation(SchurSymbol(T3), STATE3),
                                  _convex_bundle], ids=["schur", "convex"])
def test_unit_pairs_call_no_morphism(make, monkeypatch):
    # every ordered unit pair is one block product of the batched route:
    # neither a dense product nor a call of pi or rho
    bundle = make()
    calls = {"pi": 0, "rho": 0}

    def counted(name, mor):
        def wrapped(x):
            calls[name] += 1
            return mor(x)
        return wrapped

    products = []
    support_product = dilation_module._product_residual
    monkeypatch.setattr(dilation_module, "_product_residual",
                        lambda *args: products.append(1) or support_product(*args))
    counted_bundle = dataclasses.replace(bundle, pi=counted("pi", bundle.pi),
                                         rho=counted("rho", bundle.rho))
    samples, units = 3, 9
    verify_morphism_markov(counted_bundle, samples=samples, seed=1)
    xs = units + samples
    random_pairs = units * samples + samples * (samples + 1) // 2
    # images, the unit, mor(0), random adjoints, modular images, random pair targets
    expected = xs + 2 + samples + xs * len(config.T_SAMPLES) + random_pairs
    assert calls == {"pi": expected, "rho": expected}
    assert len(products) == 2 * random_pairs


def test_leaked_unit_images_fail_multiplicativity():
    # no random samples: the unit pairs alone must expose each defect
    bundle = build_dilation(SchurSymbol(T3), STATE3)
    n, f = 3, bundle.rep.dim

    def leaky_rho(x):
        # each rho(e_ij) carries 1e-6 in block (i, j + 1), outside its own block
        out = bundle.rho(x).copy()
        for i in range(n):
            for j in range(n):
                out[i * f, ((j + 1) % n) * f] += 1e-6 * x[i, j]
        return out

    def foreign_row_pi(x):
        # the entry (0, f) of pi(e_01) copied into row 2 f, in block row 2
        out = bundle.pi(x).copy()
        out[2 * f, f] += out[0, f]
        return out

    def one_block_pi(x):
        # every unit image on block (0, 0): the index sets S_i coincide
        return bundle.pi(np.sum(x) * matrix_unit(n, 0, 0))

    def nonzero_at_zero_pi(x):
        return bundle.pi(x) if np.any(x) else np.eye(bundle.ambient_dim)

    for leg, bad in (("rho", dataclasses.replace(bundle, rho=leaky_rho)),
                     ("pi", dataclasses.replace(bundle, pi=foreign_row_pi)),
                     ("pi", dataclasses.replace(bundle, pi=one_block_pi)),
                     ("pi", dataclasses.replace(bundle, pi=nonzero_at_zero_pi))):
        mult = verify_morphism_markov(bad, samples=0, seed=1)[leg].multiplicative
        assert mult > config.TOL_NUM
        # every ordered unit pair is checked, a superset of the dense a <= b pairs
        assert mult >= _dense_morphism_reports(bad, 0, 1)[leg].multiplicative - 1e-13


def test_every_ordered_unit_pair_is_checked():
    # e_ij (x) V_ij with V = P, a rank-one projector, except V_11 = 1: every
    # pair a <= b multiplies, but pi(e_10) pi(e_01) = e_11 (x) P is not pi(e_11)
    bundle = build_dilation(SchurSymbol(T2), UNIFORM2)
    f = bundle.rep.dim
    p = np.zeros((f, f))
    p[0, 0] = 1.0
    fields = np.array([[p, p], [p, np.eye(f)]])

    def twisted_pi(x):
        return np.block([[x[i, j] * fields[i, j] for j in range(2)] for i in range(2)])

    bad = dataclasses.replace(bundle, pi=twisted_pi)
    assert _dense_morphism_reports(bad, 0, 1)["pi"].multiplicative == 0.0
    assert verify_morphism_markov(bad, samples=0, seed=1)["pi"].multiplicative == 1.0


def test_product_on_support_matches_dense_product():
    gen = rng(8)
    dim = 12
    for _ in range(30):
        images = random_complex(gen, 2 * dim, dim).reshape(2, dim, dim)
        target = random_complex(gen, dim)
        for m in (images[0], images[1], target):
            m[gen.random(dim) < 0.4] = 0.0
            m[:, gen.random(dim) < 0.4] = 0.0
        nonzero = images != 0
        rows, cols = nonzero.any(axis=2), nonzero.any(axis=1)
        product = images[0] @ images[1]
        targets = [target, 0.0 * target, product]
        # the product with one entry off, inside or outside its support
        for r, c in gen.integers(dim, size=(8, 2)):
            targets.append(product.copy())
            targets[-1][r, c] += 1.0
        for mx in targets:
            support = dilation_module._product_residual(images, rows, cols, 0, 1, mx)
            assert abs(support - max_abs(product - mx)) <= 1e-13
