import contextlib
import dataclasses
import io
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dilation_lab.dilation as dilation_module
from dilation_lab import (DiagonalState, DilationBundle, FermionRep, FourierSymbol,
                          PreconditionError, SchurSymbol, ShapeError, apply_multiplier,
                          build_crossed_dilation, build_dilation, cli, config,
                          convex_combination_dilation, cyclic_group, dihedral_group,
                          random_posdef_symbol, schur_symbol_matrix, star_swap_check,
                          symmetric_group, verify_even_closure, verify_factorization,
                          verify_morphism_markov, verify_symmetry)
from dilation_lab.matcore import (dagger, direct_sum, matrix_unit, matrix_units, max_abs,
                                  random_complex, random_unital_psd_symbol, random_weights, rng)
from dilation_lab.states import modular_conjugate

PROPERTIES = ("unital", "multiplicative", "star", "state_preserving", "modular")

T2 = np.array([[1.0, 0.5], [0.5, 1.0]])
UNIFORM2 = DiagonalState([0.5, 0.5])

T3 = np.array([[1.0, 0.3, 0.1],
               [0.3, 1.0, 0.4],
               [0.1, 0.4, 1.0]])
STATE3 = DiagonalState([0.5, 0.3, 0.2])


def test_worked_off_diagonal_pairing():
    # phi~(pi(e01) rho(e10)) recovers w_0 t_01 = 0.5 * 0.5
    bundle = build_dilation(SchurSymbol(T2), UNIFORM2)
    value = bundle.ambient_state(bundle.pi(matrix_unit(2, 0, 1))
                                 @ bundle.rho(matrix_unit(2, 1, 0)))
    assert abs(value - 0.25) < 1e-12


def test_factorization_recovers_the_map():
    assert verify_factorization(build_dilation(SchurSymbol(T2), UNIFORM2),
                                SchurSymbol(T2), UNIFORM2, seed=1) < 1e-12
    assert verify_factorization(build_dilation(SchurSymbol(T3), STATE3),
                                SchurSymbol(T3), STATE3, seed=1) < 1e-12


def test_generator_is_a_symmetry_in_the_centralizer():
    bundle = build_dilation(SchurSymbol(T2), UNIFORM2)
    d = direct_sum(bundle.blocks)
    assert max_abs(d - dagger(d)) < 1e-12
    assert max_abs(d @ d - np.eye(bundle.ambient_dim)) < 1e-12
    rho_amb = bundle.ambient_state.density()
    assert max_abs(d @ rho_amb - rho_amb @ d) < 1e-12


def test_morphism_reports_vanish():
    bundle = build_dilation(SchurSymbol(T3), STATE3)
    reports = verify_morphism_markov(bundle, samples=6, seed=3)
    assert set(reports) == {f"{leg}_{prop}" for leg in ("pi", "rho") for prop in PROPERTIES}
    assert max(reports.values()) < 1e-10


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
    # the legs act on all of M_3: the generators are the matrix unit images
    bundle = build_crossed_dilation(random_posdef_symbol(cyclic_group(3), rng(5)))
    assert verify_even_closure(bundle) == 0.0


def test_even_closure_reports_an_odd_leak():
    # rho over the blocks (w_0, 1) sends e_01 to the odd w_0 in block (0, 1)
    bundle = build_dilation(SchurSymbol(T2), UNIFORM2)
    coefficients = np.stack([bundle.coefficients[0], np.eye(bundle.rep.dim)[0]])
    leaky = dataclasses.replace(bundle, coefficients=coefficients)
    assert max_abs(leaky.blocks - np.stack([bundle.rep.generator_omega(0),
                                            np.eye(bundle.rep.dim)])) <= 1e-15
    residual = verify_even_closure(leaky)
    assert residual > 0.5
    # the dense value: max |P g P - g| over the ambient unit images
    parity = np.kron(np.eye(2), bundle.rep.parity())
    assert residual == max(max_abs(parity @ leg(x) @ parity - leg(x))
                           for leg in (leaky.pi, leaky.rho) for x in matrix_units(2))


def test_even_closure_on_a_full_rank_5x5_bundle():
    # ambient dimension 160: a numerical closure of the images is out of reach
    symbol = SchurSymbol(random_unital_psd_symbol(rng(11), 5))
    bundle = build_dilation(symbol, DiagonalState(random_weights(rng(12), 5)))
    assert bundle.gram.rank == 5
    assert verify_even_closure(bundle) <= 1e-12


def test_even_closure_takes_no_tolerance():
    bundle = build_dilation(SchurSymbol(T2), UNIFORM2)
    with pytest.raises(TypeError):
        verify_even_closure(bundle, tol=config.TOL_NUM)


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
                assert abs(bundle.ambient_state(leg(x)) - state(x)) < 1e-12


# ---------------------------------------------------------------------------
# dense references: rho as d pi(x) d, pairings as the ambient state of the product


def _dense_pairing_residual(bundle, state, symbol, left, right, samples, seed, swap):
    """max |phi(M(x) y) - phi~(left(x) right(y))| over every pair of matrix
    units and the seeded random pairs (swapped for the star swap), with
    phi~(a b) = sum_ab w~_a a_ab b_ba from the dense images."""
    n = bundle.input_dim
    units = [matrix_unit(n, i, j) for i in range(n) for j in range(n)]
    gen = rng(seed)
    pairs = [(random_complex(gen, n), random_complex(gen, n)) for _ in range(samples)]
    if swap:
        pairs = [(y, x) for x, y in pairs]
    w = bundle.ambient_state.weights
    # every unit image once, and the n^4 unit pairings in one contraction
    table = np.einsum("a,pab,qba->pq", w, np.stack([left(u) for u in units]),
                      np.stack([right(u) for u in units]))
    worst = max(abs(state(apply_multiplier(symbol, x) @ y) - table[p, q])
                for (p, x), (q, y) in itertools.product(enumerate(units), repeat=2))
    for x, y in pairs:
        lhs = state(apply_multiplier(symbol, x) @ y)
        worst = max(worst, abs(lhs - np.einsum("a,ab,ba->", w, left(x), right(y))))
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
    n, d = symbol.dim, direct_sum(bundle.blocks)
    for x in [matrix_unit(n, 0, n - 1), random_complex(gen, n)]:
        assert max_abs(bundle.rho(x) - d @ bundle.pi(x) @ d) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(symbols_and_states())
def test_pi_is_the_kronecker_product(case):
    symbol, state, gen = case
    bundle = build_dilation(symbol, state)
    eye_f = np.eye(bundle.fiber_state.dim)
    for x in [*matrix_units(symbol.dim), random_complex(gen, symbol.dim)]:
        np.testing.assert_array_equal(bundle.pi(x), np.kron(x, eye_f))


def test_pi_refuses_an_argument_of_another_size():
    bundle = build_dilation(SchurSymbol(T2), UNIFORM2)
    for leg in (bundle.pi, bundle.rho):
        with pytest.raises(ShapeError):
            leg(np.ones((1, 1)))


@st.composite
def convex_families(draw):
    """2-3 unital PSD symbols (n <= 3, rank <= 2) on one faithful state, and
    positive weights summing to one."""
    n = draw(st.integers(min_value=1, max_value=3))
    ranks = draw(st.lists(st.integers(min_value=1, max_value=min(2, n)), min_size=2, max_size=3))
    gen = rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    symbols = [SchurSymbol(random_unital_psd_symbol(gen, n, rank)) for rank in ranks]
    weights = 0.05 + gen.random(len(ranks))
    return symbols, DiagonalState(random_weights(gen, n)), weights / weights.sum()


@settings(max_examples=40, deadline=None)
@given(convex_families())
def test_convex_combinations_certify(family):
    symbols, state, weights = family
    mixed = convex_combination_dilation([build_dilation(s, state) for s in symbols], weights)
    blended = SchurSymbol(sum(w * s.matrix for w, s in zip(weights, symbols)))
    assert verify_factorization(mixed, blended, state, samples=8, seed=1) <= config.TOL_NUM
    morphisms = verify_morphism_markov(mixed, samples=3, seed=2)
    assert sorted(morphisms) == sorted(f"{leg}_{prop}" for leg in ("pi", "rho")
                                       for prop in PROPERTIES)
    assert {key: value for key, value in morphisms.items() if value > config.TOL_NUM} == {}
    assert star_swap_check(mixed, blended, state, samples=8, seed=3) <= config.TOL_NUM


def _full_rank_5x5():
    # Gram rank 5: fiber 32, ambient dimension 160
    symbol = SchurSymbol(random_unital_psd_symbol(rng(11), 5))
    state = DiagonalState(random_weights(rng(12), 5))
    return build_dilation(symbol, state), symbol, state


def _reference_bundles():
    b2 = build_dilation(SchurSymbol(T2), UNIFORM2)
    s2 = np.array([[1.0, -0.2], [-0.2, 1.0]])
    mixed = convex_combination_dilation(
        [b2, build_dilation(SchurSymbol(s2), UNIFORM2)], [0.25, 0.75])
    t_rank1 = np.ones((3, 3))
    t = random_posdef_symbol(cyclic_group(3), rng(5))
    return [(build_dilation(SchurSymbol(T3), STATE3), SchurSymbol(T3), STATE3),
            (b2, SchurSymbol(T2), UNIFORM2),
            (mixed, SchurSymbol(0.25 * T2 + 0.75 * s2), UNIFORM2),
            (build_dilation(SchurSymbol(t_rank1), STATE3), SchurSymbol(t_rank1), STATE3),
            _full_rank_5x5(),
            (_convex_bundle(), SchurSymbol(0.4 * T3 + 0.6 * t_rank1), STATE3),
            (build_crossed_dilation(t), SchurSymbol(schur_symbol_matrix(t)),
             DiagonalState.tracial(3))]


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


def test_unit_pairings_match_dense_products_on_other_bundles():
    # blocks of unequal fibers and non-symmetric blocks; no random pairs,
    # whose residuals would hide the unit table's
    for bundle, state in ((_convex_bundle(), STATE3), (_skewed_bundle(), STATE3)):
        fact = verify_factorization(bundle, SchurSymbol(T3), state, samples=0)
        dense = _dense_pairing_residual(bundle, state, SchurSymbol(T3), bundle.pi, bundle.rho,
                                        0, 9, swap=False)
        assert abs(fact - dense) <= 1e-13
        swap = star_swap_check(bundle, SchurSymbol(T3), state, samples=0)
        dense = _dense_pairing_residual(bundle, state, SchurSymbol(T3), bundle.rho, bundle.pi,
                                        0, 9, swap=True)
        assert abs(swap - dense) <= 1e-13


def test_full_rank_6x6_checks_hold_few_ambient_images():
    # the verifiers work on (n, f, n) vacuum columns: none holds even one
    # ambient image at a time
    symbol = SchurSymbol(random_unital_psd_symbol(rng(3), 6))
    state = DiagonalState(random_weights(rng(4), 6))
    bundle = build_dilation(symbol, state)
    image_bytes = 16 * bundle.ambient_dim ** 2
    checks = {"morphism": lambda: max(verify_morphism_markov(bundle, samples=2, seed=1).values()),
              "factorization": lambda: verify_factorization(bundle, symbol, state,
                                                            samples=2, seed=1),
              "star_swap": lambda: star_swap_check(bundle, symbol, state, samples=2, seed=1)}
    for name, check in checks.items():
        tracemalloc.start()
        try:
            residual = check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert residual <= 1e-10, name
        assert peak < image_bytes, name


def test_perturbed_rho_block_fails_the_checks():
    # rho through one block 1.01 w_1 is no longer multiplicative, and its
    # pairing with pi no longer factorizes the multiplier
    bad = _scaled_bundle()
    tol = config.TOL_NUM
    mult = verify_morphism_markov(bad, samples=2, seed=1)["rho_multiplicative"]
    assert mult > tol
    assert abs(mult - _dense_morphism_reports(bad, 2, 1)["rho_multiplicative"]) <= 1e-13
    for check, left, right, symbol, swap in (
            (verify_factorization, bad.pi, bad.rho, SchurSymbol(T3), False),
            (star_swap_check, bad.rho, bad.pi, SchurSymbol(T3.T), True)):
        residual = check(bad, SchurSymbol(T3), STATE3, samples=2, seed=1)
        assert residual > tol
        dense = _dense_pairing_residual(bad, STATE3, symbol, left, right, 2, 1, swap=swap)
        assert abs(residual - dense) <= 1e-13


# ---------------------------------------------------------------------------
# dense reference for the morphism check: every product of two images formed
# whole, every target through the morphism, over the pairs a <= b


def _dense_morphism_reports(bundle, samples, seed):
    n = bundle.input_dim
    eye_n = np.eye(n, dtype=complex)
    gen = rng(seed)
    xs = [matrix_unit(n, i, j) for i in range(n) for j in range(n)]
    xs += [random_complex(gen, n) for _ in range(samples)]
    out = {}
    for name, mor in (("pi", bundle.pi), ("rho", bundle.rho)):
        images = [mor(x) for x in xs]
        unital = max_abs(mor(eye_n) - np.eye(bundle.ambient_dim))
        mult = star = preserve = modular = 0.0
        for a, (x, mx) in enumerate(zip(xs, images)):
            star = max(star, max_abs(mor(dagger(x)) - dagger(mx)))
            preserve = max(preserve, abs(bundle.input_state(x) - bundle.ambient_state(mx)))
            for t in config.T_SAMPLES:
                rhs = mor(modular_conjugate(bundle.input_state, x, t))
                modular = max(modular, max_abs(bundle.ambient_state.modular_phases(t) * mx - rhs))
            for b in range(a, len(xs)):
                mult = max(mult, max_abs(mx @ images[b] - mor(x @ xs[b])))
        out.update({f"{name}_unital": unital, f"{name}_multiplicative": mult,
                    f"{name}_star": star, f"{name}_state_preserving": preserve,
                    f"{name}_modular": modular})
    return out


def _assert_morphism_reports_match(bundle, samples, seed):
    reports = verify_morphism_markov(bundle, samples=samples, seed=seed)
    dense = _dense_morphism_reports(bundle, samples, seed)
    assert set(reports) == set(dense)
    for key, residual in reports.items():
        assert abs(residual - dense[key]) <= 1e-13, key


@settings(max_examples=40, deadline=None)
@given(symbols_and_states())
def test_morphism_reports_match_dense_products(case):
    symbol, state, _ = case
    _assert_morphism_reports_match(build_dilation(symbol, state), samples=3, seed=5)


def _convex_bundle():
    # fock dimensions 8 and 2: block i of the sum is the direct sum of the
    # two bundles' blocks i, of size 10
    rank_one = build_dilation(SchurSymbol(np.ones((3, 3))), STATE3)
    return convex_combination_dilation([build_dilation(SchurSymbol(T3), STATE3), rank_one],
                                       [0.4, 0.6])


def _skewed_bundle():
    # rho over blocks whose block 1 is i w_1: in the Clifford algebra of the
    # fields but not self-adjoint, so rho(e_01)^* = -i w_1 w_0 is not
    # rho(e_10) = i w_1 w_0
    bundle = build_dilation(SchurSymbol(T3), STATE3)
    coefficients = bundle.coefficients.copy()
    coefficients[1] *= 1j
    return dataclasses.replace(bundle, coefficients=coefficients)


def _s3_signs():
    # the signs of the permutations of symmetric_group(3), in its order
    return np.array([np.linalg.det(np.eye(3)[list(p)])
                     for p in itertools.permutations(range(3))]).round()


def test_morphism_reports_match_dense_products_on_other_bundles():
    _assert_morphism_reports_match(_full_rank_5x5()[0], samples=2, seed=5)
    mixed = _convex_bundle()
    assert mixed.ambient_dim == 8 * 3 + 2 * 3
    _assert_morphism_reports_match(mixed, samples=3, seed=5)
    # the full-rank s3 bundle has ambient dimension 384, too large for the
    # dense reference over its 36 units; t = (1 + sgn) / 2 has rank 2
    for t in (random_posdef_symbol(cyclic_group(3), rng(5)),
              FourierSymbol(symmetric_group(3), (1 + _s3_signs()) / 2)):
        bundle = build_crossed_dilation(t)
        _assert_morphism_reports_match(bundle, samples=2, seed=5)


def test_morphism_reports_match_dense_products_on_block_patterns_of_other_shapes():
    # blocks that are not self-adjoint; no random samples: the unit rows
    # alone must match the dense ones
    skewed = _skewed_bundle()
    assert verify_morphism_markov(skewed, samples=0)["rho_star"] > 0.1
    _assert_morphism_reports_match(skewed, samples=0, seed=5)


@st.composite
def built_bundles(draw):
    """Bundles of build_dilation, convex_combination_dilation and
    build_crossed_dilation."""
    kind = draw(st.sampled_from(["schur", "convex", "crossed"]))
    if kind == "schur":
        symbol, state, _ = draw(symbols_and_states())
        return build_dilation(symbol, state)
    if kind == "convex":
        symbols, state, weights = draw(convex_families())
        return convex_combination_dilation([build_dilation(s, state) for s in symbols], weights)
    group = draw(st.sampled_from([cyclic_group(2), cyclic_group(3), cyclic_group(4),
                                  cyclic_group(6), dihedral_group(3), symmetric_group(3)]))
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    return build_crossed_dilation(random_posdef_symbol(group, rng(seed)))


@settings(max_examples=30, deadline=None)
@given(built_bundles())
def test_unit_images_are_the_unit_blocks(bundle):
    # the premise of the unit rows: pi(e_ij) is the identity and rho(e_ij) is
    # blocks[i] blocks[j] on block (i, j), and both are exactly 0 elsewhere
    n, f, _ = bundle.blocks.shape
    products = bundle.blocks[:, None] @ bundle.blocks[None]
    for i, j in itertools.product(range(n), repeat=2):
        for image, block in ((bundle.pi(matrix_unit(n, i, j)), np.eye(f)),
                             (bundle.rho(matrix_unit(n, i, j)), products[i, j])):
            grid = image.reshape(n, f, n, f).swapaxes(1, 2)
            assert np.array_equal(grid[i, j], block)
            grid[i, j] = 0
            assert not np.any(grid)


def _scaled_bundle():
    # rho through one block 1.01 w_1: in the Clifford algebra of the fields,
    # but no longer multiplicative
    bundle = build_dilation(SchurSymbol(T3), STATE3)
    coefficients = bundle.coefficients.copy()
    coefficients[1] *= 1.01
    return dataclasses.replace(bundle, coefficients=coefficients)


@pytest.mark.parametrize("make", [lambda: build_dilation(SchurSymbol(T3), STATE3),
                                  _convex_bundle],
                         ids=["schur", "convex"])
def test_unit_pairs_call_no_morphism(make, monkeypatch):
    # every row is read on vacuum columns: no verifier calls pi or rho, for
    # the units or for the samples
    bundle = make()
    calls = {"pi": 0, "rho": 0}

    def counted(name):
        leg = getattr(DilationBundle, name)

        def wrapped(self, x):
            calls[name] += 1
            return leg(self, x)
        monkeypatch.setattr(DilationBundle, name, wrapped)

    counted("pi")
    counted("rho")
    verify_morphism_markov(bundle, samples=3, seed=1)
    verify_factorization(bundle, SchurSymbol(T3), STATE3, samples=3, seed=1)
    star_swap_check(bundle, SchurSymbol(T3), STATE3, samples=3, seed=1)
    if bundle.rep is not None:
        verify_even_closure(bundle)
    assert calls == {"pi": 0, "rho": 0}


def _unit_sample_routes(bundle, samples, seed):
    """Per leg and sample y: the unit x sample residual on vacuum columns,
    and max |mor(e_ij) mor(y) - mor(e_ij y)| over the units from dense
    ambient products."""
    n = bundle.input_dim
    gen = rng(seed)
    draws = [random_complex(gen, n) for _ in range(samples)]
    vac = bundle.vacuum
    routes = []
    for mor, leg in ((bundle.pi, vac.pi), (bundle.rho, vac.rho)):
        units = [mor(x) for x in matrix_units(n)]
        for y in draws:
            batched = leg.unit_products(y[None], leg.columns(y[None]))
            dense = max(max_abs(unit @ mor(y) - mor(x @ y))
                        for x, unit in zip(matrix_units(n), units))
            routes.append((batched, dense))
    return routes


@pytest.mark.parametrize("make", [lambda: build_dilation(SchurSymbol(T3), STATE3),
                                  _convex_bundle, _scaled_bundle],
                         ids=["schur", "convex", "scaled"])
def test_batched_unit_sample_residual_matches_per_pair_route(make):
    for batched, dense in _unit_sample_routes(make(), samples=4, seed=3):
        assert abs(batched - dense) <= 1e-13


def _dense_symmetry(bundle):
    """The symmetry rows from the dense blocks: d - d^* and d^2 - 1 vanish
    off the diagonal blocks."""
    blocks = bundle.blocks
    return {"self_adjoint": max_abs(blocks - dagger(blocks)),
            "squares_to_identity": max_abs(blocks @ blocks - np.eye(blocks.shape[-1]))}


def _assert_symmetry_rows_match(bundle):
    rows, dense = verify_symmetry(bundle), _dense_symmetry(bundle)
    assert list(rows) == ["self_adjoint", "squares_to_identity"]
    assert rows["self_adjoint"] == dense["self_adjoint"]
    assert abs(rows["squares_to_identity"] - dense["squares_to_identity"]) <= 1e-15
    return rows


@pytest.mark.parametrize("make", [
    lambda: build_dilation(SchurSymbol(T3), STATE3), _convex_bundle,
    lambda: build_crossed_dilation(random_posdef_symbol(cyclic_group(6), rng(13))),
    _skewed_bundle, _scaled_bundle], ids=["built", "convex", "crossed", "skewed", "scaled"])
def test_symmetry_rows_on_vacuum_columns_match_the_dense_blocks(make):
    _assert_symmetry_rows_match(make())


@settings(max_examples=30, deadline=None)
@given(built_bundles())
def test_symmetry_rows_of_built_bundles_match_the_dense_blocks(bundle):
    rows = _assert_symmetry_rows_match(bundle)
    assert max(rows.values()) <= config.TOL_EXACT


def test_perturbed_blocks_still_fail_the_symmetry_rows():
    # i w_1 is skew-adjoint and squares to -1; 1.01 w_1 is self-adjoint and
    # squares to 1.0201
    skewed, scaled = verify_symmetry(_skewed_bundle()), verify_symmetry(_scaled_bundle())
    assert min(skewed.values()) > 1.0
    assert scaled["self_adjoint"] == 0.0
    assert abs(scaled["squares_to_identity"] - 0.0201) <= 1e-15


def test_every_ordered_unit_pair_is_checked():
    # rho over the blocks (Q, 1), Q = (1 + w(f_0)) / 2 a projector in the
    # Clifford algebra, sends e_ij to e_ij (x) V_ij with V = Q except
    # V_11 = 1: every pair a <= b multiplies, but rho(e_10) rho(e_01) =
    # e_11 (x) Q is not rho(e_11), and Q - 1 has max-abs 1/2
    bundle = build_dilation(SchurSymbol(T2), UNIFORM2)
    eye = np.eye(bundle.rep.dim)
    # Q Omega = (e_0 + e_1) / 2, and 1 Omega = e_0
    bad = dataclasses.replace(bundle, coefficients=np.stack([(eye[0] + eye[1]) / 2, eye[0]]))
    q = (eye + bundle.rep.omega(np.eye(bundle.rep.rank)[0])) / 2
    assert max_abs(bad.blocks - np.stack([q, eye])) <= 1e-15
    assert _dense_morphism_reports(bad, 0, 1)["rho_multiplicative"] == 0.0
    assert verify_morphism_markov(bad, samples=0, seed=1)["rho_multiplicative"] == 0.5


def _rebuilt_from_vacuum_columns(coefficients, fibers):
    """Each block rebuilt on each fiber summand as sum_S c_S gamma_S from its
    vacuum column c, gamma_S the dense ordered field products."""
    n, f = coefficients.shape
    rebuilt = np.zeros((n, f, f), dtype=complex)
    start = 0
    for size in fibers:
        rank = size.bit_length() - 1
        products = np.stack(FermionRep(rank, np.eye(rank)).omega_products())
        # gamma_S Omega = e_S, so the vacuum column holds the c_S
        assert np.array_equal(products[:, :, 0], np.eye(size))
        part = slice(start, start + size)
        rebuilt[:, part, part] = np.tensordot(coefficients[:, part], products, axes=1)
        start += size
    return rebuilt


@settings(max_examples=30, deadline=None)
@given(built_bundles())
def test_every_built_block_is_rebuilt_from_its_vacuum_columns(bundle):
    # the premise of the vacuum-column route: each summand is a Fock space
    # with its tracial state, and the blocks synthesized from the
    # coefficients are the dense sums of the ordered field products, whose
    # vacuum columns are the coefficients
    assert sum(bundle.fibers) == bundle.fiber_state.dim
    start = 0
    for size in bundle.fibers:
        assert np.ptp(bundle.fiber_state.weights[start:start + size]) <= config.TOL_EXACT
        assert np.array_equal(bundle.blocks[:, start:start + size, start],
                              bundle.coefficients[:, start:start + size])
        start += size
    assert max_abs(bundle.blocks - _rebuilt_from_vacuum_columns(bundle.coefficients,
                                                                bundle.fibers)) <= 1e-15


def test_premise_is_checked_once_per_op(monkeypatch):
    # once per bundle, at construction: check-schur builds one bundle for its
    # three vacuum-column verifiers, and fourier one for its identity row
    calls = []
    synthesize = dilation_module._synthesize

    def counted(bundle):
        calls.append(bundle)
        return synthesize(bundle)

    monkeypatch.setattr(dilation_module, "_synthesize", counted)
    for command in ("check-schur", "fourier"):
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main([command]) == 0
        assert len(calls) == 1, command


def test_fiber_summands_off_the_premise_are_refused():
    # a summand that is not a Fock space, or whose fiber state is not
    # tracial, is refused when the bundle is constructed
    bundle = build_dilation(SchurSymbol(T2), UNIFORM2)
    with pytest.raises(PreconditionError, match="tracial state"):
        dataclasses.replace(bundle, fibers=(3, 1))
    with pytest.raises(PreconditionError, match="tracial state"):
        dataclasses.replace(bundle, fiber_state=DiagonalState([0.4, 0.2, 0.2, 0.2]))
    with pytest.raises(ShapeError):
        dataclasses.replace(bundle, fibers=(2,))
