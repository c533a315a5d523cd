import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dilation_lab.dilation as dilation_module
from dilation_lab import (DiagonalState, FourierSymbol, PreconditionError, SchurSymbol,
                          ShapeError, apply_multiplier, build_crossed_dilation,
                          build_dilation, config, convex_combination_dilation,
                          cyclic_group, random_posdef_symbol, star_swap_check,
                          symmetric_group, verify_even_closure, verify_factorization,
                          verify_morphism_markov)
from dilation_lab.matcore import (block_conjugate, dagger, direct_sum, matrix_unit, matrix_units,
                                  max_abs, random_complex, random_unital_psd_symbol,
                                  random_weights, rng)
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


def test_unit_pairings_match_dense_products_on_other_bundles():
    # unit images on non-contiguous index sets, on no block pattern, on
    # non-symmetric blocks in both legs, and legs whose patterns sit on
    # different index sets; no random pairs, whose residuals would hide the
    # unit table's
    tracial = DiagonalState.tracial(3)
    permuted = _permuted_bundle()
    mixed_legs = dataclasses.replace(build_dilation(SchurSymbol(T3), tracial), rho=permuted.rho)
    skewed = _skewed_bundle()
    for bundle, state in ((permuted, tracial), (_rotated_bundle(), STATE3),
                          (dataclasses.replace(skewed, pi=skewed.rho), STATE3),
                          (mixed_legs, tracial)):
        fact = verify_factorization(bundle, SchurSymbol(T3), state, samples=0)
        dense = _dense_pairing_residual(bundle, state, SchurSymbol(T3), bundle.pi, bundle.rho,
                                        0, 9, swap=False)
        assert abs(fact - dense) <= 1e-13
        swap = star_swap_check(bundle, SchurSymbol(T3), state, samples=0)
        dense = _dense_pairing_residual(bundle, state, SchurSymbol(T3), bundle.rho, bundle.pi,
                                        0, 9, swap=True)
        assert abs(swap - dense) <= 1e-13


def test_full_rank_6x6_checks_hold_few_ambient_images():
    # each unit image is cut to its block as it is made, so neither check
    # holds a stack of the n^2 = 36 ambient unit images
    symbol = SchurSymbol(random_unital_psd_symbol(rng(3), 6))
    state = DiagonalState(random_weights(rng(4), 6))
    bundle = build_dilation(symbol, state)
    image_bytes = 16 * bundle.ambient_dim ** 2
    checks = {"morphism": lambda: max(verify_morphism_markov(bundle, samples=2, seed=1).values()),
              "factorization": lambda: verify_factorization(bundle, symbol, state,
                                                            samples=2, seed=1)}
    for name, check in checks.items():
        tracemalloc.start()
        try:
            residual = check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert residual <= 1e-10, name
        assert peak < 16 * image_bytes, name


def test_perturbed_rho_block_fails_the_checks():
    # rho through one block 1.01 w_1 is no longer multiplicative, and its
    # pairing with pi no longer factorizes the multiplier
    bundle = build_dilation(SchurSymbol(T3), STATE3)
    omegas = np.stack([bundle.rep.generator_omega(i) for i in range(3)])
    omegas[1] *= 1.01
    bad = dataclasses.replace(bundle, rho=lambda x: block_conjugate(omegas, np.asarray(x)))
    tol = config.TOL_NUM
    assert verify_morphism_markov(bad, samples=2, seed=1)["rho_multiplicative"] > tol
    assert verify_factorization(bad, SchurSymbol(T3), STATE3, samples=2, seed=1) > tol
    assert star_swap_check(bad, SchurSymbol(T3), STATE3, samples=2, seed=1) > tol


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
            preserve = max(preserve, abs(bundle.input_state(x) - bundle.ambient_phi(mx)))
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


def _permuted_bundle():
    # the ambient basis reordered from (i, k) to (k, i): the unit images of
    # e_ij sit on the non-contiguous index sets {k n + i}.  The tracial input
    # state makes the ambient state uniform, so the reordering keeps it.
    bundle = build_dilation(SchurSymbol(T3), DiagonalState.tracial(3))
    perm = np.arange(bundle.ambient_dim).reshape(3, -1).T.reshape(-1)

    def permuted(mor):
        return lambda x: mor(x)[np.ix_(perm, perm)]

    return dataclasses.replace(bundle, pi=permuted(bundle.pi), rho=permuted(bundle.rho))


def _rotated_bundle():
    # conjugating by a rotation of the indices 0 and f mixes blocks 0 and 1:
    # still *-morphisms, but their unit images fit no block pattern
    bundle = build_dilation(SchurSymbol(T3), STATE3)
    f = bundle.rep.dim
    u = np.eye(bundle.ambient_dim)
    u[np.ix_([0, f], [0, f])] = [[0.6, -0.8], [0.8, 0.6]]
    return dataclasses.replace(bundle, pi=lambda x: u @ bundle.pi(x) @ u.T,
                               rho=lambda x: u @ bundle.rho(x) @ u.T)


def _partial_bundle():
    # pi(x) = x (x) P for the projector P onto fiber index 1, plus x_00 x_11
    # in entry (f + 1, 0): the unit images fit a block pattern on the index
    # sets {i f + 1}, which leave column 0 uncovered, and the quadratic term,
    # zero on every unit, puts the sample images there
    bundle = build_dilation(SchurSymbol(T3), STATE3)
    f = bundle.rep.dim
    p = np.diag(np.arange(f) == 1).astype(float)

    def pi(x):
        x = np.asarray(x, dtype=complex)
        out = np.kron(x, p)
        out[f + 1, 0] += x[0, 0] * x[1, 1]
        return out

    return dataclasses.replace(bundle, pi=pi)


def _skewed_bundle():
    # rho over blocks whose block 1 is w_1 R for a rotation R: unitary but
    # not self-adjoint, so rho(e_01)^* = R^T w_1 w_0 is not rho(e_10) = w_1 R w_0
    bundle = build_dilation(SchurSymbol(T3), STATE3)
    blocks = bundle.blocks.copy()
    rotation = np.eye(bundle.rep.dim)
    rotation[:2, :2] = [[0.8, -0.6], [0.6, 0.8]]
    blocks[1] = blocks[1] @ rotation
    return dataclasses.replace(bundle, rho=lambda x: block_conjugate(blocks, np.asarray(x)))


def _s3_signs():
    # the signs of the permutations of symmetric_group(3), in its order
    return np.array([np.linalg.det(np.eye(3)[list(p)])
                     for p in itertools.permutations(range(3))]).round()


def test_morphism_reports_match_dense_products_on_other_bundles():
    mixed = _convex_bundle()
    assert mixed.ambient_dim == 8 * 3 + 2 * 3
    _assert_morphism_reports_match(mixed, samples=3, seed=5)
    _assert_morphism_reports_match(_permuted_bundle(), samples=3, seed=5)
    _assert_morphism_reports_match(_rotated_bundle(), samples=3, seed=5)
    # the full-rank s3 bundle has ambient dimension 384, too large for the
    # dense reference over its 36 units; t = (1 + sgn) / 2 has rank 2
    for t in (random_posdef_symbol(cyclic_group(3), rng(5)),
              FourierSymbol(symmetric_group(3), (1 + _s3_signs()) / 2)):
        bundle = build_crossed_dilation(t)
        _assert_morphism_reports_match(bundle, samples=2, seed=5)


def test_morphism_reports_match_dense_products_on_block_patterns_of_other_shapes():
    partial = _partial_bundle()
    assert dilation_module._unit_blocks(3, partial.pi)[0].shape == (3, 1)
    _assert_morphism_reports_match(partial, samples=3, seed=5)
    # no random samples: the unit rows alone must match the dense ones
    skewed = _skewed_bundle()
    assert verify_morphism_markov(skewed, samples=0)["rho_star"] > 0.1
    _assert_morphism_reports_match(skewed, samples=0, seed=5)


def test_every_built_bundle_takes_the_block_route():
    # the unit images of both legs of every bundle built here fit one block
    # pattern on the same index sets, so the pairing and morphism checks read
    # them from compact blocks; the dense route is for hand-built legs
    full_rank = build_dilation(SchurSymbol(random_unital_psd_symbol(rng(11), 5)),
                               DiagonalState(random_weights(rng(12), 5)))
    assert full_rank.gram.rank == 5
    bundles = [build_dilation(SchurSymbol(T2), UNIFORM2), full_rank,
               build_dilation(SchurSymbol(np.ones((3, 3))), STATE3), _convex_bundle()]
    bundles += [build_crossed_dilation(random_posdef_symbol(group, rng(5)))
                for group in (cyclic_group(3), symmetric_group(3))]
    for bundle in bundles:
        pi, rho = (dilation_module._unit_blocks(bundle.input_dim, mor)
                   for mor in (bundle.pi, bundle.rho))
        assert pi is not None and rho is not None
        np.testing.assert_array_equal(pi[0], rho[0])


@pytest.mark.parametrize("make", [lambda: build_dilation(SchurSymbol(T3), STATE3),
                                  _convex_bundle, _permuted_bundle],
                         ids=["schur", "convex", "permuted"])
def test_unit_pairs_call_no_morphism(make):
    # every unit x unit and unit x sample product is one block product of the
    # batched routes, not a call of pi or rho
    bundle = make()
    calls = {"pi": 0, "rho": 0}

    def counted(name, mor):
        def wrapped(x):
            calls[name] += 1
            return mor(x)
        return wrapped

    counted_bundle = dataclasses.replace(bundle, pi=counted("pi", bundle.pi),
                                         rho=counted("rho", bundle.rho))
    samples, units = 3, 9
    verify_morphism_markov(counted_bundle, samples=samples, seed=1)
    random_pairs = samples * (samples + 1) // 2
    # images, the unit, mor(0), random adjoints, modular images of the random
    # samples, random x random targets
    expected = units + samples + 2 + samples + samples * len(config.T_SAMPLES) + random_pairs
    assert calls == {"pi": expected, "rho": expected}


def _unit_sample_routes(bundle, samples, seed):
    """Per leg: the batched unit x sample residual of each sample, and the
    dense products of every unit image with the sample image against the
    same targets."""
    n = bundle.input_dim
    gen = rng(seed)
    draws = [random_complex(gen, n) for _ in range(samples)]
    routes = []
    for mor in (bundle.pi, bundle.rho):
        units = np.stack([mor(x) for x in matrix_units(n)])
        images = np.stack([mor(y) for y in draws])
        pattern = dilation_module._unit_blocks(n, mor)
        assert pattern is not None
        for b, y in enumerate(draws):
            batched = dilation_module._unit_sample_residual(n, images, pattern, b, y)
            dense = max(max_abs(units[i * n + j] @ images[b]
                                - np.tensordot(y[j], units[i * n : (i + 1) * n], axes=1))
                        for i in range(n) for j in range(n))
            routes.append((batched, dense))
    return routes


@pytest.mark.parametrize("make", [lambda: build_dilation(SchurSymbol(T3), STATE3),
                                  _convex_bundle, _permuted_bundle, _partial_bundle],
                         ids=["schur", "convex", "permuted", "partial"])
def test_batched_unit_sample_residual_matches_per_pair_route(make):
    for batched, dense in _unit_sample_routes(make(), samples=4, seed=3):
        assert abs(batched - dense) <= 1e-15


def test_conjugate_linear_pi_fails_multiplicativity():
    # x -> conj(x) (x) 1 is multiplicative and star-preserving but not linear:
    # the unit x sample targets, read from the unit images by linearity, see it
    bundle = build_dilation(SchurSymbol(T3), STATE3)
    eye_f = np.eye(bundle.rep.dim)
    bad = dataclasses.replace(bundle, pi=lambda x: np.kron(np.conj(x), eye_f))
    assert verify_morphism_markov(bad, samples=2, seed=1)["pi_multiplicative"] > config.TOL_NUM


def test_conjugate_linear_pi_without_a_pattern_fails_multiplicativity():
    # the same defect on legs whose unit images fit no block pattern: the
    # dense route's unit x sample targets, read by linearity, see it, and
    # targets through the morphism would not
    rotated = _rotated_bundle()
    bad = dataclasses.replace(rotated, pi=lambda x: rotated.pi(np.conj(x)))
    assert dilation_module._unit_blocks(3, bad.pi) is None
    assert _dense_morphism_reports(bad, 2, 1)["pi_multiplicative"] <= 1e-13
    assert verify_morphism_markov(bad, samples=2, seed=1)["pi_multiplicative"] > config.TOL_NUM


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
        mult = verify_morphism_markov(bad, samples=0, seed=1)[f"{leg}_multiplicative"]
        assert mult > config.TOL_NUM
        # every ordered unit pair is checked, a superset of the dense a <= b pairs
        assert mult >= _dense_morphism_reports(bad, 0, 1)[f"{leg}_multiplicative"] - 1e-13


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
    assert _dense_morphism_reports(bad, 0, 1)["pi_multiplicative"] == 0.0
    assert verify_morphism_markov(bad, samples=0, seed=1)["pi_multiplicative"] == 1.0


def test_every_ordered_unit_pair_is_checked_on_a_block_pattern():
    # e_ij (x) V_ij with V_0j = S, the idempotent all-(1/f) matrix, and
    # V_1j = 1: every block has full support, so the images fit a block
    # pattern.  Every pair a <= b multiplies, and so does every product with
    # left factor in row 0, but pi(e_10) pi(e_00) = e_10 (x) S is not pi(e_10).
    bundle = build_dilation(SchurSymbol(T2), UNIFORM2)
    f = bundle.rep.dim
    fields = np.array([[np.full((f, f), 1 / f)] * 2, [np.eye(f)] * 2])

    def twisted_pi(x):
        return np.block([[x[i, j] * fields[i, j] for j in range(2)] for i in range(2)])

    bad = dataclasses.replace(bundle, pi=twisted_pi)
    assert dilation_module._unit_blocks(2, bad.pi) is not None
    assert _dense_morphism_reports(bad, 0, 1)["pi_multiplicative"] == 0.0
    assert verify_morphism_markov(bad, samples=0, seed=1)["pi_multiplicative"] == 1 - 1 / f
