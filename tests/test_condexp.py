import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilation_lab import (ConditionalExpectation, DiagonalState, NotExpectationError,
                          SchurSymbol, ShapeError, build_chain,
                          conditional_expectation, embed_J, expectations,
                          verify_expectation, word_closure)
from dilation_lab.matcore import dagger, matrix_unit, max_abs, random_complex, rng

SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def _pairwise_closure(generators, tol_rank=1e-10):
    """Reference closure: every pairwise product of the whole basis, SVD each round."""
    n = generators[0].shape[0]

    def rows(stack):
        u, s, _ = np.linalg.svd(stack.T, full_matrices=False)  # the rows of u.T span stack's
        return u[:, s > tol_rank * s[0]].T

    seed = [np.eye(n)] + list(generators) + [dagger(g) for g in generators]
    basis = rows(np.stack([np.asarray(g, dtype=complex).reshape(-1) for g in seed]))
    while True:
        mats = basis.reshape(-1, n, n)
        prods = np.matmul(mats[:, None], mats[None]).reshape(-1, n * n)
        grown = rows(np.vstack([basis, prods]))
        if grown.shape[0] == basis.shape[0]:
            return grown.reshape(-1, n, n)
        basis = grown


def _span_distance(a, b) -> float:
    """Operator-norm distance of the HS projectors onto two orthonormal stacks."""
    a, b = a.reshape(a.shape[0], -1), b.reshape(b.shape[0], -1)
    if a.shape != b.shape:
        return float("inf")
    return max(np.linalg.norm(a - (a @ np.conj(b).T) @ b, 2),
               np.linalg.norm(b - (b @ np.conj(a).T) @ a, 2))


def _orthonormality(basis) -> float:
    flat = basis.reshape(basis.shape[0], -1)
    return float(np.abs(flat @ np.conj(flat).T - np.eye(flat.shape[0])).max())


def _gram_symbol(vectors):
    """Unital real PSD symbol: Gram matrix of the normalized rows."""
    v = np.asarray(vectors, dtype=float)
    v = v / np.linalg.norm(v, axis=1, keepdims=True)
    return SchurSymbol(v @ v.T)


CHAIN_SHAPES = {
    "2x2-r2-d2": (SchurSymbol([[1.0, 0.5], [0.5, 1.0]]), [0.5, 0.5], 2),
    "3x3-r3-d1": (_gram_symbol([[1.0, 0.2, 0.1], [0.3, 1.0, -0.2], [0.4, 0.1, 1.0]]),
                  [0.2, 0.3, 0.5], 1),
    "3x3-r2-d2": (_gram_symbol([[1.0, 0.0], [0.5, 0.8], [-0.6, 0.8]]), [0.2, 0.3, 0.5], 2),
}


@pytest.mark.parametrize("key", sorted(CHAIN_SHAPES))
def test_chain_closures_match_pairwise_reference(key):
    # the closed-form chain expectations against the numerical route: the
    # closure of each level's J generators (its span checked against the
    # pairwise reference) and the GNS projection onto it
    symbol, weights, depth = CHAIN_SHAPES[key]
    chain = build_chain(symbol, DiagonalState(weights), depth)
    units = [matrix_unit(symbol.dim, i, j) for i in range(symbol.dim) for j in range(symbol.dim)]
    gen = rng(5)
    stack = np.stack([random_complex(gen, chain.ambient_dim) for _ in range(3)])
    # the full set J_0..J_depth is both the past at level depth and the
    # future at level 0: its reference is computed once
    references = {}
    for level in range(depth + 1):
        past, future = expectations(chain, level)
        for expect, levels in ((past, range(level + 1)), (future, range(level, depth + 1))):
            gens = np.stack([embed_J(chain, k)(u) for k in levels for u in units])
            algebra = word_closure(list(gens))
            assert _orthonormality(algebra.basis) <= 1e-13
            if tuple(levels) not in references:
                references[tuple(levels)] = _pairwise_closure(gens)
            assert _span_distance(algebra.basis, references[tuple(levels)]) <= 1e-12
            reference = ConditionalExpectation(chain.ambient_state, algebra)
            out = expect(stack)
            assert max_abs(out - reference(stack)) <= 1e-12
            assert max_abs(expect(gens) - gens) <= 1e-12
            assert max_abs(expect(out) - out) <= 1e-12


def test_near_singular_chain_closure_stays_orthonormal():
    # smallest symbol eigenvalue 5e-9: some new directions come out of small
    # residuals, which magnify the basis component round-off left in them
    symbol = _gram_symbol([[1.0, 0.0, 0.0], [1.0, 0.01, 0.0], [0.0, 1.0, 0.01]])
    top = build_chain(symbol, DiagonalState([0.2, 0.3, 0.5]), 1)
    units = [matrix_unit(3, i, j) for i in range(3) for j in range(3)]
    algebra = word_closure([embed_J(top, q)(u) for q in (0, 1) for u in units])
    assert algebra.size == 36
    assert _orthonormality(algebra.basis) <= 1e-13
    products = np.matmul(algebra.basis[:, None], algebra.basis[None])
    assert max(algebra.span_residual(p) for p in products.reshape(-1, 24, 24)) <= 1e-10


ENTRIES = st.sampled_from([0.0, 0.0, 0.0, 1.0, -1.0, 2.0, 1j, 0.5 - 0.5j])


@st.composite
def generator_sets(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    count = draw(st.integers(min_value=1, max_value=3))
    return [np.array(draw(st.lists(ENTRIES, min_size=dim * dim, max_size=dim * dim)),
                     dtype=complex).reshape(dim, dim) for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(generator_sets())
def test_closure_is_the_generated_star_algebra(gens):
    algebra = word_closure(gens)
    basis = algebra.basis
    assert _orthonormality(basis) <= 1e-13
    assert algebra.span_residual(np.eye(algebra.dim)) <= 1e-10
    for x in basis:
        assert algebra.span_residual(dagger(x)) <= 1e-10
        for y in basis:
            assert algebra.span_residual(x @ y) <= 1e-10
    assert _span_distance(basis, _pairwise_closure(gens)) <= 1e-12


def test_closure_ignores_generator_scale():
    # a per-candidate relative cutoff would grow these from round-off in the
    # vanishing products (e01 @ e01 = 0, and the products of the tiny copies)
    fixture = build_chain(SchurSymbol([[1.0, 0.5], [0.5, 1.0]]),
                          DiagonalState([0.5, 0.5]), 2)
    units = [matrix_unit(2, i, j) for i in range(2) for j in range(2)]
    chain_gens = [embed_J(fixture, q)(u) for q in range(3) for u in units]
    padded = np.zeros((4, 4))
    padded[0, 1] = 1.0
    for gens, size in ((chain_gens, 16), ([matrix_unit(2, 0, 1)], 4), ([padded], 5)):
        plain = word_closure(gens)
        tiny = word_closure([1e-6 * g for g in gens])
        assert plain.size == tiny.size == size
        assert _span_distance(plain.basis, tiny.basis) <= 1e-12


def test_word_closure_generates_full_matrix_algebra():
    basis = word_closure([matrix_unit(2, 0, 1)])
    assert basis.size == 4
    grams = np.einsum("aij,bij->ab", np.conj(basis.basis), basis.basis)
    np.testing.assert_allclose(grams, np.eye(4), atol=1e-12)


def test_word_closure_diagonal_generators_stay_diagonal():
    basis = word_closure([np.diag([1.0, 2.0])])
    assert basis.size == 2
    for el in basis.basis:
        assert max_abs(el - np.diag(np.diagonal(el))) < 1e-12


def test_word_closure_guards():
    with pytest.raises(ShapeError):
        word_closure([])
    with pytest.raises(ShapeError):
        word_closure([np.eye(3), np.eye(2)])


def test_span_projection_roundtrip():
    basis = word_closure([SX])
    gen = rng(0)
    x = random_complex(gen, 2)
    coeffs = basis.project_coeffs(x)
    inside = np.tensordot(coeffs, basis.basis, axes=1)
    # the HS projection of anything lands back inside the span
    assert basis.span_residual(inside) < 1e-12
    y = 0.3 * np.eye(2) + 0.7 * SX
    np.testing.assert_allclose(
        np.tensordot(basis.project_coeffs(y), basis.basis, axes=1), y,
        atol=1e-12)


def test_expectation_onto_tensor_factor_is_partial_trace():
    # B = M2 x 1 inside M2 x M2 with a product state: conditioning is the
    # weighted partial trace over the second leg
    gen = rng(1)
    w2 = np.array([0.7, 0.3])
    weights = np.kron(np.array([0.5, 0.5]), w2)
    state = DiagonalState(weights)
    algebra = word_closure(
        [np.kron(matrix_unit(2, 0, 1), np.eye(2)),
         np.kron(matrix_unit(2, 1, 0), np.eye(2))])
    x = random_complex(gen, 4)
    out = conditional_expectation(state, algebra, x)
    small = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                small[i, j] += x[2 * i + k, 2 * j + k] * w2[k]
    np.testing.assert_allclose(out, np.kron(small, np.eye(2)), atol=1e-12)


def test_expectation_onto_diagonal_is_pinching():
    state = DiagonalState([0.2, 0.3, 0.5])
    algebra = word_closure([np.diag([1.0, 2.0, 3.0])])
    gen = rng(2)
    x = random_complex(gen, 3)
    out = conditional_expectation(state, algebra, x)
    np.testing.assert_allclose(out, np.diag(np.diagonal(x)), atol=1e-12)


def test_expectation_onto_flip_algebra_under_uniform_state():
    # span{1, sx} under the trace state: E(x) = tr(x)/2 + tr(sx x)/2 * sx
    state = DiagonalState([0.5, 0.5])
    algebra = word_closure([SX])
    gen = rng(3)
    x = random_complex(gen, 2)
    out = conditional_expectation(state, algebra, x)
    expected = (np.trace(x) / 2) * np.eye(2) + (np.trace(SX @ x) / 2) * SX
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_expectation_requires_modular_invariance():
    # a non-tracial diagonal state does not commute with the flip algebra, so
    # no state-preserving expectation onto it exists
    state = DiagonalState([0.7, 0.3])
    algebra = word_closure([SX])
    with pytest.raises(NotExpectationError):
        conditional_expectation(state, algebra, np.eye(2))


def test_expectation_batched_matches_loop():
    state = DiagonalState([0.2, 0.3, 0.5])
    algebra = word_closure([np.diag([1.0, 2.0, 3.0])])
    gen = rng(4)
    stack = np.stack([random_complex(gen, 3) for _ in range(5)])
    batched = conditional_expectation(state, algebra, stack)
    for k in range(5):
        single = conditional_expectation(state, algebra, stack[k])
        np.testing.assert_allclose(batched[k], single, atol=1e-13)


def test_expectation_shape_guards():
    state = DiagonalState([0.5, 0.5])
    algebra = word_closure([SX])
    with pytest.raises(ShapeError):
        conditional_expectation(state, algebra, np.eye(3))
    with pytest.raises(ShapeError):
        conditional_expectation(DiagonalState.tracial(3), algebra, np.eye(2))


def test_verify_expectation_report():
    state = DiagonalState([0.25, 0.25, 0.25, 0.25])
    algebra = word_closure(
        [np.kron(matrix_unit(2, 0, 1), np.eye(2)),
         np.kron(matrix_unit(2, 1, 0), np.eye(2))])
    report = verify_expectation(state, algebra, samples=6, seed=11)
    assert report.idempotence < 1e-10
    assert report.bimodule < 1e-10
    assert report.positivity < 1e-10
    assert report.state_preservation < 1e-10
