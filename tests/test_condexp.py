import numpy as np
import pytest

from dilation_lab import (DiagonalState, NotExpectationError, ShapeError,
                          SizeError, conditional_expectation, verify_expectation,
                          word_closure)
from dilation_lab.matcore import dagger, matrix_unit, max_abs, random_complex, rng

SX = np.array([[0.0, 1.0], [1.0, 0.0]])


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
    with pytest.raises(SizeError):
        word_closure([matrix_unit(2, 0, 1)], cap=2)
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
