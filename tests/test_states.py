import numpy as np
import pytest

from dilation_lab import (DiagonalState, MarkovMap, PreconditionError, SchurSymbol,
                          ShapeError, choi_matrix, config, gns_inner,
                          markov_residuals, modular_conjugate, multiplier_map,
                          star_adjoint)
from dilation_lab.matcore import dagger, matrix_unit, max_abs, random_complex, rng
from dilation_lab.states import modular_superoperator


def test_state_validation():
    with pytest.raises(PreconditionError):
        DiagonalState(np.array([0.5, -0.1, 0.6]))
    with pytest.raises(PreconditionError):
        DiagonalState(np.array([0.5, 0.2]))
    with pytest.raises(ShapeError):
        DiagonalState(np.array([]))


@pytest.mark.parametrize("weights", [[0.5, float("nan")], [float("nan"), 1.0],
                                     [float("inf"), 0.5]])
def test_state_rejects_non_finite_weights(weights):
    # NaN fails both the sign test and the sum test, so it needs its own
    with pytest.raises(PreconditionError, match="finite"):
        DiagonalState(weights)


@pytest.mark.parametrize("weights", [[[0.5], [0.5]], [[0.25, 0.25], [0.25, 0.25]], 1.0])
def test_state_rejects_weights_that_are_not_a_vector(weights):
    with pytest.raises(ShapeError, match="1-D"):
        DiagonalState(weights)


def test_state_evaluates_weighted_trace():
    st = DiagonalState(np.array([0.2, 0.3, 0.5]))
    x = random_complex(rng(0), 3)
    expected = np.trace(np.diag(st.weights) @ x)
    assert abs(st(x) - expected) < 1e-14
    np.testing.assert_allclose(st.density(), np.diag([0.2, 0.3, 0.5]))
    assert DiagonalState.tracial(4).weights[0] == 0.25


def test_from_action_matches_kron_formula():
    # conjugation by u has superoperator u kron conj(u) in this convention
    gen = rng(1)
    u = random_complex(gen, 3)
    m = MarkovMap.from_action(lambda x: u @ x @ dagger(u), 3)
    np.testing.assert_allclose(m.super, np.kron(u, np.conj(u)), atol=1e-12)
    x = random_complex(gen, 3)
    np.testing.assert_allclose(m(x), u @ x @ dagger(u), atol=1e-12)


def test_compose_and_identity():
    gen = rng(2)
    a = random_complex(gen, 2)
    b = random_complex(gen, 2)
    ma = MarkovMap.from_action(lambda x: a @ x, 2)
    mb = MarkovMap.from_action(lambda x: b @ x, 2)
    x = random_complex(gen, 2)
    np.testing.assert_allclose(ma.compose(mb)(x), a @ (b @ x), atol=1e-12)
    np.testing.assert_allclose(MarkovMap.identity(2)(x), x)
    with pytest.raises(ShapeError):
        ma.compose(MarkovMap.identity(3))


def test_markov_map_shape_guard():
    with pytest.raises(ShapeError):
        MarkovMap(2, 2, np.eye(3))
    rect = MarkovMap(1, 2, np.ones((1, 4)))
    with pytest.raises(ShapeError):
        rect.dimension


def test_modular_conjugate_entrywise_phases():
    st = DiagonalState(np.array([0.7, 0.3]))
    x = random_complex(rng(3), 2)
    t = 0.6
    out = modular_conjugate(st, x, t)
    w = st.weights
    for i in range(2):
        for j in range(2):
            phase = (w[i] / w[j]) ** (-1j * t)
            assert abs(out[i, j] - phase * x[i, j]) < 1e-14


def test_modular_flow_group_law():
    st = DiagonalState(np.array([0.1, 0.4, 0.5]))
    x = random_complex(rng(4), 3)
    a = modular_conjugate(st, modular_conjugate(st, x, 0.3), 0.9)
    b = modular_conjugate(st, x, 1.2)
    np.testing.assert_allclose(a, b, atol=1e-12)
    np.testing.assert_allclose(modular_conjugate(st, x, 0.0), x)
    # the state is invariant under its own flow
    assert abs(st(modular_conjugate(st, x, 0.7)) - st(x)) < 1e-14


def test_modular_superoperator_diagonal():
    st = DiagonalState(np.array([0.6, 0.4]))
    x = random_complex(rng(5), 2)
    sup = modular_superoperator(st, 0.8)
    np.testing.assert_allclose(sup @ x.reshape(-1),
                               modular_conjugate(st, x, 0.8).reshape(-1))


def test_gns_inner_is_state_of_star_product():
    st = DiagonalState(np.array([0.25, 0.35, 0.4]))
    gen = rng(6)
    x, y = random_complex(gen, 3), random_complex(gen, 3)
    expected = np.trace(np.diag(st.weights) @ dagger(x) @ y)
    assert abs(gns_inner(st, x, y) - expected) < 1e-13
    assert gns_inner(st, x, x).real >= 0
    assert abs(gns_inner(st, x, y) - np.conj(gns_inner(st, y, x))) < 1e-13


def test_choi_matrix_blocks():
    # the non-square map catches swapped input and output axes
    gen = rng(7)
    for dim_in, dim_out in ((2, 2), (2, 3)):
        u = random_complex(gen, dim_out)[:, :dim_in]
        m = MarkovMap.from_action(lambda x: u @ x @ dagger(u), dim_in, dim_out)
        choi = choi_matrix(m)
        assert choi.shape == (dim_in * dim_out, dim_in * dim_out)
        k = dim_out
        for i in range(dim_in):
            for j in range(dim_in):
                np.testing.assert_allclose(choi[k * i : k * i + k, k * j : k * j + k],
                                           m(matrix_unit(dim_in, i, j)))
        # conjugation is CP: the Choi matrix is a PSD rank-one
        eigs = np.linalg.eigvalsh((choi + dagger(choi)) / 2)
        assert eigs[0] >= -1e-12
        assert np.sum(eigs > 1e-9) == 1


def test_markov_residuals_vanish_for_schur_markov_map():
    t = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.1], [0.2, 0.1, 1.0]])
    m = multiplier_map(SchurSymbol(t))
    st = DiagonalState(np.array([0.5, 0.3, 0.2]))
    res = markov_residuals(m, st)
    assert max(res.values()) < 1e-12


def test_markov_residuals_flag_broken_maps():
    st = DiagonalState.tracial(2)
    # diagonal 0.9: not unital, not state preserving
    res = markov_residuals(multiplier_map(SchurSymbol(0.9 * np.ones((2, 2)))), st)
    assert res["unital"] > 0.04
    assert res["state_preserving"] > 0.04
    # indefinite symbol: cp residual sees the negative Choi eigenvalue
    bad = np.array([[1.0, 1.5], [1.5, 1.0]])
    res = markov_residuals(multiplier_map(SchurSymbol(bad)), st)
    assert abs(res["cp"] - 0.5) < 1e-12
    # left multiplication: not even Hermiticity preserving
    a = random_complex(rng(8), 2)
    res = markov_residuals(MarkovMap.from_action(lambda x: a @ x, 2), st)
    assert res["cp"] > 0.1


def test_markov_residuals_of_a_good_and_a_bad_multiplier():
    t = np.array([[1.0, 0.5], [0.5, 1.0]])
    st = DiagonalState(np.array([0.6, 0.4]))
    good = markov_residuals(multiplier_map(SchurSymbol(t)), st)
    assert max(good.values()) <= 1e-12
    bad = markov_residuals(multiplier_map(SchurSymbol(np.array([[1.0, 1.5], [1.5, 1.0]]))), st)
    assert bad["unital"] <= 1e-12 and bad["cp_negative"] > config.TOL_PSD
    with pytest.raises(ShapeError):
        markov_residuals(MarkovMap.identity(3), st)


def test_star_adjoint_defining_identity():
    # phi(x m(y)) = phi(adj(x) y) for the bilinear GNS pairing
    gen = rng(9)
    st = DiagonalState(np.array([0.15, 0.25, 0.6]))
    u = random_complex(gen, 3)
    m = MarkovMap.from_action(lambda x: u @ x @ dagger(u), 3)
    adj = star_adjoint(m, st)
    rho = np.diag(st.weights)
    for _ in range(6):
        x, y = random_complex(gen, 3), random_complex(gen, 3)
        lhs = np.trace(rho @ x @ m(y))
        rhs = np.trace(rho @ adj(x) @ y)
        assert abs(lhs - rhs) < 1e-11


def test_star_adjoint_of_multiplier_transposes_symbol():
    gen = rng(10)
    t = np.array([[1.0, 0.4, 0.9], [0.1, 1.0, -0.3], [0.6, 0.2, 1.0]])
    st = DiagonalState(np.array([0.2, 0.5, 0.3]))
    adj = star_adjoint(multiplier_map(SchurSymbol(t)), st)
    expected = multiplier_map(SchurSymbol(t.T))
    assert max_abs(adj.super - expected.super) < 1e-12
