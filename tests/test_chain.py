import numpy as np
import pytest

from dilation_lab import (DiagonalState, PreconditionError, SchurSymbol,
                          ShapeError, SizeError, build_beta, build_chain,
                          build_schaffer, embed_J, expectations, halmos_block,
                          verify_embedding, verify_gamma_factorization,
                          verify_markov_property, verify_ppnp, verify_rota,
                          verify_rota_secondquant)
from dilation_lab.matcore import (matrix_unit, max_abs, random_complex,
                                  random_symmetric_contraction, rng)

T2 = np.array([[1.0, 0.5], [0.5, 1.0]])
UNIFORM2 = DiagonalState([0.5, 0.5])


def _chain(depth, symbol=T2, state=UNIFORM2):
    return build_chain(SchurSymbol(symbol), state, depth)


def test_build_chain_validation(monkeypatch):
    with pytest.raises(PreconditionError):
        _chain(0)
    with pytest.raises(PreconditionError):
        _chain(1, symbol=np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ShapeError):
        _chain(1, state=DiagonalState([0.2, 0.3, 0.5]))
    monkeypatch.setenv("DILATION_LAB_DIM_CAP", "64")
    with pytest.raises(SizeError):
        _chain(3)


def test_chain_over_byte_cap_is_refused():
    # ambient dimension 512 passes DIM_CAP, but the shift check alone would
    # hold 128^4 complex matrix-unit entries (4.3 GB)
    with pytest.raises(SizeError, match="cap"):
        _chain(4)
    assert _chain(3).ambient_dim == 128  # criterion 5's chain stays admitted


def test_chain_dimensions_and_state():
    chain = _chain(2)
    assert chain.leg_dim == 4
    assert chain.ambient_dim == 2 * 16
    w = chain.ambient_state.weights
    assert abs(w.sum() - 1.0) < 1e-12
    np.testing.assert_allclose(w, np.repeat([0.5, 0.5], 16) / 16)


def test_worked_one_step_expectation():
    # compressing the one-leg copy back to the base scales e01 by t_01
    chain = _chain(1)
    e01 = matrix_unit(2, 0, 1)
    past0 = expectations(chain, 0)[0]
    lhs = past0(embed_J(chain, 1)(e01))
    np.testing.assert_allclose(lhs, 0.5 * embed_J(chain, 0)(e01), atol=1e-13)


def test_embeddings_are_state_preserving_homomorphisms():
    for depth in (1, 2):
        chain = _chain(depth)
        for q in range(depth + 1):
            report = verify_embedding(chain, q)
            assert max(report.values()) < 1e-12
    with pytest.raises(PreconditionError):
        embed_J(_chain(1), 2)


def test_beta_is_a_state_preserving_homomorphism():
    chain = _chain(2)
    sub = chain.shallower(1)
    gen = rng(0)
    x = random_complex(gen, sub.ambient_dim)
    y = random_complex(gen, sub.ambient_dim)
    bx, by, bxy = (build_beta(chain, z) for z in (x, y, x @ y))
    assert max_abs(bx @ by - bxy) < 1e-12
    eye_sub = np.eye(sub.ambient_dim)
    assert max_abs(build_beta(chain, eye_sub) - np.eye(chain.ambient_dim)) < 1e-13
    assert abs(np.dot(chain.ambient_state.weights, np.diagonal(bx))
               - np.dot(sub.ambient_state.weights, np.diagonal(x))) < 1e-12
    with pytest.raises(ShapeError):
        build_beta(chain, np.eye(3))


def _dense_beta(chain, x):
    """Reference: d_1 (I_leg (x) x) d_1 with the dense slot-1 symmetry
    d_1 = sum_i e_ii (x) w_i (x) I."""
    n, leg = chain.input_dim, chain.leg_dim
    sub_tail = chain.tail_dim // leg
    d1 = np.zeros((chain.ambient_dim, chain.ambient_dim), dtype=complex)
    blk = leg * sub_tail
    for i in range(n):
        d1[i * blk:(i + 1) * blk, i * blk:(i + 1) * blk] = \
            np.kron(chain.rep.generator_omega(i), np.eye(sub_tail))
    xr = x.reshape(*x.shape[:-2], n, sub_tail, n, sub_tail)
    shifted = np.einsum("...iajb,cd->...icajdb", xr, np.eye(leg))
    return d1 @ shifted.reshape(*x.shape[:-2], *d1.shape) @ d1


def test_beta_matches_dense_conjugation():
    gen = rng(11)
    sym3 = np.array([[1.0, 0.3, -0.2], [0.3, 1.0, 0.4], [-0.2, 0.4, 1.0]])
    for chain in (_chain(1), _chain(2), _chain(3),
                  _chain(2, symbol=sym3, state=DiagonalState([0.2, 0.3, 0.5]))):
        sub_dim = chain.ambient_dim // chain.leg_dim
        stack = np.stack([random_complex(gen, sub_dim) for _ in range(3)])
        assert max_abs(build_beta(chain, stack) - _dense_beta(chain, stack)) <= 1e-13
        assert max_abs(build_beta(chain, stack[1]) - _dense_beta(chain, stack[1])) <= 1e-13


def test_markov_property_all_levels_depth_two():
    chain = _chain(2)
    for n in range(3):
        for q in range(n, 3):
            report = verify_markov_property(chain, n, q)
            assert max(report.values()) < 1e-12, (n, q, report)
    with pytest.raises(PreconditionError):
        verify_markov_property(chain, 2, 1)


def test_rota_reversal_identity():
    chain = _chain(2)
    for n in (1, 2):
        assert verify_rota(chain, n) < 1e-12
    # spot value: double reversal at level 1 damps e01 by t_01^2 = 0.25
    e01 = matrix_unit(2, 0, 1)
    past0 = expectations(chain, 0)[0]
    future1 = expectations(chain, 1)[1]
    j0 = embed_J(chain, 0)
    np.testing.assert_allclose(past0(future1(j0(e01))), 0.25 * j0(e01),
                               atol=1e-13)
    with pytest.raises(PreconditionError):
        verify_rota(chain, 0)


def test_halmos_block_is_a_symmetry():
    t = np.array([[0.5]])
    d = np.array([[np.sqrt(0.75)]])
    u = halmos_block(t, d)
    np.testing.assert_allclose(u, [[0.5, np.sqrt(0.75)],
                                   [np.sqrt(0.75), -0.5]])
    np.testing.assert_allclose(u @ u, np.eye(2), atol=1e-15)


def test_schaffer_powers_match_below_the_horizon():
    t = np.array([[0.5]])
    dil = build_schaffer(t, window=2)
    u = dil.unitary
    np.testing.assert_allclose(u.T @ u, np.eye(u.shape[0]), atol=1e-14)
    for k in range(2 * dil.window + 1):
        np.testing.assert_allclose(dil.compress(k), [[0.5 ** k]], atol=1e-13)
    # one step past the cyclic horizon the wave wraps and the match fails
    assert abs(dil.compress(5)[0, 0] - 0.5 ** 5) > 0.01


def test_schaffer_matrix_contraction():
    gen = rng(1)
    t = random_symmetric_contraction(gen, 2)
    dil = build_schaffer(t, window=3)
    for k in range(7):
        np.testing.assert_allclose(dil.compress(k),
                                   np.linalg.matrix_power(t, k), atol=1e-11)


def test_schaffer_validation():
    with pytest.raises(PreconditionError):
        build_schaffer(np.array([[0.0, 1.0], [0.0, 0.0]]), window=2)
    with pytest.raises(PreconditionError):
        build_schaffer(np.array([[1.5]]), window=2)
    with pytest.raises(PreconditionError):
        build_schaffer(np.array([[0.5]]), window=0)
    with pytest.raises(ShapeError):
        build_schaffer(np.zeros((2, 3)), window=2)
    for bad in (np.inf, np.nan):
        with pytest.raises(PreconditionError, match="finite"):
            build_schaffer(np.array([[bad]]), window=1)


def test_projection_sandwich_recovers_even_powers():
    dil = build_schaffer(np.array([[0.5]]), window=4)
    for n in range(3):
        assert verify_ppnp(dil, n) < 1e-10
    gen = rng(2)
    dil2 = build_schaffer(random_symmetric_contraction(gen, 2), window=3)
    for n in range(2):
        assert verify_ppnp(dil2, n) < 1e-9
    with pytest.raises(PreconditionError):
        verify_ppnp(dil, 5)
    with pytest.raises(PreconditionError):
        verify_ppnp(dil, 1, length=9)


def test_second_quantized_rota():
    for n in (1, 2):
        assert verify_rota_secondquant(np.array([[0.5]]), window=2, n=n) < 1e-9
    with pytest.raises(PreconditionError):
        verify_rota_secondquant(np.array([[0.5]]), window=2, n=3)
    with pytest.raises(SizeError):
        verify_rota_secondquant(np.array([[0.5]]), window=6, n=1)


def test_gamma_factorization_small_matrices():
    assert verify_gamma_factorization(np.array([[0.5]])) < 1e-12
    gen = rng(3)
    assert verify_gamma_factorization(random_symmetric_contraction(gen, 2)) < 1e-11
    with pytest.raises(SizeError):
        verify_gamma_factorization(random_symmetric_contraction(gen, 3))
