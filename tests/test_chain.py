import tracemalloc

import numpy as np
import pytest

from dilation_lab import chain as chain_module
from dilation_lab import fock as fock_module
from dilation_lab import (DiagonalState, PreconditionError, SchurSymbol,
                          ShapeError, SizeError, build_beta, build_chain,
                          build_schaffer, embed_J, expectations, halmos_block,
                          verify_embedding, verify_gamma_factorization,
                          verify_markov_property, verify_ppnp, verify_rota,
                          verify_rota_secondquant)
from dilation_lab.matcore import (matrix_unit, matrix_units, max_abs, random_complex,
                                  random_symmetric_contraction, random_weights, rng)

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
    # ambient dimension 512 passes DIM_CAP, but the cost bound does not: the
    # shift check's full set of source units would be 128^4 complex entries
    # (4.3 GB), although only those with agreeing traced legs are built
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


def test_embed_J_matches_kronecker_products_on_stacks():
    # J_q(x) = sum_ij x_ij e_ij (x) (w_i w_j)^(x)q (x) 1, here on a (3, 1) stack
    chain = _chain(2)
    gen = rng(12)
    stack = np.stack([random_complex(gen, 2) for _ in range(3)]).reshape(3, 1, 2, 2)
    for q in range(3):
        expected = np.zeros((3, 1, chain.ambient_dim, chain.ambient_dim), dtype=complex)
        for i in range(2):
            for j in range(2):
                pair = chain.rep.generator_omega(i) @ chain.rep.generator_omega(j)
                factor = np.eye(1)
                for _ in range(q):
                    factor = np.kron(factor, pair)
                block = np.kron(matrix_unit(2, i, j),
                                np.kron(factor, np.eye(chain.leg_dim ** (2 - q))))
                expected += stack[..., i, j, None, None] * block
        assert max_abs(embed_J(chain, q)(stack) - expected) <= 1e-15
    with pytest.raises(ShapeError):
        embed_J(chain, 1)(np.eye(3))
    with pytest.raises(ShapeError, match="non-finite"):
        embed_J(chain, 1)(np.full((2, 2), np.nan))


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


def _dense_beta_power(chain, x, power):
    """beta^power through build_beta, one leg at a time, on full matrices."""
    for step in range(power):
        x = build_beta(chain.shallower(chain.depth - power + 1 + step), x)
    return x


def _dense_markov_property(chain, n, q):
    """Reference for verify_markov_property on full ambient matrices: every
    source unit of the shift check lifted, none skipped."""
    units = matrix_units(chain.input_dim)
    past_n, future_n = expectations(chain, n)
    j_q, j_n, j_0 = embed_J(chain, q), embed_J(chain, n), embed_J(chain, 0)
    t_step = chain.symbol.matrix ** (q - n)
    t_level = chain.symbol.matrix ** n
    past = max(max_abs(past_n(j_q(u)) - j_n(t_step * u)) for u in units)
    future = max(max_abs(future_n(j_0(u)) - j_n(t_level * u)) for u in units)
    power, shift = q - n, 0.0
    if power > 0:
        src_depth = chain.depth - power
        src_units = matrix_units(chain.input_dim * chain.leg_dim ** src_depth)
        past_q = expectations(chain, q)[0]
        src_past = expectations(chain.shallower(src_depth), n)[0] if src_depth else (lambda x: x)
        lhs = past_q(_dense_beta_power(chain, src_units, power))
        rhs = _dense_beta_power(chain, src_past(src_units), power)
        shift = max_abs(lhs - rhs)
    return {"past": past, "future": future, "shift": shift}


def _gram_chain(gen, n, rank, depth):
    """Chain over the Gram matrix of n random unit vectors in R^rank."""
    v = gen.standard_normal((n, rank))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    t = v @ v.T
    np.fill_diagonal(t, 1.0)
    return build_chain(SchurSymbol((t + t.T) / 2), DiagonalState(random_weights(gen, n)), depth)


@pytest.mark.parametrize("n, rank, depth", [(2, 2, 2), (3, 3, 1), (3, 2, 2), (3, 1, 3)],
                         ids=["2x2-r2-d2", "3x3-r3-d1", "3x3-r2-d2", "3x3-r1-d3"])
def test_markov_rows_match_dense_reference(n, rank, depth):
    gen = rng(9400 + 100 * n + 10 * rank + depth)
    for _ in range(2):
        chain = _gram_chain(gen, n, rank, depth)
        for lo in range(depth + 1):
            for hi in range(lo, depth + 1):
                assert verify_markov_property(chain, lo, hi) == \
                    _dense_markov_property(chain, lo, hi), (lo, hi)


def test_markov_rows_match_dense_reference_off_the_identity(monkeypatch):
    # a projection that misses E by an entry-dependent 1e-3 makes the shift
    # rows nonzero, so the comparison sees the lifted units; it still maps
    # zero to zero, so the skipped units stay exact zeros
    original = chain_module._project_even

    def skewed(basis, y, slots):
        out = original(basis, y, slots)
        side = out.shape[-1]
        return out * (1 + 1e-3 * np.arange(side * side).reshape(side, side) / side ** 2)

    monkeypatch.setattr(chain_module, "_project_even", skewed)
    for chain in (_chain(2), _gram_chain(rng(9500), 3, 2, 2)):
        for lo in range(3):
            for hi in range(lo + 1, 3):
                report = verify_markov_property(chain, lo, hi)
                assert report == _dense_markov_property(chain, lo, hi), (lo, hi)
                assert report["shift"] > 1e-6


def test_traced_units_are_the_units_with_agreeing_traced_legs():
    kept, traced = 3, 4
    side = kept * traced
    units = chain_module._traced_units(kept, traced, 0, kept * kept * traced)
    agree = np.eye(traced, dtype=bool)[None, :, None, :]
    expected = matrix_units(side)[np.broadcast_to(agree, (kept, traced, kept, traced)).ravel()]
    assert units.shape == expected.shape

    def positions(stack):
        return sorted(np.flatnonzero(stack.reshape(len(stack), -1)) % (side * side))

    assert positions(units) == positions(expected)
    assert np.array_equal(chain_module._traced_units(kept, traced, 5, 9), units[5:9])


def test_shift_check_is_the_same_in_small_chunks(monkeypatch):
    chain = _gram_chain(rng(9501), 2, 2, 2)
    whole = [verify_markov_property(chain, 0, q) for q in (1, 2)]
    monkeypatch.setattr(chain_module.config, "CHUNK_BYTES", 1)
    assert [verify_markov_property(chain, 0, q) for q in (1, 2)] == whole


def test_shift_check_working_set_stays_near_one_chunk():
    # row (2, 3) of `rota --depth 3` on the shipped fixture: the past at
    # q = depth holds several arrays of the lifted chunk's size at once, and
    # the chunk is sized so that together they stay near CHUNK_BYTES
    chain = _chain(3)
    tracemalloc.start()
    try:
        assert verify_markov_property(chain, 2, 3)["shift"] <= 1e-12
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * chain_module.config.CHUNK_BYTES


def test_shift_units_with_unequal_traced_legs_vanish_on_both_sides():
    # the shift check skips these units: at (n, q) = (0, 1) on a depth-2 chain
    # the source chain has depth 1 and its one leg is traced out
    chain, n, q = _chain(2), 0, 1
    src = chain.shallower(1)
    leg = chain.leg_dim
    past_q = expectations(chain, q)[0]
    src_past = expectations(src, n)[0]
    units = matrix_units(src.ambient_dim).reshape(2, leg, 2, leg, src.ambient_dim,
                                                  src.ambient_dim)
    agree = np.eye(leg, dtype=bool)[None, :, None, :]
    skipped = units[~np.broadcast_to(agree, (2, leg, 2, leg))]
    assert skipped.shape[0] == 4 * leg * (leg - 1)
    lhs = past_q(_dense_beta_power(chain, skipped, 1))
    rhs = _dense_beta_power(chain, src_past(skipped), 1)
    assert np.all(lhs == 0) and np.all(rhs == 0)
    kept = units[np.broadcast_to(agree, (2, leg, 2, leg))]
    assert max_abs(past_q(_dense_beta_power(chain, kept, 1))) > 0


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


def test_schaffer_orbit_and_negative_powers():
    t = random_symmetric_contraction(rng(2), 2)
    dil = build_schaffer(t, window=2)
    assert dil.orbit(0) == [] and dil.orbit(-1) == []
    for k, image in enumerate(dil.orbit(5)):
        np.testing.assert_allclose(
            image, np.linalg.matrix_power(dil.unitary, k) @ dil.embed, atol=1e-13)
    # U is orthogonal, so P U^-1 P = (P U P)^T = T for a symmetric T
    np.testing.assert_allclose(dil.compress(-1), t, atol=1e-13)


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


def test_schaffer_window_space_obeys_the_dimension_cap(monkeypatch):
    monkeypatch.setenv("DILATION_LAB_DIM_CAP", "10")
    with pytest.raises(SizeError, match="window space dimension 11"):
        build_schaffer(np.array([[0.5]]), window=5)
    with pytest.raises(SizeError, match="window space dimension 18"):
        build_schaffer(random_symmetric_contraction(rng(0), 2), window=4)
    assert build_schaffer(np.array([[0.5]]), window=4).unitary.shape == (9, 9)


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


def test_secondquant_verifiers_form_no_superoperator(monkeypatch):
    calls = []
    original = fock_module.second_quantize

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(fock_module, "second_quantize", counted)
    monkeypatch.setattr(chain_module, "second_quantize", counted, raising=False)
    t = random_symmetric_contraction(rng(4), 2)
    assert verify_rota_secondquant(t, window=1, n=1) < 1e-9
    assert verify_gamma_factorization(t) < 1e-12
    assert calls == []


def test_rota_secondquant_applies_gamma_t_once_per_step(monkeypatch):
    # Gamma(T) applied 2n times, never Gamma(T^(2n)): functoriality is checked
    built = []
    original = chain_module.second_quantize_action

    def spy(frame_in, frame_out, t):
        apply = original(frame_in, frame_out, t)
        record = {"ranks": (frame_in.rank, frame_out.rank), "t": np.array(t), "calls": 0}
        built.append(record)

        def counted(xs):
            record["calls"] += 1
            return apply(xs)
        return counted

    monkeypatch.setattr(chain_module, "second_quantize_action", spy)
    t = np.array([[0.5]])
    assert verify_rota_secondquant(t, window=2, n=2) < 1e-9
    base = [r for r in built if r["ranks"] == (1, 1)]
    assert len(base) == 1
    assert np.array_equal(base[0]["t"], t)
    assert base[0]["calls"] == 4
