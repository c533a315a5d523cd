import contextlib
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilation_lab import chain as chain_module
from dilation_lab import cli
from dilation_lab import fock as fock_module
from dilation_lab import (DiagonalState, FermionRep, PreconditionError, SchurSymbol,
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
    rows = verify_markov_property(_chain(2))
    assert list(rows) == [(n, q) for n in range(3) for q in range(n, 3)]
    for (n, q), report in rows.items():
        assert max(report.values()) < 1e-12, (n, q, report)


def _markov_row_reference(chain, n, q):
    """One row of verify_markov_property on its own: the pair powers up to q,
    the J_0, J_n and J_q block stacks and the future row at n built afresh,
    and the shift lifts beta^(q-n) of the depth-0 unit formed for this row."""
    powers = chain_module._pair_powers(chain, q)
    t_step = (chain.symbol.matrix ** (q - n))[:, :, None, None]
    t_level = (chain.symbol.matrix ** n)[:, :, None, None]
    past = max_abs(chain_module._past_blocks(
        chain, n, chain_module._embed_blocks(chain, powers[q])) - t_step * powers[n])
    future = max_abs(chain_module._future_blocks(
        chain, n, powers[n], chain_module._embed_blocks(chain, powers[0]))
        - t_level * chain_module._embed_blocks(chain, powers[n]))
    power = q - n
    shift = 0.0
    if power > 0:
        lifts = chain_module._beta_blocks(chain, np.ones((1, 1, 1, 1), dtype=complex), power)
        lifts = lifts.reshape(*lifts.shape[:2], -1)[..., chain.even_basis[power][0]]
        traced = chain.leg_dim ** (chain.depth - q)
        index, phase = chain.even_basis[n]
        count = index.size
        chunk = max(1, chain_module.config.CHUNK_BYTES // (4 * 16 * lifts.size * count))
        for start in range(0, count, chunk):
            stop = min(start + chunk, count)
            units = np.zeros((stop - start, count), dtype=complex)
            units[np.arange(stop - start), np.arange(start, stop)] = 1 / traced
            units = units.reshape(-1, *index.shape)
            lhs = chain_module._even_part(chain.even_basis[q][1],
                                          chain_module._diagonal_outer(lifts, units))
            rhs = chain_module._diagonal_outer(lifts, chain_module._even_part(phase, units))
            shift = max(shift, max_abs(lhs - rhs))
    return {"past": past, "future": future, "shift": shift}


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
        rows = verify_markov_property(chain)
        for lo in range(depth + 1):
            for hi in range(lo, depth + 1):
                assert rows[lo, hi] == _dense_markov_property(chain, lo, hi), (lo, hi)


def test_markov_rows_match_dense_reference_off_the_identity(monkeypatch):
    # a projection that misses E by a monomial-dependent 1e-3 makes the shift
    # rows nonzero, so the comparison sees the lifted units.  The skew sits
    # in the step that both the dense projection and the shift check's
    # diagonals go through; it still maps zero to zero, so the skipped units
    # stay exact zeros
    original = chain_module._even_part

    def skewed(phase, diagonals):
        count = phase.shape[0]
        return original(phase, diagonals) * (1 + 1e-3 * np.arange(count)[:, None] / count)

    monkeypatch.setattr(chain_module, "_even_part", skewed)
    for chain in (_chain(2), _gram_chain(rng(9500), 3, 2, 2)):
        rows = verify_markov_property(chain)
        for lo in range(3):
            for hi in range(lo + 1, 3):
                report = rows[lo, hi]
                assert report == _dense_markov_property(chain, lo, hi), (lo, hi)
                assert report["shift"] > 1e-6


def _field_monomials(rank):
    """Ordered products of the fields w(f_k) over every subset of modes in
    bitmask order, multiplied out from the dense fields, and whether each is
    even."""
    fields = FermionRep(rank, np.eye(rank)).omega(np.eye(rank))
    monomials = []
    for mask in range(1 << rank):
        product = np.eye(1 << rank, dtype=complex)
        for k in range(rank):
            if mask >> k & 1:
                product = product @ fields[k]
        monomials.append(product)
    masks = np.arange(1 << rank)
    return np.stack(monomials), np.bitwise_count(masks) % 2 == 0


def _tensor_monomials(rank, slots):
    """Kronecker products of field monomials on `slots` legs, first leg
    outermost, and whether every factor is even (the monomials of E^(x)slots)."""
    single, even = _field_monomials(rank)
    stack, all_even = np.ones((1, 1, 1), dtype=complex), np.ones(1, dtype=bool)
    for _ in range(slots):
        side = stack.shape[-1] * single.shape[-1]
        stack = np.einsum("kab,lcd->klacbd", stack, single).reshape(-1, side, side)
        all_even = (all_even[:, None] & even).ravel()
    return stack, all_even


def _basis_projection(basis, y, slots):
    """Reference projection onto E on each of `slots` legs: per leg, the
    expansion of y over the dense trace-orthogonal even monomials `basis`
    and its resynthesis, two einsums over every entry."""
    leg = basis.shape[-1]
    for s in range(slots):
        outer, inner = leg ** s, leg ** (slots - s - 1)
        parts = y.reshape(-1, outer, leg, inner, outer, leg, inner)
        coeffs = np.einsum("xoapsbt,kab->xopstk", parts, basis.conj())
        y = np.einsum("xopstk,kab->xoapsbt", coeffs, basis).reshape(y.shape) / leg
    return y


def _kernel(rank, slots, y):
    return chain_module._project_even(chain_module._even_monomials(rank, slots)[slots], y)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 2), st.integers(0, 2 ** 32 - 1))
def test_even_projection_matches_the_basis_expansion(rank, slots, batch, seed):
    gen = rng(seed)
    side = (1 << rank) ** slots
    y = gen.standard_normal((batch, side, side)) + 1j * gen.standard_normal((batch, side, side))
    monomials, even = _field_monomials(rank)
    expected = _basis_projection(monomials[even], y, slots)
    assert max_abs(_kernel(rank, slots, y) - expected) <= 1e-14


# every (rank, slots) with at most 64 x 64 blocks, whose tensor monomials fit
SMALL_LEGS = [(rank, slots) for rank in (1, 2, 3) for slots in (1, 2, 3) if rank * slots <= 6]


@pytest.mark.parametrize("rank, slots", SMALL_LEGS, ids=[f"r{r}-s{s}" for r, s in SMALL_LEGS])
def test_even_projection_fixes_even_monomials_and_kills_the_rest(rank, slots):
    monomials, even = _tensor_monomials(rank, slots)
    projected = _kernel(rank, slots, monomials)
    assert max_abs(projected[even] - monomials[even]) <= 1e-15
    assert np.all(projected[~even] == 0)


@pytest.mark.parametrize("rank, slots", SMALL_LEGS, ids=[f"r{r}-s{s}" for r, s in SMALL_LEGS])
def test_even_projection_is_an_idempotent_trace_preserving_bimodule_map(rank, slots):
    gen = rng(9600 + 10 * rank + slots)
    monomials, even = _tensor_monomials(rank, slots)
    side = monomials.shape[-1]
    y = np.stack([random_complex(gen, side) for _ in range(3)])
    projected = _kernel(rank, slots, y)
    assert max_abs(_kernel(rank, slots, projected) - projected) <= 1e-15
    assert max_abs(np.trace(projected, axis1=-2, axis2=-1)
                   - np.trace(y, axis1=-2, axis2=-1)) <= 1e-13
    # a and b in E^(x)slots: random combinations of the even monomials
    a, b = (np.einsum("k,kab->ab", random_complex(gen, 1, int(even.sum())).ravel(),
                      monomials[even]) for _ in range(2))
    assert max_abs(_kernel(rank, slots, a @ y @ b) - a @ projected @ b) <= 1e-13


def _traced_units(kept, traced, start, stop):
    """Matrix units e_{(a, r), (b, r)} of M_kept (x) M_traced, numbers start
    to stop - 1 in (a, b, r) order: the units whose traced factors agree."""
    a, b, r = np.unravel_index(np.arange(start, stop), (kept, kept, traced))
    side = kept * traced
    units = np.zeros((stop - start, side, side), dtype=complex)
    units[np.arange(stop - start), a * traced + r, b * traced + r] = 1
    return units


def _lifted_shift(chain, n, q):
    """Reference for the shift row on whole blocks: every source unit whose
    traced legs agree is lifted by beta^(q-n) into tail x tail blocks, and
    both pasts act on the whole lifted stacks, a chunk of units at a time."""
    power = q - n
    src_depth = chain.depth - power
    kept, traced = chain.leg_dim ** n, chain.leg_dim ** (src_depth - n)
    count = kept * kept * traced
    # the past at level q holds about four lifted stacks of 16-byte entries
    chunk = max(1, chain_module.config.CHUNK_BYTES // (4 * 16 * chain.ambient_dim ** 2))
    shift = 0.0
    for start in range(0, count, chunk):
        units = _traced_units(kept, traced, start, min(start + chunk, count))[:, None, None]
        lhs = chain_module._past_blocks(chain, q, chain_module._beta_blocks(chain, units, power))
        rhs = chain_module._beta_blocks(chain, chain_module._past_blocks(chain, n, units), power)
        shift = max(shift, max_abs(lhs - rhs))
    return shift


# (n, rank, depth) of the Gram chains at ranks and depths 1-3 that
# build_chain admits
GRAM_SHAPES = [(n, rank, depth) for rank in (1, 2, 3) for depth in (1, 2, 3)
               for n in range(rank, 4)
               if chain_module._planned_bytes(n, 2 ** rank, depth) <= chain_module.config.BYTE_CAP]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(GRAM_SHAPES), st.integers(0, 2 ** 32 - 1))
def test_shift_row_is_the_lifted_reference(shape, seed):
    chain = _gram_chain(rng(seed), *shape)
    pairs = [(n, q) for q in range(1, chain.depth + 1) for n in range(q)]
    expected = [_lifted_shift(chain, n, q) for n, q in pairs]
    rows = verify_markov_property(chain)
    assert [rows[n, q]["shift"] for n, q in pairs] == expected
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chain_module.config, "CHUNK_BYTES", 1)
        rows = verify_markov_property(chain)
        assert [rows[n, q]["shift"] for n, q in pairs] == expected


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(GRAM_SHAPES), st.integers(0, 2 ** 32 - 1))
def test_markov_rows_are_the_per_row_reference(shape, seed):
    chain = _gram_chain(rng(seed), *shape)
    pairs = [(n, q) for n in range(chain.depth + 1) for q in range(n, chain.depth + 1)]
    expected = {(n, q): _markov_row_reference(chain, n, q) for n, q in pairs}
    assert verify_markov_property(chain) == expected
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chain_module.config, "CHUNK_BYTES", 1)
        assert verify_markov_property(chain) == expected


def test_markov_rows_hold_few_tail_stacks(monkeypatch):
    # one (n, n, tail, tail) stack is 4 MiB here.  The future row at
    # q = depth held six at once (pair powers, J_0, J_q, the row, t^q J_q and
    # the difference); with the row subtracted in place and J_0 dropped
    # before J_q, no level holds more than five
    monkeypatch.setattr(chain_module.config, "BYTE_CAP", 2 ** 40)
    chain = _gram_chain(rng(9501), 32, 4, 1)
    stack = 16 * chain.input_dim ** 2 * chain.tail_dim ** 2
    tracemalloc.start()
    try:
        verify_markov_property(chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * stack


def test_markov_rows_build_shared_work_once(monkeypatch):
    calls = {"_pair_powers": [], "_future_blocks": [], "_embed_blocks": []}

    def spy(name):
        original = getattr(chain_module, name)

        def counted(*args):
            calls[name].append(args)
            return original(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(chain_module, name, spy(name))
    chain = _gram_chain(rng(9502), 3, 1, 3)
    verify_markov_property(chain)
    assert len(calls["_pair_powers"]) == 1
    assert [args[1] for args in calls["_future_blocks"]] == list(range(chain.depth + 1))
    # one J_q block stack per level, read off the side of its pair powers
    assert [args[1].shape[-1] for args in calls["_embed_blocks"]] == \
        [chain.leg_dim ** q for q in range(chain.depth + 1)]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(GRAM_SHAPES), st.integers(0, 2 ** 32 - 1))
def test_pairs_and_even_projections_vanish_off_the_even_diagonals(shape, seed):
    # the shift row compares its two sides on the even diagonals only, which
    # gives the max over whole blocks because both sides are exact zeros off
    # them: the lifts (w_i w_j)^(x)p and every projection onto E^(x)s
    gen = rng(seed)
    chain = _gram_chain(gen, *shape)

    def vanishes(stack, s):
        off = np.ones(chain.leg_dim ** (2 * s), dtype=bool)
        off[chain.even_basis[s][0]] = False
        return np.all(stack.reshape(*stack.shape[:-2], -1)[..., off] == 0)

    assert vanishes(chain.pairs, 1)
    powers = chain_module._pair_powers(chain, chain.depth)
    lifts = np.ones((1, 1, 1, 1), dtype=complex)
    for s in range(1, chain.depth + 1):
        lifts = chain_module._beta_blocks(chain, lifts, 1)
        assert vanishes(powers[s], s) and vanishes(lifts, s)
        projected = chain_module._project_even(chain.even_basis[s],
                                               random_complex(gen, chain.leg_dim ** s))
        assert vanishes(projected, s)


def test_traced_units_are_the_units_with_agreeing_traced_legs():
    kept, traced = 3, 4
    side = kept * traced
    units = _traced_units(kept, traced, 0, kept * kept * traced)
    agree = np.eye(traced, dtype=bool)[None, :, None, :]
    expected = matrix_units(side)[np.broadcast_to(agree, (kept, traced, kept, traced)).ravel()]
    assert units.shape == expected.shape

    def positions(stack):
        return sorted(np.flatnonzero(stack.reshape(len(stack), -1)) % (side * side))

    assert positions(units) == positions(expected)
    assert np.array_equal(_traced_units(kept, traced, 5, 9), units[5:9])


def test_shift_check_is_the_same_in_small_chunks(monkeypatch):
    chain = _gram_chain(rng(9501), 2, 2, 2)
    whole = verify_markov_property(chain)
    monkeypatch.setattr(chain_module.config, "CHUNK_BYTES", 1)
    assert verify_markov_property(chain) == whole


def test_shift_check_working_set_stays_near_one_chunk(monkeypatch):
    # the Markov rows of `rota --depth 3` on the shipped fixture: unchunked,
    # row (2, 3) holds about 7 MiB of diagonal arrays at once, which a
    # CHUNK_BYTES of 2 MiB cuts into chunks whose arrays take about 2 MiB
    # together; the rest of the call (the J_q block stacks) stays well below
    monkeypatch.setattr(chain_module.config, "CHUNK_BYTES", 2 ** 21)
    chain = _chain(3)
    tracemalloc.start()
    try:
        assert max(row["shift"] for row in verify_markov_property(chain).values()) <= 1e-12
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * chain_module.config.CHUNK_BYTES


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
        assert verify_rota_secondquant(build_schaffer(np.array([[0.5]]), 2), n)[n - 1] < 1e-9
    with pytest.raises(PreconditionError):
        verify_rota_secondquant(build_schaffer(np.array([[0.5]]), 2), 3)
    with pytest.raises(SizeError, match="window space rank 13 exceeds fermion cap 12"):
        verify_rota_secondquant(build_schaffer(np.array([[0.5]]), 6), 1)


def test_gamma_factorization_small_matrices():
    assert verify_gamma_factorization(build_schaffer(np.array([[0.5]]), 1)) < 1e-12
    gen = rng(3)
    assert verify_gamma_factorization(
        build_schaffer(random_symmetric_contraction(gen, 2), 1)) < 1e-11
    with pytest.raises(SizeError):
        verify_gamma_factorization(build_schaffer(random_symmetric_contraction(gen, 3), 1))


def test_secondquant_verifiers_form_no_superoperator(monkeypatch):
    calls = []
    original = fock_module.second_quantize

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(fock_module, "second_quantize", counted)
    monkeypatch.setattr(chain_module, "second_quantize", counted, raising=False)
    t = random_symmetric_contraction(rng(4), 2)
    dil = build_schaffer(t, window=1)
    assert max(verify_rota_secondquant(dil, 1)) < 1e-9
    assert verify_gamma_factorization(dil) < 1e-12
    assert calls == []


def _rota_secondquant_reference(dil, n):
    """The dense form of level n: Lambda(E E^T) Lambda(P_n) Lambda(E) against
    Lambda(E) Gamma(T)^(2n), with 2^R-square exterior maps of the window."""
    include = fock_module.exterior_map(dil.embed)
    p_n = chain_module._span_projection(dil, n, 2 * dil.window - n)
    lhs = (fock_module.exterior_map(dil.embed @ dil.embed.T)
           @ (fock_module.exterior_map(p_n) @ include))
    gamma_t = fock_module.exterior_map(dil.contraction)
    rhs = np.eye(1 << dil.base_dim)
    for _ in range(2 * n):
        rhs = gamma_t @ rhs
    return max_abs(lhs - include @ rhs)


def _assert_rota_secondquant_is_the_dense_form(t, window):
    dil = build_schaffer(t, window)
    assert verify_rota_secondquant(dil, window) == [
        _rota_secondquant_reference(dil, n) for n in range(1, window + 1)]


# (m, window) with window rank at most the fermion cap
@settings(max_examples=20, deadline=None)
@given(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]), st.integers(0, 2 ** 32 - 1))
def test_rota_secondquant_is_the_dense_form(shape, seed):
    m, window = shape
    _assert_rota_secondquant_is_the_dense_form(
        random_symmetric_contraction(rng(seed), m), window)


# the defect D = sqrt(1 - T^2) is singular: 0 for T = +-1, everywhere for
# T = +-I, on one mode for diag(1, 0.3); T = 0 makes U a pure shift
@pytest.mark.parametrize("t", [np.eye(2), -np.eye(2), np.zeros((2, 2)), np.diag([1.0, 0.3]),
                               np.array([[1.0]]), np.array([[-1.0]])])
@pytest.mark.parametrize("window", [1, 2])
def test_rota_secondquant_is_the_dense_form_for_singular_defects(t, window):
    _assert_rota_secondquant_is_the_dense_form(t, window)


def test_secondquant_run_builds_one_dilation_and_one_lift_of_t(monkeypatch):
    built, lifted = [], []
    original_schaffer, original_lift = chain_module.build_schaffer, chain_module.exterior_map

    def schaffer(*args, **kwargs):
        built.append(original_schaffer(*args, **kwargs))
        return built[-1]

    def lift(t):
        lifted.append(np.array(t))
        return original_lift(t)

    for module in (chain_module, cli):
        monkeypatch.setattr(module, "build_schaffer", schaffer)
    monkeypatch.setattr(chain_module, "exterior_map", lift)
    for steps in (1, 2):
        built.clear()
        lifted.clear()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["secondquant", "--window", "2", "--steps", str(steps)]) == 0
        assert len(built) == 1
        t = built[0].contraction
        # one for the gamma_factorization row, one for every Rota level
        assert sum(a.shape == t.shape and np.array_equal(a, t) for a in lifted) == 2


def test_rota_secondquant_applies_gamma_t_once_per_step(monkeypatch):
    # Lambda(T) built once, from T and never from T^(2n), and applied 2n
    # times: functoriality is checked rather than assumed
    class Applied(np.ndarray):
        calls = 0

        def __matmul__(self, other):
            Applied.calls += 1
            return np.asarray(self) @ other

    built = []
    original = chain_module.exterior_map

    def spy(t):
        built.append(np.array(t))
        lifted = original(t)
        return lifted.view(Applied) if built[-1].shape == (1, 1) else lifted

    monkeypatch.setattr(chain_module, "exterior_map", spy)
    t = np.array([[0.5]])
    assert max(verify_rota_secondquant(build_schaffer(t, window=2), 2)) < 1e-9
    base = [a for a in built if a.shape == t.shape]
    assert len(base) == 1
    assert np.array_equal(base[0], t)
    assert Applied.calls == 4
