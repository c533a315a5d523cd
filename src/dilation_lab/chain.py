"""Markov chain of a multiplier in a truncated fermion tensor product.

The chain lives on M_n (x) A^(x)N with A the fermion leg over the symbol's
embedding space.  J_q copies the input algebra into the first q legs,

    J_q(e_ij) = e_ij (x) (w_i w_j)^(x)q (x) 1 (x) ...   (w_i the field of row i),

beta shifts one slot deeper and conjugates by the slot-1 symmetry, and the
past/future conditional expectations onto the algebras generated by the J_q
images realize the Markov identities

    E_{n]} o J_q = J_n o T^(q-n),    E_{[n} o J_0 = J_n o T^n,
    E_{n]} o E_{[n} would overshoot: the composition through both gives
    J_0 o T^(2n) = E_{0]} o E_{[n} o J_0.

Both algebras are known exactly.  With E the even algebra of the field
Majoranas, the past one at level q is M_n (x) E^(x)q (x) 1 and the future one
U (M_n (x) 1^(x)q (x) E^(x)(N-q)) U, U = sum_i e_ii (x) w_i^(x)q (x) 1.  The
product state commutes with U, so each expectation is per-leg projection onto
E and a partial trace.  Both act block by block on the (i, j) blocks of
M_n (x) A^(x)N, and every element the Markov rows feed them (J_q(e_ij),
beta^p of a source unit) sits in one block, so the rows work on stacks of
single tail x tail blocks instead of ambient matrices.

In the wedge basis every even field monomial gamma_S is a signed permutation,
e_r -> phase[S, r] e_(r ^ S), so the monomials of E^(x)s on s legs sit on
disjoint XOR diagonals: K = (S_1..S_s) flips the concatenated bits K with
phase prod_l phase[S_l, r_l].  Projecting onto E^(x)s reads each diagonal
once, c_K = sum_R phase_K[R] y[R ^ K, R] / leg^s, and writes
phase_K[R] c_K back onto it: one gather, one weighted sum and one scatter
for all legs together.

The shift row forms no block at all.  beta^p of a source unit B is
A_ij (x) B in block (i, j), with A = (w_i w_j)^(x)p, and the diagonals of
A (x) B on p + s legs are the outer product of the diagonals of A on p legs
and of B on s legs.  A is exactly zero off its diagonals, and so is every
projection, so comparing the two sides there gives the max-abs over whole
blocks to the bit.  The Markov and Rota rows form no matrix product at all:
they keep to einsum and indexing, because a multithreaded GEMM leaves
OpenBLAS workers spinning for about 0.1 s of CPU after it returns, which on
two cores slows whatever runs next.  Where both sides of a row have the
form X (x) 1 on the legs a past expectation traces out, the row compares
the two X (J_q(e_ij) is still formed with them), the same max-abs to the bit.

All identities are local in the chain, so truncation at depth N is exact for
indices <= N.  The same module carries the shifted unitary dilation of a
symmetric contraction (exactly unitary on a cyclic window, strong dilation
identity up to the wrap horizon) and its second-quantized counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import config
from .errors import PreconditionError, ShapeError, SizeError
from .fock import (FermionRep, _field_products, _reversal_sign, build_fermion_rep,
                   exterior_map)
from .matcore import dagger, frobenius, hermitian_sqrt, matrix_units, max_abs
from .schur import GramSpace, SchurSymbol, build_gram_space, require_symbol
from .states import DiagonalState

__all__ = [
    "ChainSpace",
    "build_chain",
    "embed_J",
    "build_beta",
    "expectations",
    "verify_embedding",
    "verify_markov_property",
    "verify_rota",
    "SchafferDilation",
    "build_schaffer",
    "halmos_block",
    "verify_ppnp",
    "verify_rota_secondquant",
    "verify_gamma_factorization",
]


@dataclass(frozen=True, eq=False)
class ChainSpace:
    """Truncated chain M_n (x) A^(x)depth with its product state, and what
    build_chain computes once: pairs[i, j] = w_i w_j on one leg, and
    even_basis, the even tensor monomials of E^(x)s for s = 0..depth.

    even_basis[s] is a pair (index, phase) of (count, leg^s) arrays: monomial
    K sends e_R to phase[K, R] e_(R ^ K), and index[K, R] is the flat position
    (R ^ K) leg^s + R of that entry in a leg^s x leg^s block.  The monomials
    sit on disjoint XOR diagonals, so index never repeats a position, and
    even_basis[1] is the per-leg table of E's monomials."""

    symbol: SchurSymbol
    state: DiagonalState
    depth: int
    gram: GramSpace
    rep: FermionRep
    pairs: np.ndarray = field(repr=False)
    even_basis: tuple[tuple[np.ndarray, np.ndarray], ...] = field(repr=False)

    @property
    def input_dim(self) -> int:
        return self.symbol.dim

    @property
    def leg_dim(self) -> int:
        return self.rep.dim

    @property
    def tail_dim(self) -> int:
        return self.leg_dim ** self.depth

    @property
    def ambient_dim(self) -> int:
        return self.input_dim * self.tail_dim

    @property
    def ambient_state(self) -> DiagonalState:
        return DiagonalState(np.repeat(self.state.weights, self.tail_dim) / self.tail_dim)

    def shallower(self, depth: int) -> "ChainSpace":
        """Chain over the same data truncated at a smaller depth >= 1."""
        if depth == self.depth:
            return self
        if not 1 <= depth < self.depth:
            raise PreconditionError("shallower depth out of range")
        return ChainSpace(self.symbol, self.state, depth, self.gram, self.rep,
                          self.pairs, self.even_basis[:depth + 1])


_ENTRY_BYTES = np.dtype(complex).itemsize


def _planned_bytes(n: int, leg: int, depth: int) -> int:
    """Cost bound that decides whether a rota run over this chain is admitted.

    Its terms are the sizes of arrays that the Markov rows once built: the
    shift check's source matrix units (one leg shallower), (dim // leg)^4
    entries, and the generator stack and basis of a numerical closure of the
    chain algebras.  The code forms none of them now: the rows work on single
    blocks, the shift check reads only the even diagonals of its source
    units' lifts, and batched work is cut into chunks of config.CHUNK_BYTES.
    The terms stand as a bound on run time, which grew with them while the
    shift check lifted whole blocks: without the closure terms, shapes such
    as 4x4 rank 4 depth 2 would be admitted (README, Costs)."""
    dim = n * leg ** depth
    seed = 2 * (depth + 1) * n * n + 1
    closure = n * n * min(2 ** (n - 1), leg * leg // 2) ** depth
    return _ENTRY_BYTES * max((dim // leg) ** 4, seed * dim * dim, closure * dim * dim)


def build_chain(symbol: SchurSymbol, state: DiagonalState, depth: int,
                tol: float = config.TOL_NUM) -> ChainSpace:
    """The chain of `depth` legs over a symbol that is unital and self-adjoint
    within tol and PSD within TOL_PSD."""
    require_symbol(symbol, tol)
    if state.dim != symbol.dim:
        raise ShapeError("state dimension does not match symbol")
    if depth < 1:
        raise PreconditionError("chain depth must be >= 1")
    gram = build_gram_space(symbol, tol)
    # the tail alone has 2^(rank depth) dimensions: refuse on the exponent
    # before the power is formed
    if gram.rank * depth >= config.dim_cap().bit_length():
        raise SizeError(f"chain dimension {symbol.dim} * 2^{gram.rank * depth} exceeds "
                        f"the dimension cap {config.dim_cap()}")
    leg = 2 ** gram.rank
    if symbol.dim * leg ** depth > config.dim_cap():
        raise SizeError(f"chain dimension {symbol.dim * leg ** depth} exceeds cap")
    planned = _planned_bytes(symbol.dim, leg, depth)
    if planned > config.BYTE_CAP:
        raise SizeError(f"chain at depth {depth} plans {planned} bytes, "
                        f"over the {config.BYTE_CAP} byte cap")
    rep = build_fermion_rep(gram)
    omegas = rep.omega(rep.embedding)
    pairs = np.einsum("iab,jbc->ijac", omegas, omegas)
    return ChainSpace(symbol, state, depth, gram, rep, pairs, _even_monomials(rep.rank, depth))


def _even_monomials(rank: int, depth: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """ChainSpace.even_basis: the even field monomials of one leg, as flips
    and phases (fock._field_products), and their tensor products on s legs
    for s = 0..depth, a new leg appended as the lowest bits at each step."""
    flip, phase = _field_products(rank)
    even = np.bitwise_count(flip) % 2 == 0
    flip, phase = flip[even], phase[even]
    flips, phases = np.zeros(1, dtype=np.int64), np.ones((1, 1), dtype=complex)
    out = [(flips[:, None], phases)]
    for _ in range(depth):
        flips = (flips[:, None] << rank | flip).ravel()
        phases = (phases[:, None, :, None] * phase[:, None, :]).reshape(flips.size, -1)
        r = np.arange(phases.shape[-1])
        out.append(((r ^ flips[:, None]) * r.size + r, phases))
    return tuple(out)


# Block stacks: an element of M_n (x) A^(x)depth that sits in block (i, j)
# is kept as its tail x tail block at [..., i, j, :, :] of an array of shape
# (..., n, n, tail, tail).

def _to_blocks(x: np.ndarray, n: int) -> np.ndarray:
    """(..., n*t, n*t) matrices as block stacks (..., n, n, t, t)."""
    t = x.shape[-1] // n
    return np.swapaxes(x.reshape(*x.shape[:-2], n, t, n, t), -3, -2)


def _from_blocks(blocks: np.ndarray) -> np.ndarray:
    """Block stacks (..., n, n, t, t) as (..., n*t, n*t) matrices."""
    n, t = blocks.shape[-3], blocks.shape[-1]
    return np.swapaxes(blocks, -3, -2).reshape(*blocks.shape[:-4], n * t, n * t)


def _lift(powers: np.ndarray, x: np.ndarray) -> np.ndarray:
    """powers (x) x for two stacks of square matrices that broadcast, powers
    on the leading legs: the block lift (w_i w_j)^(x)p (x) x_ij when powers
    holds the pair powers and x a block stack."""
    out = np.einsum("...ab,...cd->...acbd", powers, x)
    side = powers.shape[-1] * x.shape[-1]
    return out.reshape(*out.shape[:-4], side, side)


def _pair_powers(chain: ChainSpace, q: int) -> list[np.ndarray]:
    """(w_i w_j)^(x)l on the first l legs, shape (n, n, leg^l, leg^l), for
    every level l = 0..q."""
    n = chain.input_dim
    powers = [np.ones((n, n, 1, 1), dtype=complex)]
    for _ in range(q):
        powers.append(_lift(powers[-1], chain.pairs))
    return powers


def _embed_blocks(chain: ChainSpace, powers: np.ndarray) -> np.ndarray:
    """Block (i, j) of J_q(e_ij), (w_i w_j)^(x)q (x) 1, at [i, j], from the
    pair powers of level q."""
    return _lift(powers, np.eye(chain.tail_dim // powers.shape[-1], dtype=complex))


def embed_J(chain: ChainSpace, q: int):
    """Copy of the input algebra using the first q legs, as a callable on a
    matrix or a stack."""
    if not 0 <= q <= chain.depth:
        raise PreconditionError("embedding index out of range")
    blocks = _embed_blocks(chain, _pair_powers(chain, q)[q])
    n = chain.input_dim

    def embed(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.ndim < 2 or x.shape[-2:] != (n, n):
            raise ShapeError("element dimension does not match the chain input")
        if not np.all(np.isfinite(x)):
            raise ShapeError("chain input has non-finite entries")
        return _from_blocks(x[..., None, None] * blocks)

    return embed


def _beta_blocks(chain: ChainSpace, blocks: np.ndarray, power: int) -> np.ndarray:
    """beta^power on block stacks: block (i, j) gains (w_i w_j) on a new
    first leg at each step."""
    for _ in range(power):
        blocks = _lift(chain.pairs, blocks)
    return blocks


def build_beta(chain: ChainSpace, x: np.ndarray) -> np.ndarray:
    """Shift one slot deeper and conjugate by the slot-1 symmetry.

    x is an element of the chain truncated at depth-1 (a plain input-algebra
    element when depth is 1); the result lives in `chain`.  Accepts stacks
    with leading batch axes.
    """
    n = chain.input_dim
    sub_dim = n * chain.tail_dim // chain.leg_dim
    x = np.asarray(x, dtype=complex)
    if x.ndim < 2 or x.shape[-1] != sub_dim or x.shape[-2] != sub_dim:
        raise ShapeError("element does not live one level below the chain")
    # d_1 = sum_i e_ii (x) w_i (x) I is block diagonal, so block (i, j) of
    # d_1 (I_leg (x) x) d_1 is (w_i (x) x_ij)(w_j (x) I) = (w_i w_j) (x) x_ij
    return _from_blocks(_beta_blocks(chain, _to_blocks(x, n), 1))


def _even_part(phase: np.ndarray, diagonals: np.ndarray) -> np.ndarray:
    """Projection onto E on each of s legs, read on its XOR diagonals: from
    the gathered y[R ^ K, R] of a stack, shape (..., count, leg^s), and the
    phases of ChainSpace.even_basis[s], the projection's entries at the same
    places, phase[K, R] c_K with c_K = sum_R phase[K, R] y[R ^ K, R] / leg^s
    (the phases are real)."""
    coeffs = np.einsum("...kr,kr->...k", diagonals, phase)
    coeffs /= phase.shape[-1]
    return coeffs[..., None] * phase


def _project_even(monomials: tuple[np.ndarray, np.ndarray], y: np.ndarray) -> np.ndarray:
    """Projection onto E on each of the s legs of a stack y of shape
    (..., leg^s, leg^s), with monomials = ChainSpace.even_basis[s].

    The even tensor monomials K are trace-orthogonal signed permutations on
    disjoint XOR diagonals, so the projection reads y only on them: one
    gather of y[R ^ K, R], the coefficients of _even_part and one scatter;
    every other entry is zero.  No leg^2 x leg^2 projector and no matrix
    product is formed, so no BLAS call is made."""
    side = y.shape[-1]
    if side == 1:
        return y  # E^(x)0 is the scalars
    index, phase = monomials
    flat = y.reshape(*y.shape[:-2], side * side)
    out = np.zeros_like(flat)
    out[..., index] = _even_part(phase, flat[..., index])
    return out.reshape(y.shape)


def _past_blocks(chain: ChainSpace, n: int, blocks: np.ndarray) -> np.ndarray:
    """Past expectation at level n on a block stack (..., side, side) over
    whole legs, without its trailing identity: E_{n]} of each block is y (x) 1
    on legs n+1.., and this returns the (..., leg^n, leg^n) stack y.

    It traces out legs n+1.. and projects legs 1..n onto E, the same on every
    block, so it takes any stack of blocks, and the depth is read from their
    side: the same call serves every chain over this leg, down to the depth-0
    chain, on which it is the identity.  With no leg to trace out it skips
    the trace."""
    lower = chain.leg_dim ** n
    upper = blocks.shape[-1] // lower
    if upper > 1:
        legs = blocks.reshape(*blocks.shape[:-2], lower, upper, lower, upper)
        blocks = np.einsum("...arbr->...ab", legs) / upper
    return _project_even(chain.even_basis[n], blocks)


def _future_blocks(chain: ChainSpace, n: int, powers: np.ndarray,
                   blocks: np.ndarray) -> np.ndarray:
    """Future expectation at level n on a block stack (..., input, input, tail,
    tail), with powers the pair powers of level n: it strips (w_i w_k)^(x)n
    from block (i, k) by the partial trace over legs 1..n, projects the other
    legs onto E and puts the factor back."""
    lower = powers.shape[-1]
    upper = chain.tail_dim // lower
    legs = blocks.reshape(*blocks.shape[:-2], lower, upper, lower, upper)
    y = np.einsum("...arbs,...ab->...rs", legs, powers.conj()) / lower
    return _lift(powers, _project_even(chain.even_basis[chain.depth - n], y))


def expectations(chain: ChainSpace, n: int):
    """(past, future) state-preserving expectations at level n onto the
    algebras of J_0..J_n and of J_n..J_depth, for a matrix or a stack."""
    if not 0 <= n <= chain.depth:
        raise PreconditionError("expectation level out of range")
    size, dim = chain.input_dim, chain.ambient_dim
    powers = _pair_powers(chain, n)[n]
    trailing = np.eye(chain.tail_dim // powers.shape[-1])

    def on_matrices(blockwise):
        def expect(x) -> np.ndarray:
            xa = np.asarray(x, dtype=complex)
            if xa.ndim < 2 or xa.shape[-2:] != (dim, dim):
                raise ShapeError(f"chain expectation needs {dim} x {dim} matrices")
            return _from_blocks(blockwise(_to_blocks(xa, size)))
        return expect

    return (on_matrices(lambda blocks: _lift(_past_blocks(chain, n, blocks), trailing)),
            on_matrices(lambda blocks: _future_blocks(chain, n, powers, blocks)))


def verify_embedding(chain: ChainSpace, q: int) -> dict[str, float]:
    """Residuals showing J_q is a unital state-preserving *-homomorphism."""
    j = embed_J(chain, q)
    n = chain.input_dim
    units = matrix_units(n)
    images = j(units)
    unital = max_abs(j(np.eye(n)) - np.eye(chain.ambient_dim))
    star = max_abs(j(dagger(units)) - dagger(images))
    phi_in = chain.state
    phi_out = chain.ambient_state
    state = max(abs(phi_in(u) - phi_out(img)) for u, img in zip(units, images))
    mult = max_abs(images[:, None] @ images[None, :] - j(units[:, None] @ units[None, :]))
    return {"unital": unital, "multiplicative": mult, "star": star,
            "state_preserving": state}


def _diagonal_outer(lifts: np.ndarray, units: np.ndarray) -> np.ndarray:
    """Diagonals of A_ij (x) B_u in ChainSpace.even_basis[p + s] order, from
    those of the lifts A on p legs, shape (input, input, count_p, leg^p), and
    of the units B on s legs, shape (units, count_s, leg^s): the monomial
    (K, L) and the row (R, S) of the product, B's legs in the low bits, give
    (u, i, j, K count_s + L, R leg^s + S)."""
    out = np.einsum("ijkr,uls->uijklrs", lifts, units)
    return out.reshape(*out.shape[:3], lifts.shape[-2] * units.shape[-2],
                       lifts.shape[-1] * units.shape[-1])


def verify_markov_property(chain: ChainSpace) -> dict[tuple[int, int], dict[str, float]]:
    """Residuals of the three chain identities for every n <= q, keyed (n, q), n-major:

      past:   E_{n]}(J_q(x)) = J_n(T^(q-n) x)   entrywise symbol power
      future: E_{[n}(J_0(x)) = J_n(T^n x)
      shift:  E_{q]}(beta^(q-n)(x)) = beta^(q-n)(E_{n]}(x)) on the smaller chain

    checked on matrix-unit bases; the shift residual is 0 by construction
    when q = n.  J_q(e_ij) sits in block (i, j), and so does beta^p(x) for x
    in block (i, j); both expectations act block by block, so every row works
    on single blocks.  The pair powers, each J_q stack (q ascending, only J_0
    and the current one held), each future row and each shift lift are built
    once.  Both sides of the past identity are X (x) 1 on the legs the past
    traces out, and the row compares the two X.

    The shift row reads only the even XOR diagonals of ChainSpace.even_basis
    and forms no lifted block.  A source unit e_ab (x) e_rs of the smaller
    chain, with r, s on the legs n+1..depth-p that E_{q]} traces out, maps to
    exact zero on both sides unless r = s, and to A_ij (x) e_ab / traced in
    block (i, j) when r = s, for every r alike: A = (w_i w_j)^(x)p is beta^p
    of the depth-0 unit.  It is exact zero again unless a ^ b is an even
    flip, so the units that remain are the positions of even_basis[n], each
    a single entry on the diagonals.  The diagonals of A (x) B are the outer
    product of those of A and B, in even_basis[q] order, and the two sides
    are the projection of that product and the product with the projected
    B.  Off the diagonals both sides are exact zeros, so the max-abs over
    the diagonals is the one over whole blocks.  The units are taken
    config.CHUNK_BYTES of diagonal arrays at a time.
    """
    powers = _pair_powers(chain, chain.depth)
    t_pow = [(chain.symbol.matrix ** k)[:, :, None, None] for k in range(chain.depth + 1)]
    j_0, futures, pasts = _embed_blocks(chain, powers[0]), [], {}
    for q in range(chain.depth + 1):
        # the future row subtracts in place from the fresh stack its builder
        # returns, and J_0 goes once the last one is built, before the last
        # J_q: no level holds more than five tail-sized stacks
        future = _future_blocks(chain, q, powers[q], j_0)
        if q == chain.depth:
            del j_0
        j_q = _embed_blocks(chain, powers[q]) if q else j_0
        future -= t_pow[q] * j_q
        futures.append(max_abs(future))
        del future
        for n in range(q + 1):
            pasts[n, q] = max_abs(_past_blocks(chain, n, j_q) - t_pow[q - n] * powers[n])
        del j_q
    del powers
    # block (i, j) of beta^p(e_ab (x) e_rr) is A_ij (x) e_ab (x) e_rr, with
    # A = beta^p of the depth-0 unit: keep the even diagonals of each A
    lift, lifts = np.ones((1, 1, 1, 1), dtype=complex), [None]
    for p in range(1, chain.depth + 1):
        lift = _beta_blocks(chain, lift, 1)
        lifts.append(lift.reshape(*lift.shape[:2], -1)[..., chain.even_basis[p][0]])
    del lift
    return {(n, q): {"past": pasts[n, q], "future": futures[n],
                     "shift": _shift_residual(chain, lifts[q - n], n, q) if n < q else 0.0}
            for n in range(chain.depth + 1) for q in range(n, chain.depth + 1)}


def _shift_residual(chain: ChainSpace, lifts: np.ndarray, n: int, q: int) -> float:
    """The shift row at levels n < q from the even diagonals of beta^(q-n)."""
    traced = chain.leg_dim ** (chain.depth - q)  # E_{q]} traces e_rr to 1 / traced
    index, phase = chain.even_basis[n]
    count = index.size
    # lhs, rhs, their difference and its modulus: about four chunk-sized arrays
    chunk = max(1, config.CHUNK_BYTES // (4 * _ENTRY_BYTES * lifts.size * count))
    shift = 0.0
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        units = np.zeros((stop - start, count), dtype=complex)
        units[np.arange(stop - start), np.arange(start, stop)] = 1 / traced
        units = units.reshape(-1, *index.shape)
        lhs = _even_part(chain.even_basis[q][1], _diagonal_outer(lifts, units))
        rhs = _diagonal_outer(lifts, _even_part(phase, units))
        shift = max(shift, max_abs(lhs - rhs))
    return shift


def verify_rota(chain: ChainSpace, n: int) -> float:
    """Residual of J_0(T^(2n) x) = E_{0]}(E_{[n}(J_0(x))) on matrix units,
    each on its own block."""
    if not 1 <= n <= chain.depth:
        raise PreconditionError("need 1 <= n <= depth")
    powers = _pair_powers(chain, n)
    future = _future_blocks(chain, n, powers[n], _embed_blocks(chain, powers[0]))
    t_pow = (chain.symbol.matrix ** (2 * n))[:, :, None, None]
    # E_{0]} is the normalized trace of each block times 1: compare the traces
    return max_abs(_past_blocks(chain, 0, future) - t_pow)


# ---------------------------------------------------------------------------
# Shifted unitary dilation of a symmetric contraction.

@dataclass(frozen=True, eq=False)
class SchafferDilation:
    """Exact unitary on a cyclic window of 2W+1 slots dilating T on slot 0."""

    base_dim: int
    contraction: np.ndarray
    defect: np.ndarray
    window: int
    unitary: np.ndarray
    embed: np.ndarray

    def orbit(self, stop: int) -> list[np.ndarray]:
        """U^k embed for k = 0..stop-1, one product per step."""
        out = [self.embed] if stop > 0 else []
        for _ in range(1, stop):
            out.append(self.unitary @ out[-1])
        return out

    def compress(self, k: int) -> np.ndarray:
        """P U^k restricted to the base space."""
        return self.embed.T @ np.linalg.matrix_power(self.unitary, k) @ self.embed


def halmos_block(t: np.ndarray, d: np.ndarray) -> np.ndarray:
    """One-step symmetry dilation [[T, D], [D, -T]] of a symmetric contraction."""
    return np.block([[t, d], [d, -t]])


def build_schaffer(t: np.ndarray, window: int,
                   tol: float = config.TOL_NUM) -> SchafferDilation:
    """Cyclic-window unitary with P U^k restricted to slot 0 equal to T^k.

    Slots -W..W each carry a copy of the base space.  Away from slots -1, 0
    the unitary shifts s -> s+1 (W wraps to -W); the pair (slot 0, slot -1)
    feeds slots (0, 1) through the symmetry block [[T, D], [D, -T]].  A wave
    started in slot 0 needs 2W steps before wrapping back into slot -1, so
    the dilation identity is exact for k <= 2W.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] == 0:
        raise ShapeError("contraction must be a square real matrix")
    if not np.all(np.isfinite(t)):
        raise PreconditionError("contraction entries must be finite")
    if max_abs(t - t.T) > tol:
        raise PreconditionError("contraction must be symmetric")
    # halved before the sum, so no finite entry overflows into a NaN norm
    t = t / 2 + t.T / 2
    if not np.max(np.abs(np.linalg.eigvalsh(t))) <= 1.0 + tol:
        raise PreconditionError("matrix norm exceeds 1; not a contraction")
    if window < 1:
        raise PreconditionError("window must be >= 1")
    m = t.shape[0]
    if (2 * window + 1) * m > config.dim_cap():
        raise SizeError(f"window space dimension {(2 * window + 1) * m} exceeds dimension cap")
    d = hermitian_sqrt(np.eye(m) - t @ t).real
    slots = 2 * window + 1

    def blk(slot: int) -> slice:
        pos = slot + window
        return slice(pos * m, (pos + 1) * m)

    u = np.zeros((slots * m, slots * m))
    for s in range(-window, window + 1):
        if s in (-1, 0):
            continue
        target = s + 1 if s < window else -window
        u[blk(target), blk(s)] = np.eye(m)
    u[blk(0), blk(0)] = t
    u[blk(0), blk(-1)] = d
    u[blk(1), blk(0)] = d
    u[blk(1), blk(-1)] = -t

    embed = np.zeros((slots * m, m))
    embed[blk(0)] = np.eye(m)
    return SchafferDilation(base_dim=m, contraction=t, defect=d,
                            window=window, unitary=u, embed=embed)


def _span_projection(dil: SchafferDilation, n: int, length: int) -> np.ndarray:
    """Orthogonal projection onto span{U^l(base): n <= l <= n+length}."""
    stacked = np.hstack(dil.orbit(n + length + 1)[n:])
    q, s, _ = np.linalg.svd(stacked, full_matrices=False)
    keep = s > config.TOL_RANK * s[0]
    q = q[:, keep]
    return q @ q.T


def verify_ppnp(dil: SchafferDilation, n: int, length: int | None = None) -> float:
    """Residual of P P_n P = T^(2n) on the base space, with P_n the projection
    onto the span of U^l(base) for n <= l <= n+length."""
    if length is None:
        length = 2 * dil.window - n
    if n < 0 or length < n or n + length > 2 * dil.window:
        raise PreconditionError("window too small for the requested span")
    p_n = _span_projection(dil, n, length)
    compressed = dil.embed.T @ p_n @ dil.embed
    return frobenius(compressed - np.linalg.matrix_power(dil.contraction, 2 * n))


def verify_rota_secondquant(dil: SchafferDilation, steps: int) -> list[float]:
    """Second-quantized form of the Rota identity through the shifted
    dilation, the residuals of levels n = 1..steps.

    With Ehat, E_n the second quantizations of the projections P, P_n and J
    the Fock inclusion of the base space into the window space, compares
    Ehat(E_n(J(x))) against J(Gamma(T)^(2n) x) over the field monomials x.
    On field polynomials Gamma(s) is the exterior map of s on vacuum vectors,
    and a -> a Omega is isometric in max-abs, so both sides act on the
    identity stack of coefficients.  The inclusion E of slot 0 keeps the mode
    order and E E^T is the coordinate projection onto slot 0, so
    Lambda(E E^T) Lambda(P_n) Lambda(E) is exactly Lambda(P_n E) with the rows
    outside slot 0's wedge vectors set to zero.  Level n applies Gamma(T) 2n
    times, so functoriality is checked rather than assumed.
    """
    m, window = dil.base_dim, dil.window
    total = m * (2 * window + 1)
    if total > config.FERMION_RANK_CAP:
        raise SizeError(f"window space rank {total} exceeds fermion cap {config.FERMION_RANK_CAP}")
    if not 0 <= steps <= window:
        raise PreconditionError("need 0 <= steps <= window")
    include = exterior_map(dil.embed)
    outside = ~include.any(axis=1)
    gamma_t = exterior_map(dil.contraction)
    rhs = np.eye(1 << m)
    residuals = []
    for n in range(1, steps + 1):
        rhs = gamma_t @ (gamma_t @ rhs)
        lhs = exterior_map(_span_projection(dil, n, 2 * window - n) @ dil.embed)
        lhs[outside] = 0.0
        residuals.append(max_abs(lhs - include @ rhs))
    return residuals


def _vacuum_pairing(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[i, j] = tau(x_i y_j) for the field polynomials with coefficient columns
    a[:, i] and b[:, j]: tau(gamma_S gamma_T) is the reversal sign of S when
    S = T, else 0."""
    popcount = np.bitwise_count(np.arange(a.shape[0]))
    return a.T @ (_reversal_sign(popcount)[:, None] * b)


def verify_gamma_factorization(dil: SchafferDilation) -> float:
    """Residual of tau(Gamma(T)(x) y) = tau~(pi(x) rho(y)) over field monomials,
    with pi the Fock inclusion into the doubled space and rho = Gamma(U*) o pi
    for the one-step symmetry dilation U of the dilation's T and D, each an
    exterior map on coefficients."""
    t, m = dil.contraction, dil.base_dim
    if m > 2:
        raise SizeError("doubled factorization check limited to base dim <= 2")
    u = halmos_block(t, dil.defect)
    pi = exterior_map(np.vstack([np.eye(m), np.zeros((m, m))]))
    rho = exterior_map(u.T) @ pi
    lhs = _vacuum_pairing(exterior_map(t), np.eye(1 << m))
    return max_abs(lhs - _vacuum_pairing(pi, rho))
