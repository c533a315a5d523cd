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
from .fock import FermionRep, build_fermion_rep, majorana_frame, second_quantize_action
from .matcore import dagger, frobenius, hermitian_sqrt, matrix_units, max_abs
from .schur import GramSpace, SchurSymbol, build_gram_space, certify_symbol
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


@dataclass(frozen=True)
class ChainSpace:
    """Truncated chain M_n (x) A^(x)depth with its product state, and two
    arrays build_chain computes once: pairs[i, j] = w_i w_j on one leg and
    even_basis, the even field monomials (a trace-orthogonal basis of E)."""

    symbol: SchurSymbol
    state: DiagonalState
    depth: int
    gram: GramSpace
    rep: FermionRep
    pairs: np.ndarray = field(repr=False)
    even_basis: np.ndarray = field(repr=False)

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
                          self.pairs, self.even_basis)


_ENTRY_BYTES = np.dtype(complex).itemsize


def _planned_bytes(n: int, leg: int, depth: int) -> int:
    """Cost bound that decides whether a rota run over this chain is admitted.

    Its terms are the sizes of arrays that the Markov rows once built: the
    shift check's source matrix units (one leg shallower), and the generator
    stack and basis of a numerical closure of the chain algebras.  Neither is
    built now: the rows work on single blocks, the shift check lifts only the
    source units whose traced legs agree, and batched work is cut into chunks
    of config.CHUNK_BYTES.  The terms stand as a bound on run time, which
    grows with them: without the closure terms, shapes such as 4x4 rank 4
    depth 2 would be admitted, and their shift check runs for minutes."""
    dim = n * leg ** depth
    seed = 2 * (depth + 1) * n * n + 1
    closure = n * n * min(2 ** (n - 1), leg * leg // 2) ** depth
    return _ENTRY_BYTES * max((dim // leg) ** 4, seed * dim * dim, closure * dim * dim)


def build_chain(symbol: SchurSymbol, state: DiagonalState, depth: int) -> ChainSpace:
    certify_symbol(symbol).require()
    if state.dim != symbol.dim:
        raise ShapeError("state dimension does not match symbol")
    if depth < 1:
        raise PreconditionError("chain depth must be >= 1")
    gram = build_gram_space(symbol)
    rep = build_fermion_rep(gram)
    if symbol.dim * rep.dim ** depth > config.dim_cap():
        raise SizeError(
            f"chain dimension {symbol.dim * rep.dim ** depth} exceeds cap")
    planned = _planned_bytes(symbol.dim, rep.dim, depth)
    if planned > config.BYTE_CAP:
        raise SizeError(f"chain at depth {depth} plans {planned} bytes, "
                        f"over the {config.BYTE_CAP} byte cap")
    omegas = np.stack([rep.generator_omega(i) for i in range(symbol.dim)])
    pairs = np.einsum("iab,jbc->ijac", omegas, omegas)
    even_basis = np.stack([p for mask, p in enumerate(rep.omega_products())
                           if mask.bit_count() % 2 == 0])
    return ChainSpace(symbol, state, depth, gram, rep, pairs, even_basis)


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


def _pair_powers(chain: ChainSpace, q: int) -> np.ndarray:
    """(w_i w_j)^(x)q on the first q legs, shape (n, n, leg^q, leg^q)."""
    n = chain.input_dim
    powers = np.ones((n, n, 1, 1), dtype=complex)
    for _ in range(q):
        powers = _lift(powers, chain.pairs)
    return powers


def _embed_blocks(chain: ChainSpace, q: int) -> np.ndarray:
    """Block (i, j) of J_q(e_ij), (w_i w_j)^(x)q (x) 1, at [i, j]."""
    powers = _pair_powers(chain, q)
    return _lift(powers, np.eye(chain.tail_dim // powers.shape[-1], dtype=complex))


def embed_J(chain: ChainSpace, q: int):
    """Copy of the input algebra using the first q legs, as a callable on a
    matrix or a stack."""
    if not 0 <= q <= chain.depth:
        raise PreconditionError("embedding index out of range")
    blocks = _embed_blocks(chain, q)
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


def _project_even(basis: np.ndarray, y: np.ndarray, slots: int) -> np.ndarray:
    """Projection onto E on each leg of a stack y of shape (..., leg^slots,
    leg^slots), through E's trace-orthonormal monomials (no leg^2 x leg^2
    projector).  The chain contracts with einsum loops, not BLAS: a
    multithreaded GEMM leaves OpenBLAS workers spinning for about 0.1 s of CPU
    after it returns, which on two cores slows whatever runs next."""
    leg = basis.shape[-1]
    for s in range(slots):
        outer, inner = leg ** s, leg ** (slots - s - 1)
        parts = y.reshape(-1, outer, leg, inner, outer, leg, inner)
        coeffs = np.einsum("xoapsbt,kab->xopstk", parts, basis.conj())
        y = np.einsum("xopstk,kab->xoapsbt", coeffs, basis).reshape(y.shape)
        y /= leg  # in place: one chunk-sized array fewer at the peak
    return y


def _block_expectations(chain: ChainSpace, n: int):
    """(past, future) expectations at level n on block stacks (..., input,
    input, tail, tail).

    Both act block by block.  The past traces out legs n+1..depth and projects
    legs 1..n onto E, the same on every block, so it takes any stack of
    tail x tail blocks.  The future strips (w_i w_k)^(x)n from block (i, k)
    by the partial trace over legs 1..n, projects the other legs onto E and
    puts the factor back.
    """
    lower = chain.leg_dim ** n
    upper = chain.tail_dim // lower
    powers = _pair_powers(chain, n)

    def legs(blocks):
        return blocks.reshape(*blocks.shape[:-2], lower, upper, lower, upper)

    def past(blocks):
        y = _project_even(chain.even_basis, np.einsum("...arbr->...ab", legs(blocks)) / upper, n)
        return _lift(y, np.eye(upper))

    def future(blocks):
        y = np.einsum("...arbs,...ab->...rs", legs(blocks), powers.conj()) / lower
        return _lift(powers, _project_even(chain.even_basis, y, chain.depth - n))

    return past, future


def expectations(chain: ChainSpace, n: int):
    """(past, future) state-preserving expectations at level n onto the
    algebras of J_0..J_n and of J_n..J_depth, for a matrix or a stack."""
    if not 0 <= n <= chain.depth:
        raise PreconditionError("expectation level out of range")
    size, dim = chain.input_dim, chain.ambient_dim

    def on_matrices(blockwise):
        def expect(x) -> np.ndarray:
            xa = np.asarray(x, dtype=complex)
            if xa.ndim < 2 or xa.shape[-2:] != (dim, dim):
                raise ShapeError(f"chain expectation needs {dim} x {dim} matrices")
            return _from_blocks(blockwise(_to_blocks(xa, size)))
        return expect

    past, future = _block_expectations(chain, n)
    return on_matrices(past), on_matrices(future)


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


def _traced_units(kept: int, traced: int, start: int, stop: int) -> np.ndarray:
    """Matrix units e_{(a, r), (b, r)} of M_kept (x) M_traced, numbers start
    to stop - 1 in (a, b, r) order: the units whose traced factors agree."""
    a, b, r = np.unravel_index(np.arange(start, stop), (kept, kept, traced))
    side = kept * traced
    units = np.zeros((stop - start, side, side), dtype=complex)
    units[np.arange(stop - start), a * traced + r, b * traced + r] = 1
    return units


def verify_markov_property(chain: ChainSpace, n: int, q: int) -> dict[str, float]:
    """Residuals of the three chain identities at levels (n, q), n <= q:

      past:   E_{n]}(J_q(x)) = J_n(T^(q-n) x)   entrywise symbol power
      future: E_{[n}(J_0(x)) = J_n(T^n x)
      shift:  E_{q]}(beta^(q-n)(x)) = beta^(q-n)(E_{n]}(x)) on the smaller chain

    checked on matrix-unit bases; the shift residual is 0 by construction
    when q = n.  J_q(e_ij) sits in block (i, j), and so does beta^p(x) for x
    in block (i, j); both expectations act block by block, so every row works
    on single blocks.  A source unit whose legs n+1..depth-p differ maps to
    exact zero on both sides of the shift identity, so only the units whose
    traced legs agree are lifted.
    """
    if not 0 <= n <= q <= chain.depth:
        raise PreconditionError("need 0 <= n <= q <= depth")
    past_n, future_n = _block_expectations(chain, n)
    j_n = _embed_blocks(chain, n)
    t_step = (chain.symbol.matrix ** (q - n))[:, :, None, None]
    t_level = (chain.symbol.matrix ** n)[:, :, None, None]
    past = max_abs(past_n(_embed_blocks(chain, q)) - t_step * j_n)
    future = max_abs(future_n(_embed_blocks(chain, 0)) - t_level * j_n)

    power = q - n
    shift = 0.0
    if power > 0:
        src_depth = chain.depth - power
        past_q = _block_expectations(chain, q)[0]
        if src_depth >= 1:
            src_past = _block_expectations(chain.shallower(src_depth), n)[0]
        else:
            src_past = lambda x: x  # depth-0 chain: the past at level 0 is everything
        kept, traced = chain.leg_dim ** n, chain.leg_dim ** (src_depth - n)
        count = kept * kept * traced
        # each source unit is lifted into all input^2 blocks at once, and the
        # past at level q holds about 4 such lifted stacks at the same time
        chunk = max(1, config.CHUNK_BYTES // (4 * _ENTRY_BYTES * chain.ambient_dim ** 2))
        for start in range(0, count, chunk):
            units = _traced_units(kept, traced, start, min(start + chunk, count))[:, None, None]
            lhs = past_q(_beta_blocks(chain, units, power))
            rhs = _beta_blocks(chain, src_past(units), power)
            shift = max(shift, max_abs(lhs - rhs))
    return {"past": past, "future": future, "shift": shift}


def verify_rota(chain: ChainSpace, n: int) -> float:
    """Residual of J_0(T^(2n) x) = E_{0]}(E_{[n}(J_0(x))) on matrix units,
    each on its own block."""
    if not 1 <= n <= chain.depth:
        raise PreconditionError("need 1 <= n <= depth")
    past_0 = _block_expectations(chain, 0)[0]
    future_n = _block_expectations(chain, n)[1]
    j_0 = _embed_blocks(chain, 0)
    t_pow = (chain.symbol.matrix ** (2 * n))[:, :, None, None]
    return max_abs(past_0(future_n(j_0)) - t_pow * j_0)


# ---------------------------------------------------------------------------
# Shifted unitary dilation of a symmetric contraction.

@dataclass(frozen=True)
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


def _check_symmetric_contraction(t: np.ndarray, tol: float) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] == 0:
        raise ShapeError("contraction must be a square real matrix")
    if not np.all(np.isfinite(t)):
        raise PreconditionError("contraction entries must be finite")
    if max_abs(t - t.T) > tol:
        raise PreconditionError("contraction must be symmetric")
    if np.max(np.abs(np.linalg.eigvalsh((t + t.T) / 2))) > 1.0 + tol:
        raise PreconditionError("matrix norm exceeds 1; not a contraction")
    return (t + t.T) / 2


def build_schaffer(t: np.ndarray, window: int,
                   tol: float = config.TOL_NUM) -> SchafferDilation:
    """Cyclic-window unitary with P U^k restricted to slot 0 equal to T^k.

    Slots -W..W each carry a copy of the base space.  Away from slots -1, 0
    the unitary shifts s -> s+1 (W wraps to -W); the pair (slot 0, slot -1)
    feeds slots (0, 1) through the symmetry block [[T, D], [D, -T]].  A wave
    started in slot 0 needs 2W steps before wrapping back into slot -1, so
    the dilation identity is exact for k <= 2W.
    """
    t = _check_symmetric_contraction(t, tol)
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


def verify_rota_secondquant(t: np.ndarray, window: int, n: int) -> float:
    """Second-quantized form of the Rota identity through the shifted dilation.

    With Ehat, E_n the second quantizations of the projections P, P_n and J
    the Fock inclusion of the base space into the window space, compares
    Ehat(E_n(J(x))) against J(Gamma(T)^(2n) x) over the field-monomial basis.
    Each map acts on the monomials directly; Gamma(T) is applied 2n times, so
    functoriality is checked rather than assumed.
    """
    t = _check_symmetric_contraction(t, config.TOL_NUM)
    m = t.shape[0]
    total = m * (2 * window + 1)
    if total > config.FERMION_RANK_CAP:
        raise SizeError(f"window space rank {total} exceeds fermion cap")
    if n < 0 or 2 * n > 2 * window:
        raise PreconditionError("need 0 <= n <= window")
    dil = build_schaffer(t, window)
    xs = np.stack(build_fermion_rep(GramSpace.standard(m)).omega_products())
    base, win = majorana_frame(m), majorana_frame(total)

    include = second_quantize_action(base, win, dil.embed)
    p_n = _span_projection(dil, n, 2 * window - n)
    lhs = second_quantize_action(win, win, p_n)(include(xs))
    lhs = second_quantize_action(win, win, dil.embed @ dil.embed.T)(lhs)
    gamma_t = second_quantize_action(base, base, t)
    rhs = xs
    for _ in range(2 * n):
        rhs = gamma_t(rhs)
    return max_abs(lhs - include(rhs))


def verify_gamma_factorization(t: np.ndarray) -> float:
    """Residual of tau(Gamma(T)(x) y) = tau~(pi(x) rho(y)) over field monomials,
    with pi the Fock inclusion into the doubled space and rho = Gamma(U*) o pi
    for the one-step symmetry dilation U."""
    t = _check_symmetric_contraction(t, config.TOL_NUM)
    m = t.shape[0]
    if m > 2:
        raise SizeError("doubled factorization check limited to base dim <= 2")
    d = hermitian_sqrt(np.eye(m) - t @ t).real
    u = halmos_block(t, d)
    basis = np.stack(build_fermion_rep(GramSpace.standard(m)).omega_products())
    base, double = majorana_frame(m), majorana_frame(2 * m)

    iota = np.vstack([np.eye(m), np.zeros((m, m))])
    pi = second_quantize_action(base, double, iota)(basis)
    rho = second_quantize_action(double, double, u.T)(pi)
    gamma_t = second_quantize_action(base, base, t)(basis)

    # [a, b] = tau(g_a y_b), the trace of a product as a sum of entry products
    lhs = np.einsum("aij,bji->ab", gamma_t, basis) / base.dim
    rhs = np.einsum("aij,bji->ab", pi, rho) / double.dim
    return max_abs(lhs - rhs)
