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
E and a partial trace.

All identities are local in the chain, so truncation at depth N is exact for
indices <= N.  The same module carries the shifted unitary dilation of a
symmetric contraction (exactly unitary on a cyclic window, strong dilation
identity up to the wrap horizon) and its second-quantized counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .errors import PreconditionError, ShapeError, SizeError
from .fock import FermionRep, build_fermion_rep, second_quantize
from .matcore import as_square, frobenius, hermitian_sqrt, matrix_units, max_abs
from .schur import GramSpace, SchurSymbol, build_gram_space, certify_symbol
from .states import DiagonalState, MarkovMap

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
    """Truncated chain M_n (x) A^(x)depth with its product state."""

    symbol: SchurSymbol
    state: DiagonalState
    depth: int
    gram: GramSpace
    rep: FermionRep

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
        return ChainSpace(self.symbol, self.state, depth, self.gram, self.rep)


_ENTRY_BYTES = np.dtype(complex).itemsize


def _planned_bytes(n: int, leg: int, depth: int) -> int:
    """Size that decides whether a rota run over this chain is admitted: the
    shift check's source matrix units (one leg shallower; other batched work is
    cut into chunks of config.CHUNK_BYTES), or the generator stack and basis of
    a numerical closure of the chain algebras, which is no longer built.  The
    closure terms stay because the cap is also the only bound on run time:
    without them, shapes such as 4x4 rank 4 depth 2 would be admitted, and
    their shift check runs for minutes."""
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
    return ChainSpace(symbol, state, depth, gram, rep)


def _pair_powers(chain: ChainSpace, q: int) -> np.ndarray:
    """(w_i w_j)^(x)q on the first q legs, shape (n, n, leg^q, leg^q)."""
    n = chain.input_dim
    omegas = np.stack([chain.rep.generator_omega(i) for i in range(n)])
    pairs = np.einsum("iab,jbc->ijac", omegas, omegas)
    powers = np.ones((n, n, 1, 1), dtype=complex)
    for _ in range(q):
        side = powers.shape[-1] * chain.leg_dim
        powers = np.einsum("ijab,ijcd->ijacbd", powers, pairs).reshape(n, n, side, side)
    return powers


def embed_J(chain: ChainSpace, q: int):
    """Copy of the input algebra using the first q legs, as a callable."""
    if not 0 <= q <= chain.depth:
        raise PreconditionError("embedding index out of range")
    powers = _pair_powers(chain, q)
    rest = np.eye(chain.tail_dim // powers.shape[-1], dtype=complex)
    n, dim = chain.input_dim, chain.ambient_dim

    def embed(x: np.ndarray) -> np.ndarray:
        x = as_square(x, "chain input")
        if x.shape[0] != n:
            raise ShapeError("element dimension does not match the chain input")
        blocks = np.einsum("ij,ijab,rs->iarjbs", x, powers, rest)
        return blocks.reshape(dim, dim)

    return embed


def build_beta(chain: ChainSpace, x: np.ndarray) -> np.ndarray:
    """Shift one slot deeper and conjugate by the slot-1 symmetry.

    x is an element of the chain truncated at depth-1 (a plain input-algebra
    element when depth is 1); the result lives in `chain`.  Accepts stacks
    with leading batch axes.
    """
    n = chain.input_dim
    sub_tail = chain.tail_dim // chain.leg_dim
    sub_dim = n * sub_tail
    x = np.asarray(x, dtype=complex)
    if x.ndim < 2 or x.shape[-1] != sub_dim or x.shape[-2] != sub_dim:
        raise ShapeError("element does not live one level below the chain")
    lead = x.shape[:-2]
    xr = x.reshape(*lead, n, sub_tail, n, sub_tail)
    # d_1 = sum_i e_ii (x) w_i (x) I is block diagonal, so block (i, j) of
    # d_1 (I_leg (x) x) d_1 is (w_i (x) x_ij)(w_j (x) I) = (w_i w_j) (x) x_ij
    out = np.einsum("ijce,...iajb->...icajeb", _pair_powers(chain, 1), xr)
    return out.reshape(*lead, chain.ambient_dim, chain.ambient_dim)


def _beta_power(chain: ChainSpace, x: np.ndarray, power: int) -> np.ndarray:
    out = x
    for step in range(power):
        target_depth = chain.depth - power + 1 + step
        out = build_beta(chain.shallower(target_depth), out)
    return out


def _project_even(basis: np.ndarray, y: np.ndarray, slots: int) -> np.ndarray:
    """Projection onto E on each leg of y, shape (batch, n, leg^slots, n,
    leg^slots), through E's trace-orthonormal monomials (no leg^2 x leg^2
    projector).  The chain contracts with einsum loops, not BLAS: a
    multithreaded GEMM leaves OpenBLAS workers spinning for about 0.1 s of CPU
    after it returns, which on two cores slows whatever runs next."""
    n, leg = y.shape[1], basis.shape[-1]
    for s in range(slots):
        outer, inner = leg ** s, leg ** (slots - s - 1)
        parts = y.reshape(-1, n, outer, leg, inner, n, outer, leg, inner)
        coeffs = np.einsum("xioapjsbt,kab->xiopjstk", parts, basis.conj())
        y = np.einsum("xiopjstk,kab->xioapjsbt", coeffs, basis).reshape(y.shape) / leg
    return y


def expectations(chain: ChainSpace, n: int):
    """(past, future) state-preserving expectations at level n onto the
    algebras of J_0..J_n and of J_n..J_depth, for a matrix or a stack.

    The past traces out legs n+1..depth and projects legs 1..n onto E.  The
    future strips (w_i w_k)^(x)n from block (i, k) by the partial trace over
    legs 1..n, projects the other legs onto E and puts the factor back.
    """
    if not 0 <= n <= chain.depth:
        raise PreconditionError("expectation level out of range")
    size, dim, lower = chain.input_dim, chain.ambient_dim, chain.leg_dim ** n
    upper = chain.tail_dim // lower
    prods = chain.rep.omega_products()
    basis = np.stack([p for mask, p in enumerate(prods) if mask.bit_count() % 2 == 0])
    powers = _pair_powers(chain, n)

    def expect(x, blockwise) -> np.ndarray:
        xa = np.asarray(x, dtype=complex)
        if xa.ndim < 2 or xa.shape[-2:] != (dim, dim):
            raise ShapeError(f"chain expectation needs {dim} x {dim} matrices")
        return blockwise(xa.reshape(-1, size, lower, upper, size, lower, upper)).reshape(xa.shape)

    def past(t):
        y = _project_even(basis, np.einsum("niarjbr->niajb", t) / upper, n)
        return np.einsum("niajb,rs->niarjbs", y, np.eye(upper))

    def future(t):
        y = np.einsum("niarkbs,ikab->nirks", t, powers.conj()) / lower
        return np.einsum("ikab,nirks->niarkbs", powers, _project_even(basis, y, chain.depth - n))

    return (lambda x: expect(x, past)), (lambda x: expect(x, future))


def verify_embedding(chain: ChainSpace, q: int) -> dict[str, float]:
    """Residuals showing J_q is a unital state-preserving *-homomorphism."""
    j = embed_J(chain, q)
    n = chain.input_dim
    units = matrix_units(n)
    images = np.stack([j(u) for u in units])
    unital = max_abs(j(np.eye(n)) - np.eye(chain.ambient_dim))
    star = max(max_abs(j(u.conj().T) - img.conj().T)
               for u, img in zip(units, images))
    phi_in = chain.state
    phi_out = chain.ambient_state
    state = max(abs(phi_in(u) - phi_out(img)) for u, img in zip(units, images))
    mult = 0.0
    for a, u in enumerate(units):
        for b, v in enumerate(units):
            mult = max(mult, max_abs(images[a] @ images[b] - j(u @ v)))
    return {"unital": unital, "multiplicative": mult, "star": star,
            "state_preserving": state}


def verify_markov_property(chain: ChainSpace, n: int, q: int) -> dict[str, float]:
    """Residuals of the three chain identities at levels (n, q), n <= q:

      past:   E_{n]}(J_q(x)) = J_n(T^(q-n) x)   entrywise symbol power
      future: E_{[n}(J_0(x)) = J_n(T^n x)
      shift:  E_{q]}(beta^(q-n)(x)) = beta^(q-n)(E_{n]}(x)) on the smaller chain

    checked on matrix-unit bases; the shift residual is 0 by construction
    when q = n.
    """
    if not 0 <= n <= q <= chain.depth:
        raise PreconditionError("need 0 <= n <= q <= depth")
    units = matrix_units(chain.input_dim)
    past_n, future_n = expectations(chain, n)
    j_q, j_n, j_0 = embed_J(chain, q), embed_J(chain, n), embed_J(chain, 0)

    t_step = chain.symbol.matrix ** (q - n)
    t_level = chain.symbol.matrix ** n
    past = max(max_abs(past_n(j_q(u)) - j_n(t_step * u)) for u in units)
    future = max(max_abs(future_n(j_0(u)) - j_n(t_level * u)) for u in units)

    power = q - n
    shift = 0.0
    if power > 0:
        src_depth = chain.depth - power
        src_dim = chain.input_dim * chain.leg_dim ** src_depth
        src_units = matrix_units(src_dim)
        past_q = expectations(chain, q)[0]
        if src_depth >= 1:
            src_past = expectations(chain.shallower(src_depth), n)[0]
        else:
            src_past = lambda x: x  # depth-0 chain: the past at level 0 is everything
        chunk = max(1, config.CHUNK_BYTES // (_ENTRY_BYTES * chain.ambient_dim ** 2))
        for start in range(0, src_units.shape[0], chunk):
            batch = src_units[start : start + chunk]
            lifted = _beta_power(chain, batch, power)
            lhs = past_q(lifted)
            rhs = _beta_power(chain, src_past(batch), power)
            shift = max(shift, max_abs(lhs - rhs))
    return {"past": past, "future": future, "shift": shift}


def verify_rota(chain: ChainSpace, n: int) -> float:
    """Residual of J_0(T^(2n) x) = E_{0]}(E_{[n}(J_0(x))) on matrix units."""
    if not 1 <= n <= chain.depth:
        raise PreconditionError("need 1 <= n <= depth")
    units = matrix_units(chain.input_dim)
    past_0 = expectations(chain, 0)[0]
    future_n = expectations(chain, n)[1]
    j_0 = embed_J(chain, 0)
    t_pow = chain.symbol.matrix ** (2 * n)
    return max(max_abs(past_0(future_n(j_0(u))) - j_0(t_pow * u))
               for u in units)


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
    cols = [np.linalg.matrix_power(dil.unitary, l) @ dil.embed
            for l in range(n, n + length + 1)]
    stacked = np.hstack(cols)
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
    """
    t = _check_symmetric_contraction(t, config.TOL_NUM)
    m = t.shape[0]
    total = m * (2 * window + 1)
    if total > config.FERMION_RANK_CAP:
        raise SizeError(f"window space rank {total} exceeds fermion cap")
    if n < 0 or 2 * n > 2 * window:
        raise PreconditionError("need 0 <= n <= window")
    dil = build_schaffer(t, window)
    rep_base = build_fermion_rep(GramSpace.standard(m))
    rep_win = build_fermion_rep(GramSpace.standard(total))

    # composed right to left, so only one window-space superoperator is alive
    # and no product of two of them is formed
    inclusion = second_quantize(rep_base, rep_win, dil.embed)
    p_n = _span_projection(dil, n, 2 * window - n)
    lhs = second_quantize(rep_win, rep_win, p_n).compose(inclusion)
    lhs = second_quantize(rep_win, rep_win, dil.embed @ dil.embed.T).compose(lhs)
    gamma_t = second_quantize(rep_base, rep_base, t)

    power = MarkovMap.identity(rep_base.dim)
    for _ in range(2 * n):
        power = gamma_t.compose(power)
    rhs = inclusion.compose(power)
    return max(max_abs(lhs(x) - rhs(x)) for x in rep_base.omega_products())


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
    rep_base = build_fermion_rep(GramSpace.standard(m))
    rep_double = build_fermion_rep(GramSpace.standard(2 * m))

    iota = np.vstack([np.eye(m), np.zeros((m, m))])
    pi = second_quantize(rep_base, rep_double, iota)
    rho = second_quantize(rep_double, rep_double, u.T).compose(pi)
    gamma_t = second_quantize(rep_base, rep_base, t)

    basis = rep_base.omega_products()
    worst = 0.0
    for x in basis:
        gx = gamma_t(x)
        px = pi(x)
        for y in basis:
            lhs = np.trace(gx @ y) / rep_base.dim
            rhs = np.trace(px @ rho(y)) / rep_double.dim
            worst = max(worst, abs(lhs - rhs))
    return float(worst)
