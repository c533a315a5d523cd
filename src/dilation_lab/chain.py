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

All identities are local in the chain, so truncation at depth N is exact for
indices <= N.  The same module carries the shifted unitary dilation of a
symmetric contraction (exactly unitary on a cyclic window, strong dilation
identity up to the wrap horizon) and its second-quantized counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import config
from .condexp import ConditionalExpectation, word_closure
from .errors import PreconditionError, ShapeError, SizeError
from .fock import FermionRep, build_fermion_rep, second_quantize
from .matcore import as_square, frobenius, hermitian_sqrt, max_abs
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
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

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
        if "state" not in self._cache:
            weights = np.repeat(self.state.weights, self.tail_dim) / self.tail_dim
            self._cache["state"] = DiagonalState(weights)
        return self._cache["state"]

    def shallower(self, depth: int) -> "ChainSpace":
        """Chain over the same data truncated at a smaller depth >= 1."""
        if depth == self.depth:
            return self
        if not 1 <= depth < self.depth:
            raise PreconditionError("shallower depth out of range")
        key = ("sub", depth)
        if key not in self._cache:
            self._cache[key] = ChainSpace(self.symbol, self.state, depth,
                                          self.gram, self.rep)
        return self._cache[key]


_ENTRY_BYTES = np.dtype(complex).itemsize


def _closure_bound(n: int, leg: int, depth: int) -> int:
    """Upper bound on the size of any chain algebra over M_n (x) A^(x)depth.

    Its elements are sums of e_ij (x) x_1 (x) ... (x) x_depth with each x_l an
    even word in the n fields, which span at most 2^(n-1) dimensions and lie in
    the even part of M_leg (leg^2 / 2 dimensions).
    """
    return n * n * min(2 ** (n - 1), leg * leg // 2) ** depth


def _planned_bytes(n: int, leg: int, depth: int) -> int:
    """Bytes of the largest array a rota run over this chain allocates.

    The candidates are the matrix units of the shift check's source chain
    (one leg shallower), the closure's stack of generators and adjoints, and
    the closure basis itself; batched work beyond these is cut into chunks of
    config.CHUNK_BYTES.
    """
    dim = n * leg ** depth
    src_dim = dim // leg
    seed = 2 * (depth + 1) * n * n + 1
    return _ENTRY_BYTES * max(src_dim ** 4, seed * dim * dim,
                              _closure_bound(n, leg, depth) * dim * dim)


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
        raise SizeError(f"chain at depth {depth} would allocate a {planned} byte array, "
                        f"over the {config.BYTE_CAP} byte cap")
    return ChainSpace(symbol, state, depth, gram, rep)


def _matrix_units(dim: int) -> np.ndarray:
    return np.eye(dim * dim, dtype=complex).reshape(dim * dim, dim, dim)


def _leg_images(chain: ChainSpace, q: int) -> np.ndarray:
    """Per-(i,j) tail factors (w_i w_j)^(x)q (x) I, shape (n, n, tail, tail)."""
    key = ("J", q)
    if key not in chain._cache:
        n, leg = chain.input_dim, chain.leg_dim
        omegas = [chain.rep.generator_omega(i) for i in range(n)]
        rest = np.eye(leg ** (chain.depth - q), dtype=complex)
        images = np.empty((n, n, chain.tail_dim, chain.tail_dim), dtype=complex)
        for i in range(n):
            for j in range(n):
                pair = omegas[i] @ omegas[j]
                block = np.eye(1, dtype=complex)
                for _ in range(q):
                    block = np.kron(block, pair)
                images[i, j] = np.kron(block, rest)
        chain._cache[key] = images
    return chain._cache[key]


def embed_J(chain: ChainSpace, q: int):
    """Copy of the input algebra using the first q legs, as a callable."""
    if not 0 <= q <= chain.depth:
        raise PreconditionError("embedding index out of range")
    images = _leg_images(chain, q)
    n, dim = chain.input_dim, chain.ambient_dim

    def embed(x: np.ndarray) -> np.ndarray:
        x = as_square(x, "chain input")
        if x.shape[0] != n:
            raise ShapeError("element dimension does not match the chain input")
        blocks = x[:, :, None, None] * images
        return blocks.transpose(0, 2, 1, 3).reshape(dim, dim)

    return embed


def build_beta(chain: ChainSpace, x: np.ndarray) -> np.ndarray:
    """Shift one slot deeper and conjugate by the slot-1 symmetry.

    x is an element of the chain truncated at depth-1 (a plain input-algebra
    element when depth is 1); the result lives in `chain`.  Accepts stacks
    with leading batch axes.
    """
    n, leg = chain.input_dim, chain.leg_dim
    sub_tail = chain.tail_dim // leg
    sub_dim = n * sub_tail
    x = np.asarray(x, dtype=complex)
    if x.ndim < 2 or x.shape[-1] != sub_dim or x.shape[-2] != sub_dim:
        raise ShapeError("element does not live one level below the chain")
    lead = x.shape[:-2]
    xr = x.reshape(*lead, n, sub_tail, n, sub_tail)
    # d_1 = sum_i e_ii (x) w_i (x) I is block diagonal, so block (i, j) of
    # d_1 (I_leg (x) x) d_1 is (w_i (x) x_ij)(w_j (x) I): the entries
    # w_i[c, d] x_ij[a, b], then w_j contracted on the leg index d
    omegas = np.stack([chain.rep.generator_omega(i) for i in range(n)])
    out = np.empty((*lead, n, leg, sub_tail, n, leg, sub_tail), dtype=complex)
    for j in range(n):
        left = omegas[:, :, None, None, :] * xr[..., :, None, :, j, :, None]
        right = (left.reshape(-1, leg) @ omegas[j]).reshape(left.shape)  # [..., i, c, a, b, e]
        out[..., j, :, :] = right.swapaxes(-1, -2)
    return out.reshape(*lead, chain.ambient_dim, chain.ambient_dim)


def _beta_power(chain: ChainSpace, x: np.ndarray, power: int) -> np.ndarray:
    out = x
    for step in range(power):
        target_depth = chain.depth - power + 1 + step
        out = build_beta(chain.shallower(target_depth), out)
    return out


def expectations(chain: ChainSpace, n: int):
    """(past, future) expectations at level n: past uses the algebra of the
    embeddings J_0..J_n, future the algebra of J_n..J_depth."""
    if not 0 <= n <= chain.depth:
        raise PreconditionError("expectation level out of range")
    key = ("exp", n)
    if key not in chain._cache:
        units = _matrix_units(chain.input_dim)
        past_gens = [embed_J(chain, q)(u) for q in range(n + 1) for u in units]
        fut_gens = [embed_J(chain, q)(u)
                    for q in range(n, chain.depth + 1) for u in units]
        state = chain.ambient_state
        cap = _closure_bound(chain.input_dim, chain.leg_dim, chain.depth)
        past = ConditionalExpectation(state, word_closure(past_gens, cap))
        future = ConditionalExpectation(state, word_closure(fut_gens, cap))
        chain._cache[key] = (past, future)
    return chain._cache[key]


def verify_embedding(chain: ChainSpace, q: int) -> dict[str, float]:
    """Residuals showing J_q is a unital state-preserving *-homomorphism."""
    j = embed_J(chain, q)
    n = chain.input_dim
    units = _matrix_units(n)
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
    units = _matrix_units(chain.input_dim)
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
        src_units = _matrix_units(src_dim)
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
    units = _matrix_units(chain.input_dim)
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
