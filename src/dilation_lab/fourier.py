"""Dilation of positive-definite multipliers on finite group algebras.

A real function t on a finite group G with t_e = 1, t_g = t_{g^-1}, and
(t_{g^-1 h}) PSD defines the multiplier lambda(g) -> t_g lambda(g) on the
group algebra.  Factor the Gram matrix (t_{g^-1 h}), let G act on the
embedding rows by left translation, and represent the fermion algebra over
the embedding space together with the translation unitaries on
l2(G) (x) Fock.  The symmetry W built from the field at the identity row
then dilates the multiplier: phi~(Lam(g) W Lam(h) W) = delta_{gh,e} t_g.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import config
from .dilation import DilationBundle, _field_coefficients, _unit_pairing
from .errors import PreconditionError, ShapeError, SizeError
from .fock import _jordan_wigner, _require_bytes, build_fermion_rep, exterior_map
from .matcore import max_abs, rng
from .schur import SchurSymbol, build_gram_space, certify_symbol, require_symbol
from .states import DiagonalState

__all__ = [
    "FiniteGroup",
    "cyclic_group",
    "dihedral_group",
    "symmetric_group",
    "FourierSymbol",
    "random_posdef_symbol",
    "build_group_algebra",
    "gram_matrix",
    "schur_symbol_matrix",
    "certify_posdef",
    "multiplier_apply",
    "CrossedBundle",
    "build_crossed_dilation",
    "verify_fourier_identity",
    "verify_covariance",
]


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Finite group given by its Cayley table (table[g, h] = gh); identity and inverse derived."""

    table: np.ndarray
    identity: int = field(init=False)
    inverse: np.ndarray = field(init=False)

    def __post_init__(self):
        table = np.asarray(self.table, dtype=np.int64)
        if table.ndim != 2 or table.shape[0] != table.shape[1] or table.shape[0] == 0:
            raise ShapeError("Cayley table must be square and nonempty")
        m = table.shape[0]
        _require_order(m)
        idx = np.arange(m)
        if np.any(table < 0) or np.any(table >= m):
            raise PreconditionError("Cayley table entries out of range")
        if np.any(np.sort(table, axis=1) != idx) or np.any(np.sort(table, axis=0) != idx[:, None]):
            raise PreconditionError("Cayley table is not a Latin square")
        if np.any(table[table] != table[:, table]):
            raise PreconditionError("Cayley table is not associative")
        hits = [g for g in range(m) if np.array_equal(table[g], idx)]
        if not hits or not np.array_equal(table[:, hits[0]], idx):
            raise PreconditionError("Cayley table has no identity element")
        ident = hits[0]
        inverse = np.argmax(table == ident, axis=1)
        if np.any(table[idx, inverse] != ident):
            raise PreconditionError("Cayley table has no inverses")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "identity", ident)
        object.__setattr__(self, "inverse", inverse)

    @property
    def order(self) -> int:
        return self.table.shape[0]

    def mul(self, g: int, h: int) -> int:
        return int(self.table[g, h])

    def inv(self, g: int) -> int:
        return int(self.inverse[g])


def _require_order(m: int) -> None:
    """Refuse a group of order m over the cap, before any table is built."""
    if m > config.GROUP_ORDER_CAP:
        raise SizeError(f"group order {m} exceeds cap {config.GROUP_ORDER_CAP}")


def cyclic_group(m: int) -> FiniteGroup:
    if m < 1:
        raise PreconditionError("cyclic group order must be >= 1")
    _require_order(m)
    idx = np.arange(m)
    return FiniteGroup((idx[:, None] + idx[None, :]) % m)


def dihedral_group(k: int) -> FiniteGroup:
    """Dihedral group of order 2k; element r + k*s for rotation r, flip s."""
    if k < 1:
        raise PreconditionError("dihedral parameter must be >= 1")
    m = 2 * k
    _require_order(m)
    table = np.empty((m, m), dtype=np.int64)
    for g in range(m):
        r1, s1 = g % k, g // k
        for h in range(m):
            r2, s2 = h % k, h // k
            r = (r1 - r2) % k if s1 else (r1 + r2) % k
            table[g, h] = r + k * (s1 ^ s2)
    return FiniteGroup(table)


def symmetric_group(n: int) -> FiniteGroup:
    """Permutations of n letters in lexicographic order; identity is index 0."""
    _require_order(math.factorial(n))
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    m = len(perms)
    table = np.empty((m, m), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[q[x]] for x in range(n))]
    return FiniteGroup(table)


@dataclass(frozen=True, eq=False)
class FourierSymbol:
    """Real coefficients t_g defining lambda(g) -> t_g lambda(g)."""

    group: FiniteGroup
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ShapeError(f"coefficients must be a 1-D array, got shape {values.shape}")
        if values.size != self.group.order:
            raise ShapeError("need one coefficient per group element")
        if not np.all(np.isfinite(values)):
            raise PreconditionError("coefficients must be finite")
        object.__setattr__(self, "values", values)


def random_posdef_symbol(group: FiniteGroup, gen=None) -> FourierSymbol:
    """Autocorrelation t_g = <lambda(g)u, u>/<u, u> of a random real vector."""
    gen = gen if gen is not None else rng(None)
    u = gen.standard_normal(group.order) + 0.1
    values = np.array([u[group.table[g]] @ u for g in range(group.order)]) / (u @ u)
    return FourierSymbol(group, values)


def build_group_algebra(group: FiniteGroup) -> np.ndarray:
    """Stack of left-regular permutation matrices, lam[g] delta_h = delta_{gh}."""
    m = group.order
    lam = np.zeros((m, m, m), dtype=complex)
    lam[np.arange(m)[:, None], group.table, np.arange(m)[None, :]] = 1.0
    return lam


def gram_matrix(symbol: FourierSymbol) -> np.ndarray:
    """Matrix (t_{g^-1 h})_{g,h}; PSD exactly when t is positive definite."""
    return symbol.values[symbol.group.table[symbol.group.inverse]]


def schur_symbol_matrix(symbol: FourierSymbol) -> np.ndarray:
    """Entrywise symbol (t_{g h^-1})_{g,h} whose Schur multiplier restricts to
    lambda(g) -> t_g lambda(g) on the group algebra."""
    return symbol.values[symbol.group.table[:, symbol.group.inverse]]


def certify_posdef(symbol: FourierSymbol, tol: float = config.TOL_NUM) -> dict[str, float]:
    """certify_symbol residuals of the Gram matrix (t_{g^-1 h})."""
    return certify_symbol(SchurSymbol(gram_matrix(symbol)), tol=tol)


def multiplier_apply(symbol: FourierSymbol, x: np.ndarray,
                     tol: float = config.TOL_NUM) -> np.ndarray:
    """lambda(g) -> t_g lambda(g) on x; error if x is off the group algebra span."""
    group = symbol.group
    lam = build_group_algebra(group)
    x = np.asarray(x, dtype=complex)
    if x.shape != (group.order, group.order):
        raise ShapeError("element does not act on l2 of the group")
    coeffs = x[:, group.identity]
    if max_abs(np.tensordot(coeffs, lam, axes=1) - x) > tol:
        raise PreconditionError("element is not in the group algebra span")
    return np.tensordot(symbol.values * coeffs, lam, axes=1)


def _translation_action(embedding: np.ndarray, group: FiniteGroup) -> np.ndarray:
    """Orthogonal matrices O_g with O_g (row h) = row gh, stacked over g.

    The embedding columns are orthogonal, with norms sqrt(eigenvalue), so
    the embedding over its column norms is an orthonormal basis B of the
    Gram range.  Left invariance of t makes the row permutation h -> gh
    leave that range invariant, and O_g = (B^T B[gh])^T is its orthogonal
    matrix in the basis B.  No system is solved against the Gram's
    eigenvalues, so O_g stays orthogonal however small they are.
    """
    basis = embedding / np.linalg.norm(embedding, axis=0)
    return np.swapaxes(basis[group.table], 1, 2) @ basis


@dataclass(frozen=True, kw_only=True, eq=False)
class CrossedBundle(DilationBundle):
    """Dilation bundle of a group multiplier with its crossed-product data.

    lam stacks the left-regular unitaries lambda(g), actions the orthogonal
    translations O_g of the embedding rows.
    """

    symbol: FourierSymbol
    lam: np.ndarray
    actions: np.ndarray


def _require_crossed(bundle: DilationBundle) -> None:
    if not isinstance(bundle, CrossedBundle):
        raise PreconditionError("bundle was not built from group coefficients")


def build_crossed_dilation(symbol: FourierSymbol,
                           tol: float = config.TOL_NUM) -> CrossedBundle:
    """Dilation bundle for the multiplier of a certified positive-definite t.

    Block u is the field w(O_(u^-1) v_e) of the translated identity row, the
    covariant copy of w(v_e) that verify_covariance checks.  Its legs
    x (x) 1 and d (x (x) 1) d act on all of M_m, m the group order, and with
    the tracial state they dilate the Schur multiplier of the symbol
    (t_{g h^-1}); on the group algebra that multiplier is
    lambda(g) -> t_g lambda(g) (transference).
    """
    gram = SchurSymbol(gram_matrix(symbol))
    require_symbol(gram, tol, "coefficients")
    group = symbol.group
    space = build_gram_space(gram, tol)
    rep = build_fermion_rep(space)
    actions = _translation_action(space.embedding, group)
    rows = actions[group.inverse] @ space.embedding[group.identity]
    return CrossedBundle(input_state=DiagonalState.tracial(group.order),
                         fiber_state=DiagonalState.tracial(rep.dim),
                         coefficients=_field_coefficients(rows), fibers=(rep.dim,),
                         gram=space, rep=rep, symbol=symbol,
                         lam=build_group_algebra(group), actions=actions)


def verify_fourier_identity(bundle: CrossedBundle, symbol: FourierSymbol,
                            samples: int = 20, seed: int | None = None) -> float:
    """Max residual of phi~(pi(lambda(g)) rho(lambda(h))) = delta_{gh,e} t_g,
    over all group pairs and random span combinations.

    The pairing table is read from the unit-pairing table P[i, j] =
    phi~(pi(e_ij) rho(e_ji)) of the bundle's vacuum columns (see
    dilation._unit_pairing).  lambda(g) is the sum of the units e_(gu, u), and
    phi~(pi(e_ij) rho(e_kl)) vanishes unless (k, l) = (j, i), so entry (g, h)
    is exactly 0 unless h = g^-1, and entry (g, g^-1) is sum_u P[gu, u].
    Neither leg is called and no block product is formed.

    A sample pairs x = sum_g a_g pi(lambda(g)) with y = sum_h b_h rho(lambda(h)),
    so phi~(x y) - sum_g a_g b_{g^-1} t_g is a (table - E) b for the pairing
    table and E[g, h] = delta_{gh,e} t_g: one m x m product per sample, and
    no combination of ambient images is formed.  Samples over
    config.BYTE_CAP are refused before any is drawn.
    """
    _require_crossed(bundle)
    group, t = symbol.group, symbol.values
    m = group.order
    _require_bytes(f"a sample stack of {samples} pairs of {m} coefficients", samples * m)
    pairing = _unit_pairing(bundle.vacuum, bundle.vacuum.pi, bundle.vacuum.rho)
    defect = np.zeros((m, m), dtype=complex)
    defect[np.arange(m), group.inverse] = pairing[group.table, np.arange(m)].sum(axis=1) - t
    # the same draws as one (a, b) pair per sample, in that order
    draws = rng(seed).standard_normal((samples, 2, m))
    return max(max_abs(defect),
               max_abs(np.sum((draws[:, 0] @ defect) * draws[:, 1], axis=1)))


def verify_covariance(bundle: CrossedBundle) -> dict[str, float]:
    """Residuals of the translation action: orthogonality of each O_g,
    O_g O_h = O_{gh}, and Lam(g) copy(h) Lam(g)* = copy(gh) for the copy of
    w(v_h) with block u = R_(u^-1) w(v_h) R_(u^-1)^T, R_g = exterior_map(O_g).

    Each of orthogonal, action_homomorphism and the lifts R_g is one call on
    the stack of O_g.  field_covariance is the larger residual of two identities that give it:
    R_g w(e_k) = w(O_g e_k) R_g for every basis vector e_k makes block u of
    copy(h) w(O_(u^-1) v_h) (the bundle's block u at h = e), and with
    O_g v_h = v_gh that is w(v_(u^-1 h)), which Lam(g) moves to block gu.
    w(e_k) is a signed permutation, so R_g w(e_k) permutes the columns of
    R_g and w(e_j) R_g its rows: r f^2 per (g, k), and no f x f product, one
    g at a time so that the (r, f, f) temporaries stay in cache.
    """
    _require_crossed(bundle)
    group = bundle.symbol.group
    actions, rows = bundle.actions, bundle.gram.embedding
    rank = actions.shape[1]
    bit, _, sign = _jordan_wigner(rank)
    # w(e_k) sends e_U to sign[k, U] e_(U ^ 2^k), and sign[k] is even under that flip
    flips, sign = np.arange(1 << rank) ^ bit, sign[:-1]

    ortho = max_abs(np.swapaxes(actions, 1, 2) @ actions - np.eye(rank))
    homo = max_abs(actions[:, None] @ actions[None] - actions[group.table])
    # [g, h] holds O_g v_h against v_gh
    cov = max_abs(rows @ np.swapaxes(actions, 1, 2) - rows[group.table])
    for action, lift in zip(actions, exterior_map(actions)):
        after = np.moveaxis(lift[:, flips], 1, 0) * sign[:, None, :]  # R_g w(e_k)
        before = lift[flips] * sign[:, :, None]  # w(e_j) R_g
        cov = max(cov, max_abs(after - np.tensordot(action, before, axes=(0, 0))))
    return {"orthogonal": ortho, "action_homomorphism": homo,
            "field_covariance": cov}
