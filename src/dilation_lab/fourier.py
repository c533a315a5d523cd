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
from dataclasses import dataclass, field

import numpy as np

from . import config
from .dilation import DilationBundle
from .errors import PreconditionError, ShapeError, SizeError
from .fock import build_fermion_rep, exterior_map
from .matcore import block_conjugate, direct_sum, max_abs, rng, tensor_product
from .schur import SchurSymbol, SymbolReport, certify_symbol, build_gram_space
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


@dataclass(frozen=True)
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
        if m > config.GROUP_ORDER_CAP:
            raise SizeError(f"group order {m} exceeds cap {config.GROUP_ORDER_CAP}")
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


def cyclic_group(m: int) -> FiniteGroup:
    if m < 1:
        raise PreconditionError("cyclic group order must be >= 1")
    idx = np.arange(m)
    return FiniteGroup((idx[:, None] + idx[None, :]) % m)


def dihedral_group(k: int) -> FiniteGroup:
    """Dihedral group of order 2k; element r + k*s for rotation r, flip s."""
    if k < 1:
        raise PreconditionError("dihedral parameter must be >= 1")
    m = 2 * k
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
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    m = len(perms)
    if m > config.GROUP_ORDER_CAP:
        raise SizeError(f"group order {m} exceeds cap {config.GROUP_ORDER_CAP}")
    table = np.empty((m, m), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[q[x]] for x in range(n))]
    return FiniteGroup(table)


@dataclass(frozen=True)
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


def certify_posdef(symbol: FourierSymbol, tol: float = config.TOL_NUM,
                   tol_psd: float = config.TOL_PSD) -> SymbolReport:
    return certify_symbol(SchurSymbol(gram_matrix(symbol)), tol=tol, tol_psd=tol_psd)


def _coefficients(group: FiniteGroup, x: np.ndarray, lam: np.ndarray,
                  tol: float) -> np.ndarray:
    """Coefficients of x in the lambda(g) basis; error if x is off the span."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (group.order, group.order):
        raise ShapeError("element does not act on l2 of the group")
    coeffs = x[:, group.identity]
    if max_abs(np.tensordot(coeffs, lam, axes=1) - x) > tol:
        raise PreconditionError("element is not in the group algebra span")
    return coeffs


def multiplier_apply(symbol: FourierSymbol, x: np.ndarray,
                     tol: float = config.TOL_NUM) -> np.ndarray:
    lam = build_group_algebra(symbol.group)
    coeffs = _coefficients(symbol.group, x, lam, tol)
    return np.tensordot(symbol.values * coeffs, lam, axes=1)


def _translation_action(embedding: np.ndarray, group: FiniteGroup) -> np.ndarray:
    """Orthogonal matrices O_g with O_g (row h) = row gh, stacked over g.

    Left invariance of t makes h -> gh isometric on the embedding rows, so
    the least-squares solution on the spanning rows is exactly orthogonal.
    """
    gram = embedding.T @ embedding
    ops = np.empty((group.order, embedding.shape[1], embedding.shape[1]))
    for g in range(group.order):
        target = embedding[group.table[g]]
        ops[g] = np.linalg.solve(gram, embedding.T @ target).T
    return ops


@dataclass(frozen=True, kw_only=True)
class CrossedBundle(DilationBundle):
    """Dilation bundle of a group multiplier with its crossed-product data.

    lam stacks the left-regular unitaries lambda(g), actions the orthogonal
    translations O_g of the embedding rows, rotations their exterior lifts.
    """

    symbol: FourierSymbol
    lam: np.ndarray
    actions: np.ndarray
    rotations: np.ndarray


def _covariant_blocks(group: FiniteGroup, rotations: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Diagonal blocks of the block-diagonal covariant copy: block h = alpha(h^-1)(a)."""
    return np.stack([r @ a @ r.T for r in rotations[group.inverse]])


def _require_crossed(bundle: DilationBundle) -> None:
    if not isinstance(bundle, CrossedBundle):
        raise PreconditionError("bundle was not built from group coefficients")


def build_crossed_dilation(symbol: FourierSymbol,
                           tol: float = config.TOL_NUM) -> CrossedBundle:
    """Dilation bundle for the multiplier of a certified positive-definite t."""
    certify_posdef(symbol, tol=tol).require("coefficients")
    group = symbol.group
    m = group.order
    space = build_gram_space(SchurSymbol(gram_matrix(symbol)))
    rep = build_fermion_rep(space)
    if m * rep.dim > config.dim_cap():
        raise SizeError("crossed-product dimension exceeds cap")

    lam = build_group_algebra(group)
    actions = _translation_action(space.embedding, group)
    rotations = np.stack([exterior_map(actions[g]) for g in range(m)])
    eye_f = np.eye(rep.dim, dtype=complex)
    w_blocks = _covariant_blocks(group, rotations, rep.omega(space.embedding[group.identity]))

    def project(x: np.ndarray) -> np.ndarray:
        return np.tensordot(_coefficients(group, x, lam, tol), lam, axes=1)

    def pi(x: np.ndarray) -> np.ndarray:
        return tensor_product(project(x), eye_f)

    def rho(x: np.ndarray) -> np.ndarray:
        return block_conjugate(w_blocks, project(x))

    return CrossedBundle(
        input_dim=m,
        ambient_dim=m * rep.dim,
        input_state=DiagonalState(np.full(m, 1.0 / m)),
        ambient_state=DiagonalState(np.full(m * rep.dim, 1.0 / (m * rep.dim))),
        d=direct_sum(w_blocks),
        pi=pi,
        rho=rho,
        gram=space,
        rep=rep,
        domain_basis=tuple(np.asarray(lam[g], dtype=complex) for g in range(m)),
        symbol=symbol,
        lam=lam,
        actions=actions,
        rotations=rotations,
    )


def verify_fourier_identity(bundle: CrossedBundle, symbol: FourierSymbol,
                            samples: int = 20, seed: int | None = None) -> float:
    """Max residual of phi~(pi(lambda(g)) rho(lambda(h))) = delta_{gh,e} t_g,
    over all group pairs and random span combinations."""
    _require_crossed(bundle)
    group, t = symbol.group, symbol.values
    m = group.order
    state = bundle.ambient_state
    pis = np.stack([bundle.pi(lam_g) for lam_g in bundle.lam])
    rhos = np.stack([bundle.rho(lam_g) for lam_g in bundle.lam])
    expected = np.where(group.table == group.identity, t[:, None], 0.0)
    worst = max_abs(state.pairing_table(pis, rhos) - expected)
    gen = rng(seed)
    for _ in range(samples):
        a, b = gen.standard_normal(m), gen.standard_normal(m)
        x = np.tensordot(a, pis, axes=1)
        y = np.tensordot(b, rhos, axes=1)
        expected = sum(a[g] * b[group.inv(g)] * t[g] for g in range(m))
        worst = max(worst, abs(state.pairing(x, y) - expected))
    return worst


def verify_covariance(bundle: CrossedBundle) -> dict[str, float]:
    """Residuals of the translation action: orthogonality of each O_g,
    O_g O_h = O_{gh}, and Lam(g) omega-copy(h) Lam(g)* = omega-copy(gh)."""
    _require_crossed(bundle)
    group = bundle.symbol.group
    m = group.order
    actions = bundle.actions
    rank = actions.shape[1]
    # fields[h, u]: diagonal block u of the covariant copy of omega(row h)
    fields = np.stack([_covariant_blocks(group, bundle.rotations, bundle.rep.omega(row))
                       for row in bundle.gram.embedding])

    ortho = max(max_abs(actions[g].T @ actions[g] - np.eye(rank)) for g in range(m))
    homo = max(max_abs(actions[g] @ actions[h] - actions[group.mul(g, h)])
               for g in range(m) for h in range(m))
    # Lam(g) = lambda(g) (x) 1 moves block (u, v) to (gu, gv), so conjugating a
    # block-diagonal copy by it permutes the diagonal blocks; column v of
    # lambda(g) holds its single 1 in row gv.
    cov = 0.0
    for g in range(m):
        conjugated = np.empty_like(fields)
        conjugated[:, bundle.lam[g].real.argmax(axis=0)] = fields
        cov = max(cov, max_abs(conjugated - fields[group.table[g]]))
    return {"orthogonal": ortho, "action_homomorphism": homo,
            "field_covariance": cov}
