"""Entrywise (Schur) multipliers and their Gram factorizations.

A symbol is an n x n matrix t; the multiplier acts entrywise, x -> t * x.
Complete positivity of the multiplier is equivalent to positive
semidefiniteness of the symbol, and a unit diagonal makes it unital.  A real
symmetric PSD symbol factors as a Gram matrix t_ij = <v_i, v_j>; the rows v_i
live in the quotient space spanned by the eigenvectors with nonnegligible
eigenvalue, and feed the fermionic dilation downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .errors import NotPsdError, PreconditionError, ShapeError
from .matcore import as_square, eig_hermitian, max_abs
from .states import MarkovMap

__all__ = [
    "SchurSymbol",
    "SymbolReport",
    "GramSpace",
    "apply_multiplier",
    "multiplier_map",
    "certify_symbol",
    "build_gram_space",
    "compose_symbols",
]


@dataclass(frozen=True, eq=False)
class SchurSymbol:
    """Wrapper around the symbol matrix of an entrywise multiplier."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_square(self.matrix, "symbol"))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SymbolReport:
    """Residuals of a symbol's three properties; the verdicts threshold them.

    psd_residual is the negative eigenvalue mass of the Hermitian part.  When
    the symbol is not Hermitian within tol, min_eigenvalue is None and
    psd_residual adds the Hermiticity defect, so the PSD verdict fails
    whenever tol >= tol_psd.
    """

    unital_residual: float
    self_adjoint_residual: float
    psd_residual: float
    min_eigenvalue: float | None
    tol: float
    tol_psd: float

    @property
    def unital(self) -> bool:
        return self.unital_residual <= self.tol

    @property
    def self_adjoint(self) -> bool:
        return self.self_adjoint_residual <= self.tol

    @property
    def psd(self) -> bool:
        return self.psd_residual <= self.tol_psd

    @property
    def ok(self) -> bool:
        """Unital, PSD and self-adjoint: the symbol of a Markov multiplier."""
        return self.unital and self.psd and self.self_adjoint

    def require(self, what: str = "symbol") -> None:
        """Raise PreconditionError unless the symbol is certified."""
        if not self.ok:
            raise PreconditionError(
                f"{what} must be unital, PSD, self-adjoint; got {self}")


@dataclass(frozen=True, eq=False)
class GramSpace:
    """Row vectors v_i with <v_i, v_j> reproducing a PSD symbol.

    embedding has shape (n, rank); row i represents the i-th generator in the
    quotient Hilbert space (directions with negligible eigenvalue dropped).
    """

    rank: int
    embedding: np.ndarray

    def __post_init__(self):
        emb = np.asarray(self.embedding, dtype=float)
        if emb.ndim != 2 or emb.shape[1] != self.rank:
            raise ShapeError(f"embedding shape {emb.shape} does not match rank {self.rank}")
        object.__setattr__(self, "embedding", emb)

    @property
    def n(self) -> int:
        return self.embedding.shape[0]

    def gram(self) -> np.ndarray:
        return self.embedding @ self.embedding.T

    @staticmethod
    def standard(dim: int) -> "GramSpace":
        """Orthonormal generators: the identity Gram on R^dim."""
        return GramSpace(dim, np.eye(dim))


def apply_multiplier(symbol: SchurSymbol, x) -> np.ndarray:
    arr = as_square(x, "multiplier argument")
    if arr.shape != symbol.matrix.shape:
        raise ShapeError("apply_multiplier dimension mismatch")
    return symbol.matrix * arr


def multiplier_map(symbol: SchurSymbol) -> MarkovMap:
    """The multiplier as a superoperator (diagonal in the matrix-unit basis)."""
    n = symbol.dim
    return MarkovMap(n, n, np.diag(symbol.matrix.reshape(-1)))


def certify_symbol(symbol: SchurSymbol, tol: float = config.TOL_NUM,
                   tol_psd: float = config.TOL_PSD) -> SymbolReport:
    """Unitality, positivity, and self-adjointness of the symbol.

    For a symbol Hermitian within tol the psd verdict is min eig >= -tol_psd,
    which matches the Choi test of the induced map; a larger Hermiticity
    defect counts into the PSD residual.
    self_adjoint means real symmetric: the multiplier equals its GNS adjoint
    for every faithful diagonal state exactly in that case.
    """
    t = symbol.matrix
    herm_defect = max_abs(t - t.conj().T)
    w = np.linalg.eigvalsh((t + t.conj().T) / 2)
    negative = max(0.0, -float(w[0]))
    hermitian = herm_defect <= tol
    return SymbolReport(
        unital_residual=max_abs(np.diagonal(t) - 1.0),
        self_adjoint_residual=max(max_abs(t - t.T), max_abs(t.imag)),
        psd_residual=negative if hermitian else herm_defect + negative,
        min_eigenvalue=float(w[0]) if hermitian else None,
        tol=tol, tol_psd=tol_psd)


def build_gram_space(symbol: SchurSymbol, tol_rank: float = config.TOL_RANK,
                     tol_psd: float = config.TOL_PSD) -> GramSpace:
    """Factor a real symmetric PSD symbol as a Gram matrix of row vectors.

    Eigendirections with eigenvalue below tol_rank times the largest are
    dropped, so rank-deficient symbols embed into their honest quotient.
    """
    t = symbol.matrix
    if max_abs(t - t.T) > config.TOL_NUM or max_abs(t.imag) > config.TOL_NUM:
        raise ShapeError("build_gram_space needs a real symmetric symbol")
    w, v = eig_hermitian(t.real.astype(complex))
    if w[0] < -tol_psd:
        raise NotPsdError(f"symbol has eigenvalue {w[0]:.3e}, not PSD")
    w = np.clip(w, 0.0, None)
    keep = w > tol_rank * max(w[-1], 0.0)
    if not np.any(keep):
        raise NotPsdError("symbol is numerically zero; no Gram space")
    cols = np.flatnonzero(keep)[::-1]  # largest eigenvalue first
    embedding = (v[:, cols].real * np.sqrt(w[cols]))
    return GramSpace(rank=len(cols), embedding=embedding)


def compose_symbols(a: SchurSymbol, b: SchurSymbol) -> SchurSymbol:
    """Symbol of the composed multipliers: the entrywise (Hadamard) product."""
    if a.matrix.shape != b.matrix.shape:
        raise ShapeError("compose_symbols dimension mismatch")
    return SchurSymbol(a.matrix * b.matrix)
