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
from .matcore import as_square, eig_hermitian, max_abs, negative_mass
from .states import MarkovMap

__all__ = [
    "SchurSymbol",
    "GramSpace",
    "apply_multiplier",
    "multiplier_map",
    "certify_symbol",
    "symbol_tolerances",
    "require_symbol",
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


def certify_symbol(symbol: SchurSymbol, tol: float = config.TOL_NUM) -> dict[str, float]:
    """Residuals of unitality, self-adjointness and positivity of the symbol.

    psd is the negative eigenvalue mass of the Hermitian part (see
    matcore.negative_mass); when the Hermiticity defect exceeds tol it
    counts into psd as well, so a symbol that is not Hermitian within tol
    fails psd at any tolerance below tol.
    For a symbol Hermitian within tol, psd <= TOL_PSD matches the Choi test
    of the induced map.  self_adjoint means real symmetric: the multiplier
    equals its GNS adjoint for every faithful diagonal state exactly then.
    """
    t = symbol.matrix
    herm_defect = max_abs(t - t.conj().T)
    negative = negative_mass(t)
    return {"unital": max_abs(np.diagonal(t) - 1.0),
            "self_adjoint": max(max_abs(t - t.T), max_abs(t.imag)),
            "psd": negative if herm_defect <= tol else herm_defect + negative}


def symbol_tolerances(tol: float) -> dict[str, float]:
    """Tolerance of each certify_symbol residual for the symbol of a Markov
    multiplier: unital and self-adjoint within tol, PSD within TOL_PSD."""
    return {"unital": tol, "self_adjoint": tol, "psd": config.TOL_PSD}


def require_symbol(symbol: SchurSymbol, tol: float = config.TOL_NUM,
                   what: str = "symbol") -> None:
    """Raise PreconditionError unless every certify_symbol residual is within
    its symbol_tolerances(tol), naming each one that is not."""
    tols = symbol_tolerances(tol)
    failed = [f"{name} residual {residual:.1e} > tol {tols[name]:.1e}"
              for name, residual in certify_symbol(symbol, tol).items()
              if not residual <= tols[name]]
    if failed:
        raise PreconditionError(f"{what} must be unital, PSD, self-adjoint: "
                                + "; ".join(failed))


def build_gram_space(symbol: SchurSymbol, tol: float = config.TOL_NUM) -> GramSpace:
    """Factor a real symmetric PSD symbol as a Gram matrix of row vectors.

    A symbol real and symmetric within tol is accepted, and the symmetric part
    of its real part, which certify_symbol measures, is factored.  Eigendirections with
    eigenvalue below TOL_RANK times the largest are dropped, so rank-deficient
    symbols embed into their honest quotient.  The symbol is taken as unital:
    each kept row is scaled to unit length, so w(v_i) squares to the
    identity to rounding, and the mass the cut drops stays a defect of
    <v_i, v_j> against t_ij.
    """
    t = symbol.matrix
    if max_abs(t - t.T) > tol or max_abs(t.imag) > tol:
        raise ShapeError("build_gram_space needs a real symmetric symbol")
    w, v = eig_hermitian((t.real / 2 + t.real.T / 2).astype(complex), tol)
    if w[0] < -config.TOL_PSD:
        raise NotPsdError(f"symbol has eigenvalue {w[0]:.3e}, not PSD")
    w = np.clip(w, 0.0, None)
    keep = w > config.TOL_RANK * max(w[-1], 0.0)
    if not np.any(keep):
        raise NotPsdError("symbol is numerically zero; no Gram space")
    cols = np.flatnonzero(keep)[::-1]  # largest eigenvalue first
    embedding = v[:, cols].real * np.sqrt(w[cols])
    return GramSpace(rank=len(cols),
                     embedding=embedding / np.linalg.norm(embedding, axis=1, keepdims=True))


def compose_symbols(a: SchurSymbol, b: SchurSymbol) -> SchurSymbol:
    """Symbol of the composed multipliers: the entrywise (Hadamard) product."""
    if a.matrix.shape != b.matrix.shape:
        raise ShapeError("compose_symbols dimension mismatch")
    return SchurSymbol(a.matrix * b.matrix)
