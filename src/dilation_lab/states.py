"""Faithful diagonal states and the maps that respect them.

A state is a strictly positive weight vector summing to one, read as the
diagonal density D; the associated functional is phi(x) = trace(D x).  Linear
maps on M_n are stored as n^2 x n^2 superoperators acting on row-major
vectorized matrices.  A map earns the name "Markov" for phi when it is unital,
completely positive, preserves phi, and commutes with the modular flow
sigma_t(x) = D^{-it} x D^{it}; each property is certified numerically and
recorded as a tri-state flag (True / False / None for unchecked).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import config
from .errors import PreconditionError, ShapeError
from .matcore import as_square, dagger, matrix_unit, max_abs, unvec, vec

__all__ = [
    "DiagonalState",
    "MarkovMap",
    "modular_conjugate",
    "gns_inner",
    "choi_matrix",
    "certify_markov",
    "star_adjoint",
]


@dataclass(frozen=True)
class DiagonalState:
    """Faithful state with diagonal density diag(weights)."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.size == 0:
            raise ShapeError("state needs at least one weight")
        if np.any(w <= 0):
            raise PreconditionError("state weights must be strictly positive (faithful)")
        if abs(w.sum() - 1.0) > config.TOL_NUM:
            raise PreconditionError(f"state weights sum to {w.sum():.12f}, expected 1")
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.weights.size

    def density(self) -> np.ndarray:
        return np.diag(self.weights).astype(complex)

    def __call__(self, x) -> complex:
        """phi(x) = trace(diag(weights) x)."""
        arr = as_square(x, "state argument")
        if arr.shape[0] != self.dim:
            raise ShapeError(f"state of dimension {self.dim} applied to shape {arr.shape}")
        return complex(np.dot(self.weights, np.diagonal(arr)))

    def pairing(self, x: np.ndarray, y: np.ndarray) -> complex:
        """phi(x y) = sum_ij w_i x_ij y_ji in O(n^2), without forming x y."""
        return complex(np.einsum("i,ij,ji->", self.weights, x, y))

    def pairing_table(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """phi(x y) for every x in the stack xs and every y in ys, as one GEMM
        of the weighted xs against the transposed ys: O(n^2) per pair."""
        left = (xs * self.weights[:, None]).reshape(len(xs), -1)
        right = np.swapaxes(ys, -1, -2).reshape(len(ys), -1)
        return left @ right.T

    def modular_phases(self, t: float) -> np.ndarray:
        """Entrywise phase matrix of sigma_t: (w_i / w_j)^{-it}."""
        log_w = np.log(self.weights)
        return np.exp(-1j * t * (log_w[:, None] - log_w[None, :]))

    @staticmethod
    def tracial(n: int) -> "DiagonalState":
        return DiagonalState(np.full(n, 1.0 / n))


@dataclass(frozen=True)
class MarkovMap:
    """Linear map between matrix algebras, stored as a superoperator.

    `super` has shape (dim_out**2, dim_in**2) and acts on row-major vec'd
    matrices.  The four certification flags are None until checked.
    """

    dim_out: int
    dim_in: int
    super: np.ndarray
    unital: bool | None = None
    cp: bool | None = None
    state_preserving: bool | None = None
    modular_intertwining: bool | None = None

    def __post_init__(self):
        s = np.asarray(self.super, dtype=complex)
        if s.shape != (self.dim_out**2, self.dim_in**2):
            raise ShapeError(
                f"superoperator shape {s.shape} does not match dims "
                f"({self.dim_out}^2, {self.dim_in}^2)"
            )
        object.__setattr__(self, "super", s)

    @property
    def dimension(self) -> int:
        if self.dim_out != self.dim_in:
            raise ShapeError("dimension is only defined for square maps")
        return self.dim_in

    @classmethod
    def from_action(cls, action: Callable[[np.ndarray], np.ndarray], dim_in: int,
                    dim_out: int | None = None) -> "MarkovMap":
        """Build the superoperator by applying `action` to every matrix unit."""
        dim_out = dim_in if dim_out is None else dim_out
        s = np.zeros((dim_out**2, dim_in**2), dtype=complex)
        for i in range(dim_in):
            for j in range(dim_in):
                out = np.asarray(action(matrix_unit(dim_in, i, j)), dtype=complex)
                if out.shape != (dim_out, dim_out):
                    raise ShapeError(f"action returned shape {out.shape}, expected ({dim_out}, {dim_out})")
                s[:, i * dim_in + j] = vec(out)
        return cls(dim_out, dim_in, s)

    def apply(self, x) -> np.ndarray:
        arr = as_square(x, "map argument")
        if arr.shape[0] != self.dim_in:
            raise ShapeError(f"map with input dimension {self.dim_in} applied to shape {arr.shape}")
        return unvec(self.super @ vec(arr), self.dim_out)

    __call__ = apply

    def compose(self, other: "MarkovMap") -> "MarkovMap":
        """self after other."""
        if self.dim_in != other.dim_out:
            raise ShapeError("composition dimension mismatch")
        return MarkovMap(self.dim_out, other.dim_in, self.super @ other.super)

    @staticmethod
    def identity(n: int) -> "MarkovMap":
        return MarkovMap(n, n, np.eye(n * n, dtype=complex))


def modular_conjugate(state: DiagonalState, x, t: float) -> np.ndarray:
    """sigma_t(x) = D^{-it} x D^{it}, entrywise (w_i/w_j)^{-it} x_ij."""
    arr = as_square(x, "modular argument")
    if arr.shape[0] != state.dim:
        raise ShapeError("modular_conjugate dimension mismatch")
    return state.modular_phases(t) * arr


def modular_superoperator(state: DiagonalState, t: float) -> np.ndarray:
    return np.diag(vec(state.modular_phases(t)))


def gns_inner(state: DiagonalState, x, y) -> complex:
    """GNS inner product <x, y> = phi(x* y), conjugate-linear in x."""
    xa = as_square(x, "gns x")
    ya = as_square(y, "gns y")
    if xa.shape != ya.shape or xa.shape[0] != state.dim:
        raise ShapeError("gns_inner dimension mismatch")
    return complex(np.einsum("i,ji,ji->", state.weights, np.conj(xa), ya))


def choi_matrix(m: MarkovMap) -> np.ndarray:
    """Choi matrix sum_ij e_ij (x) m(e_ij); the map is CP iff this is PSD.

    Column i*n+j of `super` is vec(m(e_ij)), so block (i, j) of the Choi
    matrix is a reshape of that column.
    """
    n, k = m.dim_in, m.dim_out
    return m.super.reshape(k, k, n, n).transpose(2, 0, 3, 1).reshape(n * k, n * k)


def markov_residuals(m: MarkovMap, state: DiagonalState,
                     t_samples: Iterable[float] = config.T_SAMPLES) -> dict[str, float]:
    """Numeric residuals behind the four Markov properties.

    Keys: unital, cp, state_preserving, modular, which all vanish exactly for
    a Markov operator.  cp is the sum of cp_hermitian (the Choi matrix's
    Hermiticity defect) and cp_negative (the negative eigenvalue mass of its
    Hermitian part), which are also returned.
    """
    n = m.dimension
    if state.dim != n:
        raise ShapeError("markov_residuals: state dimension does not match map")

    unital = max_abs(m.apply(np.eye(n)) - np.eye(n))

    choi = choi_matrix(m)
    herm_defect = max_abs(choi - dagger(choi))
    min_eig = float(np.linalg.eigvalsh((choi + dagger(choi)) / 2)[0])
    negative = max(0.0, -min_eig)

    # phi(m(x)) = phi(x) on matrix units: row of phi-functionals applied to super
    phi_row = vec(np.diag(state.weights)).conj()  # trace(D x) = <vec(D~), vec(x)> with real D
    state_preserving = max_abs(phi_row @ m.super - phi_row)

    modular = 0.0
    for t in t_samples:
        sig = modular_superoperator(state, t)
        modular = max(modular, max_abs(m.super @ sig - sig @ m.super))
    return {"unital": unital, "cp": herm_defect + negative,
            "cp_hermitian": herm_defect, "cp_negative": negative,
            "state_preserving": state_preserving, "modular": modular}


def certify_markov(m: MarkovMap, state: DiagonalState,
                   t_samples: Iterable[float] = config.T_SAMPLES,
                   tol: float = config.TOL_NUM,
                   tol_psd: float = config.TOL_PSD) -> MarkovMap:
    """Threshold the Markov residuals of a square map against a state.

    Returns a copy of the map with every flag set to the verified verdict.
    The CP verdict keeps its own sign tolerance: the Choi matrix must be
    Hermitian within tol and its spectrum bounded below by -tol_psd.
    """
    res = markov_residuals(m, state, t_samples)
    return dataclasses.replace(
        m, unital=res["unital"] <= tol,
        cp=res["cp_hermitian"] <= tol and res["cp_negative"] <= tol_psd,
        state_preserving=res["state_preserving"] <= tol,
        modular_intertwining=res["modular"] <= tol)


def star_adjoint(m: MarkovMap, state: DiagonalState) -> MarkovMap:
    """Adjoint for the bilinear pairing phi(x m(y)) = phi(adj(x) y).

    Solved on matrix units: with phi = trace(D .), the defining identity pins
    adj(e_kl)[j, i] = w_k * m(e_ij)[l, k] / w_j.  Flags are reset to unchecked.
    """
    n = m.dimension
    if state.dim != n:
        raise ShapeError("star_adjoint: state dimension does not match map")
    w = state.weights
    # images[l, k, i, j] = m(e_ij)[l, k]; star[j, i, k, l] = vec(adj(e_kl))[j*n+i]
    images = m.super.reshape(n, n, n, n)
    star = (w[None, None, :, None] * images.transpose(3, 2, 1, 0)) / w[:, None, None, None]
    return MarkovMap(n, n, star.reshape(n * n, n * n))
