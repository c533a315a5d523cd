"""Dense matrix substrate.

Everything downstream works with complex numpy arrays. This module wraps the
handful of numerical kernels (Hermitian eigensolves, PSD square roots,
Gram-system solves, tensor products) with the shape/positivity contracts the
rest of the library relies on, and provides the seeded random generators used
by sampling-based checks.
"""

from __future__ import annotations

import numpy as np

from . import config
from .errors import NotPsdError, ShapeError, SizeError

__all__ = [
    "as_square",
    "dagger",
    "is_hermitian",
    "frobenius",
    "max_abs",
    "vec",
    "unvec",
    "matrix_unit",
    "tensor_product",
    "direct_sum",
    "block_conjugate",
    "eig_hermitian",
    "hermitian_sqrt",
    "solve_psd",
    "rng",
    "random_complex",
    "random_weights",
    "random_unital_psd_symbol",
    "random_symmetric_contraction",
]


def as_square(a, name: str = "matrix") -> np.ndarray:
    """Validate and return `a` as a square complex 2-d array."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ShapeError(f"{name} must be square and nonempty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ShapeError(f"{name} has non-finite entries")
    return arr


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(a, -1, -2))


def is_hermitian(a: np.ndarray, tol: float = config.TOL_NUM) -> bool:
    return bool(np.abs(a - dagger(a)).max() <= tol)


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def max_abs(a) -> float:
    return float(np.abs(np.asarray(a)).max(initial=0.0))


def vec(a: np.ndarray) -> np.ndarray:
    """Row-major flattening; vec(A X B) = (A (x) B^T) vec(X) in this convention."""
    return np.asarray(a).reshape(-1)


def unvec(v: np.ndarray, rows: int, cols: int | None = None) -> np.ndarray:
    cols = rows if cols is None else cols
    return np.asarray(v).reshape(rows, cols)


def matrix_unit(n: int, i: int, j: int) -> np.ndarray:
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def tensor_product(a, b, cap: int | None = None) -> np.ndarray:
    """Kronecker product with the global dimension cap enforced."""
    aa = np.asarray(a, dtype=complex)
    bb = np.asarray(b, dtype=complex)
    if aa.ndim != 2 or bb.ndim != 2 or 0 in aa.shape or 0 in bb.shape:
        raise ShapeError(f"tensor_product needs nonempty 2-d arrays, got {aa.shape} and {bb.shape}")
    limit = config.dim_cap() if cap is None else cap
    out_dim = max(aa.shape[0] * bb.shape[0], aa.shape[1] * bb.shape[1])
    if out_dim > limit:
        raise SizeError(f"tensor product dimension {out_dim} exceeds cap {limit}")
    return np.kron(aa, bb)


def direct_sum(blocks) -> np.ndarray:
    """Block-diagonal sum of square matrices."""
    mats = [as_square(b, "direct_sum block") for b in blocks]
    if not mats:
        raise ShapeError("direct_sum needs at least one block")
    total = sum(m.shape[0] for m in mats)
    out = np.zeros((total, total), dtype=complex)
    pos = 0
    for m in mats:
        k = m.shape[0]
        out[pos : pos + k, pos : pos + k] = m
        pos += k
    return out


def block_conjugate(blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """d (x (x) 1) d for the block-diagonal d = direct_sum(blocks).

    Block (i, j) of the product is (x_ij w_i) w_j for the diagonal blocks
    w_i, so column block j is one GEMM of the stacked x_ij w_i with w_j:
    O(n^2 f^3) for n blocks of size f, against 2 (n f)^3 for the dense form.
    """
    n, f, _ = blocks.shape
    if x.shape != (n, n):
        raise ShapeError(f"block_conjugate argument must be {n} x {n}, got shape {x.shape}")
    out = np.empty((n * f, n * f), dtype=complex)
    for j in range(n):
        out[:, j * f : (j + 1) * f] = (x[:, j, None, None] * blocks).reshape(n * f, f) @ blocks[j]
    return out


def eig_hermitian(a, tol: float = config.TOL_NUM):
    """Eigenvalues (ascending, real) and orthonormal eigenvectors of a Hermitian matrix."""
    arr = as_square(a, "eig_hermitian input")
    if not is_hermitian(arr, tol):
        raise ShapeError("eig_hermitian input is not Hermitian")
    w, v = np.linalg.eigh(arr)
    return w, v


def hermitian_sqrt(a, tol_psd: float = config.TOL_PSD) -> np.ndarray:
    """PSD square root B with B @ B = a; small negative eigenvalues are clamped to 0."""
    w, v = eig_hermitian(a)
    if w[0] < -tol_psd:
        raise NotPsdError(f"hermitian_sqrt input has eigenvalue {w[0]:.3e} < -{tol_psd:.1e}")
    root = np.sqrt(np.clip(w, 0.0, None))
    out = (v * root) @ dagger(v)
    # real symmetric input stays real on the nose
    if np.isrealobj(np.asarray(a)) or np.abs(out.imag).max() <= 1e-14:
        out = out.real.astype(complex) if np.iscomplexobj(out) else out
    return out


def solve_psd(gram, rhs, tol_rank: float = config.TOL_RANK) -> np.ndarray:
    """Minimum-norm least-squares solve of a PSD Gram system.

    Singular values below tol_rank times the largest are treated as zero, so
    consistent rank-deficient systems resolve to the minimum-norm solution.
    """
    g = as_square(gram, "gram")
    b = np.asarray(rhs, dtype=complex)
    if b.shape[0] != g.shape[0]:
        raise ShapeError(f"rhs length {b.shape[0]} does not match gram size {g.shape[0]}")
    sol, *_ = np.linalg.lstsq(g, b, rcond=tol_rank)
    return sol


# ---------------------------------------------------------------------------
# seeded sampling


def rng(seed: int | None = None) -> np.random.Generator:
    return np.random.default_rng(config.DEFAULT_SEED if seed is None else seed)


def random_complex(gen: np.random.Generator, rows: int, cols: int | None = None) -> np.ndarray:
    cols = rows if cols is None else cols
    return gen.standard_normal((rows, cols)) + 1j * gen.standard_normal((rows, cols))


def random_weights(gen: np.random.Generator, n: int, floor: float = 0.05) -> np.ndarray:
    """Faithful diagonal state weights: strictly positive, summing to one.

    The floor keeps weight ratios mild so Gram systems stay well conditioned.
    """
    w = floor + gen.random(n)
    return w / w.sum()


def random_unital_psd_symbol(gen: np.random.Generator, n: int, rank: int | None = None) -> np.ndarray:
    """Random real symmetric PSD matrix with unit diagonal (Gram of unit vectors)."""
    k = n if rank is None else max(1, min(rank, n))
    v = gen.standard_normal((n, k))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v @ v.T


def random_symmetric_contraction(gen: np.random.Generator, n: int) -> np.ndarray:
    """Random real symmetric matrix with spectrum inside [-1, 1]."""
    a = gen.standard_normal((n, n))
    a = (a + a.T) / 2
    w = np.abs(np.linalg.eigvalsh(a)).max()
    return a / (w * (1.0 + 1e-3)) if w > 0 else a
