"""State-preserving conditional expectations onto operator subalgebras.

The subalgebra is presented by generators; `word_closure` grows the span by
adjoints and pairwise products, reorthonormalizing (Hilbert-Schmidt) until the
rank stabilizes.  Against a faithful diagonal state with an invariant span,
the expectation of x is the GNS-orthogonal projection: solve the Gram system
<a_i, a_j> c = <a_i, x> in the inner product phi(a* b) and recombine.
Invariance of the span under the modular flow of the state is a genuine
precondition (no state-preserving expectation exists otherwise), so it is
checked at sampled times before projecting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import config
from .errors import NotExpectationError, ShapeError, SizeError
from .matcore import as_square, dagger, solve_psd
from .states import DiagonalState

__all__ = [
    "SubalgebraBasis",
    "word_closure",
    "ConditionalExpectation",
    "conditional_expectation",
    "verify_expectation",
    "ExpectationReport",
]


@dataclass(frozen=True)
class SubalgebraBasis:
    """Hilbert-Schmidt-orthonormal basis of a star-subalgebra of M_dim."""

    dim: int
    basis: np.ndarray  # shape (size, dim, dim)

    @property
    def size(self) -> int:
        return self.basis.shape[0]

    def project_coeffs(self, x: np.ndarray) -> np.ndarray:
        """HS components <b_i, x> (used for span membership tests)."""
        return np.einsum("sij,ij->s", np.conj(self.basis), x)

    def span_residual(self, x: np.ndarray) -> float:
        coeffs = self.project_coeffs(x)
        rebuilt = np.tensordot(coeffs, self.basis, axes=1)
        return float(np.linalg.norm(x - rebuilt))


def _orthonormal_rows(stack: np.ndarray, tol_rank: float) -> np.ndarray:
    """SVD-based orthonormalization of a stack of vectorized matrices."""
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return vh[:0]
    return vh[s > tol_rank * s[0]]


def word_closure(generators: Sequence[np.ndarray], cap: int | None = None,
                 tol_rank: float = config.TOL_RANK) -> SubalgebraBasis:
    """Close a generating set under adjoints and products.

    Rounds of pairwise products are added to the span until the rank stops
    growing; exceeding the cap (default: the full algebra dimension) aborts.
    """
    gens = [as_square(g, "generator") for g in generators]
    if not gens:
        raise ShapeError("word_closure needs at least one generator")
    n = gens[0].shape[0]
    if any(g.shape != (n, n) for g in gens):
        raise ShapeError("word_closure generators must share one dimension")
    limit = n * n if cap is None else cap

    seed = [np.eye(n, dtype=complex)] + gens + [dagger(g) for g in gens]
    stack = np.stack([g.reshape(-1) for g in seed])
    basis = _orthonormal_rows(stack, tol_rank)
    while True:
        if basis.shape[0] > limit:
            raise SizeError(f"closure rank exceeded cap {limit}")
        mats = basis.reshape(-1, n, n)
        prods = np.einsum("aij,bjk->abik", mats, mats).reshape(-1, n * n)
        new_basis = _orthonormal_rows(np.vstack([basis, prods]), tol_rank)
        if new_basis.shape[0] == basis.shape[0]:
            return SubalgebraBasis(dim=n, basis=new_basis.reshape(-1, n, n))
        basis = new_basis


class ConditionalExpectation:
    """State-preserving conditional expectation onto one subalgebra.

    Built once per (state, algebra): construction raises NotExpectationError
    when the span fails modular invariance at the sampled times, and forms the
    GNS Gram system.  With an invariant span the projection is the unique
    state-preserving conditional expectation; calling it projects a matrix or
    a stack of matrices with leading batch axes.
    """

    def __init__(self, state: DiagonalState, algebra: SubalgebraBasis,
                 t_samples=config.T_SAMPLES, tol: float = config.TOL_NUM,
                 tol_rank: float = config.TOL_RANK):
        if state.dim != algebra.dim:
            raise ShapeError("conditional_expectation dimension mismatch")
        for t in t_samples:
            phases = state.modular_phases(t)
            for b in algebra.basis:
                resid = algebra.span_residual(phases * b)
                if resid > tol:
                    raise NotExpectationError(
                        f"span is not modular-invariant at t={t}: residual {resid:.3e}")
        self.algebra = algebra
        self.tol_rank = tol_rank
        # <a, b> = phi(a* b) = sum_pq w_p conj(a_qp) b_qp; half[s, p, q] = w_p conj(a_s[q, p])
        self.half = state.weights[None, :, None] * np.conj(algebra.basis).transpose(0, 2, 1)
        self.gram = np.einsum("spq,tqp->st", self.half, algebra.basis, optimize=True)

    def __call__(self, x) -> np.ndarray:
        n = self.algebra.dim
        xa = np.asarray(x, dtype=complex)
        if xa.ndim < 2 or xa.shape[-1] != xa.shape[-2]:
            raise ShapeError("expectation argument must be square")
        if xa.shape[-1] != n:
            raise ShapeError("conditional_expectation dimension mismatch")
        lead = xa.shape[:-2]
        flat = xa.reshape(-1, n, n)
        rhs = np.einsum("spq,bqp->sb", self.half, flat, optimize=True)
        coeff = solve_psd(self.gram, rhs, self.tol_rank)
        out = np.tensordot(coeff.T, self.algebra.basis, axes=1)
        return out.reshape(*lead, n, n)


def conditional_expectation(state: DiagonalState, algebra: SubalgebraBasis, x,
                            t_samples=config.T_SAMPLES,
                            tol: float = config.TOL_NUM,
                            tol_rank: float = config.TOL_RANK) -> np.ndarray:
    """One-shot ConditionalExpectation(state, algebra)(x)."""
    return ConditionalExpectation(state, algebra, t_samples, tol, tol_rank)(x)


@dataclass(frozen=True)
class ExpectationReport:
    idempotence: float
    bimodule: float
    positivity: float
    state_preservation: float

    def max_residual(self) -> float:
        return max(self.idempotence, self.bimodule, self.positivity, self.state_preservation)


def verify_expectation(state: DiagonalState, algebra: SubalgebraBasis, samples: int = 8,
                       seed: int | None = None, tol: float = config.TOL_NUM) -> ExpectationReport:
    """Spot-check the expectation properties on seeded random elements."""
    n = algebra.dim
    gen = np.random.default_rng(config.DEFAULT_SEED if seed is None else seed)
    expect = ConditionalExpectation(state, algebra, tol=tol)

    idem = bimod = posit = preserve = 0.0
    for _ in range(samples):
        x = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        ex = expect(x)
        idem = max(idem, float(np.linalg.norm(expect(ex) - ex)))
        preserve = max(preserve, abs(state(ex - x)))
        # positivity: E(x* x) must stay PSD
        exx = expect(dagger(x) @ x)
        exx = (exx + dagger(exx)) / 2
        posit = max(posit, max(0.0, -float(np.linalg.eigvalsh(exx)[0])))
        # bimodule: E(a x b) = a E(x) b for a, b in the algebra
        ca = gen.standard_normal(algebra.size) + 1j * gen.standard_normal(algebra.size)
        cb = gen.standard_normal(algebra.size) + 1j * gen.standard_normal(algebra.size)
        a = np.tensordot(ca, algebra.basis, axes=1)
        b = np.tensordot(cb, algebra.basis, axes=1)
        bimod = max(bimod, float(np.linalg.norm(expect(a @ x @ b) - a @ ex @ b)))
    return ExpectationReport(idempotence=idem, bimodule=bimod,
                             positivity=posit, state_preservation=preserve)
