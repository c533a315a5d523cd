"""State-preserving conditional expectations onto operator subalgebras.

The subalgebra is presented by generators; `word_closure` grows a
Hilbert-Schmidt-orthonormal basis from span{I, generators, adjoints} by
multiplying only the newest elements (the frontier) by the generator span,
keeping the products that are new relative to the largest product of the round,
until a round adds nothing.  Against a faithful diagonal state with an invariant span,
the expectation of x is the GNS-orthogonal projection: solve the Gram system
<a_i, a_j> c = <a_i, x> in the inner product phi(a* b) and recombine.
Invariance of the span under the modular flow of the state is a genuine
precondition (no state-preserving expectation exists otherwise), so it is
checked at sampled times before projecting.

No other module calls this path: the chain's algebras are known exactly, and
`dilation.verify_even_closure` checks generators.  It stays as a library
function for algebras known only by generators, as the tests' independent
reference for the chain expectations, and because the benchmark's tracer
(perfbench/spans.py) times `word_closure` by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import config
from .errors import NotExpectationError, ShapeError
from .matcore import as_square, dagger, solve_psd
from .states import DiagonalState

__all__ = [
    "SubalgebraBasis",
    "word_closure",
    "ConditionalExpectation",
    "conditional_expectation",
    "verify_expectation",
]


@dataclass(frozen=True, eq=False)
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


def _extend(basis: np.ndarray, cands: np.ndarray, cutoff: float) -> np.ndarray:
    """Orthonormal rows spanning the candidates modulo the span of `basis`.

    Candidates are projected out of the (orthonormal) basis; those whose
    residual norm is at most `cutoff` are dropped, and an SVD of the rest keeps
    the directions whose singular value exceeds the same cutoff.  A direction
    with a small singular value s carries the basis component that round-off
    left in its candidates magnified by 1/s, so the kept directions are
    projected out a second time and re-orthonormalized.
    """
    cands = cands - (cands @ np.conj(basis).T) @ basis
    cands = cands[np.linalg.norm(cands, axis=1) > cutoff]
    if cands.shape[0] == 0:
        return cands
    # A^T = U S V^H gives A = conj(V) S U^T: the rows of U^T span A's rows,
    # and the tall SVD runs about twice as fast as the wide one.
    u, s, _ = np.linalg.svd(cands.T, full_matrices=False)
    new = u[:, s > cutoff]
    q, _ = np.linalg.qr(new - basis.T @ (np.conj(basis) @ new))
    return q.T


def _largest_product_norm(gmats: np.ndarray, fmats: np.ndarray) -> float:
    """max ||g f||_HS over all pairs, from ||g f||^2 = <g* g, f f*> without the products."""
    gg = (dagger(gmats) @ gmats).reshape(gmats.shape[0], -1)
    ff = (fmats @ dagger(fmats)).reshape(fmats.shape[0], -1)
    return float(np.sqrt(max(0.0, (gg @ np.conj(ff).T).real.max())))


def _products(gmats: np.ndarray, fmats: np.ndarray) -> np.ndarray:
    """All products g @ f as vectorized rows, ordered (g, f), from one GEMM."""
    g, n = gmats.shape[:2]
    f = fmats.shape[0]
    prods = gmats.reshape(-1, n) @ fmats.transpose(1, 0, 2).reshape(n, -1)
    return prods.reshape(g, n, f, n).transpose(0, 2, 1, 3).reshape(g * f, n * n)


def word_closure(generators: Sequence[np.ndarray]) -> SubalgebraBasis:
    """Close a generating set under adjoints and products (a Krylov closure).

    G is an orthonormal basis of span{I, generators, their adjoints}, and the
    closure starts from it.  Each round multiplies the frontier (the elements
    the last round added) on the left by G, and keeps the products that are new
    modulo the current basis (see `_extend`).  The cutoff is
    TOL_RANK * scale, with scale the largest product norm of the round before
    projection: a relative cutoff per candidate would promote round-off in
    near-zero products to new directions.  A round that adds nothing ends the
    closure, and the basis, orthonormal in M_n, never exceeds n^2 elements.
    Products are formed a few frontier elements at a time, so no candidate
    stack holds more than about config.CHUNK_BYTES.
    """
    gens = [as_square(g, "generator") for g in generators]
    if not gens:
        raise ShapeError("word_closure needs at least one generator")
    n = gens[0].shape[0]
    if any(g.shape != (n, n) for g in gens):
        raise ShapeError("word_closure generators must share one dimension")

    seed = [np.eye(n, dtype=complex)] + gens + [dagger(g) for g in gens]
    seed = np.stack(seed).reshape(-1, n * n)
    cutoff = config.TOL_RANK * float(np.linalg.norm(seed, axis=1).max())
    gmats = _extend(seed[:0], seed, cutoff).reshape(-1, n, n)
    basis = gmats.reshape(-1, n * n)
    frontier = gmats
    step = max(1, config.CHUNK_BYTES // gmats.nbytes)  # frontier elements per chunk
    while frontier.shape[0]:
        cutoff = config.TOL_RANK * _largest_product_norm(gmats, frontier)
        start = basis.shape[0]
        for lo in range(0, frontier.shape[0], step):
            cands = _products(gmats, frontier[lo : lo + step])
            basis = np.vstack([basis, _extend(basis, cands, cutoff)])
        frontier = basis[start:].reshape(-1, n, n)
    return SubalgebraBasis(dim=n, basis=basis.reshape(-1, n, n))


class ConditionalExpectation:
    """State-preserving conditional expectation onto one subalgebra.

    Built once per (state, algebra): construction raises NotExpectationError
    when the span fails modular invariance at the times config.T_SAMPLES,
    and forms the GNS Gram system.  With an invariant span the projection is
    the unique state-preserving conditional expectation; calling it projects
    a matrix or a stack of matrices with leading batch axes.
    """

    def __init__(self, state: DiagonalState, algebra: SubalgebraBasis,
                 tol: float = config.TOL_NUM):
        if state.dim != algebra.dim:
            raise ShapeError("conditional_expectation dimension mismatch")
        for t in config.T_SAMPLES:
            phases = state.modular_phases(t)
            for b in algebra.basis:
                resid = algebra.span_residual(phases * b)
                if resid > tol:
                    raise NotExpectationError(
                        f"span is not modular-invariant at t={t}: residual {resid:.3e}")
        self.algebra = algebra
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
        coeff = solve_psd(self.gram, rhs)
        out = np.tensordot(coeff.T, self.algebra.basis, axes=1)
        return out.reshape(*lead, n, n)


def conditional_expectation(state: DiagonalState, algebra: SubalgebraBasis, x,
                            tol: float = config.TOL_NUM) -> np.ndarray:
    """One-shot ConditionalExpectation(state, algebra)(x)."""
    return ConditionalExpectation(state, algebra, tol)(x)


def verify_expectation(state: DiagonalState, algebra: SubalgebraBasis, samples: int = 8,
                       seed: int | None = None, tol: float = config.TOL_NUM) -> dict[str, float]:
    """Residuals of the expectation properties on seeded random elements:
    idempotence, bimodule, positivity and state_preservation."""
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
    return {"idempotence": idem, "bimodule": bimod, "positivity": posit,
            "state_preservation": preserve}
