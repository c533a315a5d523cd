"""Dilation of a unital self-adjoint PSD Schur multiplier in one extra tensor leg.

Factor the symbol as t_ij = <v_i, v_j>, put the fermion algebra over the
quotient space next to the input algebra, and set

    d = sum_i e_ii (x) w(v_i),        pi(x) = x (x) 1,        rho = d pi(.) d.

d is a symmetry (self-adjoint, squares to the identity, commutes with the
ambient density), pi and rho are unital state-preserving morphisms commuting
with the modular flow, and the pair factorizes the multiplier through the
ambient state: phi(M_t(x) y) = phi~(pi(x) rho(y)).  Convex combinations of
certified maps dilate by direct sums with reweighted ambient states, and the
bilinear adjoint swaps the roles of pi and rho up to symbol transposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import config
from .condexp import word_closure
from .errors import PreconditionError, ShapeError
from .fock import FermionRep, build_fermion_rep
from .matcore import (as_square, block_conjugate, dagger, matrix_units, max_abs, random_complex,
                      rng, tensor_product)
from .schur import GramSpace, SchurSymbol, apply_multiplier, build_gram_space, certify_symbol
from .states import DiagonalState, modular_conjugate

__all__ = [
    "DilationBundle",
    "build_dilation",
    "verify_factorization",
    "verify_morphism_markov",
    "MorphismReport",
    "convex_combination_dilation",
    "star_swap_check",
    "verify_even_closure",
]


@dataclass(frozen=True)
class DilationBundle:
    """Ambient algebra data dilating one (or a convex family of) multiplier(s)."""

    input_dim: int
    ambient_dim: int
    input_state: DiagonalState
    ambient_state: DiagonalState
    d: np.ndarray
    pi: Callable[[np.ndarray], np.ndarray]
    rho: Callable[[np.ndarray], np.ndarray]
    gram: GramSpace | None = None
    rep: FermionRep | None = None
    # pi/rho may be partial: when set, their domain is the span of this basis
    domain_basis: tuple[np.ndarray, ...] | None = None

    def ambient_phi(self, x: np.ndarray) -> complex:
        return complex(np.dot(self.ambient_state.weights, np.diagonal(x)))


def build_dilation(symbol: SchurSymbol, state: DiagonalState,
                   tol: float = config.TOL_NUM) -> DilationBundle:
    """Construct the fermionic dilation bundle for a certified symbol."""
    certify_symbol(symbol, tol=tol).require()
    n = symbol.dim
    if state.dim != n:
        raise ShapeError("state dimension does not match symbol")

    gram = build_gram_space(symbol)
    rep = build_fermion_rep(gram)
    fock_dim = rep.dim
    eye_f = np.eye(fock_dim, dtype=complex)
    omegas = np.stack([rep.generator_omega(i) for i in range(n)])
    d = np.zeros((n * fock_dim, n * fock_dim), dtype=complex)
    for i in range(n):
        d[i * fock_dim : (i + 1) * fock_dim, i * fock_dim : (i + 1) * fock_dim] = omegas[i]

    def pi(x: np.ndarray) -> np.ndarray:
        return tensor_product(as_square(x, "pi argument"), eye_f)

    def rho(x: np.ndarray) -> np.ndarray:
        return block_conjugate(omegas, as_square(x, "rho argument"))

    ambient_weights = np.repeat(state.weights, fock_dim) / fock_dim
    return DilationBundle(
        input_dim=n,
        ambient_dim=n * fock_dim,
        input_state=state,
        ambient_state=DiagonalState(ambient_weights),
        d=d,
        pi=pi,
        rho=rho,
        gram=gram,
        rep=rep,
    )


def _random_pairs(n: int, samples: int, seed: int | None):
    gen = rng(seed)
    return [(random_complex(gen, n), random_complex(gen, n)) for _ in range(samples)]


def _image_pairings(state: DiagonalState, left, right, xs: np.ndarray) -> np.ndarray:
    """Table of phi~(left(x) right(y)) over all x, y in xs.

    Each image is formed once per chunk of about CHUNK_BYTES of images (once
    in all when the stack fits one chunk) and paired in O(dim^2).
    """
    count = len(xs)
    step = max(1, config.CHUNK_BYTES // (np.dtype(complex).itemsize * state.dim ** 2))
    table = np.empty((count, count), dtype=complex)
    for a in range(0, count, step):
        lefts = np.stack([left(x) for x in xs[a : a + step]])
        for b in range(0, count, step):
            rights = np.stack([right(y) for y in xs[b : b + step]])
            table[a : a + step, b : b + step] = state.pairing_table(lefts, rights)
    return table


def _pairing_residual(bundle: DilationBundle, state: DiagonalState, symbol: SchurSymbol,
                      left, right, pairs) -> float:
    """Largest |phi(M(x) y) - phi~(left(x) right(y))| over every pair of
    matrix units and the given pairs, M the multiplier of `symbol`."""
    units = matrix_units(bundle.input_dim)
    lhs = state.pairing_table(symbol.matrix * units, units)
    worst = max_abs(lhs - _image_pairings(bundle.ambient_state, left, right, units))
    for x, y in pairs:
        lhs = state(apply_multiplier(symbol, x) @ y)
        worst = max(worst, abs(lhs - bundle.ambient_state.pairing(left(x), right(y))))
    return worst


def verify_factorization(bundle: DilationBundle, symbol: SchurSymbol,
                         state: DiagonalState, samples: int = 20,
                         seed: int | None = None) -> float:
    """Largest residual of phi(M_t(x) y) = phi~(pi(x) rho(y)) over all
    matrix-unit pairs and seeded random pairs."""
    if symbol.dim != bundle.input_dim or state.dim != bundle.input_dim:
        raise ShapeError("verify_factorization dimension mismatch")
    pairs = _random_pairs(bundle.input_dim, samples, seed)
    return _pairing_residual(bundle, state, symbol, bundle.pi, bundle.rho, pairs)


@dataclass(frozen=True)
class MorphismReport:
    unital: float
    multiplicative: float
    star: float
    state_preserving: float
    modular: float

    def max_residual(self) -> float:
        return max(self.unital, self.multiplicative, self.star,
                   self.state_preserving, self.modular)


def verify_morphism_markov(bundle: DilationBundle, samples: int = 10,
                           seed: int | None = None,
                           t_samples=config.T_SAMPLES) -> dict[str, MorphismReport]:
    """Check pi and rho are unital state-preserving *-morphisms intertwining
    the modular flows of the input and ambient states."""
    n = bundle.input_dim
    eye_n = np.eye(n, dtype=complex)
    gen = rng(seed)
    if bundle.domain_basis is None:
        xs = list(matrix_units(n))
        xs += [random_complex(gen, n) for _ in range(samples)]
    else:
        basis = np.stack(bundle.domain_basis)
        xs = list(basis)
        coeffs = random_complex(gen, samples, basis.shape[0])
        xs += list(np.tensordot(coeffs, basis, axes=1))

    # sigma_t on the ambient algebra is entrywise multiplication by these phases
    ambient_phases = [bundle.ambient_state.modular_phases(t) for t in t_samples]
    out = {}
    for name, mor in (("pi", bundle.pi), ("rho", bundle.rho)):
        images = np.stack([mor(x) for x in xs])
        unital = max_abs(mor(eye_n) - np.eye(bundle.ambient_dim))
        mult = star = preserve = modular = 0.0
        for x, mx in zip(xs, images):
            star = max(star, max_abs(mor(dagger(x)) - dagger(mx)))
            preserve = max(preserve, abs(bundle.input_state(x) - bundle.ambient_phi(mx)))
            for t, phases in zip(t_samples, ambient_phases):
                rhs = mor(modular_conjugate(bundle.input_state, x, t))
                modular = max(modular, max_abs(phases * mx - rhs))
        for a in range(len(xs)):
            # images[a] @ images[b] for every b >= a, as one stacked matmul
            for b, product in enumerate(images[a] @ images[a:], start=a):
                mult = max(mult, max_abs(product - mor(xs[a] @ xs[b])))
        out[name] = MorphismReport(unital=unital, multiplicative=mult, star=star,
                                   state_preserving=preserve, modular=modular)
    return out


def convex_combination_dilation(bundles, weights) -> DilationBundle:
    """Direct-sum bundle dilating the convex combination of the dilated maps.

    All bundles must share the input algebra and input state; the ambient
    state is the weighted direct sum, so the factorization identity adds up.
    """
    bundles = list(bundles)
    w = np.asarray(weights, dtype=float).reshape(-1)
    if len(bundles) != w.size or not bundles:
        raise ShapeError("need matching nonempty bundles and weights")
    if np.any(w <= 0) or abs(w.sum() - 1.0) > config.TOL_NUM:
        raise PreconditionError("weights must be strictly positive and sum to 1")
    n = bundles[0].input_dim
    base_state = bundles[0].input_state
    for b in bundles:
        if b.input_dim != n:
            raise PreconditionError("bundles must share the input dimension")
        if max_abs(b.input_state.weights - base_state.weights) > config.TOL_NUM:
            raise PreconditionError("bundles must share the input state")

    dims = [b.ambient_dim for b in bundles]
    offsets = np.concatenate([[0], np.cumsum(dims)])
    total = int(offsets[-1])

    def embed_blocks(blocks):
        out = np.zeros((total, total), dtype=complex)
        for o, dim_b, blk in zip(offsets, dims, blocks):
            out[o : o + dim_b, o : o + dim_b] = blk
        return out

    def pi(x):
        return embed_blocks([b.pi(x) for b in bundles])

    def rho(x):
        return embed_blocks([b.rho(x) for b in bundles])

    d_total = embed_blocks([b.d for b in bundles])
    ambient_weights = np.concatenate(
        [wi * b.ambient_state.weights for wi, b in zip(w, bundles)])
    return DilationBundle(
        input_dim=n,
        ambient_dim=total,
        input_state=base_state,
        ambient_state=DiagonalState(ambient_weights),
        d=d_total,
        pi=pi,
        rho=rho,
    )


def star_swap_check(bundle: DilationBundle, symbol: SchurSymbol,
                    state: DiagonalState, samples: int = 20,
                    seed: int | None = None) -> float:
    """Largest residual of phi(adj(y) x) = phi~(rho(y) pi(x)), where adj is the
    bilinear adjoint of the multiplier (transposed symbol)."""
    if symbol.dim != bundle.input_dim or state.dim != bundle.input_dim:
        raise ShapeError("star_swap_check dimension mismatch")
    pairs = [(y, x) for x, y in _random_pairs(bundle.input_dim, samples, seed)]
    return _pairing_residual(bundle, state, SchurSymbol(symbol.matrix.T),
                             bundle.rho, bundle.pi, pairs)


def verify_even_closure(bundle: DilationBundle, tol: float = config.TOL_NUM) -> float:
    """Largest odd-parity component in the algebra generated by pi and rho images.

    The generated algebra should sit inside matrices (x) even fermion part:
    every closure element must commute with 1 (x) parity.
    """
    if bundle.rep is None:
        raise PreconditionError("bundle does not carry a fermion representation")
    n = bundle.input_dim
    units = matrix_units(n)
    gens = [bundle.pi(u) for u in units] + [bundle.rho(u) for u in units]
    algebra = word_closure(gens)
    par = tensor_product(np.eye(n, dtype=complex), bundle.rep.parity())
    worst = 0.0
    for b in algebra.basis:
        worst = max(worst, max_abs(par @ b @ par - b))
    return worst
