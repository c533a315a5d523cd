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


def _product_residual(images, rows, cols, a: int, b: int, target) -> float:
    """max |images[a] @ images[b] - target|, the product formed on its support.

    rows and cols mark the nonzero rows and columns of each image.  The
    product vanishes outside rows[a] x cols[b], and there only the inner
    indices in cols[a] & rows[b] add to it.  The skipped terms are exact
    zeros, so this is the dense residual up to summation order.
    """
    # a full mask indexes by a view, so dense images are not copied
    r, i, c = (slice(None) if m.all() else np.flatnonzero(m)
               for m in (rows[a], cols[a] & rows[b], cols[b]))
    block = images[a][r][:, i] @ images[b][i][:, c]
    target_rows = target[r]
    return max(max_abs(block - target_rows[:, c]), max_abs(target[~rows[a]]),
               max_abs(target_rows[:, ~cols[b]]))


def _unit_product_residual(n: int, mor, images, rows, cols) -> float:
    """max |mor(e_ij) mor(e_kl) - delta_jk mor(e_il)| over all ordered unit pairs.

    images[i n + j] is mor(e_ij); rows and cols mark its nonzero rows and
    columns.  When every mor(e_ij) lives on S_i x S_j for disjoint index sets
    S_i of one size, the n^3 products with j = k are one batched matmul of
    the compact S_i x S_j blocks, and a pair with j != k shares no inner
    index, so its product is exactly zero against mor(0).  Any other support
    pattern takes each pair on its own support.
    """
    dim = images.shape[-1]
    zero = mor(np.zeros((n, n), dtype=complex))
    sets = rows[::n]  # S_i: the rows of mor(e_i0)
    sizes = sets.sum(axis=1)
    if (np.all(rows.reshape(n, n, dim) == sets[:, None]) and np.all(cols.reshape(n, n, dim) == sets)
            and np.all(sizes == sizes[0]) and sets.sum(axis=0).max() <= 1):
        idx = np.nonzero(sets)[1].reshape(n, -1)
        blocks = np.stack([images[a][np.ix_(idx[a // n], idx[a % n])] for a in range(n * n)])
        blocks = blocks.reshape(n, n, *blocks.shape[1:])
        # block_ij block_jl against block_il, for every i, j, l
        return max(max_abs(blocks[:, :, None] @ blocks[None] - blocks[:, None]), max_abs(zero))
    worst = 0.0
    for a in range(n * n):
        for b in range(n * n):
            (i, j), (k, l) = divmod(a, n), divmod(b, n)
            target = images[i * n + l] if j == k else zero
            worst = max(worst, _product_residual(images, rows, cols, a, b, target))
    return worst


def verify_morphism_markov(bundle: DilationBundle, samples: int = 10,
                           seed: int | None = None,
                           t_samples=config.T_SAMPLES) -> dict[str, MorphismReport]:
    """Check pi and rho are unital state-preserving *-morphisms intertwining
    the modular flows of the input and ambient states.

    The inputs are the matrix units (or the domain basis) and seeded random
    elements.  Every product of two images is formed only on its support,
    read from the images.  Products of unit images cover every ordered pair
    and take their targets from e_ij e_kl = delta_jk e_il, so they call
    neither pi nor rho (see _unit_product_residual); the star row on e_ij
    reuses the image of e_ji.  Pairs with a random element, and the modular
    row, compare with the morphism applied to the product.
    """
    n = bundle.input_dim
    eye_n = np.eye(n, dtype=complex)
    gen = rng(seed)
    if bundle.domain_basis is None:
        units = n * n
        xs = list(matrix_units(n))
        xs += [random_complex(gen, n) for _ in range(samples)]
    else:
        units = 0
        basis = np.stack(bundle.domain_basis)
        xs = list(basis)
        coeffs = random_complex(gen, samples, basis.shape[0])
        xs += list(np.tensordot(coeffs, basis, axes=1))

    # sigma_t on the ambient algebra is entrywise multiplication by these phases
    ambient_phases = [bundle.ambient_state.modular_phases(t) for t in t_samples]
    out = {}
    for name, mor in (("pi", bundle.pi), ("rho", bundle.rho)):
        images = np.stack([mor(x) for x in xs])
        nonzero = images != 0
        rows, cols = nonzero.any(axis=2), nonzero.any(axis=1)
        unital = max_abs(mor(eye_n) - np.eye(bundle.ambient_dim))
        star = preserve = modular = 0.0
        for a, (x, mx) in enumerate(zip(xs, images)):
            # e_ij^* = e_ji sits at index (a % n) n + a // n
            adjoint = images[(a % n) * n + a // n] if a < units else mor(dagger(x))
            star = max(star, max_abs(adjoint - dagger(mx)))
            preserve = max(preserve, abs(bundle.input_state(x) - bundle.ambient_phi(mx)))
            for t, phases in zip(t_samples, ambient_phases):
                rhs = mor(modular_conjugate(bundle.input_state, x, t))
                modular = max(modular, max_abs(phases * mx - rhs))
        mult = _unit_product_residual(n, mor, images[:units], rows[:units],
                                      cols[:units]) if units else 0.0
        for a in range(len(xs)):
            for b in range(max(a, units), len(xs)):
                mult = max(mult, _product_residual(images, rows, cols, a, b,
                                                   mor(xs[a] @ xs[b])))
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
    """Largest odd-parity component of the algebra generated by pi and rho images.

    The algebra should sit inside matrices (x) even fermion part, the fixed
    points of conjugation by P = 1 (x) parity.  That conjugation is a
    *-automorphism, so it fixes the algebra exactly when it fixes the
    generators: the residual is max |P g P - g| over the images of the matrix
    units (or of the domain basis, when set).
    """
    if bundle.rep is None:
        raise PreconditionError("bundle does not carry a fermion representation")
    xs = matrix_units(bundle.input_dim) if bundle.domain_basis is None else bundle.domain_basis
    # P is diagonal: entry (a, b) of P g P - g is (signs[a] signs[b] - 1) g_ab
    signs = np.tile(np.diagonal(bundle.rep.parity()), bundle.input_dim)
    flips = np.outer(signs, signs) - 1
    return max(max_abs(flips * mor(x)) for mor in (bundle.pi, bundle.rho) for x in xs)
