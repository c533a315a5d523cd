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

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import config
from .errors import PreconditionError, ShapeError, SizeError
from .fock import FermionRep, build_fermion_rep
from .matcore import (as_square, block_conjugate, dagger, direct_sum, matrix_unit, matrix_units,
                      max_abs, random_complex, rng)
from .schur import GramSpace, SchurSymbol, apply_multiplier, build_gram_space, require_symbol
from .states import DiagonalState

__all__ = [
    "DilationBundle",
    "build_dilation",
    "verify_factorization",
    "verify_morphism_markov",
    "convex_combination_dilation",
    "star_swap_check",
    "verify_even_closure",
]


@dataclass(frozen=True, eq=False)
class DilationBundle:
    """Ambient algebra data dilating one (or a convex family of) multiplier(s).

    The ambient algebra is M_n (x) M_f with the product state input_state
    (x) fiber_state.  blocks is the (n, f, f) stack of the diagonal blocks of
    the symmetry d = sum_i e_ii (x) blocks[i], so d itself is never formed.
    """

    input_state: DiagonalState
    fiber_state: DiagonalState
    blocks: np.ndarray
    pi: Callable[[np.ndarray], np.ndarray]
    rho: Callable[[np.ndarray], np.ndarray]
    gram: GramSpace | None = None
    rep: FermionRep | None = None
    ambient_state: DiagonalState = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ambient_state", DiagonalState(
            np.kron(self.input_state.weights, self.fiber_state.weights)))

    @property
    def input_dim(self) -> int:
        return self.blocks.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.blocks.shape[0] * self.blocks.shape[1]

    def ambient_phi(self, x: np.ndarray) -> complex:
        return complex(np.dot(self.ambient_state.weights, np.diagonal(x)))


def _block_bundle(state: DiagonalState, f: int, parts,
                  kind: type[DilationBundle] = DilationBundle) -> DilationBundle:
    """The bundle of `kind` over M_n (x) M_f with the product state state (x) fiber.

    parts() returns the (n, f, f) diagonal blocks of the symmetry d, the
    fiber state on M_f and the other fields of `kind`.  The fiber state alone
    holds f entries and the blocks n f^2, so parts runs only once the ambient
    dimension n f is within the dimension cap; this is the one place where
    that dimension meets the cap.  Then pi(x) = x (x) 1 and
    rho(x) = d pi(x) d on all of M_n.  pi writes x_ij on the diagonal of
    block (i, j) of a zeroed array: the entries of np.kron(x, 1) up to the
    sign of zero, without its n^2 f^2 products.
    """
    n = state.dim
    if n * f > config.dim_cap():
        raise SizeError(f"ambient dimension {n * f} exceeds cap {config.dim_cap()}")
    blocks, fiber, fields = parts()
    diagonal = np.arange(f)

    def pi(x: np.ndarray) -> np.ndarray:
        x = as_square(x, "morphism argument")
        if x.shape != (n, n):
            raise ShapeError(f"pi argument must be {n} x {n}, got shape {x.shape}")
        out = np.zeros((n, f, n, f), dtype=complex)
        out[:, diagonal, :, diagonal] = x
        return out.reshape(n * f, n * f)

    def rho(x: np.ndarray) -> np.ndarray:
        return block_conjugate(blocks, as_square(x, "morphism argument"))

    return kind(input_state=state, fiber_state=fiber, blocks=blocks, pi=pi, rho=rho, **fields)


def build_dilation(symbol: SchurSymbol, state: DiagonalState,
                   tol: float = config.TOL_NUM) -> DilationBundle:
    """Construct the fermionic dilation bundle for a symbol that is unital and
    self-adjoint within tol and PSD within TOL_PSD."""
    require_symbol(symbol, tol)
    if state.dim != symbol.dim:
        raise ShapeError("state dimension does not match symbol")
    gram = build_gram_space(symbol, tol)
    f = 1 << gram.rank

    def parts():
        rep = build_fermion_rep(gram)
        blocks = rep.omega(rep.embedding)
        return blocks, DiagonalState.tracial(f), {"gram": gram, "rep": rep}

    return _block_bundle(state, f, parts)


def _random_pairs(n: int, samples: int, seed: int | None):
    gen = rng(seed)
    return [(random_complex(gen, n), random_complex(gen, n)) for _ in range(samples)]


def _unit_blocks(n: int, mor):
    """Index sets and compact blocks of the unit images, when they fit one pattern.

    Calls mor once per matrix unit and keeps of each image only its block on
    its nonzero rows and columns, read with an exact != 0, so no ambient
    image outlives its own step.  When every mor(e_ij) lives on S_i x S_j for
    disjoint index sets S_i of one size s, returns idx, the (n, s) array
    listing each S_i, and the (n, n, s, s) blocks of mor(e_ij) on S_i x S_j.
    Otherwise None, at the first image whose support is not s x s.
    """
    rows, cols, blocks = [], [], None
    for i in range(n):
        for j in range(n):
            image = mor(matrix_unit(n, i, j))
            nonzero = image != 0
            r, c = np.flatnonzero(nonzero.any(axis=1)), np.flatnonzero(nonzero.any(axis=0))
            if blocks is None:
                blocks = np.empty((n, n, len(r), len(r)), dtype=complex)
            if not len(r) == len(c) == blocks.shape[-1]:
                return None
            blocks[i, j] = image[np.ix_(r, c)]
            rows.append(r)
            cols.append(c)
    s = blocks.shape[-1]
    rows, cols = np.array(rows).reshape(n, n, s), np.array(cols).reshape(n, n, s)
    sets = rows[:, 0]  # S_i: the rows of mor(e_i0)
    if not (np.all(rows == sets[:, None]) and np.all(cols == sets[None])
            and np.unique(sets).size == n * s):
        return None
    return sets, blocks


def _pairing_residual(bundle: DilationBundle, state: DiagonalState, symbol: SchurSymbol,
                      left, right, pairs) -> float:
    """Largest |phi(M(x) y) - phi~(left(x) right(y))| over every pair of
    matrix units and the given pairs, M the multiplier of `symbol`.

    phi(M(e_ij) e_kl) is t_ij w_i when (k, l) = (j, i) and 0 otherwise.  When
    the unit images of both legs fit one block pattern on the same index
    sets (see _unit_blocks), left(e_ij) right(e_kl) lives on S_i x S_l and
    has inner indices only when j = k, so its diagonal is exactly zero
    unless (k, l) = (j, i).  Then only those n^2 entries are formed, entry
    (i, j) as sum_a w~[a] (L_ij R_ji)_aa over a in S_i from the s x s blocks,
    and the other entries are exactly 0 on both sides.  Otherwise the
    n^2 x n^2 table is one pairing_table of the two stacks of unit images.
    The random pairs are always paired densely.
    """
    n = bundle.input_dim
    lefts = _unit_blocks(n, left)
    rights = None if lefts is None else _unit_blocks(n, right)
    if rights is not None and np.array_equal(lefts[0], rights[0]):
        idx, s = lefts[0], lefts[0].shape[1]
        weighted = lefts[1] * bundle.ambient_state.weights[idx][:, None, :, None]
        # R_ji transposed, so that each trace is one dot of two flattened blocks
        transposed = np.swapaxes(np.swapaxes(rights[1], 0, 1), -1, -2)
        traces = weighted.reshape(n * n, 1, s * s) @ transposed.reshape(n * n, s * s, 1)
        worst = max_abs(symbol.matrix * state.weights[:, None] - traces.reshape(n, n))
    else:
        units = matrix_units(n)
        lhs = state.pairing_table(symbol.matrix * units, units)
        images = [np.stack([mor(x) for x in units]) for mor in (left, right)]
        worst = max_abs(lhs - bundle.ambient_state.pairing_table(*images))
    for x, y in pairs:
        lhs = state(apply_multiplier(symbol, x) @ y)
        worst = max(worst, abs(lhs - bundle.ambient_state.pairing(left(x), right(y))))
    return worst


def verify_factorization(bundle: DilationBundle, symbol: SchurSymbol,
                         state: DiagonalState, samples: int = 20,
                         seed: int | None = None) -> float:
    """Largest residual of phi(M_t(x) y) = phi~(pi(x) rho(y)) over all
    matrix-unit pairs and seeded random pairs.

    The unit pairs are read from one compact block per unit image (see
    _pairing_residual): n^2 calls of each leg and n^2 traces of s x s block
    products, instead of n^4 pairings of ambient images.
    """
    if symbol.dim != bundle.input_dim or state.dim != bundle.input_dim:
        raise ShapeError("verify_factorization dimension mismatch")
    pairs = _random_pairs(bundle.input_dim, samples, seed)
    return _pairing_residual(bundle, state, symbol, bundle.pi, bundle.rho, pairs)


def _block_unit_residuals(bundle: DilationBundle, mor, pattern, flows) -> tuple[float, ...]:
    """Star, state-preserving, modular and multiplicative residuals of mor on
    the matrix units, read from their compact blocks (see _unit_blocks).

    Off S_i x S_j, mor(e_ij) and everything it is compared with are exactly
    zero, so each residual is its dense value:
    - star: block_ji against block_ij^*;
    - state-preserving: phi~(mor(e_ij)) sums the diagonal of S_i x S_j,
      which is empty unless i = j, against phi(e_ij) = delta_ij w_i;
    - modular: the phase (w_i / w_j)^{-it} of sigma_t(e_ij) against the
      ambient phases on S_i x S_j, for the (input, ambient) phases of flows;
    - multiplicative: block_ij block_jl against block_il for every i, j, l,
      one batched matmul per i, and mor(0) against 0.  A pair e_ij e_kl with
      j != k shares no inner index, so its product is exactly zero.
    """
    idx, blocks = pattern
    n = len(idx)
    star = max_abs(np.swapaxes(blocks, 0, 1) - dagger(blocks))
    weights = bundle.ambient_state.weights[idx]
    preserve = max(abs(bundle.input_state.weights[i]
                       - complex(np.dot(weights[i], np.diagonal(blocks[i, i]))))
                   for i in range(n))
    modular = 0.0
    for phases, ambient in flows:
        on_blocks = ambient[idx[:, None, :, None], idx[None, :, None, :]]
        modular = max(modular, max_abs((on_blocks - phases[:, :, None, None]) * blocks))
    mult = max_abs(mor(np.zeros((n, n), dtype=complex)))
    for i in range(n):
        mult = max(mult, max_abs(blocks[i][:, None] @ blocks - blocks[i]))
    return star, preserve, modular, mult


def _dense_unit_residual(n: int, mor, images, draws) -> float:
    """max |mor(e_ij) mor(x) - mor(e_ij x)| over every unit e_ij and every x
    that is a unit or one of draws, each product formed densely.

    images holds mor(e_ij) at index i n + j, followed by the images of
    draws.  This is the route for unit images that fit no block pattern.
    The targets follow from e_ij e_kl = delta_jk e_il (mor(0) when j != k)
    and e_ij y = sum_l y_jl e_il, read from the unit images.
    """
    units = n * n
    zero = mor(np.zeros((n, n), dtype=complex))
    worst = 0.0
    for a in range(units):
        i, j = divmod(a, n)
        for b in range(units):
            k, l = divmod(b, n)
            target = images[i * n + l] if j == k else zero
            worst = max(worst, max_abs(images[a] @ images[b] - target))
        for b, y in enumerate(draws, units):
            target = np.tensordot(y[j], images[i * n : (i + 1) * n], axes=1)
            worst = max(worst, max_abs(images[a] @ images[b] - target))
    return worst


def _unit_sample_residual(n: int, images, pattern, b: int, y) -> float:
    """max |mor(e_ij) mor(y) - sum_l y_jl mor(e_il)| over all units e_ij.

    images[b] is mor(y); the target is mor(e_ij y) by linearity, read from
    the unit blocks of the pattern (see _unit_blocks).  mor(e_ij) mor(y) is
    block_ij times rows S_j of mor(y), and the target is y_jl block_il in
    columns S_l, both on rows S_i: the n products of one row block i are one
    batched matmul, and outside rows S_i both sides are exactly zero.  The
    columns of mor(y) are taken in the order S_0, ..., S_{n-1} and then any
    others, where the target is zero.
    """
    idx, blocks = pattern
    s = idx.shape[1]
    order = np.concatenate([idx.reshape(-1), np.setdiff1d(np.arange(images.shape[-1]), idx)])
    y_rows = images[b][idx][:, :, order]
    worst = 0.0
    for i in range(n):
        defect = blocks[i] @ y_rows
        # entry (j, a, l, c) of the target is y_jl block_il[a, c]
        defect[..., : n * s] -= (y[:, None, :, None] * np.swapaxes(blocks[i], 0, 1)).reshape(
            n, s, n * s)
        worst = max(worst, max_abs(defect))
    return worst


def _leg_residuals(bundle: DilationBundle, mor, draws: list, flows) -> dict[str, float]:
    """The residuals of verify_morphism_markov for one leg mor, keyed by property.

    draws holds the random elements; flows pairs the input and ambient
    phases of each sampled t.  The arrays of one leg are released before
    the other leg's are formed.
    """
    n, dim = bundle.input_dim, bundle.ambient_dim
    pattern = _unit_blocks(n, mor)
    # without a pattern the unit images lead the dense stack
    units = list(matrix_units(n)) if pattern is None else []
    xs = units + draws
    images = np.empty((len(xs), dim, dim), dtype=complex)
    for a, x in enumerate(xs):
        images[a] = mor(x)
    unital = max_abs(mor(np.eye(n, dtype=complex)) - np.eye(dim))
    if pattern is None:
        star = preserve = modular = 0.0
        mult = _dense_unit_residual(n, mor, images, draws)
    else:
        star, preserve, modular, mult = _block_unit_residuals(bundle, mor, pattern, flows)
        for b, y in enumerate(draws):
            mult = max(mult, _unit_sample_residual(n, images, pattern, b, y))
    for x, mx in zip(xs, images):
        star = max(star, max_abs(mor(dagger(x)) - dagger(mx)))
        preserve = max(preserve, abs(bundle.input_state(x) - bundle.ambient_phi(mx)))
        for phases, ambient in flows:
            modular = max(modular, max_abs(ambient * mx - mor(phases * x)))
    for a in range(len(units), len(xs)):
        for b in range(a, len(xs)):
            mult = max(mult, max_abs(images[a] @ images[b] - mor(xs[a] @ xs[b])))
    return {"unital": unital, "multiplicative": mult, "star": star,
            "state_preserving": preserve, "modular": modular}


def verify_morphism_markov(bundle: DilationBundle, samples: int = 10,
                           seed: int | None = None) -> dict[str, float]:
    """Residuals of pi and rho being unital state-preserving *-morphisms
    intertwining the modular flows of the input and ambient states.

    Keys are "<leg>_<property>" for leg pi or rho and property unital,
    multiplicative, star, state_preserving or modular; the flows are
    sampled at config.T_SAMPLES.

    The inputs are the matrix units and seeded random elements.  When the
    unit images of a leg fit one block pattern (see _unit_blocks), as they
    do for every bundle built here, every unit row is read from their
    compact blocks (_block_unit_residuals) and the unit x sample products
    from the blocks and the sample images (_unit_sample_residual), so a
    unit calls the leg only for its own image, and the dense stack holds
    only the sample images.  Otherwise (hand-built legs) the unit images
    lead that stack, every product is formed densely and the unit products
    are compared with targets read from the unit images
    (_dense_unit_residual).  Products of two random elements, and the
    adjoints and modular images of every stacked element, go through the
    morphism.
    """
    n = bundle.input_dim
    gen = rng(seed)
    draws = [random_complex(gen, n) for _ in range(samples)]
    # sigma_t on either algebra is entrywise multiplication by these phases
    flows = [(bundle.input_state.modular_phases(t), bundle.ambient_state.modular_phases(t))
             for t in config.T_SAMPLES]
    return {f"{name}_{key}": residual
            for name, mor in (("pi", bundle.pi), ("rho", bundle.rho))
            for key, residual in _leg_residuals(bundle, mor, draws, flows).items()}


def convex_combination_dilation(bundles, weights) -> DilationBundle:
    """Direct-sum bundle dilating the convex combination of the dilated maps.

    All bundles must share the input algebra and input state; the fiber state
    is the weighted direct sum, so the factorization identity adds up.  The
    sum is a plain block bundle over all of M_n.
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

    def parts():
        # block i of the sum is the direct sum of the bundles' blocks i, so the
        # ambient algebra is M_n (x) (F_1 + F_2 + ...) with the reweighted fibers
        blocks = np.stack([direct_sum([b.blocks[i] for b in bundles]) for i in range(n)])
        fiber = np.concatenate([wi * b.fiber_state.weights for wi, b in zip(w, bundles)])
        return blocks, DiagonalState(fiber), {}

    return _block_bundle(base_state, sum(b.fiber_state.dim for b in bundles), parts)


def star_swap_check(bundle: DilationBundle, symbol: SchurSymbol,
                    state: DiagonalState, samples: int = 20,
                    seed: int | None = None) -> float:
    """Largest residual of phi(adj(y) x) = phi~(rho(y) pi(x)), where adj is the
    bilinear adjoint of the multiplier (transposed symbol).

    Matrix-unit pairs and seeded random pairs are taken as in
    verify_factorization, with the legs swapped: the unit pairs from one
    compact block per unit image (see _pairing_residual).
    """
    if symbol.dim != bundle.input_dim or state.dim != bundle.input_dim:
        raise ShapeError("star_swap_check dimension mismatch")
    pairs = [(y, x) for x, y in _random_pairs(bundle.input_dim, samples, seed)]
    return _pairing_residual(bundle, state, SchurSymbol(symbol.matrix.T),
                             bundle.rho, bundle.pi, pairs)


def verify_even_closure(bundle: DilationBundle) -> float:
    """Largest odd-parity component of the algebra generated by pi and rho images.

    The algebra should sit inside matrices (x) even fermion part, the fixed
    points of conjugation by P = 1 (x) parity.  That conjugation is a
    *-automorphism, so it fixes the algebra exactly when it fixes the
    generators: the residual is max |P g P - g| over the images of the matrix
    units.
    """
    if bundle.rep is None:
        raise PreconditionError("bundle does not carry a fermion representation")
    # P is diagonal: entry (a, b) of P g P - g is (signs[a] signs[b] - 1) g_ab
    signs = np.tile(np.diagonal(bundle.rep.parity()), bundle.input_dim)
    flips = np.outer(signs, signs) - 1
    return max(max_abs(flips * mor(x)) for mor in (bundle.pi, bundle.rho)
               for x in matrix_units(bundle.input_dim))
