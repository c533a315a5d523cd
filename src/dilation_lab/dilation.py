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

import numpy as np

from . import config
from .errors import PreconditionError, ShapeError, SizeError
from .fock import FermionRep, _require_bytes, build_fermion_rep
from .matcore import as_square, block_conjugate, dagger, direct_sum, max_abs, random_complex, rng
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
    The blocks determine both legs on all of M_n: pi(x) = x (x) 1 and
    rho(x) = d pi(x) d.  So leg(e_ij) is zero off block (i, j), that is off
    S_i x S_j for the index sets S_i = i f, ..., (i + 1) f - 1, and on it
    pi(e_ij) is the identity and rho(e_ij) is blocks[i] blocks[j].
    """

    input_state: DiagonalState
    fiber_state: DiagonalState
    blocks: np.ndarray
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

    def pi(self, x: np.ndarray) -> np.ndarray:
        """x (x) 1: x_ij on the diagonal of block (i, j) of a zeroed array, the
        entries of np.kron(x, 1) up to the sign of zero, without its n^2 f^2
        products."""
        n, f, _ = self.blocks.shape
        x = as_square(x, "morphism argument")
        if x.shape != (n, n):
            raise ShapeError(f"pi argument must be {n} x {n}, got shape {x.shape}")
        out = np.zeros((n, f, n, f), dtype=complex)
        diagonal = np.arange(f)
        out[:, diagonal, :, diagonal] = x
        return out.reshape(n * f, n * f)

    def rho(self, x: np.ndarray) -> np.ndarray:
        """d (x (x) 1) d, block by block (matcore.block_conjugate)."""
        return block_conjugate(self.blocks, as_square(x, "morphism argument"))


def _block_bundle(state: DiagonalState, f: int, parts,
                  kind: type[DilationBundle] = DilationBundle) -> DilationBundle:
    """The bundle of `kind` over M_n (x) M_f with the product state state (x) fiber.

    parts() returns the (n, f, f) diagonal blocks of the symmetry d, the
    fiber state on M_f and the other fields of `kind`.  The fiber state alone
    holds f entries and the blocks n f^2, so parts runs only once the ambient
    dimension n f is within the dimension cap; this is the one place where
    that dimension meets the cap.  The blocks are all the bundle needs for
    its legs (see DilationBundle).
    """
    n = state.dim
    if n * f > config.dim_cap():
        raise SizeError(f"ambient dimension {n * f} exceeds cap {config.dim_cap()}")
    blocks, fiber, fields = parts()
    return kind(input_state=state, fiber_state=fiber, blocks=blocks, **fields)


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
    """samples seeded pairs of random n x n matrices, refused over the byte cap
    before any is drawn."""
    _require_bytes(f"a sample stack of {samples} pairs of {n} x {n} matrices", 2 * samples * n * n)
    gen = rng(seed)
    return [(random_complex(gen, n), random_complex(gen, n)) for _ in range(samples)]


def _leg(bundle: DilationBundle, name: str):
    """The leg `name` ("pi" or "rho") of bundle, and the (n, n, f, f) stack of
    its unit images on their blocks: leg(e_ij) is this block on S_i x S_j and
    zero elsewhere (see DilationBundle).  The rho blocks are the products that
    block_conjugate forms for the units; the pi blocks are one identity."""
    n, f, _ = bundle.blocks.shape
    if name == "pi":
        return bundle.pi, np.broadcast_to(np.eye(f, dtype=complex), (n, n, f, f))
    return bundle.rho, bundle.blocks[:, None] @ bundle.blocks[None]


def _pairing_residual(bundle: DilationBundle, state: DiagonalState, symbol: SchurSymbol,
                      left, right, pairs) -> float:
    """Largest |phi(M(x) y) - phi~(left(x) right(y))| over every pair of
    matrix units and the given pairs, M the multiplier of `symbol`; left and
    right are legs with their unit blocks (see _leg).

    phi(M(e_ij) e_kl) is t_ij w_i when (k, l) = (j, i) and 0 otherwise.
    left(e_ij) right(e_kl) lives on S_i x S_l and has inner indices only when
    j = k, so its diagonal is exactly zero unless (k, l) = (j, i).  So only
    those n^2 entries are formed, entry (i, j) as sum_a w~[a] (L_ij R_ji)_aa
    over a in S_i from the f x f blocks, and the other entries are exactly 0
    on both sides.  The random pairs are paired densely.
    """
    n, f, _ = bundle.blocks.shape
    (left_leg, lefts), (right_leg, rights) = left, right
    weighted = lefts * bundle.ambient_state.weights.reshape(n, 1, f, 1)
    # R_ji transposed, so that each trace is one dot of two flattened blocks
    transposed = np.swapaxes(np.swapaxes(rights, 0, 1), -1, -2)
    traces = weighted.reshape(n * n, 1, f * f) @ transposed.reshape(n * n, f * f, 1)
    worst = max_abs(symbol.matrix * state.weights[:, None] - traces.reshape(n, n))
    for x, y in pairs:
        lhs = state(apply_multiplier(symbol, x) @ y)
        worst = max(worst, abs(lhs - bundle.ambient_state.pairing(left_leg(x), right_leg(y))))
    return worst


def verify_factorization(bundle: DilationBundle, symbol: SchurSymbol,
                         state: DiagonalState, samples: int = 20,
                         seed: int | None = None) -> float:
    """Largest residual of phi(M_t(x) y) = phi~(pi(x) rho(y)) over all
    matrix-unit pairs and seeded random pairs.

    The unit pairs are read from the unit blocks of the legs (see
    _pairing_residual): n^2 traces of f x f block products, and no call of
    either leg.  Sample pairs over config.BYTE_CAP are refused before any is
    drawn.
    """
    if symbol.dim != bundle.input_dim or state.dim != bundle.input_dim:
        raise ShapeError("verify_factorization dimension mismatch")
    pairs = _random_pairs(bundle.input_dim, samples, seed)
    return _pairing_residual(bundle, state, symbol, _leg(bundle, "pi"), _leg(bundle, "rho"),
                             pairs)


def _block_unit_residuals(bundle: DilationBundle, mor, blocks, flows) -> tuple[float, ...]:
    """Star, state-preserving, modular and multiplicative residuals of mor on
    the matrix units, read from their blocks (see _leg).

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
    n, f = blocks.shape[0], blocks.shape[-1]
    star = max_abs(np.swapaxes(blocks, 0, 1) - dagger(blocks))
    weights = bundle.ambient_state.weights.reshape(n, f)
    preserve = max(abs(bundle.input_state.weights[i]
                       - complex(np.dot(weights[i], np.diagonal(blocks[i, i]))))
                   for i in range(n))
    modular = 0.0
    for phases, ambient in flows:
        on_blocks = np.swapaxes(ambient.reshape(n, f, n, f), 1, 2)
        modular = max(modular, max_abs((on_blocks - phases[:, :, None, None]) * blocks))
    mult = max_abs(mor(np.zeros((n, n), dtype=complex)))
    for i in range(n):
        mult = max(mult, max_abs(blocks[i][:, None] @ blocks - blocks[i]))
    return star, preserve, modular, mult


def _unit_sample_residual(image: np.ndarray, blocks: np.ndarray, y: np.ndarray) -> float:
    """max |mor(e_ij) mor(y) - sum_l y_jl mor(e_il)| over all units e_ij.

    image is mor(y) and blocks the unit blocks of mor (see _leg); the target
    is mor(e_ij y) by linearity, read from the blocks.  mor(e_ij) mor(y) is
    block_ij times rows S_j of mor(y), and the target is y_jl block_il in
    columns S_l, both on rows S_i: the n products of one row block i are one
    batched matmul, and outside rows S_i both sides are exactly zero.
    """
    n, f = blocks.shape[0], blocks.shape[-1]
    y_rows = image.reshape(n, f, n * f)
    worst = 0.0
    for i in range(n):
        defect = blocks[i] @ y_rows
        # entry (j, a, l, c) of the target is y_jl block_il[a, c]
        defect -= (y[:, None, :, None] * np.swapaxes(blocks[i], 0, 1)).reshape(n, f, n * f)
        worst = max(worst, max_abs(defect))
    return worst


def _leg_residuals(bundle: DilationBundle, mor, blocks, draws: list,
                   flows) -> dict[str, float]:
    """The residuals of verify_morphism_markov for one leg mor with unit
    blocks `blocks`, keyed by property.

    draws holds the random elements; flows pairs the input and ambient
    phases of each sampled t.  The arrays of one leg are released before
    the other leg's are formed.
    """
    n, dim = bundle.input_dim, bundle.ambient_dim
    images = np.empty((len(draws), dim, dim), dtype=complex)
    for a, x in enumerate(draws):
        images[a] = mor(x)
    unital = max_abs(mor(np.eye(n, dtype=complex)) - np.eye(dim))
    star, preserve, modular, mult = _block_unit_residuals(bundle, mor, blocks, flows)
    for x, mx in zip(draws, images):
        mult = max(mult, _unit_sample_residual(mx, blocks, x))
        star = max(star, max_abs(mor(dagger(x)) - dagger(mx)))
        preserve = max(preserve, abs(bundle.input_state(x) - bundle.ambient_phi(mx)))
        for phases, ambient in flows:
            modular = max(modular, max_abs(ambient * mx - mor(phases * x)))
    for a in range(len(draws)):
        for b in range(a, len(draws)):
            mult = max(mult, max_abs(images[a] @ images[b] - mor(draws[a] @ draws[b])))
    return {"unital": unital, "multiplicative": mult, "star": star,
            "state_preserving": preserve, "modular": modular}


def verify_morphism_markov(bundle: DilationBundle, samples: int = 10,
                           seed: int | None = None) -> dict[str, float]:
    """Residuals of pi and rho being unital state-preserving *-morphisms
    intertwining the modular flows of the input and ambient states.

    Keys are "<leg>_<property>" for leg pi or rho and property unital,
    multiplicative, star, state_preserving or modular; the flows are
    sampled at config.T_SAMPLES.

    The inputs are the matrix units and seeded random elements.  Every unit
    row is read from the unit blocks of the leg (_block_unit_residuals, see
    _leg), and the unit x sample products from the blocks and the sample
    images (_unit_sample_residual), so no unit calls a leg, and the dense
    stack holds only the sample images; a stack over config.BYTE_CAP is
    refused before any sample is drawn.  Products of two random elements,
    and the adjoints and modular images of the random elements, go through
    the morphism.
    """
    n, dim = bundle.input_dim, bundle.ambient_dim
    _require_bytes(f"a sample stack of {samples} images of dimension {dim}", samples * dim * dim)
    gen = rng(seed)
    draws = [random_complex(gen, n) for _ in range(samples)]
    # sigma_t on either algebra is entrywise multiplication by these phases
    flows = [(bundle.input_state.modular_phases(t), bundle.ambient_state.modular_phases(t))
             for t in config.T_SAMPLES]
    return {f"{name}_{key}": residual
            for name in ("pi", "rho")
            for key, residual in _leg_residuals(bundle, *_leg(bundle, name), draws,
                                                flows).items()}


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
    verify_factorization, with the legs swapped: the unit pairs from the
    unit blocks of the legs (see _pairing_residual).
    """
    if symbol.dim != bundle.input_dim or state.dim != bundle.input_dim:
        raise ShapeError("star_swap_check dimension mismatch")
    pairs = [(y, x) for x, y in _random_pairs(bundle.input_dim, samples, seed)]
    return _pairing_residual(bundle, state, SchurSymbol(symbol.matrix.T),
                             _leg(bundle, "rho"), _leg(bundle, "pi"), pairs)


def verify_even_closure(bundle: DilationBundle) -> float:
    """Largest odd-parity component of the algebra generated by pi and rho images.

    The algebra should sit inside matrices (x) even fermion part, the fixed
    points of conjugation by P = 1 (x) parity.  That conjugation is a
    *-automorphism, so it fixes the algebra exactly when it fixes the
    generators: the residual is max |P g P - g| over the images of the matrix
    units, read from their blocks (see _leg).
    """
    if bundle.rep is None:
        raise PreconditionError("bundle does not carry a fermion representation")
    # P is diagonal with the same signs on every S_i: entry (a, b) of block
    # (i, j) of P g P - g is (signs[a] signs[b] - 1) g_ab
    signs = np.diagonal(bundle.rep.parity())
    flips = np.outer(signs, signs) - 1
    return max(max_abs(flips * _leg(bundle, name)[1]) for name in ("pi", "rho"))
