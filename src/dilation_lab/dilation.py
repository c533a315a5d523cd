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

A bundle holds the Clifford coefficients of its blocks, so it lies in
M_n (x) C for C the Clifford algebra of the fields by construction (see
_synthesize), and the verifiers read every row on its vacuum columns
without forming an ambient image.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import config
from .errors import PreconditionError, ShapeError, SizeError
from .fock import (FermionRep, _field_polynomial, _require_bytes, _reversal_sign,
                   build_fermion_rep)
from .matcore import as_square, block_conjugate, dagger, max_abs, random_complex, rng
from .schur import GramSpace, SchurSymbol, build_gram_space, require_symbol
from .states import DiagonalState

__all__ = [
    "DilationBundle",
    "build_dilation",
    "verify_factorization",
    "verify_morphism_markov",
    "convex_combination_dilation",
    "star_swap_check",
    "verify_even_closure",
    "verify_symmetry",
]


@dataclass(frozen=True, eq=False)
class DilationBundle:
    """Ambient algebra data dilating one (or a convex family of) multiplier(s).

    The ambient algebra is M_n (x) M_f with the product state input_state
    (x) fiber_state, and the symmetry d = sum_i e_ii (x) blocks[i] is never
    formed.  coefficients is the (n, f) stack of the blocks' vacuum columns,
    which fix them: each lies in the Clifford algebra of the fields.  fibers
    lists the sizes of the fiber's summands, one per dilated map.
    __post_init__ refuses n f over the dimension cap, then sets blocks and
    vacuum by _synthesize.  The blocks determine both legs on all of M_n:
    pi(x) = x (x) 1 and rho(x) = d pi(x) d.
    """

    input_state: DiagonalState
    fiber_state: DiagonalState
    coefficients: np.ndarray
    fibers: tuple[int, ...]
    gram: GramSpace | None = None
    rep: FermionRep | None = None
    ambient_state: DiagonalState = field(init=False)
    blocks: np.ndarray = field(init=False, repr=False)
    vacuum: _Vacuum = field(init=False, repr=False)

    def __post_init__(self):
        coefficients = np.asarray(self.coefficients, dtype=complex)
        n, f = coefficients.shape
        if sum(self.fibers) != f or self.fiber_state.dim != f:
            raise ShapeError(f"fibers {self.fibers} and fiber state of dimension "
                             f"{self.fiber_state.dim} do not match {f} coefficients")
        if n * f > config.dim_cap():
            raise SizeError(f"ambient dimension {n * f} exceeds cap {config.dim_cap()}")
        object.__setattr__(self, "coefficients", coefficients)
        blocks, vacuum = _synthesize(self)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "vacuum", vacuum)
        object.__setattr__(self, "ambient_state", DiagonalState(
            np.kron(self.input_state.weights, self.fiber_state.weights)))

    @property
    def input_dim(self) -> int:
        return self.coefficients.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.coefficients.size

    def pi(self, x: np.ndarray) -> np.ndarray:
        """x (x) 1: x_ij on the diagonal of block (i, j) of a zeroed array, the
        entries of np.kron(x, 1) up to the sign of zero, without its n^2 f^2
        products."""
        n, f = self.coefficients.shape
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


def build_dilation(symbol: SchurSymbol, state: DiagonalState,
                   tol: float = config.TOL_NUM) -> DilationBundle:
    """Construct the fermionic dilation bundle for a symbol that is unital and
    self-adjoint within tol and PSD within TOL_PSD: block i is the field
    w(v_i) of Gram row i."""
    require_symbol(symbol, tol)
    if state.dim != symbol.dim:
        raise ShapeError("state dimension does not match symbol")
    gram = build_gram_space(symbol, tol)
    rep = build_fermion_rep(gram)
    return DilationBundle(input_state=state, fiber_state=DiagonalState.tracial(rep.dim),
                          coefficients=_field_coefficients(gram.embedding), fibers=(rep.dim,),
                          gram=gram, rep=rep)


@dataclass(frozen=True, eq=False)
class _Leg:
    """A leg on column stacks (n, f, K, n), the columns of element b at
    [:, :, b, :].  leg(x) has the columns x_ik units[i, :, k], and acts by
    fields[j] on block row j, x across the block rows, then fields[i] on
    row i (pi has no fields): O(n f^2 + n^2 f) per column."""

    units: np.ndarray
    fields: np.ndarray | None

    def columns(self, xs: np.ndarray) -> np.ndarray:
        """The column stack of leg(x) for each x in the stack xs (K, n, n)."""
        return np.moveaxis(xs, 0, 1)[:, None] * self.units[:, :, None]

    def _fields(self, cols: np.ndarray, i=slice(None)) -> np.ndarray:
        """fields[j] (or fields[i]) on every block row j: one GEMM per row."""
        if self.fields is None:
            return cols
        n, f = cols.shape[:2]
        return (self.fields[i] @ cols.reshape(n, f, -1)).reshape(cols.shape)

    def apply(self, xs: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """leg(x) on a column stack: one x (n, n) on every element, or x_b on
        element b for a stack xs (K, n, n)."""
        cols = self._fields(cols)
        if xs.ndim == 2:
            return self._fields((xs @ cols.reshape(len(xs), -1)).reshape(cols.shape))
        return self._fields(np.einsum("bij,jabk->iabk", xs, cols))

    def unit_products(self, ys: np.ndarray, cols: np.ndarray) -> float:
        """max |leg(e_ij) leg(y) - leg(e_ij y)| over the units and each y in ys
        with columns cols: on block row i, fields[i] fields[j] cols[j] against
        y_jk units[i, :, k]; the other rows are 0 on both sides."""
        rows, by_row = self._fields(cols), np.moveaxis(ys, 0, 1)[:, None]
        return max(max_abs(self._fields(rows, i) - by_row * units[:, None])
                   for i, units in enumerate(self.units))


@dataclass(frozen=True, eq=False)
class _Vacuum:
    """A bundle's vacuum-column data (see _synthesize): the input weights mu, the
    weight nu[a] of the summand whose vacuum is fiber index a (else 0), the
    popcount |S| of each fiber index S in its summand, and the two legs."""

    weights: np.ndarray
    nu: np.ndarray
    popcount: np.ndarray
    pi: _Leg
    rho: _Leg

    def state(self, cols: np.ndarray) -> np.ndarray:
        """phi~ of each element of a column stack: sum_i mu_i nu . V[i, :, b, i]."""
        return np.einsum("i,a,iabi->b", self.weights, self.nu, cols)

    def adjoint(self, cols: np.ndarray) -> np.ndarray:
        """The column stack of the adjoints: block (k, i) adjoint at (i, k), and
        (sum_S c_S gamma_S)^* = sum_S conj(c_S) (-1)^(|S|(|S|-1)/2) gamma_S."""
        return _reversal_sign(self.popcount)[:, None, None] * np.conj(np.swapaxes(cols, 0, 3))


def _field_coefficients(vectors: np.ndarray) -> np.ndarray:
    """The coefficient stack of the fields w(v) for the rows v of vectors
    (n, r): w(f_k) Omega = e_(2^k), so v_k sits at index 2^k of 2^r."""
    n, rank = vectors.shape
    out = np.zeros((n, 1 << rank), dtype=complex)
    out[:, 1 << np.arange(rank)] = vectors
    return out


def _synthesize(bundle: DilationBundle) -> tuple[np.ndarray, _Vacuum]:
    """The (n, f, f) blocks of bundle and its vacuum-column data, from its
    coefficients once the premise is checked (by DilationBundle.__post_init__,
    so once per bundle).

    Premise: each fiber summand has size 2^r and a tracial fiber state, else
    PreconditionError.  On a summand, block i is sum_S c_S gamma_S for its
    coefficients c there and the ordered field products gamma_S
    (fock._field_polynomial), and 0 off the summands.  So every block lies in
    the Clifford algebra C of the fields, phi~ is the weighted vacuum state on
    M_n (x) C, and gamma_S Omega = e_S makes a -> a Omega isometric in max-abs.
    """
    coefficients, weights = bundle.coefficients, bundle.fiber_state.weights
    n, f = coefficients.shape
    blocks = np.zeros((n, f, f), dtype=complex)
    omega, nu, local = np.zeros(f), np.zeros(f), np.zeros(f, dtype=np.int64)
    start = 0
    for size in bundle.fibers:
        rank, part = size.bit_length() - 1, slice(start, start + size)
        if size != 1 << rank or np.ptp(weights[part]) > config.TOL_EXACT:
            raise PreconditionError(f"fiber summand of size {size} at {start} is not a "
                                    "Fock space with its tracial state")
        blocks[:, part, part] = _field_polynomial(coefficients[:, part])
        omega[start], nu[start], local[part] = 1.0, weights[part].sum(), np.arange(size)
        start += size
    # rho's unit columns U[i, :, k] = w_i (w_k Omega) = w_i c_k: n^2 f^2, not n^2 f^3
    return blocks, _Vacuum(bundle.input_state.weights, nu, np.bitwise_count(local).astype(int),
                           _Leg(np.broadcast_to(omega[:, None], (n, f, n)), None),
                           _Leg(blocks @ coefficients.T, blocks))


def verify_symmetry(bundle: DilationBundle) -> dict[str, float]:
    """Residuals of d = sum_i e_ii (x) blocks[i] being self-adjoint and squaring to 1 on
    vacuum columns Omega (see _synthesize): max |b[:, Omega] - conj(b[Omega, :])| is the
    dense value to the bit, and max |b (b Omega) - Omega| (rho's units) up to rounding."""
    blocks, vac = bundle.blocks, bundle.vacuum
    omega, squares = vac.pi.units[0, :, 0], np.diagonal(vac.rho.units, 0, 0, 2).T
    adjoint = np.conj(np.swapaxes(blocks[:, omega != 0], 1, 2))
    return {"self_adjoint": max_abs(blocks[:, :, omega != 0] - adjoint),
            "squares_to_identity": max_abs(squares - omega)}


def _draws(bundle: DilationBundle, count: int, seed: int | None) -> np.ndarray:
    """count seeded random n x n matrices, refused before any is drawn when
    they and their vacuum columns would pass config.BYTE_CAP."""
    n = bundle.input_dim
    _require_bytes(f"a sample stack of {count} random {n} x {n} matrices and their columns",
                   count * n * (n + bundle.ambient_dim))
    gen = rng(seed)
    return np.array([random_complex(gen, n) for _ in range(count)],
                    dtype=complex).reshape(count, n, n)


def _unit_pairing(vac: _Vacuum, left: _Leg, right: _Leg) -> np.ndarray:
    """P[i, j] = phi~(left(e_ij) right(e_ji)) = mu_i nu . L_i L_j
    right.units[j, :, i] for the fields L of left.  phi~(left(e_ij)
    right(e_kl)) is exactly 0 unless (k, l) = (j, i): the product sits in
    block (i, l), and phi~ reads the diagonal blocks only."""
    # z[i, j] = right.units[j, :, i], the column of right(e_ji)
    z = np.moveaxis(right.units, 2, 0)
    if left.fields is not None:
        z = (left.fields[:, None] @ (left.fields[None] @ z[..., None]))[..., 0]
    return vac.weights[:, None] * (z @ vac.nu)


def _pairing_residual(bundle: DilationBundle, t: np.ndarray, state: DiagonalState,
                      samples: int, seed: int | None, swap: bool) -> float:
    """Largest |phi(M(x) y) - phi~(left(x) right(y))| over every pair of
    matrix units (the table P of _unit_pairing against t_ij mu_i) and
    seeded random pairs, M the multiplier of the symbol t and (left, right)
    = (pi, rho), or (rho, pi) with each pair's draws swapped if swap.  A
    random pair is left(x) applied to the columns of right(y)."""
    if t.shape[0] != bundle.input_dim or state.dim != bundle.input_dim:
        raise ShapeError("symbol, state and bundle dimensions do not match")
    vac, draws = bundle.vacuum, _draws(bundle, 2 * samples, seed)
    left, right = (vac.rho, vac.pi) if swap else (vac.pi, vac.rho)
    xs, ys = (draws[1::2], draws[0::2]) if swap else (draws[0::2], draws[1::2])
    worst = max_abs(t * state.weights[:, None] - _unit_pairing(vac, left, right))
    lhs = np.einsum("i,kii->k", state.weights, (t * xs) @ ys)
    return max(worst, max_abs(lhs - vac.state(left.apply(xs, right.columns(ys)))))


def verify_factorization(bundle: DilationBundle, symbol: SchurSymbol,
                         state: DiagonalState, samples: int = 20,
                         seed: int | None = None) -> float:
    """Largest residual of phi(M_t(x) y) = phi~(pi(x) rho(y)) over all
    matrix-unit pairs and seeded random pairs, on vacuum columns (see
    _pairing_residual); samples over config.BYTE_CAP are refused first."""
    return _pairing_residual(bundle, symbol.matrix, state, samples, seed, swap=False)


def verify_morphism_markov(bundle: DilationBundle, samples: int = 10,
                           seed: int | None = None) -> dict[str, float]:
    """Residuals of pi and rho being unital state-preserving *-morphisms
    intertwining the modular flows of the input and ambient states.

    Keys are "<leg>_<property>" for leg pi or rho and property unital,
    multiplicative, star, state_preserving or modular; the flows are
    sampled at config.T_SAMPLES.  The inputs are the matrix units and seeded
    random elements, read on vacuum columns without a leg call; a sample
    stack over config.BYTE_CAP is refused before any draw.
    """
    vac = bundle.vacuum
    draws = _draws(bundle, samples, seed)
    phases = [bundle.input_state.modular_phases(t) for t in config.T_SAMPLES]
    reports = {}
    for name, leg in (("pi", vac.pi), ("rho", vac.rho)):
        units, cols = leg.units[:, :, None], leg.columns(draws)
        # the all-ones y first: its columns are the unit columns, so its rows
        # are the unit x unit products e_ij e_jl
        mult = leg.unit_products(np.concatenate([np.ones((1, *draws.shape[1:])), draws]),
                                 np.concatenate([units, cols], axis=2))
        for a, x in enumerate(draws):
            # x_a x_b for every b >= a: one application to the stacked columns
            mult = max(mult, max_abs(leg.apply(x, cols[:, :, a:]) - leg.columns(x @ draws[a:])))
        # the column of leg(e_ii) at block (i, i), against Omega for 1 (x) 1
        diagonal = np.swapaxes(np.diagonal(leg.units, axis1=0, axis2=2), 0, 1)
        preserve = np.einsum("i,kii->k", vac.weights, draws) - vac.state(cols)
        # sigma_t of the ambient state multiplies block (i, k) by the phase
        # (i, k) on M_n (tracial fibers), so a unit's two sides agree exactly
        modular = [max_abs(p[:, None, None, :] * cols - leg.columns(p * draws)) for p in phases]
        reports.update({
            f"{name}_unital": max_abs(diagonal - vac.pi.units[0, :, 0]),
            f"{name}_multiplicative": mult,
            f"{name}_star": max(max_abs(vac.adjoint(units) - units),
                                max_abs(leg.columns(dagger(draws)) - vac.adjoint(cols))),
            f"{name}_state_preserving": max(max_abs(vac.weights * (1.0 - diagonal @ vac.nu)),
                                            max_abs(preserve)),
            f"{name}_modular": max(modular)})
    return reports


def convex_combination_dilation(bundles, weights) -> DilationBundle:
    """Direct-sum bundle dilating the convex combination of the dilated maps.

    All bundles must share the input algebra and input state; the fiber state
    is the weighted direct sum, so the factorization identity adds up.  The
    sum's coefficients are the bundles' side by side, so block i is the
    direct sum of their blocks i, and its fibers are theirs in order.
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
    return DilationBundle(
        input_state=base_state,
        fiber_state=DiagonalState(np.concatenate([wi * b.fiber_state.weights
                                                  for wi, b in zip(w, bundles)])),
        coefficients=np.concatenate([b.coefficients for b in bundles], axis=1),
        fibers=sum((b.fibers for b in bundles), ()))


def star_swap_check(bundle: DilationBundle, symbol: SchurSymbol,
                    state: DiagonalState, samples: int = 20,
                    seed: int | None = None) -> float:
    """Largest residual of phi(adj(y) x) = phi~(rho(y) pi(x)), where adj is the
    bilinear adjoint of the multiplier (transposed symbol).

    Matrix-unit pairs and seeded random pairs are taken as in
    verify_factorization, with the legs swapped (see _pairing_residual).
    """
    return _pairing_residual(bundle, symbol.matrix.T, state, samples, seed, swap=True)


def verify_even_closure(bundle: DilationBundle) -> float:
    """Largest odd-parity component of the algebra generated by pi and rho images.

    The algebra should sit inside matrices (x) even fermion part, the fixed
    points of conjugation by the *-automorphism P = 1 (x) parity, so it does
    exactly when the unit images do.  P gamma_S P = (-1)^|S| gamma_S, so
    max |P g P - g| is twice the largest odd-|S| entry of the unit columns.
    """
    if bundle.rep is None:
        raise PreconditionError("bundle does not carry a fermion representation")
    vac = bundle.vacuum
    odd = vac.popcount % 2 == 1
    return 2.0 * max(max_abs(leg.units[:, odd]) for leg in (vac.pi, vac.rho))
