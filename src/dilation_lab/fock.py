"""q-deformed Fock combinatorics and the fermionic (q = -1) representation.

Conventions
-----------
* Words: a word is a finite sequence of vectors k_1, ..., k_n in the base
  space; the q-inner product of two words of equal length is
  sum_{s in S_n} q^{inv(s)} prod_i <k_i, h_{s(i)}>, inversion-counted;
  words of different lengths are orthogonal.
* The q = -1 case is realized concretely: the antisymmetric Fock space over
  R^d has the wedge basis indexed by subsets of {0..d-1} (bitmask order,
  ascending factors), and creation acts by signed prepending.  The vacuum is
  the empty subset, tau(x) = <vacuum, x vacuum>.
* Field operators w(v) = l(v) + l(v)* satisfy w(v)^2 = |v|^2 and generate,
  together with their i(l - l*) partners, a Majorana basis of the full matrix
  algebra; ordered products of Majoranas are trace-orthogonal.  The ordered
  field products gamma_S satisfy gamma_S vacuum = e_S, so a field polynomial
  is its vacuum column, written back by _field_polynomial (wick_inverse).
* exterior_map(T) = Lambda(T) has the minors of T as entries; it is built by
  the Jordan-Wigner rule as Lambda(T) e_A = l(T e_a) Lambda(T) e_(A - a).
  Second quantization of a real contraction T is the unique trace-preserving
  unital completely positive extension of the Wick rule
  w-polynomial(v_1, ..., v_k) -> w-polynomial(T v_1, ..., T v_k); on field
  polynomials it is Lambda(T) on vacuum columns, which is how the chain
  module applies it.
* second_quantize gives Gamma(T) on the whole matrix algebra: Majorana
  coefficients from a MajoranaFrame (built per call, one for both sides
  when their ranks agree), the doubled lift as Lambda(T) C Lambda(T)^T,
  and resynthesis, O(8^r) per matrix, applied to the 4^r matrix units for
  the 4^r_out x 4^r_in superoperator, returned as a MarkovMap for
  composition, Choi matrices and the Markov certificates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import config
from .errors import PreconditionError, ShapeError, SizeError
from .matcore import dagger
from .schur import GramSpace
from .states import MarkovMap

__all__ = [
    "QWord",
    "q_gram",
    "creation_apply",
    "TruncatedQFock",
    "FermionRep",
    "build_fermion_rep",
    "verify_q_relation",
    "wick_inverse",
    "exterior_map",
    "interleave_double",
    "second_quantize",
    "MajoranaFrame",
    "majorana_frame",
]


# ---------------------------------------------------------------------------
# q-deformed word combinatorics


@dataclass(frozen=True, eq=False)
class QWord:
    """A word of vectors; vectors[i] is the i-th tensor factor."""

    vectors: np.ndarray

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.vectors, dtype=complex))
        if arr.size == 0:
            arr = arr.reshape(0, max(arr.shape[-1], 1) if arr.ndim == 2 else 1)
        object.__setattr__(self, "vectors", arr)

    @property
    def length(self) -> int:
        return self.vectors.shape[0]

    @staticmethod
    def vacuum(dim: int) -> "QWord":
        return QWord(np.zeros((0, dim)))


def creation_apply(word: QWord, vector) -> QWord:
    """Prepend a vector: l(v) (k_1 (x) ... (x) k_n) = v (x) k_1 (x) ... (x) k_n."""
    v = np.asarray(vector, dtype=complex).reshape(1, -1)
    if word.length and v.shape[1] != word.vectors.shape[1]:
        raise ShapeError("creation_apply: vector dimension does not match word")
    return QWord(np.vstack([v, word.vectors]))


@lru_cache(maxsize=16)
def _perms_with_inversions(n: int):
    out = []
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        out.append((perm, inv))
    return tuple(out)


def _q_inner(left: QWord, right: QWord, q: float) -> complex:
    n = left.length
    if n != right.length:
        return 0.0
    if n == 0:
        return 1.0
    # pairwise <k_i, h_j>, conjugate-linear in the left slot
    p = np.conj(left.vectors) @ right.vectors.T
    total = 0.0 + 0.0j
    for perm, inv in _perms_with_inversions(n):
        total += (q**inv) * np.prod(p[np.arange(n), perm])
    return complex(total)


def q_gram(words, q: float, length_cap: int = config.QWORD_LENGTH_CAP) -> np.ndarray:
    """Gram matrix of a family of words under the q-inner product.

    Requires -1 <= q < 1 or q = -1 exactly (the deformation range used here);
    words longer than the cap are refused since the sum runs over S_n.
    """
    if not -1.0 <= q < 1.0 and q != -1.0:
        raise PreconditionError(f"q must lie in [-1, 1), got {q}")
    ws = list(words)
    for w in ws:
        if not isinstance(w, QWord):
            raise ShapeError("q_gram expects QWord instances")
        if w.length > length_cap:
            raise SizeError(f"word length {w.length} exceeds cap {length_cap}")
    g = np.zeros((len(ws), len(ws)), dtype=complex)
    for a, wa in enumerate(ws):
        for b, wb in enumerate(ws):
            if b < a:
                g[a, b] = np.conj(g[b, a])
            else:
                g[a, b] = _q_inner(wa, wb, q)
    return g


# ---------------------------------------------------------------------------
# truncated q-Fock space (-1 < q < 1)


class TruncatedQFock:
    """Word-basis model of the q-Fock space truncated at a particle cap.

    The basis consists of all words over an orthonormal base of dimension d
    with length <= length_cap.  Creation prepends a letter (top degree is cut
    off); q-annihilation acts by the weighted contraction
    l(f)* (h_1 ... h_n) = sum_i q^{i-1} <f, h_i> (h_1 ... without h_i ... h_n),
    which is the adjoint of creation for the q-inner product.
    """

    def __init__(self, base_dim: int, length_cap: int = 4):
        if base_dim < 1:
            raise ShapeError("base_dim must be >= 1")
        if length_cap < 1 or length_cap > config.QWORD_LENGTH_CAP:
            raise SizeError(f"length_cap must be in 1..{config.QWORD_LENGTH_CAP}")
        self.base_dim = base_dim
        self.length_cap = length_cap
        self.words = [()]
        for n in range(1, length_cap + 1):
            self.words.extend(itertools.product(range(base_dim), repeat=n))
        self.index = {w: i for i, w in enumerate(self.words)}
        self.dim = len(self.words)

    def degrees(self) -> np.ndarray:
        return np.array([len(w) for w in self.words])

    def creation_matrix(self, v) -> np.ndarray:
        vv = np.asarray(v, dtype=complex).reshape(-1)
        if vv.size != self.base_dim:
            raise ShapeError("creation vector has wrong dimension")
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for w, col in self.index.items():
            if len(w) == self.length_cap:
                continue
            for k in range(self.base_dim):
                if vv[k] != 0:
                    m[self.index[(k,) + w], col] += vv[k]
        return m

    def annihilation_matrix(self, v, q: float) -> np.ndarray:
        vv = np.asarray(v, dtype=complex).reshape(-1)
        if vv.size != self.base_dim:
            raise ShapeError("annihilation vector has wrong dimension")
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for w, col in self.index.items():
            for i, letter in enumerate(w):
                coeff = (q**i) * np.conj(vv[letter])
                if coeff != 0:
                    m[self.index[w[:i] + w[i + 1 :]], col] += coeff
        return m

    def gram_matrix(self, q: float) -> np.ndarray:
        eye = np.eye(self.base_dim)
        words = [QWord(eye[list(w)].reshape(len(w), self.base_dim)) for w in self.words]
        return q_gram(words, q, length_cap=self.length_cap)


# ---------------------------------------------------------------------------
# fermionic representation (q = -1)


def _require_bytes(what: str, entries: int) -> None:
    """Refuse an array of this many complex entries over the byte cap."""
    size = np.dtype(complex).itemsize * entries
    if size > config.BYTE_CAP:
        raise SizeError(f"{what} takes {size} bytes, over the {config.BYTE_CAP} byte cap")


def _jordan_wigner(rank: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one rule for every fermion operator in the wedge basis: mode k flips
    bit[k] = 2^k of index r with sign[k, r] = (-1)^(occupied modes below k);
    occupied[k, r] is bit k of r, and sign[rank] is the number parity (-1)^N."""
    r = np.arange(1 << rank)
    bit = 1 << np.arange(rank)[:, None]
    occupied = (r & bit) != 0
    sign = np.ones((rank + 1, r.size))
    np.cumprod(1.0 - 2.0 * occupied, axis=0, out=sign[1:])
    return bit, occupied, sign


def _majorana_generators(rank: int) -> tuple[np.ndarray, np.ndarray]:
    """(flip, phase) of Majoranas 2k = l(f_k) + l(f_k)* and 2k+1 = i(l(f_k) - l(f_k)*):
    Majorana j sends e_r to phase[j, r] e_(r ^ flip[j]), both flipping bit k with
    the Jordan-Wigner sign, the second times i where mode k is empty, else -i."""
    bit, occupied, sign = _jordan_wigner(rank)
    phase = np.empty((2 * rank, 1 << rank), dtype=complex)
    phase[0::2] = sign[:-1]
    phase[1::2] = 1j * sign[:-1] * (1.0 - 2.0 * occupied)
    return np.repeat(bit[:, 0], 2), phase


def _ordered_products(flip: np.ndarray, phase: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(flip, phase) of the ordered products of the signed permutations
    e_r -> phase[j, r] e_(r ^ flip[j]) over every subset in bitmask order, each
    ascending left to right: generator j is appended on the right of masks < 2^j."""
    r = np.arange(phase.shape[1])
    out_flip = np.zeros(1, dtype=np.int64)
    out_phase = np.ones((1, r.size), dtype=complex)
    for f, c in zip(flip, phase):
        out_phase = np.concatenate([out_phase, c * out_phase[:, r ^ f]])
        out_flip = np.concatenate([out_flip, out_flip ^ f])
    return out_flip, out_phase


def _field_products(rank: int) -> tuple[np.ndarray, np.ndarray]:
    """(flip, phase) of the ordered field products gamma_S over every subset S
    of {0..rank-1} in bitmask order: gamma_S sends e_r to phase[S, r] e_(r ^ S),
    so flip[S] = S, and every phase is +-1."""
    bit, _, sign = _jordan_wigner(rank)
    return _ordered_products(bit[:, 0], sign[:-1])


def _signed_permutations(flip: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Dense stack of e_r -> phase[i, r] e_(r ^ flip[i]), within the byte cap."""
    count, dim = phase.shape
    _require_bytes(f"stack of {count} operators on {dim} dimensions", count * dim * dim)
    r = np.arange(dim)
    out = np.zeros((count, dim, dim), dtype=complex)
    out[np.arange(count)[:, None], r ^ flip[:, None], r] = phase
    return out


@dataclass(frozen=True, eq=False)
class FermionRep:
    """Antisymmetric Fock representation over R^rank that holds no matrix: each
    operator is written on request from the Jordan-Wigner rule, in the wedge
    basis (bitmask order).  The embedding rows express external generators e_i
    in the orthonormal f-basis, so omega of a row reproduces <e_i, e_j> as
    two-point functions."""

    rank: int
    embedding: np.ndarray

    @property
    def dim(self) -> int:
        return 1 << self.rank

    def creation_op(self, v) -> np.ndarray:
        """l(v) for v in f-basis coordinates, or a stack of them (..., rank): mode
        k sends each e_r with bit k clear to v_k e_(r | 2^k) times its sign."""
        vv = np.atleast_1d(np.asarray(v, dtype=complex))
        if vv.shape[-1] != self.rank:
            raise ShapeError(f"vector dimension {vv.shape[-1]} does not match rank {self.rank}")
        bit, occupied, sign = _jordan_wigner(self.rank)
        r = np.arange(self.dim)
        out = np.zeros((*vv.shape[:-1], self.dim, self.dim), dtype=complex)
        out[..., r ^ bit, r] = np.where(occupied, 0.0, vv[..., None] * sign[:-1])
        return out

    def omega(self, v) -> np.ndarray:
        """Field operator w(v) = l(v) + l(v)*, for one vector or a stack."""
        c = self.creation_op(v)
        return c + dagger(c)

    def generator_omega(self, i: int) -> np.ndarray:
        return self.omega(self.embedding[i])

    def vacuum_state(self, x) -> complex:
        """tau(x) = <vacuum, x vacuum>; equals the normalized matrix trace on
        polynomials in the field operators."""
        arr = np.asarray(x, dtype=complex)
        if arr.shape != (self.dim, self.dim):
            raise ShapeError("vacuum_state dimension mismatch")
        return complex(arr[0, 0])

    def parity(self) -> np.ndarray:
        """(-1)^N in the wedge basis; conjugation by it grades the algebra."""
        _, _, sign = _jordan_wigner(self.rank)
        return np.diag(sign[-1]).astype(complex)

    def majoranas(self) -> tuple[np.ndarray, ...]:
        """Self-adjoint anticommuting generators: pairs (l+l*, i(l-l*)) per mode."""
        return tuple(_signed_permutations(*_majorana_generators(self.rank)))

    def majorana_products(self) -> tuple[np.ndarray, ...]:
        """Ordered products over subsets of the 2*rank Majoranas (bitmask order),
        a trace-orthogonal basis of the full matrix algebra, read from the
        MajoranaFrame."""
        frame = majorana_frame(self.rank)
        return tuple(_signed_permutations(frame.flip, frame.phase))

    def omega_products(self) -> tuple[np.ndarray, ...]:
        """Ordered products of w(f_k) over subsets of {0..rank-1} (bitmask order)."""
        return tuple(_signed_permutations(*_field_products(self.rank)))


def build_fermion_rep(gram: GramSpace) -> FermionRep:
    """Fermion representation over the quotient space of a Gram factorization."""
    if gram.rank > config.FERMION_RANK_CAP:
        raise SizeError(f"rank {gram.rank} exceeds fermion cap {config.FERMION_RANK_CAP}")
    if (1 << gram.rank) > config.dim_cap():
        raise SizeError(f"Fock dimension 2^{gram.rank} exceeds dimension cap")
    return FermionRep(rank=gram.rank, embedding=np.asarray(gram.embedding, dtype=float))


def verify_q_relation(space, e, f, q: float) -> float:
    """Residual of l(f)* l(e) - q l(e) l(f)* = <f, e> id.

    For a FermionRep this is the exact CAR check at q = -1.  For a
    TruncatedQFock the relation is checked on the domain of words of length
    <= cap - 1, where the truncation is invisible.
    """
    if isinstance(space, FermionRep):
        if q != -1.0:
            raise PreconditionError("FermionRep realizes q = -1 only")
        le = space.creation_op(e)
        lf = space.creation_op(f)
        inner = complex(np.conj(np.asarray(f, dtype=complex)) @ np.asarray(e, dtype=complex))
        resid = dagger(lf) @ le - q * le @ dagger(lf) - inner * np.eye(space.dim)
        return float(np.linalg.norm(resid))
    if isinstance(space, TruncatedQFock):
        if not -1.0 < q < 1.0:
            raise PreconditionError("TruncatedQFock handles -1 < q < 1")
        le = space.creation_matrix(e)
        af = space.annihilation_matrix(f, q)
        inner = complex(np.conj(np.asarray(f, dtype=complex)) @ np.asarray(e, dtype=complex))
        resid = af @ le - q * le @ af - inner * np.eye(space.dim)
        safe = space.degrees() <= space.length_cap - 1
        return float(np.linalg.norm(resid[:, safe]))
    raise ShapeError(f"verify_q_relation: unsupported space {type(space).__name__}")


def _field_polynomial(coefficients: np.ndarray) -> np.ndarray:
    """sum_S c_S gamma_S over the ordered field products gamma_S (bitmask
    order, _field_products) for coefficient vectors c of length 2^rank, or a
    stack of them: entry [T, U] is c_(T ^ U) phase[T ^ U, U].  gamma_S Omega
    = e_S, so c is the vacuum column, and a -> a Omega is isometric in max-abs."""
    size = coefficients.shape[-1]
    phase = _field_products(size.bit_length() - 1)[1]
    r = np.arange(size)
    masks = r[:, None] ^ r
    return coefficients[..., masks] * phase[masks, r]


def _reversal_sign(popcount) -> np.ndarray:
    """(-1)^(k(k-1)/2) for each popcount k: reversing the k factors of an
    ordered field product gamma_S gives that sign, so gamma_S^* is gamma_S
    times it and tau(gamma_S gamma_T) is it when S = T, else 0."""
    k = np.asarray(popcount, dtype=np.int64)
    return 1.0 - 2.0 * (k * (k - 1) // 2 % 2)


def wick_inverse(rep: FermionRep, xi) -> np.ndarray:
    """Operator x in the span of ordered field products with x(vacuum) = xi.

    The Wick matrix, whose columns are the vacuum images of the ordered
    products w(f_{i1}) ... w(f_{ik}), is the identity in the wedge basis, so
    x = sum_S xi_S gamma_S.
    """
    vec_xi = np.asarray(xi, dtype=complex).reshape(-1)
    if vec_xi.size != rep.dim:
        raise ShapeError(f"Fock vector length {vec_xi.size}, expected {rep.dim}")
    return _field_polynomial(vec_xi)


# ---------------------------------------------------------------------------
# exterior powers and second quantization


def exterior_map(t: np.ndarray) -> np.ndarray:
    """Direct sum of exterior powers of t on wedge bases, or of each map of a stack t.

    Entry [B, A] (bitmask indices, |B| = |A| = k) is the k x k minor of t with
    rows B and columns A; sizes that differ give zero.  For square t this is
    the Fock-space lift fixing the vacuum, unitary when t is orthogonal.
    Column A is l(t e_a) applied to column A without a, its lowest mode, by
    the Jordan-Wigner rule: one output mode k at a time, a signed slice of at
    most 2^(d_out - 1) x 2^(d_in - 1) entries from rows without k to rows with k.
    One slice covers a stack, skipped only where t[..., k, a] is 0 in every map,
    and each map of the result is bitwise its lift on its own.
    """
    tt = np.asarray(t)
    if tt.ndim < 2:
        raise ShapeError("exterior_map needs a 2-d array or a stack of them")
    *stack, d_out, d_in = tt.shape
    for d in (d_out, d_in):
        if (1 << d) > config.dim_cap():
            raise SizeError(f"exterior_map dimension 2^{d} exceeds the dimension cap "
                            f"{config.dim_cap()}")
    out = np.zeros((*stack, 1 << d_out, 1 << d_in),
                   dtype=tt.dtype if tt.dtype == complex else float)
    out[..., 0, 0] = 1.0
    ts = tt[..., None] * _jordan_wigner(d_out)[2][:-1, None, :]  # t[..., k, a] sign[k]
    pairs = (tt != 0).any(axis=tuple(range(len(stack)))) if stack else tt
    # from the top mode down, so column A without a is written before column A
    for a in reversed(range(d_in)):
        for k in np.flatnonzero(pairs[:, a]):
            # axes: rows (above k, bit k, below k), columns (above a, bit a, below a)
            lam = out.reshape(*stack, 1 << (d_out - 1 - k), 2, 1 << k,
                              1 << (d_in - 1 - a), 2, 1 << a)
            lam[..., 1, :, :, 1, 0] += ts[..., k, a, None, :1 << k, None] * lam[..., 0, :, :, 0, 0]
    return out


def interleave_double(t: np.ndarray) -> np.ndarray:
    """Double a real map over Majorana pairs: rows/cols 2i, 2i+1 both carry t[i, j]."""
    tt = np.asarray(t, dtype=float)
    d_out, d_in = tt.shape
    big = np.zeros((2 * d_out, 2 * d_in))
    big[0::2, 0::2] = tt
    big[1::2, 1::2] = tt
    return big


def _split_interleaved(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(even part, odd part, sign) of every mask over 2d interleaved modes.

    The parts pack the mask's even and odd mode bits; the sign is that of
    moving its even modes before its odd ones.
    """
    masks = np.arange(1 << (2 * d))
    even, odd, parity = (np.zeros_like(masks) for _ in range(3))
    odd_below = np.zeros_like(masks)
    for k in range(d):
        e, o = (masks >> (2 * k)) & 1, (masks >> (2 * k + 1)) & 1
        even |= e << k
        odd |= o << k
        parity ^= e & odd_below
        odd_below ^= o
    return even, odd, 1.0 - 2.0 * parity


@dataclass(frozen=True, eq=False)
class MajoranaFrame:
    """The ordered Majorana products over `rank` modes in the form second
    quantization works with: their flip/phase table from _ordered_products
    and, for every mask, its sign and its place (even part, odd part) after
    _split_interleaved.  Built per call by majorana_frame; nothing is cached."""

    rank: int
    flip: np.ndarray = field(repr=False)
    phase: np.ndarray = field(repr=False)
    pair: np.ndarray = field(repr=False)
    sign: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return 1 << self.rank

    def coefficients(self, cols: np.ndarray) -> np.ndarray:
        """Majorana coefficients tr(c_B^dagger X) / dim of the row-major vec'd
        matrices X in the columns of cols, shape (4^rank, k); the products
        over masks of one flip x read the entries X[r ^ x, r]."""
        r = np.arange(self.dim)
        out = np.empty(cols.shape, dtype=complex)
        for x in range(r.size):
            masks = np.flatnonzero(self.flip == x)
            out[masks] = self.phase[masks].conj() @ cols[(r ^ x) * r.size + r]
        out /= self.dim
        return out

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """The vec'd matrices sum_B coeffs[B, j] c_B as columns, shape
        (dim^2, k); the products over masks of one flip x fill the entries
        X[r ^ x, r]."""
        r = np.arange(self.dim)
        out = np.empty(coeffs.shape, dtype=complex)
        for x in range(r.size):
            masks = np.flatnonzero(self.flip == x)
            out[(r ^ x) * r.size + r] = self.phase[masks].T @ coeffs[masks]
        return out


def majorana_frame(rank: int) -> MajoranaFrame:
    """MajoranaFrame over `rank` modes; its phase table, 4^rank products of
    2^rank phases each, obeys the byte cap."""
    _require_bytes(f"Majorana frame over {rank} modes", 8 ** rank)
    flip, phase = _ordered_products(*_majorana_generators(rank))
    even, odd, sign = _split_interleaved(rank)
    return MajoranaFrame(rank, flip, phase, (even << rank) | odd, sign)


def _checked_contraction(t, rank_in: int, rank_out: int, tol: float) -> np.ndarray:
    tt = np.asarray(t, dtype=float)
    if tt.ndim != 2 or tt.shape != (rank_out, rank_in):
        raise ShapeError(
            f"contraction shape {tt.shape} does not match ranks ({rank_out}, {rank_in})")
    if tt.size:
        smax = float(np.linalg.svd(tt, compute_uv=False)[0])
        if smax > 1.0 + tol:
            raise PreconditionError(f"largest singular value {smax:.12f} exceeds 1")
    return tt


def _lift(frame_in: MajoranaFrame, frame_out: MajoranaFrame, lam: np.ndarray,
          cols: np.ndarray) -> np.ndarray:
    """Gamma(t) of the row-major vec'd matrices in the columns of cols, shape
    (dim_in^2, k) to (dim_out^2, k), with lam = exterior_map(t).

    Each X is expanded in the Majorana products (coefficients a_A) and lifted
    through the doubled map, t on the even modes and t on the odd modes: after
    moving even modes first (sign eps) each of its minors is block diagonal,
    entry [B, A] = eps(B) eps(A) lam[B_even, A_even] lam[B_odd, A_odd].  So the
    lift is lam C lam^T with C[A_even, A_odd] = eps(A) a_A, resynthesized from
    eps(B) (lam C lam^T)[B_even, B_odd].  Every step costs O(k 8^rank).
    """
    k = cols.shape[1]
    coeffs = frame_in.coefficients(cols)
    coeffs *= frame_in.sign[:, None]
    signed = np.empty_like(coeffs)
    signed[frame_in.pair] = coeffs
    # lam C for all k at once, then lam (lam C)[i] for every row i: lam C lam^T
    half = (lam @ signed.reshape(frame_in.dim, -1)).reshape(frame_out.dim, frame_in.dim, k)
    coeffs = (lam @ half).reshape(-1, k)[frame_out.pair]
    coeffs *= frame_out.sign[:, None]
    return frame_out.synthesize(coeffs)


def second_quantize(rep_in: FermionRep, rep_out: FermionRep, t,
                    tol: float = config.TOL_NUM) -> MarkovMap:
    """Second quantization of a real contraction t between generator spaces.

    Returns the superoperator sending the ordered Majorana product over a
    subset A to sum_B det(t-doubled[B, A]) times the product over B.  This is
    trace preserving and unital, restricts on polynomials in the field
    operators to the Wick rule (apply t inside every factor), is functorial
    (compositions multiply), and is completely positive for contractions.
    Its columns are Gamma(t) of the matrix units, O(32^rank) in all.
    """
    tt = _checked_contraction(t, rep_in.rank, rep_out.rank, tol)
    n_in = rep_in.dim ** 2
    _require_bytes("second quantization superoperator", rep_out.dim ** 2 * n_in)
    frame_in = majorana_frame(rep_in.rank)
    frame_out = frame_in if rep_out.rank == rep_in.rank else majorana_frame(rep_out.rank)
    lam = exterior_map(tt)
    super_op = np.empty((rep_out.dim ** 2, n_in), dtype=complex)
    # about CHUNK_BYTES per working array of the lift
    column_bytes = np.dtype(complex).itemsize * max(n_in, super_op.shape[0])
    step = max(1, config.CHUNK_BYTES // column_bytes)
    for start in range(0, n_in, step):
        units = np.eye(n_in, min(step, n_in - start), -start, dtype=complex)
        super_op[:, start:start + units.shape[1]] = _lift(frame_in, frame_out, lam, units)
    return MarkovMap(dim_out=rep_out.dim, dim_in=rep_in.dim, super=super_op)
