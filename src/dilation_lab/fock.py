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
  algebra; ordered products of Majoranas are trace-orthogonal.  Second
  quantization of a real contraction T acts on that basis through the exterior
  powers of T doubled over the (real, imaginary) Majorana pairs, which is the
  unique trace-preserving unital completely positive extension of the Wick
  rule w-polynomial(v_1, ..., v_k) -> w-polynomial(T v_1, ..., T v_k).
* Gamma(T) is computed as an action on a stack of k matrices: Majorana
  coefficients from a MajoranaFrame (built per call), the doubled lift as
  exterior_map(T) C exterior_map(T)^T, and resynthesis, O(k 8^r) in all.
  second_quantize_action returns that action; second_quantize applies it to
  the 4^r matrix units and returns the 4^r_out x 4^r_in superoperator as a
  MarkovMap, for composition, Choi matrices and the Markov certificates.
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
    "second_quantize_action",
]


# ---------------------------------------------------------------------------
# q-deformed word combinatorics


@dataclass(frozen=True)
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


def _popcount_below(mask: int, k: int) -> int:
    return (mask & ((1 << k) - 1)).bit_count()


def _creation_matrices(d: int) -> tuple[np.ndarray, ...]:
    dim = 1 << d
    mats = []
    for k in range(d):
        m = np.zeros((dim, dim), dtype=complex)
        bit = 1 << k
        for mask in range(dim):
            if mask & bit:
                continue
            sign = -1.0 if _popcount_below(mask, k) % 2 else 1.0
            m[mask | bit, mask] = sign
        mats.append(m)
    return tuple(mats)


def _majorana_table(rank: int) -> tuple[np.ndarray, np.ndarray]:
    """(flip, phase) of the ordered Majorana products in the wedge basis.

    The product over mask B sends e_r to phase[B, r] e_(r ^ flip[B]): flip[B]
    has bit k set when B holds exactly one of Majoranas 2k and 2k+1, and every
    phase is +-1 or +-i.  Built by appending Majorana j on the right of the
    products over masks below 2^j.
    """
    r = np.arange(1 << rank)
    flip = np.zeros(1, dtype=np.int64)
    phase = np.ones((1, r.size), dtype=complex)
    below = np.zeros(r.size, dtype=np.int64)  # parity of the occupied modes below k
    for k in range(rank):
        bit = 1 << k
        sign = 1.0 - 2.0 * below
        # l+l* and i(l-l*): annihilation carries the opposite sign in the second
        for c in (sign, 1j * sign * np.where(r & bit, -1.0, 1.0)):
            phase = np.concatenate([phase, c * phase[:, r ^ bit]])
            flip = np.concatenate([flip, flip ^ bit])
        below ^= (r >> k) & 1
    return flip, phase


@dataclass(frozen=True)
class FermionRep:
    """Concrete antisymmetric Fock representation over R^rank.

    creation[k] implements l(f_k) in the wedge basis (bitmask order); the
    embedding rows express external generators e_i in the orthonormal f-basis,
    so omega applied to a row reproduces <e_i, e_j> as two-point functions.
    Every method computes its result on each call; nothing is cached.
    """

    rank: int
    embedding: np.ndarray
    creation: tuple[np.ndarray, ...] = field(repr=False)

    @property
    def dim(self) -> int:
        return 1 << self.rank

    def creation_op(self, v) -> np.ndarray:
        """l(v) for v given in f-basis coordinates."""
        vv = np.asarray(v, dtype=complex).reshape(-1)
        if vv.size != self.rank:
            raise ShapeError(f"vector dimension {vv.size} does not match rank {self.rank}")
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for k in range(self.rank):
            if vv[k] != 0:
                out += vv[k] * self.creation[k]
        return out

    def omega(self, v) -> np.ndarray:
        """Field operator w(v) = l(v) + l(v)*."""
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
        signs = np.array([(-1.0) ** mask.bit_count() for mask in range(self.dim)])
        return np.diag(signs).astype(complex)

    def majoranas(self) -> tuple[np.ndarray, ...]:
        """Self-adjoint anticommuting generators: pairs (l+l*, i(l-l*)) per mode."""
        out = []
        for k in range(self.rank):
            c = self.creation[k]
            out.append(c + dagger(c))
            out.append(1j * (c - dagger(c)))
        return tuple(out)

    def majorana_products(self) -> tuple[np.ndarray, ...]:
        """Ordered products over subsets of the 2*rank Majoranas (bitmask order);
        a trace-orthogonal basis of the full matrix algebra."""
        flip, phase = _majorana_table(self.rank)
        r = np.arange(self.dim)
        prods = np.zeros((flip.size, self.dim, self.dim), dtype=complex)
        prods[np.arange(flip.size)[:, None], r ^ flip[:, None], r] = phase
        return tuple(prods)

    def omega_products(self) -> tuple[np.ndarray, ...]:
        """Ordered products of w(f_k) over subsets of {0..rank-1} (bitmask order)."""
        omegas = [self.creation[k] + dagger(self.creation[k]) for k in range(self.rank)]
        prods: list[np.ndarray | None] = [None] * self.dim
        prods[0] = np.eye(self.dim, dtype=complex)
        for mask in range(1, self.dim):
            low = (mask & -mask).bit_length() - 1
            prods[mask] = omegas[low] @ prods[mask ^ (1 << low)]
        return tuple(prods)


def build_fermion_rep(gram: GramSpace, rank_cap: int = config.FERMION_RANK_CAP) -> FermionRep:
    """Fermion representation over the quotient space of a Gram factorization."""
    if gram.rank > rank_cap:
        raise SizeError(f"rank {gram.rank} exceeds fermion cap {rank_cap}")
    if (1 << gram.rank) > config.dim_cap():
        raise SizeError(f"Fock dimension 2^{gram.rank} exceeds dimension cap")
    return FermionRep(rank=gram.rank, embedding=np.asarray(gram.embedding, dtype=float),
                      creation=_creation_matrices(gram.rank))


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


def wick_inverse(rep: FermionRep, xi) -> np.ndarray:
    """Operator x in the span of ordered field products with x(vacuum) = xi.

    The columns of the Wick matrix are the vacuum images of the ordered
    products w(f_{i1}) ... w(f_{ik}); in the graded wedge basis the system is
    triangular with unit diagonal, so the solve is always well posed.
    """
    vec_xi = np.asarray(xi, dtype=complex).reshape(-1)
    if vec_xi.size != rep.dim:
        raise ShapeError(f"Fock vector length {vec_xi.size}, expected {rep.dim}")
    prods = rep.omega_products()
    wick = np.column_stack([p[:, 0] for p in prods])
    coeff = np.linalg.solve(wick, vec_xi)
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for mask, c in enumerate(coeff):
        if c != 0:
            out += c * prods[mask]
    return out


# ---------------------------------------------------------------------------
# exterior powers and second quantization


def _subsets_by_size(d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(bitmasks, index arrays) of all k-subsets of {0..d-1}, ascending order."""
    combos = list(itertools.combinations(range(d), k))
    masks = np.array([sum(1 << i for i in c) for c in combos], dtype=np.int64)
    idx = np.array(combos, dtype=np.int64).reshape(len(combos), k)
    return masks, idx


def exterior_map(t: np.ndarray) -> np.ndarray:
    """Direct sum of exterior powers of t on wedge bases.

    Entry [B, A] (bitmask indices, |B| = |A| = k) is the k x k minor of t with
    rows B and columns A; sizes that differ give zero.  For square t this is
    the Fock-space lift fixing the vacuum, unitary when t is orthogonal.
    """
    tt = np.asarray(t)
    if tt.ndim != 2:
        raise ShapeError("exterior_map needs a 2-d array")
    d_out, d_in = tt.shape
    if (1 << d_out) > config.dim_cap() or (1 << d_in) > config.dim_cap():
        raise SizeError("exterior_map output exceeds dimension cap")
    out = np.zeros((1 << d_out, 1 << d_in), dtype=tt.dtype if tt.dtype == complex else float)
    out[0, 0] = 1.0
    for k in range(1, min(d_in, d_out) + 1):
        masks_b, idx_b = _subsets_by_size(d_out, k)
        masks_a, idx_a = _subsets_by_size(d_in, k)
        sub = tt[idx_b[:, None, :, None], idx_a[None, :, None, :]]
        # A subnormal pivot makes LAPACK's LU raise floating-point flags; its
        # minors stand as computed, and the residual rows judge them.
        with np.errstate(all="ignore"):
            out[np.ix_(masks_b, masks_a)] = np.linalg.det(sub)
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


@dataclass(frozen=True)
class MajoranaFrame:
    """The ordered Majorana products over `rank` modes in the form second
    quantization works with: the flip/phase table of _majorana_table and, for
    every mask, its sign and its place (even part, odd part) after
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
    """MajoranaFrame over `rank` modes; its 4^rank products obey the dimension cap."""
    if (1 << (2 * rank)) > config.dim_cap():
        raise SizeError("second quantization superoperator exceeds dimension cap")
    flip, phase = _majorana_table(rank)
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
    # each side of the doubled lift has 4^rank = dim^2 basis elements; the
    # frames refuse a side over the dimension cap
    frame_in, frame_out = majorana_frame(rep_in.rank), majorana_frame(rep_out.rank)
    lam = exterior_map(tt)
    n_in = rep_in.dim ** 2
    super_op = np.empty((rep_out.dim ** 2, n_in), dtype=complex)
    # about CHUNK_BYTES per working array of the lift
    column_bytes = np.dtype(complex).itemsize * max(n_in, super_op.shape[0])
    step = max(1, config.CHUNK_BYTES // column_bytes)
    for start in range(0, n_in, step):
        units = np.eye(n_in, min(step, n_in - start), -start, dtype=complex)
        super_op[:, start:start + units.shape[1]] = _lift(frame_in, frame_out, lam, units)
    return MarkovMap(dim_out=rep_out.dim, dim_in=rep_in.dim, super=super_op)


def second_quantize_action(frame_in: MajoranaFrame, frame_out: MajoranaFrame, t):
    """Gamma(t) of second_quantize as a map on stacks of matrices, shape
    (k, dim_in, dim_in) to (k, dim_out, dim_out), with no superoperator:
    O(k 8^rank).  Same guards as second_quantize; the frames carry its
    dimension cap.
    """
    lam = exterior_map(_checked_contraction(t, frame_in.rank, frame_out.rank, config.TOL_NUM))

    def apply(xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=complex)
        if xs.ndim != 3 or xs.shape[1:] != (frame_in.dim, frame_in.dim):
            raise ShapeError(f"Gamma(t) needs a stack of {frame_in.dim} x {frame_in.dim} matrices")
        images = _lift(frame_in, frame_out, lam, xs.reshape(xs.shape[0], -1).T)
        return images.T.reshape(-1, frame_out.dim, frame_out.dim)

    return apply
