import itertools
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dilation_lab import (GramSpace, PreconditionError, SchurSymbol, ShapeError,
                          SizeError, build_fermion_rep, build_gram_space,
                          choi_matrix, config, exterior_map, interleave_double,
                          second_quantize, verify_q_relation, wick_inverse)
from dilation_lab.fock import (QWord, TruncatedQFock, _field_polynomial, creation_apply,
                               majorana_frame, q_gram)
from dilation_lab.matcore import dagger, max_abs, random_complex, rng

Q_VALUES = (-0.9, -0.5, 0.0, 0.5, 0.9)


# ---------------------------------------------------------------------------
# q-deformed inner products on words


def test_qword_vacuum_and_creation():
    vac = QWord.vacuum(3)
    assert vac.length == 0
    w = creation_apply(vac, [1.0, 0.0, 0.0])
    assert w.length == 1
    w2 = creation_apply(w, [0.0, 1.0, 0.0])
    np.testing.assert_allclose(w2.vectors, [[0, 1, 0], [1, 0, 0]])
    with pytest.raises(ShapeError):
        creation_apply(w, [1.0, 0.0])


def test_q_gram_length_orthogonality_and_vacuum():
    words = [QWord.vacuum(2), QWord(np.eye(2)[[0]]), QWord(np.eye(2)[[0, 1]])]
    for q in Q_VALUES:
        g = q_gram(words, q)
        assert g[0, 0] == 1.0
        assert g[0, 1] == 0.0 and g[1, 2] == 0.0


def test_q_gram_free_case_counts_identity_pairing_only():
    # q = 0: only the identity permutation survives, words over an orthonormal
    # alphabet are orthonormal
    eye = np.eye(2)
    words = [QWord(eye[list(w)]) for n in (1, 2)
             for w in itertools.product(range(2), repeat=n)]
    np.testing.assert_allclose(q_gram(words, 0.0), np.eye(len(words)), atol=1e-14)


def test_q_gram_interpolates_pair_exchange():
    # <e0 e1, e1 e0> picks up exactly one inversion: the value is q itself
    eye = np.eye(2)
    words = [QWord(eye[[0, 1]]), QWord(eye[[1, 0]])]
    for q in Q_VALUES:
        g = q_gram(words, q)
        assert abs(g[0, 1] - q) < 1e-14
        assert abs(g[0, 0] - 1.0) < 1e-14


def test_q_gram_antisymmetric_limit_is_determinant():
    # at q = -1 the signed permutation sum is the determinant of the letter
    # overlap matrix; check against the dense determinant route
    gen = rng(0)
    for k in (1, 2, 3, 4):
        left = QWord(gen.standard_normal((k, 4)))
        right = QWord(gen.standard_normal((k, 4)))
        g = q_gram([left, right], -1.0)
        overlap = np.conj(left.vectors) @ right.vectors.T
        assert abs(g[0, 1] - np.linalg.det(overlap)) < 1e-10


def test_q_gram_positive_for_deformation_range():
    gen = rng(1)
    words = [QWord(gen.standard_normal((k, 3))) for k in (1, 1, 2, 2, 3, 4)]
    for q in Q_VALUES:
        g = q_gram(words, q)
        assert np.linalg.eigvalsh((g + dagger(g)) / 2)[0] >= -1e-10


def test_q_gram_input_validation():
    with pytest.raises(PreconditionError):
        q_gram([QWord.vacuum(2)], 1.0)
    with pytest.raises(PreconditionError):
        q_gram([QWord.vacuum(2)], -1.5)
    with pytest.raises(ShapeError):
        q_gram([np.eye(2)], 0.0)
    with pytest.raises(SizeError):
        q_gram([QWord(np.zeros((9, 2)))], 0.0)


def test_truncated_fock_adjointness_and_relation():
    space = TruncatedQFock(2, length_cap=3)
    gen = rng(2)
    for q in (-0.5, 0.0, 0.7):
        gram = space.gram_matrix(q)
        v = gen.standard_normal(2)
        c = space.creation_matrix(v)
        a = space.annihilation_matrix(v, q)
        # l(v)* is the gram-adjoint of l(v) below the truncation degree
        safe = space.degrees() <= space.length_cap - 1
        resid = (dagger(c) @ gram - gram @ a)[np.ix_(safe, safe)]
        assert max_abs(resid) < 1e-10
        e, f = gen.standard_normal(2), gen.standard_normal(2)
        assert verify_q_relation(space, e, f, q) < 1e-10


def test_truncated_fock_guards():
    with pytest.raises(ShapeError):
        TruncatedQFock(0)
    with pytest.raises(SizeError):
        TruncatedQFock(2, length_cap=9)
    space = TruncatedQFock(2, length_cap=2)
    with pytest.raises(PreconditionError):
        verify_q_relation(space, [1, 0], [0, 1], -1.0)


# ---------------------------------------------------------------------------
# fermionic representation


def _standard_rep(rank):
    return build_fermion_rep(GramSpace.standard(rank))


def _dense_creation(rank):
    """Reference l(f_k), k < rank, written entry by entry: e_r -> sign e_(r | 2^k)
    for r without bit k, the sign counting the occupied modes below k."""
    dim = 1 << rank
    mats = []
    for k in range(rank):
        m = np.zeros((dim, dim), dtype=complex)
        bit = 1 << k
        for mask in range(dim):
            if not mask & bit:
                m[mask | bit, mask] = -1.0 if (mask & (bit - 1)).bit_count() % 2 else 1.0
        mats.append(m)
    return mats


def _dense_majoranas(rank):
    """Reference Majoranas (l + l*, i(l - l*)) per mode."""
    out = []
    for c in _dense_creation(rank):
        out += [c + dagger(c), 1j * (c - dagger(c))]
    return out


def _dense_products(factors, count):
    """Ordered products over the first `count` masks of the factors, the
    lowest factor on the left, multiplied out."""
    prods = [np.eye(factors[0].shape[0] if factors else 1, dtype=complex)]
    for mask in range(1, count):
        low = (mask & -mask).bit_length() - 1
        prods.append(factors[low] @ prods[mask ^ (1 << low)])
    return np.stack(prods)


@pytest.mark.parametrize("rank", range(8))
def test_fermion_operators_match_dense_reference(rank):
    gen = rng(rank)
    creation = _dense_creation(rank)
    fields = [c + dagger(c) for c in creation]
    rep = build_fermion_rep(GramSpace(rank, gen.standard_normal((3, rank))))
    for v in (gen.standard_normal(rank), gen.standard_normal(rank) + 1j * gen.standard_normal(rank),
              np.eye(1, rank)[0]):  # one mode, the rest exactly 0
        lv = sum((v[k] * creation[k] for k in range(rank)), np.zeros((rep.dim, rep.dim), complex))
        assert np.array_equal(rep.creation_op(v), lv)
        assert np.array_equal(rep.omega(v), lv + dagger(lv))
    stack = np.stack([rep.generator_omega(i) for i in range(3)])
    assert np.array_equal(rep.omega(rep.embedding), stack)
    assert np.array_equal(stack[0], sum((rep.embedding[0, k] * fields[k] for k in range(rank)),
                                        np.zeros((rep.dim, rep.dim), complex)))
    assert np.array_equal(np.array(rep.majoranas()).reshape(-1, rep.dim, rep.dim),
                          np.array(_dense_majoranas(rank)).reshape(-1, rep.dim, rep.dim))
    signs = [(-1.0) ** mask.bit_count() for mask in range(rep.dim)]
    assert np.array_equal(rep.parity(), np.diag(signs))
    monomials = _dense_products(fields, rep.dim)
    assert np.array_equal(np.stack(rep.omega_products()), monomials)
    assert np.array_equal(_field_polynomial(np.eye(rep.dim)), monomials)


@pytest.mark.parametrize("rank", range(8))
def test_majorana_frame_matches_dense_reference(rank):
    """The frame's (flip, phase) table against the reference Majoranas applied
    in order to a random vector x: c_B x, with B's lowest Majorana on the
    left, has entry phase[B, r] x[r] at r ^ flip[B]."""
    frame = majorana_frame(rank)
    majoranas = _dense_majoranas(rank)
    x = random_complex(rng(rank), 1 << rank)[:, 0]
    images = np.empty((4 ** rank, 1 << rank), dtype=complex)
    images[0] = x
    for mask in range(1, 4 ** rank):
        low = (mask & -mask).bit_length() - 1
        images[mask] = majoranas[low] @ images[mask ^ (1 << low)]
    r = np.arange(1 << rank)
    expected = np.empty_like(images)
    expected[np.arange(4 ** rank)[:, None], r ^ frame.flip[:, None]] = frame.phase * x
    assert np.array_equal(images, expected)


def test_creation_car_relations():
    rep = _standard_rep(3)
    eye = np.eye(rep.dim)
    for i in range(3):
        for j in range(3):
            ci, cj = rep.creation_op(np.eye(3)[i]), rep.creation_op(np.eye(3)[j])
            assert max_abs(ci @ cj + cj @ ci) < 1e-14
            anti = ci @ dagger(cj) + dagger(cj) @ ci
            assert max_abs(anti - (1.0 if i == j else 0.0) * eye) < 1e-14
    assert verify_q_relation(rep, [1, 0, 0], [0, 1, 0], -1.0) < 1e-14
    with pytest.raises(PreconditionError):
        verify_q_relation(rep, [1, 0, 0], [0, 1, 0], 0.5)


def test_field_operators_on_embedded_generators():
    # two-point functions of the fields reproduce the symbol entries
    t = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.1], [0.2, 0.1, 1.0]])
    space = build_gram_space(SchurSymbol(t))
    rep = build_fermion_rep(space)
    for i in range(3):
        for j in range(3):
            wi, wj = rep.generator_omega(i), rep.generator_omega(j)
            anti = wi @ wj + wj @ wi
            assert max_abs(anti - 2 * t[i, j] * np.eye(rep.dim)) < 1e-12
            assert abs(rep.vacuum_state(wi @ wj) - t[i, j]) < 1e-12


def test_omega_squares_to_norm():
    rep = _standard_rep(2)
    v = np.array([0.6, -1.1])
    w = rep.omega(v)
    np.testing.assert_allclose(w, dagger(w), atol=1e-14)
    np.testing.assert_allclose(w @ w, (v @ v) * np.eye(rep.dim), atol=1e-13)


def test_vacuum_equals_normalized_trace_on_field_polynomials():
    rep = _standard_rep(3)
    gen = rng(3)
    coeff = gen.standard_normal(rep.dim) + 1j * gen.standard_normal(rep.dim)
    x = sum(c * p for c, p in zip(coeff, rep.omega_products()))
    assert abs(rep.vacuum_state(x) - np.trace(x) / rep.dim) < 1e-12


def test_vacuum_differs_from_trace_off_the_field_algebra():
    # the doubled Majorana algebra is strictly larger: on c_0 c_1 the vacuum
    # expectation is a phase while the normalized trace vanishes
    rep = _standard_rep(1)
    c0, c1 = rep.majoranas()
    prod = c0 @ c1
    assert abs(np.trace(prod)) < 1e-14
    assert abs(rep.vacuum_state(prod)) > 0.9


def test_parity_grades_fields():
    rep = _standard_rep(2)
    par = rep.parity()
    np.testing.assert_allclose(par @ par, np.eye(rep.dim), atol=1e-14)
    for v in np.eye(2):
        w = rep.omega(v)
        np.testing.assert_allclose(par @ w @ par, -w, atol=1e-14)


def test_majorana_products_trace_orthogonal():
    rep = _standard_rep(2)
    prods = rep.majorana_products()
    assert len(prods) == 16
    for a, pa in enumerate(prods):
        for b, pb in enumerate(prods):
            inner = np.trace(dagger(pa) @ pb) / rep.dim
            expected = 1.0 if a == b else 0.0
            assert abs(inner - expected) < 1e-13


def test_wick_inverse_roundtrip():
    rep = _standard_rep(3)
    gen = rng(4)
    coeff = gen.standard_normal(rep.dim) + 1j * gen.standard_normal(rep.dim)
    x = sum(c * p for c, p in zip(coeff, rep.omega_products()))
    xi = x[:, 0]  # action on the vacuum vector
    rebuilt = wick_inverse(rep, xi)
    assert max_abs(rebuilt - x) < 1e-10
    with pytest.raises(ShapeError):
        wick_inverse(rep, np.zeros(5))


def test_wick_inverse_at_rank_10():
    # the Wick matrix is the identity: no 2^rank products, no solve
    rep = _standard_rep(10)
    gen = rng(11)
    xi = np.zeros(rep.dim, dtype=complex)
    xi[0], xi[0b10010010] = 0.5, 2.0 - 1.0j  # 1/2 + (2 - i) w(f_1) w(f_4) w(f_7)
    x = wick_inverse(rep, xi)
    assert np.array_equal(x[:, 0], xi)
    vs = random_complex(gen, rep.dim)[:, :3]
    fields = [rep.omega(np.eye(10)[k]) for k in (1, 4, 7)]
    expected = 0.5 * vs + (2.0 - 1.0j) * (fields[0] @ (fields[1] @ (fields[2] @ vs)))
    assert max_abs(x @ vs - expected) <= 1e-12
    dense = random_complex(gen, rep.dim)[:, 0]
    assert np.array_equal(wick_inverse(rep, dense)[:, 0], dense)


def test_rep_size_guards():
    with pytest.raises(SizeError):
        build_fermion_rep(GramSpace.standard(13))
    with pytest.raises(ShapeError):
        _standard_rep(2).creation_op([1.0])


# ---------------------------------------------------------------------------
# exterior powers and second quantization


def _minor_exterior(t):
    """Reference exterior map: entry [B, A] is the determinant of the minor of
    t with rows B and columns A, all of one size k at once."""
    tt = np.asarray(t)
    d_out, d_in = tt.shape
    out = np.zeros((1 << d_out, 1 << d_in), dtype=tt.dtype if tt.dtype == complex else float)
    out[0, 0] = 1.0
    for k in range(1, min(d_in, d_out) + 1):
        rows = list(itertools.combinations(range(d_out), k))
        cols = list(itertools.combinations(range(d_in), k))
        sub = tt[np.array(rows)[:, None, :, None], np.array(cols)[None, :, None, :]]
        with np.errstate(all="ignore"):  # LU on a subnormal pivot raises flags
            out[np.ix_([sum(1 << i for i in b) for b in rows],
                       [sum(1 << i for i in a) for a in cols])] = np.linalg.det(sub)
    return out


def test_exterior_map_structure():
    gen = rng(5)
    t = gen.standard_normal((3, 3))
    lifted = exterior_map(t)
    np.testing.assert_allclose(exterior_map(np.eye(3)), np.eye(8), atol=1e-14)
    # single-particle block is t itself, top block is the determinant
    singles = [1, 2, 4]
    np.testing.assert_allclose(lifted[np.ix_(singles, singles)], t, atol=1e-13)
    assert abs(lifted[7, 7] - np.linalg.det(t)) < 1e-12
    assert lifted[0, 0] == 1.0


def test_exterior_map_functorial_and_orthogonal():
    gen = rng(6)
    a, b = gen.standard_normal((3, 3)), gen.standard_normal((3, 3))
    np.testing.assert_allclose(exterior_map(a @ b),
                               exterior_map(a) @ exterior_map(b), atol=1e-10)
    q, _ = np.linalg.qr(gen.standard_normal((4, 4)))
    lifted = np.asarray(exterior_map(q))
    np.testing.assert_allclose(lifted.T @ lifted, np.eye(16), atol=1e-12)


def test_exterior_map_rectangular():
    v = np.array([[1.0], [0.0]])  # isometry R^1 -> R^2
    lifted = exterior_map(v)
    assert lifted.shape == (4, 2)
    np.testing.assert_allclose(lifted.T @ lifted, np.eye(2), atol=1e-14)
    with pytest.raises(ShapeError):
        exterior_map(np.zeros(3))
    with pytest.raises(SizeError, match=r"dimension 2\^13 exceeds the dimension cap 4096"):
        exterior_map(np.eye(13))


def test_exterior_map_of_subnormal_entries_warns_nothing():
    # the 2 x 2 minor of [[0, 1], [s, 0]] pivots on the subnormal s, where an
    # LU determinant raises a divide-by-zero flag; the minors stand as computed
    s = 2.225073858507e-311
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lifted = exterior_map(np.array([[0.0, 1.0], [s, 0.0]]))
    singles = [1, 2]
    np.testing.assert_array_equal(lifted[np.ix_(singles, singles)], [[0.0, 1.0], [s, 0.0]])
    assert lifted[0, 0] == 1.0
    assert np.isfinite(lifted[3, 3]) and abs(lifted[3, 3] + s) <= s  # det = -s
    assert np.count_nonzero(lifted[[0, 0, 3, 3], [1, 3, 0, 1]]) == 0


def test_interleave_double_pattern():
    t = np.array([[1.0, 2.0], [3.0, 4.0]])
    big = interleave_double(t)
    expected = np.zeros((4, 4))
    expected[0::2, 0::2] = t
    expected[1::2, 1::2] = t
    np.testing.assert_array_equal(big, expected)


def test_second_quantize_identity_is_exact():
    rep = _standard_rep(2)
    g = second_quantize(rep, rep, np.eye(2))
    np.testing.assert_array_equal(g.super, np.eye(16))


def test_second_quantize_guards():
    rep2, rep3 = _standard_rep(2), _standard_rep(3)
    with pytest.raises(ShapeError):
        second_quantize(rep2, rep3, np.eye(2))
    with pytest.raises(PreconditionError):
        second_quantize(rep2, rep2, 1.2 * np.eye(2))


def test_second_quantize_markov_properties():
    rep = _standard_rep(3)
    gen = rng(7)
    a = gen.standard_normal((3, 3))
    a = (a + a.T) / 2
    t = a / (np.abs(np.linalg.eigvalsh(a)).max() + 0.1)
    g = second_quantize(rep, rep, t)
    eye = np.eye(rep.dim)
    assert max_abs(g(eye) - eye) < 1e-12
    x = random_complex(gen, rep.dim)
    assert abs(np.trace(g(x)) - np.trace(x)) < 1e-10
    choi = choi_matrix(g)
    assert max_abs(choi - dagger(choi)) < 1e-12
    assert np.linalg.eigvalsh((choi + dagger(choi)) / 2)[0] >= -1e-12


def test_second_quantize_functorial():
    rep = _standard_rep(3)
    gen = rng(8)
    mats = []
    for _ in range(2):
        a = gen.standard_normal((3, 3))
        a = (a + a.T) / 2
        mats.append(a / (np.abs(np.linalg.eigvalsh(a)).max() + 0.1))
    t1, t2 = mats
    lhs = second_quantize(rep, rep, t1 @ t2)
    rhs = second_quantize(rep, rep, t1).compose(second_quantize(rep, rep, t2))
    assert max_abs(lhs.super - rhs.super) < 1e-11


def test_second_quantize_wick_rule_degree_one_and_two():
    rep = _standard_rep(3)
    gen = rng(9)
    a = gen.standard_normal((3, 3))
    a = (a + a.T) / 2
    t = a / (np.abs(np.linalg.eigvalsh(a)).max() + 0.1)
    g = second_quantize(rep, rep, t)
    for _ in range(4):
        u, v = gen.standard_normal(3), gen.standard_normal(3)
        assert max_abs(g(rep.omega(u)) - rep.omega(t @ u)) < 1e-12
        # w(u)w(v) = Wick(u, v) + <u, v>; the functor maps the Wick part
        # letterwise and fixes scalars
        lhs = g(rep.omega(u) @ rep.omega(v))
        rhs = (rep.omega(t @ u) @ rep.omega(t @ v)
               + (u @ v - (t @ u) @ (t @ v)) * np.eye(rep.dim))
        assert max_abs(lhs - rhs) < 1e-12


def test_second_quantize_isometry_is_a_homomorphism():
    # an isometric embedding second-quantizes to the induced Clifford
    # homomorphism with no contraction corrections
    rep1, rep2 = _standard_rep(1), _standard_rep(2)
    v = np.array([[1.0], [0.0]])
    g = second_quantize(rep1, rep2, v)
    w0_in = rep1.omega([1.0])
    w0_out = rep2.omega(v[:, 0])
    np.testing.assert_allclose(g(w0_in), w0_out, atol=1e-13)
    np.testing.assert_allclose(g(np.eye(2)), np.eye(4), atol=1e-14)
    gen = rng(10)
    for _ in range(4):
        c = gen.standard_normal(2)
        x = c[0] * np.eye(2) + c[1] * w0_in
        y = gen.standard_normal(2)[0] * np.eye(2) + gen.standard_normal(2)[1] * w0_in
        np.testing.assert_allclose(g(x @ y), g(x) @ g(y), atol=1e-12)


# ---------------------------------------------------------------------------
# dense reference: Majorana products by matmul, second quantization by GEMMs


def _dense_majorana_basis(rank):
    """Columns vec(c_B) of the ordered Majorana products, multiplied out."""
    prods = _dense_products(_dense_majoranas(rank), 4 ** rank)
    return prods.reshape(len(prods), -1).T


def _dense_second_quantize(rep_in, rep_out, t):
    c_in, c_out = _dense_majorana_basis(rep_in.rank), _dense_majorana_basis(rep_out.rank)
    return c_out @ exterior_map(interleave_double(t)) @ c_in.conj().T / rep_in.dim


@st.composite
def real_contractions(draw, max_dim=4, max_total=8):
    """General contractions, orthogonal projections and isometries with at
    most max_dim rows and columns, and at most max_total of both together."""
    kind = draw(st.sampled_from(["contraction", "projection", "isometry"]))
    top = min(max_dim, max_total // 2) if kind == "projection" else max_dim
    d_out = draw(st.integers(min_value=0, max_value=top))
    d_in_cap = min(max_dim, max_total - d_out)
    gen = rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    if kind == "contraction":
        a = gen.standard_normal((d_out, draw(st.integers(min_value=0, max_value=d_in_cap))))
        norm = np.linalg.norm(a, 2) if a.size else 1.0
        return a * draw(st.floats(min_value=0.0, max_value=1.0, allow_subnormal=False)) / norm
    q, _ = np.linalg.qr(gen.standard_normal((d_out, d_out)))
    k = draw(st.integers(min_value=0, max_value=min(d_out, d_in_cap)))
    return q[:, :k] if kind == "isometry" else q[:, :k] @ q[:, :k].T


def test_majorana_products_match_dense_reference():
    for rank in range(6):
        rep = _standard_rep(rank)
        stacked = np.column_stack([p.reshape(-1) for p in rep.majorana_products()])
        assert np.array_equal(stacked, _dense_majorana_basis(rank))


def test_majorana_products_obey_the_byte_cap(monkeypatch):
    # rank 9 would take a 2 GiB phase table and a 1 TiB product stack
    rep = _standard_rep(9)
    start = time.perf_counter()
    with pytest.raises(SizeError):
        rep.majorana_products()
    assert time.perf_counter() - start < 0.5
    # 16^rank complex entries: over the cap at rank 2, while the frame fits
    monkeypatch.setattr(config, "BYTE_CAP", 16 * 16 ** 2 - 1)
    majorana_frame(2)
    with pytest.raises(SizeError):
        _standard_rep(2).majorana_products()


@settings(max_examples=60, deadline=None)
@given(real_contractions())
def test_second_quantize_matches_dense_reference(t):
    rep_in, rep_out = _standard_rep(t.shape[1]), _standard_rep(t.shape[0])
    g = second_quantize(rep_in, rep_out, t)
    assert max_abs(g.super - _dense_second_quantize(rep_in, rep_out, t)) <= 1e-13


@settings(max_examples=100, deadline=None)
@given(real_contractions(max_dim=6))
@example(np.zeros((0, 3)))
@example(np.zeros((3, 0)))
@example(np.array([[0.6, 0.2, 0.0], [0.1, -0.5, 0.3]]))
def test_exterior_map_matches_the_minors(t):
    lifted = exterior_map(t)
    assert lifted.shape == (1 << t.shape[0], 1 << t.shape[1])
    assert max_abs(lifted - _minor_exterior(t)) <= 1e-13


@st.composite
def map_stacks(draw):
    """Stacks (..., d_out, d_in) of real or complex maps, with 0-sized maps,
    empty stacks, and exact zeros in some maps of a stack but not in others."""
    stack = tuple(draw(st.lists(st.integers(min_value=0, max_value=3), max_size=2)))
    shape = (*stack, draw(st.integers(min_value=0, max_value=4)),
             draw(st.integers(min_value=0, max_value=4)))
    gen = rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    t = gen.standard_normal(shape)
    if draw(st.booleans()):
        t = t + 1j * gen.standard_normal(shape)
    t[gen.random(shape) < draw(st.sampled_from([0.0, 0.4, 0.8]))] = 0.0
    return t


@settings(max_examples=80, deadline=None)
@given(map_stacks())
@example(np.zeros((2, 0, 0)))
@example(np.ones((2, 0, 3)))
@example(np.ones((2, 3, 0), dtype=complex))
@example(np.ones((0, 3, 3)))
def test_a_stacked_lift_is_each_map_lifted_on_its_own(t):
    lifted = exterior_map(t)
    assert lifted.shape == (*t.shape[:-2], 1 << t.shape[-2], 1 << t.shape[-1])
    for index in np.ndindex(t.shape[:-2]):
        alone = exterior_map(t[index])
        assert lifted[index].dtype == alone.dtype
        assert np.array_equal(lifted[index], alone)


@settings(max_examples=60, deadline=None)
@given(real_contractions(max_dim=6))
@example(np.array([[0.6, 0.2, 0.0], [0.1, -0.5, 0.3]]))
@example(np.array([[0.3, -0.2], [0.5, 0.1], [0.0, 0.4], [-0.1, 0.2], [0.2, 0.0], [0.1, 0.3]]))
def test_second_quantize_of_field_monomials_is_the_exterior_map(t):
    """second_quantize, through the Majorana frame, sends the field monomial
    gamma_A to the field polynomial with vacuum column exterior_map(t)[:, A]."""
    rep_in, rep_out = _standard_rep(t.shape[1]), _standard_rep(t.shape[0])
    g = second_quantize(rep_in, rep_out, t)
    images = np.stack([g(x) for x in rep_in.omega_products()])
    assert max_abs(images - _field_polynomial(exterior_map(t).T)) <= 1e-13


def test_second_quantize_guards_its_superoperator_by_bytes(monkeypatch):
    # 16^rank complex entries: over the cap at rank 2, while both frames fit
    rep = _standard_rep(2)
    monkeypatch.setattr(config, "BYTE_CAP", 16 * 16 ** 2 - 1)
    majorana_frame(2)
    with pytest.raises(SizeError):
        second_quantize(rep, rep, np.eye(2))
    # the frame's phase table takes 16 * 8^rank bytes, bounded by the byte cap
    monkeypatch.setattr(config, "BYTE_CAP", 16 * 8 ** 3 - 1)
    with pytest.raises(SizeError):
        majorana_frame(3)
    majorana_frame(2)


def test_second_quantize_identity_is_exact_at_every_rank():
    for rank in range(6):
        rep = _standard_rep(rank)
        g = second_quantize(rep, rep, np.eye(rank))
        assert np.array_equal(g.super, np.eye(4 ** rank))


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@example((1, 2, 3), 0)
def test_second_quantize_functorial_and_unital(dims, seed):
    """Gamma(s t) = Gamma(s) Gamma(t) along d0 -> d1 -> d2, and every Gamma(t)
    is unital and preserves the normalized trace."""
    gen = rng(seed)
    reps = [_standard_rep(d) for d in dims]
    maps = []
    for d_in, d_out in zip(dims, dims[1:]):
        a = gen.standard_normal((d_out, d_in))
        maps.append(a / (np.linalg.norm(a, 2) * (1 + gen.random())) if a.size else a)
    t, s = maps
    g_t = second_quantize(reps[0], reps[1], t)
    g_s = second_quantize(reps[1], reps[2], s)
    g_st = second_quantize(reps[0], reps[2], s @ t)
    assert max_abs(g_st.super - g_s.compose(g_t).super) <= 1e-10
    for g, rep_in, rep_out in ((g_t, reps[0], reps[1]), (g_s, reps[1], reps[2]),
                               (g_st, reps[0], reps[2])):
        assert max_abs(g(np.eye(rep_in.dim)) - np.eye(rep_out.dim)) <= 1e-12
        x = random_complex(gen, rep_in.dim)
        assert abs(np.trace(g(x)) / rep_out.dim - np.trace(x) / rep_in.dim) <= 1e-12
