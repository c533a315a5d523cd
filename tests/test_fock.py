import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dilation_lab import (GramSpace, PreconditionError, SchurSymbol, ShapeError,
                          SizeError, build_fermion_rep, build_gram_space,
                          choi_matrix, exterior_map, interleave_double,
                          second_quantize, verify_q_relation, wick_inverse)
from dilation_lab.fock import (QWord, TruncatedQFock, _doubled_exterior, creation_apply,
                               q_gram)
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


def test_creation_car_relations():
    rep = _standard_rep(3)
    eye = np.eye(rep.dim)
    for i in range(3):
        for j in range(3):
            ci, cj = rep.creation[i], rep.creation[j]
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


def test_rep_size_guards():
    with pytest.raises(SizeError):
        build_fermion_rep(GramSpace.standard(13))
    with pytest.raises(ShapeError):
        _standard_rep(2).creation_op([1.0])


# ---------------------------------------------------------------------------
# exterior powers and second quantization


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
    with pytest.raises(SizeError):
        exterior_map(np.eye(13))


def test_exterior_map_of_subnormal_entries_warns_nothing():
    # the 2 x 2 minor of [[0, 1], [s, 0]] pivots on the subnormal s, where
    # LAPACK's LU raises a divide-by-zero flag; the minors stand as computed
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


def _dense_majorana_basis(rep):
    """Columns vec(c_B) of the ordered Majorana products, multiplied out."""
    maj = rep.majoranas()
    prods = [np.eye(rep.dim, dtype=complex)]
    for mask in range(1, 1 << (2 * rep.rank)):
        low = (mask & -mask).bit_length() - 1
        prods.append(maj[low] @ prods[mask ^ (1 << low)])
    return np.column_stack([p.reshape(-1) for p in prods])


def _dense_second_quantize(rep_in, rep_out, t):
    c_in, c_out = _dense_majorana_basis(rep_in), _dense_majorana_basis(rep_out)
    return c_out @ exterior_map(interleave_double(t)) @ c_in.conj().T / rep_in.dim


@st.composite
def real_contractions(draw):
    """General contractions of any shape up to 4 x 4, orthogonal projections
    and isometries."""
    kind = draw(st.sampled_from(["contraction", "projection", "isometry"]))
    d_out = draw(st.integers(min_value=0, max_value=4))
    gen = rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    if kind == "contraction":
        a = gen.standard_normal((d_out, draw(st.integers(min_value=0, max_value=4))))
        norm = np.linalg.norm(a, 2) if a.size else 1.0
        return a * draw(st.floats(min_value=0.0, max_value=1.0, allow_subnormal=False)) / norm
    q, _ = np.linalg.qr(gen.standard_normal((d_out, d_out)))
    k = draw(st.integers(min_value=0, max_value=d_out))
    return q[:, :k] if kind == "isometry" else q[:, :k] @ q[:, :k].T


def test_majorana_products_match_dense_reference():
    for rank in range(5):
        rep = _standard_rep(rank)
        stacked = np.column_stack([p.reshape(-1) for p in rep.majorana_products()])
        np.testing.assert_array_equal(stacked, _dense_majorana_basis(rep))


@settings(max_examples=60, deadline=None)
@given(real_contractions())
def test_second_quantize_matches_dense_reference(t):
    rep_in, rep_out = _standard_rep(t.shape[1]), _standard_rep(t.shape[0])
    g = second_quantize(rep_in, rep_out, t)
    assert max_abs(g.super - _dense_second_quantize(rep_in, rep_out, t)) <= 1e-13
    assert max_abs(_doubled_exterior(t) - exterior_map(interleave_double(t))) <= 1e-13


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
