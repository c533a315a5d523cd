import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilation_lab import (DiagonalState, GramSpace, NotPsdError, PreconditionError,
                          SchurSymbol, ShapeError, apply_multiplier, build_gram_space,
                          certify_symbol, compose_symbols, config, markov_residuals,
                          multiplier_map)
from dilation_lab.matcore import (max_abs, random_complex, random_unital_psd_symbol,
                                  random_weights, rng)
from dilation_lab.schur import require_symbol


def test_apply_multiplier_is_entrywise():
    t = np.array([[1.0, 0.5], [0.5, 1.0]])
    x = random_complex(rng(0), 2)
    out = apply_multiplier(SchurSymbol(t), x)
    for i in range(2):
        for j in range(2):
            assert out[i, j] == t[i, j] * x[i, j]
    with pytest.raises(ShapeError):
        apply_multiplier(SchurSymbol(t), np.eye(3))


def test_multiplier_map_superoperator_is_diagonal():
    t = np.array([[1.0, 0.3], [0.3, 1.0]])
    m = multiplier_map(SchurSymbol(t))
    np.testing.assert_allclose(m.super, np.diag([1.0, 0.3, 0.3, 1.0]))
    x = random_complex(rng(1), 2)
    np.testing.assert_allclose(m(x), t * x)


def test_certify_symbol_worked_cases():
    good = certify_symbol(SchurSymbol(np.array([[1.0, 0.5], [0.5, 1.0]])))
    assert good == {"unital": 0.0, "self_adjoint": 0.0, "psd": 0.0}

    # the smallest eigenvalue is -0.5
    indefinite = certify_symbol(SchurSymbol(np.array([[1.0, 1.5], [1.5, 1.0]])))
    assert indefinite["unital"] == 0.0
    assert abs(indefinite["psd"] - 0.5) < 1e-12

    off_diagonal = certify_symbol(SchurSymbol(np.array([[0.9, 0.1], [0.1, 0.9]])))
    assert abs(off_diagonal["unital"] - 0.1) < 1e-12
    assert off_diagonal["psd"] == 0.0


def test_certify_symbol_hermitian_complex_is_psd_but_not_self_adjoint():
    t = np.array([[1.0, 1j], [-1j, 1.0]])
    report = certify_symbol(SchurSymbol(t))
    assert report["psd"] < 1e-12
    assert report["self_adjoint"] == 2.0

    # a Hermiticity defect of 0.2 over tol counts into psd, although the
    # Hermitian part has eigenvalues 0.5 and 1.5
    skew = SchurSymbol(np.array([[1.0, 0.4], [0.6, 1.0]]))
    assert abs(certify_symbol(skew)["psd"] - 0.2) < 1e-12
    assert certify_symbol(skew, tol=0.3)["psd"] == 0.0


def test_nan_eigenvalue_fails_the_psd_residuals(monkeypatch):
    # max(0, nan) is 0: a NaN from the eigensolver must not read as PSD
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(len(a), np.nan))
    symbol = SchurSymbol(np.eye(2))
    assert np.isnan(certify_symbol(symbol)["psd"])
    residuals = markov_residuals(multiplier_map(symbol), DiagonalState([0.5, 0.5]))
    assert np.isnan(residuals["cp_negative"]) and np.isnan(residuals["cp"])
    with pytest.raises(PreconditionError, match="psd residual nan"):
        require_symbol(symbol)


def test_gram_space_cholesky_cross_check():
    # independent factorization route: Cholesky rows are also a valid embedding
    gen = rng(2)
    for n in (2, 3, 5):
        t = random_unital_psd_symbol(gen, n) + 1e-6 * np.eye(n)
        t /= t[0, 0]
        space = build_gram_space(SchurSymbol(t))
        np.testing.assert_allclose(space.gram(), t, atol=1e-10)
        chol = np.linalg.cholesky(t)
        np.testing.assert_allclose(chol @ chol.T, space.gram(), atol=1e-10)


def test_gram_space_detects_rank():
    ones = SchurSymbol(np.ones((3, 3)))
    space = build_gram_space(ones)
    assert space.rank == 1
    np.testing.assert_allclose(space.gram(), np.ones((3, 3)), atol=1e-12)
    # columns come ordered by decreasing eigenvalue weight
    gen = rng(3)
    t = random_unital_psd_symbol(gen, 4)
    emb = build_gram_space(SchurSymbol(t)).embedding
    norms = np.linalg.norm(emb, axis=0)
    assert np.all(np.diff(norms) <= 1e-12)


def test_gram_space_rejects_bad_symbols():
    with pytest.raises(NotPsdError):
        build_gram_space(SchurSymbol(np.array([[1.0, 1.5], [1.5, 1.0]])))
    with pytest.raises(ShapeError):
        build_gram_space(SchurSymbol(np.array([[1.0, 0.2], [0.4, 1.0]])))
    with pytest.raises(ShapeError):
        build_gram_space(SchurSymbol(np.array([[1.0, 1j], [-1j, 1.0]])))


def test_gram_space_accepts_a_symbol_symmetric_within_tol():
    t = np.array([[1.0, 0.50000001], [0.5, 1.0]])
    with pytest.raises(ShapeError):
        build_gram_space(SchurSymbol(t))
    space = build_gram_space(SchurSymbol(t), tol=1e-6)
    # the symmetric part, which certify_symbol measures, not one triangle
    np.testing.assert_allclose(space.gram(), t / 2 + t.T / 2, rtol=0, atol=1e-14)


def test_gram_space_standard_and_validation():
    std = GramSpace.standard(3)
    np.testing.assert_allclose(std.gram(), np.eye(3))
    with pytest.raises(ShapeError):
        GramSpace(2, np.zeros((3, 1)))


def test_compose_symbols_hadamard():
    a = SchurSymbol(np.array([[1.0, 0.5], [0.5, 1.0]]))
    b = SchurSymbol(np.array([[1.0, -0.2], [-0.2, 1.0]]))
    c = compose_symbols(a, b)
    np.testing.assert_allclose(c.matrix, a.matrix * b.matrix)
    # composition of the superoperators matches the composed symbol
    np.testing.assert_allclose(
        multiplier_map(a).compose(multiplier_map(b)).super,
        multiplier_map(c).super)
    # Schur product of unital PSD symbols stays unital PSD
    report = certify_symbol(c)
    assert report["unital"] <= config.TOL_NUM and report["psd"] <= config.TOL_PSD


def test_multiplier_of_psd_symbol_is_markov_for_any_faithful_state():
    gen = rng(4)
    for n in (2, 4):
        t = random_unital_psd_symbol(gen, n)
        w = 0.05 + gen.random(n)
        st = DiagonalState(w / w.sum())
        res = markov_residuals(multiplier_map(SchurSymbol(t)), st)
        assert max(res["unital"], res["state_preserving"], res["modular"]) <= config.TOL_NUM
        assert res["cp_hermitian"] <= config.TOL_NUM and res["cp_negative"] <= config.TOL_PSD


@st.composite
def real_symbols(draw):
    """Real n x n symbols, n <= 4: unital PSD symbols of every Gram rank, as
    drawn or plus a symmetric or an arbitrary real perturbation."""
    n = draw(st.integers(min_value=1, max_value=4))
    gen = rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    t = random_unital_psd_symbol(gen, n, draw(st.integers(min_value=1, max_value=n)))
    kind = draw(st.sampled_from(["psd", "symmetric", "arbitrary"]))
    if kind != "psd":
        noise = gen.standard_normal((n, n))
        t = t + draw(st.sampled_from([1e-3, 0.1, 0.5])) * (
            noise + noise.T if kind == "symmetric" else noise)
    return SchurSymbol(t), DiagonalState(random_weights(gen, n))


# criterion 4 for any real symbol: the Choi verdict of the multiplier is the
# symbol's PSD verdict
@settings(max_examples=100, deadline=None)
@given(real_symbols())
def test_choi_verdict_equals_symbol_verdict(case):
    # each verdict at the default tolerances, as the CLI's markov_cp and
    # symbol_psd rows judge them
    symbol, state = case
    res = markov_residuals(multiplier_map(symbol), state)
    choi_cp = res["cp_hermitian"] <= config.TOL_NUM and res["cp_negative"] <= config.TOL_PSD
    assert choi_cp == (certify_symbol(symbol)["psd"] <= config.TOL_PSD)
