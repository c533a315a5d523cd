import dataclasses

import numpy as np
import pytest

from dilation_lab import (FiniteGroup, FourierSymbol, PreconditionError,
                          SchurSymbol, ShapeError, SizeError,
                          apply_multiplier, build_crossed_dilation,
                          build_group_algebra, certify_markov, certify_posdef,
                          config, cyclic_group, dihedral_group, gram_matrix,
                          multiplier_apply, multiplier_map,
                          random_posdef_symbol, schur_symbol_matrix,
                          symmetric_group, verify_covariance,
                          verify_fourier_identity, verify_morphism_markov)
from dilation_lab.states import DiagonalState
from dilation_lab.matcore import dagger, max_abs, rng


def test_cyclic_table_is_addition():
    g = cyclic_group(4)
    idx = np.arange(4)
    np.testing.assert_array_equal(g.table, (idx[:, None] + idx[None, :]) % 4)
    assert g.identity == 0
    np.testing.assert_array_equal(g.inverse, [0, 3, 2, 1])


def test_symmetric_group_is_nonabelian_of_order_six():
    g = symmetric_group(3)
    assert g.order == 6
    assert np.any(g.table != g.table.T)
    # every element of S3 has order dividing 6
    for a in range(6):
        power, k = a, 1
        while power != g.identity:
            power, k = g.mul(a, power), k + 1
        assert k in (1, 2, 3)


def test_dihedral_relations():
    k = 4
    g = dihedral_group(k)
    assert g.order == 2 * k
    r, s = 1, k  # rotation generator and a flip
    assert g.mul(s, s) == g.identity
    # s r s = r^{-1}
    assert g.mul(g.mul(s, r), s) == g.inv(r)


def test_group_validation():
    with pytest.raises(ShapeError):
        FiniteGroup(np.zeros((2, 3), dtype=int))
    with pytest.raises(PreconditionError):
        FiniteGroup(np.zeros((2, 2), dtype=int))  # not a Latin square
    with pytest.raises(PreconditionError):
        FiniteGroup(np.array([[0, 3], [3, 0]]))  # entries out of range
    idx = np.arange(5)
    subtraction = (idx[:, None] - idx[None, :]) % 5  # Latin but not associative
    with pytest.raises(PreconditionError):
        FiniteGroup(subtraction)
    with pytest.raises(SizeError):
        cyclic_group(25)
    with pytest.raises(PreconditionError):
        cyclic_group(0)


def test_group_derived_fields_are_not_parameters():
    # identity and inverse come from the table; a caller cannot pass them
    table = cyclic_group(3).table
    with pytest.raises(TypeError):
        FiniteGroup(table, identity=1)
    with pytest.raises(TypeError):
        FiniteGroup(table, inverse=np.arange(3))
    group = FiniteGroup(table)
    assert group.identity == 0 and list(group.inverse) == [0, 2, 1]


def test_symbol_validation():
    g = cyclic_group(3)
    with pytest.raises(ShapeError):
        FourierSymbol(g, [1.0, 0.5])
    with pytest.raises(PreconditionError):
        FourierSymbol(g, [1.0, np.nan, 0.0])
    with pytest.raises(ShapeError):
        FourierSymbol(cyclic_group(2), [[1.0], [0.5]])


def test_gram_and_schur_matrices_by_double_loop():
    g = symmetric_group(3)
    gen = rng(0)
    t = FourierSymbol(g, gen.standard_normal(6))
    gram = gram_matrix(t)
    schur = schur_symbol_matrix(t)
    for a in range(6):
        for b in range(6):
            assert gram[a, b] == t.values[g.mul(g.inv(a), b)]
            assert schur[a, b] == t.values[g.mul(a, g.inv(b))]


def test_certify_posdef_worked_case():
    g = cyclic_group(2)
    good = certify_posdef(FourierSymbol(g, [1.0, 0.5]))
    assert good.unital and good.psd and good.self_adjoint
    assert abs(good.min_eigenvalue - 0.5) < 1e-12
    bad = certify_posdef(FourierSymbol(g, [1.0, 1.5]))
    assert not bad.psd
    assert abs(bad.min_eigenvalue + 0.5) < 1e-12


def test_certify_posdef_matches_fourier_transform_on_cyclic_groups():
    # the Gram matrix of t on Z_m is circulant, so positivity is equivalent
    # to nonnegativity of the discrete Fourier transform
    gen = rng(1)
    for m in (3, 4, 5, 6):
        g = cyclic_group(m)
        for _ in range(6):
            t = gen.standard_normal(m)
            t[0] = abs(t[0]) + 1.0
            t = (t + t[np.r_[0, m - 1 : 0 : -1]]) / 2  # enforce t(g^-1) = t(g)
            spectrum = np.fft.fft(t).real
            verdict = certify_posdef(FourierSymbol(g, t / t[0])).psd
            assert verdict == bool(spectrum.min() >= -1e-9 * abs(spectrum).max())


def test_group_algebra_is_a_representation():
    for g in (cyclic_group(4), symmetric_group(3)):
        lam = build_group_algebra(g)
        np.testing.assert_array_equal(lam[g.identity], np.eye(g.order))
        for a in range(g.order):
            for b in range(g.order):
                np.testing.assert_array_equal(lam[a] @ lam[b], lam[g.mul(a, b)])


def test_multiplier_apply_scales_group_elements():
    g = cyclic_group(3)
    lam = build_group_algebra(g)
    t = FourierSymbol(g, [1.0, 0.4, 0.4])
    for a in range(3):
        np.testing.assert_allclose(multiplier_apply(t, lam[a]),
                                   t.values[a] * lam[a], atol=1e-13)
    combo = 2.0 * lam[0] - 1j * lam[2]
    np.testing.assert_allclose(multiplier_apply(t, combo),
                               2.0 * lam[0] - 0.4j * lam[2], atol=1e-13)
    off_span = np.zeros((3, 3))
    off_span[0, 1] = 1.0
    with pytest.raises(PreconditionError):
        multiplier_apply(t, off_span)


def test_random_symbols_are_positive_definite():
    for group in (cyclic_group(2), cyclic_group(5), symmetric_group(3),
                  dihedral_group(3)):
        for seed in range(3):
            t = random_posdef_symbol(group, rng(seed))
            assert abs(t.values[group.identity] - 1.0) < 1e-12
            rep = certify_posdef(t)
            assert rep.unital and rep.psd and rep.self_adjoint


def test_schur_restriction_of_the_multiplier():
    # the entrywise multiplier with symbol t_{gh^-1} acts on lambda(g) as
    # multiplication by t_g, and is Markov when t is positive definite
    g = symmetric_group(3)
    t = random_posdef_symbol(g, rng(2))
    schur = SchurSymbol(schur_symbol_matrix(t))
    lam = build_group_algebra(g)
    for a in range(g.order):
        np.testing.assert_allclose(apply_multiplier(schur, lam[a]),
                                   t.values[a] * lam[a], atol=1e-12)
    state = DiagonalState(np.full(g.order, 1.0 / g.order))
    certified = certify_markov(multiplier_map(schur), state)
    assert all((certified.unital, certified.cp, certified.state_preserving,
                certified.modular_intertwining))


@pytest.mark.parametrize("group", [cyclic_group(2), cyclic_group(3),
                                   symmetric_group(3)],
                         ids=["z2", "z3", "s3"])
def test_crossed_dilation_properties(group):
    t = random_posdef_symbol(group, rng(5))
    bundle = build_crossed_dilation(t)
    assert verify_fourier_identity(bundle, t, samples=8, seed=6) < 1e-10
    cov = verify_covariance(bundle)
    assert max(cov.values()) < 1e-10
    w = bundle.d
    assert max_abs(w - dagger(w)) < 1e-12
    assert max_abs(w @ w - np.eye(bundle.ambient_dim)) < 1e-12
    reports = verify_morphism_markov(bundle, samples=5, seed=7)
    for rep in reports.values():
        assert rep.max_residual() < 1e-10


def test_crossed_dilation_worked_z2_pairings():
    g = cyclic_group(2)
    t = FourierSymbol(g, [1.0, 0.5])
    bundle = build_crossed_dilation(t)
    lam = build_group_algebra(g)
    for a in range(2):
        for b in range(2):
            value = bundle.ambient_phi(bundle.pi(lam[a]) @ bundle.rho(lam[b]))
            expected = t.values[a] if g.mul(a, b) == g.identity else 0.0
            assert abs(value - expected) < 1e-12


def test_crossed_dilation_rejects_bad_coefficients():
    g = cyclic_group(2)
    with pytest.raises(PreconditionError):
        build_crossed_dilation(FourierSymbol(g, [1.0, 1.5]))
    with pytest.raises(PreconditionError):
        build_crossed_dilation(FourierSymbol(g, [2.0, 0.5]))


def test_crossed_dilation_respects_dimension_cap(monkeypatch):
    monkeypatch.setenv("DILATION_LAB_DIM_CAP", "8")
    t = random_posdef_symbol(symmetric_group(3), rng(8))
    with pytest.raises(SizeError):
        build_crossed_dilation(t)


def test_covariance_requires_a_crossed_bundle():
    from dilation_lab import build_dilation
    plain = build_dilation(SchurSymbol([[1.0, 0.5], [0.5, 1.0]]),
                           DiagonalState([0.5, 0.5]))
    with pytest.raises(PreconditionError):
        verify_covariance(plain)


# ---------------------------------------------------------------------------
# dense references: conjugation by Lam(g) as GEMMs, pairings of full products


def _dense_covariance(bundle):
    group = bundle.symbol.group
    m, f = group.order, bundle.rotations.shape[1]
    big_lam = [np.kron(bundle.lam[g], np.eye(f)) for g in range(m)]
    fields = []
    for row in bundle.gram.embedding:
        a = bundle.rep.omega(row)
        field = np.zeros((m * f, m * f), dtype=complex)
        for h in range(m):
            r = bundle.rotations[group.inv(h)]
            field[h * f : (h + 1) * f, h * f : (h + 1) * f] = r @ a @ r.T
        fields.append(field)
    return max(max_abs(big_lam[g] @ fields[h] @ big_lam[g].conj().T
                       - fields[group.mul(g, h)])
               for g in range(m) for h in range(m))


def _dense_fourier_identity(bundle, symbol, samples, seed):
    group, t, m = symbol.group, symbol.values, symbol.group.order
    pis = [bundle.pi(bundle.lam[g]) for g in range(m)]
    rhos = [bundle.rho(bundle.lam[g]) for g in range(m)]
    worst = 0.0
    for g in range(m):
        for h in range(m):
            expected = t[g] if group.mul(g, h) == group.identity else 0.0
            worst = max(worst, abs(bundle.ambient_phi(pis[g] @ rhos[h]) - expected))
    gen = rng(seed)
    for _ in range(samples):
        a, b = gen.standard_normal(m), gen.standard_normal(m)
        x = np.tensordot(a, pis, axes=1)
        y = np.tensordot(b, rhos, axes=1)
        expected = sum(a[g] * b[group.inv(g)] * t[g] for g in range(m))
        worst = max(worst, abs(bundle.ambient_phi(x @ y) - expected))
    return worst


REFERENCE_GROUPS = [cyclic_group(3), cyclic_group(4), symmetric_group(3), dihedral_group(3)]


@pytest.mark.parametrize("group", REFERENCE_GROUPS, ids=["z3", "z4", "s3", "d3"])
def test_block_paths_match_dense_references(group):
    t = random_posdef_symbol(group, rng(11))
    bundle = build_crossed_dilation(t)
    d = bundle.d
    for g in range(group.order):
        x = bundle.lam[g]
        assert max_abs(bundle.rho(x) - d @ bundle.pi(x) @ d) <= 1e-13
    assert verify_covariance(bundle)["field_covariance"] == _dense_covariance(bundle)
    residual = verify_fourier_identity(bundle, t, samples=8, seed=12)
    assert abs(residual - _dense_fourier_identity(bundle, t, 8, 12)) <= 1e-13


def test_swapped_rotations_break_field_covariance():
    group = cyclic_group(3)
    bundle = build_crossed_dilation(random_posdef_symbol(group, rng(13)))
    rotations = bundle.rotations[[0, 2, 1]]
    assert max_abs(rotations[1] - bundle.rotations[1]) > 1e-3
    bad = dataclasses.replace(bundle, rotations=rotations)
    residuals = verify_covariance(bad)
    assert residuals["field_covariance"] > config.TOL_NUM
    assert residuals["field_covariance"] == _dense_covariance(bad)
