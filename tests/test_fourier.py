import dataclasses
import tracemalloc

import numpy as np
import pytest

import dilation_lab.fourier as fourier_module
from dilation_lab import (DilationBundle, FiniteGroup, FourierSymbol, PreconditionError,
                          SchurSymbol, ShapeError, SizeError,
                          apply_multiplier, build_crossed_dilation,
                          build_group_algebra, certify_posdef, config,
                          cyclic_group, dihedral_group, gram_matrix, markov_residuals,
                          multiplier_apply, multiplier_map,
                          random_posdef_symbol, schur_symbol_matrix,
                          star_swap_check, symmetric_group, verify_covariance,
                          verify_factorization, verify_fourier_identity,
                          verify_morphism_markov)
from dilation_lab.states import DiagonalState
from dilation_lab.matcore import dagger, direct_sum, max_abs, random_complex, rng


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
    assert good == {"unital": 0.0, "self_adjoint": 0.0, "psd": 0.0}
    # the Gram matrix has eigenvalues 2.5 and -0.5
    bad = certify_posdef(FourierSymbol(g, [1.0, 1.5]))
    assert abs(bad["psd"] - 0.5) < 1e-12


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
            verdict = certify_posdef(FourierSymbol(g, t / t[0]))["psd"] <= config.TOL_PSD
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
            res = certify_posdef(t)
            assert max(res["unital"], res["self_adjoint"]) <= config.TOL_NUM
            assert res["psd"] <= config.TOL_PSD


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
    res = markov_residuals(multiplier_map(schur), state)
    assert max(res["unital"], res["state_preserving"], res["modular"]) <= config.TOL_NUM
    assert res["cp_hermitian"] <= config.TOL_NUM and res["cp_negative"] <= config.TOL_PSD


@pytest.mark.parametrize("group", [cyclic_group(2), cyclic_group(3),
                                   symmetric_group(3)],
                         ids=["z2", "z3", "s3"])
def test_crossed_dilation_properties(group):
    t = random_posdef_symbol(group, rng(5))
    bundle = build_crossed_dilation(t)
    assert verify_fourier_identity(bundle, t, samples=8, seed=6) < 1e-10
    cov = verify_covariance(bundle)
    assert max(cov.values()) < 1e-10
    w = direct_sum(bundle.blocks)
    assert max_abs(w - dagger(w)) < 1e-12
    assert max_abs(w @ w - np.eye(bundle.ambient_dim)) < 1e-12
    assert max(verify_morphism_markov(bundle, samples=5, seed=7).values()) < 1e-10


def test_crossed_dilation_worked_z2_pairings():
    g = cyclic_group(2)
    t = FourierSymbol(g, [1.0, 0.5])
    bundle = build_crossed_dilation(t)
    lam = build_group_algebra(g)
    for a in range(2):
        for b in range(2):
            value = bundle.ambient_state(bundle.pi(lam[a]) @ bundle.rho(lam[b]))
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


def test_oversized_crossed_dilation_is_refused_before_its_fiber_state():
    # ambient dimension 24 * 2^24 is over the cap; the 2^24 fiber weights
    # alone would take 134 MB
    t = random_posdef_symbol(cyclic_group(24), rng(2))
    tracemalloc.start()
    try:
        with pytest.raises(SizeError):
            build_crossed_dilation(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 24


def test_crossed_legs_act_on_all_of_the_input_algebra():
    # a dense x far from the group algebra: pi is x (x) 1 and rho is
    # d (x (x) 1) d, as on any element of M_6
    group = symmetric_group(3)
    bundle = build_crossed_dilation(random_posdef_symbol(group, rng(5)))
    x = random_complex(rng(28), group.order)
    assert max_abs(np.tensordot(x[:, group.identity], bundle.lam, axes=1) - x) > 0.1
    pi_x = np.kron(x, np.eye(bundle.fiber_state.dim))
    np.testing.assert_array_equal(bundle.pi(x), pi_x)
    d = direct_sum(bundle.blocks)
    assert max_abs(bundle.rho(x) - d @ pi_x @ d) <= 1e-13


@pytest.mark.parametrize("group", [cyclic_group(3), cyclic_group(4), symmetric_group(3)],
                         ids=["z3", "z4", "s3"])
def test_crossed_bundle_dilates_the_transferred_schur_multiplier(group):
    # transference: with the tracial state, the crossed bundle dilates the
    # Schur multiplier of the symbol t(g h^-1) on all of M_m
    t = random_posdef_symbol(group, rng(5))
    bundle = build_crossed_dilation(t)
    state = DiagonalState.tracial(group.order)
    symbol = SchurSymbol(schur_symbol_matrix(t))
    assert verify_factorization(bundle, symbol, state, seed=3) <= config.TOL_NUM
    assert star_swap_check(bundle, symbol, state, seed=3) <= config.TOL_NUM


def test_transference_fails_for_the_symbol_t_g_inverse_h():
    # on the nonabelian s3 the symbol t(g^-1 h) is another multiplier, which
    # the crossed bundle does not dilate
    t = random_posdef_symbol(symmetric_group(3), rng(5))
    bundle = build_crossed_dilation(t)
    state = DiagonalState.tracial(6)
    symbol = SchurSymbol(gram_matrix(t))
    assert verify_factorization(bundle, symbol, state, seed=3) > 1.0
    assert star_swap_check(bundle, symbol, state, seed=3) > 1.0


@pytest.mark.parametrize("make, arg", [(cyclic_group, 2000), (dihedral_group, 250),
                                       (symmetric_group, 8)],
                         ids=["cyclic", "dihedral", "symmetric"])
def test_oversized_groups_are_refused_before_their_tables(make, arg):
    # orders 2000, 500 and 40320 are over the cap; their Cayley tables would
    # take 32 MB, 2 MB and 13 GB
    tracemalloc.start()
    try:
        with pytest.raises(SizeError):
            make(arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_covariance_requires_a_crossed_bundle():
    from dilation_lab import build_dilation
    plain = build_dilation(SchurSymbol([[1.0, 0.5], [0.5, 1.0]]),
                           DiagonalState([0.5, 0.5]))
    with pytest.raises(PreconditionError):
        verify_covariance(plain)


# ---------------------------------------------------------------------------
# dense references: conjugation by Lam(g) as GEMMs, pairings of full products


def _rotations(bundle):
    """The exterior lifts R_g = exterior_map(O_g), one call on the stack of
    actions as in verify_covariance, through the module's name so that a
    patched exterior_map reaches them."""
    return fourier_module.exterior_map(bundle.actions)


def _covariant_blocks(group, rotations, a):
    """Diagonal blocks of the block-diagonal covariant copy: block h = alpha(h^-1)(a)."""
    return np.stack([r @ a @ r.T for r in rotations[group.inverse]])


def _dense_covariance(bundle):
    """field_covariance as it was read before the intertwining route: the
    dense copies of every field conjugated by every Lam(g)."""
    group, rotations = bundle.symbol.group, _rotations(bundle)
    m, f = group.order, rotations.shape[1]
    big_lam = [np.kron(bundle.lam[g], np.eye(f)) for g in range(m)]
    fields = []
    for row in bundle.gram.embedding:
        a = bundle.rep.omega(row)
        field = np.zeros((m * f, m * f), dtype=complex)
        for h in range(m):
            r = rotations[group.inv(h)]
            field[h * f : (h + 1) * f, h * f : (h + 1) * f] = r @ a @ r.T
        fields.append(field)
    return max(max_abs(big_lam[g] @ fields[h] @ big_lam[g].conj().T
                       - fields[group.mul(g, h)])
               for g in range(m) for h in range(m))


def _dense_intertwining(bundle):
    """max |R_g w(e_k) - w(O_g e_k) R_g| over g and k from dense fields and
    GEMMs, and max |O_g v_h - v_gh| over g and h."""
    group, rotations, rows = bundle.symbol.group, _rotations(bundle), bundle.gram.embedding
    basis = np.eye(bundle.rep.rank)
    worst = 0.0
    for g, (action, r) in enumerate(zip(bundle.actions, rotations)):
        for e in basis:
            worst = max(worst, max_abs(r @ bundle.rep.omega(e)
                                       - bundle.rep.omega(action @ e) @ r))
        for h, row in enumerate(rows):
            worst = max(worst, max_abs(action @ row - rows[group.mul(g, h)]))
    return worst


def _dense_fourier_identity(bundle, symbol, samples, seed):
    group, t, m = symbol.group, symbol.values, symbol.group.order
    pis = [bundle.pi(bundle.lam[g]) for g in range(m)]
    rhos = [bundle.rho(bundle.lam[g]) for g in range(m)]
    worst = 0.0
    for g in range(m):
        for h in range(m):
            expected = t[g] if group.mul(g, h) == group.identity else 0.0
            worst = max(worst, abs(bundle.ambient_state(pis[g] @ rhos[h]) - expected))
    gen = rng(seed)
    for _ in range(samples):
        a, b = gen.standard_normal(m), gen.standard_normal(m)
        x = np.tensordot(a, pis, axes=1)
        y = np.tensordot(b, rhos, axes=1)
        expected = sum(a[g] * b[group.inv(g)] * t[g] for g in range(m))
        worst = max(worst, abs(bundle.ambient_state(x @ y) - expected))
    return worst


REFERENCE_GROUPS = [cyclic_group(3), cyclic_group(4), symmetric_group(3), dihedral_group(3)]


@pytest.mark.parametrize("group", REFERENCE_GROUPS, ids=["z3", "z4", "s3", "d3"])
def test_block_paths_match_dense_references(group):
    t = random_posdef_symbol(group, rng(11))
    bundle = build_crossed_dilation(t)
    d = direct_sum(bundle.blocks)
    for g in range(group.order):
        x = bundle.lam[g]
        assert max_abs(bundle.rho(x) - d @ bundle.pi(x) @ d) <= 1e-13
    covariance = verify_covariance(bundle)["field_covariance"]
    assert abs(covariance - _dense_intertwining(bundle)) <= 1e-13
    assert _dense_covariance(bundle) <= 1e-13
    residual = verify_fourier_identity(bundle, t, samples=8, seed=12)
    assert abs(residual - _dense_fourier_identity(bundle, t, 8, 12)) <= 1e-13


def test_swapped_rotations_break_field_covariance():
    # O_1 and O_2 swapped on Z_3 is g -> g^-1, an automorphism: still a
    # homomorphism, and each swapped R_g still intertwines the fields with
    # its O_g, but O_g v_h is no longer v_gh
    group = cyclic_group(3)
    bundle = build_crossed_dilation(random_posdef_symbol(group, rng(13)))
    actions = bundle.actions[[0, 2, 1]]
    assert max_abs(actions[1] - bundle.actions[1]) > 1e-3
    bad = dataclasses.replace(bundle, actions=actions)
    residuals = verify_covariance(bad)
    assert residuals["action_homomorphism"] <= config.TOL_NUM
    assert residuals["field_covariance"] > 1.0
    assert abs(residuals["field_covariance"] - _dense_intertwining(bad)) <= 1e-13
    assert _dense_covariance(bad) > 1.0


@pytest.mark.parametrize("group", [cyclic_group(3), cyclic_group(6), symmetric_group(3)],
                         ids=["z3", "z6", "s3"])
def test_a_flipped_rotation_column_breaks_field_covariance(group, monkeypatch):
    # R_g for one g != e with the sign of one one-particle column flipped:
    # still orthogonal and still fixing the vacuum, but it no longer lifts
    # O_g, and the copies it makes are no longer covariant
    bundle = build_crossed_dilation(random_posdef_symbol(group, rng(13)))
    target = bundle.actions[1 if group.identity != 1 else 2]
    exterior_map = fourier_module.exterior_map

    def flipped(actions):
        # the lifts of the whole stack, with the flip in the slice of target
        lifts = exterior_map(actions)
        hits = np.all(actions == target, axis=(1, 2))
        assert np.count_nonzero(hits) == 1
        lifts[hits, :, 1] *= -1.0
        return lifts

    monkeypatch.setattr(fourier_module, "exterior_map", flipped)
    residuals = verify_covariance(bundle)
    assert residuals["orthogonal"] <= config.TOL_NUM
    assert residuals["action_homomorphism"] <= config.TOL_NUM
    assert residuals["field_covariance"] > 1.0
    assert abs(residuals["field_covariance"] - _dense_intertwining(bundle)) <= 1e-13
    assert _dense_covariance(bundle) > 1.0


def test_covariance_lifts_every_action_in_one_call(monkeypatch):
    bundle = build_crossed_dilation(random_posdef_symbol(cyclic_group(6), rng(13)))
    shapes = []
    exterior_map = fourier_module.exterior_map

    def counted(actions):
        shapes.append(np.shape(actions))
        return exterior_map(actions)

    monkeypatch.setattr(fourier_module, "exterior_map", counted)
    verify_covariance(bundle)
    assert shapes == [bundle.actions.shape]


def test_scaled_rho_block_breaks_the_fourier_identity():
    # rho through one block 1.01 W_1: still a map on the span, but its
    # pairings with pi no longer give delta_{gh,e} t_g
    for group in (cyclic_group(3), symmetric_group(3)):
        t = random_posdef_symbol(group, rng(13))
        bundle = build_crossed_dilation(t)
        coefficients = bundle.coefficients.copy()
        coefficients[1] *= 1.01
        bad = dataclasses.replace(bundle, coefficients=coefficients)
        assert verify_fourier_identity(bundle, t, samples=4, seed=2) <= config.TOL_NUM
        residual = verify_fourier_identity(bad, t, samples=4, seed=2)
        assert residual > config.TOL_NUM
        assert abs(residual - _stacked_fourier_identity(bad, t, 4, 2)) <= 1e-13


# ---------------------------------------------------------------------------
# the stacked formulas that the support pairing and the row-wise covariance
# replaced, kept as references


def _stacked_fourier_identity(bundle, symbol, samples, seed):
    """Every pi(lambda(g)) and rho(lambda(h)) stacked and paired in one GEMM."""
    group, t, m = symbol.group, symbol.values, symbol.group.order
    pis = np.stack([bundle.pi(lam_g) for lam_g in bundle.lam])
    rhos = np.stack([bundle.rho(lam_g) for lam_g in bundle.lam])
    expected = np.where(group.table == group.identity, t[:, None], 0.0)
    # phi~(P R) for every pair, as one GEMM of the weighted P against the R^T
    weighted = (pis * bundle.ambient_state.weights[:, None]).reshape(m, -1)
    defect = weighted @ np.swapaxes(rhos, -1, -2).reshape(m, -1).T - expected
    draws = rng(seed).standard_normal((samples, 2, m))
    return max(max_abs(defect),
               max_abs(np.sum((draws[:, 0] @ defect) * draws[:, 1], axis=1)))


def _permuted_copies_covariance(bundle):
    """field_covariance as the stacked formula: one permuted copy of the whole
    (m, m, f, f) field stack per g."""
    group = bundle.symbol.group
    fields = np.stack([_covariant_blocks(group, _rotations(bundle), bundle.rep.omega(row))
                       for row in bundle.gram.embedding])
    cov = 0.0
    for g in range(group.order):
        conjugated = np.empty_like(fields)
        conjugated[:, bundle.lam[g].real.argmax(axis=0)] = fields
        cov = max(cov, max_abs(conjugated - fields[group.table[g]]))
    return cov


def _relabelled(group, perm):
    """The same group with element a renamed perm[a]."""
    perm = np.asarray(perm)
    table = np.empty_like(group.table)
    table[np.ix_(perm, perm)] = perm[group.table]
    return FiniteGroup(table)


STACKED_GROUPS = [cyclic_group(m) for m in range(2, 7)] + [
    dihedral_group(3), symmetric_group(3), _relabelled(symmetric_group(3), [3, 0, 4, 1, 5, 2])]
STACKED_IDS = [f"z{m}" for m in range(2, 7)] + ["d3", "s3", "s3-identity-3"]


def test_relabelled_group_has_its_identity_off_index_zero():
    assert STACKED_GROUPS[-1].identity == 3


@pytest.mark.parametrize("group", STACKED_GROUPS, ids=STACKED_IDS)
def test_support_pairing_matches_the_stacked_table(group):
    t = random_posdef_symbol(group, rng(21))
    bundle = build_crossed_dilation(t)
    residual = verify_fourier_identity(bundle, t, samples=6, seed=22)
    assert residual <= config.TOL_NUM
    assert abs(residual - _stacked_fourier_identity(bundle, t, 6, 22)) <= 1e-13


def test_fourier_identity_calls_no_leg(monkeypatch):
    # the table is read from the unit-pairing table, so neither leg forms an image
    t = random_posdef_symbol(cyclic_group(4), rng(21))
    bundle = build_crossed_dilation(t)

    def refused(self, x):
        raise AssertionError("a leg was called")

    monkeypatch.setattr(DilationBundle, "pi", refused)
    monkeypatch.setattr(DilationBundle, "rho", refused)
    assert verify_fourier_identity(bundle, t, samples=6, seed=22) <= config.TOL_NUM


@pytest.mark.parametrize("group", STACKED_GROUPS, ids=STACKED_IDS)
def test_row_wise_covariance_is_the_permuted_copies_loop(group):
    # the crossed blocks w(O_(u^-1) v_e) are the covariant copies of w(v_e),
    # and the intertwining row reads what the stacked copies read, to rounding
    bundle = build_crossed_dilation(random_posdef_symbol(group, rng(23)))
    copies = _covariant_blocks(group, _rotations(bundle), bundle.rep.omega(
        bundle.gram.embedding[group.identity]))
    assert max_abs(bundle.blocks - copies) <= 1e-13
    covariance = verify_covariance(bundle)["field_covariance"]
    assert abs(covariance - _dense_intertwining(bundle)) <= 1e-13
    assert abs(covariance - _permuted_copies_covariance(bundle)) <= 1e-13


def test_crossed_pi_is_the_kronecker_product_of_its_projection():
    group = symmetric_group(3)
    bundle = build_crossed_dilation(random_posdef_symbol(group, rng(24)))
    eye_f = np.eye(bundle.fiber_state.dim)
    coeffs = rng(25).standard_normal(group.order) + 1j * rng(26).standard_normal(group.order)
    for x in [*bundle.lam, np.tensordot(coeffs, bundle.lam, axes=1)]:
        np.testing.assert_array_equal(bundle.pi(x), np.kron(x, eye_f))


def test_group_verifiers_hold_fewer_than_four_ambient_images():
    # t = delta_e is full rank: f = 64 and ambient dimension 384 on Z_6
    group = cyclic_group(6)
    t = FourierSymbol(group, np.eye(6)[0])
    bundle = build_crossed_dilation(t)
    image = np.dtype(complex).itemsize * bundle.ambient_dim ** 2
    # the identity row alone reads the m x m unit-pairing table
    tracemalloc.start()
    try:
        assert verify_fourier_identity(bundle, t, samples=20, seed=27) <= config.TOL_NUM
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < image, peak / image
    tracemalloc.start()
    try:
        assert verify_fourier_identity(bundle, t, samples=20, seed=27) <= config.TOL_NUM
        assert max(verify_covariance(bundle).values()) <= config.TOL_NUM
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * image, peak / image
