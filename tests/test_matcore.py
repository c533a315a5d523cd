import numpy as np
import pytest

from dilation_lab import SizeError, ShapeError, NotPsdError
from dilation_lab.matcore import (as_square, block_conjugate, dagger, direct_sum, eig_hermitian,
                                  frobenius, hermitian_sqrt, matrix_unit, max_abs,
                                  random_complex, random_symmetric_contraction,
                                  random_unital_psd_symbol, random_weights, rng,
                                  solve_psd, tensor_product, unvec, vec)


def test_vec_is_row_major():
    a = np.array([[1, 2], [3, 4]])
    np.testing.assert_array_equal(vec(a), [1, 2, 3, 4])
    np.testing.assert_array_equal(unvec(vec(a), 2), a)


def test_vec_kron_convention():
    # the superoperator convention everything else leans on:
    # vec(A X B) = (A kron B^T) vec(X) for row-major vec
    gen = rng(0)
    for _ in range(5):
        a = random_complex(gen, 3)
        x = random_complex(gen, 3)
        b = random_complex(gen, 3)
        lhs = vec(a @ x @ b)
        rhs = np.kron(a, b.T) @ vec(x)
        assert max_abs(lhs - rhs) < 1e-12


def test_as_square_rejects_bad_input():
    with pytest.raises(ShapeError):
        as_square(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        as_square(np.zeros(4))
    with pytest.raises(ShapeError):
        as_square(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ShapeError):
        as_square(np.zeros((0, 0)))


def test_as_square_accepts_transposed_views():
    a = random_complex(rng(1), 3)
    out = as_square(dagger(a))
    np.testing.assert_allclose(out, a.conj().T)


def test_dagger_and_matrix_unit():
    e = matrix_unit(3, 0, 2)
    assert e[0, 2] == 1 and np.count_nonzero(e) == 1
    np.testing.assert_array_equal(dagger(e), matrix_unit(3, 2, 0))


def test_frobenius_max_abs():
    a = np.array([[3.0, 0.0], [0.0, 4.0]])
    assert frobenius(a) == 5.0
    assert max_abs(a) == 4.0
    assert max_abs(np.zeros((0,))) == 0.0


def test_tensor_product_matches_kron_and_caps():
    a = random_complex(rng(2), 2)
    b = random_complex(rng(3), 3)
    np.testing.assert_allclose(tensor_product(a, b), np.kron(a, b))
    with pytest.raises(SizeError):
        tensor_product(np.eye(3), np.eye(3), cap=8)


def test_direct_sum():
    out = direct_sum([np.eye(2), 2 * np.eye(1)])
    expected = np.diag([1.0, 1.0, 2.0])
    np.testing.assert_allclose(out, expected)
    with pytest.raises(ShapeError):
        direct_sum([])


def test_eig_hermitian_orders_and_validates():
    a = np.diag([3.0, 1.0, 2.0])
    w, v = eig_hermitian(a)
    np.testing.assert_allclose(w, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(v @ dagger(v), np.eye(3), atol=1e-12)
    with pytest.raises(ShapeError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_sqrt_squares_back():
    gen = rng(4)
    a = random_complex(gen, 4)
    psd = a @ dagger(a)
    root = hermitian_sqrt(psd)
    np.testing.assert_allclose(root @ root, psd, atol=1e-10)
    with pytest.raises(NotPsdError):
        hermitian_sqrt(np.diag([1.0, -0.5]))


def test_hermitian_sqrt_keeps_real_inputs_real():
    t = np.array([[1.0, 0.5], [0.5, 1.0]])
    root = hermitian_sqrt(t)
    assert max_abs(np.asarray(root).imag) == 0.0


def test_solve_psd_minimum_norm():
    gram = np.array([[1.0, 1.0], [1.0, 1.0]])
    rhs = np.array([2.0, 2.0])
    sol = solve_psd(gram, rhs)
    np.testing.assert_allclose(sol, [1.0, 1.0], atol=1e-12)
    # full-rank case agrees with a dense solve
    g2 = np.array([[2.0, 0.3], [0.3, 1.0]])
    r2 = np.array([1.0, -1.0])
    np.testing.assert_allclose(solve_psd(g2, r2), np.linalg.solve(g2, r2), atol=1e-12)
    with pytest.raises(ShapeError):
        solve_psd(g2, np.zeros(3))


def test_random_weights_faithful():
    gen = rng(5)
    for n in (1, 2, 5):
        w = random_weights(gen, n)
        assert np.all(w > 0)
        assert abs(w.sum() - 1.0) < 1e-12


def test_random_unital_psd_symbol():
    gen = rng(6)
    for n in (2, 3, 4):
        t = random_unital_psd_symbol(gen, n)
        np.testing.assert_allclose(np.diagonal(t), 1.0, atol=1e-12)
        np.testing.assert_allclose(t, t.T, atol=1e-12)
        assert np.linalg.eigvalsh(t)[0] >= -1e-12
    low = random_unital_psd_symbol(gen, 4, rank=1)
    assert np.linalg.matrix_rank(low, tol=1e-8) == 1


def test_random_symmetric_contraction():
    gen = rng(7)
    for n in (1, 3):
        t = random_symmetric_contraction(gen, n)
        np.testing.assert_allclose(t, t.T, atol=1e-12)
        assert np.abs(np.linalg.eigvalsh(t)).max() <= 1.0


def test_rng_default_seed_reproducible():
    a = rng(None).standard_normal(4)
    b = rng(None).standard_normal(4)
    np.testing.assert_array_equal(a, b)


def _sparse_arguments(n):
    """Arguments of block_conjugate with zero entries in every arrangement."""
    gen = rng(9)
    cases = [matrix_unit(n, i, j) for i in range(n) for j in range(n)]
    cases += [np.eye(n, dtype=complex)[perm] for perm in
              (np.arange(n), np.roll(np.arange(n), 1), gen.permutation(n))]
    zero_row, zero_col = random_complex(gen, n), random_complex(gen, n)
    zero_row[1] = 0.0
    zero_col[:, 2] = 0.0
    cases += [zero_row, zero_col]
    # -0.0 entries around one unit; a purely imaginary and a tiny entry
    signed = np.full((n, n), -0.0, dtype=complex)
    signed[0, 1] = 1.0
    odd = np.zeros((n, n), dtype=complex)
    odd[2, 0], odd[1, 3] = 0.5j, 1e-300
    return cases + [signed, odd, random_complex(gen, n)]


def test_block_conjugate_forms_only_nonzero_blocks():
    n, f = 4, 3
    blocks = random_complex(rng(10), n * f, f).reshape(n, f, f)
    d = direct_sum(blocks)
    for x in _sparse_arguments(n):
        out = block_conjugate(blocks, x)
        assert max_abs(out - d @ np.kron(x, np.eye(f)) @ d) <= 1e-13
        grid = out.reshape(n, f, n, f)
        for i in range(n):
            for j in range(n):
                # the test is exact: a tiny entry still forms its block
                assert np.any(grid[i, :, j] != 0) == (x[i, j] != 0)
                if x[i, j] == 0:
                    assert np.all(grid[i, :, j] == 0) and not np.any(np.signbit(grid[i, :, j].real))
