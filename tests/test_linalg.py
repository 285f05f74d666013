import numpy as np
import pytest

from qfk.linalg import (
    DimensionMismatchError,
    NotPositiveSemidefiniteError,
    as_complex,
    close,
    complex_randn,
    dag,
    expm,
    min_eig_hermitian,
    norm2,
    pinv_abs,
    random_hermitian,
    random_unitary,
    require_square,
    sqrtm_psd,
)


def test_as_complex_promotes_dtype():
    x = as_complex([[1, 2], [3, 4]])
    assert x.dtype == np.complex128
    assert x.shape == (2, 2)


def test_as_complex_rejects_non_matrix():
    with pytest.raises(DimensionMismatchError):
        as_complex([1.0, 2.0])


def test_require_square():
    require_square(np.eye(3), "x")
    with pytest.raises(DimensionMismatchError):
        require_square(np.zeros((2, 3)), "x")


def test_dag_is_conjugate_transpose():
    x = np.array([[1.0 + 2.0j, 3.0], [0.0, -1.0j]])
    assert np.array_equal(dag(x), x.conj().T)
    stack = np.stack([x, 2.0 * x.T, x @ x])
    assert np.array_equal(dag(stack), np.stack([z.conj().T for z in stack]))


def test_norm2_is_spectral_norm():
    x = np.diag([3.0, -4.0])
    assert norm2(x) == pytest.approx(4.0)


def test_expm_matches_series_on_nilpotent():
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(expm(x), np.eye(2) + x)


def test_min_eig_hermitian():
    x = np.diag([2.0, -3.0, 5.0])
    assert min_eig_hermitian(x) == pytest.approx(-3.0)


def test_sqrtm_psd_square_root():
    rng = np.random.default_rng(0)
    a = complex_randn(rng, 4, 4)
    p = dag(a) @ a
    r = sqrtm_psd(p)
    assert np.allclose(r @ r, p)
    assert min_eig_hermitian(r) >= -1e-12


def test_sqrtm_psd_rejects_indefinite():
    with pytest.raises(NotPositiveSemidefiniteError):
        sqrtm_psd(np.diag([1.0, -1.0]))


def test_sqrtm_psd_clips_tiny_negatives():
    r = sqrtm_psd(np.diag([1.0, -1e-14]))
    assert np.allclose(r, np.diag([1.0, 0.0]), atol=1e-7)


def test_pinv_abs_inverts_on_range():
    rng = np.random.default_rng(1)
    a = complex_randn(rng, 3, 3)
    a[:, 2] = 0.0
    p = pinv_abs(a)
    assert np.allclose(a @ p @ a, a)


def test_close_uses_relative_scale():
    assert close(np.eye(2) * 1e8, np.eye(2) * 1e8 + 1e-4, tol=1e-10)
    assert not close(np.zeros((2, 2)), np.ones((2, 2)) * 1e-3, tol=1e-10)


def test_random_hermitian_and_unitary():
    rng = np.random.default_rng(2)
    h = random_hermitian(rng, 5)
    assert np.allclose(h, dag(h))
    u = random_unitary(rng, 5)
    assert np.allclose(dag(u) @ u, np.eye(5))
