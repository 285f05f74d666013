import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

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


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    is_complex=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_norm2_equals_numpy_spectral_norm_bit_for_bit(rows, cols, is_complex, seed):
    rng = np.random.default_rng(seed)
    x = complex_randn(rng, rows, cols) if is_complex else rng.standard_normal((rows, cols))
    assert norm2(x) == float(np.linalg.norm(x, 2))


def test_norm2_refuses_vectors_and_stacks():
    assert norm2(np.zeros((0, 3))) == 0.0
    for x in (np.ones(3), np.ones((2, 3, 3))):
        with pytest.raises(DimensionMismatchError):
            norm2(x)


def test_expm_matches_series_on_nilpotent():
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(expm(x), np.eye(2) + x)


@pytest.mark.parametrize("m", [1, 2, 5])
@pytest.mark.parametrize("k", [0, 1, 4])
def test_expm_stack_equals_per_slice_calls(k, m):
    rng = np.random.default_rng(80 + 10 * k + m)
    stack = np.stack([complex_randn(rng, m, m) for _ in range(k)]) if k else np.zeros((0, m, m))
    if k == 4:  # scipy's diagonal and triangular branches, and a slice that needs squaring
        stack[1] = np.diag(np.diag(stack[1]))
        stack[2] = np.triu(stack[2])
        stack[3] *= 40.0
    out = expm(stack)
    assert out.shape == (k, m, m) and out.dtype == np.complex128 and out.flags.c_contiguous
    assert np.array_equal(out, np.array([expm(x) for x in stack]).reshape(k, m, m))


def test_expm_matrix_is_unchanged_and_stack_must_be_square():
    rng = np.random.default_rng(90)
    x = complex_randn(rng, 4, 4)
    assert np.array_equal(expm(x), scipy.linalg.expm(x))
    for bad in (np.zeros((2, 3, 4)), np.zeros((2, 3)), np.zeros((1, 2, 2, 2)), np.zeros(3)):
        with pytest.raises(DimensionMismatchError):
            expm(bad)


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
