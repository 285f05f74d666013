import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import qfk.linalg
from qfk.linalg import (
    DimensionMismatchError,
    MemoryCapExceededError,
    NotPositiveSemidefiniteError,
    as_complex,
    dag,
    expm,
    expm_stack,
    expm_stack_workspace,
    min_eig_hermitian,
    norm2,
    norm2_gate,
    norm2_stack,
    eigh_split,
    require_square,
    reserve,
    sqrtm_psd,
)

from beta_reference import pinv_abs
from conftest import complex_randn, random_hermitian, random_unitary, traced_peak


def test_reserve_admits_up_to_the_cap_read_when_called(monkeypatch):
    # 4 operators on C^8 need 4 * 64 * 16 = 4096 bytes
    monkeypatch.setattr(qfk.linalg, "DEFAULT_MEMORY_CAP", 4096)
    reserve(4, 8)
    monkeypatch.setattr(qfk.linalg, "DEFAULT_MEMORY_CAP", 4095)
    with pytest.raises(MemoryCapExceededError) as info:
        reserve(4, 8)
    assert str(info.value) == "4 dense operators on C^8 need 4096 bytes, cap is 4095"


@pytest.mark.parametrize("operators", [5, 7.5])
def test_reserve_refuses_a_dimension_past_2_64_by_its_bit_length(operators):
    # dim^2 overflows a float, and dim's 4772 digits pass str's default limit of 4300
    dim = 3 ** 10000
    with pytest.raises(MemoryCapExceededError) as info:
        reserve(operators, dim)
    bits = dim.bit_length() - 1
    assert str(info.value) == f"{operators:.4g} dense operators on C^D, D >= 2^{bits}, need inf bytes, cap is {2 ** 31}"


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


def test_norm2_stack_is_norm2_of_each_slice_bit_for_bit():
    rng = np.random.default_rng(73)
    for shape in ((5, 3, 3), (4, 2, 6), (1, 16, 16)):
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert [v.hex() for v in norm2_stack(stack)] == [norm2(x).hex() for x in stack]
    with pytest.raises(DimensionMismatchError):
        norm2_stack(np.ones((3, 3)))


def exact_gate(r, x, tol):
    return (r if isinstance(r, float) else norm2(r)), tol * (1.0 + norm2(x))


def gate_decisions(gate, r, x, tol):
    """(lhs <= rhs, lhs > rhs) of a gate's pair, or the exception it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            lhs, rhs = gate(r, x, tol)
        except Exception as exc:  # noqa: BLE001 - compared, not handled
            return type(exc), str(exc)
    return lhs <= rhs, lhs > rhs


def gate_pair(gate, r, x, tol):
    """The gate's pair as a float array, or the exception it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.array(gate(r, x, tol))
        except Exception as exc:  # noqa: BLE001 - compared, not handled
            return type(exc), str(exc)


@settings(max_examples=600, deadline=None)
@given(
    rows=st.integers(1, 8),
    cols=st.integers(1, 8),
    x_kind=st.sampled_from(["isometry", "random", "zero"]),
    r_kind=st.sampled_from(["rank_one", "random", "float"]),
    tol=st.sampled_from([0.0, 1e-300, 1e-12, 1e-10, 1e-8, 1.0, np.inf]),
    offset=st.sampled_from(
        [-1.0, -0.999, -0.5, -1e-6, -1e-8, -1e-9, -8 * 2.0**-52, -(2.0**-52), 0.0,
         2.0**-52, 8 * 2.0**-52, 1e-9, 1e-8, 1e-6, 1.0, 999.0]
    ),
    x_exponent=st.integers(-200, 200),
    plant=st.sampled_from(["none", "r_nan", "r_inf", "x_nan", "x_inf"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_norm2_gate_decides_as_the_exact_test(rows, cols, x_kind, r_kind, tol, offset, x_exponent, plant, seed):
    """A residual r placed at (1 + offset) times the bound tol (1 + ||x||),
    near it and far from it on either side: rank-one (a tight Frobenius upper
    bound), random (a loose one) or a float; x's Frobenius form tight (an
    isometry's multiple) or not; NaN or Inf in either.  The gate's pair
    decides <= and > as the two SVDs do, and with a NaN or Inf entry it is
    the exact pair."""
    rng = np.random.default_rng(seed)
    if x_kind == "isometry":
        q = np.linalg.qr(complex_randn(rng, max(rows, cols), min(rows, cols)))[0]
        x = (q if rows >= cols else dag(q)) * 10.0 ** x_exponent
    else:
        x = complex_randn(rng, rows, cols) * (10.0 ** x_exponent if x_kind == "random" else 0.0)
    bound = tol * (1.0 + norm2(x))
    if r_kind == "float":
        r = bound * (1.0 + offset) if bound < np.inf else 1e-3
    else:
        rank_one = complex_randn(rng, rows, 1) @ complex_randn(rng, 1, cols)
        r = rank_one if r_kind == "rank_one" else complex_randn(rng, rows, cols)
        with np.errstate(invalid="ignore", over="ignore"):
            r = r / norm2(r) * bound * (1.0 + offset) if 0 < bound < np.inf else r * 1e-3
    where = {"r": None if r_kind == "float" else r, "x": x}.get(plant[:1])
    if where is not None:
        where[rng.integers(where.shape[0]), rng.integers(where.shape[1])] = np.nan if plant.endswith("nan") else np.inf
        got, want = gate_pair(norm2_gate, r, x, tol), gate_pair(exact_gate, r, x, tol)
        assert type(got) is type(want)
        assert np.array_equal(got, want, equal_nan=True) if isinstance(got, np.ndarray) else got == want
    assert gate_decisions(norm2_gate, r, x, tol) == gate_decisions(exact_gate, r, x, tol)


@pytest.mark.parametrize("offset", [-1e-6, 1e-6])
def test_norm2_gate_with_an_overflowing_frobenius_form_decides_exactly(offset):
    # ||x||_F overflows to inf while ||x||_2 is finite: the form cannot settle it
    x = np.eye(3, dtype=complex) * 1e200
    bound = 1e-8 * (1.0 + norm2(x))
    r = np.diag([bound * (1.0 + offset), 0.0, 0.0]).astype(complex)
    assert gate_decisions(norm2_gate, r, x, 1e-8) == gate_decisions(exact_gate, r, x, 1e-8) == (offset < 0, offset > 0)


def test_norm2_gate_settles_clear_fails_without_an_svd(monkeypatch):
    rng = np.random.default_rng(75)
    x = complex_randn(rng, 4, 4)
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: pytest.fail("svd called"))
    for r in (1e-6 * complex_randn(rng, 4, 4), 1e-6 * complex_randn(rng, 4, 1) @ complex_randn(rng, 1, 4), 1e-6):
        lhs, rhs = norm2_gate(r, x, 1e-10)
        assert lhs > rhs


def test_norm2_gate_settles_clear_passes_without_an_svd(monkeypatch):
    rng = np.random.default_rng(74)
    x = complex_randn(rng, 4, 4)
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: pytest.fail("svd called"))
    lhs, rhs = norm2_gate(1e-14 * complex_randn(rng, 4, 4), x, 1e-10)
    assert lhs <= rhs
    lhs, rhs = norm2_gate(np.zeros((4, 4)), np.zeros((4, 4)), 1e-12)
    assert lhs <= rhs


def test_expm_matches_series_on_nilpotent():
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(expm(x), np.eye(2) + x)


def expm_test_stack(rng, k: int, m: int) -> np.ndarray:
    """k random m x m slices of 1-norm from 1e-6 to 1e3 (every Pade degree, and
    slices that need squaring); past three slices a zero, a diagonal, an upper
    and a lower triangular one, and at k = 33 slices with a NaN or an inf entry,
    a diagonal one with an inf, and one of norm about 1e300."""
    stack = np.zeros((k, m, m), dtype=complex)
    for i, norm in enumerate(10.0 ** rng.uniform(-6, 3, size=k)):
        x = complex_randn(rng, m, m)
        stack[i] = x * (norm / np.abs(x).sum(axis=0).max())
    if k >= 4:
        stack[0] = 0
        stack[1] = np.diag(np.diag(stack[1]))
        stack[2], stack[3] = np.triu(stack[2]), np.tril(stack[3])
    if k == 33:
        stack[4, 0, -1] = np.nan
        stack[5, -1, 0] = np.inf
        stack[6, 0, 0] = -np.inf
        stack[7] = np.diag(np.diag(stack[7]))
        stack[7, -1, -1] = np.inf
        stack[8] *= 1e300
    return stack


# multiples t x of one x of 1-norm 20: duplicates, 0, non-dyadic pairs (0.3, 0.6)
# and degrees 5 and 7 beside chains of degree 13 with s from 0 to 4
DOUBLING_TIMES = (1 / 8, 1 / 4, 0.3, 1 / 2, 0.6, 1.0, 2.0, 2.0, 4.0, 0.0, 1 / 1024, 1 / 64, 3.0)


def doubling_test_stack(rng, k: int, m: int) -> np.ndarray:
    """k slices t x for t cycling through DOUBLING_TIMES, and at k = 33 one with a NaN entry."""
    x = complex_randn(rng, m, m)
    x *= 20 / np.abs(x).sum(axis=0).max()
    stack = np.array([t * x for t in itertools.islice(itertools.cycle(DOUBLING_TIMES), k)]).reshape(k, m, m)
    if k == 33:
        stack[15, 0, -1] = np.nan
    return stack


@pytest.mark.parametrize("m", [1, 2, 5, 16, 25])
@pytest.mark.parametrize("k", [0, 1, 4, 33])
def test_expm_stack_equals_per_slice_calls(k, m):
    rng = np.random.default_rng(80 + 10 * k + m)
    for stack in (expm_test_stack(rng, k, m), doubling_test_stack(rng, k, m)):
        with np.errstate(over="ignore", invalid="ignore"):
            out = expm_stack(stack)
            singles = [expm_stack(x[None])[0] for x in stack]
        assert out.shape == (k, m, m) and out.dtype == np.complex128 and out.flags.c_contiguous
        assert np.array_equal(out, np.array(singles).reshape(k, m, m), equal_nan=True)


def test_expm_stack_shares_one_pade_solve_along_a_doubling_chain(monkeypatch):
    # t x for t = 1/4, 1/2, 1, 2 at 1-norms 8 to 64: one Pade solve and 4 squarings
    # in all, where slices that do not differ by a power of two take one solve each
    solves = []
    zgesv = scipy.linalg.lapack.zgesv

    def counting(*args, **kwargs):
        solves.append(args[0].shape)
        return zgesv(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "zgesv", counting)
    x = complex_randn(np.random.default_rng(93), 64, 64)
    x *= 32 / np.abs(x).sum(axis=0).max()
    doubling = np.array([t * x for t in (0.25, 0.5, 1.0, 2.0)])
    out = expm_stack(doubling)
    assert solves == [(64, 64)]
    assert np.array_equal(out, np.array([expm_stack(y[None])[0] for y in doubling]))
    solves.clear()
    expm_stack(np.array([t * x for t in (0.3, 0.7, 1.1, 2.3)]))
    assert len(solves) == 4


@pytest.mark.parametrize("m", [1, 2, 5, 16])
def test_expm_stack_keeps_scipys_treatment_of_structured_slices(m):
    # 1 x 1 slices take np.exp; diagonal and triangular slices scipy's own
    # branches, bit for bit; any other slice with an entry that is not finite
    # comes back NaN, without running its squarings
    stack = expm_test_stack(np.random.default_rng(90 + m), 33, m)
    with np.errstate(over="ignore", invalid="ignore"):
        out = expm_stack(stack)
        if m == 1:
            assert np.array_equal(out, np.exp(stack), equal_nan=True)
            return
        for i in (0, 1, 2, 3, 7):
            assert np.array_equal(out[i], scipy.linalg.expm(stack[i]))
    assert np.isnan(out[4:7]).all()
    assert np.isfinite(out[:4]).all() and np.isinf(out[7]).any()


def test_expm_stack_workspace_is_chunked():
    # chunks of at most 4096 entries (or one slice), 9 matrices of workspace each
    assert expm_stack_workspace(3, 4) == 27
    assert expm_stack_workspace(1000, 4) == 9 * 256
    assert expm_stack_workspace(1000, 64) == expm_stack_workspace(1000, 100) == 9


def test_expm_stack_peak_memory_is_its_workspace():
    rng = np.random.default_rng(91)
    for m, norm in ((8, 0.5), (8, 30.0), (32, 0.5), (32, 30.0), (64, 3.0)):
        k = 2 * max(1, 4096 // (m * m)) + 1  # two chunks and one slice
        stack = np.array([complex_randn(rng, m, m) for _ in range(k)])
        stack *= (norm / np.abs(stack).sum(axis=1).max(axis=1))[:, None, None]
        expm_stack(stack)
        peak = traced_peak(lambda: expm_stack(stack))
        # the output and the workspace
        assert peak <= stack.nbytes + expm_stack_workspace(k, m) * m * m * 16


def expm_mpmath(x: np.ndarray) -> np.ndarray:
    """exp(x) at 40 digits."""
    mpmath.mp.dps = 40
    out = mpmath.expm(mpmath.matrix(x.tolist()))
    return np.array([[complex(out[i, j]) for j in range(x.shape[1])] for i in range(x.shape[0])])


def test_expm_stack_is_as_accurate_as_scipy():
    # relative 1-norm errors against 40 digits, 1-norms from 1e-6 to 20
    rng = np.random.default_rng(92)
    errors = []
    for m in (2, 3, 4, 6):
        stack = np.array([complex_randn(rng, m, m) for _ in range(12)])
        stack *= (10.0 ** rng.uniform(-6, math.log10(20), size=12) / np.abs(stack).sum(axis=1).max(axis=1))[:, None, None]
        out = expm_stack(stack)
        for x, y in zip(stack, out):
            ref = expm_mpmath(x)
            onenorm = lambda z: np.abs(z).sum(axis=0).max()
            errors.append((onenorm(y - ref) / onenorm(ref), onenorm(scipy.linalg.expm(x) - ref) / onenorm(ref)))
    ours, theirs = np.array(errors).max(axis=0)
    assert ours <= 2 * theirs and ours < 1e-14


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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6), rank=st.integers(0, 6),
       cutoff=st.sampled_from([1e-6, 1e-3]))
def test_eigh_split_reads_a_root_and_its_pinv_off_one_eigh(seed, m, rank, cutoff):
    # x PSD of rank <= m, its nonzero eigenvalues in [1e-2, 4]: the root is sqrtm_psd's,
    # bit for bit, and the pseudo-inverse of the kept columns is pinv_abs's of that root
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, m)
    vals = np.concatenate([np.zeros(m - min(rank, m)), rng.uniform(1e-2, 4.0, min(rank, m))])
    x = (u * vals) @ dag(u)
    vals, vecs, k = eigh_split(x, cutoff)
    assert np.array_equal(vals, np.sort(vals)) and k == int(np.sum(vals <= cutoff ** 2)) == m - min(rank, m)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ dag(vecs)
    assert np.array_equal(root, sqrtm_psd(x))
    kept = vecs[:, k:]
    pinv = (kept / np.sqrt(vals[k:])) @ dag(kept)
    assert norm2(pinv - pinv_abs(root, cutoff)) <= 1e-12 * norm2(pinv)


def test_eigh_split_refuses_an_eigenvalue_below_the_clip_window():
    x = np.diag([1.0, -1e-6])
    assert eigh_split(x, 1e-6)[2] == 1  # no clip window: unchecked
    with pytest.raises(NotPositiveSemidefiniteError):
        eigh_split(x, 1e-6, clip_tol=1e-7)


def test_random_hermitian_and_unitary():
    rng = np.random.default_rng(2)
    h = random_hermitian(rng, 5)
    assert np.allclose(h, dag(h))
    u = random_unitary(rng, 5)
    assert np.allclose(dag(u) @ u, np.eye(5))
