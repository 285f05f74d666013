"""Shared dense linear algebra.

All matrices in this package are C-ordered numpy arrays of dtype complex128
(row-major entries, so ``adjoint(adjoint(x))`` reproduces ``x`` bit for bit).
Norms are spectral norms, and tolerances are absolute-plus-relative:
``tol * (1 + norm(x))`` with default ``tol = 1e-10``.

Exponentials: ``expm`` is scipy's on one matrix.  ``expm_stack`` exponentiates
a (k, m, m) stack in one batched scaling-and-squaring Pade pass (Higham 2005):
each slice takes the degree (3, 5, 7, 9 or 13) and the scaling its own 1-norm
calls for, the slices of one degree share each stacked product, and the
squarings run on the shrinking suffix of slices sorted by their scaling, so
each slice is bit for bit its own k = 1 call.  The stack goes through in chunks
of a fixed entry budget, so the pass's workspace does not grow with k.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
import scipy.linalg

DEFAULT_TOL = 1e-10


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes."""


class NotPositiveSemidefiniteError(ValueError):
    """An eigenvalue lies below the allowed clipping window."""


def as_complex(x) -> np.ndarray:
    out = np.ascontiguousarray(x, dtype=complex)
    if out.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got shape {out.shape}")
    return out


def require_square(x: np.ndarray, name: str = "matrix") -> np.ndarray:
    x = as_complex(x)
    if x.shape[0] != x.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got {x.shape}")
    return x


def require_finite(x, what: str):
    """x, or FloatingPointError naming what when x (a matrix or a number) is not
    finite: an overflow refused before an SVD or eigen call on it fails or returns NaN."""
    if not np.isfinite(x).all():
        raise FloatingPointError(f"{what} is not finite")
    return x


def dag(x: np.ndarray) -> np.ndarray:
    """Adjoint (conjugate transpose); on a stack, of each matrix in it."""
    return np.ascontiguousarray(x.conj().swapaxes(-1, -2))


def norm2(x: np.ndarray) -> float:
    """Spectral norm of a matrix: its largest singular value.

    The same LAPACK call as np.linalg.norm(x, 2), so the same value to the
    bit, without that function's dispatch.  A stack or a vector is refused:
    svd would read a stack as several matrices.
    """
    if np.ndim(x) != 2:
        raise DimensionMismatchError(f"expected a matrix, got shape {np.shape(x)}")
    if x.size == 0:
        return 0.0
    return float(np.linalg.svd(x, compute_uv=False)[0])


def norm2_stack(stack: np.ndarray) -> np.ndarray:
    """Spectral norm of each matrix of a (k, p, q) stack, from one batched SVD:
    each the value norm2 gives that matrix, bit for bit."""
    if np.ndim(stack) != 3:
        raise DimensionMismatchError(f"expected a stack of matrices, got shape {np.shape(stack)}")
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def rmul(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ b for a fixed matrix b and a matrix or a (k, p, q) stack x, as one
    GEMM over the stacked rows of x, in place of one call per slice.

    GEMM sums each output row on its own, so each slice is x[i] @ b bit for
    bit.  A one-row slice or a one-column b takes numpy's gemv/dot path in
    the per-slice call, which may round differently, so those shapes keep it.
    """
    if x.shape[-2] == 1 or b.shape[1] == 1:
        return x @ b
    return (x.reshape(-1, x.shape[-1]) @ b).reshape(x.shape[:-1] + b.shape[1:])


# relative slack on the norm bounds below: the computed bound and LAPACK's
# sigma_1 each carry a relative rounding error of at most about 1e-13 at these
# sizes (a few products of matrices of order below 100), so a slice whose bound,
# widened by this margin, stays at or below the running max cannot raise it
_BOUND_MARGIN = 1e-8
# slices with a side shorter than this take max_norm2's batched call: LAPACK
# reduces them to a bidiagonal of order 2 or less in less time than the bound takes
_PRUNE_MIN_SIDE = 3
# stacks with an entry past this take max_norm2's batched call: below it the
# bound, at most the entry times sqrt(2 p q), stays finite
_PRUNE_MAX_ENTRY = 1e300
# absolute slack of the Frobenius upper bound: it covers the squares a
# Frobenius norm loses to underflow, so that bound never settles a norm this small
_GATE_FLOOR = 1e-150


def _norm2_bounds(x: np.ndarray) -> tuple[float, float]:
    """(lo, hi) with lo <= norm2(x) <= hi, from ||x||_F / sqrt(min side) <=
    ||x||_2 <= ||x||_F; NaN or inf where ||x||_F is not finite."""
    frobenius = math.sqrt(np.vdot(x, x).real)
    lo = frobenius / math.sqrt(min(x.shape)) * (1 - _BOUND_MARGIN)
    return lo, frobenius * (1 + _BOUND_MARGIN) + _GATE_FLOOR


def norm2_gate(r, x: np.ndarray, tol: float) -> tuple[float, float]:
    """A pair (lhs, rhs) that compares under <= and > as norm2(r) and
    tol * (1 + norm2(x)) do, NaN included, for tol >= 0.  r is a nonempty
    matrix, or a float that stands for its own norm; x is a nonempty matrix.

    Each norm lies between Frobenius bounds (`_norm2_bounds`), so when r's
    upper bound stays at or below tol (1 + x's lower bound) the gate passes,
    and when r's lower bound exceeds tol (1 + x's upper bound) it fails; the
    pair is then these bounds, with no SVD.  Otherwise (the bounds leave the
    verdict open, or a value is not finite) it is the exact pair.
    """
    r_lo, r_hi = (r, r) if isinstance(r, float) else _norm2_bounds(r)
    x_lo, x_hi = _norm2_bounds(x)
    low, high = tol * (1.0 + x_lo), tol * (1.0 + x_hi)
    if r_hi <= low < math.inf:
        return r_hi, low
    if math.inf > r_lo > high:
        return r_lo, high
    return (r if isinstance(r, float) else norm2(r)), tol * (1.0 + norm2(x))


def max_norm2(stack: np.ndarray, floor: float = 0.0) -> float:
    """Largest spectral norm over a (k, p, q) stack of matrices, and at least floor.

    Bit for bit np.linalg.svd(stack, compute_uv=False)[:, 0].max(initial=floor),
    but the SVD, the single-matrix call of norm2, runs only on slices that can
    raise the max.  A slice r with largest real or imaginary part s and u = r / s
    has ||r||_2 <= b = s ||(u*u)^2||_F^(1/4); slices are visited by decreasing b
    until b (1 + _BOUND_MARGIN) no longer exceeds the running max.  Scaling by
    the largest part, not by a norm, keeps u's Gram powers in range at any
    magnitude.  A stack with an entry that is not finite, or past
    _PRUNE_MAX_ENTRY, takes the batched call itself, so NaN, Inf and
    LinAlgError behave as there; so does one with a side shorter than
    _PRUNE_MIN_SIDE or of a dtype other than float64 and complex128.
    """
    x = np.ascontiguousarray(stack)
    if x.ndim != 3:
        raise DimensionMismatchError(f"expected a stack of matrices, got shape {x.shape}")
    prune = x.size and min(x.shape[1:]) >= _PRUNE_MIN_SIDE and x.dtype in (float, complex)
    scale = np.abs(x.view(float)).max(axis=(1, 2)) if prune else None
    # NaN fails the comparison too
    if scale is None or not scale.max() < _PRUNE_MAX_ENTRY:
        return float(norm2_stack(x).max(initial=floor))
    # divided part by part, as reals; a zero slice is divided by the least
    # subnormal and stays zero
    u = (x.view(float) / np.maximum(scale, 5e-324)[:, None, None]).view(x.dtype)
    # u*u or u u*, whichever is smaller: the same nonzero eigenvalues
    ut = u.conj().swapaxes(1, 2)
    gram = ut @ u if x.shape[1] >= x.shape[2] else u @ ut
    del u, ut
    power = (gram @ gram).view(float)
    del gram
    bound = scale * np.einsum("kij,kij->k", power, power) ** 0.125 * (1 + _BOUND_MARGIN)
    del power
    best = floor
    for i in np.argsort(-bound):
        if not bound[i] > best:
            break
        best = max(best, np.linalg.svd(x[i], compute_uv=False)[0])
    return float(best)


def expm(x: np.ndarray) -> np.ndarray:
    """Matrix exponential of one square matrix: scipy's (scaling and squaring
    with a Pade approximant, Al-Mohy & Higham 2009)."""
    x = np.ascontiguousarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {x.shape}")
    return np.ascontiguousarray(scipy.linalg.expm(x))


# b_0..b_m of the [m/m] Pade approximant r_m of exp, for m = 3, 5, 7, 9 and 13,
# and theta_m for m < 13: the largest 1-norm at which r_m has a backward error
# below 2^-53 (Higham, SIAM J. Matrix Anal. Appl. 26 (2005), Table 2.3)
_PADE = (
    (120.0, 60.0, 12.0, 1.0),
    (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0, 110880.0,
     3960.0, 90.0, 1.0),
    (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
     129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
     40840800.0, 960960.0, 16380.0, 182.0, 1.0),
)
_THETA = np.array([1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1, 2.097847961257068])
_THETA_13 = 5.371920351148152
# the even powers a^2, a^4, ... that each degree reads
_EVENS = (1, 2, 3, 4, 3)
# complex entries of the slices that expm_stack exponentiates together
_EXPM_ENTRIES = 1 << 12
# stacks of a chunk that expm_stack allocates besides its input and output: the
# sorted slices, three or four even powers, two Pade sums and two terms
# (tracemalloc peak 6.1 at degree 7, 8.1 at degree 13)
_EXPM_WORKSPACE = 9


def expm_stack_workspace(k: int, m: int) -> int:
    """m x m matrices that expm_stack allocates besides its output, on a (k, m, m) stack."""
    return _EXPM_WORKSPACE * min(k, max(1, _EXPM_ENTRIES // (m * m)))


def _pade_sums(g: int, evens: list, u: np.ndarray, v: np.ndarray) -> None:
    """Into u and v, U / a and V for the numerator U + V (U odd in a, V even) of
    the degree-(2 g + 3) Pade approximant (degree 13 at g = 4), from the even
    powers of a, as scipy forms them."""
    b = _PADE[g]
    if g == 4:
        a2, a4, a6 = evens[:3]
        for out, (c6, c4, c2) in ((u, b[13:8:-2]), (v, b[12:7:-2])):
            inner = c6 * a6
            inner += c4 * a4
            inner += c2 * a2
            np.matmul(a6, inner, out=out)
            del inner
        for j in (2, 1, 0):
            u += b[2 * j + 3] * evens[j]
            v += b[2 * j + 2] * evens[j]
    else:
        top = _EVENS[g] - 1
        np.multiply(evens[top], b[2 * top + 3], out=u)
        np.multiply(evens[top], b[2 * top + 2], out=v)
        for j in range(top - 1, -1, -1):
            u += b[2 * j + 3] * evens[j]
            v += b[2 * j + 2] * evens[j]
    n = u.shape[-1]
    u.reshape(-1, n * n)[:, :: n + 1] += b[1]
    v.reshape(-1, n * n)[:, :: n + 1] += b[0]


def _solve_commuting(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """p q^-1, which is q^-1 p, of each slice of stacks q and p whose slices commute,
    in p's memory: LAPACK's zgesv on q^T Y = p^T, as scipy's LAPACK (the one its
    expm calls), without a copy (a C-ordered slice is its transpose in Fortran order)."""
    for qi, pi in zip(q, p):
        if scipy.linalg.lapack.zgesv(qi.T, pi.T, overwrite_a=True, overwrite_b=True)[3]:
            raise np.linalg.LinAlgError("singular Pade denominator")
    return p


def _expm_generic(a: np.ndarray, norm: np.ndarray, out: np.ndarray) -> None:
    """exp of each slice of a stack of finite slices, into out, from their 1-norms.

    A slice of 1-norm at most theta_m for m = 3, 5, 7 or 9 takes the least such
    degree; any other is scaled by 2^-s to 1-norm theta_13 or below, takes degree
    13 and is squared s times.  The slices are sorted by degree, and those of
    degree 13 by s, so each degree's sums read a run of one set of stacked
    powers, and the squarings run on the suffix of slices that still need them.
    """
    degree = _THETA.searchsorted(norm)  # 0..3 for m = 3..9, 4 for m = 13
    counts = np.bincount(degree, minlength=5).tolist()
    bounds = [0, *itertools.accumulate(counts)]
    key = degree
    if counts[4]:
        big = degree == 4
        # the 1-norm of a finite slice overflows only past 2^1024, by at most a factor m
        log2 = np.where(np.isfinite(norm[big]), np.log2(norm[big] / _THETA_13), 1025 + math.log2(a.shape[1]))
        s = np.zeros(len(a), dtype=np.int64)
        s[big] = np.maximum(np.ceil(log2), 0)
        key = degree * 2048 + s  # s < 1100
    order, x = Ellipsis, a
    if counts[4] or max(counts) < len(a):
        order = np.argsort(key, kind="stable")
        x = a[order]
    if counts[4]:
        s = s[order][bounds[4] :]
        x[bounds[4] :] = np.ldexp(x[bounds[4] :].view(float), -s[:, None, None]).view(complex)
    groups = [g for g in range(5) if bounds[g + 1] > bounds[g]]
    evens = [x @ x]
    for _ in range(1, max(_EVENS[g] for g in groups)):
        evens.append(evens[-1] @ evens[0])
    u, v = np.empty_like(x), np.empty_like(x)
    for g in groups:
        run = slice(bounds[g], bounds[g + 1])
        _pade_sums(g, [e[run] for e in evens], u[run], v[run])
    del evens
    u = x @ u
    r = _solve_commuting(v - u, v + u)
    for i in range(1, int(s[-1]) + 1 if counts[4] else 1):
        j = bounds[4] + int(s.searchsorted(i))
        r[j:] = r[j:] @ r[j:]
    out[order] = r


@functools.cache
def _strict_triangles(m: int) -> np.ndarray:
    """Flat indices of the strictly upper, then the strictly lower entries of an m x m matrix."""
    rows, cols = np.triu_indices(m, 1)
    return np.concatenate((rows * m + cols, cols * m + rows))


def _expm_chunk(a: np.ndarray, out: np.ndarray) -> None:
    """expm_stack on one chunk, into out: each slice by its own structure."""
    k, m = a.shape[:2]
    norm = np.abs(a).sum(axis=1).max(axis=1)
    # whether each strict triangle has an entry that is not 0 (NaN included)
    upper, lower = (a.reshape(k, m * m)[:, _strict_triangles(m)] != 0).reshape(k, 2, -1).any(axis=2).T
    # a NaN or an inf entry makes the 1-norm NaN or inf; so may a finite slice past 2^1024
    finite = np.isfinite(norm)
    if not finite.all():
        finite = np.isfinite(a).all(axis=(1, 2))
    generic = upper & lower & finite
    if generic.all():
        _expm_generic(a, norm, out)
        return
    out[...] = np.nan  # a non-finite slice that is not diagonal stays NaN
    if generic.any():
        x = a[generic]
        _expm_generic(x, norm[generic], x)
        out[generic] = x
    diagonal = np.flatnonzero(~upper & ~lower)
    if diagonal.size:
        entries = diagonal[:, None], np.arange(m), np.arange(m)
        out[diagonal] = 0
        out[entries] = np.exp(a[entries])
    for i in np.flatnonzero((upper ^ lower) & finite).tolist():
        out[i] = scipy.linalg.expm(a[i])


def expm_stack(x: np.ndarray) -> np.ndarray:
    """Matrix exponential of each slice of a (k, m, m) stack, in one batched
    scaling-and-squaring Pade pass (Higham 2005).

    Each slice's Pade degree and scaling come from its own 1-norm, and every
    step acts slice by slice, so each slice of the result is bit for bit that
    of its own k = 1 call.  A 1 x 1 stack takes np.exp, and a diagonal or
    triangular slice scipy's treatment of it (the exponential of the diagonal,
    or scipy.linalg.expm); any other slice with an entry that is not finite
    comes back NaN.  The stack is taken in chunks of _EXPM_ENTRIES entries (or
    one slice), so the workspace is `expm_stack_workspace` matrices.
    """
    x = np.ascontiguousarray(x, dtype=complex)
    if x.ndim != 3 or x.shape[1] != x.shape[2]:
        raise DimensionMismatchError(f"expected a stack of square matrices, got shape {x.shape}")
    k, m = x.shape[:2]
    if m == 1 or k == 0:
        return np.exp(x)
    out = np.empty_like(x)
    size = max(1, _EXPM_ENTRIES // (m * m))
    for start in range(0, k, size):
        _expm_chunk(x[start : start + size], out[start : start + size])
    return out


def min_eig_hermitian(x: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix.

    The input is symmetrized to (x + x*)/2 first, so callers may pass
    matrices that are Hermitian only up to rounding.
    """
    x = require_square(x)
    sym = (x + dag(x)) / 2.0
    return float(np.linalg.eigvalsh(sym)[0])


def sqrtm_psd(x: np.ndarray, clip_tol: float = 1e-12) -> np.ndarray:
    """PSD square root via Hermitian eigendecomposition.

    Eigenvalues in [-clip_tol, 0) are clipped to zero; anything below
    -clip_tol raises NotPositiveSemidefiniteError.
    """
    x = require_square(x)
    sym = (x + dag(x)) / 2.0
    vals, vecs = np.linalg.eigh(sym)
    if vals.size and vals[0] < -clip_tol:
        raise NotPositiveSemidefiniteError(
            f"matrix has eigenvalue {vals[0]:.3e} below -clip_tol = {-clip_tol:.3e}"
        )
    vals = np.clip(vals, 0.0, None)
    return np.ascontiguousarray((vecs * np.sqrt(vals)) @ dag(vecs))


def pinv_abs(x: np.ndarray, cutoff: float = 1e-12) -> np.ndarray:
    """Pseudo-inverse with an absolute singular-value cutoff."""
    u, s, vh = np.linalg.svd(as_complex(x), full_matrices=False)
    inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return np.ascontiguousarray(dag(vh) @ (inv[:, None] * dag(u)))


def close(x: np.ndarray, y: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Absolute-plus-relative closeness in spectral norm."""
    scale = 1.0 + max(norm2(x), norm2(y))
    return norm2(x - y) <= tol * scale


# --- random test material (fixed-seed generators used across tests/demos) ---

def complex_randn(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Entries i.i.d. complex standard normal."""
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def random_hermitian(rng: np.random.Generator, k: int, scale: float = 1.0) -> np.ndarray:
    a = complex_randn(rng, k, k)
    return scale * (a + dag(a)) / 2.0


def random_unitary(rng: np.random.Generator, k: int) -> np.ndarray:
    q, r = np.linalg.qr(complex_randn(rng, k, k))
    # fix the phase ambiguity so the distribution is Haar
    return np.ascontiguousarray(q * (np.diag(r) / np.abs(np.diag(r))))
