"""Shared dense linear algebra.

All matrices in this package are C-ordered numpy arrays of dtype complex128
(row-major entries, so ``adjoint(adjoint(x))`` reproduces ``x`` bit for bit).
Norms are spectral norms, and tolerances are absolute-plus-relative:
``tol * (1 + norm(x))``.

Exponentials: ``expm`` is scipy's on one matrix.  ``expm_stack`` exponentiates
a (k, m, m) stack in one batched scaling-and-squaring Pade pass (Higham 2005):
each slice takes the degree (3, 5, 7, 9 or 13) and the scaling its own 1-norm
calls for, the slices of one degree share each stacked product, and the
squarings run on the shrinking suffix of slices sorted by their scaling, so
each slice is bit for bit its own k = 1 call.  Slices of degree 13 a power of
two apart, such as t x and 2 t x, scale to bitwise equal matrices: from a side
of 20 on, they share one Pade evaluation, and each continues the squarings of
the one before it, which keeps that invariant (the semigroup law P_2t = P_t^2,
as scaling and squaring itself uses it).  Each batched pass of the package
takes its stack in the slices of `chunks`, within the one budget CHUNK_ENTRIES
= 2^14 complex entries, so its workspace does not grow with the stack.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
import scipy.linalg

# bytes of operators (16 per complex entry) that `reserve` admits, read when it is called
DEFAULT_MEMORY_CAP = 2 * 1024 ** 3
# complex entries of the items that one slice of a batched pass holds, read when `chunks` is called
CHUNK_ENTRIES = 1 << 14


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes."""


class MemoryCapExceededError(RuntimeError):
    """A computation's working set would exceed the memory cap."""


def reserve(operators: float, dim: int) -> None:
    """MemoryCapExceededError, before allocating, unless `operators` dense complex operators on C^dim fit."""
    if dim >= 1 << 64:  # dim^2 would overflow a float, and dim's digits may pass str's limit
        dim, need = f"D, D >= 2^{int(dim).bit_length() - 1},", math.inf
    else:
        need = operators * dim * dim * 16
    if need > DEFAULT_MEMORY_CAP:
        raise MemoryCapExceededError(
            f"{operators:.4g} dense operators on C^{dim} need {need:.0f} bytes, cap is {DEFAULT_MEMORY_CAP}"
        )


def chunks(k: int, entries: int) -> list[slice]:
    """The slices of range(k), in order, whose items of `entries` complex entries
    each fit CHUNK_ENTRIES together, with at least one item per slice."""
    size = max(1, CHUNK_ENTRIES // entries)
    return [slice(i, min(i + size, k)) for i in range(0, k, size)]


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


# relative slack on the Frobenius bounds below: the computed bound and LAPACK's
# sigma_1 each carry a relative rounding error of at most about 1e-13 at these
# sizes (matrices of order below 100), so a bound widened by this margin still holds
_BOUND_MARGIN = 1e-8
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
# m x m matrices per slice by which expm_stack sizes its chunks: the slice and the three
# even powers of degree 13 beside it, so a chunk holds one slice from m = 64 on
_EXPM_ITEM = 4
# stacks of a chunk that expm_stack allocates besides its input and output: the
# sorted slices, three or four even powers, two Pade sums and two terms
# (tracemalloc peak 6.1 at degree 7, 8.1 at degree 13; 9.0 at m = 2, where index
# arrays weigh most, with shared chains or triangular slices in the chunk)
_EXPM_WORKSPACE = 9
# slices of a smaller side are exponentiated faster than `_shared_chains` finds their
# chains: four slices t x, t = 1/4 .. 2, took 374 us unshared and 396 us shared at
# m = 16, and 670 and 537 us at m = 25
_SHARE_MIN_SIDE = 20


def expm_stack_workspace(k: int, m: int) -> int:
    """m x m matrices that expm_stack allocates besides its output, on a (k, m, m) stack."""
    return _EXPM_WORKSPACE * (chunks(k, _EXPM_ITEM * m * m) or [slice(0)])[0].stop


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


def _squarings(norm: np.ndarray, m: int) -> np.ndarray:
    """s for slices of degree 13 with these 1-norms: the least s >= 0 with 2^-s norm <= theta_13,
    as C ints, np.ldexp's own exponent type (an int64 exponent makes it about 15 times slower)."""
    # the 1-norm of a finite slice overflows only past 2^1024, by at most a factor m
    log2 = np.where(np.isfinite(norm), np.log2(norm / _THETA_13), 1025 + math.log2(m))
    return np.maximum(np.ceil(log2), 0).astype(np.intc)


def _expm_generic(a: np.ndarray, norm: np.ndarray, out: np.ndarray, rows=None) -> None:
    """exp of the slices `rows` (a boolean mask; None for all) of a stack, each
    finite, into the same slices of out, from the stack's 1-norms.

    A slice of 1-norm at most theta_m for m = 3, 5, 7 or 9 takes the least such
    degree; any other is scaled by 2^-s to 1-norm theta_13 or below, takes degree
    13 and is squared s times.  The slices are sorted by degree, and those of
    degree 13 by s, so each degree's sums read a run of one set of stacked
    powers, and the squarings run on the suffix of slices that still need them.
    """
    if rows is not None:
        norm = norm[rows]
    degree = _THETA.searchsorted(norm)  # 0..3 for m = 3..9, 4 for m = 13
    counts = np.bincount(degree, minlength=5).tolist()
    bounds = [0, *itertools.accumulate(counts)]
    key = degree
    if counts[4]:
        big = degree == 4
        s = np.zeros(len(norm), dtype=np.intc)
        s[big] = _squarings(norm[big], a.shape[1])
        key = degree * 2048 + s  # s < 1100
    order = Ellipsis if rows is None else rows
    if counts[4] or max(counts) < len(norm):
        order = np.argsort(key, kind="stable")
        if rows is not None:
            order = np.flatnonzero(rows)[order]
    x = a[order]
    if counts[4]:
        s = np.sort(s[big])
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


def _triangles(a: np.ndarray) -> np.ndarray:
    """(upper, lower): whether each slice's strict triangle has an entry that is not 0 (NaN included)."""
    k, m = a.shape[:2]
    return (a.reshape(k, m * m)[:, _strict_triangles(m)] != 0).reshape(k, 2, -1).any(axis=2).T


def _shared_chains(a: np.ndarray, norm: np.ndarray) -> list:
    """Chains [(i, s_i), ...], by increasing s, of two or more slices of degree 13
    exactly a power of two apart, from the stack's 1-norms.  Their scaled
    matrices 2^-s a are bitwise equal, so slice j of a chain is the slice i
    before it squared s_j - s_i more times, bit for bit its own k = 1 call.
    Slices of one scaled 1-norm are compared with the one of least s among
    them, which must not be triangular; nothing is compared unless two slices
    of degree 13 and side _SHARE_MIN_SIDE or more exist."""
    if a.shape[1] < _SHARE_MIN_SIDE:
        return []
    big = np.flatnonzero((norm > _THETA[-1]) & (norm < math.inf))
    if big.size < 2:
        return []
    s = _squarings(norm[big], a.shape[1])
    # the 1-norm scales exactly with its slice, so slices a power of two apart share a key
    key = np.ldexp(norm[big], -s)
    order = np.lexsort((s, key))
    chains = []
    for run in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        first = a[big[run[0]]]
        if run.size < 2 or not _triangles(first[None]).all():
            continue
        chain = [(int(big[j]), int(s[j])) for j in run if j == run[0] or np.array_equal(
            a[big[j]], np.ldexp(first.view(float), int(s[j] - s[run[0]])).view(complex))]
        if len(chain) > 1:
            chains.append(chain)
    return chains


def _expm_chunk(a: np.ndarray, norm: np.ndarray, out: np.ndarray, shared: np.ndarray | None) -> None:
    """expm_stack on one chunk, into out, from its 1-norms: each slice by its own
    structure, except the `shared` ones (a mask, or None), which their chains fill."""
    m = a.shape[1]
    upper, lower = _triangles(a)
    # a NaN or an inf entry makes the 1-norm NaN or inf; so may a finite slice past 2^1024
    finite = np.isfinite(norm)
    if not finite.all():
        finite = np.isfinite(a).all(axis=(1, 2))
    pade = upper & lower & finite
    if shared is not None:
        pade &= ~shared
    if pade.all():
        _expm_generic(a, norm, out)
        return
    out[...] = np.nan  # a non-finite slice that is not diagonal stays NaN
    if pade.any():
        _expm_generic(a, norm, out, pade)
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
    of its own k = 1 call.  Slices of degree 13 whose scaled matrices 2^-s x
    are bitwise equal, as t x and 2^j t x are, share one Pade evaluation and
    one chain of squarings from a side of _SHARE_MIN_SIDE on (`_shared_chains`),
    which keeps that invariant.  A
    1 x 1 stack takes np.exp, and a diagonal or triangular slice scipy's
    treatment of it (the exponential of the diagonal, or scipy.linalg.expm);
    any other slice with an entry that is not finite comes back NaN.  The
    stack is taken in the slices of `chunks`, each slice counted as _EXPM_ITEM
    matrices, so the workspace is `expm_stack_workspace` matrices.
    """
    x = np.ascontiguousarray(x, dtype=complex)
    if x.ndim != 3 or x.shape[1] != x.shape[2]:
        raise DimensionMismatchError(f"expected a stack of square matrices, got shape {x.shape}")
    k, m = x.shape[:2]
    if m == 1 or k == 0:
        return np.exp(x)
    out = np.empty_like(x)
    passes = chunks(k, _EXPM_ITEM * m * m)
    # every chunk's 1-norms before any chunk runs, so that chains may span chunks
    norm = np.empty(k)
    for c in passes:
        np.abs(x[c]).sum(axis=1).max(axis=1, out=norm[c])
    chains = _shared_chains(x, norm)
    shared = None
    if chains:
        shared = np.zeros(k, dtype=bool)
        shared[[i for chain in chains for i, _ in chain[1:]]] = True
    for c in passes:
        _expm_chunk(x[c], norm[c], out[c], None if shared is None else shared[c])
    for chain in chains:
        for (i, si), (j, sj) in itertools.pairwise(chain):
            r = out[i : i + 1]
            for _ in range(sj - si):
                r = r @ r
            out[j] = r[0]
    return out


def min_eig_hermitian(x: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix.

    The input is symmetrized to (x + x*)/2 first, so callers may pass
    matrices that are Hermitian only up to rounding.
    """
    x = require_square(x)
    sym = (x + dag(x)) / 2.0
    return float(np.linalg.eigvalsh(sym)[0])


def eigh_split(x: np.ndarray, cutoff: float, clip_tol: float = math.inf) -> tuple[np.ndarray, np.ndarray, int]:
    """(vals, vecs, k) of the Hermitian part (x + x*)/2 of a square matrix, from one eigh.

    vals are its eigenvalues, ascending and unclipped, the columns of vecs their
    eigenvectors, and k the count of eigenvalues at or below cutoff^2.  For a PSD
    x these are the ones whose square roots, the singular values of x^{1/2}, a
    pseudo-inverse with the absolute cutoff `cutoff` takes as zero, so

        x^{1/2} = V max(Lambda, 0)^{1/2} V*,    pinv(x^{1/2}) = V_k Lambda_k^{-1/2} V_k*

    over the columns from k on.  An eigenvalue below -clip_tol raises
    NotPositiveSemidefiniteError.
    """
    x = require_square(x)
    vals, vecs = np.linalg.eigh((x + dag(x)) / 2.0)
    if vals.size and vals[0] < -clip_tol:
        raise NotPositiveSemidefiniteError(
            f"matrix has eigenvalue {vals[0]:.3e} below -clip_tol = {-clip_tol:.3e}"
        )
    return vals, vecs, int(vals.searchsorted(cutoff * cutoff, side="right"))


def sqrtm_psd(x: np.ndarray, clip_tol: float = 1e-12) -> np.ndarray:
    """PSD square root via Hermitian eigendecomposition (`eigh_split`).

    Eigenvalues in [-clip_tol, 0) are clipped to zero; anything below
    -clip_tol raises NotPositiveSemidefiniteError.
    """
    vals, vecs, _ = eigh_split(x, 0.0, clip_tol)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ dag(vecs)
