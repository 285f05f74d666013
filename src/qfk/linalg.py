"""Shared dense linear algebra.

All matrices in this package are C-ordered numpy arrays of dtype complex128
(row-major entries, so ``adjoint(adjoint(x))`` reproduces ``x`` bit for bit).
Norms are spectral norms, and tolerances are absolute-plus-relative:
``tol * (1 + norm(x))`` with default ``tol = 1e-10``.
"""

from __future__ import annotations

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
    """Matrix exponential (scaling-and-squaring with a Pade approximant); of each
    slice of a (k, m, m) stack in one call, bit for bit as the 2-d call on it."""
    x = np.ascontiguousarray(x, dtype=complex)
    if x.ndim not in (2, 3) or x.shape[-1] != x.shape[-2]:
        raise DimensionMismatchError(f"expected a square matrix or a stack of them, got shape {x.shape}")
    return np.ascontiguousarray(scipy.linalg.expm(x))


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
