"""Shared dense linear algebra.

All matrices in this package are C-ordered numpy arrays of dtype complex128
(row-major entries, so ``adjoint(adjoint(x))`` reproduces ``x`` bit for bit).
Norms are spectral norms, and tolerances are absolute-plus-relative:
``tol * (1 + norm(x))`` with default ``tol = 1e-10``.
"""

from __future__ import annotations

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
    """Spectral norm."""
    if x.size == 0:
        return 0.0
    return float(np.linalg.norm(x, 2))


def expm(x: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring with a Pade approximant)."""
    x = require_square(x)
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
