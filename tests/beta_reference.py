"""The minimal quasicontractivity shift along three decompositions: the reference
for `coefficients.min_quasicontractivity_beta`, which reads it off one eigh of C.

The path is the generalized Schur complement written out: the contraction gate
||W|| <= 1 + tol from an SVD of W, C^{1/2} by `sqrtm_psd`, its pseudo-inverse from
an SVD of C^{1/2} (`pinv_abs`, singular values up to BETA_PINV_CUTOFF taken as
zero), X = B pinv(C^{1/2}), the range test on the least-squares residual
X C^{1/2} - B, and beta = lambda_max(A + X X*).
"""

import numpy as np

from qfk.coefficients import BETA_PINV_CUTOFF, BlockCoefficient, _contraction_defect
from qfk.linalg import as_complex, dag, min_eig_hermitian, norm2, norm2_gate, require_finite, sqrtm_psd


def pinv_abs(x: np.ndarray, cutoff: float = 1e-12) -> np.ndarray:
    """Pseudo-inverse with an absolute singular-value cutoff."""
    u, s, vh = np.linalg.svd(as_complex(x), full_matrices=False)
    inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return np.ascontiguousarray(dag(vh) @ (inv[:, None] * dag(u)))


def schur_path_beta(F: BlockCoefficient, tol: float = 1e-8) -> float | None:
    """Smallest beta with q(F) <= beta Delta_perp, or None, by norm2, sqrtm_psd and pinv_abs."""
    if norm2(F.W) > 1.0 + tol:
        return None
    # past that gate C's eigenvalues reach down to 1 - (1 + tol)^2
    gram_root = sqrtm_psd(_contraction_defect(F.W), clip_tol=tol * (2.0 + tol) + 1e-12)
    rhs = F.M + dag(F.L) @ F.W
    x = rhs @ pinv_abs(gram_root, cutoff=BETA_PINV_CUTOFF)
    residual, bound = norm2_gate(x @ gram_root - rhs, F.M, tol)
    if residual > bound:
        return None
    schur = dag(F.K) + F.K + dag(F.L) @ F.L + x @ dag(x)
    return require_finite(-min_eig_hermitian(-schur), "beta") + 0.0
