"""Block coefficient algebra for quantum stochastic generators.

A coefficient acts on C^{(d+1)n}, the one-plus-noise space C (+) C^d tensored
with the initial space C^n, scalar slot first.  Its block form is

    F = [[ K,  M ],
         [ L,  W - I ]],    K: n x n,  L: dn x n,  M: n x dn,  W: dn x dn,

and W itself is stored (not W - I) so isometry and contraction questions read
directly off the stored block.  The noise corner dn is ordered noise-first:
C^d (x) C^n.

The central object is the quadratic form

    q(F) = F* + F + F* Delta F,

where Delta is the projection onto the noise corner.  A generator is
quasicontractive iff q(F) <= beta Delta_perp for some real beta, isometric
iff q(F) = 0, contractive iff q(F) <= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    DimensionMismatchError,
    _norm2_bounds,
    as_complex,
    dag,
    eigh_split,
    min_eig_hermitian,
    norm2,
    norm2_gate,
    require_finite,
)


# singular values of C^{1/2} at or below this count as zero in the range test
# and the Schur complement of `min_quasicontractivity_beta`.  C = I - W*W is
# formed in floating point: for a unitary W its eigenvalues are rounding, up
# to 2.6e-15 for dn <= 24 (5.1e-8 in C^{1/2}), and a cutoff below that reads
# them as a strict contraction with a shift near 1e15.
BETA_PINV_CUTOFF = 1e-6


def delta_projection(n: int, d: int) -> np.ndarray:
    """Projection onto the noise corner of C^{(d+1)n}."""
    out = np.zeros(((d + 1) * n, (d + 1) * n), dtype=complex)
    out[n:, n:] = np.eye(d * n)
    return out


def delta_perp(n: int, d: int) -> np.ndarray:
    """Projection onto the scalar corner of C^{(d+1)n}."""
    out = np.zeros(((d + 1) * n, (d + 1) * n), dtype=complex)
    out[:n, :n] = np.eye(n)
    return out


def _block_dims(square: np.ndarray, column: np.ndarray, names: str) -> tuple[int, int]:
    """(n, dn) of an n x n block and a dn x n block with d >= 1; names holds
    the two blocks' letters, for the error."""
    n = square.shape[0]
    if square.shape != (n, n):
        raise DimensionMismatchError(f"{names[0]} must be square, got {square.shape}")
    dn = column.shape[0]
    if n < 1 or dn < n or dn % n != 0 or column.shape != (dn, n):
        raise DimensionMismatchError(
            f"{names[1]} must be dn x n with d >= 1, got {column.shape} against n = {n}"
        )
    return n, dn


@dataclass(frozen=True, eq=False)
class BlockCoefficient:
    """QSDE coefficient in block form (K, L, M, W)."""

    K: np.ndarray
    L: np.ndarray
    M: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        for name in "KLMW":
            object.__setattr__(self, name, as_complex(getattr(self, name)))
        n, dn = _block_dims(self.K, self.L, "KL")
        if self.M.shape != (n, dn):
            raise DimensionMismatchError(f"M must be {n} x {dn}, got {self.M.shape}")
        if self.W.shape != (dn, dn):
            raise DimensionMismatchError(f"W must be {dn} x {dn}, got {self.W.shape}")

    @classmethod
    def _unchecked(cls, K, L, M, W) -> "BlockCoefficient":
        """The coefficient of blocks that pass `__post_init__`, built past its checks."""
        F = object.__new__(cls)
        F.__dict__.update(K=K, L=L, M=M, W=W)
        return F

    @property
    def n(self) -> int:
        return self.K.shape[0]

    @property
    def d(self) -> int:
        return self.L.shape[0] // self.K.shape[0]

    def as_full(self) -> np.ndarray:
        """The (d+1)n x (d+1)n matrix [[K, M], [L, W - I]], formed once and read-only."""
        return self._full

    @cached_property
    def _full(self) -> np.ndarray:
        n, dn = self.K.shape[0], self.L.shape[0]
        out = np.zeros((n + dn, n + dn), dtype=complex)
        out[:n, :n] = self.K
        out[:n, n:] = self.M
        out[n:, :n] = self.L
        out[n:, n:] = self.W - np.eye(dn)
        out.flags.writeable = False
        return out

    @classmethod
    def from_full(cls, full: np.ndarray, n: int) -> "BlockCoefficient":
        full = as_complex(full)
        if full.shape[0] != full.shape[1] or full.shape[0] <= n or full.shape[0] % n != 0:
            raise DimensionMismatchError(
                f"full matrix of shape {full.shape} does not split over n = {n}"
            )
        dn = full.shape[0] - n
        corners = (full[:n, :n], full[n:, :n], full[:n, n:])
        return cls._unchecked(*map(np.ascontiguousarray, corners), full[n:, n:] + np.eye(dn))

    def adjoint(self) -> "BlockCoefficient":
        """F*, again in block form: (K*, M*, L*, W*)."""
        return BlockCoefficient._unchecked(dag(self.K), dag(self.M), dag(self.L), dag(self.W))


def compose(G: BlockCoefficient, F: BlockCoefficient) -> BlockCoefficient:
    """G (+) F = G + F + G Delta F, on the full matrices.

    The Ito product formula (Hudson and Parthasarathy, Commun. Math. Phys. 93,
    1984): if U and Y solve the QSDEs with coefficients G and F, their product
    U Y solves the one with coefficient G (+) F.  Blocks: K = K_G + K_F + M_G L_F,
    L = L_G + W_G L_F, M = M_F + M_G W_F, W = W_G W_F.
    """
    if (G.n, G.d) != (F.n, F.d):
        raise DimensionMismatchError(f"(n, d) differ: {(G.n, G.d)} and {(F.n, F.d)}")
    n, g, f = G.n, G.as_full(), F.as_full()
    return BlockCoefficient.from_full(g + f + g[:, n:] @ f[n:, :], n)


def q_form(F: BlockCoefficient) -> np.ndarray:
    """q(F) = F* + F + F* Delta F, assembled blockwise.

    Blocks: [[K* + K + L*L, L*W + M], [M* + W*L, W*W - I]].
    """
    n, dn = F.n, F.L.shape[0]
    out = np.zeros((n + dn, n + dn), dtype=complex)
    out[:n, :n] = dag(F.K) + F.K + dag(F.L) @ F.L
    out[:n, n:] = dag(F.L) @ F.W + F.M
    out[n:, :n] = dag(F.M) + dag(F.W) @ F.L
    out[n:, n:] = dag(F.W) @ F.W - np.eye(dn)
    return out


def q_form_adjoint(F: BlockCoefficient) -> np.ndarray:
    """q(F*): blocks [[K* + K + M M*, M W* + L*], [L + W M*, W W* - I]]."""
    return q_form(F.adjoint())


@dataclass(frozen=True)
class CoefficientFlags:
    isometric_gen: bool
    coisometric_nec: bool
    contractive_gen: bool
    quasicontractive: bool
    # the minimal shift behind `quasicontractive`; None when infeasible
    beta: float | None


def _contraction_defect(W: np.ndarray) -> np.ndarray:
    """I - W*W, formed as E + E* - E*E with E = I - W when ||E||_F <= 1e-3.

    Near W = I the direct form cancels: the rounding of W*W costs about
    eps / (1 - ||W||^2) relative.  There E is exact and the E-form's rounding
    scales with ||E||, so it gains a factor of at least 1e3.  The gain shrinks
    as ||E|| grows and turns into a loss near ||E|| = 1/2 (E*E rounds at
    eps ||E||^2), so everywhere else the direct form is kept, and C agrees
    bit for bit with I - W*W.
    """
    e = np.eye(W.shape[0]) - W
    if np.linalg.norm(e) <= 1e-3:
        return e + dag(e) - dag(e) @ e
    return np.eye(W.shape[0]) - dag(W) @ W


def min_quasicontractivity_beta(F: BlockCoefficient, tol: float = 1e-8) -> float | None:
    """Smallest real beta with q(F) <= beta Delta_perp, or None if infeasible.

    With the blocks A = K* + K + L*L, B = M + L*W and C = I - W*W of q(F)
    (near W = I, C is formed from E = I - W; see `_contraction_defect`),
    the shifted form beta Delta_perp - q(F) is PSD iff C >= 0, B = B C^+ C,
    and beta I - A - B C^+ B* >= 0 (generalized Schur complement; A. Albert,
    SIAM J. Appl. Math. 17, 1969).  Hence

        beta_min = lambda_max(A + X X*),    X = B pinv(C^{1/2}).

    All of it is read off one eigendecomposition C = V Lambda V* (`eigh_split`),
    with V_+ the eigenvectors of eigenvalue above BETA_PINV_CUTOFF^2 (the
    singular values of C^{1/2} above the cutoff) and V_0 the rest:

      - W must be a contraction: ||W||^2 = 1 - lambda_min(C) <= (1 + tol)^2;
      - B must lie in the range of right-multiplication by C^{1/2}: the
        least-squares residual ||X C^{1/2} - B|| = ||B V_0|| at most
        tol (1 + ||M||), decided by `norm2_gate`;
      - X X* = (B V_+) Lambda_+^{-1} (B V_+)*.

    A W with ||W||_F / sqrt(dn) > 1 + tol, one whose W*W overflows included, is
    infeasible before C is formed.
    """
    # the lower bound is NaN where ||W||_F overflows
    if not _norm2_bounds(F.W)[0] <= 1.0 + tol:
        return None
    vals, vecs, k = eigh_split(_contraction_defect(F.W), BETA_PINV_CUTOFF)
    if 1.0 - vals[0] > (1.0 + tol) ** 2:
        return None
    b = (F.M + dag(F.L) @ F.W) @ vecs
    if k:
        residual, bound = norm2_gate(b[:, :k], F.M, tol)
        if residual > bound:
            return None
    x = b[:, k:] / np.sqrt(vals[k:])
    schur = dag(F.K) + F.K + dag(F.L) @ F.L + x @ dag(x)
    # + 0.0 turns the -0.0 of an exactly isometric generator into 0.0
    return require_finite(-min_eig_hermitian(-schur), "beta") + 0.0


def classify(F: BlockCoefficient, tol: float = 1e-8) -> CoefficientFlags:
    """The four generator classes, decided at tolerance tol.

    isometric_gen:   q(F) = 0        (cocycle is isometric)
    coisometric_nec: q(F*) = 0       (necessary side of coisometry)
    contractive_gen: q(F) <= 0
    quasicontractive: q(F) <= beta Delta_perp for some finite beta

    beta carries that minimal shift (`min_quasicontractivity_beta`), None
    when F is not quasicontractive.  The first three compare ||q(F)||,
    ||q(F*)|| and lambda_max(q(F)) with tol (1 + ||F||), through `norm2_gate`,
    so an SVD runs only where Frobenius bounds leave a verdict open.  A q form
    that overflows is a FloatingPointError, raised before an SVD or eigen call on
    it; so is a lambda_max(q(F)) or a beta that is not finite.
    """
    full, q = F.as_full(), require_finite(q_form(F), "q(F)")
    q_adjoint = require_finite(q_form_adjoint(F), "q(F*)")
    # lambda_max(q) = -lambda_min(-q), as a float that the gate takes as it is
    lam_max = require_finite(-min_eig_hermitian(-q), "lambda_max(q(F))")
    gates = [norm2_gate(r, full, tol) for r in (q, q_adjoint, lam_max)]
    isometric, coisometric, contractive = (bool(lhs <= rhs) for lhs, rhs in gates)
    beta = min_quasicontractivity_beta(F, tol=tol)
    return CoefficientFlags(
        isometric_gen=isometric,
        coisometric_nec=coisometric,
        contractive_gen=contractive,
        quasicontractive=beta is not None,
        beta=beta,
    )


def _root_and_pinv(x: np.ndarray, clip_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(x^{1/2}, pinv(x^{1/2})) of a PSD matrix from one eigh (`eigh_split`): the
    root as `sqrtm_psd` forms it, bit for bit, and the pseudo-inverse with the
    absolute cutoff 1e-12 on the root's singular values."""
    vals, vecs, k = eigh_split(x, 1e-12, clip_tol)
    roots, kept = np.sqrt(np.clip(vals, 0.0, None)), vecs[:, k:]
    return (vecs * roots) @ dag(vecs), (kept / roots[k:]) @ dag(kept)


def contraction_decomposition(
    F: BlockCoefficient, beta: float, tol: float = 1e-8
) -> tuple[np.ndarray, np.ndarray] | None:
    """Solve M + L*W = b1^{1/2} v1 (I - W*W)^{1/2} with v1 a contraction.

    Requires q(F) <= beta Delta_perp.  Returns (b1, v1) with
    b1 = beta I - (K* + K + L*L) PSD.  Returns None when the least-squares
    v1 fails to be a contraction (||v1|| > 1 + 1e-8) or fails to reproduce
    M + L*W -- a tolerance inconsistency, not a mathematical failure, so it
    is reported rather than clipped.  Each root and its pseudo-inverse come
    from one eigendecomposition (`_root_and_pinv`).
    """
    n = F.n
    q = q_form(F)
    scale = 1.0 + norm2(q)
    if min_eig_hermitian(beta * delta_perp(n, F.d) - q) < -tol * scale:
        raise ValueError("q(F) <= beta Delta_perp does not hold at this beta")
    b1 = beta * np.eye(n) - (dag(F.K) + F.K + dag(F.L) @ F.L)
    b1_root, b1_pinv = _root_and_pinv(b1, tol * (1.0 + norm2(b1)))
    # C is a compression of beta Delta_perp - q(F), so that gate bounds it too
    gram_root, gram_pinv = _root_and_pinv(_contraction_defect(F.W), tol * scale + 1e-12)
    rhs = F.M + dag(F.L) @ F.W
    v1 = b1_pinv @ rhs @ gram_pinv
    if norm2(v1) > 1.0 + 1e-8:
        return None
    if norm2(b1_root @ v1 @ gram_root - rhs) > 1e-8 * (1.0 + norm2(F.M)):
        return None
    return b1, v1


def transform_prime(F: BlockCoefficient) -> BlockCoefficient:
    """F' = (K, L, 0, 0): as a full matrix, F Delta_perp - Delta.

    The cocycle generated by F' agrees with the one generated by F on
    vacuum-side columns; the noise columns are shredded.
    """
    n, dn = F.n, F.L.shape[0]
    return BlockCoefficient(
        K=F.K,
        L=F.L,
        M=np.zeros((n, dn), dtype=complex),
        W=np.zeros((dn, dn), dtype=complex),
    )


def transform_double_prime(F: BlockCoefficient) -> BlockCoefficient:
    """F'' = (K, L, -L*, I): the gauge-free, creation/annihilation-balanced form."""
    dn = F.L.shape[0]
    return BlockCoefficient(K=F.K, L=F.L, M=-dag(F.L), W=np.eye(dn, dtype=complex))

