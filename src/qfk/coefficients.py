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

import numpy as np

from .linalg import (
    DimensionMismatchError,
    as_complex,
    dag,
    min_eig_hermitian,
    norm2,
    norm2_gate,
    pinv_abs,
    require_finite,
    sqrtm_psd,
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
        object.__setattr__(self, "K", as_complex(self.K))
        object.__setattr__(self, "L", as_complex(self.L))
        object.__setattr__(self, "M", as_complex(self.M))
        object.__setattr__(self, "W", as_complex(self.W))
        n, dn = _block_dims(self.K, self.L, "KL")
        if self.M.shape != (n, dn):
            raise DimensionMismatchError(f"M must be {n} x {dn}, got {self.M.shape}")
        if self.W.shape != (dn, dn):
            raise DimensionMismatchError(f"W must be {dn} x {dn}, got {self.W.shape}")

    @property
    def n(self) -> int:
        return self.K.shape[0]

    @property
    def d(self) -> int:
        return self.L.shape[0] // self.K.shape[0]

    def as_full(self) -> np.ndarray:
        """The (d+1)n x (d+1)n matrix [[K, M], [L, W - I]]."""
        n, dn = self.K.shape[0], self.L.shape[0]
        out = np.zeros((n + dn, n + dn), dtype=complex)
        out[:n, :n] = self.K
        out[:n, n:] = self.M
        out[n:, :n] = self.L
        out[n:, n:] = self.W - np.eye(dn)
        return out

    @classmethod
    def from_full(cls, full: np.ndarray, n: int) -> "BlockCoefficient":
        full = as_complex(full)
        if full.shape[0] != full.shape[1] or full.shape[0] <= n or full.shape[0] % n != 0:
            raise DimensionMismatchError(
                f"full matrix of shape {full.shape} does not split over n = {n}"
            )
        dn = full.shape[0] - n
        return cls(
            K=full[:n, :n],
            L=full[n:, :n],
            M=full[:n, n:],
            W=full[n:, n:] + np.eye(dn),
        )

    def adjoint(self) -> "BlockCoefficient":
        """F*, again in block form: (K*, M*, L*, W*)."""
        return BlockCoefficient(K=dag(self.K), L=dag(self.M), M=dag(self.L), W=dag(self.W))


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

    Feasibility requires W to be a contraction (||W|| <= 1 + tol) and B to
    lie in the range of right-multiplication by C^{1/2}; the latter is tested
    by the least-squares residual ||X C^{1/2} - B||, with the singular values
    of C^{1/2} up to BETA_PINV_CUTOFF taken as zero.
    """
    if norm2(F.W) > 1.0 + tol:
        return None
    # past that gate C's eigenvalues reach down to 1 - (1 + tol)^2
    gram_root = sqrtm_psd(_contraction_defect(F.W), clip_tol=tol * (2.0 + tol) + 1e-12)
    rhs = F.M + dag(F.L) @ F.W
    x = rhs @ pinv_abs(gram_root, cutoff=BETA_PINV_CUTOFF)
    # decided as norm2(residual) > tol (1 + norm2(M)), by Frobenius bounds where they settle it
    residual, bound = norm2_gate(x @ gram_root - rhs, F.M, tol)
    if residual > bound:
        return None
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


def contraction_decomposition(
    F: BlockCoefficient, beta: float, tol: float = 1e-8
) -> tuple[np.ndarray, np.ndarray] | None:
    """Solve M + L*W = b1^{1/2} v1 (I - W*W)^{1/2} with v1 a contraction.

    Requires q(F) <= beta Delta_perp.  Returns (b1, v1) with
    b1 = beta I - (K* + K + L*L) PSD.  Returns None when the least-squares
    v1 fails to be a contraction (||v1|| > 1 + 1e-8) or fails to reproduce
    M + L*W -- a tolerance inconsistency, not a mathematical failure, so it
    is reported rather than clipped.
    """
    n = F.n
    q = q_form(F)
    scale = 1.0 + norm2(q)
    if min_eig_hermitian(beta * delta_perp(n, F.d) - q) < -tol * scale:
        raise ValueError("q(F) <= beta Delta_perp does not hold at this beta")
    b1 = beta * np.eye(n) - (dag(F.K) + F.K + dag(F.L) @ F.L)
    b1_root = sqrtm_psd(b1, clip_tol=tol * (1.0 + norm2(b1)))
    # C is a compression of beta Delta_perp - q(F), so that gate bounds it too
    gram_root = sqrtm_psd(_contraction_defect(F.W), clip_tol=tol * scale + 1e-12)
    rhs = F.M + dag(F.L) @ F.W
    v1 = pinv_abs(b1_root) @ rhs @ pinv_abs(gram_root)
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


# --- JSON wire format -------------------------------------------------------

def matrix_to_pairs(x: np.ndarray) -> list[list[float]]:
    """Row-major flat list of [re, im] pairs."""
    flat = np.asarray(x, dtype=complex).reshape(-1)
    return [[float(v.real), float(v.imag)] for v in flat]


def matrix_from_pairs(pairs, rows: int, cols: int) -> np.ndarray:
    arr = np.array(pairs)  # a fresh C-ordered copy, which the view below needs
    if arr.dtype.kind not in "biuf":
        # entries are ints, floats or bools (0.0 and 1.0), as a step function's values:
        # not strings such as "nan", which numpy converts; an int past int64 reads as a float
        for k, pair in enumerate(pairs if isinstance(pairs, list) else []):
            if isinstance(pair, list) and any(isinstance(v, str) for v in pair):
                raise ValueError(f"[re, im] pair {k} must hold numbers, got {pair!r}")
        arr = np.array(pairs, dtype=float)
    arr = arr.astype(float, copy=False)
    if arr.shape != (rows * cols, 2):
        raise DimensionMismatchError(
            f"expected {rows * cols} [re, im] pairs, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        k = int(np.argmin(np.isfinite(arr).all(axis=1)))
        raise ValueError(f"non-finite [re, im] pair {k}: {arr[k].tolist()}")
    # the [re, im] pairs read as complex in place: both parts bit for bit,
    # signed zeros too, as in _step_arrays
    return arr.view(complex).reshape(rows, cols)


def coefficient_to_json(F: BlockCoefficient) -> dict:
    return {
        "n": F.n,
        "d": F.d,
        "K": matrix_to_pairs(F.K),
        "L": matrix_to_pairs(F.L),
        "M": matrix_to_pairs(F.M),
        "W": matrix_to_pairs(F.W),
    }


def _integral(value) -> int | None:
    """value as an int if it is an integer or an integral float; None otherwise, bools included."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        return None
    return int(value)


def _dims_from_json(obj: dict) -> tuple[int, int]:
    """The (n, d) of a coefficient or flow section: integers >= 1."""
    n, d = _integral(obj["n"]), _integral(obj["d"])
    if n is None or d is None or n < 1 or d < 1:
        raise DimensionMismatchError(
            f"need integers n >= 1 and d >= 1, got n = {obj['n']!r}, d = {obj['d']!r}"
        )
    return n, d


def _require_keys(obj: dict, allowed: tuple) -> None:
    """ValueError naming the first key of obj outside allowed.  Called after a key of
    obj is read, so that a section that is not an object keeps that read's error."""
    unknown = [key for key in obj if key not in allowed]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}; expected {', '.join(allowed)}")


def coefficient_from_json(obj: dict) -> BlockCoefficient:
    n, d = _dims_from_json(obj)
    _require_keys(obj, ("n", "d", "K", "L", "M", "W"))
    dn = d * n
    return BlockCoefficient(
        K=matrix_from_pairs(obj["K"], n, n),
        L=matrix_from_pairs(obj["L"], dn, n),
        M=matrix_from_pairs(obj["M"], n, dn),
        W=matrix_from_pairs(obj["W"], dn, dn),
    )
