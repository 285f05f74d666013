"""Flow generators: the structure maps of a quantum stochastic flow.

A flow generator theta is assembled from (h, l, W) with h = h* on C^n,
l: C^n -> C^d (x) C^n and W unitary on C^d (x) C^n:

    pi(a)     = W* (I_d (x) a) W                      (a representation)
    delta(a)  = pi(a) l - l a                         (a pi-derivation)
    Ldb(a)    = l* pi(a) l - (l*l a + a l*l)/2 + i(a h - h a)

    theta(x)  = [[ Ldb(x),  delta(x*)* ],
                 [ delta(x), pi(x) - I_d (x) x ]]      on C^{(d+1)n}.

theta is characterized by the structure relation

    theta(x* y) = theta(x)* iota(y) + iota(x)* theta(y) + theta(x)* Delta theta(y)

with iota(x) = I_{d+1} (x) x, equivalently by pi being multiplicative, delta
a pi-derivation and Ldb dissipating into delta* delta.  `validate_structure`
checks exactly these identities on random inputs, so it accepts any
theta-like map, not only ones built from explicit (h, l, W).

An `OperatorMap` evaluates on one n x n matrix or on a (k, n, n) stack of
them, returning one (d+1)n x (d+1)n matrix or a (k, (d+1)n, (d+1)n) stack;
item i of a stack's image is the image of item i, bit for bit.  Every map
built here is a chain of broadcasting matmuls, so `validate_structure`
evaluates theta once per chunk of trials, on the stack of their inputs
(`perturbations.block_superoperators` chunks phi's matrix units by the same
entry budget).  Each fixed right factor is one GEMM over the stacked rows
(`linalg.rmul`; a one-row item or a one-column factor keeps numpy's per-item
gemv/dot product), and fixed left factors that share an operand are one product
([l*l; h; l] x): GEMM sums each output row on its own, so items stay bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .coefficients import (
    BlockCoefficient,
    _block_dims,
    _dims_from_json,
    _require_keys,
    delta_projection,
    matrix_from_pairs,
    matrix_to_pairs,
    q_form,
    q_form_adjoint,
)
from .linalg import DimensionMismatchError, as_complex, dag, max_norm2, norm2, norm2_gate, require_finite, rmul


class NotUnitaryGeneratorError(ValueError):
    """Coefficient does not generate a unitary cocycle."""


def _block_diagonal(x: np.ndarray, reps: int) -> np.ndarray:
    """I_reps (x) x, for a matrix or for each matrix of a stack."""
    n = x.shape[-1]
    out = np.zeros(x.shape[:-2] + (reps * n, reps * n), dtype=complex)
    for r in range(reps):
        out[..., r * n : (r + 1) * n, r * n : (r + 1) * n] = x
    return out


def ampliate(x: np.ndarray, d: int) -> np.ndarray:
    """iota(x) = I_{d+1} (x) x on the one-plus-noise space."""
    return _block_diagonal(x, d + 1)


def noise_ampliate(x: np.ndarray, d: int) -> np.ndarray:
    """I_d (x) x on the noise corner."""
    return _block_diagonal(x, d)


@dataclass(frozen=True)
class OperatorMap:
    """A linear map M_n -> M_{(d+1)n}, tagged with its dimensions.

    Called on an n x n matrix it returns a (d+1)n x (d+1)n matrix; called on
    a (k, n, n) stack it returns the (k, (d+1)n, (d+1)n) stack of images, so
    fn must broadcast over leading axes.  An output of any other shape, such
    as one matrix for a whole stack, raises DimensionMismatchError.
    """

    n: int
    d: int
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=complex)
        if x.ndim not in (2, 3) or x.shape[-2:] != (self.n, self.n):
            raise DimensionMismatchError(f"expected {self.n} x {self.n} or a stack of them, got {x.shape}")
        out = self.fn(x)
        m = (self.d + 1) * self.n
        if np.shape(out) != x.shape[:-2] + (m, m):
            raise DimensionMismatchError(
                f"map returned shape {np.shape(out)} for input {x.shape}, expected {x.shape[:-2] + (m, m)}"
            )
        return out


@dataclass(frozen=True, eq=False)
class FlowGenerator:
    """Parameters (h, l, W) of a flow generator; validated on construction."""

    h: np.ndarray
    l: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h", as_complex(self.h))
        object.__setattr__(self, "l", as_complex(self.l))
        object.__setattr__(self, "W", as_complex(self.W))
        _, dn = _block_dims(self.h, self.l, "hl")
        if self.W.shape != (dn, dn):
            raise DimensionMismatchError(f"W must be {dn} x {dn}, got {self.W.shape}")
        # decided as norm2(r) > tol (1 + norm2(x)), by a Frobenius form where it
        # settles it; a residual that overflows fails, with no warning and no SVD of it
        with np.errstate(over="ignore", invalid="ignore"):
            skew, defect = self.h - dag(self.h), dag(self.W) @ self.W - np.eye(dn)
        for r, x, tol, message in ((skew, self.h, 1e-12, "h must be Hermitian"),
                                   (defect, self.W, 1e-10, "W must be unitary")):
            lhs, rhs = norm2_gate(r, x, tol) if np.isfinite(r).all() else (math.inf, 0.0)
            if lhs > rhs:
                raise ValueError(message)

    @property
    def n(self) -> int:
        return self.h.shape[0]

    @property
    def d(self) -> int:
        return self.l.shape[0] // self.h.shape[0]

    def pi(self, a: np.ndarray) -> np.ndarray:
        return dag(self.W) @ noise_ampliate(a, self.d) @ self.W

    def delta(self, a: np.ndarray) -> np.ndarray:
        return self.theta(a)[..., self.n :, : self.n]

    def delta_dag(self, a: np.ndarray) -> np.ndarray:
        return self.theta(a)[..., : self.n, self.n :]

    def lindblad(self, a: np.ndarray) -> np.ndarray:
        return self.theta(a)[..., : self.n, : self.n]

    def theta(self, x: np.ndarray) -> np.ndarray:
        """theta(x) from one pi(x); x may be a stack of matrices."""
        n, dn, h, l, lt = self.n, self.l.shape[0], self.h, self.l, dag(self.l)
        ax = noise_ampliate(x, self.d)
        px = rmul(dag(self.W) @ ax, self.W)
        ll = lt @ l
        # the fixed left factors of x in one product, by rows: l*l x, h x, l x
        left = np.concatenate([ll, h, l]) @ x
        llx, hx, lx = left[..., :n, :], left[..., n : 2 * n, :], left[..., 2 * n :, :]
        lpx = lt @ px
        out = np.empty(x.shape[:-2] + (n + dn, n + dn), dtype=complex)
        out[..., :n, :n] = rmul(lpx, l) - 0.5 * (llx + rmul(x, ll)) + 1j * (rmul(x, h) - hx)
        # delta(x*)* = l* pi(x) - x l*, as pi(x*) = pi(x)*
        out[..., :n, n:] = lpx - rmul(x, lt)
        out[..., n:, :n] = rmul(px, l) - lx
        np.subtract(px, ax, out=out[..., n:, n:])
        return out

    def as_map(self) -> OperatorMap:
        return OperatorMap(n=self.n, d=self.d, fn=self.theta)


def as_theta_map(theta) -> OperatorMap:
    if isinstance(theta, FlowGenerator):
        return theta.as_map()
    if isinstance(theta, OperatorMap):
        return theta
    raise TypeError(f"expected FlowGenerator or OperatorMap, got {type(theta)!r}")


def trivial_flow(n: int, d: int) -> FlowGenerator:
    """The flow with theta = 0 (h = 0, l = 0, W = I)."""
    return FlowGenerator(
        h=np.zeros((n, n), dtype=complex),
        l=np.zeros((d * n, n), dtype=complex),
        W=np.eye(d * n, dtype=complex),
    )


def theta_components(theta: OperatorMap, x: np.ndarray):
    """(Ldb(x), delta(x), delta_dag(x), pi(x)) read off the blocks of theta(x)."""
    return _components(theta(x), x, theta.n, theta.d)


def _components(tx: np.ndarray, x: np.ndarray, n: int, d: int):
    """(Ldb(x), delta(x), delta_dag(x), pi(x)) read off tx = theta(x), or off a stack."""
    return tx[..., :n, :n], tx[..., n:, :n], tx[..., :n, n:], tx[..., n:, n:] + noise_ampliate(x, d)


def require_unitary_type(G: BlockCoefficient, tol: float = 1e-8) -> None:
    """Raise NotUnitaryGeneratorError unless q(G) = 0 and q(G*) = 0 at tol.

    Each form is decided as ||q|| <= tol (1 + ||G||), by a Frobenius form
    where it settles it (`norm2_gate`).
    """
    full = G.as_full()
    gates = [norm2_gate(q, full, tol) for q in (q_form(G), q_form_adjoint(G))]
    if not all(lhs <= rhs for lhs, rhs in gates):
        raise NotUnitaryGeneratorError(
            "coefficient must satisfy q(G) = 0 and q(G*) = 0 to drive a unitary cocycle"
        )


def hp_coefficient_for_flow(fg: FlowGenerator) -> BlockCoefficient:
    """A unitary-type coefficient whose induced inner flow has generator fg.theta.

    Right inverse of `perturbations.from_hp_coefficient` modulo the l -> W*l gauge:
    K = i h - 1/2 l*l, L = W l, M = -l*, gauge part W.
    """
    return BlockCoefficient(
        K=1j * fg.h - 0.5 * dag(fg.l) @ fg.l,
        L=fg.W @ fg.l,
        M=-dag(fg.l),
        W=fg.W,
    )


# complex entries of map output per stacked call: of theta in validate_structure,
# for the trial inputs (the first call also carries I), and of phi in
# perturbations.block_superoperators; bounds the working set in trials, n and d alike
_STRUCTURE_ENTRIES = 1 << 14


@dataclass(frozen=True)
class StructureReport:
    residuals: dict = field(default_factory=dict)
    tol: float = 1e-11
    trials: int = 20
    seed: int = 0

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


def validate_structure(theta, trials: int = 20, tol: float = 1e-11, seed: int = 0) -> StructureReport:
    """Check the structure relations of a theta-like map on random inputs.

    Residuals reported (max over trials, spectral norm):
      pi_multiplicative:  pi(x*y) - pi(x)* pi(y)
      delta_derivation:   delta(x*y) - delta(x*) y - pi(x)* delta(y)
      lindblad_dissipation: Ldb(x*y) - Ldb(x)* y - x* Ldb(y) - delta(x)* delta(y)
      theta_structure:    theta(x*y) - theta(x)* iota(y) - iota(x)* theta(y)
                                     - theta(x)* Delta theta(y)
      unital:             theta(I)
      real:               theta(x*) - theta(x)*

    theta is evaluated on the stack (x, y, x*, x*y) of a chunk of trials,
    one row per distinct input and I in row 0 of the first call: 4 trials + 1
    rows in all, each call's trial rows within _STRUCTURE_ENTRIES entries.
    Each residual is the exact largest spectral norm, taken by max_norm2 over
    the chunk's stack with the earlier chunks' max as floor: an SVD runs only
    on the slices whose bound can still exceed that running max.  A residual
    that is not finite (theta overflowed) is a FloatingPointError, before any SVD.
    """
    theta = as_theta_map(theta)
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    n, d = theta.n, theta.d
    # the stream of successive complex_randn draws of x and y, bit for bit
    g = np.random.default_rng(seed).standard_normal((trials, 2, 2, n, n))
    draws = (g[:, :, 0] + 1j * g[:, :, 1]) / np.sqrt(2.0)
    chunk = max(1, _STRUCTURE_ENTRIES // (4 * ((d + 1) * n) ** 2))
    delta_proj = delta_projection(n, d)
    keys = ("pi_multiplicative", "delta_derivation", "lindblad_dissipation", "theta_structure", "unital", "real")
    resid = {k: 0.0 for k in keys}
    for start in range(0, max(trials, 1), chunk):
        x, y = draws[start : start + chunk, 0], draws[start : start + chunk, 1]
        xs = dag(x)
        xy = xs @ y
        # theta once per distinct input; every block is read off these four
        t = theta(np.concatenate([x, y, xs, xy] if start else [np.eye(n)[None], x, y, xs, xy]))
        if not start:
            resid["unital"], t = norm2(require_finite(t[0], "structure residual 'unital'")), t[1:]
        tx, ty, txs, txy = np.split(t, 4)
        lx, dx, _, px = _components(tx, x, n, d)
        ly, dy, _, py = _components(ty, y, n, d)
        lxy, dxy, _, pxy = _components(txy, xy, n, d)
        txa, pxa = dag(tx), dag(px)
        # the left factors of y in one product, by rows: delta(x*) y, Ldb(x)* y
        left = np.concatenate([txs[:, n:, :n], dag(lx)], axis=1) @ y
        diffs = {
            "pi_multiplicative": pxy - pxa @ py,
            "delta_derivation": dxy - left[:, : d * n] - pxa @ dy,
            "lindblad_dissipation": lxy - left[:, d * n :] - xs @ ly - dag(dx) @ dy,
            "theta_structure": txy
            - txa @ ampliate(y, d)
            - dag(ampliate(x, d)) @ ty
            - rmul(txa, delta_proj) @ ty,
            "real": txs - txa,
        }
        for key, r in diffs.items():
            resid[key] = max_norm2(require_finite(r, f"structure residual {key!r}"), floor=resid[key])
    return StructureReport(residuals=resid, tol=tol, trials=trials, seed=seed)


# --- JSON wire format -------------------------------------------------------

def flow_to_json(fg: FlowGenerator) -> dict:
    return {
        "n": fg.n,
        "d": fg.d,
        "h": matrix_to_pairs(fg.h),
        "l": matrix_to_pairs(fg.l),
        "W": matrix_to_pairs(fg.W),
    }


def flow_from_json(obj: dict) -> FlowGenerator:
    n, d = _dims_from_json(obj)
    _require_keys(obj, ("n", "d", "h", "l", "W"))
    dn = d * n
    return FlowGenerator(
        h=matrix_from_pairs(obj["h"], n, n),
        l=matrix_from_pairs(obj["l"], dn, n),
        W=matrix_from_pairs(obj["W"], dn, dn),
    )
