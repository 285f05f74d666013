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
a pi-derivation and Ldb dissipating into delta* delta.  Built from (h, l, W),
theta misses each by a term linear in W*W - I and h - h*, which `structure_defects`
bounds in closed form; `validate_structure` samples them, for any theta-like map.

An `OperatorMap` evaluates on one n x n matrix or on a (k, n, n) stack of
them, returning one (d+1)n x (d+1)n matrix or a (k, (d+1)n, (d+1)n) stack;
item i of a stack's image is the image of item i, bit for bit.  Every map
built here is a chain of broadcasting matmuls, so `validate_structure`
evaluates theta on the stacked inputs of each slice of trials of `linalg.chunks`
(linalg.CHUNK_ENTRIES = 2^14 output entries, the budget by which
`perturbations.block_superoperators` also stacks phi's matrix units).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .coefficients import (
    BlockCoefficient,
    _block_dims,
    delta_projection,
    q_form,
    q_form_adjoint,
)
from .linalg import (
    DimensionMismatchError, as_complex, chunks, dag, norm2, norm2_gate, norm2_stack, require_finite,
)


class NotUnitaryGeneratorError(ValueError):
    """Coefficient does not generate a unitary cocycle."""


def _gate(r, x: np.ndarray, tol: float) -> tuple[float, float]:
    """`norm2_gate(r, x, tol)`, or the failing pair (inf, 0), with no SVD, where r is not finite."""
    return norm2_gate(r, x, tol) if np.isfinite(r).all() else (math.inf, 0.0)


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
        for name in "hlW":
            object.__setattr__(self, name, as_complex(getattr(self, name)))
        _, dn = _block_dims(self.h, self.l, "hl")
        if self.W.shape != (dn, dn):
            raise DimensionMismatchError(f"W must be {dn} x {dn}, got {self.W.shape}")
        self._require_gates()

    @classmethod
    def _unchecked(cls, h, l, W) -> "FlowGenerator":
        """The flow of (h, l, W) that pass `__post_init__`, built past its checks."""
        fg = object.__new__(cls)
        fg.__dict__.update(h=h, l=l, W=W)
        return fg

    @cached_property
    def _defects(self) -> tuple[np.ndarray, np.ndarray]:
        """(S, E') = (h - h*, W*W - I), formed once for the gates and the structure
        bounds; an overflow is left as inf or NaN, with no warning."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.h - dag(self.h), dag(self.W) @ self.W - np.eye(len(self.W))

    def _require_gates(self) -> None:
        """ValueError unless h is Hermitian and W unitary, by `_gate`; an overflow fails."""
        skew, defect = self._defects
        for r, x, tol, message in ((skew, self.h, 1e-12, "h must be Hermitian"),
                                   (defect, self.W, 1e-10, "W must be unitary")):
            lhs, rhs = _gate(r, x, tol)
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
        px = dag(self.W) @ ax @ self.W
        ll = lt @ l
        lpx = lt @ px
        out = np.empty(x.shape[:-2] + (n + dn, n + dn), dtype=complex)
        out[..., :n, :n] = lpx @ l - 0.5 * (ll @ x + x @ ll) + 1j * (x @ h - h @ x)
        # delta(x*)* = l* pi(x) - x l*, as pi(x*) = pi(x)*
        out[..., :n, n:] = lpx - x @ lt
        out[..., n:, :n] = px @ l - l @ x
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
    """The flow with theta = 0 (h = 0, l = 0, W = I): exact, so past the gates."""
    return FlowGenerator._unchecked(np.zeros((n, n), dtype=complex), np.zeros((d * n, n), dtype=complex),
                                    np.eye(d * n, dtype=complex))


def _components(tx: np.ndarray, x: np.ndarray, n: int, d: int):
    """(Ldb(x), delta(x), delta_dag(x), pi(x)) read off tx = theta(x), or off a stack."""
    return tx[..., :n, :n], tx[..., n:, :n], tx[..., :n, n:], tx[..., n:, n:] + noise_ampliate(x, d)


def require_unitary_type(G: BlockCoefficient, tol: float = 1e-8) -> None:
    """Raise NotUnitaryGeneratorError unless q(G) = 0 and q(G*) = 0 at tol.

    Each form is decided as ||q|| <= tol (1 + ||G||), by a Frobenius form
    where it settles it; a form that overflows fails (`_gate`).
    """
    full = G.as_full()
    gates = [_gate(q, full, tol) for q in (q_form(G), q_form_adjoint(G))]
    if not all(lhs <= rhs for lhs, rhs in gates):
        raise NotUnitaryGeneratorError(
            "coefficient must satisfy q(G) = 0 and q(G*) = 0 to drive a unitary cocycle"
        )


def hp_coefficient_for_flow(fg: FlowGenerator) -> BlockCoefficient:
    """A unitary-type coefficient whose induced inner flow has generator fg.theta.

    Right inverse of `perturbations.from_hp_coefficient` modulo the l -> W*l gauge:
    K = i h - 1/2 l*l, L = W l, M = -l*, gauge part W.
    """
    return BlockCoefficient._unchecked(1j * fg.h - 0.5 * dag(fg.l) @ fg.l, fg.W @ fg.l, -dag(fg.l), fg.W)


@dataclass(frozen=True)
class StructureReport:
    """Residuals by structure relation, each passing at or below tol (1 + its scale)."""

    residuals: dict = field(default_factory=dict)
    tol: float = 1e-11
    scales: dict = field(default_factory=dict)

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0

    @property
    def passed(self) -> bool:
        return all(r <= self.tol * (1 + self.scales.get(k, 0.0)) for k, r in self.residuals.items())


def structure_defects(fg: FlowGenerator, tol: float) -> StructureReport:
    """Closed-form bounds on the structure residuals of fg over unit x and y.

    With E = I - WW*, pi(x*y) - pi(x)* pi(y) = W* (I (x) x*) E (I (x) y) W.  The delta
    residual is that term times l, the Ldb residual l* times it times l plus
    i (x* S y - S x* y), the theta residual [l, I]* times it times [l, I] plus that
    Ldb term, the real residual i (x* S - S x*) and theta(I) = [l, I]* E' [l, I].
    So, with e = ||E|| = ||E'|| (WW* and W*W have the same eigenvalues) and s = ||S||:

      pi_multiplicative     ||W||^2 e
      delta_derivation      ||W||^2 e ||l||
      lindblad_dissipation  ||W||^2 e ||l||^2 + 2 s
      theta_structure       ||W||^2 e (1 + ||l||^2) + 2 s
      unital                e (1 + ||l||^2)
      real                  2 s

    where 1 + ||l||^2 is ||[l, I]||^2 exactly.  Each relation's scale is its bound
    with e read as 1 and s as ||h||.  The five norms come from one batched SVD of
    W, E', S, h and l, each zero-padded to dn x dn, and E' and S are those the
    flow's gates formed.  Padding leaves the largest singular value unchanged in
    exact arithmetic; LAPACK's SVD of a padded h or l agrees with that of the
    matrix itself only to rounding, far below any tolerance these bounds meet.  A
    bound or scale that is not finite is a FloatingPointError naming its relation.
    """
    n, dn = fg.n, fg.l.shape[0]
    stack = np.zeros((5, dn, dn), dtype=complex)
    # finite: the gates of a FlowGenerator refuse an overflow
    stack[0], stack[1] = fg.W, fg._defects[1]
    stack[2, :n, :n], stack[3, :n, :n], stack[4, :, :n] = fg._defects[0], fg.h, fg.l
    # Python floats: a product that overflows is inf, and 0 * inf NaN, with no warning
    w, e, s, h, l = norm2_stack(stack).tolist()

    def terms(unitary: float, hermitian: float) -> dict:
        pi, lift = w * w * unitary, 1 + l * l
        return {"pi_multiplicative": pi, "delta_derivation": pi * l,
                "lindblad_dissipation": pi * (l * l) + 2 * hermitian, "theta_structure": pi * lift + 2 * hermitian,
                "unital": unitary * lift, "real": 2 * hermitian}

    bounds, scales = terms(e, s), terms(1.0, h)
    for key in bounds:
        require_finite([bounds[key], scales[key]], f"structure bound {key!r}")
    return StructureReport(residuals=bounds, tol=tol, scales=scales)


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

    theta is evaluated once on I, then on the stack (x, y, x*, x*y) of each
    chunk of trials, one row per distinct input, each call within
    linalg.CHUNK_ENTRIES (2^14) entries.  Each residual is the largest spectral
    norm over the trials, from one batched SVD per chunk.  A residual that is
    not finite (theta overflowed) is a FloatingPointError, not a numpy warning,
    before any SVD.
    """
    theta = as_theta_map(theta)
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    n, d = theta.n, theta.d
    # x and y, successive complex standard normal draws (re + i im) / sqrt(2)
    g = np.random.default_rng(seed).standard_normal((trials, 2, 2, n, n))
    draws = (g[:, :, 0] + 1j * g[:, :, 1]) / np.sqrt(2.0)
    delta_proj = delta_projection(n, d)
    keys = ("pi_multiplicative", "delta_derivation", "lindblad_dissipation", "theta_structure", "unital", "real")
    resid = dict.fromkeys(keys, 0.0)
    # theta's arithmetic may overflow: require_finite refuses the result, not numpy
    with np.errstate(over="ignore", invalid="ignore"):
        resid["unital"] = norm2(require_finite(theta(np.eye(n)), "structure residual 'unital'"))
        for c in chunks(trials, 4 * ((d + 1) * n) ** 2):
            x, y = draws[c, 0], draws[c, 1]
            xs = dag(x)
            xy = xs @ y
            # theta once per distinct input; every block is read off these four
            tx, ty, txs, txy = np.split(theta(np.concatenate([x, y, xs, xy])), 4)
            lx, dx, _, px = _components(tx, x, n, d)
            ly, dy, _, py = _components(ty, y, n, d)
            lxy, dxy, _, pxy = _components(txy, xy, n, d)
            txa, pxa = dag(tx), dag(px)
            diffs = {
                "pi_multiplicative": pxy - pxa @ py,
                "delta_derivation": dxy - txs[:, n:, :n] @ y - pxa @ dy,
                "lindblad_dissipation": lxy - dag(lx) @ y - xs @ ly - dag(dx) @ dy,
                "theta_structure": txy
                - txa @ ampliate(y, d)
                - dag(ampliate(x, d)) @ ty
                - txa @ delta_proj @ ty,
                "real": txs - txa,
            }
            for key, r in diffs.items():
                r = require_finite(r, f"structure residual {key!r}")
                resid[key] = float(norm2_stack(r).max(initial=resid[key]))
    return StructureReport(residuals=resid, tol=tol, scales=dict.fromkeys(keys, 0.0))

