"""Cocycle matrix elements between normalized exponential vectors.

For step functions f, g with values in C^d, the matrix element

    kappa_t(a) = E^{w(f_[0,t))} k_t(a) E_{w(g_[0,t))}

of a Markov-regular cocycle with stochastic generator phi is evaluated
exactly by refining [0, t) into the common partition of f and g and
composing one-interval semigroups:  on an interval of length s with values
(c, d), the one-interval generator is

    tau_{c,d}(x) = E^{c-hat} phi(x) E_{d-hat} - chi(c, d) x,
    chi(c, d)    = (||c||^2 + ||d||^2)/2 - <c, d>,

with c-hat = (1, c) and compressions E_{d-hat} = d-hat (x) I_n.  Inner
products are linear in the second argument.  phi is linear and fixed, so
tau_{c,d} = sum conj(c-hat_mu) d-hat_nu Phi^{mu nu} - chi(c, d) I is a linear
combination of phi's block superoperators Phi^{mu nu}.  A call takes either
phi, whose blocks it assembles once (n^2 evaluations of phi, whatever the
number of intervals), or the blocks themselves: for a flow driven by G they
are read off G (+) F_i in closed form (`perturbations.composed_blocks`), as
`qfk matelem` does once for the element and its residual.  A call forms tau
and its exponential once per distinct (c, d, interval length), in one stacked
pass: a searchsorted per step function reads every interval's values, one
dict over the bits of each interval's (c, d, length) finds the distinct
triples in order of first occurrence, one product with the blocks forms
their taus, and one `linalg.expm_stack` call exponentiates that stack (slice
by slice, so the order of the slices changes no bit of the result).  The
element applies that stack to vec(a) as a chain of matrix-vector products.
`stack_size` counts that stack's slices ahead of the call, for a memory
reservation.  Earlier intervals compose outermost, as in the weak cocycle
relation

    kappa_{r+t}^{f,g} = kappa_r^{f,g} o kappa_t^{S_r* f, S_r* g},

which at finite dimension is an equality of two n^2 x n^2 superoperators:
the verifier multiplies each side's slices into one and compares them in
the spectral norm, the supremum over every observable, with no random draw.

w(f) denotes the normalized exponential vector exp(-||f||^2 / 2) e(f), so
the trivial cocycle gives <w(f_[0,t)), w(g_[0,t))> = exp(-t chi(c, d)) on a
single interval -- the convention-fixing bootstrap identity.

Breakpoints are held internally as integer multiples of the tick 2^-20;
floats are rounded on ingestion, making partition refinement and lateral
shifts exact.  Step functions vanish beyond their last breakpoint.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .flows import as_theta_map
from .linalg import DimensionMismatchError, expm_stack, norm2_stack
from .perturbations import Superoperator, block_superoperators, unvec, vec

TICK = 2.0 ** -20
# 2^63 ticks: the times whose tick counts fit the int64 breakpoint arrays
TIME_LIMIT = 2.0 ** 43


def to_ticks(t: float) -> int:
    """t in whole ticks, rounded; t must be finite, nonnegative and below 2^63
    ticks (about 8.8e12), so that tick counts fit the int64 breakpoint arrays."""
    if not 0 <= t < TIME_LIMIT:  # also false for nan
        raise ValueError(f"time must be finite, nonnegative and below 2^63 ticks, got {t}")
    return int(round(t / TICK))


def _chi(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """chi of each pair of rows of c and d, each inner product as np.vdot forms it."""
    cc, dd, cd = (x.conj()[:, None, :] @ y[:, :, None] for x, y in ((c, c), (d, d), (c, d)))
    return (0.5 * (cc.real + dd.real) - cd)[:, 0, 0]


def chi(c: np.ndarray, d: np.ndarray) -> complex:
    """chi(c, d) = (||c||^2 + ||d||^2)/2 - <c, d>, <.,.> linear in the second slot."""
    c = np.asarray(c, dtype=complex).reshape(-1)
    d = np.asarray(d, dtype=complex).reshape(-1)
    if c.shape != d.shape:
        raise DimensionMismatchError(f"vectors differ in dimension: {c.shape} vs {d.shape}")
    return complex(_chi(c[None], d[None])[0])


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Right-continuous step function [0, inf) -> C^d with finite support.

    ticks: increasing integer breakpoints (tick units), starting at 0.
    values: row i is the value on [ticks[i], ticks[i+1]); zero beyond.
    """

    ticks: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ticks, values = _steps(self.ticks, self.values)
        if not np.isfinite(values).all():
            raise ValueError("step function values must be finite")
        object.__setattr__(self, "ticks", ticks)
        object.__setattr__(self, "values", values)

    @classmethod
    def _unchecked(cls, ticks, values) -> "StepFunction":
        """The step function of ticks and values that pass `__post_init__`, built past its checks."""
        f = object.__new__(cls)
        f.__dict__.update(ticks=ticks, values=values)
        return f

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def breakpoints(self) -> np.ndarray:
        """Breakpoints in time units (exact: ticks times a power of two)."""
        return self.ticks * TICK

    @classmethod
    def from_breakpoints(cls, breakpoints, values) -> "StepFunction":
        """Breakpoints in time units, rounded as to_ticks rounds each (`_breakpoint_ticks`)."""
        return cls(ticks=_breakpoint_ticks(breakpoints), values=values)

    @classmethod
    def constant(cls, value, horizon: float) -> "StepFunction":
        value = np.asarray(value, dtype=complex).reshape(1, -1)
        return cls(ticks=np.asarray([0, to_ticks(horizon)], dtype=np.int64), values=value)

    @classmethod
    def zero(cls, d: int) -> "StepFunction":
        """Zero on all of [0, inf): no breakpoint past 0, so it cuts no interval at any t."""
        return cls(ticks=np.zeros(1, dtype=np.int64), values=np.zeros((0, d), dtype=complex))

    def values_at(self, ticks: np.ndarray) -> np.ndarray:
        """Values at nonnegative int64 ticks, one row each (zero beyond the last breakpoint)."""
        padded = np.concatenate((self.values, np.zeros((1, self.d), dtype=complex)))
        return padded[np.searchsorted(self.ticks, ticks, side="right") - 1]

    def value_at_tick(self, tick: int) -> np.ndarray:
        """Value at time tick * TICK (zero beyond the last breakpoint)."""
        if tick < 0:
            raise ValueError("negative time")
        return self.values_at(np.asarray([tick], dtype=np.int64))[0]

    def shifted(self, r: float) -> "StepFunction":
        """(S_r* f)(u) = f(u + r)."""
        r_tick = to_ticks(r)
        cuts = np.concatenate(([0], self.ticks[self.ticks > r_tick] - r_tick))
        if cuts.size == 1:
            return StepFunction.zero(self.d)
        return StepFunction(ticks=cuts, values=self.values_at(cuts[:-1] + r_tick))


def _steps(ticks, values) -> tuple[np.ndarray, np.ndarray]:
    """(ticks, values) as int64 and complex arrays, checked to form a step function;
    whether the values are finite is the caller's to check."""
    ticks, values = np.asarray(ticks, dtype=np.int64), np.asarray(values, dtype=complex)
    if values.ndim != 2:
        raise DimensionMismatchError("values must be a 2-d array (intervals x d)")
    if ticks.ndim != 1 or ticks.size != values.shape[0] + 1:
        raise DimensionMismatchError(
            f"need one more breakpoint than values, got {ticks.size} and {values.shape[0]}"
        )
    if ticks[0] != 0 or np.any(np.diff(ticks) <= 0):
        raise ValueError("breakpoints must start at 0 and increase strictly")
    if values.shape[1] < 1:
        raise DimensionMismatchError("noise dimension d must be >= 1")
    return ticks, values


def _breakpoint_ticks(breakpoints) -> np.ndarray:
    """Breakpoints in time units as int64 ticks, each rounded as to_ticks rounds it
    (np.rint ties to even, as round() does); one outside its range is a ValueError
    naming its index."""
    times = np.asarray(breakpoints, dtype=float)
    inside = (0 <= times) & (times < TIME_LIMIT)
    if not inside.all():
        k = int(inside.argmin())
        try:
            to_ticks(times.flat[k])
        except ValueError as exc:  # to_ticks's range message, at its place
            raise ValueError(f"{exc} at breakpoint {k}") from None
    return np.rint(times / TICK).astype(np.int64)


def _intervals(f: StepFunction, g: StepFunction, lo: int, hi: int):
    """(c, d, length) of the common refinement of [lo, hi) ticks by f and g: on
    interval i, in increasing order, f is c[i], g is d[i] and its length in ticks length[i]."""
    ticks = np.concatenate((f.ticks, g.ticks))
    cuts = np.unique(np.concatenate(([lo, hi], ticks[(ticks > lo) & (ticks < hi)])))
    return f.values_at(cuts[:-1]), g.values_at(cuts[:-1]), np.diff(cuts)


def exponential_inner_product(f: StepFunction, g: StepFunction, t: float) -> complex:
    """<w(f_[0,t)), w(g_[0,t))> = exp(-integral of chi(f, g) over [0, t))."""
    if f.d != g.d:
        raise DimensionMismatchError("step functions differ in noise dimension")
    c, d, length = _intervals(f, g, 0, to_ticks(t))
    return complex(np.exp(-np.sum(length * TICK * _chi(c, d))))


def _taus(n: int, blocks: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """(k, n^2, n^2) stack of tau_{c_i, d_i} = sum conj(c-hat_mu) d-hat_nu Phi^{mu nu}
    - chi I for the k rows of c and d: the s^2 = (d+1)^2 blocks times each weight row."""
    k, s, m = c.shape[0], c.shape[1] + 1, n * n
    chat, dhat = (np.hstack((np.ones((k, 1)), x)) for x in (c, d))
    weights = (chat.conj()[:, :, None] * dhat[:, None, :]).reshape(k, s * s, 1)
    taus = (blocks.reshape(s * s, m * m).T @ weights).reshape(k, m * m)
    taus[:, :: m + 1] -= _chi(c, d)[:, None]
    return taus.reshape(k, m, m)


def tau_generator(phi, c, d) -> Superoperator:
    """One-interval generator tau_{c,d}(x) = E^{c-hat} phi(x) E_{d-hat} - chi(c,d) x.

    Formed as the linear combination sum conj(c-hat_mu) d-hat_nu Phi^{mu nu}
    - chi(c, d) I of phi's block superoperators, by the builder that
    `cocycle_matrix_element` applies to all of its intervals at once.  Each
    call assembles the blocks anew.
    """
    c = np.asarray(c, dtype=complex).reshape(1, -1)
    d = np.asarray(d, dtype=complex).reshape(1, -1)
    n, blocks = _assemble(phi, c.shape[1], d.shape[1])
    return Superoperator(n=n, mat=_taus(n, blocks, c, d)[0])


def _assemble(phi, *dims: int) -> tuple[int, np.ndarray]:
    """(n, block superoperators) of phi, a phi-like map or its (d+1, d+1, n^2, n^2)
    blocks themselves, once every noise dimension in dims matches phi's."""
    if isinstance(phi, np.ndarray):
        s = phi.shape[0] if phi.ndim == 4 else 0
        n = math.isqrt(phi.shape[-1]) if s else 0
        if s < 2 or phi.shape != (s, s, n * n, n * n):
            raise DimensionMismatchError(f"blocks must have shape (d+1, d+1, n^2, n^2), got {phi.shape}")
        d, blocks = s - 1, phi
    else:
        phi = as_theta_map(phi)
        n, d, blocks = phi.n, phi.d, None
    if any(dim != d for dim in dims):
        raise DimensionMismatchError(f"noise dimensions {dims} must match the noise dimension {d}")
    return n, block_superoperators(phi) if blocks is None else blocks


def _distinct(c, d, length) -> tuple[list, np.ndarray]:
    """(first, index): the first row of each distinct row of (c, d, length) by its
    bits, in order of first occurrence, and the distinct row of each row."""
    keys = np.hstack((c.view(np.int64), d.view(np.int64), length[:, None]))
    slots: dict[bytes, int] = {}  # a row's bits -> its slice
    first, index = [], []  # the first row of each slice; the slice of each row
    for i, row in enumerate(keys.view(f"V{keys.shape[1] * 8}").ravel().tolist()):
        k = slots.setdefault(row, len(first))
        if k == len(first):
            first.append(i)
        index.append(k)
    return first, np.array(index, dtype=np.intp)


def _semigroups(n: int, blocks: np.ndarray, c, d, length) -> tuple[np.ndarray, np.ndarray]:
    """(stack, index): exp(length TICK tau_{c,d}) from one expm_stack call, one slice
    per distinct row of (c, d, length) (`_distinct`), and the slice of each row."""
    first, index = _distinct(c, d, length)
    taus = _taus(n, blocks, c[first], d[first])
    taus *= (length[first] * TICK)[:, None, None]
    return expm_stack(taus), index


def _cocycle_parts(f: StepFunction, g: StepFunction, r: float, t: float) -> list:
    """The partitions of the weak cocycle identity: [0, r + t) and [0, r) by f and g,
    and [0, t) by their shifts by r."""
    fs, gs = f.shifted(r), g.shifted(r)
    return [_intervals(f, g, 0, to_ticks(r + t)), _intervals(f, g, 0, to_ticks(r)),
            _intervals(fs, gs, 0, to_ticks(t))]


def stack_size(f: StepFunction, g: StepFunction, t: float, r: float | None = None) -> int:
    """Slices of the one stacked exponential of cocycle_matrix_element over [0, t)
    (r None), or of verify_cocycle_identity split at r, over [0, r + t), [0, r) and
    the shifted [0, t) together: their distinct (c, d, interval length)."""
    parts = [_intervals(f, g, 0, to_ticks(t))] if r is None else _cocycle_parts(f, g, r, t)
    return len(_distinct(*(np.concatenate(rows) for rows in zip(*parts)))[0])


def _compose(n: int, semigroups: np.ndarray, index: np.ndarray, a) -> np.ndarray:
    """unvec(S[index[0]] ... S[index[-1]] vec(a)): earlier intervals act outermost."""
    if np.shape(a) != (n, n):
        raise DimensionMismatchError(f"expected {n} x {n}, got {np.shape(a)}")
    v = vec(a)
    for i in index[::-1].tolist():
        v = semigroups[i] @ v
    return unvec(v, n)


def cocycle_matrix_element(phi, f: StepFunction, g: StepFunction, t: float, a: np.ndarray) -> np.ndarray:
    """kappa_t^{f,g}(a), composing one-interval semigroups over the common partition;
    phi is a phi-like map or its blocks (`_assemble`)."""
    c, d, length = _intervals(f, g, 0, to_ticks(t))
    n, blocks = _assemble(phi, f.d, g.d)
    return _compose(n, *_semigroups(n, blocks, c, d, length), a)


def _product(semigroups: np.ndarray, index: np.ndarray) -> np.ndarray:
    """S[index[0]] ... S[index[-1]], the superoperator of a partition (I if empty)."""
    factors = [semigroups[i] for i in index.tolist()]
    return functools.reduce(np.matmul, factors) if factors else np.eye(semigroups.shape[-1], dtype=complex)


def verify_cocycle_identity(phi, f: StepFunction, g: StepFunction, r: float, t: float) -> dict:
    """Residual of kappa_{r+t}^{f,g} = kappa_r^{f,g} o kappa_t^{S_r*f, S_r*g} over
    every observable, and its scale: ||W - H T||_2 and max(||W||_2, ||H T||_2).

    W, H and T are the superoperators of the whole [0, r + t), the head [0, r)
    and the shifted tail [0, t), each the product of its partition's slices of
    one stacked exponential, a slice per distinct (c, d, interval length) of
    the three partitions together; phi is a phi-like map or its blocks
    (`_assemble`).  The residual bounds ||kappa_{r+t}(a) - kappa_r(kappa_t(a))||_F
    / ||a||_F for every a, and the three norms are one batched SVD.
    """
    n, blocks = _assemble(phi, f.d, g.d)
    parts = _cocycle_parts(f, g, r, t)
    c, d, length = (np.concatenate(rows) for rows in zip(*parts))
    semigroups, index = _semigroups(n, blocks, c, d, length)
    whole, head, tail = (_product(semigroups, i)
                         for i in np.split(index, np.cumsum([p[2].size for p in parts[:2]])))
    split = head @ tail
    residual, *sides = norm2_stack(np.stack((whole - split, whole, split)))
    return {"max_residual": float(residual), "scale": float(max(sides)), "r": r, "t": t}
