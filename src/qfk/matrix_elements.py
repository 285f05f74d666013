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
combination of phi's block superoperators Phi^{mu nu}: each call assembles
those blocks once (n^2 evaluations of phi, whatever the number of
intervals), and forms tau and its exponential once per distinct (c, d,
interval length) of the call.  Earlier intervals compose outermost, matching
the weak cocycle relation

    kappa_{r+t}^{f,g} = kappa_r^{f,g} o kappa_t^{S_r* f, S_r* g}.

w(f) denotes the normalized exponential vector exp(-||f||^2 / 2) e(f), so
the trivial cocycle gives <w(f_[0,t)), w(g_[0,t))> = exp(-t chi(c, d)) on a
single interval -- the convention-fixing bootstrap identity.

Breakpoints are held internally as integer multiples of the tick 2^-20;
floats are rounded on ingestion, making partition refinement and lateral
shifts exact.  Step functions vanish beyond their last breakpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flows import as_theta_map
from .linalg import DimensionMismatchError, complex_randn, norm2
from .perturbations import Superoperator, block_superoperators, semigroup_at

TICK = 2.0 ** -20


def to_ticks(t: float) -> int:
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    return int(round(t / TICK))


def chi(c: np.ndarray, d: np.ndarray) -> complex:
    """chi(c, d) = (||c||^2 + ||d||^2)/2 - <c, d>, <.,.> linear in the second slot."""
    c = np.asarray(c, dtype=complex).reshape(-1)
    d = np.asarray(d, dtype=complex).reshape(-1)
    if c.shape != d.shape:
        raise DimensionMismatchError(f"vectors differ in dimension: {c.shape} vs {d.shape}")
    return complex(0.5 * (np.vdot(c, c).real + np.vdot(d, d).real) - np.vdot(c, d))


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Right-continuous step function [0, inf) -> C^d with finite support.

    ticks: increasing integer breakpoints (tick units), starting at 0.
    values: row i is the value on [ticks[i], ticks[i+1]); zero beyond.
    """

    ticks: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ticks = np.asarray(self.ticks, dtype=np.int64)
        values = np.asarray(self.values, dtype=complex)
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
        object.__setattr__(self, "ticks", ticks)
        object.__setattr__(self, "values", values)

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def breakpoints(self) -> np.ndarray:
        """Breakpoints in time units (exact: ticks times a power of two)."""
        return self.ticks * TICK

    @classmethod
    def from_breakpoints(cls, breakpoints, values) -> "StepFunction":
        bp = [to_ticks(t) for t in breakpoints]
        return cls(ticks=np.asarray(bp, dtype=np.int64), values=np.asarray(values, dtype=complex))

    @classmethod
    def constant(cls, value, horizon: float) -> "StepFunction":
        value = np.asarray(value, dtype=complex).reshape(1, -1)
        return cls(ticks=np.asarray([0, to_ticks(horizon)], dtype=np.int64), values=value)

    @classmethod
    def zero(cls, d: int, horizon: float = 1.0) -> "StepFunction":
        return cls.constant(np.zeros(d), horizon)

    def value_at_tick(self, tick: int) -> np.ndarray:
        """Value at time tick * TICK (zero beyond the last breakpoint)."""
        if tick < 0:
            raise ValueError("negative time")
        idx = int(np.searchsorted(self.ticks, tick, side="right")) - 1
        if idx >= self.values.shape[0]:
            return np.zeros(self.d, dtype=complex)
        return self.values[idx]

    def shifted(self, r: float) -> "StepFunction":
        """(S_r* f)(u) = f(u + r)."""
        r_tick = to_ticks(r)
        cuts = [0] + [int(b) - r_tick for b in self.ticks if b > r_tick]
        if len(cuts) == 1:
            return StepFunction.zero(self.d, TICK)
        vals = [self.value_at_tick(c + r_tick) for c in cuts[:-1]]
        return StepFunction(
            ticks=np.asarray(cuts, dtype=np.int64), values=np.asarray(vals, dtype=complex)
        )


def _partition(f: StepFunction, g: StepFunction, t_tick: int) -> list[tuple[int, int]]:
    """Common refinement of [0, t) by the breakpoints of f and g."""
    cuts = {0, t_tick}
    for sf in (f, g):
        cuts.update(int(b) for b in sf.ticks if 0 < b < t_tick)
    cuts = sorted(cuts)
    return list(zip(cuts[:-1], cuts[1:]))


def exponential_inner_product(f: StepFunction, g: StepFunction, t: float) -> complex:
    """<w(f_[0,t)), w(g_[0,t))> = exp(-integral of chi(f, g) over [0, t))."""
    if f.d != g.d:
        raise DimensionMismatchError("step functions differ in noise dimension")
    total = 0.0 + 0.0j
    for a, b in _partition(f, g, to_ticks(t)):
        total += (b - a) * TICK * chi(f.value_at_tick(a), g.value_at_tick(a))
    return complex(np.exp(-total))


def tail_inner_product(f: StepFunction, g: StepFunction, t: float) -> complex:
    """<w(f_[t,inf)), w(g_[t,inf))>, finite since step functions vanish eventually.

    Matrix elements here always use restrictions to [0, t); callers wanting
    full-line exponential vectors multiply by this tail factor themselves.
    """
    if f.d != g.d:
        raise DimensionMismatchError("step functions differ in noise dimension")
    t_tick = to_ticks(t)
    end = max(int(f.ticks[-1]), int(g.ticks[-1]), t_tick)
    cuts = sorted(
        {t_tick, end}
        | {int(b) for sf in (f, g) for b in sf.ticks if t_tick < int(b) < end}
    )
    total = 0.0 + 0.0j
    for a, b in zip(cuts[:-1], cuts[1:]):
        total += (b - a) * TICK * chi(f.value_at_tick(a), g.value_at_tick(a))
    return complex(np.exp(-total))


def _tau(n: int, blocks: np.ndarray, c: np.ndarray, d: np.ndarray) -> Superoperator:
    """tau_{c,d} = sum conj(c-hat_mu) d-hat_nu Phi^{mu nu} - chi(c, d) I from phi's blocks."""
    chat = np.concatenate(([1.0 + 0.0j], c))
    dhat = np.concatenate(([1.0 + 0.0j], d))
    weights = np.outer(chat.conj(), dhat)
    return Superoperator(
        n=n, mat=np.tensordot(weights, blocks, axes=2) - chi(c, d) * np.eye(n * n)
    )


def tau_generator(phi, c, d) -> Superoperator:
    """One-interval generator tau_{c,d}(x) = E^{c-hat} phi(x) E_{d-hat} - chi(c,d) x.

    Formed as the linear combination sum conj(c-hat_mu) d-hat_nu Phi^{mu nu}
    - chi(c, d) I of phi's block superoperators.  Each call assembles the
    blocks anew; `cocycle_matrix_element` assembles them once per call and
    reuses them, and each exponential, for every interval.
    """
    phi = as_theta_map(phi)
    c = np.asarray(c, dtype=complex).reshape(-1)
    d = np.asarray(d, dtype=complex).reshape(-1)
    if c.size != phi.d or d.size != phi.d:
        raise DimensionMismatchError(
            f"vector dimension must match the noise dimension {phi.d}"
        )
    return _tau(phi.n, block_superoperators(phi), c, d)


def _assemble(phi, f: StepFunction, g: StepFunction) -> tuple[int, np.ndarray]:
    """(n, block superoperators of phi), once f and g match its noise dimension."""
    phi = as_theta_map(phi)
    if f.d != phi.d or g.d != phi.d:
        raise DimensionMismatchError("step functions must match the noise dimension")
    return phi.n, block_superoperators(phi)


def _compose(
    n: int, blocks: np.ndarray, f: StepFunction, g: StepFunction, intervals, a, semigroups: dict
) -> np.ndarray:
    """Normalized kappa^{f,g}(a) over intervals, the partition of [0, t) by f and g.

    semigroups maps (c, d, interval length in ticks) to exp(s tau_{c,d}) and
    is filled on a miss, so equal intervals share one exponential.
    """
    out = np.asarray(a, dtype=complex)
    for lo, hi in reversed(intervals):  # later intervals act innermost
        c, d = f.value_at_tick(lo), g.value_at_tick(lo)
        key = (c.tobytes(), d.tobytes(), hi - lo)
        if key not in semigroups:
            semigroups[key] = semigroup_at(_tau(n, blocks, c, d), (hi - lo) * TICK)
        out = semigroups[key].apply(out)
    return out


def cocycle_matrix_element(
    phi,
    f: StepFunction,
    g: StepFunction,
    t: float,
    a: np.ndarray,
    normalized: bool = True,
):
    """kappa_t^{f,g}(a), composing one-interval semigroups over the common partition.

    With normalized=False, returns (kappa, log_scale) where multiplying by
    exp(log_scale) converts to unnormalized exponential-vector matrix
    elements; the factor is returned in log form to avoid overflow.
    """
    intervals = _partition(f, g, to_ticks(t))
    n, blocks = _assemble(phi, f, g)
    out = _compose(n, blocks, f, g, intervals, a, {})
    if normalized:
        return out
    log_scale = 0.0
    for lo, hi in intervals:
        c = f.value_at_tick(lo)
        d = g.value_at_tick(lo)
        log_scale += 0.5 * (hi - lo) * TICK * (np.vdot(c, c).real + np.vdot(d, d).real)
    return out, log_scale


def verify_cocycle_identity(
    phi,
    f: StepFunction,
    g: StepFunction,
    r: float,
    t: float,
    trials: int = 10,
    seed: int = 0,
) -> dict:
    """Max residual of kappa_{r+t}^{f,g} = kappa_r^{f,g} o kappa_t^{S_r*f, S_r*g}.

    All 3 x trials compositions share one block assembly of phi and one
    exponential per distinct (c, d, interval length).
    """
    n, blocks = _assemble(phi, f, g)
    rng = np.random.default_rng(seed)
    fs, gs = f.shifted(r), g.shifted(r)
    whole = _partition(f, g, to_ticks(r + t))
    head = _partition(f, g, to_ticks(r))
    tail = _partition(fs, gs, to_ticks(t))
    semigroups = {}
    worst = 0.0
    for _ in range(trials):
        a = complex_randn(rng, n, n)
        lhs = _compose(n, blocks, f, g, whole, a, semigroups)
        inner = _compose(n, blocks, fs, gs, tail, a, semigroups)
        rhs = _compose(n, blocks, f, g, head, inner, semigroups)
        worst = max(worst, norm2(lhs - rhs))
    return {"max_residual": worst, "trials": trials, "r": r, "t": t, "seed": seed}


# --- JSON wire format -------------------------------------------------------

def stepfunction_to_json(f: StepFunction) -> dict:
    return {
        "breakpoints": [float(b) for b in f.breakpoints],
        "values": [[[float(v.real), float(v.imag)] for v in row] for row in f.values],
    }


def stepfunction_from_json(obj: dict) -> StepFunction:
    values = [
        [complex(p[0], p[1]) for p in row] for row in obj["values"]
    ]
    return StepFunction.from_breakpoints(obj["breakpoints"], values)
