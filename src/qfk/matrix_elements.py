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
by slice, so the order of the slices changes no bit of the result), which
acts on vec(a) as a chain of matrix-vector products.  `stack_size` counts
that stack's slices ahead of the call, for a memory reservation.  Earlier
intervals compose outermost, as in the weak cocycle relation

    kappa_{r+t}^{f,g} = kappa_r^{f,g} o kappa_t^{S_r* f, S_r* g}.

w(f) denotes the normalized exponential vector exp(-||f||^2 / 2) e(f), so
the trivial cocycle gives <w(f_[0,t)), w(g_[0,t))> = exp(-t chi(c, d)) on a
single interval -- the convention-fixing bootstrap identity.

Breakpoints are held internally as integer multiples of the tick 2^-20;
floats are rounded on ingestion, making partition refinement and lateral
shifts exact.  Step functions vanish beyond their last breakpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import _require_keys
from .flows import as_theta_map
from .linalg import DimensionMismatchError, complex_randn, expm_stack, max_norm2
from .perturbations import Superoperator, block_superoperators, unvec, vec

TICK = 2.0 ** -20
# 2^63 ticks: the times whose tick counts fit the int64 breakpoint arrays
_TIME_LIMIT = 2.0 ** 43


def to_ticks(t: float) -> int:
    """t in whole ticks, rounded; t must be finite, nonnegative and below 2^63
    ticks (about 8.8e12), so that tick counts fit the int64 breakpoint arrays."""
    if not 0 <= t < _TIME_LIMIT:  # also false for nan
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
        if not np.isfinite(values).all():
            raise ValueError("step function values must be finite")
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
            return StepFunction.zero(self.d, TICK)
        return StepFunction(ticks=cuts, values=self.values_at(cuts[:-1] + r_tick))


def _intervals(f: StepFunction, g: StepFunction, lo: int, hi: int):
    """(c, d, length) of the common refinement of [lo, hi) ticks by f and g: on
    interval i, in increasing order, f is c[i], g is d[i] and its length in ticks length[i]."""
    ticks = np.concatenate((f.ticks, g.ticks))
    cuts = np.unique(np.concatenate(([lo, hi], ticks[(ticks > lo) & (ticks < hi)])))
    return f.values_at(cuts[:-1]), g.values_at(cuts[:-1]), np.diff(cuts)


def _inner_product(f: StepFunction, g: StepFunction, lo: int, hi: int) -> complex:
    """exp(-integral of chi(f, g) over [lo, hi) ticks)."""
    if f.d != g.d:
        raise DimensionMismatchError("step functions differ in noise dimension")
    c, d, length = _intervals(f, g, lo, hi)
    return complex(np.exp(-np.sum(length * TICK * _chi(c, d))))


def exponential_inner_product(f: StepFunction, g: StepFunction, t: float) -> complex:
    """<w(f_[0,t)), w(g_[0,t))> = exp(-integral of chi(f, g) over [0, t))."""
    return _inner_product(f, g, 0, to_ticks(t))


def tail_inner_product(f: StepFunction, g: StepFunction, t: float) -> complex:
    """<w(f_[t,inf)), w(g_[t,inf))>, finite since step functions vanish eventually.

    Matrix elements here always use restrictions to [0, t); callers wanting
    full-line exponential vectors multiply by this tail factor themselves.
    """
    t_tick = to_ticks(t)
    return _inner_product(f, g, t_tick, max(int(f.ticks[-1]), int(g.ticks[-1]), t_tick))


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


def verify_cocycle_identity(
    phi,
    f: StepFunction,
    g: StepFunction,
    r: float,
    t: float,
    trials: int = 10,
    seed: int = 0,
) -> dict:
    """Max residual of kappa_{r+t}^{f,g} = kappa_r^{f,g} o kappa_t^{S_r*f, S_r*g},
    and its scale: the largest spectral norm of the two sides, over the trials.

    phi is a phi-like map or its blocks (`_assemble`).  All 3 x trials
    compositions share one set of blocks and one stacked exponential, with a
    slice per distinct (c, d, interval length) of the whole, head and tail
    partitions together; each max over trials is one max_norm2 over a stack.
    """
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    n, blocks = _assemble(phi, f.d, g.d)
    rng = np.random.default_rng(seed)
    parts = _cocycle_parts(f, g, r, t)
    c, d, length = (np.concatenate(rows) for rows in zip(*parts))
    semigroups, index = _semigroups(n, blocks, c, d, length)
    whole, head, tail = np.split(index, np.cumsum([p[2].size for p in parts[:2]]))
    sides = np.empty((2, trials, n, n), dtype=complex)
    for k in range(trials):
        a = complex_randn(rng, n, n)
        sides[0, k] = _compose(n, semigroups, whole, a)
        sides[1, k] = _compose(n, semigroups, head, _compose(n, semigroups, tail, a))
    return {"max_residual": max_norm2(sides[0] - sides[1]), "scale": max_norm2(sides.reshape(-1, n, n)),
            "trials": trials, "r": r, "t": t, "seed": seed}


# --- JSON wire format -------------------------------------------------------

def stepfunction_to_json(f: StepFunction) -> dict:
    return {
        "breakpoints": [float(b) for b in f.breakpoints],
        "values": [[[float(v.real), float(v.imag)] for v in row] for row in f.values],
    }


def _numbers(items, ndim: int) -> np.ndarray | None:
    """items as one float array, or None unless they are a regular ndim-dimensional
    array of plain numbers (bools read as 0.0 and 1.0, as float() reads them)."""
    try:
        arr = np.array(items)
    except (ValueError, TypeError, OverflowError):  # ragged, or nothing numpy holds
        return None
    return arr.astype(float, copy=False) if arr.dtype.kind in "biuf" and arr.ndim == ndim else None


def _step_arrays(obj: dict) -> tuple[np.ndarray, np.ndarray] | None:
    """(ticks, values) of a wire-format step function from one array conversion and
    one check each, or None unless its values are a regular array of [re, im]
    pairs and its breakpoints a list of numbers in to_ticks's range.

    Bit for bit the per-item parse: complex(re, im) keeps both parts as they are,
    and np.rint rounds half-tick ties to even, as round() does in to_ticks.
    """
    values = _numbers(obj["values"], 3)
    if values is None or values.shape[2] != 2:
        return None
    breakpoints = _numbers(obj["breakpoints"], 1)
    if breakpoints is None or not ((0 <= breakpoints) & (breakpoints < _TIME_LIMIT)).all():
        return None
    return np.rint(breakpoints / TICK).astype(np.int64), values.view(complex)[..., 0]


def stepfunction_from_json(obj: dict) -> StepFunction:
    """The step function of its wire form: from `_step_arrays` when they read it,
    otherwise by the per-item parse, which raises the first malformed item's error."""
    arrays = _step_arrays(obj)
    _require_keys(obj, ("breakpoints", "values"))
    if arrays is not None:
        return StepFunction(*arrays)
    values = [[complex(p[0], p[1]) for p in row] for row in obj["values"]]
    # a short item or a bare number has raised its own error above
    bad = [p for row in obj["values"] for p in row if len(p) != 2]
    if bad:
        raise ValueError(f"expected an [re, im] pair, got {bad[0]!r}")
    return StepFunction.from_breakpoints(obj["breakpoints"], values)
