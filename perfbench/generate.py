"""Seeded instance material for the benchmark workloads.

Everything here is built from a ``numpy.random.Generator`` so that one seed
fixes every matrix.  The constructions decide the classes by design: the
checks in ``reference.py`` compare the program's verdicts with the class a
matrix was built to have, never with an earlier output of the program.

Block layout follows the instance format: a coefficient on
C^n (+) (C^d (x) C^n) has blocks K (n x n), L (dn x n), M (n x dn), W (dn x dn),
noise corner ordered noise-first.  Matrices go to JSON as flat row-major
lists of [re, im] pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# --- random matrices --------------------------------------------------------

def randn(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def hermitian(rng, k, scale=1.0):
    a = randn(rng, k, k)
    return scale * (a + a.conj().T) / 2.0


def unitary(rng, k):
    q, r = np.linalg.qr(randn(rng, k, k))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def with_singular_values(rng, k, top, low):
    """U diag(s) V* with s spread over [low, top] and max(s) = top exactly."""
    s = np.sort(rng.uniform(low, top, k))[::-1]
    s[0] = top
    return (unitary(rng, k) * s) @ unitary(rng, k).conj().T


def positive(rng, k, floor):
    """A positive definite matrix with every eigenvalue >= floor."""
    a = randn(rng, k, k) / np.sqrt(k)
    return a @ a.conj().T + floor * np.eye(k)


def dag(x):
    return x.conj().T


# --- coefficients ------------------------------------------------------------

@dataclass(frozen=True)
class Coefficient:
    K: np.ndarray
    L: np.ndarray
    M: np.ndarray
    W: np.ndarray

    @property
    def n(self):
        return self.K.shape[0]

    @property
    def d(self):
        return self.L.shape[0] // self.K.shape[0]


def coefficient(rng, n, d, cls, scale=0.6) -> Coefficient:
    """A coefficient of the named class, by construction.

    isometric:        W unitary, M = -L*W, K = ih - L*L/2, so q(F) = 0.
    contractive:      ||W|| <= 0.8 and K chosen so that the generalized Schur
                      complement A + B C^-1 B* equals -2P with P >= 0.1, so
                      q(F) <= 0 strictly and beta_min = -2 lambda_min(P).
    quasicontractive: ||W|| in [0.97, 0.99], Re K >= 0.5 so q(F) has a
                      positive direction and beta_min > 0 is finite.
    infeasible:       ||W|| in [1.1, 1.3], so no finite shift exists.
    """
    dn = d * n
    L = scale * randn(rng, dn, n)
    h = hermitian(rng, n, scale)
    if cls == "isometric":
        W = unitary(rng, dn)
        return Coefficient(K=1j * h - 0.5 * dag(L) @ L, L=L, M=-dag(L) @ W, W=W)
    M = scale * randn(rng, n, dn)
    if cls == "contractive":
        W = with_singular_values(rng, dn, 0.8, 0.2)
        B = dag(L) @ W + M
        schur = B @ np.linalg.solve(np.eye(dn) - dag(W) @ W, dag(B))
        P = positive(rng, n, 0.1)
        K = 1j * h - 0.5 * (dag(L) @ L + schur) - P
        return Coefficient(K=K, L=L, M=M, W=W)
    if cls == "quasicontractive":
        W = with_singular_values(rng, dn, rng.uniform(0.97, 0.99), 0.3)
        K = 1j * h + positive(rng, n, 0.5)
        return Coefficient(K=K, L=L, M=M, W=W)
    if cls == "infeasible":
        W = with_singular_values(rng, dn, rng.uniform(1.1, 1.3), 0.3)
        return Coefficient(K=1j * h + randn(rng, n, n) * scale, L=L, M=M, W=W)
    raise ValueError(f"unknown coefficient class {cls!r}")


def zero_coefficient(n, d) -> Coefficient:
    dn = d * n
    z = np.zeros
    return Coefficient(
        K=z((n, n), complex), L=z((dn, n), complex), M=z((n, dn), complex),
        W=np.eye(dn, dtype=complex),
    )


def gauge_free(k, l) -> Coefficient:
    """(k, l, -l*, I): the form the closed-form generators in reference.py assume."""
    dn = l.shape[0]
    return Coefficient(K=k, L=l, M=-dag(l), W=np.eye(dn, dtype=complex))


def unitary_drive(flow: "Flow") -> Coefficient:
    """(ih - l*l/2, W l, -l*, W): a unitary-type coefficient driving a free flow."""
    return Coefficient(
        K=1j * flow.h - 0.5 * dag(flow.l) @ flow.l, L=flow.W @ flow.l,
        M=-dag(flow.l), W=flow.W,
    )


# --- flows and perturbations -------------------------------------------------

@dataclass(frozen=True)
class Flow:
    h: np.ndarray
    l: np.ndarray
    W: np.ndarray


def flow(rng, n, d, scale=0.5) -> Flow:
    return Flow(h=hermitian(rng, n, scale), l=scale * randn(rng, d * n, n), W=unitary(rng, d * n))


def trivial_flow(n, d) -> Flow:
    return Flow(h=np.zeros((n, n), complex), l=np.zeros((d * n, n), complex), W=np.eye(d * n, dtype=complex))


def perturbation(rng, n, d, cls, scale=0.5) -> tuple[Coefficient, Coefficient]:
    """Gauge-free pair (F1, F2) whose semigroup class is fixed by construction.

    unital_cp: l1 = l2, k1 = k2 = ih - l*l/2   (unital and CP)
    cp:        l1 = l2, k1 = k2 = ih - l*l/2 - P, P >= 0.2   (CP, not unital)
    mixed:     independent sides; unital and CP are decided by reference.py.
    """
    dn = d * n
    l1 = scale * randn(rng, dn, n)
    k1 = 1j * hermitian(rng, n, scale) - 0.5 * dag(l1) @ l1
    if cls == "unital_cp":
        return gauge_free(k1, l1), gauge_free(k1, l1)
    if cls == "cp":
        k = k1 - positive(rng, n, 0.2)
        return gauge_free(k, l1), gauge_free(k, l1)
    if cls == "mixed":
        l2 = scale * randn(rng, dn, n)
        k2 = 1j * hermitian(rng, n, scale) - 0.5 * dag(l2) @ l2 - positive(rng, n, 0.1)
        return gauge_free(k1 - positive(rng, n, 0.1), l1), gauge_free(k2, l2)
    raise ValueError(f"unknown perturbation class {cls!r}")


# --- step functions ----------------------------------------------------------

def smooth_steps(rng, d, intervals, horizon):
    """Values of a smooth random curve sampled at interval midpoints: all distinct."""
    mid = (np.arange(intervals) + 0.5) * horizon / intervals
    freq = rng.uniform(0.5, 2.0, (d, 2))
    phase = rng.uniform(0, 2 * np.pi, (d, 2))
    amp = rng.uniform(0.3, 0.8, d)
    re = np.sin(np.outer(mid, freq[:, 0]) + phase[:, 0])
    im = np.cos(np.outer(mid, freq[:, 1]) + phase[:, 1])
    return amp * (re + 1j * im)


def palette_steps(rng, d, intervals, colours=3):
    """Values drawn from a small palette, so (c, d) pairs repeat along the grid."""
    palette = 0.6 * randn(rng, colours, d)
    return palette[rng.integers(0, colours, intervals)]


# --- JSON wire format ----------------------------------------------------------

def pairs(x) -> list:
    flat = np.asarray(x, dtype=complex).reshape(-1)
    return [[float(v.real), float(v.imag)] for v in flat]


def coefficient_json(F: Coefficient) -> dict:
    return {"n": F.n, "d": F.d, "K": pairs(F.K), "L": pairs(F.L), "M": pairs(F.M), "W": pairs(F.W)}


def flow_json(fl: Flow) -> dict:
    n = fl.h.shape[0]
    return {"n": n, "d": fl.l.shape[0] // n, "h": pairs(fl.h), "l": pairs(fl.l), "W": pairs(fl.W)}


def stepfunction_json(breakpoints, values) -> dict:
    return {
        "breakpoints": [float(b) for b in breakpoints],
        "values": [[[float(v.real), float(v.imag)] for v in row] for row in values],
    }
