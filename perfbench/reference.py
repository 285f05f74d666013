"""Reference computations the benchmark checks the program against.

None of these calls the program.  They work from closed forms:

* the minimal quasicontractivity shift as a generalized Schur complement,
  beta = lambda_max(A + B C^-1 B*) with A = K* + K + L*L, B = L*W + M and
  C = I - W*W (Albert, SIAM J. Appl. Math. 17, 1969);
* the vacuum generator and the one-interval generators of a flow perturbed
  by gauge-free coefficients F_i = (k_i, l_i, -l_i*, I), assembled as
  superoperators through vec(A X B) = (B^T (x) A) vec(X) and exponentiated
  with scipy;
* the vacuum corner of an Euler-discretized cocycle, (I + hK)^N, since the
  slot factors of a product never return a slot to the vacuum once left.

Superoperators use column stacking, like the program's documented
convention, so that a vec/unvec pair is shared by both sides.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from generate import Coefficient, Flow, dag


def vec(x):
    return np.asarray(x, dtype=complex).T.reshape(-1)


def unvec(v, n):
    return np.asarray(v).reshape(n, n).T


# --- coefficients ------------------------------------------------------------

def schur_beta(F: Coefficient):
    """Minimal shift for ||W|| < 1, None for ||W|| > 1 (the constructions avoid 1)."""
    dn = F.L.shape[0]
    if np.linalg.norm(F.W, 2) > 1.0 + 1e-12:
        return None
    A = dag(F.K) + F.K + dag(F.L) @ F.L
    B = dag(F.L) @ F.W + F.M
    C = np.eye(dn) - dag(F.W) @ F.W
    if np.linalg.norm(C, 2) < 1e-12:  # W unitary: the range condition forces B = 0
        return float(np.linalg.eigvalsh((A + dag(A)) / 2)[-1])
    S = A + B @ np.linalg.solve(C, dag(B))
    return float(np.linalg.eigvalsh((S + dag(S)) / 2)[-1])


EXPECTED_FLAGS = {
    "isometric": dict(isometric_gen=True, coisometric_nec=True, contractive_gen=True, quasicontractive=True),
    "contractive": dict(isometric_gen=False, coisometric_nec=False, contractive_gen=True, quasicontractive=True),
    "quasicontractive": dict(isometric_gen=False, coisometric_nec=False, contractive_gen=False, quasicontractive=True),
    "infeasible": dict(isometric_gen=False, coisometric_nec=False, contractive_gen=False, quasicontractive=False),
}


# --- generators on M_n ----------------------------------------------------------

def _pi_factors(fl: Flow):
    """A_k = W* (e_k (x) I_n), so pi(x) = sum_k A_k x A_k*."""
    n = fl.h.shape[0]
    d = fl.l.shape[0] // n
    return [dag(fl.W)[:, k * n:(k + 1) * n] for k in range(d)]


def interval_generator(fl: Flow, F1: Coefficient, F2: Coefficient, c=None, d=None):
    """tau_{c,d} for gauge-free F1, F2 (c = d = 0 gives the vacuum generator).

    With m = l + l1 + (c (x) I), p = l + l2 + (d (x) I),
        tau(x) = m* pi(x) p + Lop x + x Rop,
        Lop = -l*l/2 - ih - l1* l + k1* - (c* (x) I)(l + l1) - (|c|^2 + |d|^2)/2,
        Rop = -l*l/2 + ih - l* l2 + k2 - (l + l2)* (d (x) I).
    """
    n = fl.h.shape[0]
    dn = fl.l.shape[0]
    dims = dn // n
    c = np.zeros(dims, complex) if c is None else np.asarray(c, dtype=complex)
    d = np.zeros(dims, complex) if d is None else np.asarray(d, dtype=complex)
    eye = np.eye(n)
    C = np.kron(c.reshape(-1, 1), eye)
    D = np.kron(d.reshape(-1, 1), eye)
    l, l1, l2 = fl.l, F1.L, F2.L
    m = l + l1 + C
    p = l + l2 + D
    ll = dag(l) @ l
    shift = 0.5 * (np.vdot(c, c).real + np.vdot(d, d).real)
    Lop = -0.5 * ll - 1j * fl.h - dag(l1) @ l + dag(F1.K) - dag(C) @ (l + l1) - shift * eye
    Rop = -0.5 * ll + 1j * fl.h - dag(l) @ l2 + F2.K - dag(l + l2) @ D
    out = np.kron(Rop.T, eye) + np.kron(eye, Lop)
    for A in _pi_factors(fl):
        out += np.kron((dag(A) @ p).T, dag(m) @ A)
    return out


def semigroup_values(G, a, times):
    n = a.shape[0]
    return [unvec(scipy.linalg.expm(t * G) @ vec(a), n) for t in times]


def choi_min_eig(S, n):
    """Smallest eigenvalue of sum_ij E_ij (x) P(E_ij) for the superoperator S."""
    choi = S.reshape(n, n, n, n).transpose(3, 1, 2, 0).reshape(n * n, n * n)
    return float(np.linalg.eigvalsh((choi + dag(choi)) / 2)[0])


def semigroup_flags(G, n, times, tol=1e-8):
    """(unital, cp, contractive, margin) over the given times.

    margin is the smallest distance of any deciding quantity from its
    threshold; a construction with margin below 1e-4 is redrawn so that the
    verdicts do not hinge on rounding.
    """
    eye = np.eye(n)
    unital = cp = contractive = True
    margin = np.inf
    for t in times:
        S = scipy.linalg.expm(t * G)
        pone = unvec(S @ vec(eye), n)
        u = np.linalg.norm(pone - eye, 2)
        e = choi_min_eig(S, n)
        c = np.linalg.norm(pone, 2)
        unital &= u <= tol
        cp &= e >= -tol
        contractive &= c <= 1 + tol
        margin = min(margin, abs(e + tol) if e < -tol else np.inf, abs(c - 1 - tol) if c > 1 + tol else np.inf)
        if u > tol:
            margin = min(margin, u - tol)
    return unital, cp, contractive, margin


# --- matrix elements ---------------------------------------------------------

def step_value(breakpoints, values, tau):
    """Value on the interval starting at tau (zero past the last breakpoint)."""
    idx = int(np.searchsorted(breakpoints, tau, side="right")) - 1
    if idx >= len(values):
        return np.zeros(values.shape[1], complex)
    return values[idx]


def partition(f, g, t):
    """Cut points of [0, t) by the breakpoints of f and g (dyadic, so exact)."""
    return sorted({0.0, t} | {float(b) for bp, _ in (f, g) for b in bp if 0 < b < t})


def matrix_element(fl, F1, F2, f, g, t, a):
    """kappa_t^{f,g}(a): one-interval semigroups composed over the common
    partition of [0, t), earlier intervals outermost.  f and g are
    (breakpoints, values) pairs."""
    cuts = partition(f, g, t)
    out = np.asarray(a, dtype=complex)
    n = out.shape[0]
    for lo, hi in reversed(list(zip(cuts[:-1], cuts[1:]))):
        tau = interval_generator(fl, F1, F2, step_value(*f, lo), step_value(*g, lo))
        out = unvec(scipy.linalg.expm((hi - lo) * tau) @ vec(out), n)
    return out


def repeated_pair_share(f, g, t):
    """Share of partition intervals whose (c, d) pair occurred earlier in the job."""
    cuts = partition(f, g, t)
    seen, repeats = set(), 0
    for lo in cuts[:-1]:
        key = (step_value(*f, lo).tobytes(), step_value(*g, lo).tobytes())
        repeats += key in seen
        seen.add(key)
    return repeats, len(cuts) - 1


# --- oracle ------------------------------------------------------------------

def euler_vacuum_corner(K, N, T):
    """<vac| V_N |vac> of the Euler scheme: (I + hK)^N."""
    return np.linalg.matrix_power(np.eye(K.shape[0]) + (T / N) * K, N)


def observed_order(ladder, errors, T):
    """Least-squares slope of log(error) against log(h)."""
    h = np.log(T / np.asarray(ladder, dtype=float))
    e = np.log(np.asarray(errors, dtype=float))
    return float(np.polyfit(h, e, 1)[0])
