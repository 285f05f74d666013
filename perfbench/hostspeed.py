"""A fixed probe of the host's speed, timed between jobs.

A shared host can change speed by up to 1.7x (seen on a 2-vCPU VM) in
regimes of tens of seconds to minutes, and ``process_time`` moves with wall
time, so the slowdown is contention for the core, not time spent
descheduled.  No estimator inside one run removes a regime that lasts the
whole run.  The benchmark therefore runs this probe right after every job
it times, the warm-up jobs of the set-up included, and rescales the job to
the probe's reference time:

    t_reported = t_wall * REFERENCE_S / t_probe

The set-up (imports, instance generation, warm-up jobs) is rescaled by the
median of the probes that follow its warm-up jobs.  The probe does the kind
of work the qfk layers do (small complex matrix products, Kronecker
products, Hermitian eigen-solves, singular values, one mid-sized product,
and a Python loop over scalars) and touches nothing of qfk, so a change to
the program moves t_wall and leaves t_probe alone.
"""

import time

import numpy as np

# About the probe's median time on the reference host (2-vCPU Firecracker VM,
# one OpenBLAS thread); see perfbench/README.md.
REFERENCE_S = 2.0e-3
REPS = 16

_rng = np.random.default_rng(20120229)
_A = _rng.standard_normal((6, 6)) + 1j * _rng.standard_normal((6, 6))
_H = _A + _A.conj().T
_B = _rng.standard_normal((2, 2))
_M = _rng.standard_normal((48, 48)) + 1j * _rng.standard_normal((48, 48))


def probe() -> float:
    """Seconds taken by one fixed probe."""
    t0 = time.perf_counter()
    for _ in range(REPS):
        x = _A @ _H
        y = np.kron(_B, x[:3, :3])
        w = np.linalg.eigvalsh(_H)
        s = np.linalg.svd(x + y[:6, :6], compute_uv=False)
        z = sum(float(v) for v in w) + float(s[0])
        _ = [complex(i, z) for i in range(16)]
    _ = _M @ _M
    return time.perf_counter() - t0


def scale(seconds: float, probe_seconds: float) -> float:
    """``seconds`` rescaled to the reference host speed."""
    return seconds * REFERENCE_S / probe_seconds
