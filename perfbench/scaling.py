"""Scaling of the hot library calls along n, d, N, intervals and D.

    python3 perfbench/scaling.py        (from the root of a qfk checkout)

Prints one line per call and size: the median of a few timed calls, with one
BLAS thread, on matrices drawn like the workloads'.  These are reference
figures for the README, not part of the benchmark's metrics.
"""

import os
import statistics
import sys
import time

import run  # pins BLAS threads before numpy loads

run.import_program(os.getcwd())

import numpy as np  # noqa: E402
from qfk import coefficients, flows, matrix_elements, perturbations, toy_fock  # noqa: E402

import generate as gen  # noqa: E402
from workloads import block  # noqa: E402


def timed(fn, reps=5):
    fn()
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(out)


def flow_generator(fl):
    return flows.FlowGenerator(h=fl.h, l=fl.l, W=fl.W)


def spec(rng, n, d):
    fl = gen.flow(rng, n, d)
    F1, F2 = gen.perturbation(rng, n, d, "mixed")
    return perturbations.PerturbationSpec(theta=flow_generator(fl), F1=block(F1), F2=block(F2))


def main():
    rng = np.random.default_rng(0)
    rows = []
    for n, d in ((2, 1), (4, 1), (8, 1), (4, 2), (4, 3)):
        F = block(gen.coefficient(rng, n, d, "quasicontractive"))
        rows.append(("min_quasicontractivity_beta", f"n={n} d={d}",
                     timed(lambda: coefficients.min_quasicontractivity_beta(F))))
        fg = flow_generator(gen.flow(rng, n, d))
        rows.append(("validate_structure", f"n={n} d={d}", timed(lambda: flows.validate_structure(fg), 3)))
        phi = perturbations.phi_perturbed(spec(rng, n, d))
        rows.append(("vacuum_generator", f"n={n} d={d}", timed(lambda: perturbations.vacuum_generator(phi), 3)))
        G = perturbations.vacuum_generator(phi)
        rows.append(("semigroup_at", f"n={n} d={d}", timed(lambda: perturbations.semigroup_at(G, 1.0))))
    phi = perturbations.phi_perturbed(spec(rng, 2, 1))
    for k in (8, 16, 32, 64):
        bp = np.arange(k + 1) / 16
        f = matrix_elements.StepFunction.from_breakpoints(bp, gen.smooth_steps(rng, 1, k, k / 16))
        a = np.eye(2)
        ms = timed(lambda: matrix_elements.cocycle_matrix_element(phi, f, f, k / 16, a), 3)
        rows.append(("cocycle_matrix_element", f"intervals={k} n=2 d=1", ms))
    fl = gen.flow(rng, 2, 1)
    Gd = block(gen.unitary_drive(fl))
    F1, F2 = (block(F) for F in gen.perturbation(rng, 2, 1, "cp"))
    for N in (256, 1024, 4096):
        ms = timed(lambda: toy_fock.fk_expectation_channel(2, 1, N, 1.0, Gd, F1, F2, np.eye(2)), 3)
        rows.append(("fk_expectation_channel", f"N={N} n=2 d=1 ({1e3 * ms / N:.1f} us/slot)", ms))
    zero = block(gen.zero_coefficient(2, 1))
    for N in (5, 6, 7, 8):
        model = toy_fock.ToyFockModel(n=2, d=1, N=N, T=0.5)
        rows.append(("simulate_hp_unitary", f"D={model.D}", timed(lambda: toy_fock.simulate_hp_unitary(model, Gd), 3)))
        if N <= 7:
            V = toy_fock.simulate_hp_unitary(model, zero)
            rows.append(("simulate_perturbation", f"D={model.D}",
                         timed(lambda: toy_fock.simulate_perturbation(model, V, F1), 1)))
    for name, size, ms in rows:
        print(f"{name:30s} {size:36s} {ms:10.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
