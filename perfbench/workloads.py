"""Fixed, seed-generated job lists for the three workloads, and their checks.

A job is one in-process call of ``qfk.cli.main([...])`` on an instance file
written here (a CLI job), or one direct library call for the dense oracle,
which has no subcommand (a library job).  Every job carries a check that
compares its output with ``reference.py`` or with a property the method must
have; checks return a list of failure messages, empty when the job passed.

The make-up of each list depends only on the workload: the seed changes the
matrices, never the shapes, sizes or counts.  Two jobs use inputs that do not
depend on the seed, because they exercise program faults that fail on every
input of their kind; they carry ``known_fault`` and are counted as failed
rather than as wrong.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg
from qfk import toy_fock as tf
from qfk.coefficients import BlockCoefficient

import generate as gen
import reference as ref

WORKLOADS = ("analytic", "matelem", "oracle")

# Inputs of the known-fault jobs are drawn from this fixed seed, never from --seed.
FAULT_SEED = 20120229

BETA_FAULT = "isometric beta < 0"
MULTIPLIER_FAULT = "trivial-flow multiplier ladder exits 1"


@dataclass
class Job:
    shape: str                       # cost cluster: command and sizes
    kind: str                        # check kind, selects the planted errors of the self-test
    check: Callable                  # output -> list of failure messages
    argv: list | None = None         # CLI jobs
    call: Callable | None = None     # library jobs: the timed call
    reduce: Callable | None = None   # library jobs: untimed, raw result -> small summary
    known_fault: str | None = None
    info: dict = field(default_factory=dict)


# --- output parsing ----------------------------------------------------------

def csv_rows(stdout: str):
    """Data rows of a CLI CSV (header and '# verdict' line dropped) and the verdict."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    verdict = None
    if lines and lines[-1].startswith("# "):
        verdict = json.loads(lines[-1][2:])
        lines = lines[:-1]
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return rows, verdict


def expect_rc(out, want):
    rc = out[0]
    return [] if rc == want else [f"exit code {rc}, expected {want}: {out[2].strip()[-200:]}"]


def close(x, y, tol):
    x, y = np.asarray(x), np.asarray(y)
    return np.linalg.norm(x - y, 2 if x.ndim == 2 else None) <= tol * (1.0 + np.linalg.norm(y))


def _lazy(fn):
    """Compute a reference once, on first use (checks run after the timed loop)."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


# --- instance files ------------------------------------------------------------

class Writer:
    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0
        os.makedirs(workdir, exist_ok=True)

    def __call__(self, obj) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"job{self.count:03d}.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path


def perturbation_json(F1, F2):
    return {"F1": gen.coefficient_json(F1), "F2": gen.coefficient_json(F2)}


# --- analytic -------------------------------------------------------------------

def check_job(write, rng, n, d, cls, with_flow=True, with_coefficient=True, known_fault=None):
    inst = {}
    F = fl = None
    if with_coefficient:
        F = gen.coefficient(rng, n, d, cls)
        inst["coefficient"] = gen.coefficient_json(F)
    if with_flow:
        fl = gen.flow(rng, n, d)
        inst["flow"] = gen.flow_json(fl)
    path = write(inst)
    beta_ref = _lazy(lambda: ref.schur_beta(F))

    def check(out):
        rc_want = 1 if cls == "infeasible" else 0
        bad = expect_rc(out, rc_want)
        try:
            report = json.loads(out[1])
        except ValueError:
            return bad + ["report is not JSON"]
        if F is not None:
            coef = report["coefficient"]
            for name, want in ref.EXPECTED_FLAGS[cls].items():
                if coef[name] != want:
                    bad.append(f"{name} = {coef[name]}, built {cls}")
            beta, want = coef["beta"], beta_ref()
            if (beta is None) != (want is None):
                bad.append(f"beta = {beta}, Schur complement gives {want}")
            elif want is not None and abs(beta - want) > 1e-5 * (1 + abs(want)):
                bad.append(f"beta = {beta!r}, Schur complement gives {want!r}")
            if cls == "isometric" and beta is not None and beta < 0:
                bad.append(f"{BETA_FAULT}: beta = {beta:.3e}, exact value 0")
        if fl is not None:
            flow = report["flow"]
            if not flow["passed"] or flow["max_residual"] > 1e-9:
                bad.append(f"structure relations fail: max residual {flow['max_residual']:.3e}")
        return bad

    return Job(shape=f"check n{n} d{d}{' flow' if with_flow else ''}{'' if with_coefficient else ' only'}",
               kind="check", argv=["check", "--instance", path], check=check, known_fault=known_fault)


SEMIGROUP_TIMES = (0.25, 0.5, 1.0, 2.0)


def semigroup_job(write, rng, n, d, cls):
    fl = gen.flow(rng, n, d)
    for _ in range(50):
        F1, F2 = gen.perturbation(rng, n, d, cls)
        G = ref.interval_generator(fl, F1, F2)
        flags = ref.semigroup_flags(G, n, SEMIGROUP_TIMES)
        if flags[3] >= 1e-4:
            break
    else:
        raise RuntimeError("no semigroup instance with a clear verdict margin")
    unital, cp, contractive = (bool(v) for v in flags[:3])
    if cls == "unital_cp" and not (unital and cp and contractive) or cls == "cp" and not (cp and not unital):
        raise RuntimeError(f"construction {cls} disagrees with its reference flags {flags}")
    a = gen.hermitian(rng, n)
    path = write({
        "flow": gen.flow_json(fl),
        "perturbation": perturbation_json(F1, F2),
        "observable": gen.pairs(a),
        "checks": [{"name": "unital"}, {"name": "cp"}, {"name": "contractive"}],
    })
    values = _lazy(lambda: ref.semigroup_values(G, a, SEMIGROUP_TIMES))

    def check(out):
        bad = expect_rc(out, 0 if (unital and cp and contractive) else 1)
        rows, verdict = csv_rows(out[1])
        if verdict is None or len(rows) != len(SEMIGROUP_TIMES) * n * n:
            return bad + ["missing values or verdict"]
        for k, want in enumerate(values()):
            got = np.array([r[3] + 1j * r[4] for r in rows[k * n * n:(k + 1) * n * n]]).reshape(n, n)
            if rows[k * n * n][0] != SEMIGROUP_TIMES[k] or not close(got, want, 1e-9):
                bad.append(f"P_t(a) at t = {SEMIGROUP_TIMES[k]} differs from the assembled generator")
        for name, want in (("unital", unital), ("cp", cp), ("contractive", contractive)):
            if verdict.get(name) != want:
                bad.append(f"{name} = {verdict.get(name)}, construction gives {want}")
        return bad

    times = ",".join(str(t) for t in SEMIGROUP_TIMES)
    return Job(shape=f"semigroup n{n} d{d}", kind="csv", argv=["semigroup", "--instance", path, "--times", times],
               check=check)


def analytic_jobs(write, seed):
    rng = np.random.default_rng([seed, 1])
    fixed = np.random.default_rng(FAULT_SEED)
    jobs = []
    # dominant shape: a full check (coefficient classes + flow structure) at n = 4, d = 2
    for k in range(24):
        jobs.append(check_job(write, rng, 4, 2, ("contractive", "quasicontractive")[k % 2]))
    jobs += [
        check_job(write, rng, 2, 1, "infeasible"),
        check_job(write, rng, 8, 3, "infeasible"),
        check_job(write, rng, 8, 1, "contractive", with_flow=False),
        check_job(write, rng, 2, 3, "quasicontractive", with_flow=False),
        check_job(write, rng, 8, 3, None, with_coefficient=False),
        check_job(write, fixed, 2, 1, "isometric", known_fault=BETA_FAULT),
        check_job(write, fixed, 8, 2, "isometric", known_fault=BETA_FAULT),
    ]
    for n, d, cls in ((2, 1, "unital_cp"), (2, 3, "mixed"), (4, 1, "cp"), (4, 2, "mixed"),
                      (4, 3, "unital_cp"), (8, 1, "mixed"), (8, 2, "cp"), (8, 3, "unital_cp")):
        jobs.append(semigroup_job(write, rng, n, d, cls))
    return jobs


# --- matelem -----------------------------------------------------------------------

def matelem_job(write, rng, n, d, values, t, residual_r=None):
    """f on the 1/16 grid, g on the 1/8 grid over [0, 2): 32 partition intervals on [0, 2)."""
    fl = gen.flow(rng, n, d)
    F1, F2 = gen.perturbation(rng, n, d, "mixed")
    bf, bg = np.arange(33) / 16, np.arange(17) / 8
    if values == "smooth":
        fv, gv = gen.smooth_steps(rng, d, 32, 2.0), gen.smooth_steps(rng, d, 16, 2.0)
    else:
        fv, gv = gen.palette_steps(rng, d, 32, 3), gen.palette_steps(rng, d, 16, 2)
    a = gen.randn(rng, n, n)
    path = write({
        "flow": gen.flow_json(fl),
        "perturbation": perturbation_json(F1, F2),
        "observable": gen.pairs(a),
        "stepfunctions": {"f": gen.stepfunction_json(bf, fv), "g": gen.stepfunction_json(bg, gv)},
    })
    f, g = (bf, fv), (bg, gv)
    value = _lazy(lambda: ref.matrix_element(fl, F1, F2, f, g, t, a))

    def check(out):
        bad = expect_rc(out, 0)
        rows, verdict = csv_rows(out[1])
        if len(rows) != n * n:
            return bad + ["missing matrix entries"]
        got = np.array([r[2] + 1j * r[3] for r in rows]).reshape(n, n)
        if not close(got, value(), 1e-9):
            bad.append("matrix element differs from the composed one-interval semigroups")
        if residual_r is not None and (verdict is None or not verdict["residual"] <= 1e-9):
            bad.append(f"weak cocycle residual {verdict and verdict['residual']} above 1e-9")
        return bad

    argv = ["matelem", "--instance", path, "--t", repr(t)]
    if residual_r is not None:
        argv += ["--residual", "--r", repr(residual_r)]
    repeats, intervals = ref.repeated_pair_share(f, g, t)
    return Job(shape=f"matelem n{n} d{d} t{t}{' residual' if residual_r is not None else ''}", kind="csv",
               argv=argv, check=check, info={"repeats": repeats, "intervals": intervals, "values": values})


def matelem_jobs(write, seed):
    rng = np.random.default_rng([seed, 2])
    jobs = []
    # dominant shape: 32 intervals at n = 2, d = 1, half with distinct and half with repeated pairs
    for k in range(14):
        jobs.append(matelem_job(write, rng, 2, 1, ("smooth", "palette")[k % 2], 2.0))
    for values in ("smooth", "palette"):
        jobs.append(matelem_job(write, rng, 2, 2, values, 2.0))
        jobs.append(matelem_job(write, rng, 4, 1, values, 2.0))
        # r = 17/64 falls between grid points, so the split adds one cut of its own
        jobs.append(matelem_job(write, rng, 2, 1, values, 0.5, residual_r=17 / 64))
    return jobs


# --- oracle ---------------------------------------------------------------------------

FK_LADDER = [128, 256, 512, 1024]
ISOMETRY_LADDER = [256, 512, 1024, 2048]
HP_LADDER = [256, 512, 1024, 2048, 4096]
COMPARE_LADDER = [128, 256, 512, 1024]
MULTIPLIER_LADDER = [8, 16, 32, 48]


def ladder_job(write, rng, n, d, kind, ladder, trivial=False, command="simulate", known_fault=None):
    T = 1.0
    fl = gen.trivial_flow(n, d) if trivial else gen.flow(rng, n, d)
    G = gen.unitary_drive(fl)
    inst = {"simulation": {"T": T, "N": ladder, "kind": kind}}
    if kind == "isometry":
        inst["coefficient"] = gen.coefficient_json(gen.coefficient(rng, n, d, "isometric"))
    elif not trivial:
        inst["coefficient"] = gen.coefficient_json(G)
    if kind in ("fk", "multiplier"):
        F1, F2 = gen.perturbation(rng, n, d, "cp")
        inst["perturbation"] = perturbation_json(F1, F2)
        inst["observable"] = gen.pairs(gen.hermitian(rng, n))
    if kind == "multiplier":
        inst["simulation"]["split_fraction"] = 0.1
    path = write(inst)
    hp_errors = _lazy(lambda: [
        np.linalg.norm(ref.euler_vacuum_corner(G.K, N, T) - scipy.linalg.expm(T * G.K), 2)
        for N in ladder
    ])

    def check(out):
        rows, verdict = csv_rows(out[1])
        if verdict is None or len(rows) != len(ladder):
            return expect_rc(out, 0) + ["missing ladder or verdict"]
        errors = [r[2] for r in rows]
        if trivial and kind == "multiplier":
            bad = []
            if max(errors) > 1e-12:
                bad.append(f"trivial-flow multiplier residual {max(errors):.2e} above 1e-12")
            if out[0] == 1:
                bad.append(f"{MULTIPLIER_FAULT} on residuals <= {max(errors):.1e}: {verdict}")
            elif out[0] != 0:
                bad += expect_rc(out, 0)
            return bad
        bad = expect_rc(out, 0)
        if [r[0] for r in rows] != ladder:
            bad.append("ladder points differ from the instance")
        if command == "simulate" and not verdict.get("monotone"):
            bad.append("ladder not monotone")
        if command == "compare" and not verdict.get("final_diff", 1) <= 0.05:
            bad.append(f"final difference {verdict.get('final_diff')} above 0.05")
        if not all(b < a for a, b in zip(errors, errors[1:])):
            bad.append("errors do not decrease")
        order = ref.observed_order(ladder, errors, T) if min(errors) > 0 else float("nan")
        if not 0.9 <= order <= 1.1:
            bad.append(f"observed Euler order {order:.3f} not near 1")
        if kind == "hp":
            if not all(abs(e - w) <= 1e-9 * (1 + w) for e, w in zip(errors, hp_errors())):
                bad.append("hp errors differ from ||(I + hK)^N - exp(TK)||")
        return bad

    shape = f"{command} {kind} n{n} d{d}{' trivial' if trivial else ''}"
    return Job(shape=shape, kind="ladder", argv=[command, "--instance", path], check=check,
               known_fault=known_fault)


def block(F):
    return BlockCoefficient(K=F.K, L=F.L, M=F.M, W=F.W)


def dense_job(rng, n, d, N, what):
    """Direct toy_fock calls at D = n (d+1)^N, with the trivial flow where the
    dense and channel values must agree to machine precision."""
    T = 0.5
    model = tf.ToyFockModel(n=n, d=d, N=N, T=T)
    stride = (d + 1) ** N
    zero = block(gen.zero_coefficient(n, d))
    split = max(1, N // 3)
    if what == "hp":
        Fg = gen.unitary_drive(gen.flow(rng, n, d))
        F = block(Fg)
        call = lambda: tf.simulate_hp_unitary(model, F)
        reduce = lambda V: V.ops[-1][::stride, ::stride].copy()
        channel = lambda: tf.hp_vacuum_compression(n, d, N, T, F)
    elif what == "perturbation":
        Fg = gen.coefficient(rng, n, d, "contractive", scale=0.5)
        F = block(Fg)
        call = lambda: tf.simulate_perturbation(model, tf.simulate_hp_unitary(model, zero), F)
        reduce = lambda Y: Y.ops[-1][::stride, ::stride].copy()
        channel = lambda: tf.cocycle_vacuum_corner(n, d, N, T, None, F)
    else:
        Fg = gen.coefficient(rng, n, d, "contractive", scale=0.5)
        F = block(Fg)
        call = lambda: tf.multiplier_cocycle_check(model, tf.simulate_hp_unitary(model, zero), F, split)
        reduce = float
        channel = lambda: tf.multiplier_cocycle_residual(n, d, N, T, None, F, split)
    corner = _lazy(lambda: ref.euler_vacuum_corner(Fg.K, N, T))
    staged = _lazy(channel)

    def check(out):
        if what == "multiplier":
            bad = [] if abs(out) <= 1e-12 else [f"trivial-flow multiplier identity residual {out:.2e}"]
            if abs(out - staged()) > 1e-12:
                bad.append(f"dense residual {out:.2e} vs staged {staged():.2e}")
            return bad
        bad = [] if close(out, corner(), 1e-12) else ["vacuum corner differs from (I + hK)^N"]
        if not close(out, staged(), 1e-12):
            bad.append("dense and channel vacuum corners differ")
        return bad

    return Job(shape=f"dense {what} D{model.D}", kind=f"dense_{'scalar' if what == 'multiplier' else 'matrix'}",
               call=call, reduce=reduce, check=check)


def oracle_jobs(write, seed):
    rng = np.random.default_rng([seed, 3])
    fixed = np.random.default_rng(FAULT_SEED)
    jobs = []
    # dominant shape: fk ladders to N = 1024 at n = 2, d = 1 with a nontrivial free flow
    for _ in range(12):
        jobs.append(ladder_job(write, rng, 2, 1, "fk", FK_LADDER))
    jobs += [
        ladder_job(write, rng, 2, 2, "hp", HP_LADDER),
        ladder_job(write, rng, 4, 1, "hp", HP_LADDER),
        ladder_job(write, rng, 4, 2, "isometry", ISOMETRY_LADDER),
        ladder_job(write, rng, 4, 2, "fk", COMPARE_LADDER, command="compare"),
        ladder_job(write, fixed, 2, 1, "multiplier", MULTIPLIER_LADDER, trivial=True, known_fault=MULTIPLIER_FAULT),
        dense_job(rng, 2, 1, 8, "hp"),
        dense_job(rng, 2, 1, 7, "perturbation"),
        dense_job(rng, 2, 1, 6, "multiplier"),
    ]
    return jobs


JOB_LISTS = {"analytic": analytic_jobs, "matelem": matelem_jobs, "oracle": oracle_jobs}


def build(workload: str, seed: int, workdir: str) -> list[Job]:
    """The job list of one round; shuffled by the seed, identical in make-up for every seed."""
    jobs = JOB_LISTS[workload](Writer(workdir), seed)
    order = np.random.default_rng([seed, 0]).permutation(len(jobs))
    return [jobs[i] for i in order]
