"""Command-line entry point.

Subcommands (all driven by a JSON instance file, see `instances`):

  check      classification flags, minimal quasicontractivity shift, flow
             structure bounds in closed form; exit 0 iff all requested checks pass
  semigroup  P_t(a) entries as CSV for a list of times, with unital / CP /
             contractivity flags
  matelem    cocycle matrix element between exponential vectors of step
             functions, optionally with the weak cocycle-identity residual
  simulate   discrete-oracle error ladder over slot counts N as CSV
             (N, h, error) plus a JSON verdict {monotone, final_error}
  compare    analytic semigroup value vs discrete estimate per ladder point

Each subcommand declares only the options it reads: --instance and --out, and
--tol on all but simulate; matelem's --tol and --r need --residual.  No
subcommand draws a random number.  simulate runs the flow semigroup and matelem
read.

Exit codes: 0 all checks passed, 1 a check failed, 2 input error (any
ValueError, numerical failures on the input included, or the memory cap).
An overflow is an input error naming its place, never a numpy warning.
Numeric output uses 17 significant digits so regression files are stable.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .coefficients import classify
from .flows import hp_coefficient_for_flow, require_unitary_type, structure_defects
from .instances import InstanceError, InstanceFile, default_observable, load_instance
from .linalg import MemoryCapExceededError, chunks, expm, expm_stack_workspace, norm2, norm2_gate, norm2_stack, reserve
from .matrix_elements import StepFunction, cocycle_matrix_element, stack_size, to_ticks, verify_cocycle_identity
from .perturbations import (
    COMPOSED_BLOCKS_WORKSPACE,
    Superoperator,
    composed_blocks,
    composed_vacuum_generator,
    is_cp,
    is_unital,
    semigroup_at,
    semigroup_stack,
)
from .toy_fock import (
    fk_expectation_ladder,
    hp_vacuum_ladder,
    ladder_verdict,
    multiplier_cocycle_ladder,
)


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _emit(out_path, csv_lines, verdict) -> None:
    """The report lines to --out (or stdout); the verdict JSON, if any, to stdout
    (comment-prefixed when inline)."""
    text = "\n".join(csv_lines) + "\n"
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InstanceError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)
    if verdict is not None:
        print(("" if out_path else "# ") + json.dumps(verdict))


def _matrix_rows(prefix: str, val) -> list[str]:
    """One CSV row `<prefix>row,col,re,im` per entry of the n x n matrix val."""
    return [f"{prefix}{i},{j},{_fmt(v.real)},{_fmt(v.imag)}" for (i, j), v in np.ndenumerate(val)]


def _need(section, message: str):
    """section, or InstanceError(message) when the instance lacks it."""
    if section is None:
        raise InstanceError(message)
    return section


# The check names each subcommand judges.  An instance has one `checks` list;
# each subcommand reads the names it owns and skips the others, and a name that
# no subcommand owns is an input error, to every subcommand (see `main`).
CHECKS = {
    "check": ("isometric_gen", "coisometric_nec", "contractive_gen", "quasicontractive", "structure"),
    "semigroup": ("unital", "cp", "contractive"),
}


def _owned_checks(inst: InstanceFile, command: str) -> list:
    """The instance's checks that command owns."""
    return [c for c in inst.checks if c["name"] in CHECKS[command]]


def _tolerance(args, default: float | None = None) -> float:
    """--tol, else default; InstanceError unless it is finite and nonnegative."""
    tol = default if args.tol is None else args.tol
    if not (math.isfinite(tol) and tol >= 0):
        raise InstanceError(f"--tol: tolerance must be finite and nonnegative, got {tol}")
    return tol


# --- check -------------------------------------------------------------------

def _overflow_checked(section: str, fn, *args, **kwargs):
    """fn(*args, **kwargs); an overflow it refuses (FloatingPointError) is an
    input error that names the section."""
    try:
        return fn(*args, **kwargs)
    except FloatingPointError as exc:
        raise InstanceError(f"section {section!r}: {exc}") from exc


def cmd_check(inst: InstanceFile, args) -> int:
    """The coefficient's classes and the flow's structure bounds, each judged at --tol."""
    tol = _tolerance(args)
    if inst.coefficient is None and inst.flow is None:
        raise InstanceError("check needs a 'coefficient' or 'flow' section")
    checks = _owned_checks(inst, "check")
    report = {}
    flags = structure = None
    if inst.coefficient is not None:
        flags = _overflow_checked("coefficient", classify, inst.coefficient, tol=tol)
        report["coefficient"] = dict(vars(flags))
    if inst.flow is not None:
        structure = _overflow_checked("flow", structure_defects, inst.flow, tol)
        report["flow"] = {"residuals": structure.residuals, "max_residual": structure.max_residual,
                          "passed": structure.passed}

    if not checks:
        if inst.coefficient is not None:
            checks.append({"name": "quasicontractive"})
        if inst.flow is not None:
            checks.append({"name": "structure"})
    results = []
    for chk in checks:
        name = chk["name"]
        if name == "structure":
            passed = _need(structure, "check 'structure' needs a 'flow' section").passed
        else:
            passed = bool(getattr(_need(flags, f"check {name!r} needs a 'coefficient' section"), name))
        results.append({"name": name, "passed": passed})
    report["checks"] = results

    _emit(args.out, [json.dumps(report, indent=2)], None)
    return 0 if all(r["passed"] for r in results) else 1


# --- semigroup ---------------------------------------------------------------

def _parse_times(spec: str) -> list[float]:
    try:
        times = [float(s) for s in spec.split(",") if s.strip()]
    except ValueError as exc:
        raise InstanceError(f"bad --times value: {exc}") from exc
    for t in times:
        if not math.isfinite(t):
            raise InstanceError(f"bad --times value: {t} is not finite")
    if not times or any(t < 0 for t in times):
        raise InstanceError("--times must be a comma list of nonnegative reals")
    return times


# superoperators on M_n per time of a pass that `cmd_semigroup` reserves; tracemalloc peak
# of a whole run at n = 8 and 12, d = 1 and 3: 11.1 to 11.9 at one time, 12.3 to 12.5 at
# four times of a pass each (n = 12), 4.3 to 4.5 per time at four (n = 8)
SEMIGROUP_WORKSPACE = 13
# and the fk reference of `simulate`/`compare` (one P_T): 10.0 at n = 8 to 20, d = 1..3
FK_REFERENCE_WORKSPACE = 11
# bytes per entry of P_t(a) that the semigroup report holds until `_emit`: its line of at
# most 87 characters as a str in the list (57 bytes of header and list slot), again in the
# joined text, and in a captured stream; tracemalloc 171 to 175 at n = 2 and 8
SEMIGROUP_REPORT_BYTES = 320


def cmd_semigroup(inst: InstanceFile, args) -> int:
    """P_t(a) and the unital / CP / contractive flags at each --times value.  The
    times go through `semigroup_stack` in passes of `linalg.chunks`, CHUNK_ENTRIES
    = 2^14 entries (four times at n = 8), so the working set does not grow with
    their number, and times a power of two apart share one Pade evaluation; the
    digits are expm_stack's, about 1e-15 of the largest entry from scipy's expm."""
    tol = _tolerance(args)
    spec = _need(inst.perturbation, "semigroup needs a 'perturbation' section")
    times = _parse_times(args.times)
    wanted = [c["name"] for c in _owned_checks(inst, "semigroup")]
    a = default_observable(inst)
    n = spec.F1.n
    passes = chunks(len(times), n ** 4)
    # the report, counted in superoperators on M_n, n^4 entries of 16 bytes
    reserve(SEMIGROUP_WORKSPACE * passes[0].stop + len(times) * SEMIGROUP_REPORT_BYTES / (16 * n * n), n * n)
    lines = ["t,row,col,re,im"]
    unital = cp = contractive = True
    gen = composed_vacuum_generator(hp_coefficient_for_flow(spec.theta), spec.F1, spec.F2)
    for c in passes:
        for t, mat in zip(times[c], semigroup_stack(gen, times[c])):
            P = Superoperator(n=n, mat=mat)
            if not np.isfinite(P.mat).all():
                raise InstanceError(f"--times {t}: P_t = exp(t L) is not finite")
            lines += _matrix_rows(f"{_fmt(t)},", P.apply(a))
            unital = unital and is_unital(P, tol=tol)
            cp = cp and is_cp(P, tol=tol)
            contractive = contractive and norm2(P.apply(np.eye(n))) <= 1 + tol
    verdict = {"unital": unital, "cp": cp, "contractive": contractive}
    _emit(args.out, lines, verdict)
    return 1 if any(not verdict[name] for name in wanted) else 0


# --- matelem -------------------------------------------------------------------

def _reserve_matelem(n: int, d: int, f: StepFunction, g: StepFunction, t: float, r: float | None) -> None:
    """MemoryCapExceededError unless matelem's working set fits the memory cap: the
    blocks, then the larger stack of generators (split at r, if any), its exponentials
    and expm_stack's workspace.  A stack has at most as many slices as its partitions
    have intervals, so its distinct intervals are counted only if that bound does not fit."""
    blocks = (d + 1) ** 2

    def operators(k: int) -> int:
        return blocks + max(COMPOSED_BLOCKS_WORKSPACE * blocks, 2 * k + expm_stack_workspace(k, n * n))

    try:
        # a partition has at most one interval more than f and g have breakpoints
        reserve(operators((1 if r is None else 3) * (f.ticks.size + g.ticks.size + 1)), n * n)
    except MemoryCapExceededError:
        reserve(operators(max(stack_size(f, g, t), 0 if r is None else stack_size(f, g, t - r, r))), n * n)


RESIDUAL_TOL = 1e-9  # matelem --residual's default --tol


def cmd_matelem(inst: InstanceFile, args) -> int:
    """The matrix element, and with --residual (which --tol and --r need) the weak
    cocycle identity's superoperator residual, passing at or below tol (1 + scale),
    scale the larger norm of its sides: both from the closed-form blocks of phi for
    the flow's drive, formed once."""
    tol = _tolerance(args, RESIDUAL_TOL)
    spec = _need(inst.perturbation, "matelem needs a 'perturbation' section")
    try:
        to_ticks(args.t)
    except ValueError as exc:
        raise InstanceError(f"--t: {exc}") from exc
    n, d = spec.F1.n, spec.F1.d
    for name in (args.f, args.g):
        if name is not None and name not in inst.stepfunctions:
            have = ", ".join(sorted(inst.stepfunctions)) or "none"
            raise InstanceError(f"no step function {name!r} in the instance; it has {have}")
    f = inst.stepfunctions.get(args.f or "f") or StepFunction.zero(d)
    g = inst.stepfunctions.get(args.g or "g") or StepFunction.zero(d)
    a = default_observable(inst)
    r = None
    if args.residual:
        r = args.r if args.r is not None else args.t / 2
        if not (0 <= r <= args.t):
            raise InstanceError("--r must lie in [0, t]")
    elif unread := [f for f, v in (("--tol", args.tol), ("--r", args.r)) if v is not None]:
        raise InstanceError(f"{unread[0]} needs --residual")
    _reserve_matelem(n, d, f, g, args.t, r)
    verdict = None
    rc = 0
    phi = composed_blocks(hp_coefficient_for_flow(spec.theta), spec.F1, spec.F2)
    value = cocycle_matrix_element(phi, f, g, args.t, a)
    if not np.isfinite(value).all():
        raise InstanceError(f"--t {args.t}: the matrix element is not finite")
    if r is not None:
        rep = verify_cocycle_identity(phi, f, g, r=r, t=args.t - r)
        verdict = {"residual": rep["max_residual"], "scale": rep["scale"], "r": r, "t": args.t}
        rc = 0 if rep["max_residual"] <= tol * (1 + rep["scale"]) else 1
    lines = ["row,col,re,im", *_matrix_rows("", value)]
    _emit(args.out, lines, verdict)
    return rc


# --- simulate / compare --------------------------------------------------------

def _finite_rungs(T: float, values: np.ndarray, ladder) -> np.ndarray:
    """values, one entry or block per rung, once finite; else InstanceError naming
    the first rung that overflowed."""
    overflowed = ~np.isfinite(values).reshape(len(ladder), -1).all(axis=1)
    if overflowed.any():
        N = ladder[int(np.argmax(overflowed))]
        raise InstanceError(f"simulation.T = {T}: the estimate at N = {N} is not finite")
    return values


def _flow_drive(G, flow, where: str):
    """The drive of flow: G, the nonzero coefficient section, if flow is exactly
    trivial, else flow's HP coefficient, which a given G must equal at the 1e-8
    `require_unitary_type` applies to the drive.  The HP coefficient is formed only
    there; if it overflows, the input error names where, before any SVD."""
    if G is not None and not (flow.h.any() or flow.l.any() or (flow.W != np.eye(len(flow.W))).any()):
        return G
    H = hp_coefficient_for_flow(flow)
    if not np.isfinite(H.as_full()).all():
        raise InstanceError(f"{where}: its HP coefficient is not finite")
    r = None if G is None else G.as_full() - H.as_full()
    if r is not None and not (np.isfinite(r).all() and np.less_equal(*norm2_gate(r, G.as_full(), 1e-8))):
        raise InstanceError(f"section 'coefficient' is not the HP coefficient of {where}")
    return H if G is None else G


# the largest slot count of a multiplier ladder: its staged residual runs N - split tail
# steps, and a split fraction of 1e-9 leaves split = 1 (0.13 s at N = 2^16 on a 2-vCPU
# host, linear in N)
MULTIPLIER_SLOTS = 1 << 16


def _ladder_errors(inst: InstanceFile, sim: dict) -> list[float]:
    """The simulation ladder's errors, one per rung; InstanceError naming the
    reference, or the first rung, that overflowed.  fk and multiplier run the
    perturbation's theta (the top-level flow or the trivial flow by default, as
    `semigroup` reads it) on `_flow_drive`'s G, which an fk reference reads too.
    hp and isometry read no flow: hp runs the nonzero coefficient section G, and
    isometry F1 = F2 = the coefficient with no drive."""
    kind, T, ladder = sim["kind"], sim["T"], sim["N"]
    n, d = _need(inst.shape(), "simulation needs a section fixing (n, d)")
    if kind == "multiplier" and max(ladder) > MULTIPLIER_SLOTS:
        raise InstanceError(f"simulation.N = {max(ladder)}: a multiplier ladder steps its tail slot by slot, "
                            f"up to N = {MULTIPLIER_SLOTS}")
    G = inst.coefficient if inst.coefficient is not None and inst.coefficient.as_full().any() else None
    if kind in ("fk", "multiplier"):
        spec = _need(inst.perturbation, f"simulation kind {kind!r} needs a 'perturbation' section")
        where = "section 'flow'" if spec.theta is inst.flow else "section 'perturbation': theta"
        G = _flow_drive(G, spec.theta, where)
        # the oracle's cocycle is unitary, and the staged residual (which reads the flow in
        # the interaction picture) an O(h) discretization, only for a unitary-type drive
        require_unitary_type(G)

    if kind == "multiplier":
        splits = [min(N - 1, max(1, round(sim["split_fraction"] * N))) for N in ladder]
        return _finite_rungs(T, multiplier_cocycle_ladder(n, d, ladder, T, G, spec.F1, splits), ladder)
    if kind == "hp":
        expected = expm(T * _need(G, "simulation kind 'hp' needs a nonzero 'coefficient' section").K)
        estimates = hp_vacuum_ladder(n, d, ladder, T, G)
    elif kind == "fk":
        a = default_observable(inst)
        reserve(FK_REFERENCE_WORKSPACE, n * n)
        expected = semigroup_at(composed_vacuum_generator(G, spec.F1, spec.F2), T).apply(a)
        estimates = fk_expectation_ladder(n, d, ladder, T, G, spec.F1, spec.F2, a)
    else:
        # isometry: the fk reading of vacuum_expect(Y* Y) with F1 = F2 = the
        # coefficient, no drive and a = I, against the reference I
        F = _need(inst.coefficient, "simulation kind 'isometry' needs a 'coefficient' section")
        expected = np.eye(n)
        estimates = fk_expectation_ladder(n, d, ladder, T, None, F, F, expected)
    if not np.isfinite(expected).all():
        raise InstanceError(f"simulation.T = {T}: the analytic reference is not finite")
    return norm2_stack(_finite_rungs(T, estimates, ladder) - expected)


def _ladder_report(inst: InstanceFile, column: str) -> tuple[list[float], list[str]]:
    """The simulation ladder's errors, and its CSV lines `N,h,<column>`."""
    sim = _need(inst.simulation, "simulate needs a 'simulation' section")
    T, ladder = sim["T"], sim["N"]
    errors = [float(e) for e in _ladder_errors(inst, sim)]
    return errors, [f"N,h,{column}"] + [f"{N},{_fmt(T / N)},{_fmt(e)}" for N, e in zip(ladder, errors)]


def cmd_simulate(inst: InstanceFile, args) -> int:
    """The ladder and its verdict, by the fixed rule of `ladder_verdict` (errors
    decrease strictly, the last within its cap): it takes no tolerance."""
    errors, lines = _ladder_report(inst, "error")
    full = ladder_verdict(errors)
    verdict = {"monotone": full["monotone"], "final_error": full["final_error"]}
    _emit(args.out, lines, verdict)
    return 0 if full["passed"] else 1


def cmd_compare(inst: InstanceFile, args) -> int:
    """Analytic semigroup vs simulate, per ladder point, for the fk kind."""
    tol = _tolerance(args)
    if _need(inst.simulation, "compare needs a 'simulation' section")["kind"] != "fk":
        raise InstanceError("compare applies to simulation kind 'fk'")
    errors, lines = _ladder_report(inst, "diff")
    verdict = {"final_diff": errors[-1], "tol": tol}
    _emit(args.out, lines, verdict)
    return 0 if errors[-1] <= tol else 1


# --- argument plumbing ---------------------------------------------------------

COMMANDS = {
    "check": cmd_check,
    "semigroup": cmd_semigroup,
    "matelem": cmd_matelem,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfk",
        description="Quantum Feynman-Kac coefficient algebra, semigroups, and discrete oracle.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, tol=None):
        # --tol (default tol) only where the subcommand reads it
        p = sub.add_parser(name, help=summary)
        p.add_argument("--instance", required=True, help="path to a JSON instance file")
        p.add_argument("--out", help="write the primary CSV/JSON report to this path")
        if tol is not None:
            p.add_argument("--tol", type=float, default=tol, help="override the check tolerance")
        return p

    command("check", "classification and structure checks", 1e-8)
    p = command("semigroup", "perturbed-semigroup values P_t(a)", 1e-8)
    p.add_argument("--times", default="1.0", help="comma list of times t")
    p = command("matelem", "cocycle matrix element between exponential vectors")
    p.add_argument("--tol", type=float, help=f"tolerance of the --residual verdict (default {RESIDUAL_TOL:g})")
    p.add_argument("--f", help="name of the left step function (default: f if present, else zero)")
    p.add_argument("--g", help="name of the right step function (default: g if present, else zero)")
    p.add_argument("--t", type=float, default=1.0, help="time horizon")
    p.add_argument("--r", type=float, default=None, help="composition split for --residual (needs it)")
    p.add_argument("--residual", action="store_true", help="also verify the cocycle identity")
    command("simulate", "discrete-oracle error ladder")
    command("compare", "analytic vs simulated values per ladder point", 0.05)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the parser unchanged, so one serves every call
    return build_parser()


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.

    The argument parser is built once per process, on the first call.
    """
    args = _parser().parse_args(argv)
    try:
        inst = load_instance(args.instance)
        known = {name for names in CHECKS.values() for name in names}
        unknown = [c["name"] for c in inst.checks if c["name"] not in known]
        if unknown:
            raise InstanceError(f"unknown check {unknown[0]!r}")
        # an overflow is an input error that the subcommand names, without numpy's warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return COMMANDS[args.command](inst, args)
    except (ValueError, MemoryCapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
