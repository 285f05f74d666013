"""Command-line entry point.

Subcommands (all driven by a JSON instance file, see `instances`):

  check      classification flags, minimal quasicontractivity shift, flow
             structure residuals; exit 0 iff all requested checks pass
  semigroup  P_t(a) entries as CSV for a list of times, with unital / CP /
             contractivity flags
  matelem    cocycle matrix element between exponential vectors of step
             functions, optionally with the weak cocycle-identity residual
  simulate   discrete-oracle error ladder over slot counts N as CSV
             (N, h, error) plus a JSON verdict {monotone, final_error}
  compare    analytic semigroup value vs discrete estimate per ladder point

Exit codes: 0 all checks passed, 1 a check failed, 2 input error (any
ValueError, numerical failures on the input included, or the memory cap).
Numeric output uses 17 significant digits so regression files are stable.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .coefficients import BlockCoefficient, classify
from .flows import FlowGenerator, hp_coefficient_for_flow, require_unitary_type, validate_structure
from .instances import InstanceError, InstanceFile, default_observable, load_instance, parse_seed, parse_tolerance
from .linalg import expm, expm_stack_workspace, norm2, norm2_stack
from .matrix_elements import StepFunction, cocycle_matrix_element, stack_size, to_ticks, verify_cocycle_identity
from .perturbations import (
    COMPOSED_BLOCKS_WORKSPACE,
    check_superoperator_memory,
    composed_blocks,
    composed_vacuum_generator,
    is_cp,
    is_unital,
    semigroup_at,
)
from .toy_fock import (
    MemoryCapExceededError,
    fk_expectation_ladder,
    hp_vacuum_ladder,
    ladder_verdict,
    multiplier_cocycle_residual,
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


def _is_trivial_flow(fg: FlowGenerator) -> bool:
    return (
        norm2(fg.h) < 1e-14
        and norm2(fg.l) < 1e-14
        and norm2(fg.W - np.eye(fg.W.shape[0])) < 1e-14
    )


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


# --- check -------------------------------------------------------------------

def _overflow_checked(section: str, fn, *args, **kwargs):
    """fn(*args, **kwargs) without numpy's warnings; an overflow it refuses
    (FloatingPointError) is an input error that names the section."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(*args, **kwargs)
    except FloatingPointError as exc:
        raise InstanceError(f"section {section!r}: {exc}") from exc


def cmd_check(inst: InstanceFile, args) -> int:
    if inst.coefficient is None and inst.flow is None:
        raise InstanceError("check needs a 'coefficient' or 'flow' section")
    checks = _owned_checks(inst, "check")
    report = {}
    flags = structure = None
    if inst.coefficient is not None:
        flags = _overflow_checked("coefficient", classify, inst.coefficient, tol=args.tol)
        report["coefficient"] = asdict(flags)
    if inst.flow is not None:
        tol = max(args.tol, 1e-11)
        structure = _overflow_checked("flow", validate_structure, inst.flow, tol=tol, seed=args.seed)
        report["flow"] = {
            "residuals": {k: float(v) for k, v in structure.residuals.items()},
            "max_residual": structure.max_residual,
            "passed": structure.passed,
        }

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


# superoperators on M_n that `cmd_semigroup` reserves; tracemalloc peak of a whole
# run at n = 8 and 12, d = 1..3, four times: 11.3 to 12.2
SEMIGROUP_WORKSPACE = 13
# and the fk reference of `simulate`/`compare` (one P_T): 10.0 at n = 8 to 20, d = 1..3
FK_REFERENCE_WORKSPACE = 11


def cmd_semigroup(inst: InstanceFile, args) -> int:
    spec = _need(inst.perturbation, "semigroup needs a 'perturbation' section")
    times = _parse_times(args.times)
    wanted = [c["name"] for c in _owned_checks(inst, "semigroup")]
    a = default_observable(inst)
    n = spec.F1.n
    check_superoperator_memory(n, SEMIGROUP_WORKSPACE)
    lines = ["t,row,col,re,im"]
    unital = cp = contractive = True
    # an overflow is the input error below, reported without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        gen = composed_vacuum_generator(hp_coefficient_for_flow(spec.theta), spec.F1, spec.F2)
        for t in times:
            P = semigroup_at(gen, t)
            if not np.isfinite(P.mat).all():
                raise InstanceError(f"--times {t}: P_t = exp(t L) is not finite")
            lines += _matrix_rows(f"{_fmt(t)},", P.apply(a))
            unital = unital and is_unital(P, tol=args.tol)
            cp = cp and is_cp(P, tol=args.tol)
            contractive = contractive and norm2(P.apply(np.eye(n))) <= 1 + args.tol
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

    def reserve(k: int) -> None:
        workspace = max(COMPOSED_BLOCKS_WORKSPACE * blocks, 2 * k + expm_stack_workspace(k, n * n))
        check_superoperator_memory(n, blocks + workspace)

    try:
        # a partition has at most one interval more than f and g have breakpoints
        reserve((1 if r is None else 3) * (f.ticks.size + g.ticks.size + 1))
    except MemoryCapExceededError:
        reserve(max(stack_size(f, g, t), 0 if r is None else stack_size(f, g, t - r, r)))


def cmd_matelem(inst: InstanceFile, args) -> int:
    """The matrix element, and with --residual the weak cocycle identity, from the
    closed-form blocks of phi for the flow's drive, formed once for both.  The
    residual passes at or below tol (1 + scale), scale the larger of its sides."""
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
    _reserve_matelem(n, d, f, g, args.t, r)
    verdict = None
    rc = 0
    # an overflow is the input error below, reported without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        phi = composed_blocks(hp_coefficient_for_flow(spec.theta), spec.F1, spec.F2)
        value = cocycle_matrix_element(phi, f, g, args.t, a)
        if not np.isfinite(value).all():
            raise InstanceError(f"--t {args.t}: the matrix element is not finite")
        if r is not None:
            rep = verify_cocycle_identity(phi, f, g, r=r, t=args.t - r, seed=args.seed)
            verdict = {"residual": rep["max_residual"], "scale": rep["scale"], "r": r, "t": args.t}
            rc = 0 if rep["max_residual"] <= args.tol * (1 + rep["scale"]) else 1
    lines = ["row,col,re,im", *_matrix_rows("", value)]
    _emit(args.out, lines, verdict)
    return rc


# --- simulate / compare --------------------------------------------------------

def _rung_overflow(T: float, N: int) -> InstanceError:
    return InstanceError(f"simulation.T = {T}: the estimate at N = {N} is not finite")


def _finite_ladder(T: float, expected: np.ndarray, estimates: np.ndarray, ladder) -> np.ndarray:
    """estimates - expected, once both are finite; else InstanceError naming the
    reference, or the first rung, that overflowed."""
    if not np.isfinite(expected).all():
        raise InstanceError(f"simulation.T = {T}: the analytic reference is not finite")
    overflowed = ~np.isfinite(estimates).all(axis=(1, 2))
    if overflowed.any():
        raise _rung_overflow(T, ladder[int(np.argmax(overflowed))])
    return estimates - expected


def _ladder_errors(inst: InstanceFile, sim: dict) -> list[float]:
    """The simulation ladder's errors, one per rung.

    The oracle realizes the flow driven by G, and an fk reference uses the flow
    of H.  A nontrivial free flow (the perturbation's theta, else the instance
    flow) must be given as the HP coefficient section: then G = H = that section.
    Without a nonzero one the instance has no drive: its flow must be trivial, G
    is the zero coefficient and H the flow's own HP coefficient, zero up to rounding.
    """
    kind, T, ladder = sim["kind"], sim["T"], sim["N"]
    n, d = _need(inst.shape(), "simulation needs a section fixing (n, d)")
    G = H = inst.coefficient
    if G is None or not G.as_full().any():
        flow = inst.flow if inst.perturbation is None else inst.perturbation.theta
        if flow is not None and not _is_trivial_flow(flow):
            raise InstanceError(
                "simulation of a nontrivial flow needs the 'coefficient' section "
                "(the oracle only realizes unitarily implemented flows)"
            )
        if kind == "hp":
            raise InstanceError("simulation kind 'hp' needs a nonzero 'coefficient' section")
        G = BlockCoefficient.from_full(np.zeros(((d + 1) * n,) * 2), n)
        H = G if flow is None else hp_coefficient_for_flow(flow)

    if kind == "multiplier":
        F = _need(inst.perturbation, "simulation kind 'multiplier' needs a 'perturbation' section").F1
        # the staged residual reads the flow in the interaction picture,
        # an O(h) discretization only for a unitary-type drive
        require_unitary_type(G)
        frac, errors = sim["split_fraction"], []
        for N in ladder:
            split = min(N - 1, max(1, round(frac * N)))
            try:
                errors.append(multiplier_cocycle_residual(n, d, N, T, G, F, split))
            except np.linalg.LinAlgError:  # its norm is taken inside: an SVD of an overflow
                errors.append(math.nan)
            if not math.isfinite(errors[-1]):
                raise _rung_overflow(T, N)
        return errors

    if kind == "hp":
        expected = expm(T * G.K)
        estimates = hp_vacuum_ladder(n, d, ladder, T, G)
    elif kind == "fk":
        spec = _need(inst.perturbation, "simulation kind 'fk' needs a 'perturbation' section")
        require_unitary_type(G)
        a = default_observable(inst)
        check_superoperator_memory(n, FK_REFERENCE_WORKSPACE)
        expected = semigroup_at(composed_vacuum_generator(H, spec.F1, spec.F2), T).apply(a)
        estimates = fk_expectation_ladder(n, d, ladder, T, G, spec.F1, spec.F2, a)
    else:
        # isometry: the fk reading of vacuum_expect(Y* Y) with F1 = F2 = the
        # coefficient, no drive and a = I, against the reference I
        F = _need(inst.coefficient, "simulation kind 'isometry' needs a 'coefficient' section")
        expected = np.eye(n)
        estimates = fk_expectation_ladder(n, d, ladder, T, None, F, F, expected)
    return norm2_stack(_finite_ladder(T, expected, estimates, ladder))


def _ladder_report(inst: InstanceFile, column: str) -> tuple[list[float], list[str]]:
    """The simulation ladder's errors, and its CSV lines `N,h,<column>`.

    Overflow is an input error, reported without numpy's warnings: every kind
    names its non-finite reference or its first non-finite rung.
    """
    sim = _need(inst.simulation, "simulate needs a 'simulation' section")
    T, ladder = sim["T"], sim["N"]
    with np.errstate(over="ignore", invalid="ignore"):
        errors = [float(e) for e in _ladder_errors(inst, sim)]
    return errors, [f"N,h,{column}"] + [f"{N},{_fmt(T / N)},{_fmt(e)}" for N, e in zip(ladder, errors)]


def cmd_simulate(inst: InstanceFile, args) -> int:
    if args.tol is not None:
        raise InstanceError(
            "--tol: simulate takes no tolerance; its verdict is the fixed ladder rule "
            "(errors decrease strictly, the last within its cap)"
        )
    errors, lines = _ladder_report(inst, "error")
    full = ladder_verdict(errors)
    verdict = {"monotone": full["monotone"], "final_error": full["final_error"]}
    _emit(args.out, lines, verdict)
    return 0 if full["passed"] else 1


def cmd_compare(inst: InstanceFile, args) -> int:
    """Analytic semigroup vs simulate, per ladder point, for the fk kind."""
    if _need(inst.simulation, "compare needs a 'simulation' section")["kind"] != "fk":
        raise InstanceError("compare applies to simulation kind 'fk'")
    errors, lines = _ladder_report(inst, "diff")
    verdict = {"final_diff": errors[-1], "tol": args.tol}
    _emit(args.out, lines, verdict)
    return 0 if errors[-1] <= args.tol else 1


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

    def common(p, tol=None):
        p.add_argument("--instance", required=True, help="path to a JSON instance file")
        p.add_argument("--out", help="write the primary CSV/JSON report to this path")
        p.add_argument("--tol", type=float, default=tol, help="override the check tolerance")
        p.add_argument("--seed", type=int, default=None, help="override the instance seed")

    common(sub.add_parser("check", help="classification and structure checks"), 1e-8)
    p = sub.add_parser("semigroup", help="perturbed-semigroup values P_t(a)")
    common(p, 1e-8)
    p.add_argument("--times", default="1.0", help="comma list of times t")
    p = sub.add_parser("matelem", help="cocycle matrix element between exponential vectors")
    common(p, 1e-9)
    p.add_argument("--f", help="name of the left step function (default: f if present, else zero)")
    p.add_argument("--g", help="name of the right step function (default: g if present, else zero)")
    p.add_argument("--t", type=float, default=1.0, help="time horizon")
    p.add_argument("--r", type=float, default=None, help="composition split for --residual")
    p.add_argument("--residual", action="store_true", help="also verify the cocycle identity")
    common(sub.add_parser("simulate", help="discrete-oracle error ladder"))
    common(sub.add_parser("compare", help="analytic vs simulated values per ladder point"), 0.05)
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
        if args.tol is not None:
            parse_tolerance(args.tol, "--tol")
        inst = load_instance(args.instance)
        known = {name for names in CHECKS.values() for name in names}
        unknown = [c["name"] for c in inst.checks if c["name"] not in known]
        if unknown:
            raise InstanceError(f"unknown check {unknown[0]!r}")
        args.seed = inst.seed if args.seed is None else parse_seed(args.seed, "--seed")
        return COMMANDS[args.command](inst, args)
    except (ValueError, MemoryCapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
