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

Exit codes: 0 all checks passed, 1 a check failed, 2 input error (or a
numerical failure on it).
Numeric output uses 17 significant digits so regression files are stable.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .coefficients import classify
from .flows import (
    FlowGenerator,
    NotUnitaryGeneratorError,
    from_hp_coefficient,
    require_unitary_type,
    validate_structure,
)
from .instances import InstanceError, InstanceFile, _real, default_observable, load_instance, parse_seed
from .linalg import DimensionMismatchError, NotPositiveSemidefiniteError, expm, norm2, norm2_stack
from .matrix_elements import StepFunction, cocycle_matrix_element, to_ticks, verify_cocycle_identity
from .perturbations import (
    PerturbationSpec,
    is_cp,
    is_unital,
    phi_perturbed,
    semigroup_at,
    vacuum_generator,
)
from .toy_fock import (
    MemoryCapExceededError,
    fk_expectation_ladder,
    hp_vacuum_ladder,
    isometry_defect_ladder,
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
        with open(out_path, "w") as fh:
            fh.write(text)
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


def _tolerance(value, where: str) -> float:
    """value as a float, or InstanceError unless it is finite and >= 0."""
    try:
        tol = _real(value, "tolerance")
    except (TypeError, ValueError, OverflowError) as exc:
        raise InstanceError(f"{where}: tolerance must be a number, got {value!r}") from exc
    if not (math.isfinite(tol) and tol >= 0):
        raise InstanceError(f"{where}: tolerance must be finite and nonnegative, got {tol}")
    return tol


def _need(section, message: str):
    """section, or InstanceError(message) when the instance lacks it."""
    if section is None:
        raise InstanceError(message)
    return section


# The check names each subcommand judges.  An instance has one `checks` list;
# each subcommand reads the names it owns and skips the others, and a name that
# no subcommand owns is an input error.
CHECKS = {
    "check": ("isometric_gen", "coisometric_nec", "contractive_gen", "quasicontractive", "structure"),
    "semigroup": ("unital", "cp", "contractive"),
}


def _owned_checks(inst: InstanceFile, command: str) -> tuple[list, list]:
    """(the instance's checks that command owns, the names no subcommand owns)."""
    known = {name for names in CHECKS.values() for name in names}
    unknown = [c["name"] for c in inst.checks if c["name"] not in known]
    return [c for c in inst.checks if c["name"] in CHECKS[command]], unknown


# --- check -------------------------------------------------------------------

def cmd_check(inst: InstanceFile, args) -> int:
    if inst.coefficient is None and inst.flow is None:
        raise InstanceError("check needs a 'coefficient' or 'flow' section")
    checks, unknown = _owned_checks(inst, "check")
    if unknown:
        raise InstanceError(f"unknown check {unknown[0]!r}")
    report = {}
    flags = None
    if inst.coefficient is not None:
        flags = classify(inst.coefficient, tol=args.tol)
        report["coefficient"] = asdict(flags)
    structure = None
    if inst.flow is not None:
        structure = validate_structure(inst.flow, tol=max(args.tol, 1e-11), seed=args.seed)
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
        chk_tol = _tolerance(chk["tol"], f"check {name!r}") if "tol" in chk else None
        if name == "structure":
            _need(inst.flow, "check 'structure' needs a 'flow' section")
            # the residuals do not depend on tol: re-judge, do not re-run
            use = structure if chk_tol is None else replace(structure, tol=chk_tol)
            passed = use.passed
        else:
            coefficient = _need(inst.coefficient, f"check {name!r} needs a 'coefficient' section")
            use = flags if chk_tol is None else classify(coefficient, tol=chk_tol)
            passed = bool(getattr(use, name))
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


def cmd_semigroup(inst: InstanceFile, args) -> int:
    spec = _need(inst.perturbation, "semigroup needs a 'perturbation' section")
    times = _parse_times(args.times)
    checks, unknown = _owned_checks(inst, "semigroup")
    if unknown:
        raise InstanceError(f"unknown semigroup checks: {unknown}")
    wanted = [c["name"] for c in checks]
    a = default_observable(inst)
    n = spec.F1.n
    gen = vacuum_generator(phi_perturbed(spec))
    lines = ["t,row,col,re,im"]
    unital = cp = contractive = True
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

def cmd_matelem(inst: InstanceFile, args) -> int:
    spec = _need(inst.perturbation, "matelem needs a 'perturbation' section")
    try:
        to_ticks(args.t)
    except ValueError as exc:
        raise InstanceError(f"--t: {exc}") from exc
    d = spec.F1.d
    phi = phi_perturbed(spec)
    for name in (args.f, args.g):
        if name is not None and name not in inst.stepfunctions:
            have = ", ".join(sorted(inst.stepfunctions)) or "none"
            raise InstanceError(f"no step function {name!r} in the instance; it has {have}")
    f = inst.stepfunctions.get(args.f or "f") or StepFunction.zero(d)
    g = inst.stepfunctions.get(args.g or "g") or StepFunction.zero(d)
    a = default_observable(inst)
    lines = ["row,col,re,im", *_matrix_rows("", cocycle_matrix_element(phi, f, g, args.t, a))]
    verdict = None
    rc = 0
    if args.residual:
        r = args.r if args.r is not None else args.t / 2
        if not (0 <= r <= args.t):
            raise InstanceError("--r must lie in [0, t]")
        rep = verify_cocycle_identity(phi, f, g, r=r, t=args.t - r, seed=args.seed)
        verdict = {"residual": rep["max_residual"], "r": r, "t": args.t}
        rc = 0 if rep["max_residual"] <= args.tol else 1
    _emit(args.out, lines, verdict)
    return rc


# --- simulate / compare --------------------------------------------------------

def _oracle_setup(inst: InstanceFile):
    """(n, d, G_drive): the driving cocycle coefficient the oracle realizes.

    A nontrivial free flow (the perturbation's theta, else the instance flow)
    must be given as the HP coefficient section; the analytic side of an fk
    comparison then uses the flow generator induced by that coefficient, so
    both sides describe the same dynamics by construction.  G_drive is None
    for the trivial flow.
    """
    n, d = _need(inst.shape(), "simulation needs a section fixing (n, d)")
    G = inst.coefficient
    if G is not None and not G.as_full().any():
        G = None
    flow = inst.flow if inst.perturbation is None else inst.perturbation.theta
    if G is None and flow is not None and not _is_trivial_flow(flow):
        raise InstanceError(
            "simulation of a nontrivial flow needs the 'coefficient' section "
            "(the oracle only realizes unitarily implemented flows)"
        )
    return n, d, G


def _finite_ladder(T: float, expected: np.ndarray, estimates: np.ndarray, ladder) -> np.ndarray:
    """estimates - expected, once both are finite; else InstanceError naming the
    reference, or the first rung, that overflowed."""
    if not np.isfinite(expected).all():
        raise InstanceError(f"simulation.T = {T}: the analytic reference is not finite")
    overflowed = ~np.isfinite(estimates).all(axis=(1, 2))
    if overflowed.any():
        N = ladder[int(np.argmax(overflowed))]
        raise InstanceError(f"simulation.T = {T}: the estimate at N = {N} is not finite")
    return estimates - expected


def _ladder_errors(inst: InstanceFile, sim: dict) -> list[float]:
    """The simulation ladder's errors, one per rung."""
    kind, T, ladder, scheme = sim["kind"], sim["T"], sim["N"], sim["scheme"]
    n, d, G = _oracle_setup(inst)

    if kind == "hp":
        _need(G, "simulation kind 'hp' needs a nonzero 'coefficient' section")
        expected = expm(T * G.K)
        return norm2_stack(_finite_ladder(T, expected, hp_vacuum_ladder(n, d, ladder, T, G, scheme), ladder))

    if kind == "fk":
        spec = _need(inst.perturbation, "simulation kind 'fk' needs a 'perturbation' section")
        if G is not None:
            spec = PerturbationSpec(theta=from_hp_coefficient(G), F1=spec.F1, F2=spec.F2)
        a = default_observable(inst)
        expected = semigroup_at(vacuum_generator(phi_perturbed(spec)), T).apply(a)
        est = fk_expectation_ladder(n, d, ladder, T, G, spec.F1, spec.F2, a, scheme)
        return norm2_stack(_finite_ladder(T, expected, est, ladder))

    if kind == "isometry":
        F = _need(inst.coefficient, "simulation kind 'isometry' needs a 'coefficient' section")
        return isometry_defect_ladder(n, d, ladder, T, F, scheme)

    # multiplier
    F = _need(inst.perturbation, "simulation kind 'multiplier' needs a 'perturbation' section").F1
    if G is not None:
        # the staged residual reads the flow in the interaction picture,
        # an O(h) discretization only for a unitary-type drive
        require_unitary_type(G)
    frac = sim["split_fraction"]
    return [
        multiplier_cocycle_residual(n, d, N, T, G, F, min(N - 1, max(1, round(frac * N))), scheme)
        for N in ladder
    ]


def _ladder_report(inst: InstanceFile, column: str) -> tuple[list[float], list[str]]:
    """The simulation ladder's errors, and its CSV lines `N,h,<column>`.

    Overflow is an input error, reported without numpy's warnings: an hp or fk
    ladder names its non-finite reference or first non-finite rung; an SVD that
    does not converge on an overflowed ladder (an isometry or multiplier ladder,
    whose norms the oracle takes inside) names the ladder.
    """
    sim = _need(inst.simulation, "simulate needs a 'simulation' section")
    T, ladder = sim["T"], sim["N"]
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            errors = [float(e) for e in _ladder_errors(inst, sim)]
        except np.linalg.LinAlgError as exc:
            raise InstanceError(f"simulation.T = {T}: the {sim['kind']} ladder is not finite ({exc})") from exc
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
            _tolerance(args.tol, "--tol")
        inst = load_instance(args.instance)
        args.seed = inst.seed if args.seed is None else parse_seed(args.seed, "--seed")
        return COMMANDS[args.command](inst, args)
    except (
        InstanceError,
        DimensionMismatchError,
        NotUnitaryGeneratorError,
        MemoryCapExceededError,
        NotPositiveSemidefiniteError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
