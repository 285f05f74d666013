"""JSON instance files describing problems for the command line.

An instance is a JSON object with optional sections; dimensions must agree
across all sections that are present.  Every section is read through one
checked loader, so a missing key, a value of the wrong type or shape, or
an integer beyond float range in any section is an InstanceError naming the
section, and inside a perturbation also its F1, F2 or theta: the command line
exits 2 on it.

  "coefficient":   {"n", "d", "K", "L", "M", "W"}; n and d are integers
                   >= 1 (bools and fractions refused); matrices are flat
                   row-major lists of [re, im] pairs.  Doubles as the
                   driving cocycle coefficient for simulations.
  "flow":          {"n", "d", "h", "l", "W"} with h Hermitian, W unitary.
  "perturbation":  {"F1": <coefficient>, "F2": <coefficient>,
                    "theta": <flow, optional>}.  When "theta" is absent the
                   instance-level "flow" is used, or the trivial flow.
  "stepfunctions": {name: {"breakpoints": [...], "values": [[[re,im],...],...]}}
  "observable":    flat n x n matrix as [re, im] pairs (default: identity).
  "simulation":    {"T": horizon, "N": [ladder of slot counts],
                    "kind": "fk" | "hp" | "isometry" | "multiplier",
                    "split_fraction": for "multiplier", default 0.25}
  "checks":        [{"name": <string>}, ...]; each command judges its
                   checks at its one --tol
  "seed":          nonnegative integer (default 0)

T and split_fraction are numbers; bools are refused there.

An unknown section, or an unknown key of any object above, is an
InstanceError naming it.  Each number is checked by its section's parser:
each matrix, and each step function's breakpoints and values, as one array
(finite; breakpoints in to_ticks's range; a step function that is not a
regular array of numbers takes the per-item parse instead, for its error),
every scalar where it is read.  When a parser refuses the file, a walk first
covers the whole object, so a NaN or Inf anywhere is reported, at its place,
before any other error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import BlockCoefficient, _integral, _require_keys, coefficient_from_json, matrix_from_pairs
from .flows import FlowGenerator, flow_from_json, trivial_flow
from .linalg import as_complex
from .matrix_elements import stepfunction_from_json
from .perturbations import PerturbationSpec

SECTIONS = ("coefficient", "flow", "perturbation", "stepfunctions", "observable", "simulation", "checks", "seed")
SIMULATION_KINDS = ("fk", "hp", "isometry", "multiplier")
# largest slot count in simulation.N: the channel ladders are meant to reach
# 2^20 (ROADMAP item 2), and rounding dominates their error long before 2^30
MAX_SLOTS = 1 << 30


class InstanceError(ValueError):
    """Malformed or internally inconsistent instance file."""


@dataclass(frozen=True)
class InstanceFile:
    path: str
    coefficient: BlockCoefficient | None = None
    flow: FlowGenerator | None = None
    perturbation: PerturbationSpec | None = None
    stepfunctions: dict = field(default_factory=dict)
    observable: object = None  # n x n ndarray or None
    simulation: dict | None = None
    checks: list = field(default_factory=list)
    seed: int = 0

    def shape(self) -> tuple[int, int] | None:
        """The common (n, d) of whatever sections are present."""
        return next(iter(_shapes(self.coefficient, self.flow, self.perturbation).values()), None)


def _shapes(coefficient, flow, perturbation) -> dict:
    """The (n, d) of each present section that fixes the dimensions."""
    sections = {"coefficient": coefficient, "flow": flow, "perturbation": perturbation and perturbation.F1}
    return {name: (sec.n, sec.d) for name, sec in sections.items() if sec is not None}


def _require_finite(value, where: str) -> None:
    """Every number of an instance must be finite: NaN and Inf are malformed input.

    Walked item by item, so the error names the exact place.  Run only on a
    file a parser refused: on a file they accept, the parsers have checked
    every number.
    """
    if isinstance(value, dict):
        for key, item in value.items():
            _require_finite(item, f"{where}.{key}" if where else str(key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _require_finite(item, f"{where}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        raise InstanceError(f"{where}: non-finite number {value}")


def _checked(where: str, loader, *args):
    """loader(*args), with a KeyError, TypeError, ValueError, IndexError or OverflowError
    it raises (a wrong key, type or shape, or an integer past float range) as InstanceError."""
    try:
        return loader(*args)
    except InstanceError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise InstanceError(f"{where}: {exc}") from exc


def _real(value, name: str) -> float:
    """float(value), refusing the bools that float() reads as 0.0 and 1.0."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def _load_perturbation(section: dict, default_flow: FlowGenerator | None) -> PerturbationSpec:
    """The perturbation section; an error inside F1, F2 or theta names that object."""
    f1 = _checked("section 'perturbation': F1", coefficient_from_json, section["F1"])
    f2 = _checked("section 'perturbation': F2", coefficient_from_json, section["F2"])
    _require_keys(section, ("F1", "F2", "theta"))
    if "theta" in section:
        theta = _checked("section 'perturbation': theta", flow_from_json, section["theta"])
    elif default_flow is not None:
        theta = default_flow
    else:
        theta = trivial_flow(f1.n, f1.d)
    return PerturbationSpec(theta=theta, F1=f1, F2=f2)


def _validate_simulation(sim: dict) -> dict:
    if not isinstance(sim, dict):
        raise InstanceError("section 'simulation' must be an object")
    _require_keys(sim, ("T", "N", "kind", "split_fraction"))
    T, raw, kind = _real(sim["T"], "T"), sim["N"], sim.get("kind", "fk")
    if not 0 < T < math.inf:
        raise InstanceError("section 'simulation': T must be positive and finite")
    if not isinstance(raw, list) or not raw:
        raise InstanceError("section 'simulation': N must be a nonempty list of slot counts")
    ladder = [_integral(v) for v in raw]
    if any(v is None or not 1 <= v <= MAX_SLOTS for v in ladder):
        raise InstanceError(f"simulation.N: slot counts must be integers in [1, 2^30], got {raw}")
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise InstanceError("section 'simulation': N ladder must be strictly increasing")
    if kind not in SIMULATION_KINDS:
        raise InstanceError(f"section 'simulation': kind must be one of {SIMULATION_KINDS}")
    if kind == "multiplier" and ladder[0] < 2:
        # the staged residual splits each rung into a head and a nonempty tail
        raise InstanceError(f"simulation.N: a multiplier ladder needs slot counts >= 2, got {raw}")
    split_fraction = _real(sim.get("split_fraction", 0.25), "split_fraction")
    if not 0 < split_fraction < 1:
        raise InstanceError("section 'simulation': split_fraction must lie in (0, 1)")
    return {"T": T, "N": ladder, "kind": kind, "split_fraction": split_fraction}


def parse_seed(value, where: str) -> int:
    """value as an int, or InstanceError unless it is a nonnegative integer."""
    seed = _integral(value)
    if seed is None or seed < 0:
        raise InstanceError(f"{where}: seed must be a nonnegative integer, got {value!r}")
    return seed


def parse_tolerance(value, where: str) -> float:
    """value as a float, or InstanceError unless it is finite and >= 0."""
    try:
        tol = _real(value, "tolerance")
    except (TypeError, ValueError, OverflowError) as exc:
        raise InstanceError(f"{where}: tolerance must be a number, got {value!r}") from exc
    if not (math.isfinite(tol) and tol >= 0):
        raise InstanceError(f"{where}: tolerance must be finite and nonnegative, got {tol}")
    return tol


def load_instance(path: str) -> InstanceFile:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise InstanceError(f"{path}: top level must be a JSON object")
    return parse_instance(obj, path=path)


def parse_instance(obj: dict, path: str = "<memory>") -> InstanceFile:
    """The instance of a JSON object, every number checked once (see the module
    docstring); a non-finite number is reported before any other error."""
    try:
        return _parse_sections(obj, path)
    except InstanceError:
        _require_finite(obj, "")
        raise


def _parse_sections(obj: dict, path: str) -> InstanceFile:
    unknown = [key for key in obj if key not in SECTIONS]
    if unknown:
        raise InstanceError(f"unknown section {unknown[0]!r}; expected {', '.join(SECTIONS)}")
    coefficient = flow = perturbation = simulation = observable = None
    if "coefficient" in obj:
        coefficient = _checked("section 'coefficient'", coefficient_from_json, obj["coefficient"])
    if "flow" in obj:
        flow = _checked("section 'flow'", flow_from_json, obj["flow"])
    if "perturbation" in obj:
        perturbation = _checked("section 'perturbation'", _load_perturbation, obj["perturbation"], flow)

    named = obj.get("stepfunctions", {})
    if not isinstance(named, dict):
        raise InstanceError("section 'stepfunctions' must be an object of named step functions")
    stepfunctions = {
        name: _checked(f"step function {name!r}", stepfunction_from_json, sf) for name, sf in named.items()
    }

    shapes = _shapes(coefficient, flow, perturbation)
    if len(set(shapes.values())) > 1:
        raise InstanceError(f"sections disagree on (n, d): {shapes}")
    nd = next(iter(shapes.values()), None)

    for name, sf in stepfunctions.items():
        if nd is not None and sf.d != nd[1]:
            raise InstanceError(f"step function {name!r} has d = {sf.d}, sections have d = {nd[1]}")

    if "observable" in obj:
        if nd is None:
            raise InstanceError("'observable' requires a section fixing the dimension n")
        observable = _checked("'observable'", matrix_from_pairs, obj["observable"], nd[0], nd[0])
    if "simulation" in obj:
        simulation = _checked("section 'simulation'", _validate_simulation, obj["simulation"])

    checks = obj.get("checks", [])
    if not isinstance(checks, list) or any(
        not isinstance(c, dict) or not isinstance(c.get("name"), str) for c in checks
    ):
        raise InstanceError("section 'checks' must be a list of {name} objects")
    for check in checks:
        _checked(f"check {check['name']!r}", _require_keys, check, ("name",))

    return InstanceFile(
        path=path,
        coefficient=coefficient,
        flow=flow,
        perturbation=perturbation,
        stepfunctions=stepfunctions,
        observable=observable,
        simulation=simulation,
        checks=checks,
        seed=parse_seed(obj.get("seed", 0), "'seed'"),
    )


def default_observable(inst: InstanceFile):
    """The instance observable, or the identity at the instance dimension."""
    if inst.observable is not None:
        return as_complex(inst.observable)
    nd = inst.shape()
    if nd is None:
        raise InstanceError("instance fixes no dimension; cannot default the observable")
    return np.eye(nd[0], dtype=complex)
