"""JSON instance files describing problems for the command line.

An instance is a JSON object with optional sections; dimensions must agree
across all sections that are present.  Every section is read through one
checked loader, so a missing key, a value of the wrong type or shape, or
an integer beyond float range in any section is an InstanceError naming the
section: the command line exits 2 on it.

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
                    "scheme": "euler" (default) | "exponential",
                    "split_fraction": for "multiplier", default 0.25}
  "checks":        [{"name": <string>, "tol": optional}, ...]
  "seed":          nonnegative integer (default 0)

T, split_fraction and a check's tol are numbers; bools are refused there.

Every number is checked once.  Each matrix, and each step function's
breakpoints and values, is converted to one array by its section parser and
checked there (finite; breakpoints in to_ticks's range); a step function that
is not a regular array of numbers takes the per-item parse instead, for its
error.  A walk checks every other number for finiteness.  On any error the
walk first covers the whole object, so a NaN or Inf anywhere is reported, at
its place, before any other error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import BlockCoefficient, _integral, coefficient_from_json, matrix_from_pairs
from .flows import FlowGenerator, flow_from_json, trivial_flow
from .linalg import as_complex
from .matrix_elements import StepFunction, _step_arrays, stepfunction_from_json
from .perturbations import PerturbationSpec
from .toy_fock import SCHEMES

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

    A regular list of plain numbers is checked as one array; ragged lists,
    lists of objects or strings, and lists holding a non-finite number are
    walked item by item, so the error names the exact place.
    """
    if isinstance(value, dict):
        for key, item in value.items():
            _require_finite(item, f"{where}.{key}" if where else str(key))
    elif isinstance(value, list):
        try:
            arr = np.array(value)
        except ValueError:  # ragged
            arr = None
        if arr is not None and arr.dtype.kind in "biuf" and np.isfinite(arr).all():
            return
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
    f1 = coefficient_from_json(section["F1"])
    f2 = coefficient_from_json(section["F2"])
    if "theta" in section:
        theta = flow_from_json(section["theta"])
    elif default_flow is not None:
        theta = default_flow
    else:
        theta = trivial_flow(f1.n, f1.d)
    return PerturbationSpec(theta=theta, F1=f1, F2=f2)


def _validate_simulation(sim: dict) -> dict:
    if not isinstance(sim, dict):
        raise InstanceError("section 'simulation' must be an object")
    out = dict(sim)
    out["T"] = _real(sim["T"], "T")
    raw = sim["N"]
    if not 0 < out["T"] < math.inf:
        raise InstanceError("section 'simulation': T must be positive and finite")
    if not isinstance(raw, list) or not raw:
        raise InstanceError("section 'simulation': N must be a nonempty list of slot counts")
    ladder = [_integral(v) for v in raw]
    if any(v is None or not 1 <= v <= MAX_SLOTS for v in ladder):
        raise InstanceError(f"simulation.N: slot counts must be integers in [1, 2^30], got {raw}")
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise InstanceError("section 'simulation': N ladder must be strictly increasing")
    out["N"] = ladder
    out["kind"] = sim.get("kind", "fk")
    if out["kind"] not in SIMULATION_KINDS:
        raise InstanceError(f"section 'simulation': kind must be one of {SIMULATION_KINDS}")
    out["scheme"] = sim.get("scheme", "euler")
    if out["scheme"] not in SCHEMES:
        raise InstanceError(f"section 'simulation': scheme must be one of {SCHEMES}")
    out["split_fraction"] = _real(sim.get("split_fraction", 0.25), "split_fraction")
    if not (0 < out["split_fraction"] < 1):
        raise InstanceError("section 'simulation': split_fraction must lie in (0, 1)")
    return out


def parse_seed(value, where: str) -> int:
    """value as an int, or InstanceError unless it is a nonnegative integer."""
    seed = _integral(value)
    if seed is None or seed < 0:
        raise InstanceError(f"{where}: seed must be a nonnegative integer, got {value!r}")
    return seed


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


# the number lists of a coefficient and of a flow section, which their parsers
# convert and check as arrays
_MATRICES = {"coefficient": ("K", "L", "M", "W"), "flow": ("h", "l", "W")}


def _without(section: dict, keys) -> dict:
    return {key: item for key, item in section.items() if key not in keys}


def _unread(obj: dict, arrays: set) -> dict:
    """The parsed obj without the lists its section parsers converted and checked
    as arrays: every matrix, and the breakpoints and values of the step functions
    named in arrays.  What is left keeps its order, so the walk names the same
    first non-finite number in it as in obj."""
    out = _without(obj, ("observable",))
    for key, lists in _MATRICES.items():
        if key in obj:
            out[key] = _without(obj[key], lists)
    if "perturbation" in obj:
        out["perturbation"] = {
            key: _without(item, _MATRICES["flow" if key == "theta" else "coefficient"])
            if key in ("F1", "F2", "theta") else item
            for key, item in obj["perturbation"].items()
        }
    if "stepfunctions" in obj:
        out["stepfunctions"] = {
            name: _without(sf, ("breakpoints", "values")) if name in arrays else sf
            for name, sf in obj["stepfunctions"].items()
        }
    return out


def parse_instance(obj: dict, path: str = "<memory>") -> InstanceFile:
    """The instance of a JSON object, every number checked once (see the module
    docstring); a non-finite number is reported before any other error."""
    try:
        inst, arrays = _parse_sections(obj, path)
    except InstanceError:
        _require_finite(obj, "")
        raise
    _require_finite(_unread(obj, arrays), "")
    return inst


def _parse_sections(obj: dict, path: str) -> tuple[InstanceFile, set]:
    """(the instance, the names of the step functions read as arrays)."""
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
    stepfunctions, arrays = {}, set()
    for name, sf in named.items():
        where = f"step function {name!r}"
        read = _checked(where, _step_arrays, sf)
        if read is None:  # not a regular array: the per-item parse, and the walk, read it
            stepfunctions[name] = _checked(where, stepfunction_from_json, sf)
        else:
            stepfunctions[name] = _checked(where, StepFunction, *read)
            arrays.add(name)

    shapes = _shapes(coefficient, flow, perturbation)
    if len(set(shapes.values())) > 1:
        raise InstanceError(f"sections disagree on (n, d): {shapes}")
    nd = next(iter(shapes.values()), None)

    if nd is not None:
        for name, sf in stepfunctions.items():
            if sf.d != nd[1]:
                raise InstanceError(
                    f"step function {name!r} has d = {sf.d}, sections have d = {nd[1]}"
                )

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
        raise InstanceError("section 'checks' must be a list of {name, tol?} objects")

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
    ), arrays


def default_observable(inst: InstanceFile):
    """The instance observable, or the identity at the instance dimension."""
    if inst.observable is not None:
        return as_complex(inst.observable)
    nd = inst.shape()
    if nd is None:
        raise InstanceError("instance fixes no dimension; cannot default the observable")
    return np.eye(nd[0], dtype=complex)
