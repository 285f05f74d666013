"""JSON instance files describing problems for the command line.

An instance is a JSON object with optional sections; dimensions must agree
across all sections that are present.  Every section is read through one
checked loader, so a section or object that is not a JSON object, a missing
key ("missing key 'K'"), a value of the wrong type or shape, or an integer
beyond float range in any section is an InstanceError naming the section,
and inside a perturbation also its F1, F2 or theta: the command line exits 2
on it.  orjson decodes the file; only text it refuses (NaN, Infinity, a
number past float range, a byte-order mark, invalid UTF-8, malformed text)
is read again by the json module, which reads it or names its fault as
before, so the one difference is that orjson reads an integer outside
[-2^63, 2^64) as the float nearest it.

  "coefficient":   {"n", "d", "K", "L", "M", "W"}; n and d are integers
                   >= 1 (bools and fractions refused); matrices are flat
                   row-major lists of [re, im] pairs.  The generator of an
                   hp or isometry simulation; for fk and multiplier, if nonzero,
                   their flow's drive (its HP coefficient, if it is not trivial).
  "flow":          {"n", "d", "h", "l", "W"} with h Hermitian, W unitary.
  "perturbation":  {"F1": <coefficient>, "F2": <coefficient>,
                    "theta": <flow, optional>}.  When "theta" is absent the
                   instance-level "flow" is used, or the trivial flow.
  "stepfunctions": {name: {"breakpoints": [...], "values": [[[re,im],...],...]}};
                   breakpoints [0] and values [] are the zero function, at
                   the d the other sections fix.
  "observable":    flat n x n matrix as [re, im] pairs (default: identity).
  "simulation":    {"T": horizon, "N": [ladder of slot counts],
                    "kind": "fk" | "hp" | "isometry" | "multiplier",
                    "split_fraction": for "multiplier", default 0.25}
  "checks":        [{"name": <string>}, ...]; each command judges its
                   checks at its one --tol

T and split_fraction are ints or floats: bools and strings, even "1", are
refused there.

An unknown section, or an unknown key of any object above, is an
InstanceError naming it.  Each number is checked once, where it is read:
every scalar by its section's parser, and every array of numbers by one
reader, `_floats`.  A well-formed file is read in two conversions
(`_parse_whole`): one of every [re, im] pair in it (the coefficient, flow
and perturbation matrices, the observable and every step function's
values) and one of every breakpoint, each split into read-only views.  A
file that read does not accept in full is read section by section
(`_parse_sections`), one conversion per matrix, observable and step
function field, so that the error names the section, the matrix and the
pair; that reader is also the reference the two-conversion read is tested
against.  `_floats` takes ints, floats and bools, as float() reads them,
and refuses strings, irregular arrays and non-finite entries, naming the
first [re, im] pair, breakpoint or value at fault; each caller then checks
its shape, and breakpoints are checked against to_ticks's range.
Objects built of checked parts skip their constructors' checks; a flow's
Hermitian and unitary gates still run.
When a parser refuses the file, a walk first covers the whole object, so a
NaN or Inf anywhere is reported, at its place, before any other error.

The wire format itself, the *_from_json readers and *_to_json writers of
coefficients, flows and step functions, is the last section of this module.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from dataclasses import dataclass, field

import numpy as np
import orjson

from .coefficients import BlockCoefficient
from .flows import FlowGenerator, trivial_flow
from .linalg import DimensionMismatchError, as_complex
from .matrix_elements import StepFunction, _breakpoint_ticks, _steps
from .perturbations import PerturbationSpec

SECTIONS = ("coefficient", "flow", "perturbation", "stepfunctions", "observable", "simulation", "checks")
SIMULATION_KINDS = ("fk", "hp", "isometry", "multiplier")
# the keys of a coefficient, a flow and a perturbation object; a coefficient's and a
# flow's matrices follow n and d
COEFFICIENT_KEYS = ("n", "d", "K", "L", "M", "W")
FLOW_KEYS = ("n", "d", "h", "l", "W")
PERTURBATION_KEYS = ("F1", "F2", "theta")
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

    def shape(self) -> tuple[int, int] | None:
        """The common (n, d) of whatever sections are present."""
        return next(iter(_shapes(self.coefficient, self.flow, self.perturbation).values()), None)


def _shapes(coefficient, flow, perturbation) -> dict:
    """The (n, d) of each present section that fixes the dimensions."""
    sections = {"coefficient": coefficient, "flow": flow, "perturbation": perturbation and perturbation.F1}
    return {name: (sec.n, sec.d) for name, sec in sections.items() if sec is not None}


def _require_finite(value, where: str) -> None:
    """Every number of an instance must be finite: NaN and Inf are malformed input.

    Walked item by item, in file order, so the error names the exact place;
    on a stack of its own, so that no depth of nesting exhausts Python's.  Run
    only on a file a parser refused: on a file they accept, the parsers have
    checked every number.
    """
    todo = [(where, value)]
    while todo:
        where, value = todo.pop()
        if isinstance(value, dict):
            todo += reversed([(f"{where}.{key}" if where else str(key), item) for key, item in value.items()])
        elif isinstance(value, list):
            todo += reversed([(f"{where}[{i}]", item) for i, item in enumerate(value)])
        elif isinstance(value, float) and not math.isfinite(value):
            raise InstanceError(f"{where}: non-finite number {value}")


def _checked(where: str, loader, *args):
    """loader(*args), with a KeyError, TypeError, ValueError, IndexError or OverflowError
    it raises (a missing key, a wrong type or shape, or an integer past float range) as
    InstanceError."""
    try:
        return loader(*args)
    except InstanceError:
        raise
    except KeyError as exc:
        raise InstanceError(f"{where}: missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError, IndexError, OverflowError) as exc:
        raise InstanceError(f"{where}: {exc}") from exc


def _real(value, name: str) -> float:
    """float(value) of an int or a float: not a bool, which float() reads as 0.0 or
    1.0, nor a string, which it reads as the number it spells."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def _load_perturbation(section: dict, default_flow: FlowGenerator | None) -> PerturbationSpec:
    """The perturbation section; an error inside F1, F2 or theta names that object."""
    if not isinstance(section, dict):
        raise TypeError("a perturbation must be an object")
    f1 = _checked("section 'perturbation': F1", coefficient_from_json, section["F1"])
    f2 = _checked("section 'perturbation': F2", coefficient_from_json, section["F2"])
    _require_keys(section, PERTURBATION_KEYS)
    if "theta" in section:
        theta = _checked("section 'perturbation': theta", flow_from_json, section["theta"])
    else:
        theta = trivial_flow(f1.n, f1.d) if default_flow is None else default_flow
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


def load_instance(path: str) -> InstanceFile:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            obj = orjson.loads(data)
        except orjson.JSONDecodeError:  # the json module reads it, or names its fault
            with open(path) as fh:
                obj = json.load(fh)
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise InstanceError(f"{path}: nested too deeply to decode") from None
    if not isinstance(obj, dict):
        raise InstanceError(f"{path}: top level must be a JSON object")
    return parse_instance(obj, path=path)


def parse_instance(obj: dict, path: str = "<memory>") -> InstanceFile:
    """The instance of a JSON object, every number checked once (see the module
    docstring); a non-finite number is reported before any other error."""
    try:
        inst = _parse_whole(obj, path)
    except (KeyError, TypeError, ValueError, IndexError, OverflowError, RecursionError):
        inst = None  # each error `_checked` makes an InstanceError, or a RecursionError: the section reader's to name
    if inst is not None:
        return inst
    try:
        return _parse_sections(obj, path)
    except InstanceError:
        _require_finite(obj, "")
        raise
    except RecursionError:  # an error message's echo of a value nested past Python's stack
        _require_finite(obj, "")
        raise InstanceError(f"{path}: a value is nested too deeply to read") from None


def _parse_sections(obj: dict, path: str) -> InstanceFile:
    """The section-by-section reader: the one that names the fault of a file
    `_parse_whole` declines, and the reference it is tested against."""
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
    shapes = _shapes(coefficient, flow, perturbation)
    nd = next(iter(shapes.values()), None)

    named = obj.get("stepfunctions", {})
    if not isinstance(named, dict):
        raise InstanceError("section 'stepfunctions' must be an object of named step functions")
    stepfunctions = {}
    for name, sf in named.items():
        if not isinstance(sf, dict):
            raise InstanceError(f"step function {name!r} must be an object")
        stepfunctions[name] = _checked(f"step function {name!r}", stepfunction_from_json, sf, nd and nd[1])

    if len(set(shapes.values())) > 1:
        raise InstanceError(f"sections disagree on (n, d): {shapes}")
    for name, sf in stepfunctions.items():
        if nd is not None and sf.d != nd[1]:
            raise InstanceError(f"step function {name!r} has d = {sf.d}, sections have d = {nd[1]}")

    if "observable" in obj:
        if nd is None:
            raise InstanceError("'observable' requires a section fixing the dimension n")
        observable = _checked("'observable'", matrix_from_pairs, obj["observable"], nd[0], nd[0])
    if "simulation" in obj:
        simulation = _checked("section 'simulation'", _validate_simulation, obj["simulation"])

    return InstanceFile(
        path=path,
        coefficient=coefficient,
        flow=flow,
        perturbation=perturbation,
        stepfunctions=stepfunctions,
        observable=observable,
        simulation=simulation,
        checks=_read_checks(obj),
    )


def _read_checks(obj: dict) -> list:
    """The checks section, [] when absent."""
    checks = obj.get("checks", [])
    if not isinstance(checks, list) or any(
        not isinstance(c, dict) or not isinstance(c.get("name"), str) for c in checks
    ):
        raise InstanceError("section 'checks' must be a list of {name} objects")
    for check in checks:
        _checked(f"check {check['name']!r}", _require_keys, check, ("name",))
    return checks


def _parse_whole(obj: dict, path: str) -> InstanceFile | None:
    """The instance of a well-formed file from two `_floats` conversions, one of every
    [re, im] pair in it and one of every breakpoint, split into read-only views; None,
    or an exception, for a file it does not accept in full, which `_parse_sections`
    then reads.

    It accepts only what `_parse_sections` accepts, and reads the same values bit for
    bit: n and d are ints (an integral float is left to the section reader), every
    object has the keys and every list the length its section reader requires, and
    the flow gates, the step function checks and the scalar sections are the section
    reader's own.
    """
    if any(key not in SECTIONS for key in obj):
        return None
    # the coefficient and flow objects: the sections', then the perturbation's F1, F2 and theta
    objects = {key: obj[key] for key in ("coefficient", "flow") if key in obj}
    if "perturbation" in obj:
        section = obj["perturbation"]
        if type(section) is not dict or not {"F1", "F2"} <= section.keys() <= set(PERTURBATION_KEYS):
            return None
        objects |= section
    # every [re, im] pair in file order, and (start, rows, cols) of each matrix of each object
    pairs, spans, dims = [], {}, set()
    for name, sec in objects.items():
        keys = FLOW_KEYS if name in ("flow", "theta") else COEFFICIENT_KEYS
        if type(sec) is not dict or not sec.keys() <= set(keys):
            return None
        n, d = sec.get("n"), sec.get("d")
        if type(n) is not int or type(d) is not int or n < 1 or d < 1:
            return None
        spans[name] = []
        for key, (rows, cols) in _matrix_shapes(keys, n, d).items():
            block = sec.get(key)
            if type(block) is not list or len(block) != rows * cols:
                return None
            spans[name].append((len(pairs), rows, cols))
            pairs += block
        dims.add((n, d))
    if len(dims) > 1:  # the sections disagree, or a perturbation's F2 or theta does
        return None
    nd = next(iter(dims), None)
    if "observable" in obj:
        observable = obj["observable"]
        if nd is None or type(observable) is not list or len(observable) != nd[0] ** 2:
            return None
        spans["observable"] = [(len(pairs), nd[0], nd[0])]
        pairs += observable
    named = obj.get("stepfunctions", {})
    if type(named) is not dict:
        return None
    # every breakpoint, and each step function's (start, rows, d) in pairs and (start, size) in times
    steps, times = {}, []
    for name, sf in named.items():
        if type(sf) is not dict or sf.keys() != {"breakpoints", "values"}:
            return None
        values, breakpoints = sf["values"], sf["breakpoints"]
        if type(values) is not list or type(breakpoints) is not list:
            return None
        # rows of pairs, lists of one length d; none for the zero function, at the sections' d
        d = len(values[0]) if values else 0 if nd is None else nd[1]
        if d < 1 or (nd is not None and d != nd[1]):
            return None
        if values and (set(map(type, values)) != {list} or set(map(len, values)) != {d}):
            return None
        steps[name] = len(pairs), len(values), d, len(times), len(breakpoints)
        pairs += chain.from_iterable(values)
        times += breakpoints
    simulation = _validate_simulation(obj["simulation"]) if "simulation" in obj else None
    checks = _read_checks(obj)

    z = _floats(pairs, "[re, im] pair")
    if z.shape != (len(pairs), 2):
        return None
    z.flags.writeable = False
    z = z.view(complex)[:, 0]
    parts = {name: [z[at : at + rows * cols].reshape(rows, cols) for at, rows, cols in span]
             for name, span in spans.items()}
    for name in ("flow", "theta"):
        if name in parts:
            parts[name] = FlowGenerator._unchecked(*parts[name])
            parts[name]._require_gates()
    for name in ("coefficient", "F1", "F2"):
        if name in parts:
            parts[name] = BlockCoefficient._unchecked(*parts[name])
    flow = parts.get("flow")
    perturbation = None
    if "perturbation" in obj:
        theta = parts["theta"] if "theta" in parts else trivial_flow(*nd) if flow is None else flow
        perturbation = PerturbationSpec(theta=theta, F1=parts["F1"], F2=parts["F2"])
    stepfunctions = {}
    if steps:
        ticks = _breakpoint_ticks(_floats(times, "breakpoint"))
        ticks.flags.writeable = False
        for name, (at, rows, d, tick, size) in steps.items():
            values = z[at : at + rows * d].reshape(rows, d)
            stepfunctions[name] = StepFunction._unchecked(*_steps(ticks[tick : tick + size], values))
    return InstanceFile(
        path=path,
        coefficient=parts.get("coefficient"),
        flow=flow,
        perturbation=perturbation,
        stepfunctions=stepfunctions,
        observable=parts["observable"][0] if "observable" in parts else None,
        simulation=simulation,
        checks=checks,
    )


def default_observable(inst: InstanceFile):
    """The instance observable, or the identity at the instance dimension."""
    if inst.observable is not None:
        return as_complex(inst.observable)
    nd = inst.shape()
    if nd is None:
        raise InstanceError("instance fixes no dimension; cannot default the observable")
    return np.eye(nd[0], dtype=complex)


# --- JSON wire format -------------------------------------------------------

def _floats(items, item: str, nonfinite: str = "") -> np.ndarray:
    """items as one float array, from one np.array conversion: ints, floats and bools,
    each as float() reads it, an integer past int64 (held as an object) too.

    Strings, even "0.5", irregular shapes and non-finite entries are refused, naming
    the first `item` at fault, an entry of the first axis; nonfinite, if given, is the
    message for a non-finite entry.  Shapes are the caller's to check.
    """
    try:
        arr = np.array(items)
    except ValueError:  # an irregular array
        raise ValueError(f"{item}s must form a regular array") from None
    if arr.dtype.kind == "O" and all(isinstance(v, (int, float)) for v in arr.flat):
        try:
            arr = arr.astype(float)  # float() of each entry
        except OverflowError:
            raise OverflowError(f"int too large to convert to float in {item}s") from None
    elif arr.dtype.kind not in "biuf":
        if not isinstance(items, list):
            raise ValueError(f"expected a list of {item}s, got {items!r}")
        k = next(k for k, x in enumerate(items) if not _is_numeric(x))
        raise ValueError(f"{item} {k} must hold numbers, got {items[k]!r}")
    arr = arr.astype(float, copy=False)
    if not np.isfinite(arr).all():
        rows = np.atleast_1d(arr)
        k = int(np.isfinite(rows).argmin()) // (rows.size // len(rows))
        raise ValueError(nonfinite or f"non-finite {item} {k}: {rows[k].tolist()}")
    return arr


def _is_numeric(x) -> bool:
    """x is a number (an int, a float or a bool) or a nested list of them."""
    return all(map(_is_numeric, x)) if isinstance(x, list) else isinstance(x, (int, float))


def matrix_to_pairs(x: np.ndarray) -> list[list[float]]:
    """Row-major flat list of [re, im] pairs."""
    return np.ascontiguousarray(x, dtype=complex).reshape(-1, 1).view(float).tolist()


def matrix_from_pairs(pairs, rows: int, cols: int) -> np.ndarray:
    """The rows x cols matrix of a flat row-major list of [re, im] pairs, read as
    complex in place: both parts bit for bit, signed zeros too."""
    arr = _floats(pairs, "[re, im] pair")
    if arr.shape != (rows * cols, 2):
        raise DimensionMismatchError(f"expected {rows * cols} [re, im] pairs, got shape {arr.shape}")
    return arr.view(complex).reshape(rows, cols)


def _integral(value) -> int | None:
    """value as an int if it is an integer or an integral float; None otherwise, bools included."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        return None
    return int(value)


def _dims_from_json(obj: dict, what: str) -> tuple[int, int]:
    """The (n, d) of what, a coefficient or flow object: integers >= 1."""
    if not isinstance(obj, dict):
        raise TypeError(f"{what} must be an object")
    n, d = _integral(obj["n"]), _integral(obj["d"])
    if n is None or d is None or n < 1 or d < 1:
        raise DimensionMismatchError(
            f"need integers n >= 1 and d >= 1, got n = {obj['n']!r}, d = {obj['d']!r}"
        )
    return n, d


def _require_keys(obj: dict, allowed: tuple) -> None:
    """ValueError naming the first key of obj outside allowed.  Called after a key of
    obj is read, so that a section that is not an object keeps that read's error."""
    unknown = [key for key in obj if key not in allowed]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}; expected {', '.join(allowed)}")


def coefficient_to_json(F: BlockCoefficient) -> dict:
    return {"n": F.n, "d": F.d, **{key: matrix_to_pairs(getattr(F, key)) for key in "KLMW"}}


def _matrix_shapes(keys: tuple, n: int, d: int) -> dict:
    """{key: (rows, cols)} of the matrices of a coefficient or flow object at (n, d),
    keys its COEFFICIENT_KEYS or FLOW_KEYS."""
    dn = d * n
    shapes = {"K": (n, n), "h": (n, n), "L": (dn, n), "l": (dn, n), "M": (n, dn), "W": (dn, dn)}
    return {key: shapes[key] for key in keys[2:]}


def _matrices(obj: dict, keys: tuple, n: int, d: int) -> list[np.ndarray]:
    """The matrices of obj, a coefficient or flow object at (n, d), each read by
    `matrix_from_pairs`, whose error names the matrix and pair."""
    return [matrix_from_pairs(obj[key], *shape) for key, shape in _matrix_shapes(keys, n, d).items()]


def coefficient_from_json(obj: dict) -> BlockCoefficient:
    n, d = _dims_from_json(obj, "a coefficient")
    _require_keys(obj, COEFFICIENT_KEYS)
    return BlockCoefficient._unchecked(*_matrices(obj, COEFFICIENT_KEYS, n, d))


def flow_to_json(fg: FlowGenerator) -> dict:
    return {"n": fg.n, "d": fg.d, **{key: matrix_to_pairs(getattr(fg, key)) for key in "hlW"}}


def flow_from_json(obj: dict) -> FlowGenerator:
    n, d = _dims_from_json(obj, "a flow")
    _require_keys(obj, FLOW_KEYS)
    fg = FlowGenerator._unchecked(*_matrices(obj, FLOW_KEYS, n, d))
    fg._require_gates()
    return fg


def stepfunction_to_json(f: StepFunction) -> dict:
    return {"breakpoints": f.breakpoints.tolist(), "values": [matrix_to_pairs(row) for row in f.values]}


def stepfunction_from_json(obj: dict, d: int | None = None) -> StepFunction:
    """The step function of its wire form, each field read as one array: breakpoints
    rounded to ticks as `StepFunction.from_breakpoints` rounds them, values as rows of
    [re, im] pairs read as complex in place and checked finite here, once.  Empty
    values, the zero function's (`StepFunction.zero`), are read at noise dimension d,
    which must then be given."""
    values, breakpoints = obj["values"], obj["breakpoints"]
    _require_keys(obj, ("breakpoints", "values"))
    values = _floats(values, "value", "step function values must be finite")
    if values.shape == (0,):
        if d is None:
            raise DimensionMismatchError("empty values (the zero function) need a section fixing d")
        values = values.reshape(0, d, 2)
    if values.ndim != 3 or values.shape[2] != 2:
        raise DimensionMismatchError(f"values must be rows of [re, im] pairs, got shape {values.shape}")
    breakpoints = _floats(breakpoints, "breakpoint")
    if breakpoints.ndim != 1:
        raise DimensionMismatchError(f"breakpoints must be a list of times, got shape {breakpoints.shape}")
    return StepFunction._unchecked(*_steps(_breakpoint_ticks(breakpoints), values.view(complex)[..., 0]))
