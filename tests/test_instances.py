import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfk.instances
from qfk.coefficients import BlockCoefficient, compose
from qfk.flows import FlowGenerator, hp_coefficient_for_flow, trivial_flow
from qfk.instances import (
    MAX_SLOTS,
    SECTIONS,
    InstanceError,
    _dims_from_json,
    _require_finite,
    _require_keys,
    coefficient_from_json,
    coefficient_to_json,
    default_observable,
    flow_from_json,
    flow_to_json,
    load_instance,
    matrix_from_pairs,
    matrix_to_pairs,
    parse_instance,
    stepfunction_from_json,
    stepfunction_to_json,
)
from qfk.linalg import dag
from qfk.matrix_elements import StepFunction, to_ticks

from conftest import complex_randn, damping_coefficient, random_coefficient, random_flow, zero_coefficient


def write(tmp_path, obj, name="inst.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def full_instance_obj(rng):
    F = random_coefficient(rng, 2, 1)
    fg = random_flow(rng, 2, 1)
    sf = StepFunction.from_breakpoints([0.0, 0.5, 1.0], [[0.3 + 0.1j], [-0.2]])
    return {
        "coefficient": coefficient_to_json(F),
        "flow": flow_to_json(fg),
        "perturbation": {
            "F1": coefficient_to_json(damping_coefficient()),
            "F2": coefficient_to_json(damping_coefficient()),
        },
        "stepfunctions": {"f": stepfunction_to_json(sf)},
        "observable": matrix_to_pairs(np.eye(2)),
        "simulation": {"T": 0.5, "N": [4, 8], "kind": "fk"},
        "checks": [{"name": "quasicontractive"}],
    }


def test_parse_full_instance(tmp_path):
    rng = np.random.default_rng(100)
    obj = full_instance_obj(rng)
    inst = load_instance(write(tmp_path, obj))
    assert inst.shape() == (2, 1)
    assert inst.coefficient is not None and inst.flow is not None
    assert inst.perturbation is not None
    assert set(inst.stepfunctions) == {"f"}
    assert np.allclose(inst.observable, np.eye(2))
    assert inst.simulation["N"] == [4, 8]
    assert inst.simulation["kind"] == "fk"
    assert "scheme" not in inst.simulation
    assert inst.simulation["split_fraction"] == 0.25  # default
    assert inst.checks == [{"name": "quasicontractive"}]


def test_a_parsed_instance_is_not_walked(monkeypatch):
    # the section parsers check every number of a file they accept
    monkeypatch.setattr(qfk.instances, "_require_finite", lambda *args: pytest.fail("walked"))
    parse_instance(full_instance_obj(np.random.default_rng(108)))


def test_empty_instance_has_no_shape():
    inst = parse_instance({})
    assert inst.shape() is None
    assert inst.checks == []


def test_perturbation_theta_resolution():
    damp = coefficient_to_json(damping_coefficient())
    # explicit theta wins
    rng = np.random.default_rng(101)
    fg = random_flow(rng, 2, 1)
    inst = parse_instance({"perturbation": {"F1": damp, "F2": damp, "theta": flow_to_json(fg)}})
    assert np.allclose(inst.perturbation.theta.W, fg.W)
    # falls back to the instance flow
    inst = parse_instance({"flow": flow_to_json(fg), "perturbation": {"F1": damp, "F2": damp}})
    assert np.allclose(inst.perturbation.theta.W, fg.W)
    # trivial flow otherwise
    inst = parse_instance({"perturbation": {"F1": damp, "F2": damp}})
    assert np.allclose(inst.perturbation.theta.W, np.eye(2))
    assert np.allclose(inst.perturbation.theta.l, 0.0)


def test_sections_must_agree_on_dimensions():
    rng = np.random.default_rng(102)
    obj = {
        "coefficient": coefficient_to_json(random_coefficient(rng, 1, 1)),
        "flow": flow_to_json(random_flow(rng, 2, 1)),
    }
    with pytest.raises(InstanceError, match="disagree"):
        parse_instance(obj)


def test_stepfunction_dimension_check():
    rng = np.random.default_rng(103)
    sf = StepFunction.from_breakpoints([0.0, 1.0], [[0.1, 0.2]])  # d = 2
    obj = {
        "coefficient": coefficient_to_json(random_coefficient(rng, 1, 1)),
        "stepfunctions": {"f": stepfunction_to_json(sf)},
    }
    with pytest.raises(InstanceError, match="step function 'f'"):
        parse_instance(obj)


def test_observable_requires_dimension():
    with pytest.raises(InstanceError, match="observable"):
        parse_instance({"observable": matrix_to_pairs(np.eye(2))})


def test_default_observable():
    rng = np.random.default_rng(104)
    inst = parse_instance({"coefficient": coefficient_to_json(random_coefficient(rng, 2, 1))})
    assert np.allclose(default_observable(inst), np.eye(2))
    with pytest.raises(InstanceError):
        default_observable(parse_instance({}))


@pytest.mark.parametrize(
    "sim",
    [
        {"N": [4, 8]},  # missing T
        {"T": 0.0, "N": [4, 8]},
        {"T": float("inf"), "N": [4, 8]},
        {"T": "inf", "N": [4, 8]},
        {"T": "nan", "N": [4, 8]},
        {"T": 1.0, "N": []},
        {"T": 1.0, "N": [8, 4]},
        {"T": 1.0, "N": [4, 4]},
        {"T": 1.0, "N": [0, 4]},
        {"T": 1.0, "N": [4.7, 8]},
        {"T": 1.0, "N": [True, 8]},
        {"T": 1.0, "N": ["8"]},
        {"T": 1.0, "N": "48"},
        {"T": 1.0, "N": [4, 2**70]},
        {"T": 1.0, "N": [4, 2**30 + 1]},
        {"T": 1.0, "N": [4, 1e21]},
        {"T": 1.0, "N": [4, 8], "kind": "magic"},
        {"T": 1.0, "N": [4, 8], "scheme": "midpoint"},
        {"T": 1.0, "N": [4, 8], "scheme": "exponential"},
        {"T": 1.0, "N": [4, 8], "split_fraction": 1.0},
        {"T": 1.0, "N": [4, 8], "split_fraction": "abc"},
        {"T": 1.0, "N": [4, 8], "split_fraction": None},
        {"T": 1.0, "N": [4, 8], "split_fraction": [1]},
    ],
)
def test_simulation_validation_errors(sim):
    with pytest.raises(InstanceError, match="simulation"):
        parse_instance({"simulation": sim})


def test_simulation_slot_counts_are_integers_up_to_the_cap():
    inst = parse_instance({"simulation": {"T": 1.0, "N": [4.0, 8, np.int64(16), MAX_SLOTS]}})
    assert inst.simulation["N"] == [4, 8, 16, 2**30]
    assert all(type(v) is int for v in inst.simulation["N"])
    for bad in ([4.7], [False], ["8"], [2**70]):
        with pytest.raises(InstanceError, match=r"simulation\.N"):
            parse_instance({"simulation": {"T": 1.0, "N": bad}})


def test_non_finite_numbers_are_rejected_with_their_place():
    def obj():
        flow = random_flow(np.random.default_rng(105), 2, 1)
        return {"flow": flow_to_json(flow), "observable": matrix_to_pairs(np.eye(2))}

    parse_instance(obj())
    bad = obj()
    bad["flow"]["h"][2][1] = float("nan")
    with pytest.raises(InstanceError, match=r"flow\.h\[2\]\[1\]"):
        parse_instance(bad)
    bad = obj()
    bad["observable"][0][0] = float("-inf")
    with pytest.raises(InstanceError, match=r"observable\[0\]\[0\]"):
        parse_instance(bad)


def require_finite_per_item(value, where: str) -> None:
    """The per-item walk: the reference for the array-wise check."""
    if isinstance(value, dict):
        for key, item in value.items():
            require_finite_per_item(item, f"{where}.{key}" if where else str(key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            require_finite_per_item(item, f"{where}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        raise InstanceError(f"{where}: non-finite number {value}")


def float_places(value, place=()) -> list:
    if isinstance(value, dict):
        return [p for key, item in value.items() for p in float_places(item, place + (key,))]
    if isinstance(value, list):
        return [p for i, item in enumerate(value) for p in float_places(item, place + (i,))]
    return [place] if isinstance(value, float) else []


def planted_instance_obj(rng):
    obj = full_instance_obj(rng)
    # an unknown top-level key, a ragged list and a list of strings and numbers
    obj["notes"] = {"weights": [[0.5, 1.5], [2.5, 3.5]], "ragged": [[1.0], [2.0, 3.0]],
                    "labels": ["a", 4.5, None, True]}
    return obj


@pytest.mark.parametrize(
    "place",
    [
        ("flow", "h", 2, 1),
        ("stepfunctions", "f", "values", 1, 0, 0),
        ("stepfunctions", "f", "breakpoints", 2),
        ("observable", 3, 1),
        ("simulation", "T"),
        ("notes", "weights", 1, 0),
        ("notes", "ragged", 1, 1),
        ("notes", "labels", 1),
    ],
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_finiteness_check_names_each_kind_of_place(place, value):
    obj = planted_instance_obj(np.random.default_rng(106))
    target = obj
    for key in place[:-1]:
        target = target[key]
    target[place[-1]] = value
    where = place[0] + "".join(f".{key}" if isinstance(key, str) else f"[{key}]" for key in place[1:])
    with pytest.raises(InstanceError) as ref:
        require_finite_per_item(obj, "")
    assert str(ref.value) == f"{where}: non-finite number {value}"
    with pytest.raises(InstanceError) as fast:
        _require_finite(obj, "")
    assert str(fast.value) == str(ref.value)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_finiteness_check_matches_the_per_item_walk(seed, data):
    obj = planted_instance_obj(np.random.default_rng(seed))
    _require_finite(obj, "")
    require_finite_per_item(obj, "")
    places = float_places(obj)
    roots = {place[0] for place in places}
    assert {"stepfunctions", "observable", "simulation", "notes", "flow"} <= roots
    for place in data.draw(st.lists(st.sampled_from(places), min_size=1, max_size=3), label="places"):
        target = obj
        for key in place[:-1]:
            target = target[key]
        target[place[-1]] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]), label="value")
    with pytest.raises(InstanceError) as ref:
        require_finite_per_item(obj, "")
    with pytest.raises(InstanceError) as fast:
        _require_finite(obj, "")
    assert str(fast.value) == str(ref.value)
    with pytest.raises(InstanceError) as parsed:
        parse_instance(obj)
    assert str(parsed.value) == str(ref.value)


def test_checks_validation():
    with pytest.raises(InstanceError, match="checks"):
        parse_instance({"checks": "quasicontractive"})
    with pytest.raises(InstanceError, match="checks"):
        parse_instance({"checks": [{"tol": 1e-8}]})
    for name in (["cp"], {"cp": 1}, 3, None):
        with pytest.raises(InstanceError, match=r"section 'checks' must be a list of \{name\} objects"):
            parse_instance({"checks": [{"name": name}]})


@pytest.mark.parametrize("sections", [[], ["f"], "f", 3, None])
def test_stepfunctions_must_be_an_object(sections):
    with pytest.raises(InstanceError, match="section 'stepfunctions' must be an object"):
        parse_instance({"stepfunctions": sections})


@pytest.mark.parametrize(
    "section,obj",
    [("coefficient", coefficient_to_json(zero_coefficient(1, 1))), ("flow", flow_to_json(trivial_flow(1, 1)))],
)
def test_dimensions_must_be_integers(section, obj):
    assert parse_instance({section: obj | {"n": 1.0, "d": 1.0}}).shape() == (1, 1)
    for key in ("n", "d"):
        for bad in (True, 1.5, "1", None, [1], 0, -1):
            with pytest.raises(InstanceError, match=f"section '{section}': need integers n >= 1 and d >= 1"):
                parse_instance({section: obj | {key: bad}})


@pytest.mark.parametrize("seed", [0, 7, "many"])
def test_a_seed_section_is_an_unknown_section(seed):
    # no command draws a random number, so nothing reads a seed
    with pytest.raises(InstanceError, match="^unknown section 'seed'; expected coefficient, "):
        parse_instance({"seed": seed})


def test_bad_coefficient_section_names_the_section():
    obj = {"coefficient": {"n": 1, "d": 1, "K": [[0.0, 0.0], [0.0, 0.0]], "L": [[0.0, 0.0]],
                           "M": [[0.0, 0.0]], "W": [[1.0, 0.0]]}}
    with pytest.raises(InstanceError):
        parse_instance(obj)


def test_load_instance_file_errors(tmp_path):
    with pytest.raises(InstanceError, match="cannot read"):
        load_instance(str(tmp_path / "missing.json"))
    path = tmp_path / "broken.json"
    path.write_text('{"coefficient": ')
    with pytest.raises(InstanceError, match=r":\d+:\d+:"):
        load_instance(str(path))
    path = tmp_path / "array.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(InstanceError, match="top level"):
        load_instance(str(path))


def test_zero_coefficient_instance_round_trip(tmp_path):
    inst = load_instance(write(tmp_path, {"coefficient": coefficient_to_json(zero_coefficient(1, 1))}))
    assert inst.shape() == (1, 1)
    assert np.allclose(inst.coefficient.W, np.eye(1))


def test_non_finite_number_the_per_item_parse_ignores_is_still_rejected():
    # a third entry in a value pair: the pair is refused, naming the values, and a
    # non-finite third entry is still named at its place first
    obj = {"stepfunctions": {"f": {"breakpoints": [0.0, 1.0], "values": [[[0.5, 0.0, 1.5]]]}}}
    with pytest.raises(InstanceError, match=r"^step function 'f': .*\bvalues\b"):
        parse_instance(obj)
    obj["stepfunctions"]["f"]["values"][0][0][2] = math.inf
    with pytest.raises(InstanceError, match=r"^stepfunctions\.f\.values\[0\]\[0\]\[2\]: non-finite number inf$"):
        parse_instance(obj)


@pytest.mark.parametrize(
    "to_json,from_json,value",
    [
        (coefficient_to_json, coefficient_from_json, damping_coefficient()),
        (flow_to_json, flow_from_json, random_flow(np.random.default_rng(107), 2, 1)),
        (stepfunction_to_json, stepfunction_from_json, StepFunction.from_breakpoints([0.0, 0.5], [[0.3 - 0.1j, 2.0]])),
    ],
)
def test_wire_format_round_trips_and_refuses_an_extra_key(to_json, from_json, value):
    wire = to_json(value)
    assert to_json(from_json(wire)) == wire
    with pytest.raises(ValueError, match="^unknown key 'extra'; expected "):
        from_json(wire | {"extra": 0})


def instance_format_sections(readme: str) -> list[str]:
    """The top-level keys of the jsonc block under "### Instance format"."""
    block = readme.split("### Instance format\n", 1)[1].split("```jsonc\n", 1)[1].split("```", 1)[0]
    return re.findall(r'^  "(\w+)":', block, flags=re.MULTILINE)


def test_readme_instance_format_lists_the_loader_sections():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert tuple(instance_format_sections(readme)) == SECTIONS
    planted = readme.replace('\n  "checks":', '\n  "notes":        {},\n  "checks":', 1)
    assert tuple(instance_format_sections(planted)) != SECTIONS


# --- the loader on the benchmark's own inputs -------------------------------------

def pairs_per_item(pairs, rows: int, cols: int) -> np.ndarray:
    """A flat list of [re, im] pairs converted one pair at a time, as re + 1j * im."""
    return np.array([re + 1j * im for re, im in pairs], dtype=complex).reshape(rows, cols)


def arrays_per_item(obj: dict) -> dict:
    """place -> array of each matrix and step function of an instance, by the per-item parse."""
    out = {}

    def section(place, sec):
        n, dn = sec["n"], sec["n"] * sec["d"]
        shapes = {"K": (n, n), "L": (dn, n), "M": (n, dn), "W": (dn, dn), "h": (n, n), "l": (dn, n)}
        out.update({f"{place}.{key}": pairs_per_item(sec[key], *shapes[key]) for key in shapes if key in sec})

    for place in ("coefficient", "flow"):
        if place in obj:
            section(place, obj[place])
    for key, sec in obj.get("perturbation", {}).items():
        section(f"perturbation.{key}", sec)
    for name, sf in obj.get("stepfunctions", {}).items():
        out[f"{name}.ticks"] = np.array([to_ticks(t) for t in sf["breakpoints"]], dtype=np.int64)
        out[f"{name}.values"] = np.array([[complex(p[0], p[1]) for p in row] for row in sf["values"]])
    if "observable" in obj:
        n = math.isqrt(len(obj["observable"]))
        out["observable"] = pairs_per_item(obj["observable"], n, n)
    return out


def arrays_loaded(inst, obj: dict) -> dict:
    """The same places, read off the loaded instance."""
    out = {}
    sections = {"coefficient": inst.coefficient, "flow": inst.flow}
    if inst.perturbation is not None:
        sections |= {"perturbation.F1": inst.perturbation.F1, "perturbation.F2": inst.perturbation.F2}
        if "theta" in obj["perturbation"]:
            sections["perturbation.theta"] = inst.perturbation.theta
    for place, sec in sections.items():
        for key in ("K", "L", "M", "W", "h", "l"):
            if sec is not None and hasattr(sec, key):
                out[f"{place}.{key}"] = getattr(sec, key)
    for name, sf in inst.stepfunctions.items():
        out[f"{name}.ticks"], out[f"{name}.values"] = sf.ticks, sf.values
    if inst.observable is not None:
        out["observable"] = inst.observable
    return out


def test_loader_reads_the_benchmark_inputs_as_the_per_item_parse(workloads, tmp_path):
    for workload in workloads.WORKLOADS:
        workloads.build(workload, 0, str(tmp_path / workload))
    paths = sorted(tmp_path.glob("*/*.json"))
    places = set()
    for path in paths:
        obj = json.loads(path.read_text())
        got, ref = arrays_loaded(load_instance(str(path)), obj), arrays_per_item(obj)
        assert got.keys() == ref.keys(), path.name
        for place, want in ref.items():
            have = got[place]
            assert (have.dtype, have.shape, have.tobytes()) == (want.dtype, want.shape, want.tobytes()), place
        places |= {place.split(".")[-1] for place in got}
    assert len(paths) >= 70
    assert places == {"K", "L", "M", "W", "h", "l", "ticks", "values", "observable"}


# --- one conversion per section, and the per-matrix readers it falls back to -----

def coefficient_per_matrix(obj: dict) -> BlockCoefficient:
    """The per-matrix reader of a coefficient: one `matrix_from_pairs` per matrix, then
    the checked constructor."""
    n, d = _dims_from_json(obj, "a coefficient")
    _require_keys(obj, ("n", "d", "K", "L", "M", "W"))
    dn = d * n
    return BlockCoefficient(K=matrix_from_pairs(obj["K"], n, n), L=matrix_from_pairs(obj["L"], dn, n),
                            M=matrix_from_pairs(obj["M"], n, dn), W=matrix_from_pairs(obj["W"], dn, dn))


def flow_per_matrix(obj: dict) -> FlowGenerator:
    """The per-matrix reader of a flow, gates included."""
    n, d = _dims_from_json(obj, "a flow")
    _require_keys(obj, ("n", "d", "h", "l", "W"))
    dn = d * n
    return FlowGenerator(h=matrix_from_pairs(obj["h"], n, n), l=matrix_from_pairs(obj["l"], dn, n),
                         W=matrix_from_pairs(obj["W"], dn, dn))


READERS = {"coefficient": (coefficient_from_json, coefficient_per_matrix, "KLMW"),
           "flow": (flow_from_json, flow_per_matrix, "hlW")}


def read_outcome(reader, keys: str, obj: dict):
    """{key: (dtype, shape, C-contiguous, bytes)} of what reader makes of obj, or its error
    as (type, text)."""
    try:
        value = reader(obj)
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    return {key: (a.dtype, a.shape, a.flags.c_contiguous, a.tobytes()) for key in keys for a in [getattr(value, key)]}


def section_shapes(kind: str, n: int, d: int) -> dict:
    dn = d * n
    if kind == "coefficient":
        return {"K": (n, n), "L": (dn, n), "M": (n, dn), "W": (dn, dn)}
    return {"h": (n, n), "l": (dn, n), "W": (dn, dn)}


# plain numbers as JSON carries them, ints past int64 (held by numpy as objects) included
section_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0]),
    st.integers(-(2**53), 2**53),
    st.integers(-(2**70), 2**70),
    st.booleans(),
)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["coefficient", "flow"]), n=st.integers(1, 3), d=st.integers(1, 2), data=st.data())
def test_one_conversion_per_section_reads_as_the_per_matrix_reader(kind, n, d, data):
    shapes = section_shapes(kind, n, d)
    pair = st.lists(section_numbers, min_size=2, max_size=2)
    obj = {"n": n, "d": d} | {key: data.draw(st.lists(pair, min_size=r * c, max_size=r * c), label=key)
                              for key, (r, c) in shapes.items()}
    got = qfk.instances._matrices(obj, shapes)
    for a, (key, shape) in zip(got, shapes.items()):
        want = matrix_from_pairs(obj[key], *shape)
        assert a.dtype == np.complex128 and a.flags.c_contiguous, key
        assert (a.shape, a.tobytes()) == (want.shape, want.tobytes()), key
    # and whole sections, a flow's gates included: random blocks fail them, as they do per matrix
    reader, per_matrix, keys = READERS[kind]
    assert read_outcome(reader, keys, obj) == read_outcome(per_matrix, keys, obj)


ENTRY_FAULTS = {"a string": "x", "'nan'": "nan", "NaN": math.nan, "Inf": math.inf, "an int past float range": 10**400}
PAIR_FAULTS = {"a three-entry pair": lambda p: p + [0.5], "irregular nesting": lambda p: [p], "a number": lambda p: 0.5}
MATRIX_FAULTS = {"a pair short": lambda m: m[:-1], "a pair over": lambda m: m + [[0.0, 0.0]],
                 "irregular nesting": lambda m: [m] + m[1:], "not a list": lambda m: {"re": 0.0}}


def planted_faults(obj: dict, keys: str):
    """(place, section) for every fault class at every matrix, pair and entry of obj."""
    for key, after in zip(keys, keys[1:]):  # the joined length is right, each matrix's wrong
        yield f"{key}: its last pair moved to {after}", obj | {key: obj[key][:-1], after: obj[key][-1:] + obj[after]}
    for key in keys:
        for fault, plant in MATRIX_FAULTS.items():
            yield f"{key}: {fault}", obj | {key: plant(obj[key])}
        yield f"{key}: missing", {k: v for k, v in obj.items() if k != key}
        for i, p in enumerate(obj[key]):
            for fault, plant in PAIR_FAULTS.items():
                yield f"{key}[{i}]: {fault}", obj | {key: obj[key][:i] + [plant(p)] + obj[key][i + 1:]}
            for j in range(2):
                for fault, bad in ENTRY_FAULTS.items():
                    pairs = [list(q) for q in obj[key]]
                    pairs[i][j] = bad
                    yield f"{key}[{i}][{j}]: {fault}", obj | {key: pairs}


@pytest.mark.parametrize("kind,n,d", [("coefficient", 2, 1), ("coefficient", 1, 2), ("flow", 2, 1), ("flow", 1, 2)])
def test_a_planted_fault_is_the_per_matrix_readers_error(kind, n, d):
    rng = np.random.default_rng(137)
    value = random_coefficient(rng, n, d) if kind == "coefficient" else random_flow(rng, n, d)
    reader, per_matrix, keys = READERS[kind]
    obj = json.loads(json.dumps((coefficient_to_json if kind == "coefficient" else flow_to_json)(value)))
    assert read_outcome(reader, keys, obj) == read_outcome(per_matrix, keys, obj)
    count = 0
    for place, bad in planted_faults(obj, keys):
        want = read_outcome(per_matrix, keys, bad)
        assert isinstance(want, tuple), place  # every planted fault is refused
        assert read_outcome(reader, keys, bad) == want, place
        count += 1
    assert count == len(keys) - 1 + sum(5 + 13 * r * c for r, c in section_shapes(kind, n, d).values())


# --- objects built past their constructors' checks --------------------------------

def same_fields(built, checked, names: str) -> bool:
    """Field for field: the same dtype, shape, C-contiguity and bytes."""
    return all(
        (a.dtype, a.shape, a.flags.c_contiguous, a.tobytes()) == (b.dtype, b.shape, b.flags.c_contiguous, b.tobytes())
        for a, b in ((getattr(built, k), getattr(checked, k)) for k in names)
    )


def test_objects_built_past_the_checks_equal_the_checked_constructors():
    rng = np.random.default_rng(138)
    G, F = random_coefficient(rng, 2, 2), random_coefficient(rng, 2, 2)
    g, f, n = G.as_full(), F.as_full(), 2
    full = g + f + g[:, n:] @ f[n:, :]
    dn = full.shape[0] - n
    from_full = BlockCoefficient(K=full[:n, :n], L=full[n:, :n], M=full[:n, n:], W=full[n:, n:] + np.eye(dn))
    assert same_fields(compose(G, F), from_full, "KLMW")
    assert same_fields(BlockCoefficient.from_full(full, n), from_full, "KLMW")
    assert same_fields(G.adjoint(), BlockCoefficient(K=dag(G.K), L=dag(G.M), M=dag(G.L), W=dag(G.W)), "KLMW")
    fg = random_flow(rng, 2, 2)
    hp = BlockCoefficient(K=1j * fg.h - 0.5 * dag(fg.l) @ fg.l, L=fg.W @ fg.l, M=-dag(fg.l), W=fg.W)
    assert same_fields(hp_coefficient_for_flow(fg), hp, "KLMW")
    zero = FlowGenerator(h=np.zeros((2, 2)), l=np.zeros((4, 2)), W=np.eye(4))
    assert same_fields(trivial_flow(2, 2), zero, "hlW")
    wire = stepfunction_to_json(StepFunction.from_breakpoints([0.0, 0.25, 1.0], complex_randn(rng, 2, 2)))
    values = np.array([[complex(*p) for p in row] for row in wire["values"]])
    assert same_fields(stepfunction_from_json(wire), StepFunction.from_breakpoints(wire["breakpoints"], values), ("ticks", "values"))
    for built in (compose(G, F), G.adjoint(), hp_coefficient_for_flow(fg), coefficient_from_json(coefficient_to_json(G))):
        assert same_fields(type(built)(*(getattr(built, k) for k in "KLMW")), built, "KLMW")


def test_as_full_is_formed_once_and_read_only():
    F = random_coefficient(np.random.default_rng(139), 2, 3)
    n, dn = F.n, F.L.shape[0]
    fresh = np.block([[F.K, F.M], [F.L, F.W - np.eye(dn)]])
    full = F.as_full()
    assert full is F.as_full() and full.dtype == np.complex128 and full.tobytes() == fresh.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        full[0, 0] = 1.0
    assert BlockCoefficient.from_full(full, n).as_full().tobytes() == fresh.tobytes()


# --- a call-count guard: one conversion per section, no gate for the trivial flow ----

def expected_conversions(obj: dict) -> int:
    """One `_floats` call per coefficient or flow section, two per step function
    (breakpoints, values) and one for the observable."""
    perturbation = obj.get("perturbation", {})
    sections = ("coefficient" in obj) + ("flow" in obj) + sum(key in perturbation for key in ("F1", "F2", "theta"))
    return sections + 2 * len(obj.get("stepfunctions", {})) + ("observable" in obj)


def conversions(monkeypatch, path) -> int:
    calls = []
    floats = qfk.instances._floats
    monkeypatch.setattr(qfk.instances, "_floats", lambda *args: calls.append(args) or floats(*args))
    load_instance(str(path))
    monkeypatch.undo()
    return len(calls)


def guarded_instances(workloads, tmp_path) -> list[Path]:
    """The demo instances and one instance per workload job shape."""
    paths = sorted((Path(__file__).resolve().parent.parent / "demos" / "instances").glob("*.json"))
    for workload in workloads.WORKLOADS:
        shapes = {}
        for job in workloads.build(workload, 0, str(tmp_path / workload)):
            if job.argv is not None:
                shapes.setdefault(job.shape, Path(job.argv[job.argv.index("--instance") + 1]))
        paths += shapes.values()
    return paths


def test_each_section_is_one_conversion(monkeypatch, workloads, tmp_path):
    paths = guarded_instances(workloads, tmp_path)
    for path in paths:
        assert conversions(monkeypatch, path) == expected_conversions(json.loads(path.read_text())), path
    assert len(paths) >= 25
    # the planted control: read matrix by matrix, weyl.json's coefficient, F1 and F2
    # (3 sections of 4 matrices) make 12 calls
    path = Path(__file__).resolve().parent.parent / "demos" / "instances" / "weyl.json"
    per_matrix = lambda obj, shapes: [matrix_from_pairs(obj[k], *shape) for k, shape in shapes.items()]  # noqa: E731
    monkeypatch.setattr(qfk.instances, "_matrices", per_matrix)
    assert conversions(monkeypatch, path) == 12 > expected_conversions(json.loads(path.read_text())) == 3


def test_the_trivial_flow_runs_no_gate(monkeypatch):
    monkeypatch.setattr(FlowGenerator, "_require_gates", lambda self: pytest.fail("gated"))
    fg = trivial_flow(2, 3)
    assert not fg.h.any() and not fg.l.any() and (fg.W == np.eye(6)).all()
    # an instance whose perturbation has no theta, and no flow section, reads the trivial flow
    damping = Path(__file__).resolve().parent.parent / "demos" / "instances" / "damping.json"
    assert not load_instance(str(damping)).perturbation.theta.l.any()
    # the planted control: the checked constructor runs the gates
    with pytest.raises(pytest.fail.Exception, match="gated"):
        FlowGenerator(h=fg.h, l=fg.l, W=fg.W)

