import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfk.instances
from qfk.flows import trivial_flow
from qfk.instances import (
    MAX_SLOTS,
    SECTIONS,
    InstanceError,
    _require_finite,
    coefficient_from_json,
    coefficient_to_json,
    default_observable,
    flow_from_json,
    flow_to_json,
    load_instance,
    matrix_to_pairs,
    parse_instance,
    stepfunction_from_json,
    stepfunction_to_json,
)
from qfk.matrix_elements import StepFunction, to_ticks

from conftest import damping_coefficient, random_coefficient, random_flow, zero_coefficient


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
        "seed": 7,
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
    assert inst.seed == 7


def test_a_parsed_instance_is_not_walked(monkeypatch):
    # the section parsers check every number of a file they accept
    monkeypatch.setattr(qfk.instances, "_require_finite", lambda *args: pytest.fail("walked"))
    parse_instance(full_instance_obj(np.random.default_rng(108)))


def test_empty_instance_has_no_shape():
    inst = parse_instance({})
    assert inst.shape() is None
    assert inst.seed == 0 and inst.checks == []


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


def test_seed_validation():
    with pytest.raises(InstanceError, match="seed"):
        parse_instance({"seed": "many"})


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
    planted = readme.replace('\n  "seed":', '\n  "notes":        {},\n  "seed":', 1)
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
