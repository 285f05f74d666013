import json

import numpy as np
import pytest

from qfk.coefficients import coefficient_to_json, matrix_to_pairs
from qfk.flows import flow_to_json, trivial_flow
from qfk.instances import (
    InstanceError,
    default_observable,
    load_instance,
    parse_instance,
)
from qfk.matrix_elements import StepFunction, stepfunction_to_json

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
    assert inst.simulation["scheme"] == "euler"  # default
    assert inst.simulation["split_fraction"] == 0.25  # default
    assert inst.checks == [{"name": "quasicontractive"}]
    assert inst.seed == 7


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
        {"T": 1.0, "N": [4, 8], "kind": "magic"},
        {"T": 1.0, "N": [4, 8], "scheme": "midpoint"},
        {"T": 1.0, "N": [4, 8], "split_fraction": 1.0},
    ],
)
def test_simulation_validation_errors(sim):
    with pytest.raises(InstanceError, match="simulation"):
        parse_instance({"simulation": sim})


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


def test_checks_validation():
    with pytest.raises(InstanceError, match="checks"):
        parse_instance({"checks": "quasicontractive"})
    with pytest.raises(InstanceError, match="checks"):
        parse_instance({"checks": [{"tol": 1e-8}]})


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
