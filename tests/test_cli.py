import contextlib
import copy
import functools
import io
import json
import operator
import os
import subprocess
import sys
from pathlib import Path

import qfk.cli
import qfk.coefficients

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qfk.cli import main
from qfk.coefficients import (
    BlockCoefficient,
    coefficient_to_json,
    matrix_to_pairs,
    min_quasicontractivity_beta,
)
from qfk.flows import flow_to_json, trivial_flow
from qfk.linalg import NotPositiveSemidefiniteError, dag
from qfk.matrix_elements import StepFunction, cocycle_matrix_element, stepfunction_to_json
from qfk.perturbations import psi_map

from conftest import (
    SIGMA_MINUS,
    contraction_coefficient,
    damping_coefficient,
    inner_coefficient,
    random_coefficient,
    random_flow,
    weyl_coefficient,
    zero_coefficient,
)

KET1 = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]  # |1><1| as [re, im] pairs
HUGE = 10**400  # a JSON integer beyond float range
DEMO_INSTANCES = Path(__file__).resolve().parent.parent / "demos" / "instances"


def demo_instance(name: str) -> dict:
    return json.loads((DEMO_INSTANCES / name).read_text())


def write(tmp_path, obj, name="inst.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def csv_rows(text: str) -> list[list[str]]:
    lines = [ln for ln in text.strip().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def inline_verdict(text: str) -> dict:
    for ln in text.strip().splitlines():
        if ln.startswith("# "):
            return json.loads(ln[2:])
    raise AssertionError(f"no inline verdict in output:\n{text}")


# --- check ----------------------------------------------------------------------

def test_check_zero_coefficient_all_flags(tmp_path, capsys):
    path = write(tmp_path, {"coefficient": coefficient_to_json(zero_coefficient(1, 1))})
    rc, out, _ = run(capsys, ["check", "--instance", path])
    assert rc == 0
    report = json.loads(out)
    flags = report["coefficient"]
    assert flags["isometric_gen"] and flags["coisometric_nec"]
    assert flags["contractive_gen"] and flags["quasicontractive"]
    assert abs(flags["beta"]) <= 1e-6
    assert report["checks"] == [{"name": "quasicontractive", "passed": True}]


def test_check_weyl_is_isometric(tmp_path, capsys):
    path = write(tmp_path, {"coefficient": coefficient_to_json(weyl_coefficient(1.0))})
    rc, out, _ = run(capsys, ["check", "--instance", path])
    assert rc == 0
    assert json.loads(out)["coefficient"]["isometric_gen"] is True


def test_check_expanding_w_fails(tmp_path, capsys):
    F = BlockCoefficient(K=[[0.0]], L=[[0.0]], M=[[0.0]], W=[[2.0]])
    path = write(tmp_path, {"coefficient": coefficient_to_json(F)})
    rc, out, _ = run(capsys, ["check", "--instance", path])
    assert rc == 1
    report = json.loads(out)
    assert report["coefficient"]["quasicontractive"] is False
    assert report["coefficient"]["beta"] is None


def test_check_flow_structure(tmp_path, capsys):
    rng = np.random.default_rng(110)
    path = write(tmp_path, {"flow": flow_to_json(random_flow(rng, 2, 1))})
    rc, out, _ = run(capsys, ["check", "--instance", path])
    assert rc == 0
    report = json.loads(out)
    assert report["flow"]["passed"] is True
    assert report["flow"]["max_residual"] <= 1e-11
    assert set(report["flow"]["residuals"]) == {
        "pi_multiplicative",
        "delta_derivation",
        "lindblad_dissipation",
        "theta_structure",
        "unital",
        "real",
    }


def test_check_named_checks_and_out_file(tmp_path, capsys):
    rng = np.random.default_rng(111)
    obj = {
        "coefficient": coefficient_to_json(inner_coefficient(rng, 2, 1)),
        "checks": [{"name": "isometric_gen"}, {"name": "coisometric_nec", "tol": 1e-6}],
    }
    out_path = tmp_path / "report.json"
    rc, out, _ = run(capsys, ["check", "--instance", write(tmp_path, obj), "--out", str(out_path)])
    assert rc == 0
    report = json.loads(out_path.read_text())
    assert all(r["passed"] for r in report["checks"])
    assert out == ""


def test_check_unknown_check_is_input_error(tmp_path, capsys):
    obj = {
        "coefficient": coefficient_to_json(zero_coefficient(1, 1)),
        "checks": [{"name": "bounded"}],
    }
    rc, _, err = run(capsys, ["check", "--instance", write(tmp_path, obj)])
    assert rc == 2
    assert "error:" in err and "bounded" in err


def test_check_beta_uses_command_tol(tmp_path, capsys):
    F = contraction_coefficient(np.random.default_rng(114), 2, 1)
    path = write(tmp_path, {"coefficient": coefficient_to_json(F)})
    rc, out, _ = run(capsys, ["check", "--instance", path, "--tol", "1e-4"])
    assert rc == 0
    assert json.loads(out)["coefficient"]["beta"] == min_quasicontractivity_beta(F, tol=1e-4)


def test_check_weyl_demo_beta_is_positive_zero(capsys):
    rc, out, _ = run(capsys, ["check", "--instance", str(DEMO_INSTANCES / "weyl.json")])
    assert rc == 0
    assert '"beta": 0.0\n' in out  # not -0.0, not -7.47e-09


@pytest.mark.parametrize("name", ["weyl.json", "multiplier.json"])
def test_check_computes_beta_once(capsys, monkeypatch, name):
    calls = []
    beta = qfk.coefficients.min_quasicontractivity_beta
    counting = lambda *a, **k: calls.append(1) or beta(*a, **k)  # noqa: E731
    monkeypatch.setattr(qfk.coefficients, "min_quasicontractivity_beta", counting)
    # also a direct call from the command, should it import the name again
    monkeypatch.setattr(qfk.cli, "min_quasicontractivity_beta", counting, raising=False)
    rc, out, _ = run(capsys, ["check", "--instance", str(DEMO_INSTANCES / name)])
    assert rc == 0 and json.loads(out)["coefficient"]["beta"] is not None
    assert len(calls) == 1


def test_check_per_check_structure_tol_rejudges_one_report(tmp_path, capsys, monkeypatch):
    calls = []
    validate = qfk.cli.validate_structure
    monkeypatch.setattr(qfk.cli, "validate_structure", lambda *a, **k: calls.append(1) or validate(*a, **k))
    flow = flow_to_json(random_flow(np.random.default_rng(115), 2, 1))
    reports = {}
    for tol, want_rc in ((1e-3, 0), (1e-30, 1)):
        path = write(tmp_path, {"flow": flow, "checks": [{"name": "structure", "tol": tol}]})
        rc, out, _ = run(capsys, ["check", "--instance", path])
        assert rc == want_rc
        reports[tol] = json.loads(out)
        assert reports[tol]["checks"] == [{"name": "structure", "passed": want_rc == 0}]
    assert reports[1e-3]["flow"]["residuals"] == reports[1e-30]["flow"]["residuals"]
    assert len(calls) == 2  # one validation per command, none per check


@pytest.mark.parametrize("k", [0, 4, 8, 12])
def test_check_w_near_norm_one_gives_a_verdict(tmp_path, capsys, k):
    # 1 + k 1e-9 around the contraction gate ||W|| <= 1 + tol at tol = 1e-8
    F = BlockCoefficient(K=[[0.0]], L=[[0.0]], M=[[0.0]], W=[[1.0 + k * 1e-9]])
    rc, out, err = run(capsys, ["check", "--instance", write(tmp_path, {"coefficient": coefficient_to_json(F)})])
    assert rc in (0, 1) and err == ""
    beta = json.loads(out)["coefficient"]["beta"]
    assert beta is None or np.isfinite(beta)


def test_check_needs_a_section(tmp_path, capsys):
    rc, _, err = run(capsys, ["check", "--instance", write(tmp_path, {})])
    assert rc == 2 and "error:" in err


# --- semigroup -------------------------------------------------------------------

def damping_instance(extra=None):
    damp = coefficient_to_json(damping_coefficient())
    obj = {"perturbation": {"F1": damp, "F2": damp}, "observable": KET1}
    if extra:
        obj.update(extra)
    return obj


def test_semigroup_damping_value(tmp_path, capsys):
    path = write(tmp_path, damping_instance())
    rc, out, _ = run(capsys, ["semigroup", "--instance", path, "--times", "1.0"])
    assert rc == 0
    rows = {(r[0], r[1], r[2]): (float(r[3]), float(r[4])) for r in csv_rows(out)}
    re, im = rows[("1", "1", "1")]
    assert abs(re - np.exp(-1.0)) <= 1e-10 and abs(im) <= 1e-12
    verdict = inline_verdict(out)
    assert verdict == {"unital": True, "cp": True, "contractive": True}


def test_semigroup_checks_pass(tmp_path, capsys):
    path = write(
        tmp_path,
        damping_instance({"checks": [{"name": "unital"}, {"name": "cp"}, {"name": "contractive"}]}),
    )
    rc, _, _ = run(capsys, ["semigroup", "--instance", path, "--times", "0.5,1.0,2.0"])
    assert rc == 0


def test_semigroup_failing_check(tmp_path, capsys):
    # k* + k + l*l = -0.6 I < 0: CP and contractive but not unital.
    l = SIGMA_MINUS
    k = -0.5 * dag(l) @ l - 0.3 * np.eye(2)
    F = BlockCoefficient(K=k, L=l, M=-dag(l), W=np.eye(2))
    obj = {
        "perturbation": {"F1": coefficient_to_json(F), "F2": coefficient_to_json(F)},
        "checks": [{"name": "unital"}],
    }
    rc, out, _ = run(capsys, ["semigroup", "--instance", write(tmp_path, obj)])
    assert rc == 1
    verdict = inline_verdict(out)
    assert verdict["unital"] is False
    assert verdict["cp"] is True and verdict["contractive"] is True


def test_semigroup_unknown_check(tmp_path, capsys):
    rc, _, err = run(
        capsys,
        ["semigroup", "--instance", write(tmp_path, damping_instance({"checks": [{"name": "positive"}]}))],
    )
    assert rc == 2 and "positive" in err


@pytest.mark.parametrize("out_flag", [False, True])
def test_semigroup_unknown_check_exits_before_any_output(tmp_path, capsys, monkeypatch, out_flag):
    monkeypatch.setattr(qfk.cli, "semigroup_at", lambda *a, **k: pytest.fail("semigroup computed"))
    path = write(tmp_path, damping_instance({"checks": [{"name": "cp"}, {"name": "bogus"}]}))
    out_path = tmp_path / "out.csv"
    argv = ["semigroup", "--instance", path] + (["--out", str(out_path)] if out_flag else [])
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (2, "")
    assert err == "error: unknown semigroup checks: ['bogus']\n"
    assert not out_path.exists()


@pytest.mark.parametrize("name", sorted(p.name for p in DEMO_INSTANCES.glob("*.json")))
def test_semigroup_runs_on_every_demo_instance(capsys, name):
    # the demos' checks lists name checks of `qfk check`, which semigroup skips
    rc, out, err = run(capsys, ["semigroup", "--instance", str(DEMO_INSTANCES / name)])
    assert rc in (0, 1) and err == ""
    assert out.startswith("t,row,col,re,im\n") and inline_verdict(out).keys() == {"unital", "cp", "contractive"}


def test_each_command_judges_only_the_checks_it_owns(tmp_path, capsys):
    checks = [{"name": "isometric_gen"}, {"name": "cp"}, {"name": "structure"}, {"name": "unital"}]
    obj = damping_instance({
        "coefficient": coefficient_to_json(contraction_coefficient(np.random.default_rng(115), 2, 1)),
        "flow": flow_to_json(trivial_flow(2, 1)),
        "checks": checks,
    })
    path = write(tmp_path, obj)
    rc, out, _ = run(capsys, ["check", "--instance", path])
    assert json.loads(out)["checks"] == [
        {"name": "isometric_gen", "passed": False}, {"name": "structure", "passed": True}]
    assert rc == 1
    # isometric_gen fails in `check`, but semigroup judges cp and unital only
    rc, out, _ = run(capsys, ["semigroup", "--instance", path])
    assert inline_verdict(out)["cp"] is True and inline_verdict(out)["unital"] is True
    assert rc == 0


def test_check_name_no_command_owns_exits_before_any_output(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(qfk.cli, "classify", lambda *a, **k: pytest.fail("classify computed"))
    obj = {
        "coefficient": coefficient_to_json(zero_coefficient(1, 1)),
        "checks": [{"name": "unital"}, {"name": "bogus"}],
    }
    rc, out, err = run(capsys, ["check", "--instance", write(tmp_path, obj)])
    assert (rc, out, err) == (2, "", "error: unknown check 'bogus'\n")


def test_semigroup_needs_perturbation(tmp_path, capsys):
    path = write(tmp_path, {"coefficient": coefficient_to_json(zero_coefficient(1, 1))})
    rc, _, err = run(capsys, ["semigroup", "--instance", path])
    assert rc == 2 and "perturbation" in err


def test_semigroup_bad_times(tmp_path, capsys):
    rc, _, err = run(
        capsys, ["semigroup", "--instance", write(tmp_path, damping_instance()), "--times", "1.0,-2"]
    )
    assert rc == 2 and "error:" in err


@pytest.mark.parametrize("times", ["nan", "inf", "-inf", "1,nan"])
def test_semigroup_non_finite_times_exit_before_any_work(tmp_path, capsys, monkeypatch, times):
    monkeypatch.setattr(qfk.cli, "semigroup_at", lambda *a, **k: pytest.fail("semigroup computed"))
    path = write(tmp_path, damping_instance())
    rc, out, err = run(capsys, ["semigroup", "--instance", path, f"--times={times}"])
    assert rc == 2 and out == "" and err.startswith("error: bad --times value")


def test_semigroup_overflowing_time_is_input_error(tmp_path, capsys):
    # exp(t L) of the damping generator is all NaN at t = 1e100, without a warning
    path = write(tmp_path, damping_instance())
    rc, out, err = run(capsys, ["semigroup", "--instance", path, "--times", "1,1e100"])
    assert (rc, out) == (2, "")
    assert err == "error: --times 1e+100: P_t = exp(t L) is not finite\n"
    rc, out, _ = run(capsys, ["semigroup", "--instance", path, "--times", "1e20"])
    assert rc == 0 and inline_verdict(out) == {"unital": True, "cp": True, "contractive": True}


# --- matelem ---------------------------------------------------------------------

def weyl_one_sided_instance(lam=1.0):
    return {
        "perturbation": {
            "F1": coefficient_to_json(zero_coefficient(1, 1)),
            "F2": coefficient_to_json(weyl_coefficient(lam)),
        }
    }


def test_matelem_weyl_scalar(tmp_path, capsys):
    path = write(tmp_path, weyl_one_sided_instance())
    rc, out, _ = run(capsys, ["matelem", "--instance", path, "--t", "2.0"])
    assert rc == 0
    rows = csv_rows(out)
    assert rows[0][:2] == ["0", "0"]
    assert abs(float(rows[0][2]) - np.exp(-1.0)) <= 1e-10


def test_matelem_named_stepfunctions(tmp_path, capsys):
    # trivial perturbation: kappa_t(1) = e^{-integral chi(f, g)}
    f = StepFunction.from_breakpoints([0.0, 0.5, 1.0], [[0.4], [0.1j]])
    g = StepFunction.from_breakpoints([0.0, 1.0], [[0.2 - 0.3j]])
    obj = {
        "perturbation": {
            "F1": coefficient_to_json(zero_coefficient(1, 1)),
            "F2": coefficient_to_json(zero_coefficient(1, 1)),
        },
        "stepfunctions": {"f": stepfunction_to_json(f), "g": stepfunction_to_json(g)},
    }
    rc, out, _ = run(capsys, ["matelem", "--instance", write(tmp_path, obj), "--t", "1.0"])
    assert rc == 0
    from qfk.matrix_elements import exponential_inner_product

    expected = exponential_inner_product(f, g, 1.0)
    val = complex(float(csv_rows(out)[0][2]), float(csv_rows(out)[0][3]))
    assert abs(val - expected) <= 1e-12


def test_matelem_residual_verdict(tmp_path, capsys):
    path = write(tmp_path, weyl_one_sided_instance())
    rc, out, _ = run(capsys, ["matelem", "--instance", path, "--t", "1.0", "--residual"])
    assert rc == 0
    verdict = inline_verdict(out)
    assert verdict["residual"] <= 1e-9
    assert verdict["r"] == 0.5 and verdict["t"] == 1.0


def test_matelem_residual_bad_split(tmp_path, capsys):
    path = write(tmp_path, weyl_one_sided_instance())
    rc, _, err = run(
        capsys, ["matelem", "--instance", path, "--t", "1.0", "--r", "2.0", "--residual"]
    )
    assert rc == 2 and "error:" in err


def test_matelem_needs_perturbation(tmp_path, capsys):
    path = write(tmp_path, {"coefficient": coefficient_to_json(zero_coefficient(1, 1))})
    rc, _, err = run(capsys, ["matelem", "--instance", path])
    assert rc == 2 and "perturbation" in err


@pytest.mark.parametrize("t", ["nan", "inf", "-inf", "1e13", "-0.5"])
@pytest.mark.parametrize("residual", [[], ["--residual"]])
def test_matelem_bad_time_is_input_error(tmp_path, capsys, t, residual):
    path = write(tmp_path, weyl_one_sided_instance())
    rc, out, err = run(capsys, ["matelem", "--instance", path, f"--t={t}", *residual])
    assert rc == 2 and out == ""
    assert err.startswith("error: --t: time must be finite, nonnegative")


def test_matelem_breakpoint_past_tick_range_is_input_error(tmp_path, capsys):
    obj = weyl_one_sided_instance()
    obj["stepfunctions"] = {"f": {"breakpoints": [0.0, 1e13], "values": [[[0.5, 0.0]]]}}
    rc, out, err = run(capsys, ["matelem", "--instance", write(tmp_path, obj)])
    assert rc == 2 and out == ""
    assert err.startswith("error: step function 'f': time must be finite, nonnegative")


def named_stepfunctions_instance():
    obj = weyl_one_sided_instance()
    obj["stepfunctions"] = {
        name: stepfunction_to_json(StepFunction.constant([value], 1.0))
        for name, value in (("f", 0.5), ("h", 0.25j))
    }
    return obj


@pytest.mark.parametrize("flag", ["--f", "--g"])
def test_matelem_unknown_stepfunction_is_input_error(tmp_path, capsys, flag):
    path = write(tmp_path, named_stepfunctions_instance())
    rc, out, err = run(capsys, ["matelem", "--instance", path, flag, "nope"])
    assert rc == 2 and out == ""
    assert err.startswith("error: no step function 'nope' in the instance; it has f, h")


def test_matelem_stepfunction_names_and_defaults(tmp_path, capsys):
    path = write(tmp_path, named_stepfunctions_instance())
    f = StepFunction.constant([0.5], 1.0)
    h = StepFunction.constant([0.25j], 1.0)
    zero = StepFunction.zero(1)
    phi = psi_map(trivial_flow(1, 1), weyl_coefficient(1.0))
    for flags, (left, right) in (
        ([], (f, zero)),  # "f" is present, "g" is not
        (["--f", "h"], (h, zero)),
        (["--g", "h"], (f, h)),
        (["--f", "h", "--g", "f"], (h, f)),
    ):
        rc, out, _ = run(capsys, ["matelem", "--instance", path, "--t", "0.75", *flags])
        assert rc == 0
        val = complex(*map(float, csv_rows(out)[0][2:]))
        assert val == cocycle_matrix_element(phi, left, right, 0.75, np.eye(1))[0, 0]


# --- simulate / compare ------------------------------------------------------------

def test_simulate_hp_ladder(tmp_path, capsys):
    obj = {
        "coefficient": coefficient_to_json(
            BlockCoefficient(K=[[-0.5]], L=[[0.0]], M=[[0.0]], W=[[1.0]])
        ),
        "simulation": {"T": 1.0, "N": [8, 16, 32], "kind": "hp"},
    }
    rc, out, _ = run(capsys, ["simulate", "--instance", write(tmp_path, obj)])
    assert rc == 0
    rows = csv_rows(out)
    assert [r[0] for r in rows] == ["8", "16", "32"]
    errs = [float(r[2]) for r in rows]
    assert errs[2] < errs[1] < errs[0]
    verdict = inline_verdict(out)
    assert verdict["monotone"] is True
    assert verdict["final_error"] == pytest.approx(errs[2])


def test_simulate_fk_damping(tmp_path, capsys):
    obj = damping_instance({"simulation": {"T": 0.5, "N": [8, 16], "kind": "fk"}})
    rc, out, _ = run(capsys, ["simulate", "--instance", write(tmp_path, obj)])
    assert rc == 0
    assert inline_verdict(out)["monotone"] is True


def test_simulate_isometry(tmp_path, capsys):
    obj = {
        "coefficient": coefficient_to_json(weyl_coefficient(1.0)),
        "simulation": {"T": 1.0, "N": [4, 8, 16], "kind": "isometry"},
    }
    rc, out, _ = run(capsys, ["simulate", "--instance", write(tmp_path, obj)])
    assert rc == 0
    assert inline_verdict(out)["monotone"] is True


@pytest.mark.parametrize("kind,reading", [
    ("hp", "hp_vacuum_ladder"), ("fk", "fk_expectation_ladder"), ("isometry", "isometry_defect_ladder")])
def test_simulate_reads_each_ladder_in_one_call(tmp_path, capsys, monkeypatch, kind, reading):
    calls = []
    wrapped = getattr(qfk.cli, reading)
    monkeypatch.setattr(qfk.cli, reading, lambda *a, **k: calls.append(a[2]) or wrapped(*a, **k))
    simulation = {"T": 0.5, "N": [1, 2, 3, 8, 100], "kind": kind}
    if kind == "fk":
        obj = damping_instance({"simulation": simulation})
    else:
        obj = {"coefficient": coefficient_to_json(weyl_coefficient(1.0)), "simulation": simulation}
    rc, out, _ = run(capsys, ["simulate", "--instance", write(tmp_path, obj)])
    assert rc == 0 and calls == [[1, 2, 3, 8, 100]]
    assert [r[0] for r in csv_rows(out)] == ["1", "2", "3", "8", "100"]


@pytest.mark.parametrize("tol", ["0.05", "0", "1e300"])
def test_simulate_refuses_tol(capsys, tol):
    # its verdict is ladder_verdict's fixed rule: a tolerance would change nothing
    rc, out, err = run(capsys, ["simulate", "--instance", str(DEMO_INSTANCES / "damping.json"), "--tol", tol])
    assert (rc, out) == (2, "")
    assert err.startswith("error: --tol: simulate takes no tolerance; its verdict is the fixed ladder rule")


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_overflowing_ladder_is_input_error(tmp_path, capsys, command):
    # a numpy warning would be an error here (filterwarnings), not a line on stderr
    obj = demo_instance("damping.json")
    obj["simulation"]["T"] = 9e99
    rc, out, err = run(capsys, [command, "--instance", write(tmp_path, obj)])
    assert (rc, out, err) == (2, "", "error: simulation.T = 9e+99: the analytic reference is not finite\n")
    obj["simulation"]["T"] = 1e5
    rc, out, err = run(capsys, [command, "--instance", write(tmp_path, obj)])
    errors = [float(row[2]) for row in csv_rows(out)]
    assert (rc, err) == (1, "") and len(errors) == 4
    assert all(np.isfinite(errors)) and errors[-1] > 1e200


@pytest.mark.parametrize("kind,message", [
    ("hp", "the estimate at N = 4 is not finite"),
    ("isometry", "the isometry ladder is not finite (SVD did not converge)"),
    ("multiplier", "the multiplier ladder is not finite (SVD did not converge)"),
])
def test_overflowing_ladder_of_each_kind_is_input_error(tmp_path, capsys, kind, message):
    obj = demo_instance("damping.json")
    obj["coefficient"] = obj["perturbation"]["F1"]
    obj["simulation"] = {"T": 9e99, "N": [4, 8], "kind": kind}
    rc, out, err = run(capsys, ["simulate", "--instance", write(tmp_path, obj)])
    assert (rc, out, err) == (2, "", f"error: simulation.T = 9e+99: {message}\n")


def test_simulate_multiplier_with_inner_flow(tmp_path, capsys):
    rng = np.random.default_rng(112)
    obj = {
        "coefficient": coefficient_to_json(inner_coefficient(rng, 1, 1)),
        "perturbation": {
            "F1": coefficient_to_json(random_coefficient(rng, 1, 1, scale=0.5)),
            "F2": coefficient_to_json(zero_coefficient(1, 1)),
        },
        "simulation": {"T": 1.0, "N": [4, 8, 16], "kind": "multiplier"},
    }
    rc, out, _ = run(capsys, ["simulate", "--instance", write(tmp_path, obj)])
    assert rc == 0
    assert inline_verdict(out)["monotone"] is True


def test_simulate_multiplier_trivial_flow_converges(tmp_path, capsys):
    # residuals are zero to rounding at every ladder point
    obj = damping_instance({"simulation": {"T": 0.5, "N": [4, 8, 16, 32], "kind": "multiplier"}})
    rc, out, _ = run(capsys, ["simulate", "--instance", write(tmp_path, obj)])
    assert max(float(r[2]) for r in csv_rows(out)) <= 1e-12
    assert rc == 0 and inline_verdict(out)["monotone"] is True


def test_simulate_multiplier_head_space_over_memory_cap(tmp_path, capsys):
    obj = demo_instance("multiplier.json")
    obj["simulation"]["N"] = [4, 8, 16, 100]
    rc, _, err = run(capsys, ["simulate", "--instance", write(tmp_path, obj)])
    assert rc == 2 and "cap" in err


def nan_in_f1_k(obj):
    obj["perturbation"]["F1"]["K"][0][0] = float("nan")


def infinite_horizon(obj):
    obj["simulation"]["T"] = float("inf")


@pytest.mark.parametrize("command", ["simulate", "semigroup"])
@pytest.mark.parametrize("spoil", [nan_in_f1_k, infinite_horizon])
def test_non_finite_input_is_input_error(tmp_path, capsys, command, spoil):
    obj = demo_instance("damping.json")
    spoil(obj)
    rc, _, err = run(capsys, [command, "--instance", write(tmp_path, obj)])
    assert rc == 2 and "non-finite" in err


def string_in_coefficient(obj, text):
    obj["coefficient"]["K"][0][0] = text


def string_in_flow(obj, text):
    obj["flow"] = flow_to_json(trivial_flow(1, 1))
    obj["flow"]["h"][0][1] = text


def string_in_observable(obj, text):
    obj["observable"] = [[text, 0.0]]


@pytest.mark.parametrize("command", ["check", "semigroup", "matelem", "simulate", "compare"])
@pytest.mark.parametrize("spoil", [string_in_coefficient, string_in_flow, string_in_observable])
@pytest.mark.parametrize("text", ["nan", "inf", "1e999"])
def test_non_finite_numeric_string_is_input_error(tmp_path, capsys, command, spoil, text):
    # the finiteness walk sees a string; the conversion to a matrix must not
    # let the NaN or Inf it reads through
    obj = demo_instance("weyl.json")
    spoil(obj, text)
    rc, out, err = run(capsys, [command, "--instance", write(tmp_path, obj)])
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "non-finite [re, im] pair 0" in err


COMMANDS = ["check", "semigroup", "matelem", "simulate", "compare"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize(
    "name,field,value,message",
    [
        ("multiplier.json", ("simulation", "split_fraction"), "abc", "section 'simulation': could not convert"),
        ("multiplier.json", ("simulation", "split_fraction"), None, "section 'simulation': float() argument"),
        ("damping.json", ("simulation", "split_fraction"), [1], "section 'simulation': float() argument"),
        ("weyl.json", ("stepfunctions",), [], "section 'stepfunctions' must be an object"),
        ("damping.json", ("stepfunctions",), "f", "section 'stepfunctions' must be an object"),
        ("damping.json", ("checks", 0, "name"), ["unital"], "section 'checks' must be a list of"),
        ("weyl.json", ("checks", 0, "name"), {"isometric_gen": 1}, "section 'checks' must be a list of"),
        ("weyl.json", ("coefficient", "n"), True, "section 'coefficient': need integers n >= 1"),
        ("multiplier.json", ("coefficient", "d"), 1.5, "section 'coefficient': need integers n >= 1"),
        ("damping.json", ("perturbation", "F1", "n"), True, "section 'perturbation': need integers n >= 1"),
        ("damping.json", ("simulation", "T"), True, "section 'simulation': T must be a number, got True"),
        ("multiplier.json", ("simulation", "split_fraction"), True,
         "section 'simulation': split_fraction must be a number, got True"),
        pytest.param("damping.json", ("simulation", "T"), HUGE, "section 'simulation': int too large", id="huge-T"),
        pytest.param("multiplier.json", ("simulation", "split_fraction"), HUGE,
                     "section 'simulation': int too large", id="huge-split_fraction"),
        pytest.param("weyl.json", ("coefficient", "K", 0, 0), HUGE, "section 'coefficient': int too large",
                     id="huge-coefficient-entry"),
        pytest.param("damping.json", ("flow",), {**flow_to_json(trivial_flow(2, 1)), "h": [[HUGE, 0]] + [[0, 0]] * 3},
                     "section 'flow': int too large", id="huge-flow-entry"),
        pytest.param("damping.json", ("observable", 3, 0), HUGE, "'observable': int too large",
                     id="huge-observable-entry"),
        pytest.param("damping.json", ("stepfunctions",), {"f": {"breakpoints": [0, 1], "values": [[[HUGE, 0]]]}},
                     "step function 'f': int too large", id="huge-stepfunction-value"),
    ],
)
def test_malformed_section_is_input_error(tmp_path, capsys, command, name, field, value, message):
    rc, out, err = run(capsys, [command, "--instance", write(tmp_path, replaced(demo_instance(name), field, value))])
    assert (rc, out) == (2, "")
    assert err.startswith("error: " + message)


def replaced(obj: dict, field: tuple, value) -> dict:
    """A copy of obj with the item at the key path field set to value."""
    obj = copy.deepcopy(obj)
    functools.reduce(operator.getitem, field[:-1], obj)[field[-1]] = value
    return obj


def json_kind(value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        return "huge"
    if isinstance(value, (int, float)):
        return "number"
    return {type(None): "null", str: "string", list: "list", dict: "object"}[type(value)]


SECTIONS = ("coefficient", "flow", "perturbation", "stepfunctions", "observable", "simulation", "checks", "seed")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.just(HUGE) | st.floats(-2.0, 2.0) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


def instance_fields(obj: dict) -> list[tuple]:
    """Every section, present or not, each field of an object section, and named nested fields."""
    fields = [(name,) for name in SECTIONS]
    fields += [(name, key) for name, section in obj.items() if isinstance(section, dict) for key in section]
    fields += [("simulation", "split_fraction"), ("checks", 0, "name"), ("checks", 0, "tol")]
    return list(dict.fromkeys(fields))


@pytest.mark.parametrize("name", sorted(p.name for p in DEMO_INSTANCES.glob("*.json")))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_wrong_json_type_in_any_section_gives_an_exit_code(tmp_path, name, data):
    # every subcommand ends in 0, 1 or 2 and raises nothing, whichever section
    # or field holds a JSON value of the wrong type
    obj = demo_instance(name)
    field = data.draw(st.sampled_from(instance_fields(obj)), label="field")
    try:
        current = json_kind(functools.reduce(operator.getitem, field, obj))
    except KeyError:
        current = None  # an absent field: any value is out of place
    value = data.draw(JSON_VALUES.filter(lambda v: json_kind(v) != current), label="value")
    path = write(tmp_path, replaced(obj, field, value))
    for command in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main([command, "--instance", path]) in (0, 1, 2)


def test_simulate_jobs_flag_is_rejected(tmp_path, capsys):
    # ladder points take milliseconds; the thread pool behind --jobs is gone
    path = write(tmp_path, damping_instance({"simulation": {"T": 0.5, "N": [4, 8], "kind": "fk"}}))
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--instance", path, "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_simulate_multiplier_non_unitary_drive_is_input_error(tmp_path, capsys):
    # the same coefficient that kind 'fk' rejects through from_hp_coefficient
    obj = demo_instance("multiplier.json")
    obj["coefficient"]["K"][0][0] += 0.7  # the real part of K
    rc, out, err = run(capsys, ["simulate", "--instance", write(tmp_path, obj)])
    assert rc == 2 and "q(G) = 0" in err and out == ""


def test_simulate_out_file(tmp_path, capsys):
    obj = damping_instance({"simulation": {"T": 0.5, "N": [4, 8], "kind": "fk"}})
    out_path = tmp_path / "ladder.csv"
    rc, out, _ = run(
        capsys, ["simulate", "--instance", write(tmp_path, obj), "--out", str(out_path)]
    )
    assert rc == 0
    text = out_path.read_text()
    assert text.splitlines()[0] == "N,h,error"
    verdict = json.loads(out)  # bare JSON on stdout when CSV went to a file
    assert set(verdict) == {"monotone", "final_error"}


def test_simulate_needs_simulation_section(tmp_path, capsys):
    rc, _, err = run(capsys, ["simulate", "--instance", write(tmp_path, damping_instance())])
    assert rc == 2 and "simulation" in err


def test_simulate_nontrivial_flow_needs_coefficient(tmp_path, capsys):
    rng = np.random.default_rng(113)
    obj = damping_instance(
        {
            "flow": flow_to_json(random_flow(rng, 2, 1)),
            "simulation": {"T": 0.5, "N": [4, 8], "kind": "fk"},
        }
    )
    rc, _, err = run(capsys, ["simulate", "--instance", write(tmp_path, obj)])
    assert rc == 2 and "coefficient" in err


def flow_without_drive(where: str) -> dict:
    """damping.json (no coefficient) with a nontrivial flow as perturbation.theta or as the top-level flow."""
    obj = demo_instance("damping.json")
    flow = flow_to_json(random_flow(np.random.default_rng(117), 2, 1))
    return replaced(obj, ("perturbation", "theta") if where == "theta" else ("flow",), flow)


@pytest.mark.parametrize("where", ["theta", "flow"])
@pytest.mark.parametrize("command,kind", [("simulate", "fk"), ("compare", "fk"), ("simulate", "multiplier")])
def test_simulation_judges_the_flow_the_perturbation_runs_with(tmp_path, capsys, where, command, kind):
    # a nontrivial perturbation.theta is refused like the same top-level flow,
    # not swapped for the trivial flow on both sides of the comparison
    obj = replaced(flow_without_drive(where), ("simulation", "kind"), kind)
    rc, out, err = run(capsys, [command, "--instance", write(tmp_path, obj)])
    assert (rc, out) == (2, "")
    assert err.startswith("error: simulation of a nontrivial flow needs the 'coefficient' section")


def test_semigroup_reads_perturbation_theta(tmp_path, capsys):
    outs = [
        run(capsys, ["semigroup", "--instance", write(tmp_path, obj)])
        for obj in (flow_without_drive("theta"), flow_without_drive("flow"), demo_instance("damping.json"))
    ]
    assert outs[0] == outs[1] != outs[2]
    assert outs[0][0] in (0, 1) and outs[0][2] == ""


def test_compare_fk(tmp_path, capsys):
    obj = damping_instance({"simulation": {"T": 0.5, "N": [8, 16], "kind": "fk"}})
    rc, out, _ = run(capsys, ["compare", "--instance", write(tmp_path, obj)])
    assert rc == 0
    verdict = inline_verdict(out)
    assert verdict["final_diff"] <= verdict["tol"] == 0.05


def test_compare_rejects_other_kinds(tmp_path, capsys):
    obj = {
        "coefficient": coefficient_to_json(weyl_coefficient(1.0)),
        "simulation": {"T": 1.0, "N": [4, 8], "kind": "isometry"},
    }
    rc, _, err = run(capsys, ["compare", "--instance", write(tmp_path, obj)])
    assert rc == 2 and "fk" in err


# --- plumbing ---------------------------------------------------------------------

def raising(error):
    def fail(*args, **kwargs):
        raise error
    return fail


@pytest.mark.parametrize(
    "command, name, layer, error",
    [
        ("check", "weyl.json", "classify", NotPositiveSemidefiniteError("eigenvalue below -clip_tol")),
        ("semigroup", "damping.json", "semigroup_at", np.linalg.LinAlgError("SVD did not converge")),
    ],
)
def test_numerical_error_is_exit_2(capsys, monkeypatch, command, name, layer, error):
    monkeypatch.setattr(qfk.cli, layer, raising(error))
    rc, out, err = run(capsys, [command, "--instance", str(DEMO_INSTANCES / name)])
    assert rc == 2 and out == "" and err == f"error: {error}\n"


def test_missing_instance_file(capsys):
    rc, _, err = run(capsys, ["check", "--instance", "/nonexistent/inst.json"])
    assert rc == 2 and "error:" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "qfk" in capsys.readouterr().out


def run_in_process(capsys, argvs) -> list:
    results = []
    for argv in argvs:
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = f"SystemExit({exc.code})"
        captured = capsys.readouterr()
        results.append((rc, captured.out, captured.err))
    return results


def test_one_parser_per_process_matches_a_fresh_parser(capsys, monkeypatch):
    assert qfk.cli._parser() is qfk.cli._parser()
    assert qfk.cli.build_parser() is not qfk.cli.build_parser()
    # options set on one call and left at their defaults on the next, so a
    # value left behind in the parser would change an output
    commands = (
        ["check", "--tol", "0.5"], ["check"],
        ["semigroup", "--times", "0.25,0.5"], ["semigroup"],
        ["matelem", "--residual", "--t", "0.5", "--seed", "3"], ["matelem"],
        ["simulate"], ["compare"],
    )
    argvs = [
        command + ["--instance", str(path)]
        for path in sorted(DEMO_INSTANCES.glob("*.json"))
        for command in commands
    ]
    argvs.append(["simulate", "--instance", str(DEMO_INSTANCES / "damping.json"), "--jobs", "2"])
    argvs.append(["--version"])
    cached = run_in_process(capsys, argvs + argvs)
    monkeypatch.setattr(qfk.cli, "_parser", qfk.cli.build_parser)
    fresh = run_in_process(capsys, argvs + argvs)
    assert cached == fresh
    assert {rc for rc, _, _ in cached} >= {0, 2, "SystemExit(0)", "SystemExit(2)"}


def test_python_dash_m_qfk(capsys):
    src = str(Path(qfk.cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def python_m(*argv):
        return subprocess.run(
            [sys.executable, "-m", "qfk", *argv], capture_output=True, text=True, env=env, timeout=120
        )

    version = python_m("--version")
    assert version.returncode == 0 and version.stdout.startswith("qfk ")
    argv = ["check", "--instance", str(DEMO_INSTANCES / "weyl.json")]
    child = python_m(*argv)
    rc, out, _ = run(capsys, argv)
    assert (child.returncode, child.stdout) == (rc, out)


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
@pytest.mark.parametrize(
    "command,instance",
    [
        (["check"], "weyl.json"),
        (["semigroup"], "damping.json"),
        (["matelem", "--residual"], "damping.json"),
        (["simulate"], "multiplier.json"),
        (["compare"], "damping.json"),
    ],
)
def test_non_finite_or_negative_tol_is_input_error(capsys, command, instance, tol):
    rc, out, err = run(capsys, command + ["--instance", str(DEMO_INSTANCES / instance), f"--tol={tol}"])
    assert (rc, out) == (2, "")
    assert err.startswith("error: --tol: tolerance must be finite and nonnegative")


@pytest.mark.parametrize(
    "tol", ["nan", "inf", -1, -1e-300, "abc", None, float("nan"), True, pytest.param(HUGE, id="huge")]
)
@pytest.mark.parametrize("name", ["isometric_gen", "quasicontractive", "structure"])
def test_bad_check_tol_is_input_error(tmp_path, capsys, name, tol):
    obj = {
        "coefficient": coefficient_to_json(weyl_coefficient()),
        "flow": flow_to_json(trivial_flow(1, 1)),
        "checks": [{"name": name, "tol": tol}],
    }
    rc, out, err = run(capsys, ["check", "--instance", write(tmp_path, obj)])
    assert (rc, out) == (2, "")
    # a JSON NaN number is refused when the instance loads, a string when the check reads it
    if isinstance(tol, float) and np.isnan(tol):
        assert err.startswith("error: checks[0].tol: non-finite")
    else:
        assert err.startswith(f"error: check {name!r}: tolerance must be")


def test_zero_tol_is_a_tolerance(tmp_path, capsys):
    checks = [{"name": "isometric_gen", "tol": 0}]
    path = write(tmp_path, {"coefficient": coefficient_to_json(weyl_coefficient()), "checks": checks})
    assert run(capsys, ["check", "--instance", path])[0] in (0, 1)
    assert run(capsys, ["check", "--instance", path, "--tol", "0"])[0] in (0, 1)



@pytest.mark.parametrize("seed", [-3, -1, 1.5, True, False, "7", None, [1]])
@pytest.mark.parametrize("command", [["check"], ["matelem", "--residual"]])
def test_bad_instance_seed_is_input_error(tmp_path, capsys, command, seed):
    path = write(tmp_path, demo_instance("damping.json") | {"seed": seed})
    rc, out, err = run(capsys, command + ["--instance", path])
    assert (rc, out) == (2, "")
    assert err.startswith("error: 'seed': seed must be a nonnegative integer")


@pytest.mark.parametrize("seed", [["--seed=-3"], ["--seed", "-1"]])
@pytest.mark.parametrize(
    "command,instance",
    [
        (["check"], "weyl.json"),
        (["semigroup"], "damping.json"),
        (["matelem", "--residual"], "damping.json"),
        (["simulate"], "multiplier.json"),
        (["compare"], "damping.json"),
    ],
)
def test_negative_seed_flag_is_input_error(capsys, command, instance, seed):
    rc, out, err = run(capsys, command + ["--instance", str(DEMO_INSTANCES / instance)] + seed)
    assert (rc, out) == (2, "")
    assert err.startswith("error: --seed: seed must be a nonnegative integer")


def test_integral_seed_is_a_seed(tmp_path, capsys):
    # a float that holds an integer seeds the residual check like that integer
    argv = ["matelem", "--residual", "--instance"]
    base = run(capsys, argv + [str(DEMO_INSTANCES / "damping.json"), "--seed", "0"])
    assert run(capsys, argv + [str(DEMO_INSTANCES / "damping.json"), "--seed", "1"]) != base
    for seed in (0, 0.0):
        path = write(tmp_path, demo_instance("damping.json") | {"seed": seed})
        assert run(capsys, argv + [path]) == base
