import contextlib
import copy
import functools
import io
import json
import math
import operator
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import qfk.cli
import qfk.coefficients
import qfk.flows
import qfk.linalg
import qfk.matrix_elements
import qfk.perturbations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qfk.cli import main
from qfk.coefficients import BlockCoefficient, min_quasicontractivity_beta
from qfk import toy_fock
from qfk.flows import FlowGenerator, hp_coefficient_for_flow, trivial_flow
from qfk.instances import (
    SECTIONS,
    coefficient_to_json,
    flow_to_json,
    matrix_from_pairs,
    matrix_to_pairs,
    parse_instance,
    stepfunction_to_json,
)
from qfk.linalg import NotPositiveSemidefiniteError, dag, norm2
from qfk.matrix_elements import StepFunction, cocycle_matrix_element
from qfk.perturbations import psi_map

import dense_reference
from conftest import (
    SIGMA_MINUS,
    SIGMA_X,
    complex_randn,
    contraction_coefficient,
    damping_coefficient,
    inner_coefficient,
    random_coefficient,
    random_flow,
    unchecked_flow,
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
        "checks": [{"name": "isometric_gen"}, {"name": "coisometric_nec"}],
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
    monkeypatch.setattr(qfk.cli, "semigroup_stack", lambda *a, **k: pytest.fail("semigroup computed"))
    path = write(tmp_path, damping_instance({"checks": [{"name": "cp"}, {"name": "bogus"}]}))
    out_path = tmp_path / "out.csv"
    argv = ["semigroup", "--instance", path] + (["--out", str(out_path)] if out_flag else [])
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (2, "")
    assert err == "error: unknown check 'bogus'\n"
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
    monkeypatch.setattr(qfk.cli, "semigroup_stack", lambda *a, **k: pytest.fail("semigroup computed"))
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


def test_semigroup_overflowing_generator_is_input_error(tmp_path, capsys):
    obj = damping_instance()
    for name in ("F1", "F2"):
        obj["perturbation"][name]["L"] = [[1e200, 1e200]] * 4
    rc, out, err = run(capsys, ["semigroup", "--instance", write(tmp_path, obj)])
    assert (rc, out) == (2, "")
    assert err == "error: --times 1.0: P_t = exp(t L) is not finite\n"


def test_semigroup_refuses_an_n_over_the_memory_cap_before_any_work(capsys, monkeypatch):
    path = str(DEMO_INSTANCES / "damping.json")
    # superoperators on M_2: the workspace of one time, and its report of 4 entries
    operators = qfk.cli.SEMIGROUP_WORKSPACE + 4 * qfk.cli.SEMIGROUP_REPORT_BYTES // 2 ** 4 // 16
    need = operators * 2 ** 4 * 16
    monkeypatch.setattr(qfk.linalg, "DEFAULT_MEMORY_CAP", need)
    assert run(capsys, ["semigroup", "--instance", path])[0] == 0
    monkeypatch.setattr(qfk.linalg, "DEFAULT_MEMORY_CAP", need - 1)
    monkeypatch.setattr(qfk.cli, "composed_vacuum_generator", lambda *a: pytest.fail("generator formed"))
    rc, out, err = run(capsys, ["semigroup", "--instance", path])
    assert (rc, out) == (2, "")
    assert err == f"error: {operators} dense operators on C^4 need {need} bytes, cap is {need - 1}\n"


def test_semigroup_refuses_a_report_over_the_memory_cap_before_any_work(capsys, monkeypatch):
    # 10^5 times at n = 2 report 4 x 10^5 entries, which pass a cap of 64 MiB that
    # the exponentials' workspace (13 x 1024 superoperators on M_2, 3.4 MB) fits
    path = str(DEMO_INSTANCES / "damping.json")
    times = ",".join(["0.5"] * 100_000)
    monkeypatch.setattr(qfk.linalg, "DEFAULT_MEMORY_CAP", 64 << 20)
    monkeypatch.setattr(qfk.cli, "composed_vacuum_generator", lambda *a: pytest.fail("generator formed"))
    monkeypatch.setattr(qfk.cli, "semigroup_stack", lambda *a: pytest.fail("exponentials taken"))
    rc, out, err = run(capsys, ["semigroup", "--instance", path, "--times", times])
    assert (rc, out) == (2, "") and err.startswith("error: ") and err.endswith(f"cap is {64 << 20}\n")


def test_semigroup_cap_covers_measured_peak_of_a_long_report(tmp_path, capsys, monkeypatch):
    # 512 times at n = 8 report about 5.6 MB of lines, more than the exponentials'
    # workspace of 13 x 4 superoperators (3.4 MB); a cap one byte below what the
    # run allocates must stop it beforehand
    rng = np.random.default_rng(118)
    obj = {
        "flow": flow_to_json(random_flow(rng, 8, 1)),
        "perturbation": {name: coefficient_to_json(random_coefficient(rng, 8, 1)) for name in ("F1", "F2")},
    }
    argv = ["semigroup", "--instance", write(tmp_path, obj),
            "--times", ",".join(repr(0.001 * (i + 1)) for i in range(512))]
    run(capsys, argv)
    tracemalloc.start()
    try:
        main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    monkeypatch.setattr(qfk.linalg, "DEFAULT_MEMORY_CAP", peak - 1)
    monkeypatch.setattr(qfk.cli, "composed_vacuum_generator", lambda *a: pytest.fail("generator formed"))
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (2, "") and err.endswith(f"cap is {peak - 1}\n")


@pytest.mark.parametrize("d", [1, 2, 3])
def test_semigroup_cap_covers_measured_peak(tmp_path, capsys, monkeypatch, d):
    # a cap one byte below what a whole run allocates at n = 8 must stop it beforehand
    rng = np.random.default_rng(117)
    obj = {
        "flow": flow_to_json(random_flow(rng, 8, d)),
        "perturbation": {name: coefficient_to_json(random_coefficient(rng, 8, d)) for name in ("F1", "F2")},
    }
    argv = ["semigroup", "--instance", write(tmp_path, obj), "--times", "0.25,0.5,1,2"]
    run(capsys, argv)
    tracemalloc.start()
    try:
        main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    monkeypatch.setattr(qfk.linalg, "DEFAULT_MEMORY_CAP", peak - 1)
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (2, "") and err.endswith(f"cap is {peak - 1}\n")


def test_semigroup_peak_does_not_grow_with_the_number_of_times(tmp_path, capsys, monkeypatch):
    # at n = 8 a pass exponentiates at most 4 times, so 60 more times add only
    # their report, which the run holds a few times over (its lines with their
    # str headers, the joined text, the captured stream: 3.6 bytes per printed
    # byte); one pass over all 64 would add 2 x 60 superoperators of 64 KiB, 43
    # bytes per printed byte.  A cap one byte below either peak stops the run
    # before any work.
    rng = np.random.default_rng(117)
    obj = {
        "flow": flow_to_json(random_flow(rng, 8, 2)),
        "perturbation": {name: coefficient_to_json(random_coefficient(rng, 8, 2)) for name in ("F1", "F2")},
    }
    path = write(tmp_path, obj)
    peaks, sizes = [], []
    for count in (4, 64):
        argv = ["semigroup", "--instance", path, "--times", ",".join(str(0.25 * (i + 1)) for i in range(count))]
        run(capsys, argv)
        tracemalloc.start()
        try:
            main(argv)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append(len(capsys.readouterr().out))
        with monkeypatch.context() as m:
            m.setattr(qfk.linalg, "DEFAULT_MEMORY_CAP", peaks[-1] - 1)
            m.setattr(qfk.cli, "composed_vacuum_generator", lambda *a: pytest.fail("generator formed"))
            rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, "") and err.endswith(f"cap is {peaks[-1] - 1}\n")
    assert peaks[1] - peaks[0] <= 6 * (sizes[1] - sizes[0])


def test_matelem_refuses_an_n_over_the_memory_cap(capsys, monkeypatch):
    monkeypatch.setattr(qfk.linalg, "DEFAULT_MEMORY_CAP", 1000)
    rc, out, err = run(capsys, ["matelem", "--instance", str(DEMO_INSTANCES / "damping.json")])
    assert (rc, out) == (2, "")
    # the (d+1)^2 = 4 closed-form blocks of phi on M_2, and the larger of their
    # workspace (3 per block) and, for the one distinct interval, a generator, its
    # exponential and 9 matrices of expm_stack workspace
    assert err == "error: 16 dense operators on C^4 need 4096 bytes, cap is 1000\n"


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_fk_ladder_refuses_an_n_over_the_memory_cap_before_any_work(capsys, monkeypatch, command):
    path = str(DEMO_INSTANCES / "damping.json")
    need = qfk.cli.FK_REFERENCE_WORKSPACE * 2 ** 4 * 16  # superoperators on M_2
    monkeypatch.setattr(qfk.linalg, "DEFAULT_MEMORY_CAP", need - 1)
    monkeypatch.setattr(qfk.cli, "composed_vacuum_generator", lambda *a: pytest.fail("reference formed"))
    rc, out, err = run(capsys, [command, "--instance", path])
    assert (rc, out) == (2, "")
    assert err == f"error: {qfk.cli.FK_REFERENCE_WORKSPACE} dense operators on C^4 need {need} bytes, cap is {need - 1}\n"
    # past the reference, the ladder reserves its transfer working set before
    # it is built: 7 stacks of 4 rungs (transfer matrices and slot words are 4 x 4)
    monkeypatch.undo()
    monkeypatch.setattr(qfk.linalg, "DEFAULT_MEMORY_CAP", need)
    monkeypatch.setattr(toy_fock, "_transfer_ladder", lambda *a: pytest.fail("transfer matrices formed"))
    rc, out, err = run(capsys, [command, "--instance", path])
    assert (rc, out) == (2, "")
    assert err == f"error: 28 dense operators on C^4 need {28 * 2 ** 4 * 16} bytes, cap is {need}\n"


def _driven_damping(tmp_path) -> str:
    obj = demo_instance("damping.json")
    obj["coefficient"] = coefficient_to_json(inner_coefficient(np.random.default_rng(116), 2, 1))
    return write(tmp_path, obj)


@pytest.mark.parametrize("command,name", [
    ("semigroup", "damping.json"), ("semigroup", "multiplier.json"), ("semigroup", "weyl.json"),
    ("simulate", "damping.json"), ("compare", "damping.json"), ("simulate", None), ("compare", None),
])
def test_vacuum_generator_is_read_off_the_composed_drive(tmp_path, capsys, monkeypatch, command, name):
    # no phi is formed or read on matrix units: the outputs are those of the
    # unpatched run.  None is damping.json driven by a unitary-type coefficient.
    argv = [command, "--instance", str(DEMO_INSTANCES / name) if name else _driven_damping(tmp_path)]
    want = run(capsys, argv)
    fail = lambda *a, **k: pytest.fail("phi read on matrix units")
    for module, attr in ((qfk.perturbations, "block_superoperators"), (qfk.perturbations, "phi_perturbed"),
                         (qfk.cli, "phi_perturbed"), (qfk.perturbations, "from_hp_coefficient"),
                         (qfk.cli, "from_hp_coefficient")):
        monkeypatch.setattr(module, attr, fail, raising=False)
    assert run(capsys, argv) == want and want[0] in (0, 1)


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


def test_matelem_split_without_residual_is_input_error(capsys):
    # --r is the split of the cocycle identity: alone it would change nothing
    argv = ["matelem", "--instance", str(DEMO_INSTANCES / "damping.json"), "--r", "0.3"]
    assert run(capsys, argv) == (2, "", "error: --r needs --residual\n")
    rc, out, err = run(capsys, argv + ["--residual"])
    assert (rc, err) == (0, "") and inline_verdict(out)["r"] == 0.3


@pytest.mark.parametrize("value", ["1e-3", "1e-9"])
@pytest.mark.parametrize("name", ["damping.json", "weyl.json"])
def test_matelem_tol_without_residual_is_input_error(capsys, name, value):
    # the tolerance belongs to the residual check: alone it would change nothing
    argv = ["matelem", "--instance", str(DEMO_INSTANCES / name), "--tol", value]
    assert run(capsys, argv) == (2, "", "error: --tol needs --residual\n")
    rc, out, err = run(capsys, argv + ["--residual"])
    assert rc in (0, 1) and err == "" and "residual" in inline_verdict(out)


def test_matelem_residual_tolerance_defaults_to_1e_9(capsys, monkeypatch):
    # the verdict passes at or below tol (1 + scale): 1e-9 unless --tol says otherwise
    argv = ["matelem", "--instance", str(DEMO_INSTANCES / "damping.json"), "--residual"]
    report = {"max_residual": 2e-9, "scale": 0.5}
    monkeypatch.setattr(qfk.cli, "verify_cocycle_identity", lambda *a, **k: report)
    assert run(capsys, argv)[0] == 1
    assert run(capsys, argv + ["--tol", "2e-9"])[0] == 0


def test_check_decides_a_flow_without_random_trials(tmp_path, capsys, monkeypatch):
    obj = {"flow": flow_to_json(random_flow(np.random.default_rng(122), 2, 2))}
    for name in ("default_rng", "standard_normal"):
        monkeypatch.setattr(np.random, name, lambda *a, **k: pytest.fail("a random draw"))
    monkeypatch.setattr(qfk.flows, "validate_structure", lambda *a, **k: pytest.fail("sampled"))
    rc, out, err = run(capsys, ["check", "--instance", write(tmp_path, obj)])
    flow = json.loads(out)["flow"]
    assert (rc, err) == (0, "") and flow["passed"] and flow["max_residual"] <= 1e-14
    assert list(flow) == ["residuals", "max_residual", "passed"] and len(flow["residuals"]) == 6


@pytest.mark.parametrize("scale", [1.0, 1e2, 1e3, 1e4])
def test_check_judges_a_flow_at_any_scale_by_its_defects(tmp_path, capsys, scale):
    # scaling h and l leaves E' and S as they are, so the verdict holds at every
    # scale; a sampled absolute residual grows with them (8.3e-7 here at 1e4)
    rng = np.random.default_rng(121)
    fg = random_flow(rng, 4, 2)
    scaled = FlowGenerator(h=scale * fg.h, l=scale * fg.l, W=fg.W)
    rc, out, err = run(capsys, ["check", "--instance", write(tmp_path, {"flow": flow_to_json(scaled)})])
    assert (rc, err) == (0, "") and json.loads(out)["flow"]["passed"]
    # the planted controls: a non-unitary W, and an h whose skew part is 1e-6 of its
    # size, built past the gates, fail at every scale
    bad = unchecked_flow(scaled.h, scaled.l, fg.W + 1e-6 * complex_randn(rng, 8, 8))
    assert not qfk.flows.structure_defects(bad, 1e-8).passed
    skew = unchecked_flow(scaled.h + 1e-6j * norm2(scaled.h) * np.eye(4), scaled.l, fg.W)
    assert not qfk.flows.structure_defects(skew, 1e-8).passed


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


def overflowing_matelem_instance() -> dict:
    """n = d = 1, F1 = F2 = (K = 10, L = 0, M = 0, W = 1), f = g = 0.5 on [0, 1)."""
    F = coefficient_to_json(BlockCoefficient(K=[[10.0]], L=[[0.0]], M=[[0.0]], W=[[1.0]]))
    f = stepfunction_to_json(StepFunction.from_breakpoints([0.0, 1.0], [[0.5]]))
    return {"perturbation": {"F1": F, "F2": F}, "stepfunctions": {"f": f, "g": f}}


def test_matelem_large_finite_value_is_printed(tmp_path, capsys):
    path = write(tmp_path, overflowing_matelem_instance())
    rc, out, err = run(capsys, ["matelem", "--instance", path, "--t", "10"])
    assert (rc, err) == (0, "")
    assert csv_rows(out) == [["0", "0", "7.225973768125749e+86", "0"]]


@pytest.mark.parametrize("residual", [[], ["--residual"]])
def test_matelem_non_finite_value_is_input_error(tmp_path, capsys, residual):
    # refused before the residual runs, without numpy's overflow warnings
    path = write(tmp_path, overflowing_matelem_instance())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, ["matelem", "--instance", path, "--t", "100", *residual])
    assert (rc, out) == (2, "")
    assert err == "error: --t 100.0: the matrix element is not finite\n"


def exact_matelem_instance(k: float) -> dict:
    """n = d = 1, F1 = F2 = (K = k, L = 0, M = 0, W = 1), f = g = 0.5 on [0, 1): the
    element at t is exactly exp(2 k t), and the cocycle identity holds exactly."""
    F = coefficient_to_json(BlockCoefficient(K=[[k]], L=[[0.0]], M=[[0.0]], W=[[1.0]]))
    f = stepfunction_to_json(StepFunction.from_breakpoints([0.0, 1.0], [[0.5]]))
    return {"perturbation": {"F1": F, "F2": F}, "stepfunctions": {"f": f, "g": f}}


@pytest.mark.parametrize("planted", [False, True])
def test_matelem_residual_is_judged_against_the_scale_of_its_terms(tmp_path, capsys, monkeypatch, planted):
    # the exact element exp(2 k t) at t = 3 from 1 to 1e20, and 1.142e26 at
    # k = 10 (its residual 8.6e9, 7.5e-17 of its terms, failed an absolute
    # test): each passes; a planted error of 1e-6 relative in every partition's
    # superoperator, which is what the residual reads, fails at every scale
    if planted:
        product = qfk.matrix_elements._product
        monkeypatch.setattr(qfk.matrix_elements, "_product", lambda *args: product(*args) * (1 + 1e-6))
    sizes = []
    for k in [j * math.log(10) / 6 for j in range(0, 21, 4)] + [10.0]:
        argv = ["matelem", "--instance", write(tmp_path, exact_matelem_instance(k)), "--t", "3", "--residual"]
        rc, out, err = run(capsys, argv)
        verdict = inline_verdict(out)
        assert rc == (1 if planted else 0) and err == ""
        ratio = verdict["residual"] / verdict["scale"]
        assert ratio >= 1e-7 if planted else ratio <= 1e-14
        sizes.append(verdict["scale"] / math.exp(6 * k))
    # the scale is the norm of the 1 x 1 superoperators: it grows as the element does
    assert max(sizes) <= min(sizes) * (1 + 1e-12)


def vacuum_entries(capsys, path: str, t: float) -> tuple[list, list]:
    """The (row, col, re, im) rows of matelem at t, with no step functions in the
    instance (f = g = 0), and of semigroup --times t."""
    _, element, _ = run(capsys, ["matelem", "--instance", path, "--t", repr(t)])
    _, semigroup, _ = run(capsys, ["semigroup", "--instance", path, "--times", repr(t)])
    return csv_rows(element), [row[1:] for row in csv_rows(semigroup)]


@pytest.mark.parametrize("t", [0.5, 1.0, 4.0])
@pytest.mark.parametrize("name", ["damping.json", "multiplier.json", "weyl.json"])
def test_matelem_without_step_functions_prints_the_semigroup(capsys, name, t):
    # the demos have no step functions, so f = g = 0 over all of [0, t): kappa_t(a)
    # is P_t(a), one exponential of the same vacuum generator, also past t = 1
    assert "stepfunctions" not in demo_instance(name)
    element, semigroup = vacuum_entries(capsys, str(DEMO_INSTANCES / name), t)
    assert element == semigroup and len(element) > 0


@pytest.mark.parametrize("t", ["0", "1e-7"])
def test_matelem_at_a_horizon_of_no_ticks_prints_the_observable(capsys, t):
    # t = 0, or a t that rounds to no tick: an empty partition, so kappa_t(a) = a
    rc, out, err = run(capsys, ["matelem", "--instance", str(DEMO_INSTANCES / "damping.json"), "--t", t])
    a = matrix_from_pairs(demo_instance("damping.json")["observable"], 2, 2)
    values = np.array([float(re) + 1j * float(im) for *_, re, im in csv_rows(out)])
    assert (rc, err) == (0, "") and np.array_equal(values, a.reshape(-1))


@pytest.mark.parametrize(("argv", "slices"), [([], [1]), (["--residual"], [1, 2])])
def test_matelem_without_step_functions_cuts_no_interval_past_one(capsys, monkeypatch, argv, slices):
    # f = g = 0 over all of [0, 4): one interval, so the element takes one exponential;
    # with --residual (r = 2) the three partitions [0, 4), [0, 2) and the shifted
    # [0, 2) have two distinct lengths.  A zero step function that stopped at 1 cut
    # them at 1 as well: 2 and 4 slices
    stack, sizes = qfk.matrix_elements.expm_stack, []
    monkeypatch.setattr(qfk.matrix_elements, "expm_stack", lambda x: sizes.append(len(x)) or stack(x))
    rc, _, err = run(capsys, ["matelem", "--instance", str(DEMO_INSTANCES / "damping.json"), "--t", "4", *argv])
    assert (rc, err) == (0, "") and sizes == slices


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), d=st.integers(1, 3), k=st.integers(-4, 3))
def test_matelem_without_step_functions_is_the_semigroup_to_rounding(tmp_path, capsys, seed, n, d, k):
    # the two commands form the vacuum generator by different sums: over 2000
    # draws at t <= 2 they differed by at most 7.7 * 2^-53 of the largest entry, 1450
    # byte for byte.  exp(t L) carries that gap further as t grows, with a heavy
    # tail where P_t(a) is much smaller than ||P_t|| ||a||.  The worst was 29.6 *
    # 2^-53 at t = 2 (44000 draws), and 101.3 and 216.6 * 2^-53 at t = 4 and 8
    # (164000 each), so 32 * 2^-53 holds to t = 2 and t = 4 and 8 are pinned at 128
    # and 256 * 2^-53
    rng = np.random.default_rng(seed)
    obj = {
        "flow": flow_to_json(random_flow(rng, n, d)),
        "perturbation": {name: coefficient_to_json(random_coefficient(rng, n, d)) for name in ("F1", "F2")},
        "observable": matrix_to_pairs(complex_randn(rng, n, n)),
    }
    t = 2.0 ** k
    element, semigroup = vacuum_entries(capsys, write(tmp_path, obj), t)
    x, y = (np.array([float(re) + 1j * float(im) for *_, re, im in rows]) for rows in (element, semigroup))
    assert x.shape == y.shape == (n * n,)
    assert np.abs(x - y).max() <= {4.0: 128, 8.0: 256}.get(t, 32) * 2.0 ** -53 * np.abs(y).max()


def test_matelem_residual_keeps_its_absolute_value(tmp_path, capsys):
    # "residual" is the absolute max_residual, and the new key "scale" follows it
    rc, out, _ = run(capsys, ["matelem", "--instance", str(DEMO_INSTANCES / "damping.json"), "--residual"])
    verdict = inline_verdict(out)
    assert rc == 0 and list(verdict) == ["residual", "scale", "r", "t"]
    assert verdict["residual"] <= 1e-9 * (1 + verdict["scale"])


@pytest.mark.parametrize(("n", "d"), [(3, 1), (4, 2)])
def test_matelem_residual_at_larger_sides_is_a_per_trial_norm2_loop(tmp_path, capsys, monkeypatch, n, d):
    # the residual and the scale are each the largest norm2 over the trials, from
    # one batched SVD: the bytes of a loop of norm2 calls, slice by slice
    rng = np.random.default_rng(140 + n)
    steps = {name: stepfunction_to_json(StepFunction.from_breakpoints(cuts, complex_randn(rng, 2, d)))
             for name, cuts in (("f", [0.0, 0.375, 1.0]), ("g", [0.0, 0.625, 1.0]))}
    obj = {
        "flow": flow_to_json(random_flow(rng, n, d)),
        "perturbation": {name: coefficient_to_json(random_coefficient(rng, n, d)) for name in ("F1", "F2")},
        "stepfunctions": steps,
    }
    argv = ["matelem", "--instance", write(tmp_path, obj), "--t", "0.75", "--r", "0.25", "--residual"]
    rc, out, err = run(capsys, argv)
    verdict = inline_verdict(out)
    assert (rc, err) == (0, "") and verdict["residual"] > 0.0
    monkeypatch.setattr(qfk.matrix_elements, "norm2_stack", lambda s: np.array([norm2(x) for x in s]))
    assert run(capsys, argv) == (rc, out, err)


@pytest.mark.parametrize(("n", "residual"), [(8, []), (8, ["--residual"]), (12, ["--residual"])])
def test_matelem_cap_covers_measured_peak(tmp_path, capsys, monkeypatch, n, residual):
    # a cap one byte below what a whole run allocates must stop it beforehand; with
    # --residual the run also multiplies the superoperators of the three partitions
    rng = np.random.default_rng(118)
    f = StepFunction.from_breakpoints(np.arange(9) / 8, complex_randn(rng, 8, 1))
    obj = {
        "flow": flow_to_json(random_flow(rng, n, 1)),
        "perturbation": {name: coefficient_to_json(random_coefficient(rng, n, 1)) for name in ("F1", "F2")},
        "stepfunctions": {"f": stepfunction_to_json(f), "g": stepfunction_to_json(f)},
    }
    argv = ["matelem", "--instance", write(tmp_path, obj), *residual]
    run(capsys, argv)
    tracemalloc.start()
    try:
        main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    monkeypatch.setattr(qfk.linalg, "DEFAULT_MEMORY_CAP", peak - 1)
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (2, "") and err.endswith(f"cap is {peak - 1}\n")


def test_matelem_reserves_its_distinct_intervals_when_the_interval_bound_does_not_fit(tmp_path, capsys, monkeypatch):
    # 32 intervals of two repeated (c, d) pairs on M_2 (d = 1): a cap that holds
    # the 2 distinct slices but not the 32 + 17 + 1 the breakpoints bound runs;
    # one byte less names the distinct count
    f = StepFunction(ticks=np.arange(33) * 2 ** 15, values=np.tile([[0.5], [0.25j]], (16, 1)))  # the 1/32 grid
    g = StepFunction.constant([0.5], 1.0)
    obj = demo_instance("damping.json")
    obj["stepfunctions"] = {"f": stepfunction_to_json(f), "g": stepfunction_to_json(g)}
    path = write(tmp_path, obj)
    need = 4 + 2 * 2 + 9 * 2  # the blocks, and 2 slices, their exponentials and workspace
    monkeypatch.setattr(qfk.linalg, "DEFAULT_MEMORY_CAP", need * 256)
    assert run(capsys, ["matelem", "--instance", path])[0] == 0
    monkeypatch.setattr(qfk.linalg, "DEFAULT_MEMORY_CAP", need * 256 - 1)
    rc, out, err = run(capsys, ["matelem", "--instance", path])
    assert (rc, out) == (2, "") and err == f"error: {need} dense operators on C^4 need {need * 256} bytes, cap is {need * 256 - 1}\n"


def test_matelem_refuses_a_stack_over_the_default_cap_at_once(tmp_path, capsys, monkeypatch):
    # n = 40, d = 1 and 64 distinct intervals: 2 x 64 generators and exponentials
    # of 41 MB each; refused before the blocks are formed
    rng = np.random.default_rng(119)
    f = StepFunction.from_breakpoints(np.arange(65) / 64, complex_randn(rng, 64, 1))
    obj = {
        "perturbation": {name: coefficient_to_json(random_coefficient(rng, 40, 1)) for name in ("F1", "F2")},
        "stepfunctions": {"f": stepfunction_to_json(f)},
    }
    path = write(tmp_path, obj)
    monkeypatch.setattr(qfk.cli, "composed_blocks", lambda *a: pytest.fail("blocks formed"))
    start = time.perf_counter()
    rc, out, err = run(capsys, ["matelem", "--instance", path])
    assert time.perf_counter() - start < 1.0
    need = (4 + 2 * 64 + 9) * 40 ** 4 * 16
    assert (rc, out) == (2, "")
    assert err == f"error: 141 dense operators on C^1600 need {need} bytes, cap is {qfk.linalg.DEFAULT_MEMORY_CAP}\n"


EXTREME = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, 1e-300, -1e-300, 1e300, -1e300,
                           0.5, -1.25, 3.0])


@st.composite
def extreme_matelem_inputs(draw):
    """An n = 1 or 2, d = 1 matelem instance whose coefficient entries and step
    values are 0, subnormal, 1e+-300 or ordinary, with --t up to 1e12."""
    n = draw(st.integers(1, 2))
    pairs = lambda count: [[draw(EXTREME), draw(EXTREME)] for _ in range(count)]
    perturbation = {
        name: {"n": n, "d": 1, "K": pairs(n * n), "L": pairs(n * n), "M": pairs(n * n), "W": pairs(n * n)}
        for name in ("F1", "F2")
    }
    steps = {name: {"breakpoints": [0.0, 0.5, 1.0], "values": [pairs(1), pairs(1)]} for name in ("f", "g")}
    t = draw(st.sampled_from([0.0, 1e-6, 0.75, 3.0, 1e3, 1e12]))
    return {"perturbation": perturbation, "stepfunctions": steps}, t, draw(st.booleans())


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=extreme_matelem_inputs())
def test_matelem_extreme_well_typed_inputs(tmp_path, capsys, case):
    obj, t, residual = case
    argv = ["matelem", "--instance", write(tmp_path, obj), "--t", repr(t), *(["--residual"] if residual else [])]
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 2.0
    assert rc in (0, 1, 2)
    assert (out == "") == (rc == 2) and (err == "") == (rc != 2)


@st.composite
def extreme_check_inputs(draw):
    """An n = 1 or 2, d = 1 check instance with a coefficient, a flow or both, every
    entry 0, subnormal, 1e+-300 or ordinary; h is Hermitian and W the identity or
    drawn, so that some flows pass the loader."""
    n = draw(st.integers(1, 2))
    pairs = lambda count: [[draw(EXTREME), draw(EXTREME)] for _ in range(count)]
    obj = {}
    if draw(st.booleans()):
        obj["coefficient"] = {"n": n, "d": 1, "K": pairs(n * n), "L": pairs(n * n), "M": pairs(n * n),
                              "W": pairs(n * n)}
    if not obj or draw(st.booleans()):
        upper = np.triu(np.array(pairs(n * n)).view(complex).reshape(n, n), 1)
        h = upper + dag(upper) + np.diag([draw(EXTREME) for _ in range(n)])
        W = pairs(n * n) if draw(st.booleans()) else matrix_to_pairs(np.eye(n))
        obj["flow"] = {"n": n, "d": 1, "h": matrix_to_pairs(h), "l": pairs(n * n), "W": W}
    return obj


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obj=extreme_check_inputs())
def test_check_extreme_well_typed_inputs(tmp_path, capsys, obj):
    # an overflow is an input error naming its section, before an SVD or eigen
    # call on it: no numpy warning, and no NaN or Infinity in the report
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, ["check", "--instance", write(tmp_path, obj)])
    assert time.perf_counter() - start < 2.0
    assert rc in (0, 1, 2)
    assert (out == "") == (rc == 2) and (err == "") == (rc != 2)
    assert "NaN" not in out and "Infinity" not in out
    assert rc != 2 or (err.startswith("error: section '") and err.count("\n") == 1)


def run_extreme(capfd, argv):
    """Run a command on an extreme instance: it ends with exit 0, 1 or 2 within 2 s,
    with no numpy warning and no LAPACK failure on stderr (captured at the file
    descriptor, where LAPACK's own complaints such as DLASCL's are written)."""
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capfd, argv)
    assert time.perf_counter() - start < 2.0
    assert rc in (0, 1, 2)
    assert (out == "") == (rc == 2) and (err == "") == (rc != 2)
    assert "did not converge" not in err and "LAPACK" not in err and "** On entry to" not in err


@st.composite
def extreme_coefficient(draw, n):
    pairs = lambda count: [[draw(EXTREME), draw(EXTREME)] for _ in range(count)]
    return {"n": n, "d": 1, "K": pairs(n * n), "L": pairs(n * n), "M": pairs(n * n), "W": pairs(n * n)}


@st.composite
def extreme_flow(draw, n):
    """A flow (h, l, W) of extreme entries, h Hermitian and W the identity or drawn."""
    pairs = lambda count: [[draw(EXTREME), draw(EXTREME)] for _ in range(count)]
    upper = np.triu(np.array(pairs(n * n)).view(complex).reshape(n, n), 1)
    h = upper + dag(upper) + np.diag([draw(EXTREME) for _ in range(n)])
    W = pairs(n * n) if draw(st.booleans()) else matrix_to_pairs(np.eye(n))
    return {"n": n, "d": 1, "h": matrix_to_pairs(h), "l": pairs(n * n), "W": W}


@st.composite
def extreme_perturbation(draw, n):
    """F1, F2 of extreme entries, and sometimes a theta of extreme entries."""
    section = {"F1": draw(extreme_coefficient(n)), "F2": draw(extreme_coefficient(n))}
    if draw(st.booleans()):
        section["theta"] = draw(extreme_flow(n))
    return section


@st.composite
def extreme_drive(draw, n, required):
    """A coefficient section of extreme entries: none (unless required), drawn entry by
    entry, or the unitary-type coefficient of a drawn flow with W = I (its entries may overflow)."""
    how = draw(st.sampled_from(["entries", "flow"] if required else ["none", "entries", "flow"]))
    if how == "entries":
        return draw(extreme_coefficient(n))
    if how == "flow":
        flow = draw(extreme_flow(n))
        theta = FlowGenerator(h=np.array(flow["h"]).view(complex).reshape(n, n),
                              l=np.array(flow["l"]).view(complex).reshape(n, n), W=np.eye(n))
        with np.errstate(all="ignore"):
            return coefficient_to_json(hp_coefficient_for_flow(theta))
    return None


@st.composite
def extreme_simulation_inputs(draw, kind):
    """An n = 1 or 2, d = 1 simulation instance of the kind, entries 0, subnormal,
    1e+-300 or ordinary, T from 5e-324 to 1e300, slot counts to 2^29 and, for a
    multiplier ladder, split fractions from 1e-9."""
    n = draw(st.integers(1, 2))
    # a multiplier ladder splits each rung into a head and a nonempty tail
    counts = [1, 2, 3, 4, 8, 16, 64, 4096, 1 << 16, 1 << 20, 1 << 29][kind == "multiplier":]
    ladder = draw(st.lists(st.sampled_from(counts), min_size=1, max_size=3, unique=True).map(sorted))
    T = draw(st.sampled_from([5e-324, 1e-300, 1e-6, 0.5, 1.0, 1e3, 1e300]))
    obj = {"perturbation": draw(extreme_perturbation(n)),
           "simulation": {"T": T, "N": ladder, "kind": kind}}
    if kind == "multiplier":
        obj["simulation"]["split_fraction"] = draw(st.sampled_from([1e-9, 1e-6, 0.01, 0.25, 0.5, 0.99]))
    # hp reads the coefficient section as its drive, and isometry as its F
    G = draw(extreme_drive(n, required=kind in ("hp", "isometry")))
    if G is not None:
        obj["coefficient"] = G
    return obj


@pytest.mark.parametrize("kind", ["hp", "fk", "isometry", "multiplier"])
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_simulate_extreme_well_typed_inputs(tmp_path, capfd, kind, data):
    obj = data.draw(extreme_simulation_inputs(kind))
    run_extreme(capfd, ["simulate", "--instance", write(tmp_path, obj)])


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obj=extreme_simulation_inputs("fk"))
def test_compare_extreme_well_typed_inputs(tmp_path, capfd, obj):
    run_extreme(capfd, ["compare", "--instance", write(tmp_path, obj)])


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(1, 2), data=st.data(),
       times=st.sampled_from(["0", "1e-6", "0.75", "3", "1e3", "1e12", "0.5,1e300"]))
def test_semigroup_extreme_well_typed_inputs(tmp_path, capfd, n, data, times):
    obj = {"perturbation": data.draw(extreme_perturbation(n))}
    run_extreme(capfd, ["semigroup", "--instance", write(tmp_path, obj), "--times", times])


@pytest.mark.parametrize("obj,message", [
    ({"coefficient": {"n": 1, "d": 1, "K": [[1e300, 3.0]], "L": [[-1e300, 1e300]], "M": [[0.0, 1e-300]],
                      "W": [[5e-324, 1e-310]]}}, "section 'coefficient': q(F) is not finite"),
    ({"flow": {"n": 1, "d": 1, "h": [[0.0, 0.0]], "l": [[1e300, 1e300]], "W": [[1.0, 0.0]]}},
     "section 'flow': structure bound 'lindblad_dissipation' is not finite"),
    ({"coefficient": {"n": 1, "d": 1, "K": [[0.0, 0.0]], "L": [[0.0, 0.0]], "M": [[1e153, 0.0]],
                      "W": [[0.9999999999, 0.0]]}}, "section 'coefficient': beta is not finite"),
], ids=["q(F)", "theta(I)", "beta"])
def test_check_overflow_is_input_error_naming_its_section(tmp_path, capsys, obj, message):
    # q(F) holds L*L = 1e600; with W = I the Ldb bound ||W||^2 ||E'|| ||l||^2 is
    # 0 * inf = NaN; and beta, the largest eigenvalue of x x* with
    # x = M (1 - W*W)^(-1/2), is about 5e315
    rc, out, err = run(capsys, ["check", "--instance", write(tmp_path, obj)])
    assert (rc, out, err) == (2, "", f"error: {message}\n")


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
    ("hp", "hp_vacuum_ladder"), ("fk", "fk_expectation_ladder"), ("isometry", "fk_expectation_ladder")])
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


@pytest.mark.parametrize(
    "command,flag",
    [("simulate", "--tol"), ("check", "--seed"), ("semigroup", "--seed"), ("simulate", "--seed"), ("compare", "--seed"),
     ("matelem", "--seed")],
)
def test_a_flag_the_subcommand_does_not_read_is_refused(capsys, command, flag):
    # simulate's verdict is ladder_verdict's fixed rule, and no subcommand draws
    # a random number: the parser refuses these flags
    with pytest.raises(SystemExit) as exc:
        main([command, "--instance", str(DEMO_INSTANCES / "damping.json"), flag, "1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"unrecognized arguments: {flag} 1" in captured.err


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


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_fk_reference_refuses_a_drive_that_is_not_unitary_type(tmp_path, capsys, command):
    obj = demo_instance("damping.json")
    obj["coefficient"] = coefficient_to_json(random_coefficient(np.random.default_rng(118), 2, 1))
    rc, out, err = run(capsys, [command, "--instance", write(tmp_path, obj)])
    assert (rc, out) == (2, "")
    assert err == "error: coefficient must satisfy q(G) = 0 and q(G*) = 0 to drive a unitary cocycle\n"


@pytest.mark.parametrize("kind,message", [
    ("hp", "the estimate at N = 4 is not finite"),
    ("isometry", "the estimate at N = 4 is not finite"),
    ("multiplier", "the estimate at N = 4 is not finite"),
])
def test_overflowing_ladder_of_each_kind_is_input_error(tmp_path, capsys, kind, message):
    obj = demo_instance("damping.json")
    obj["coefficient"] = obj["perturbation"]["F1"]
    obj["simulation"] = {"T": 9e99, "N": [4, 8], "kind": kind}
    rc, out, err = run(capsys, ["simulate", "--instance", write(tmp_path, obj)])
    assert (rc, out, err) == (2, "", f"error: simulation.T = 9e+99: {message}\n")


@pytest.mark.parametrize("kind,ladder,first", [("isometry", [1, 2, 4, 8], 4), ("multiplier", [2, 4, 8, 16], 8)])
def test_overflowing_ladder_names_its_first_non_finite_rung(tmp_path, capsys, kind, ladder, first):
    obj = demo_instance("damping.json")
    if kind == "isometry":
        obj["coefficient"] = obj["perturbation"]["F1"]
    obj["simulation"] = {"T": 1e60, "N": ladder, "kind": kind}
    rc, out, err = run(capsys, ["simulate", "--instance", write(tmp_path, obj)])
    assert (rc, out, err) == (2, "", f"error: simulation.T = 1e+60: the estimate at N = {first} is not finite\n")
    # the rungs before it are finite
    obj["simulation"]["N"] = ladder[:2]
    rc, out, err = run(capsys, ["simulate", "--instance", write(tmp_path, obj)])
    assert rc in (0, 1) and err == "" and all(np.isfinite([float(r[2]) for r in csv_rows(out)]))


def test_multiplier_ladder_with_a_one_slot_rung_is_input_error(tmp_path, capsys):
    # a one-slot rung leaves the staged residual no tail to split off
    obj = demo_instance("multiplier.json")
    obj["simulation"]["N"] = [1, 2, 4]
    rc, out, err = run(capsys, ["simulate", "--instance", write(tmp_path, obj)])
    assert (rc, out) == (2, "")
    assert err == "error: simulation.N: a multiplier ladder needs slot counts >= 2, got [1, 2, 4]\n"


@pytest.mark.parametrize("command,kind", [("simulate", "fk"), ("simulate", "multiplier"), ("compare", "fk")])
def test_exponential_scheme_with_a_driving_coefficient_is_input_error(tmp_path, capsys, command, kind):
    # Euler is the only step rule, and the simulation section has no key that names one
    obj = demo_instance("damping.json")
    obj["coefficient"] = obj["perturbation"]["F1"]
    obj["simulation"] = {"T": 1.0, "N": [4, 8], "kind": kind, "scheme": "exponential"}
    rc, out, err = run(capsys, [command, "--instance", write(tmp_path, obj)])
    assert (rc, out) == (2, "")
    assert err == "error: section 'simulation': unknown key 'scheme'; expected T, N, kind, split_fraction\n"


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
    assert err.startswith("error: ") and "[re, im] pair 0 must hold numbers" in err


@pytest.mark.parametrize("command", ["check", "semigroup", "matelem", "simulate", "compare"])
@pytest.mark.parametrize("text", ["0.5", "1", "abc"])
def test_string_matrix_entry_is_input_error(tmp_path, capsys, command, text):
    # a matrix entry is a number, as a step function's value is, though numpy reads "0.5"
    obj = demo_instance("weyl.json")
    string_in_coefficient(obj, text)
    rc, out, err = run(capsys, [command, "--instance", write(tmp_path, obj)])
    assert (rc, out) == (2, "")
    want = obj["coefficient"]["K"][0]
    assert err == f"error: section 'coefficient': [re, im] pair 0 must hold numbers, got {want!r}\n"


COMMANDS = ["check", "semigroup", "matelem", "simulate", "compare"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize(
    "name,field,value,message",
    [
        ("multiplier.json", ("simulation", "split_fraction"), "abc",
         "section 'simulation': split_fraction must be a number, got 'abc'"),
        ("multiplier.json", ("simulation", "split_fraction"), None,
         "section 'simulation': split_fraction must be a number, got None"),
        ("damping.json", ("simulation", "split_fraction"), [1],
         "section 'simulation': split_fraction must be a number, got [1]"),
        ("weyl.json", ("stepfunctions",), [], "section 'stepfunctions' must be an object"),
        ("damping.json", ("stepfunctions",), "f", "section 'stepfunctions' must be an object"),
        ("damping.json", ("checks", 0, "name"), ["unital"], "section 'checks' must be a list of"),
        ("weyl.json", ("checks", 0, "name"), {"isometric_gen": 1}, "section 'checks' must be a list of"),
        ("weyl.json", ("coefficient", "n"), True, "section 'coefficient': need integers n >= 1"),
        ("multiplier.json", ("coefficient", "d"), 1.5, "section 'coefficient': need integers n >= 1"),
        ("damping.json", ("perturbation", "F1", "n"), True, "section 'perturbation': F1: need integers n >= 1"),
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
        # float() reads these strings as numbers; a number of the instance is not a string
        ("damping.json", ("simulation", "T"), "1", "section 'simulation': T must be a number, got '1'"),
        ("multiplier.json", ("simulation", "split_fraction"), "0.5",
         "section 'simulation': split_fraction must be a number, got '0.5'"),
        # a section, or an object inside one, that is not an object
        ("weyl.json", ("coefficient",), 5, "section 'coefficient': a coefficient must be an object"),
        ("damping.json", ("flow",), [1], "section 'flow': a flow must be an object"),
        ("weyl.json", ("perturbation",), [1], "section 'perturbation': a perturbation must be an object"),
        ("weyl.json", ("perturbation", "F1"), "x", "section 'perturbation': F1: a coefficient must be an object"),
        ("damping.json", ("perturbation", "F2"), None, "section 'perturbation': F2: a coefficient must be an object"),
        ("damping.json", ("perturbation", "theta"), 3, "section 'perturbation': theta: a flow must be an object"),
    ],
)
def test_malformed_section_is_input_error(tmp_path, capsys, command, name, field, value, message):
    rc, out, err = run(capsys, [command, "--instance", write(tmp_path, replaced(demo_instance(name), field, value))])
    assert (rc, out) == (2, "")
    assert err.startswith("error: " + message)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize(
    "name,field,message",
    [
        ("weyl.json", ("coefficient", "K"), "section 'coefficient': missing key 'K'"),
        ("damping.json", ("perturbation", "F1", "W"), "section 'perturbation': F1: missing key 'W'"),
        ("damping.json", ("simulation", "T"), "section 'simulation': missing key 'T'"),
        ("damping.json", ("stepfunctions", "f", "values"), "step function 'f': missing key 'values'"),
    ],
)
def test_missing_key_is_named(tmp_path, capsys, command, name, field, message):
    obj = replaced(demo_instance(name), ("stepfunctions",), {"f": {"breakpoints": [0.0, 1.0], "values": [[[0.5, 0.0]]]}})
    del functools.reduce(operator.getitem, field[:-1], obj)[field[-1]]
    rc, out, err = run(capsys, [command, "--instance", write(tmp_path, obj)])
    assert (rc, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize(
    "f,field",
    [
        ({"breakpoints": [0.0, 1.0], "values": {"a": 1}}, "values"),
        ({"breakpoints": [0.0, 1.0], "values": None}, "values"),
        ({"breakpoints": [0.0, 1.0], "values": [[None]]}, "values"),
        ({"breakpoints": {"a": 1}, "values": [[[0.5, 0.0]]]}, "breakpoints"),
        (5, None),
    ],
)
def test_malformed_step_function_names_its_field(tmp_path, capsys, command, f, field):
    # each of these once surfaced a Python internal, such as "string index out of range"
    path = write(tmp_path, replaced(demo_instance("damping.json"), ("stepfunctions",), {"f": f}))
    rc, out, err = run(capsys, [command, "--instance", path])
    assert (rc, out) == (2, "")
    if field is None:
        assert err == "error: step function 'f' must be an object\n"
    else:
        assert re.match(rf"error: step function 'f': .*\b{field[:-1]}s?\b", err), err


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize(
    "field,value,message",
    [
        (("simulation", "split_fration"), 0.5, "section 'simulation': unknown key 'split_fration'"),
        (("obsrvable",), [[1.0, 0.0]], "unknown section 'obsrvable'"),
        (("perturbation", "theeta"), {}, "section 'perturbation': unknown key 'theeta'"),
        (("perturbation", "F2", "x"), 0.1, "section 'perturbation': F2: unknown key 'x'"),
        (("perturbation", "theta"), {**flow_to_json(trivial_flow(1, 1)), "hh": []},
         "section 'perturbation': theta: unknown key 'hh'"),
        (("checks", 0, "tl"), 0.1, "check 'isometric_gen': unknown key 'tl'"),
    ],
)
def test_misspelt_key_is_input_error(tmp_path, capsys, command, field, value, message):
    # a misspelt key is refused, not dropped for its default
    path = write(tmp_path, replaced(demo_instance("multiplier.json"), field, value))
    rc, out, err = run(capsys, [command, "--instance", path])
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


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.just(HUGE) | st.floats(-2.0, 2.0) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


def instance_fields(obj: dict) -> list[tuple]:
    """Every section, present or not, each field of an object section, and named nested fields."""
    fields = [(name,) for name in SECTIONS]
    fields += [(name, key) for name, section in obj.items() if isinstance(section, dict) for key in section]
    fields += [("simulation", "split_fraction"), ("checks", 0, "name")]
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


# the keys each object of an instance accepts, as the loader's parsers and the
# *_to_json writers spell them
COEFFICIENT_KEYS = ("n", "d", "K", "L", "M", "W")
FLOW_KEYS = ("n", "d", "h", "l", "W")
OBJECT_KEYS = {
    (): SECTIONS,
    ("coefficient",): COEFFICIENT_KEYS,
    ("flow",): FLOW_KEYS,
    ("perturbation",): ("F1", "F2", "theta"),
    ("perturbation", "F1"): COEFFICIENT_KEYS,
    ("perturbation", "F2"): COEFFICIENT_KEYS,
    ("perturbation", "theta"): FLOW_KEYS,
    ("stepfunctions", "f"): ("breakpoints", "values"),
    ("stepfunctions", "g"): ("breakpoints", "values"),
    ("simulation",): ("T", "N", "kind", "split_fraction"),
}


def every_object_instance(name: str) -> dict:
    """A demo instance with every object the format has: a coefficient, a flow, a theta
    and two step functions."""
    obj = demo_instance(name)
    n, d = obj["perturbation"]["F1"]["n"], obj["perturbation"]["F1"]["d"]
    obj.setdefault("coefficient", coefficient_to_json(zero_coefficient(n, d)))
    obj["flow"] = flow_to_json(trivial_flow(n, d))
    obj["perturbation"]["theta"] = flow_to_json(trivial_flow(n, d))
    step = StepFunction.from_breakpoints([0.0, 0.5, 1.0], [[0.25] * d, [-0.5j] * d])
    obj["stepfunctions"] = {"f": stepfunction_to_json(step), "g": stepfunction_to_json(step)}
    return obj


@pytest.mark.parametrize("name", sorted(p.name for p in DEMO_INSTANCES.glob("*.json")))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_unknown_key_in_any_object_is_input_error(tmp_path, name, data):
    obj = every_object_instance(name)
    parse_instance(obj)  # well formed without the extra key
    objects = {**OBJECT_KEYS, **{("checks", i): ("name",) for i in range(len(obj["checks"]))}}
    place = data.draw(st.sampled_from(sorted(objects, key=str)), label="object")
    key = data.draw(st.text(max_size=8).filter(lambda k: k not in objects[place]), label="key")
    value = data.draw(st.just(float("nan")) | JSON_VALUES, label="value")
    functools.reduce(operator.getitem, place, obj)[key] = value
    path = write(tmp_path, obj)
    # the first step is a name: drop its one leading dot, and only that (a key may start with one)
    where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in place + (key,))[1:]
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main([command, "--instance", path]) == 2
        assert out.getvalue() == ""
        if isinstance(value, float) and value != value:
            assert err.getvalue() == f"error: {where}: non-finite number nan\n"
        else:
            assert repr(key) in err.getvalue() and "unknown" in err.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("place,key,value,message", [
    (("checks", 0), "tol", 1e-3, "check 'isometric_gen': unknown key 'tol'; expected name"),
    (("simulation",), "scheme", "euler", "section 'simulation': unknown key 'scheme'; expected T, N, kind, split_fraction"),
])
def test_a_check_tol_and_a_simulation_scheme_are_unknown_keys(tmp_path, capsys, monkeypatch, command, place, key,
                                                              value, message):
    # each had one value in use: a command judges its checks at its one --tol, and
    # Euler is the one step rule; either key is refused before any command runs
    monkeypatch.setattr(qfk.cli, "COMMANDS", {name: lambda *a: pytest.fail("computed") for name in COMMANDS})
    obj = demo_instance("weyl.json")
    functools.reduce(operator.getitem, place, obj)[key] = value
    rc, out, err = run(capsys, [command, "--instance", write(tmp_path, obj)])
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_the_analytic_workload_jobs_pass_their_own_checks(workloads, tmp_path):
    # the benchmark's analytic jobs at seed 3, the known-fault jobs included: check
    # and semigroup on generated coefficient classes, flows and perturbations
    jobs = workloads.build("analytic", 3, str(tmp_path))
    failures = {}
    for i, job in enumerate(jobs):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(job.argv)
        bad = job.check((rc, stdout.getvalue(), stderr.getvalue()))
        if bad:
            failures[f"{i}: {job.shape}"] = bad
    assert failures == {}
    shapes = [job.shape for job in jobs]
    assert len(jobs) == 39 and sum(s.startswith("semigroup ") for s in shapes) == 8
    assert sum(job.known_fault is not None for job in jobs) == 2


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


def every_command_instance() -> dict:
    """damping.json with a trivial flow section, so that all five subcommands run on it."""
    return {**demo_instance("damping.json"), "flow": flow_to_json(trivial_flow(2, 1))}


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_refuses_an_unknown_check_name(tmp_path, capsys, command):
    obj = every_command_instance()
    path = write(tmp_path, obj)
    assert run(capsys, [command, "--instance", path])[0] == 0
    obj["checks"].append({"name": "bogus"})
    rc, out, err = run(capsys, [command, "--instance", write(tmp_path, obj)])
    assert (rc, out, err) == (2, "", "error: unknown check 'bogus'\n")


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("target", ["missing/out.csv", "."], ids=["missing directory", "a directory"])
def test_unwritable_out_is_input_error(tmp_path, capsys, command, target):
    out_path = tmp_path / target
    rc, out, err = run(capsys, [command, "--instance", write(tmp_path, every_command_instance()), "--out", str(out_path)])
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: cannot write {out_path}: ")


def test_simulate_needs_simulation_section(tmp_path, capsys):
    rc, _, err = run(capsys, ["simulate", "--instance", write(tmp_path, damping_instance())])
    assert rc == 2 and "simulation" in err


def test_simulate_runs_a_nontrivial_flow_without_a_coefficient(tmp_path, capsys):
    # the oracle's drive is the flow's own HP coefficient
    rng = np.random.default_rng(113)
    obj = damping_instance(
        {
            "flow": flow_to_json(random_flow(rng, 2, 1)),
            "simulation": {"T": 0.5, "N": [4, 8], "kind": "fk"},
        }
    )
    rc, out, err = run(capsys, ["simulate", "--instance", write(tmp_path, obj)])
    assert (rc, err) == (0, "") and inline_verdict(out)["monotone"] is True


def flow_without_drive(where: str) -> dict:
    """damping.json (no coefficient) with a nontrivial flow as perturbation.theta or as the top-level flow."""
    obj = demo_instance("damping.json")
    flow = flow_to_json(random_flow(np.random.default_rng(117), 2, 1))
    return replaced(obj, ("perturbation", "theta") if where == "theta" else ("flow",), flow)


@pytest.mark.parametrize("command,kind", [("simulate", "fk"), ("compare", "fk"), ("simulate", "multiplier")])
def test_simulation_runs_the_flow_the_perturbation_runs_with(tmp_path, capsys, command, kind):
    # one flow read three ways: as perturbation.theta, as the top-level flow, and
    # as theta next to its own HP coefficient section; the oracle runs the same drive
    theta = random_flow(np.random.default_rng(117), 2, 1)
    objs = [replaced(flow_without_drive(where), ("simulation", "kind"), kind) for where in ("theta", "flow")]
    objs.append(dict(objs[0], coefficient=coefficient_to_json(hp_coefficient_for_flow(theta))))
    outs = [run(capsys, [command, "--instance", write(tmp_path, obj, f"{i}.json")]) for i, obj in enumerate(objs)]
    assert outs[0] == outs[1] == outs[2]
    assert outs[0][0] in (0, 1) and outs[0][2] == "" and len(csv_rows(outs[0][1])) == 4


@pytest.mark.parametrize("command,kind", [("simulate", "fk"), ("compare", "fk"), ("simulate", "multiplier")])
def test_an_all_zero_coefficient_is_no_drive(tmp_path, capsys, command, kind):
    # an instance without a coefficient section and one with an all-zero
    # coefficient are the same trivial-flow reading, byte for byte
    obj = replaced(demo_instance("damping.json"), ("simulation", "kind"), kind)
    zero = dict(obj, coefficient=coefficient_to_json(zero_coefficient(2, 1)))
    outs = [run(capsys, [command, "--instance", write(tmp_path, o, name)])
            for o, name in ((obj, "none.json"), (zero, "zero.json"))]
    assert outs[0] == outs[1] and outs[0][0] in (0, 1) and outs[0][2] == ""


def test_a_near_trivial_flow_drives_the_oracle_and_its_reference(tmp_path, capsys, monkeypatch):
    # a flow of entries near 1e-15 is a flow like any other: the oracle and the
    # fk reference read its HP coefficient, with no threshold that swaps in zero
    theta = FlowGenerator(h=1e-15 * SIGMA_X, l=2e-15 * np.eye(2), W=np.eye(2))
    obj = replaced(demo_instance("damping.json"), ("perturbation", "theta"), flow_to_json(theta))
    drives = []
    for name, place in (("composed_vacuum_generator", 0), ("fk_expectation_ladder", 4)):
        real = getattr(qfk.cli, name)
        monkeypatch.setattr(qfk.cli, name, lambda *a, real=real, place=place: drives.append(a[place]) or real(*a))
    assert run(capsys, ["simulate", "--instance", write(tmp_path, obj)])[0] == 0
    want = hp_coefficient_for_flow(theta).as_full()
    assert want.any() and [G.as_full().tobytes() for G in drives] == [want.tobytes()] * 2


def test_semigroup_reads_perturbation_theta(tmp_path, capsys):
    outs = [
        run(capsys, ["semigroup", "--instance", write(tmp_path, obj)])
        for obj in (flow_without_drive("theta"), flow_without_drive("flow"), demo_instance("damping.json"))
    ]
    assert outs[0] == outs[1] != outs[2]
    assert outs[0][0] in (0, 1) and outs[0][2] == ""


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(1, 2), d=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_compare_and_semigroup_build_one_generator_for_a_theta_only_instance(tmp_path, n, d, seed):
    # compare's fk reference and semigroup's P_t start from the same
    # composed_vacuum_generator input, byte for byte
    rng = np.random.default_rng(seed)
    F1, F2 = (coefficient_to_json(random_coefficient(rng, n, d)) for _ in range(2))
    obj = {"perturbation": {"F1": F1, "F2": F2, "theta": flow_to_json(random_flow(rng, n, d))},
           "simulation": {"T": 0.5, "N": [4, 8], "kind": "fk"}}
    path = write(tmp_path, obj)
    inputs = {}
    real = qfk.cli.composed_vacuum_generator
    with pytest.MonkeyPatch.context() as mp:
        for command in ("semigroup", "compare"):
            mp.setattr(qfk.cli, "composed_vacuum_generator",
                       lambda *a, command=command: inputs.setdefault(command, a) and real(*a))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                assert main([command, "--instance", path]) in (0, 1) and err.getvalue() == ""
    semigroup, compare = ([F.as_full().tobytes() for F in inputs[command]] for command in ("semigroup", "compare"))
    assert compare == semigroup


def mismatched_coefficient_instance(where: str, shift: float) -> dict:
    """damping.json with the HP coefficient of a flow theta0 as its coefficient section and
    theta0 moved by shift times a non-scalar Hermitian matrix of norm ||h|| as its flow,
    given as perturbation.theta or as the top-level flow."""
    theta0 = random_flow(np.random.default_rng(118), 2, 1)
    move = np.diag([1.0, -1.0]) * norm2(theta0.h)
    theta = FlowGenerator(h=theta0.h + shift * move, l=theta0.l, W=theta0.W)
    obj = replaced(demo_instance("damping.json"), ("perturbation", "theta") if where == "theta" else ("flow",),
                   flow_to_json(theta))
    return dict(obj, coefficient=coefficient_to_json(hp_coefficient_for_flow(theta0)))


@pytest.mark.parametrize("where,section", [("theta", "section 'perturbation': theta"), ("flow", "section 'flow'")])
@pytest.mark.parametrize("command,kind", [("simulate", "fk"), ("compare", "fk"), ("simulate", "multiplier")])
def test_a_coefficient_whose_flow_is_not_the_flow_run_is_input_error(tmp_path, capsys, where, section, command, kind):
    # a move of 1e-6 ||h|| in h is past the 1e-8 (1 + ||G||) at which the coefficient
    # must be the flow's HP coefficient; the unmoved flow (the control) runs
    for shift, want in ((0.0, None), (1e-6, f"error: section 'coefficient' is not the HP coefficient of {section}\n")):
        obj = replaced(mismatched_coefficient_instance(where, shift), ("simulation", "kind"), kind)
        rc, out, err = run(capsys, [command, "--instance", write(tmp_path, obj)])
        if want is None:
            assert rc in (0, 1) and err == ""
        else:
            assert (rc, out, err) == (2, "", want)


OVERFLOWING_FLOW = {"n": 2, "d": 1, "h": matrix_to_pairs(np.zeros((2, 2))),
                    "l": matrix_to_pairs(1e300 * np.eye(2)), "W": matrix_to_pairs(np.eye(2))}


@pytest.mark.parametrize("where,section", [("theta", "section 'perturbation': theta"), ("flow", "section 'flow'")])
@pytest.mark.parametrize("command,kind", [("simulate", "fk"), ("compare", "fk"), ("simulate", "multiplier")])
def test_a_flow_whose_hp_coefficient_overflows_is_input_error(tmp_path, capsys, monkeypatch, where, section,
                                                              command, kind):
    # l*l = 1e600: named before any SVD, with or without a coefficient section next to it
    monkeypatch.setattr(qfk.linalg.np.linalg, "svd", lambda *a, **k: pytest.fail("SVD before the refusal"))
    obj = replaced(demo_instance("damping.json"), ("simulation", "kind"), kind)
    obj = replaced(obj, ("perturbation", "theta") if where == "theta" else ("flow",), OVERFLOWING_FLOW)
    for extra in ({}, {"coefficient": coefficient_to_json(inner_coefficient(np.random.default_rng(119), 2, 1))}):
        rc, out, err = run(capsys, [command, "--instance", write(tmp_path, obj | extra)])
        assert (rc, out, err) == (2, "", f"error: {section}: its HP coefficient is not finite\n")


@pytest.mark.parametrize("where", ["theta", "flow"])
@pytest.mark.parametrize("kind", ["hp", "isometry"])
def test_hp_and_isometry_read_no_flow(tmp_path, capsys, where, kind):
    # an overflowing theta or flow leaves their bytes as they are without it
    obj = {"coefficient": coefficient_to_json(weyl_coefficient(1.0, n=2)),
           "perturbation": {"F1": coefficient_to_json(zero_coefficient(2, 1)),
                            "F2": coefficient_to_json(zero_coefficient(2, 1))},
           "simulation": {"T": 1.0, "N": [4, 8, 16], "kind": kind}}
    flowing = replaced(obj, ("perturbation", "theta") if where == "theta" else ("flow",), OVERFLOWING_FLOW)
    outs = [run(capsys, ["simulate", "--instance", write(tmp_path, o, f"{i}.json")]) for i, o in enumerate((obj, flowing))]
    assert outs[0] == outs[1] and outs[0][0] == 0


def test_compare_fk(tmp_path, capsys):
    obj = damping_instance({"simulation": {"T": 0.5, "N": [8, 16], "kind": "fk"}})
    rc, out, _ = run(capsys, ["compare", "--instance", write(tmp_path, obj)])
    assert rc == 0
    verdict = inline_verdict(out)
    assert verdict["final_diff"] <= verdict["tol"] == 0.05


def test_multiplier_ladder_past_its_slot_limit_exits_before_any_work(tmp_path, capsys, monkeypatch):
    # a split fraction of 1e-9 leaves split = 1, so every rung runs N - 1 tail steps
    obj = demo_instance("multiplier.json")
    obj["simulation"].update({"N": [4, qfk.cli.MULTIPLIER_SLOTS + 1], "split_fraction": 1e-9})
    monkeypatch.setattr(qfk.cli, "multiplier_cocycle_ladder", lambda *a: pytest.fail("rung computed"))
    rc, out, err = run(capsys, ["simulate", "--instance", write(tmp_path, obj)])
    assert (rc, out) == (2, "")
    assert err == (f"error: simulation.N = {qfk.cli.MULTIPLIER_SLOTS + 1}: a multiplier ladder steps its "
                   f"tail slot by slot, up to N = {qfk.cli.MULTIPLIER_SLOTS}\n")


def test_multiplier_ladder_is_one_library_call(tmp_path, capsys, monkeypatch):
    # every rung comes from one multiplier_cocycle_ladder call, none from a per-rung residual
    obj = demo_instance("multiplier.json")
    ladder = obj["simulation"]["N"]
    calls, call = [], qfk.cli.multiplier_cocycle_ladder
    monkeypatch.setattr(qfk.cli, "multiplier_cocycle_ladder", lambda *a: calls.append(a[2]) or call(*a))
    monkeypatch.setattr(toy_fock, "multiplier_cocycle_residual", lambda *a: pytest.fail("per-rung call"))
    rc, out, err = run(capsys, ["simulate", "--instance", write(tmp_path, obj)])
    assert rc in (0, 1) and err == ""
    assert calls == [ladder]
    assert [int(r[0]) for r in csv_rows(out)] == ladder


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
        ("semigroup", "damping.json", "semigroup_stack", np.linalg.LinAlgError("SVD did not converge")),
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


def test_cli_output_matches_tensordot_step_byte_for_byte(capsys, monkeypatch):
    # the five subcommands on the three demo instances, with the library's head
    # step and with the tensordot step it replaced; multiplier.json (n = 1)
    # reaches the step through its staged residual
    argvs = [
        [command, "--instance", str(path)]
        for path in sorted(DEMO_INSTANCES.glob("*.json"))
        for command in ("check", "semigroup", "matelem", "simulate", "compare")
    ]
    now = run_in_process(capsys, argvs)
    initial_dims = set()

    def tensordot_step(local, H, s):
        initial_dims.add(local.shape[0] // s)
        return dense_reference.tensordot_step(local, H, s)

    monkeypatch.setattr(toy_fock, "_apply_to_ampliated", tensordot_step)
    monkeypatch.setattr(toy_fock, "_add_copies", dense_reference.broadcast_add_copies)
    assert run_in_process(capsys, argvs) == now
    assert 1 in initial_dims


def test_one_parser_per_process_matches_a_fresh_parser(capsys, monkeypatch):
    assert qfk.cli._parser() is qfk.cli._parser()
    assert qfk.cli.build_parser() is not qfk.cli.build_parser()
    # options set on one call and left at their defaults on the next, so a
    # value left behind in the parser would change an output
    commands = (
        ["check", "--tol", "0.5"], ["check"],
        ["semigroup", "--times", "0.25,0.5"], ["semigroup"],
        ["matelem", "--residual", "--t", "0.5", "--r", "0.125", "--tol", "1e-6"], ["matelem"],
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
        (["matelem"], "damping.json"),  # the value is checked before whether --residual reads it
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
    # a check has no tol of its own: the key is unknown, and a JSON NaN in it is reported first
    if isinstance(tol, float) and np.isnan(tol):
        assert err.startswith("error: checks[0].tol: non-finite")
    else:
        assert err == f"error: check {name!r}: unknown key 'tol'; expected name\n"


def test_zero_tol_is_a_tolerance(tmp_path, capsys):
    checks = [{"name": "isometric_gen"}]
    path = write(tmp_path, {"coefficient": coefficient_to_json(weyl_coefficient()), "checks": checks})
    assert run(capsys, ["check", "--instance", path])[0] in (0, 1)
    assert run(capsys, ["check", "--instance", path, "--tol", "0"])[0] in (0, 1)



@pytest.mark.parametrize("command", [["check"], ["semigroup"], ["matelem"], ["matelem", "--residual"], ["simulate"],
                                     ["compare"]])
def test_a_seed_section_is_an_unknown_section(tmp_path, capsys, command):
    # no subcommand draws a random number, so nothing reads a seed: it is refused as unread input
    path = write(tmp_path, demo_instance("damping.json") | {"seed": 0})
    rc, out, err = run(capsys, command + ["--instance", path])
    assert (rc, out) == (2, "")
    assert err.startswith("error: unknown section 'seed'; expected coefficient, ")
