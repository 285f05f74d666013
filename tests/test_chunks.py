"""Every batched pass gives the same bits at any chunk size: one item per slice
(`linalg.CHUNK_ENTRIES` = 1) against the default budget of 2^14 entries."""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

import qfk.cli
import qfk.flows
import qfk.linalg
import qfk.perturbations
import qfk.toy_fock
from qfk.instances import coefficient_to_json, flow_to_json, stepfunction_to_json
from qfk.linalg import chunks, expm_stack
from qfk.matrix_elements import StepFunction

from conftest import complex_randn, random_coefficient, random_flow

DEMO_INSTANCES = Path(__file__).resolve().parent.parent / "demos" / "instances"


def cli(tmp_path, obj, argv):
    """(exit code, stdout, stderr) of a CLI run on the instance obj."""
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = qfk.cli.main([argv[0], "--instance", str(path), *argv[1:]])
    return rc, out.getvalue(), err.getvalue()


def perturbed(rng, n, d):
    return {
        "flow": flow_to_json(random_flow(rng, n, d)),
        "perturbation": {name: coefficient_to_json(random_coefficient(rng, n, d)) for name in ("F1", "F2")},
    }


def semigroup(tmp_path):
    # two passes by default at n = 8 (four times, then one), so passes split and chain
    obj = perturbed(np.random.default_rng(140), 8, 1)
    return cli(tmp_path, obj, ["semigroup", "--times", "0.25,0.5,1,2,3"])


def validate_structure(tmp_path):
    # four trials per call at n = 8, d = 3
    return qfk.flows.validate_structure(random_flow(np.random.default_rng(141), 8, 3)).residuals


def matelem(tmp_path):
    rng = np.random.default_rng(142)
    obj = perturbed(rng, 2, 1)
    ticks = [i / 8 for i in range(9)]
    obj["stepfunctions"] = {
        name: stepfunction_to_json(StepFunction.from_breakpoints(ticks, complex_randn(rng, 8, 1)))
        for name in ("f", "g")
    }
    return cli(tmp_path, obj, ["matelem", "--residual"])


def simulate(tmp_path):
    obj = json.loads((DEMO_INSTANCES / "damping.json").read_text())
    assert obj["simulation"]["kind"] == "fk"
    return cli(tmp_path, obj, ["simulate"])


def expm(tmp_path):
    # generic slices of every Pade degree, a chain t x, 2 t x, 8 t x, triangular,
    # diagonal and non-finite slices, shuffled
    rng = np.random.default_rng(143)
    m = 20
    x = complex_randn(rng, m, m)
    x /= np.abs(x).sum(axis=0).max()
    generic = [s * complex_randn(rng, m, m) / m for s in (0.01, 0.2, 0.8, 2.0, 50.0)]
    chain = [t * 40 * x for t in (1, 2, 8)]
    triangular = np.triu(complex_randn(rng, m, m))
    diagonal = np.diag(complex_randn(rng, m, 1)[:, 0])
    nan = complex_randn(rng, m, m)
    nan[3, 4] = np.nan
    stack = np.array([*generic, *chain, triangular, diagonal, nan])
    return expm_stack(stack[rng.permutation(len(stack))]).tobytes()


PASSES = {"semigroup": semigroup, "validate_structure": validate_structure, "matelem": matelem, "simulate": simulate, "expm_stack": expm}


@pytest.mark.parametrize("name", sorted(PASSES))
def test_chunk_size_moves_no_output_bit(tmp_path, monkeypatch, name):
    slices = []

    def recorded(k, entries):
        out = chunks(k, entries)
        slices.extend(c.stop - c.start for c in out)
        return out

    for module in (qfk.linalg, qfk.flows, qfk.perturbations, qfk.toy_fock, qfk.cli):
        monkeypatch.setattr(module, "chunks", recorded)
    default = PASSES[name](tmp_path)
    # the default run stacks several items in a slice; the other one item in each
    assert max(slices) > 1
    slices.clear()
    monkeypatch.setattr(qfk.linalg, "CHUNK_ENTRIES", 1)
    assert PASSES[name](tmp_path) == default
    assert set(slices) == {1}
