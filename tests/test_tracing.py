"""The benchmark's span tracer (perfbench/tracing.py) wraps qfk functions by
name; a rename in qfk must fail here rather than break a traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_in_qfk(tracing):
    missing = []
    for modname, attr in tracing.TARGETS:
        mod = importlib.import_module(f"qfk.{modname}")
        if "." in attr:  # the tracer reads methods from the class dict
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(mod, cls_name, object))
        else:
            found = callable(getattr(mod, attr, None))
        if not found:
            missing.append(f"{modname}.{attr}")
    assert missing == []


def test_install_then_uninstall_restores_every_function(tracing):
    owners = list(tracing.MODULES) + [
        getattr(importlib.import_module(f"qfk.{modname}"), attr.split(".")[0])
        for modname, attr in tracing.TARGETS
        if "." in attr
    ]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer().install()
    try:
        import qfk.cli
        import qfk.toy_fock

        # wrapped where defined and where imported
        assert qfk.toy_fock.simulate_hp_unitary is not before[owners.index(qfk.toy_fock)]["simulate_hp_unitary"]
        assert qfk.cli.norm2 is not before[owners.index(qfk.cli)]["norm2"]
    finally:
        tracer.uninstall()
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert set(now) == set(saved), owner
        assert all(now[k] is v for k, v in saved.items()), owner
