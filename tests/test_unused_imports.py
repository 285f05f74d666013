"""Every name a module of the package imports is used in that module, and
every private module-level name the package defines is read somewhere in it.

`__init__.py` is skipped by the import scan: its imports are the package's
re-exports, and they are the names `__all__` lists.
"""

import ast
import re
from pathlib import Path

import pytest

import qfk

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qfk"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by imports in source that nothing else in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom .linalg import dag, expm\n\nx = np.zeros(2)\ny = dag(x)\n"
    assert unused_imports(source) == ["os (line 1)", "expm (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def dead_private_names(sources: dict) -> list[str]:
    """The module-level `_name`s (dunders aside) that the modules in sources
    ({file name: source}) define and that no module among them reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = {
        node.id for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    dead = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            dead += [
                f"{name}: {b} (line {node.lineno})" for b in bound
                if b.startswith("_") and not b.startswith("__") and b not in read
            ]
    return dead


def test_finds_a_dead_private_name():
    sources = {
        "a.py": "_CAP = 3\n_UNREAD, kept = 1, 2\n\ndef _helper(x):\n    return x\n\ndef _stale(x):\n    return x\n",
        "b.py": "from .a import _CAP, _helper\n\ndef public():\n    return _helper(_CAP)\n",
    }
    assert dead_private_names(sources) == ["a.py: _UNREAD (line 2)", "a.py: _stale (line 7)"]


def test_no_dead_private_names():
    assert dead_private_names({p.name: p.read_text() for p in PACKAGE.glob("*.py")}) == []


def reexported_names(source: str) -> list[str]:
    """The names bound by the relative imports of an `__init__.py` source."""
    return [
        alias.asname or alias.name for node in ast.parse(source).body
        if isinstance(node, ast.ImportFrom) and node.level for alias in node.names
    ]


def test_reads_the_reexports():
    source = "from . import linalg\nfrom .flows import OperatorMap, trivial_flow as trivial\nimport numpy as np\n"
    assert reexported_names(source) == ["linalg", "OperatorMap", "trivial"]


def test_reexports_are_the_export_list():
    # each name once in both lists, and `from qfk import *` resolves every one
    names = reexported_names((PACKAGE / "__init__.py").read_text())
    assert sorted(names) == sorted(qfk.__all__)
    namespace = {}
    exec("from qfk import *", namespace)
    assert all(namespace[name] is getattr(qfk, name) for name in qfk.__all__)


# the instrument layers, which the toy-Fock oracle checks and which must not depend on it
INSTRUMENTS = ("linalg", "coefficients", "flows", "perturbations", "matrix_elements", "instances")


def oracle_imports(source: str) -> list[str]:
    """The lines of source that import the toy_fock module or a name from it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [f"{node.module or ''}.{alias.name}".lstrip(".") for alias in node.names]
        else:
            continue
        if any("toy_fock" in module.split(".") for module in modules):
            lines.append(f"line {node.lineno}")
    return lines


def test_finds_an_oracle_import():
    source = ("from . import linalg\nfrom . import toy_fock\nfrom .toy_fock import ladder_verdict\n"
              "import qfk.toy_fock as tf\nfrom qfk.linalg import dag\nfrom .toy_fock_notes import x\n")
    assert oracle_imports(source) == ["line 2", "line 3", "line 4"]


@pytest.mark.parametrize("name", INSTRUMENTS)
def test_instrument_layers_do_not_import_the_oracle(name):
    assert oracle_imports((PACKAGE / f"{name}.py").read_text()) == []


def entry_budgets(source: str) -> list[str]:
    """The module-level names of source, assigned or imported, that end in
    `_ENTRIES`: an entry budget, or a copy of one that a patch would not reach."""
    bound = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        bound += [f"{name} (line {node.lineno})" for name in names if name.endswith("_ENTRIES")]
    return bound


def test_finds_an_entry_budget():
    source = ("from .linalg import CHUNK_ENTRIES, chunks\n_LADDER_ENTRIES = 1 << 14\nA, B_ENTRIES = 1, 2\n"
              "SIZE: int = 3\nTOTAL_ENTRIES: int = 4\n\ndef f():\n    LOCAL_ENTRIES = 5\n")
    assert entry_budgets(source) == [
        "CHUNK_ENTRIES (line 1)", "_LADDER_ENTRIES (line 2)", "B_ENTRIES (line 3)", "TOTAL_ENTRIES (line 5)",
    ]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "linalg.py"], ids=lambda p: p.name)
def test_one_entry_budget_for_every_batched_pass(path):
    # linalg.CHUNK_ENTRIES, read through linalg.chunks, sizes every batched pass
    assert entry_budgets(path.read_text()) == []


# the names of the JSON wire format, which only `instances` defines
WIRE_FORMAT = re.compile(r"_from_json$|_to_json$|^matrix_(from|to)_pairs$")


def wire_format_definitions(source: str) -> list[str]:
    """The functions and assigned names of source, at any depth, that read or write the wire format."""
    defined = []
    for node in sorted(ast.walk(ast.parse(source)), key=lambda node: getattr(node, "lineno", 0)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        defined += [f"{name} (line {node.lineno})" for name in names if WIRE_FORMAT.search(name)]
    return defined


def test_finds_a_wire_format_definition():
    source = ("from .instances import matrix_from_pairs\n\ndef flow_to_json(fg):\n    return {}\n\n"
              "class StepFunction:\n    def values_to_json(self):\n        pass\n\n"
              "def _dims_from_json(obj):\n    pass\n\nmatrix_to_pairs = list\njson_text = '{}'\n"
              "def matrix_from_pairs_checked(x):\n    pass\n")
    assert wire_format_definitions(source) == [
        "flow_to_json (line 3)", "values_to_json (line 7)", "_dims_from_json (line 10)", "matrix_to_pairs (line 13)",
    ]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "instances.py"], ids=lambda p: p.name)
def test_only_instances_defines_the_wire_format(path):
    assert wire_format_definitions(path.read_text()) == []
