"""Every name a module of the package imports is used in that module, and
every private module-level name the package defines is read somewhere in it.

`__init__.py` is skipped by the import scan: its imports are the package's
re-exports, and they are the names `__all__` lists.
"""

import argparse
import ast
import re
from pathlib import Path

import pytest

import qfk
import qfk.cli

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


# the entry points whose reach every definition of the package must lie in
ROOTS = [PACKAGE / "cli.py", *sorted(PACKAGE.parent.parent.glob("demos/*.py")),
         *sorted(PACKAGE.parent.parent.glob("perfbench/*.py"))]
# the wire writers, kept so that users can write instances from the package's objects
UNREACHED_ALLOWED = ("coefficient_to_json", "flow_to_json", "stepfunction_to_json", "matrix_to_pairs")


def mentioned(node: ast.AST) -> set:
    """The names node reads, as names, attributes or imports, or spells as dotted identifier strings."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in sub.names)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.update(part for part in sub.value.split(".") if part.isidentifier())
    return names


def reached_definitions(sources: dict, roots: list[str]) -> tuple[dict, set]:
    """({name: [(file name, node), ...]} of the top-level definitions of the modules in
    sources ({file name: source}), and the names of those that the root sources
    reach, directly or through the definitions they reach.

    A definition (a function, a class or an assigned name) is reached when a
    reached source mentions its name (`mentioned`); a class's methods and an
    assignment's value come with it, and the modules' other top-level
    statements (imports aside), which run on import, count as reached.  Names
    are matched across modules, so a name defined twice is reached once for both."""
    definitions, todo = {}, set()
    for name, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    todo |= mentioned(node)
                continue
            for b in bound:
                definitions.setdefault(b, []).append((name, node))
    for root in roots:
        todo |= mentioned(ast.parse(root))
    reached = set()
    while todo:
        b = todo.pop()
        if b in reached or b not in definitions:
            continue
        reached.add(b)
        for _, node in definitions[b]:
            todo |= mentioned(node)
    return definitions, reached


def unreached_definitions(sources: dict, roots: list[str]) -> list[str]:
    """The top-level definitions of the modules in sources that no root source reaches (`reached_definitions`)."""
    definitions, reached = reached_definitions(sources, roots)
    return sorted(f"{name}: {b} (line {node.lineno})" for b, defs in definitions.items() if b not in reached
                  for name, node in defs)


def test_finds_an_unreached_definition():
    sources = {
        "a.py": "LIMIT = 3\n_SPARE = 4\n\ndef helper(x):\n    return x + LIMIT\n\ndef orphan():\n    return 1\n",
        "b.py": "from .a import helper\n\nclass Model:\n    def run(self):\n        return helper(2)\n\nprint(_SPARE)\n",
    }
    roots = ["from pkg.b import Model\nModel().run()\n", "TARGETS = {('a', 'b.Unknown'): None}\n"]
    assert unreached_definitions(sources, roots) == ["a.py: orphan (line 7)"]
    # a string that spells a name reaches it, as a tracing target does
    assert unreached_definitions(sources, roots + ["TARGETS = {('a', 'orphan'): None}\n"]) == []


def test_every_definition_is_reached_from_the_cli_demos_or_perfbench():
    # the entry points reach every definition but the wire writers
    sources = {p.name: p.read_text() for p in MODULES}
    roots = [p.read_text() for p in ROOTS]
    unreached = unreached_definitions(sources, roots)
    assert sorted(u.split(" (")[0] for u in unreached) == [f"instances.py: {name}" for name in sorted(UNREACHED_ALLOWED)]
    # the planted control: a definition that no entry point reaches fails the guard
    sources["linalg.py"] += "\n\ndef planted_unreached(x):\n    return x\n"
    planted = set(unreached_definitions(sources, roots)) - set(unreached)
    assert [u.split(" (")[0] for u in planted] == ["linalg.py: planted_unreached"]


# the names of a random draw: numpy's generator and normal draws, and the tests' complex normal helper
RANDOM_DRAWS = ("default_rng", "standard_normal", "complex_randn")


def random_draws(sources: dict, roots: list[str]) -> list[str]:
    """The definitions reached from the roots (`reached_definitions`) that mention a name of RANDOM_DRAWS."""
    definitions, reached = reached_definitions(sources, roots)
    found = [(name, b, set(RANDOM_DRAWS) & mentioned(node)) for b in reached for name, node in definitions[b]]
    return sorted(f"{name}: {b} mentions {', '.join(sorted(draws))}" for name, b, draws in found if draws)


def test_finds_a_random_draw():
    sources = {"a.py": "import numpy as np\n\ndef draw(k):\n    return np.random.default_rng(k).standard_normal(2)\n\n"
                       "def exact(k):\n    return k\n\ndef unused():\n    return complex_randn(None, 1, 1)\n"}
    assert random_draws(sources, ["from a import draw, exact\n"]) == ["a.py: draw mentions default_rng, standard_normal"]
    assert random_draws(sources, ["from a import exact\n"]) == []


def test_no_definition_the_cli_reaches_draws_a_random_number():
    # every verdict of the command line is one deterministic function of its input
    sources = {p.name: p.read_text() for p in MODULES}
    assert random_draws(sources, [(PACKAGE / "cli.py").read_text()]) == []
    # the planted control: a sampled check on the cli's path fails the guard
    sources["matrix_elements.py"] += "\n\ndef verify_cocycle_identity(rng):\n    return rng.standard_normal(2)\n"
    assert random_draws(sources, [(PACKAGE / "cli.py").read_text()]) == [
        "matrix_elements.py: verify_cocycle_identity mentions standard_normal"]


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


# the tick grid, which only `matrix_elements` reads: every other module converts times through it
TICK_GRID = ("TICK", "TIME_LIMIT")


def tick_grid_reads(source: str) -> list[str]:
    """The lines of source that import or read TICK or TIME_LIMIT, as a name or an attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        if any(name in TICK_GRID for name in names):
            lines.append(f"line {node.lineno}")
    return sorted(set(lines), key=lambda line: int(line.split()[1]))


def test_finds_a_tick_grid_read():
    source = ("from .matrix_elements import TICK, StepFunction\nx = 3 * TICK\n"
              "from . import matrix_elements as me\ny = me.TIME_LIMIT\nTICKS = to_ticks(1.0)\n")
    assert tick_grid_reads(source) == ["line 1", "line 2", "line 4"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "matrix_elements.py"], ids=lambda p: p.name)
def test_only_matrix_elements_reads_the_tick_grid(path):
    assert tick_grid_reads(path.read_text()) == []


def unread_options(parser: argparse.ArgumentParser, source: str) -> list[str]:
    """The options that a subcommand of parser declares and that its path in source
    never reads as `args.<dest>`: its `cmd_<name>`, the module-level functions that
    it names (and those that they name, and so on), and `main`, which every path runs."""
    functions = {node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}

    def reads(name: str) -> set:
        seen, todo, read = set(), [name], set()
        while todo:
            fn = todo.pop()
            if fn in seen or fn not in functions:
                continue
            seen.add(fn)
            for node in ast.walk(functions[fn]):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args":
                    read.add(node.attr)
                elif isinstance(node, ast.Name):
                    todo.append(node.id)
        return read

    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    unread = []
    for name, sub in commands.items():
        read = reads(f"cmd_{name}") | reads("main")
        unread += [f"{name} {a.option_strings[0]}" for a in sub._actions if a.dest != "help" and a.dest not in read]
    return unread


def test_finds_an_unread_option():
    source = ("def _limit(args):\n    return args.limit\n\n"
              "def cmd_run(inst, args):\n    return _limit(args) + args.rate\n\n"
              "def cmd_stop(inst, args):\n    return 0\n\n"
              "def main(argv=None):\n    args = parse(argv)\n    return load(args.instance)\n")
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    for name, options in (("run", ("--instance", "--limit", "--rate", "--seed")), ("stop", ("--instance", "--rate"))):
        p = sub.add_parser(name)
        for option in options:
            p.add_argument(option)
    assert unread_options(parser, source) == ["run --seed", "stop --rate"]


def test_each_subcommand_declares_only_the_options_it_reads():
    assert all(fn.__name__ == f"cmd_{name}" for name, fn in qfk.cli.COMMANDS.items())
    source = Path(qfk.cli.__file__).read_text()
    assert unread_options(qfk.cli.build_parser(), source) == []
    # the planted control: an option that no path reads fails the guard
    parser = qfk.cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    commands["simulate"].add_argument("--verbose", action="store_true")
    assert unread_options(parser, source) == ["simulate --verbose"]



def settable_values(parser: argparse.ArgumentParser) -> int:
    """The options of every subcommand (--help aside): each one a value a caller can set."""
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    return sum(a.dest != "help" for sub in commands.values() for a in sub._actions)


def test_the_parser_has_20_settable_values():
    # a knob guard: a new option must change this number, visibly in its diff
    assert settable_values(qfk.cli.build_parser()) == 20
    parser = qfk.cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    commands["simulate"].add_argument("--verbose", action="store_true")
    assert settable_values(parser) == 21


README = PACKAGE.parent.parent / "README.md"


def readme_flag_table(text: str) -> dict:
    """{subcommand: (its flags, its --tol default or None)} from the rows `| `name` | flags |`
    of a README flag table; a flag is any `--name` in the row, a default `(default X`."""
    table = {}
    for line in text.splitlines():
        row = re.fullmatch(r"\| `(\w+)` *\| (.*) \|", line)
        if row:
            default = re.search(r"`--tol` \(default ([^;)]+)", row[2])
            table[row[1]] = (sorted(set(re.findall(r"`(--[\w-]+)`", row[2]))), default and float(default[1]))
    return table


def parser_flag_table(parser: argparse.ArgumentParser) -> dict:
    """The same table read off parser: a --tol default of None is the one its help gives."""
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    table = {}
    for name, sub in commands.items():
        options = [a for a in sub._actions if a.dest != "help"]
        tol = next((a for a in options if a.dest == "tol"), None)
        default = tol and (tol.default if tol.default is not None else float(re.search(r"default ([^)]+)\)", tol.help)[1]))
        table[name] = (sorted(a.option_strings[0] for a in options), default)
    return table


def test_reads_a_flag_table():
    text = ("| subcommand | flags |\n| --- | --- |\n"
            "| `run`  | `--instance` (required), `--tol` (default 0.5; needs `--fast`), `--fast` |\n"
            "| `stop` | `--out` |\nA `--verbose` flag outside the table.\n")
    assert readme_flag_table(text) == {"run": (["--fast", "--instance", "--tol"], 0.5), "stop": (["--out"], None)}
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    run = sub.add_parser("run")
    for option in ("--instance", "--fast"):
        run.add_argument(option)
    run.add_argument("--tol", type=float, help="tolerance of the fast path (default 0.5)")
    sub.add_parser("stop").add_argument("--out")
    assert parser_flag_table(parser) == readme_flag_table(text)


def test_the_readme_flag_table_is_the_parser():
    text = README.read_text()
    assert readme_flag_table(text) == parser_flag_table(qfk.cli.build_parser())
    # planted controls: an option that the README does not list, and a --tol default it misstates
    parser = qfk.cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    commands["simulate"].add_argument("--verbose", action="store_true")
    assert readme_flag_table(text) != parser_flag_table(parser)
    assert "(default 0.05)" in text
    assert readme_flag_table(text.replace("(default 0.05)", "(default 0.5)")) != parser_flag_table(
        qfk.cli.build_parser())
