"""Source hygiene of the package: every top-level import of a module is used in it, and the modules import each other at the top."""

import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bolalg"
FIXTURES = Path(__file__).resolve().parent / "fixtures"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _imported_modules(tree: ast.Module) -> set[str]:
    """The top-level package of every module imported anywhere in the tree."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_every_module_is_checked():
    assert {"core", "envelope", "linalg"} <= {p.stem for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_top_level_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    assert [name for name in _imported_names(tree) if name not in used] == []


def _package_imports_in_functions(tree: ast.Module) -> list[tuple[str, str]]:
    """(function, module) for each `bolalg` import made inside a function or method."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if function is not None:
                if isinstance(child, ast.ImportFrom) and (child.level or child.module.split(".")[0] == "bolalg"):
                    found.append((function, "." * child.level + (child.module or "")))
                elif isinstance(child, ast.Import):
                    found.extend((function, a.name) for a in child.names if a.name.split(".")[0] == "bolalg")
            visit(child, function)

    visit(tree, None)
    return found


def test_modules_import_each_other_only_at_the_top():
    found = [
        (path.stem, function, module)
        for path in MODULES
        for function, module in _package_imports_in_functions(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def _cached_functions(tree: ast.Module) -> list[str]:
    """The module-level functions decorated with `lru_cache` or `functools.lru_cache`, called or not."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name == "lru_cache":
                    found.append(node.name)
    return found


def test_the_module_level_caches_are_the_known_ones():
    # each is unbounded and lives as long as the process: a new one is a decision, not a detail
    found = {
        (path.stem, name) for path in MODULES for name in _cached_functions(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {
        ("core", "check_axioms"),
        ("envelope", "envelope"),
        ("lie", "killing_gram"),
        ("radical", "_is_simple"),
        ("decompose", "_decompose_semisimple"),
        ("catalog", "catalog"),
    }


def test_no_module_reads_a_dense_view():
    # the package reads `integer_rows`; `T`, `R` and `C` are Fraction views
    # for callers outside it, so a new dense reader is a decision, not a detail
    found = [
        (path.stem, node.lineno, node.attr)
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("T", "R", "C")
    ]
    assert found == []


ANALYSIS_MODULES = ("core", "envelope", "lie", "forms", "series", "radical", "decompose")
# The functions that hand a Fraction value to a caller: a dense view, a
# product of the public API, a witness defect, a gram, or a note.
API_EDGE = {
    "core": {"BolAlgebra.T", "BolAlgebra.R", "BolAlgebra.ideal_operators", "BolAlgebra.binary", "BolAlgebra.ternary", "check_axioms"},
    "envelope": {"is_pseudo_derivation", "induced_bracket"},
    "lie": {"LieAlgebra.C", "LieAlgebra.bracket", "jacobi_check", "killing_gram"},
    "forms": {"trace_form"},
    "radical": {"_is_simple"},
    "decompose": {"_restrict_form"},
}
FRACTION_BUILDERS = {"Fraction", "unscaled", "dense_tensor", "multilinear", "mat_vec"}


def _calls_by_scope(tree: ast.Module, names: set[str]) -> list[tuple[str, str, int]]:
    """(enclosing top-level function or Class.method, called name, line) for each call of one of `names` by its bare name."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and (not scope or isinstance(node, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id in names:
                found.append((".".join(scope), child.func.id, child.lineno))
            visit(child, scope)

    visit(tree, [])
    return found


@pytest.mark.parametrize("module", ANALYSIS_MODULES)
def test_analysis_modules_build_fractions_only_at_the_api_edge(module):
    # the analysis runs on integer rows from the parser to the result; a
    # Fraction is built only for a value the API hands out
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = [call for call in _calls_by_scope(tree, FRACTION_BUILDERS) if call[0] not in API_EDGE.get(module, ())]
    assert found == []


def test_the_fraction_guard_sees_a_call_outside_the_edge():
    tree = ast.parse(
        "class A:\n    def f(self):\n        def g():\n            return unscaled(v, 1)\n        return g\n"
        "def h():\n    return Fraction(1, 2)\n"
    )
    assert _calls_by_scope(tree, FRACTION_BUILDERS) == [("A.f", "unscaled", 4), ("h", "Fraction", 7)]


def _record_fields(tree: ast.Module) -> dict[str, tuple[str, ...]]:
    """The annotated fields, in order, of each class in the module that derives from `Record` by name."""
    return {
        node.name: tuple(item.target.id for item in node.body if isinstance(item, ast.AnnAssign))
        for node in tree.body
        if isinstance(node, ast.ClassDef) and any(getattr(base, "id", None) == "Record" for base in node.bases)
    }


def test_no_two_records_declare_the_same_fields():
    # two value types with one field list are one concept with two names
    owners: dict[tuple[str, ...], list[str]] = {}
    for path in MODULES:
        for name, fields in _record_fields(ast.parse(path.read_text(encoding="utf-8"))).items():
            owners.setdefault(fields, []).append(f"{path.stem}.{name}")
    assert len(owners) > 20
    assert [names for names in owners.values() if len(names) > 1] == []


def _args_read(functions: dict, name: str) -> set[str]:
    """The `args.<attr>` names read by module function `name` and by the module functions it hands `args` to."""
    read = set()
    for node in ast.walk(functions[name]):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args":
            read.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in functions
            and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)
        ):
            read |= _args_read(functions, node.func.id)
    return read


def test_each_subcommand_declares_exactly_the_arguments_its_handler_reads():
    # a flag that no handler reads would be accepted and silently change nothing
    from bolalg.cli import _build_parser

    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    (commands,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == {"check", "info", "radical", "envelope", "decompose", "examples"}
    for name, parser in commands.choices.items():
        declared = {a.dest for a in parser._actions if a.dest != "help"}
        handler = parser.get_default("handler")
        assert declared == _args_read(functions, handler.__name__), name


def test_every_flag_is_offered_by_some_subcommand():
    from bolalg.cli import COMMANDS, FLAGS

    offered = {flag for *_, flags in COMMANDS.values() for flag in flags}
    assert offered == set(FLAGS)


def test_no_module_imports_dataclasses():
    # the value types derive from linalg.Record: generating dataclass methods
    # would cost every `bol` call at start-up
    paths = sorted(PACKAGE.glob("*.py"))
    assert [p.stem for p in paths if "dataclasses" in _imported_modules(ast.parse(p.read_text(encoding="utf-8")))] == []
    assert "__init__" in {p.stem for p in paths}


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = "import sys; before = set(sys.modules); import bolalg.cli; print(*sorted(set(sys.modules) - before))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    loaded = set(done.stdout.split())
    assert "bolalg.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect"})


def test_only_the_package_imports_importlib():
    # `importlib.import_module` inside a function would get round the rule
    # that the modules import each other at the top
    found = [p.stem for p in MODULES if "importlib" in _imported_modules(ast.parse(p.read_text(encoding="utf-8")))]
    assert found == []


def test_no_module_imports_random():
    # every search is deterministic: the same algebra gets the same answer in every process
    paths = sorted(PACKAGE.glob("*.py"))
    assert [p.stem for p in paths if "random" in _imported_modules(ast.parse(p.read_text(encoding="utf-8")))] == []


def _in_a_fresh_interpreter(code: str, *argv: str):
    """The JSON value that `code` prints last, run in a new interpreter with `argv`."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout.splitlines()[-1])


ANALYSIS_LAYERS = [
    "bolalg.catalog",
    "bolalg.lie",
    "bolalg.envelope",
    "bolalg.forms",
    "bolalg.series",
    "bolalg.radical",
    "bolalg.decompose",
]


@pytest.mark.parametrize(
    ("command", "document", "code"),
    [("check", None, 0), ("check", "malformed.json", 3), ("radical", "not_a_bol_algebra.json", 1)],
    ids=["check-catalog", "check-malformed", "radical-not-bol"],
)
def test_checking_or_rejecting_a_document_loads_no_analysis_layer(command, document, code, tmp_path):
    if document is None:
        from bolalg import catalog
        from bolalg.fileio import emit_bol_document

        path = tmp_path / "sl2bol.json"
        path.write_text(emit_bol_document(catalog("sl2bol"), "sl2bol"), encoding="utf-8")
    else:
        path = FIXTURES / document
    program = (
        "import contextlib, io, json, sys\n"
        "from bolalg.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(sys.modules)]))"
    )
    got, loaded = _in_a_fresh_interpreter(program, command, str(path))
    assert got == code
    if document == "malformed.json":  # rejected by the parser: neither bolalg.core nor bolalg.linalg is loaded
        assert [m for m in loaded if m.split(".")[0] == "bolalg"] == ["bolalg", "bolalg.cli", "bolalg.errors", "bolalg.fileio"]
    else:
        assert "bolalg.core" in loaded
    assert [m for m in ANALYSIS_LAYERS if m in loaded] == []


def test_functions_named_like_their_module_stay_functions_after_the_module_is_imported():
    program = (
        "import json, sys, types\n"
        "import bolalg.decompose\n"
        "names = ['radical', 'envelope', 'catalog']\n"
        "print(json.dumps([all(getattr(bolalg, n) is getattr(sys.modules['bolalg.' + n], n) for n in names),"
        " any(isinstance(getattr(bolalg, n), types.ModuleType) for n in names),"
        " bolalg.core is sys.modules['bolalg.core']]))"
    )
    assert _in_a_fresh_interpreter(program) == [True, False, True]


def test_each_public_name_is_the_object_its_module_defines():
    program = (
        "import json, sys\n"
        "import bolalg\n"
        "homes = {n: getattr(bolalg, n).__module__ for n in bolalg.__all__}\n"
        "print(json.dumps([homes, [n for n, m in homes.items() if getattr(sys.modules[m], n) is not getattr(bolalg, n)]]))"
    )
    homes, differing = _in_a_fresh_interpreter(program)
    assert len(homes) > 50 and differing == []
    assert {m.split(".")[0] for m in homes.values()} == {"bolalg"}
    # each is the module's own definition, not one it imported
    for name, module in homes.items():
        tree = ast.parse((PACKAGE / f"{module.split('.')[1]}.py").read_text(encoding="utf-8"))
        assert name in {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}, name


def test_a_star_import_binds_exactly_the_public_names():
    program = (
        "import json\n"
        "import bolalg\n"
        "ns = {}\n"
        "exec('from bolalg import *', ns)\n"
        "print(json.dumps([sorted(set(ns) - {'__builtins__'}), sorted(bolalg.__all__)]))"
    )
    bound, public = _in_a_fresh_interpreter(program)
    assert bound == public


def test_an_unknown_name_is_an_attribute_error_and_loads_nothing():
    program = (
        "import json, sys\n"
        "import bolalg\n"
        "try:\n"
        "    bolalg.no_such_name\n"
        "    raised = False\n"
        "except AttributeError:\n"
        "    raised = True\n"
        "print(json.dumps([raised, hasattr(bolalg, 'check_axiom'), sorted(m for m in sys.modules if m.startswith('bolalg'))]))"
    )
    assert _in_a_fresh_interpreter(program) == [True, False, ["bolalg"]]
