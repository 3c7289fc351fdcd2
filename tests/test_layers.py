"""Import layers: a gtop module imports only modules of earlier layers, and
takes no underscore-prefixed name from another gtop module.  Also the line
length: no line of the package or of the tests is over 99 characters.

Every import is read with ``ast``, at module level and inside function and
class bodies, so an import deferred into a function cannot hide a cycle.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "gtop"
TESTS = pathlib.Path(__file__).resolve().parent
LAYERS = ("errors", "model", "functions", "projections", "solver", "builders", "cli")
# (module, imported module, enclosing scope) of the deferred imports allowed:
# none at present.
ALLOWED = set()


class _Imports(ast.NodeVisitor):
    """``(imported gtop module, enclosing scope)`` of every import in a tree."""

    def __init__(self):
        self.scope = []
        self.found = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def _add(self, dotted):
        self.found.append((dotted.split(".")[0], ".".join(self.scope)))

    def visit_Import(self, node):
        for alias in node.names:
            if alias.name.startswith("gtop."):
                self._add(alias.name[len("gtop."):])

    def visit_ImportFrom(self, node):
        module = _gtop_module(node)
        if module is None:
            return
        for name in [module] if module else [alias.name for alias in node.names]:
            self._add(name)


def _gtop_module(node):
    """The gtop module an ``ImportFrom`` reads ("" for the package), or None."""
    module = node.module or ""
    if node.level == 0:
        if module != "gtop" and not module.startswith("gtop."):
            return None
        return module[len("gtop."):]
    return module if node.level == 1 else None


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def private_names(source):
    """Underscore-prefixed names that ``source`` takes from a gtop module:
    imported by name, or read as an attribute of an imported gtop module."""
    tree = ast.parse(source)
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = _gtop_module(node)
            if module == "":
                modules.update(alias.asname or alias.name for alias in node.names)
            elif module is not None:
                found += [alias.name for alias in node.names if _private(alias.name)]
        elif isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.asname and alias.name.startswith("gtop."))
    found += [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id in modules
              and _private(node.attr)]
    return found


def violations(name, source, allowed=ALLOWED):
    """Imports in module ``name`` of a later layer, outside ``allowed``."""
    visitor = _Imports()
    visitor.visit(ast.parse(source))
    return [(name, target, scope) for target, scope in visitor.found
            if target in LAYERS and LAYERS.index(target) > LAYERS.index(name)
            and (name, target, scope) not in allowed]


def test_every_module_has_a_layer():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("name", LAYERS)
def test_no_import_from_a_later_layer(name):
    assert violations(name, (SRC / (name + ".py")).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source,scope", [
    ("from .projections import make_engine\n", ""),
    ("def f():\n    from .projections import make_engine\n", "f"),
    ("class A:\n    def g(self):\n        from . import solver\n", "A.g"),
    ("import gtop.builders\n", ""),
    ("from gtop import cli\n", ""),
])
def test_checker_sees_every_import_form(source, scope):
    assert [found for _, _, found in violations("model", source)] == [scope]


def test_allowed_import_only_in_its_scope():
    allowed = {("model", "functions", "ProblemSpec.__init__")}
    deferred = "class ProblemSpec:\n    def __init__(self):\n        from .functions import Zero\n"
    assert violations("model", deferred, allowed) == []
    assert violations("model", deferred) == [("model", "functions", "ProblemSpec.__init__")]
    assert violations("model", "from .functions import Zero\n", allowed) == [
        ("model", "functions", "")]


@pytest.mark.parametrize("name", LAYERS)
def test_no_private_name_from_another_module(name):
    assert private_names((SRC / (name + ".py")).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source,found", [
    ("from .model import _parts, smul\n", ["_parts"]),
    ("def f():\n    from gtop.solver import _Updater\n", ["_Updater"]),
    ("from . import model as md\nx = md._parts(f)\n", ["_parts"]),
    ("import gtop.model as md\nx = md._parts\n", ["_parts"]),
    ("from . import model\nx = model.__name__, model.smul\n", []),
    ("from numpy import _private\n", []),
])
def test_private_checker_sees_every_form(source, found):
    assert private_names(source) == found


def test_no_line_over_99_characters():
    long = [(path.name, number) for path in sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")])
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > 99]
    assert long == []
