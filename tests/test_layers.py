"""Import layers: a gtop module imports only modules of earlier layers.

Every import is read with ``ast``, at module level and inside function and
class bodies, so an import deferred into a function cannot hide a cycle.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "gtop"
LAYERS = ("errors", "model", "functions", "projections", "solver", "builders", "cli")
# (module, imported module, enclosing scope) of the deferred imports allowed.
ALLOWED = {("model", "functions", "ProblemSpec.__init__")}


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
        module = node.module or ""
        if node.level == 0:
            if module != "gtop" and not module.startswith("gtop."):
                return
            module = module[len("gtop."):]
        elif node.level > 1:
            return
        for name in [module] if module else [alias.name for alias in node.names]:
            self._add(name)


def violations(name, source):
    """Imports in module ``name`` of a later layer, outside ``ALLOWED``."""
    visitor = _Imports()
    visitor.visit(ast.parse(source))
    return [(name, target, scope) for target, scope in visitor.found
            if target in LAYERS and LAYERS.index(target) > LAYERS.index(name)
            and (name, target, scope) not in ALLOWED]


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
    deferred = "class ProblemSpec:\n    def __init__(self):\n        from .functions import Zero\n"
    assert violations("model", deferred) == []
    assert violations("model", "from .functions import Zero\n") == [("model", "functions", "")]
