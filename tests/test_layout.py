"""Where the package's one trajectory-to-moments loop may live.

Parsed, not run: ``bounds`` holds only the mathematics of the bound, so it
imports nothing that simulates, lifts or seeds; and ``trajectory_chunks``
is consumed only by ``simulate`` (which materializes samples) and
``fit_realization`` (which streams them into moments).  A second consumer
would be a second copy of the fit, free to drift from it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "koopest"


def _parse(name):
    path = SRC / f"{name}.py"
    return ast.parse(path.read_text(), filename=str(path))


def test_bounds_imports_no_simulation_layers():
    imported = set()
    for node in ast.walk(_parse("bounds")):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imported.add(module if node.level else module.removeprefix("koopest."))
        elif isinstance(node, ast.Import):
            imported.update(alias.name.removeprefix("koopest.") for alias in node.names)
    assert imported
    assert imported.isdisjoint({"dynamics", "basis", "seeding"})


class _Callers(ast.NodeVisitor):
    """Qualified names of the functions that call ``target``."""

    def __init__(self, module, target):
        self.scope = [module]
        self.target = target
        self.found = set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        if self.target in (getattr(func, "id", None), getattr(func, "attr", None)):
            self.found.add(".".join(self.scope))
        self.generic_visit(node)


def test_trajectory_chunks_has_two_consumers():
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        visitor = _Callers(path.stem, "trajectory_chunks")
        visitor.visit(_parse(path.stem))
        callers |= visitor.found
    assert callers == {"dynamics.simulate", "experiments.fit_realization"}
