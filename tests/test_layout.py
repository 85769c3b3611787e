"""Where the package's one trajectory-to-moments loop and its one map may live.

Parsed, not run: ``bounds`` holds only the mathematics of the bound, so it
imports nothing that simulates, lifts or seeds; and ``trajectory_chunks``
is consumed only by ``simulate`` (which materializes samples) and
``fit_realizations`` (which streams them into moments).  A second consumer
would be a second copy of the fit, free to drift from it.  Its stepping
loop keeps the two state coordinates as names and collects them in lists:
it writes no numpy row and builds no tuple per step.  Likewise each
system's map is one coordinate ``drift``: the only function named
``transition`` is the method that stacks it over arrays, and no code
branches on ``ndim == 1`` into a second, scalar copy of a map.  And a
dictionary is one batch map: only ``basis.evaluate_many`` calls its
``lift`` (no code reads per-observable ``functions``), and the streamed fit
lifts each block's states in one call, so every state is lifted once.
A dictionary is one kind of thing, a monomial exponent table: ``basis``
defines no ``make_dictionary`` for opaque callables, ``gram`` takes only
``(dictionary, domain)`` (no quadrature path or method switch), and no
code lifts by ``np.prod`` of powers, the reference form that the power
table reproduces.
A realization has one fit: ``estimator`` factors moment matrices at one
``dpotrf`` call site, and ``fit_realizations`` fits its block as one
stack, without ``estimate_koopman`` or a ``MomentPair`` per seed.
A sample set has one path too: ``estimator`` walks its ``BLOCK`` rows in
one loop, which ``accumulate`` and ``residuals`` share, and ``io`` parses
every CSV body with ``np.loadtxt``, never ``genfromtxt``.  Every
``io.save_*`` writes its CSV through the one helper ``io._write_rows``, the
only code that makes a ``csv.writer``, so numbers are formatted one way and
string cells such as labels keep ``csv`` quoting.
No concept sits behind a pass-through wrapper: a monomial dictionary is made
from its two ints or its exponent table (no ``MonomialSpec`` or
``dictionary_from_exponents``), ``accumulate`` is the only way into a
``MomentPair`` (no ``merge_moments`` or ``absorb_lifted``), a ``bounds.csv``
row is one ``BoundReport`` (no ``ViolationStats`` or ``make_bound_report``),
and a system's noiseless map is ``transition``, its noisy step
``step_pairs`` (``StochasticSystem`` has no ``step``).
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


def _callers(target):
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        visitor = _Callers(path.stem, target)
        visitor.visit(_parse(path.stem))
        callers |= visitor.found
    return callers


def test_trajectory_chunks_has_two_consumers():
    assert _callers("trajectory_chunks") == {"dynamics.simulate", "experiments.fit_realizations"}


def test_stepping_loop_writes_no_row_and_builds_no_tuple():
    (chunks,) = [
        node
        for node in _parse("dynamics").body
        if isinstance(node, ast.FunctionDef) and node.name == "trajectory_chunks"
    ]
    (loop,) = [  # the loop over the noise columns
        node
        for node in ast.walk(chunks)
        if isinstance(node, ast.For)
        and any(getattr(n, "id", None) == "zip" for n in ast.walk(node.iter))
    ]
    body = [n for stmt in loop.body for n in ast.walk(stmt)]
    targets = [t for n in body if isinstance(n, ast.Assign) for t in n.targets]
    targets += [n.target for n in body if isinstance(n, (ast.AugAssign, ast.AnnAssign))]
    assert targets
    assert not any(isinstance(n, ast.Subscript) for t in targets for n in ast.walk(t))
    calls = {getattr(n.func, "id", None) for n in body if isinstance(n, ast.Call)}
    assert calls.isdisjoint({"map", "tuple"})


class _Qualnames(ast.NodeVisitor):
    """Qualified names of every function and method definition."""

    def __init__(self, module):
        self.scope = [module]
        self.found = []

    def _enter(self, node):
        self.scope.append(node.name)
        if not isinstance(node, ast.ClassDef):
            self.found.append(".".join(self.scope))
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter


def test_one_function_named_transition():
    names = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _Qualnames(path.stem)
        visitor.visit(_parse(path.stem))
        names += [q for q in visitor.found if q.rsplit(".", 1)[-1] == "transition"]
    assert names == ["dynamics.StochasticSystem.transition"]


def _is_ndim_one(node):
    sides = [node.left, *node.comparators]
    return (
        any(isinstance(op, ast.Eq) for op in node.ops)
        and any(isinstance(s, ast.Attribute) and s.attr == "ndim" for s in sides)
        and any(isinstance(s, ast.Constant) and s.value == 1 for s in sides)
    )


def test_no_branch_on_ndim_one():
    hits = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_parse(path.stem))
        if isinstance(node, ast.Compare) and _is_ndim_one(node)
    ]
    assert hits == []


def test_no_attribute_named_functions():
    hits = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_parse(path.stem))
        if isinstance(node, ast.Attribute) and node.attr == "functions"
    ]
    assert hits == []


def test_lift_is_called_only_by_evaluate_many():
    assert _callers("lift") == {"basis.evaluate_many"}


def test_one_kind_of_dictionary_and_one_gram_path():
    functions = {
        node.name: node
        for node in _parse("basis").body
        if isinstance(node, ast.FunctionDef)
    }
    assert "make_dictionary" not in functions
    args = functions["gram"].args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == ["dictionary", "domain"]
    assert args.vararg is None and args.kwarg is None
    prod_of_powers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_parse(path.stem))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "prod"
        and any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
                for arg in node.args for n in ast.walk(arg))
    ]
    assert prod_of_powers == []


def test_streamed_fit_lifts_once_per_block():
    (fit,) = [
        node
        for node in _parse("experiments").body
        if isinstance(node, ast.FunctionDef) and node.name == "fit_realizations"
    ]
    lifts = [
        node
        for node in ast.walk(fit)
        if isinstance(node, ast.Call)
        and "evaluate_many" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert len(lifts) == 1


def test_estimator_factors_at_one_call_site():
    calls = [
        node
        for node in ast.walk(_parse("estimator"))
        if isinstance(node, ast.Call)
        and "dpotrf" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert len(calls) == 1


def test_fit_realizations_fits_one_stack():
    (fit,) = [
        node
        for node in _parse("experiments").body
        if isinstance(node, ast.FunctionDef) and node.name == "fit_realizations"
    ]
    names = {getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(fit)}
    assert "estimate_stack" in names
    assert names.isdisjoint({"estimate_koopman", "MomentPair"})


def test_one_block_loop_over_a_sample_set():
    loops = [
        node
        for node in ast.walk(_parse("estimator"))
        if isinstance(node, ast.For)
        and any(getattr(n, "id", None) == "BLOCK" for n in ast.walk(node.iter))
    ]
    assert len(loops) == 1


def test_no_genfromtxt():
    hits = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_parse(path.stem))
        if "genfromtxt" in (getattr(node, "id", None), getattr(node, "attr", None),
                            getattr(node, "name", None))
    ]
    assert hits == []


def test_every_save_writes_through_one_helper():
    functions = {
        node.name: {
            getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
        }
        for node in _parse("io").body
        if isinstance(node, ast.FunctionDef)
    }
    saves = sorted(name for name in functions if name.startswith("save_"))
    assert saves == ["save_gram", "save_matrix", "save_operator", "save_samples"]
    for name in saves:
        reached, todo = set(), [name]
        while todo:  # the io functions that name reaches
            for callee in functions[todo.pop()] & (functions.keys() - reached):
                reached.add(callee)
                todo.append(callee)
        assert "_write_rows" in reached, name
    assert _callers("writer") == {"io._write_rows"}


def test_no_pass_through_wrappers():
    deleted = {"MonomialSpec", "dictionary_from_exponents", "merge_moments", "absorb_lifted",
               "ViolationStats", "make_bound_report", "_config_meta"}
    defined = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_parse(path.stem))
        if (isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in deleted)
        or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id in deleted)
    ]
    assert defined == []
    (system,) = [
        node
        for node in _parse("dynamics").body
        if isinstance(node, ast.ClassDef) and node.name == "StochasticSystem"
    ]
    methods = {node.name for node in system.body if isinstance(node, ast.FunctionDef)}
    assert "transition" in methods and "step" not in methods
