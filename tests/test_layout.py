"""Where the package's one trajectory-to-moments loop and its one map may live.

Parsed, not run: ``bounds`` holds only the mathematics of the bound, so it
imports nothing that simulates, lifts or seeds; and ``trajectory_chunks``
is consumed only by ``simulate`` (which materializes samples) and
``fit_realizations`` (which streams them into moments).  A second consumer
would be a second copy of the fit, free to drift from it.  It holds no
stepping loop of its own: it calls the system's kernel once per block.
Each system's map T is written once, as the one pair of update expressions
its constructor passes (no nested step function, and no noise term: the
kernels add the noise last), and ``experiments`` has no rule that fits a
block's seeds one at a time (``lockstep_min_seeds``).  The Python kernel
generated from the update keeps each state coordinate as a name and
collects it in a list of its own: it writes no numpy row, assigns the new
state as names from expressions (which CPython swaps in place, with no
tuple, for up to three coordinates), and takes each state's norm with one
``_sqrt`` call.
A system's dimension is the length of its update, and nothing else states
it: no module names ``STATE_DIM`` or ``STEP_NAMES`` or assigns a dimension
constant, and neither kernel template spells out a second coordinate
(``x2``, ``_w2``, ``2 * t``): the generator fills in one field per coordinate.  The kernel alone
decides divergence: ``trajectory_chunks`` takes no ``np.linalg.norm`` of the
paths and opens no ``errstate``.  The only function named ``transition`` is the method that evaluates
that pair, T, over arrays, and no code branches on ``ndim == 1`` into a
second, scalar copy of a map.
And a dictionary is one batch map: only ``basis.evaluate_many`` calls its
``lift`` (no code reads per-observable ``functions``), and the streamed fit
lifts each block's states in one call, so every state is lifted once.
A dictionary is one kind of thing, a monomial exponent table: ``basis``
defines no ``make_dictionary`` for opaque callables, ``gram`` takes only
``(dictionary, domain)`` (no quadrature path or method switch), and no
code lifts by ``np.prod`` of powers, the form that the lift is only checked
against within a few ULP.  The lift has one definition, repeated
multiplication: ``Dictionary.lift`` calls no ``np.power`` or ``pow`` and
takes no ``**``, so its bytes do not follow numpy's CPU dispatch.
A realization has one fit: ``estimator`` factors moment matrices at one
``dpotrf`` call site, and ``fit_realizations`` fits its block as one
stack, without ``estimate_koopman`` or a ``MomentPair`` per seed.  A block's
fits stay one record of stacked arrays (``Fits``): nothing wraps each
realization in an object of its own (there is no ``Realization``), and
only the two fits that leave the stack as one estimate build an
``OperatorEstimate``: ``estimate_koopman`` and ``experiments.run_pf_pipeline``
(the transfer-matrix fit that ``koopman_matrix.csv`` records).
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
a system's noiseless map is ``transition``, its noisy step
``step_pairs`` (``StochasticSystem`` has no ``step``), and the residuals of
a fit are their ``(N,)`` array (no ``ResidualStats`` holding its maximum).
A system is its update and its noise: ``StochasticSystem`` has
the three fields ``update``, ``params`` and ``noise`` and no class constant, and no
``NoiseModel`` constructor takes a dimension.
A sample set is its pairs: ``SampleSet`` has the fields ``xs``, ``ys``,
``seed`` and ``states``, the last worked out from whether the rows chain, and
no source string names its kind.
A fit ends one of three ways: ``fit_realizations`` sets a row's ``status``
only to "ok", "diverged" or "singular".  The 2N+2 sample floor is checked
once at load (``ExperimentConfig``), once per estimate (``estimate_stack``,
the solve every estimate goes through) and once by the bound
(``koopman_error_bound``), so no fit has a floor status of its own.  Every
seeded fit of a run, those it cannot do without (the high-T reference, the
transfer matrix, the bound terms) included, reaches ``fit_realizations``
through ``experiments._fit_groups``, the one parallel map.  Their failure
is raised at one site, ``experiments._required``, and every run scores a
stack against its reference through the one per-matrix Frobenius error,
``experiments._frobenius_errors``.
The parallel map runs on threads of one process: ``ThreadPoolExecutor``
appears only in ``experiments._ordered_map``, no module names a process pool,
``multiprocessing`` or a fork, and nothing defines ``__reduce__`` for a
result to cross a process boundary.
A config is its YAML: ``ExperimentConfig`` holds the sections as loaded, and
``system.params`` is coerced once, at load (``_system_params`` is called only
by ``ExperimentConfig.__post_init__``), so no builder re-reads raw params and
the ground truth is one ``true_koopman`` (None without one), with no
``has_true_koopman`` beside it.
``config_from_dict`` checks a section's keys and kind, in one walk over one
key table, and ``ExperimentConfig`` checks its values: ``experiments`` raises
each of "unknown key", "missing key" and "unknown <section>.kind" once.
A transfer matrix is P and the Gram matrix: ``pf`` imports nothing from
``estimator``, ``PFEstimate`` has the fields ``matrix`` and ``gram`` (the
fit's provenance stays with K), and ``koopman_to_pf`` takes a matrix, with
no ``isinstance`` branch on what it was given.  Its duality defect is the
exact norm ``||K^T Lambda - Lambda P||_2``: ``pf.duality_check`` calls neither
``make_rng`` nor ``mix_seed``, and ``experiments`` assigns no
``DUALITY_STREAM``.
The bounds read one fit set per T: ``experiments`` assigns no
``TERMS_STREAM`` or ``DELTA_STREAM``, imports none of ``accumulate``,
``MomentPair`` and ``estimate_koopman`` (delta_hat takes the first fit's
estimate from the map), and ``fit_realizations`` takes no ``estimate``
switch that stops a fit at S0.
A fit gets one verdict: the estimator alone decides whether an S0 is
usable.  ``CONDITION_FALLBACK`` is the one condition threshold, assigned
in ``estimator`` and read only by ``estimate_stack``, and no other float
constant of a condition's scale (strictly between the 1e6 divergence
default and ``io``'s 1e16 exponent-form bound) appears in the package.
``bounds`` calls no ``eigvalsh`` and holds no float constant above 1: it
reduces the S0 it is given, which the harness takes from the fits the
score keeps.
A random stream is opened in one place: only ``seeding.make_rng`` names
``Philox`` and writes a key, whether it makes a generator or re-keys one.  No
module holds a generator at module or class scope or behind
``functools.cache``, so each call makes its own and no two threads of the map
share one.
"""

import ast
import re
import string
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "koopest"


def _parse(name):
    path = SRC / f"{name}.py"
    return ast.parse(path.read_text(), filename=str(path))


def _class(module, name):
    (node,) = [n for n in _parse(module).body if isinstance(n, ast.ClassDef) and n.name == name]
    return node


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


class _Sites(ast.NodeVisitor):
    """Qualified name of the function (or method) around each node that
    ``match`` accepts, once per node."""

    def __init__(self, module, match):
        self.scope = [module]
        self.match = match
        self.found = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def generic_visit(self, node):
        if self.match(node):
            self.found.append(".".join(self.scope))
        super().generic_visit(node)


def _sites(match):
    found = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _Sites(path.stem, match)
        visitor.visit(_parse(path.stem))
        found += visitor.found
    return found


def _names(node):
    """``(id, attr)`` of a node: a ``Name`` has the first, an ``Attribute`` the second."""
    return getattr(node, "id", None), getattr(node, "attr", None)


def _callers(target):
    """Qualified names of the functions (and methods) that call ``target``."""
    return set(_sites(lambda node: isinstance(node, ast.Call) and target in _names(node.func)))


def test_trajectory_chunks_has_two_consumers():
    assert _callers("trajectory_chunks") == {"dynamics.simulate", "experiments.fit_realizations"}


def test_sample_floor_is_checked_at_load_per_estimate_and_by_the_bound():
    assert _callers("sample_floor") == {
        "estimator.estimate_stack",
        "experiments.ExperimentConfig.__post_init__",
        "bounds.koopman_error_bound",
    }


def test_only_fit_groups_reaches_fit_realizations():
    # called or handed to the map: every seeded fit of a run goes through it
    assert set(_sites(lambda node: isinstance(node, (ast.Name, ast.Attribute))
                      and "fit_realizations" in _names(node))) == {"experiments._fit_groups"}


def test_one_parallel_map_on_threads():
    # a name, an attribute or an imported alias
    pools = _sites(lambda node: "ThreadPoolExecutor" in (*_names(node), getattr(node, "name", None)))
    assert set(pools) == {"experiments._ordered_map"}
    processes = [
        f"{path.name}: {hit}"
        for path in sorted(SRC.glob("*.py"))
        for hit in re.findall(r"ProcessPoolExecutor|multiprocessing|\bfork\w*", path.read_text(),
                              re.IGNORECASE)
    ]
    assert processes == []
    assert _sites(lambda node: isinstance(node, ast.FunctionDef) and node.name == "__reduce__") == []


def test_a_required_fit_fails_at_one_raise_site():
    def raises_diverged(node):
        return isinstance(node, ast.Raise) and any(
            isinstance(n, ast.Constant) and "failed: diverged" in str(n.value)
            for n in ast.walk(node)
        )

    assert _sites(raises_diverged) == ["experiments._required"]


def test_frobenius_errors_are_scored_at_one_site():
    def norm_of_difference(node):
        return (isinstance(node, ast.Call) and "norm" in _names(node.func) and node.args
                and isinstance(node.args[0], ast.BinOp) and isinstance(node.args[0].op, ast.Sub))

    assert _sites(norm_of_difference) == ["experiments._frobenius_errors"]


def test_a_realization_is_ok_diverged_or_singular():
    (fit,) = [
        node
        for node in _parse("experiments").body
        if isinstance(node, ast.FunctionDef) and node.name == "fit_realizations"
    ]
    # every assignment to the status array, or to some of its rows
    assigned = [
        node.value
        for node in ast.walk(fit)
        if isinstance(node, ast.Assign)
        and any(getattr(n, "id", None) == "status" for t in node.targets for n in ast.walk(t))
    ]
    assert assigned
    statuses = {
        n.value
        for value in assigned
        for n in ast.walk(value)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }
    assert statuses == {"ok", "diverged", "singular"}
    defined = {node.name for node in ast.walk(_parse("experiments"))
               if isinstance(node, ast.ClassDef)}
    assert "Fits" in defined and "Realization" not in defined


def test_only_single_estimates_build_an_operator_estimate():
    assert _callers("OperatorEstimate") == {
        "estimator.estimate_koopman",
        "experiments.run_pf_pipeline",
    }


def _noise_loops(node):
    """The ``for ... in zip(...)`` loops under node: loops over noise columns."""
    return [
        n
        for n in ast.walk(node)
        if isinstance(n, ast.For) and any(getattr(c, "id", None) == "zip" for c in ast.walk(n.iter))
    ]


def test_stepping_loop_writes_no_row_and_builds_no_tuple():
    module = _parse("dynamics")
    functions = {node.name: node for node in module.body if isinstance(node, ast.FunctionDef)}
    chunks = functions["trajectory_chunks"]
    assert _noise_loops(chunks) == []
    kernel_calls = [n for n in ast.walk(chunks)
                    if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "kernel"]
    assert len(kernel_calls) == 1
    for maker in ("make_closed_quadratic", "make_vanderpol"):
        nested = [n for stmt in functions[maker].body for n in ast.walk(stmt)]
        assert not any(isinstance(n, (ast.FunctionDef, ast.Lambda)) for n in nested), maker
        (system,) = [n for n in ast.walk(functions[maker])
                     if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "StochasticSystem"]
        update = system.args[0]
        assert isinstance(update, ast.Tuple) and len(update.elts) == 2, maker  # one pair
    # the generated Python kernel of three coordinates, with stand-ins for the update
    (template,) = _templates(module, "_PYTHON")
    fields = {"names": "[p]", "appends": "; ".join(f"_append{i}(x{i})" for i in (1, 2, 3)),
              "norm": " + ".join(f"x{i} * x{i}" for i in (1, 2, 3))}
    for field, form in (("xs", "x{}"), ("ws", "_w{}"), ("appenders", "_append{}"),
                        ("steps", "(e{0}) + _w{0}")):
        fields[field] = " ".join(form.format(i) + "," for i in (1, 2, 3))
    assert {f for _, f, _, _ in string.Formatter().parse(template) if f} == set(fields)
    (kernel,) = ast.parse(template.format(**fields)).body
    (loop,) = [n for n in ast.walk(kernel) if isinstance(n, ast.For)  # the innermost loop
               and not any(isinstance(c, ast.For) for b in n.body for c in ast.walk(b))]
    body = [n for stmt in loop.body for n in ast.walk(stmt)]
    targets = [t for n in body if isinstance(n, ast.Assign) for t in n.targets]
    targets += [n.target for n in body if isinstance(n, (ast.AugAssign, ast.AnnAssign))]
    assert targets
    assert not any(isinstance(n, ast.Subscript) for t in targets for n in ast.walk(t))
    calls = {getattr(n.func, "id", None) for n in body if isinstance(n, ast.Call)}
    assert calls == {"_append1", "_append2", "_append3", "_sqrt"}  # no map, tuple or drift call
    # the new state is a tuple of names, assigned from a tuple of expressions
    assert any(isinstance(t, ast.Tuple) and len(t.elts) == 3 for t in targets)
    assert "lockstep_min_seeds" not in {n.name for n in ast.walk(_parse("experiments"))
                                        if isinstance(n, ast.FunctionDef)}


def _templates(module, *names):
    """The string constants assigned at module level to ``names``, in order."""
    found = {n.targets[0].id: n.value.value for n in module.body if isinstance(n, ast.Assign)
             and getattr(n.targets[0], "id", None) in names}
    return [found[name] for name in names]


def test_the_dimension_is_the_length_of_the_update():
    for path in sorted(SRC.glob("*.py")):
        module = _parse(path.stem)
        names = {name for node in ast.walk(module) for name in _names(node)}
        assert names.isdisjoint({"STATE_DIM", "STEP_NAMES"}), path.name
        constants = [t.id for n in module.body if isinstance(n, (ast.Assign, ast.AnnAssign))
                     for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
                     if isinstance(t, ast.Name) and "DIM" in t.id.upper()]
        assert constants == [], path.name
    for template in _templates(_parse("dynamics"), "_PYTHON", "_C"):
        assert re.search(r"x2|_w2|\by2\b|2 \* t", template) is None


def test_the_kernel_alone_decides_divergence():
    # trajectory_chunks takes no norm of the paths and silences no overflow:
    # the kernel checks each state as it writes it and returns the stop steps
    (chunks,) = [node for node in _parse("dynamics").body
                 if isinstance(node, ast.FunctionDef) and node.name == "trajectory_chunks"]
    names = {name for node in ast.walk(chunks) for name in _names(node)}
    assert "kernel" in names and names.isdisjoint({"norm", "linalg", "errstate"})


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


def test_lift_multiplies_and_calls_no_power():
    (lift,) = [n for n in _class("basis", "Dictionary").body
               if isinstance(n, ast.FunctionDef) and n.name == "lift"]
    powers = [
        node.lineno
        for node in ast.walk(lift)
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow))
        or (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow))
        or (isinstance(node, (ast.Name, ast.Attribute))
            and getattr(node, "id", getattr(node, "attr", None)) in {"power", "pow", "float_power"})
    ]
    assert powers == []


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
               "ViolationStats", "make_bound_report", "_config_meta", "ResidualStats"}
    defined = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_parse(path.stem))
        if (isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in deleted)
        or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id in deleted)
    ]
    assert defined == []
    system = _class("dynamics", "StochasticSystem")
    methods = {node.name for node in system.body if isinstance(node, ast.FunctionDef)}
    assert "transition" in methods and "step" not in methods


def test_config_params_are_coerced_once_at_load():
    assert _callers("_system_params") == {"experiments.ExperimentConfig.__post_init__"}


def test_ground_truth_is_one_function():
    defined = {node.name for node in ast.walk(_parse("experiments"))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert "ExperimentConfig" in defined and "has_true_koopman" not in defined


def test_a_system_is_its_update_pair_and_its_noise():
    body = _class("dynamics", "StochasticSystem").body
    fields = [n.target.id for n in body if isinstance(n, ast.AnnAssign)]
    assert fields == ["update", "params", "noise"]
    assert not any(isinstance(n, ast.Assign) for n in body)


def test_noise_constructors_take_no_dimension():
    methods = {n.name: n.args for n in _class("dynamics", "NoiseModel").body
               if isinstance(n, ast.FunctionDef)}
    params = {name: [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
              for name, args in methods.items() if name in ("gaussian", "none")}
    assert params == {"gaussian": ["cls", "std_dev"], "none": ["cls"]}
    assert "dim" not in methods


def test_a_sample_set_is_its_pairs():
    body = _class("dynamics", "SampleSet").body
    fields = [n.target.id for n in body if isinstance(n, ast.AnnAssign)]
    assert fields == ["xs", "ys", "seed", "states"]
    literals = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_parse(path.stem))
        if isinstance(node, ast.Constant)
        and node.value in ("single-trajectory", "independent-pairs")
    ]
    assert literals == []


def test_a_config_section_is_checked_in_one_walk():
    messages = []
    for node in ast.walk(_parse("experiments")):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
            text = node.exc.args[0]
            parts = text.values if isinstance(text, ast.JoinedStr) else [text]
            # a formatted value reads as "{}"
            messages.append("".join(str(p.value) if isinstance(p, ast.Constant) else "{}"
                                    for p in parts))
    counts = [sum(re.match(pattern, text) is not None for text in messages)
              for pattern in (r"unknown key ", r"missing key ", r"unknown \S*\.kind ")]
    assert counts == [1, 1, 1]
    defined = {node.id for node in ast.walk(_parse("experiments"))
               if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    assert "_KEYS" in defined and defined.isdisjoint({"_SYSTEM_PARAMS", "_KNOWN_KEYS"})


def test_a_transfer_matrix_is_p_and_the_gram_matrix():
    imported = {node.module for node in ast.walk(_parse("pf")) if isinstance(node, ast.ImportFrom)}
    assert "dynamics" in imported and "estimator" not in imported
    body = _class("pf", "PFEstimate").body
    assert tuple(n.target.id for n in body if isinstance(n, ast.AnnAssign)) == ("matrix", "gram")
    (to_pf,) = [node for node in _parse("pf").body
                if isinstance(node, ast.FunctionDef) and node.name == "koopman_to_pf"]
    calls = {getattr(n.func, "id", None) for n in ast.walk(to_pf) if isinstance(n, ast.Call)}
    assert "conjugate_stack" in calls and "isinstance" not in calls


def test_the_duality_defect_draws_nothing():
    (check,) = [node for node in _parse("pf").body
                if isinstance(node, ast.FunctionDef) and node.name == "duality_check"]
    calls = {name for n in ast.walk(check) if isinstance(n, ast.Call) for name in _names(n.func)}
    assert "norm" in calls and calls.isdisjoint({"make_rng", "mix_seed"})
    assigned = {node.id for node in ast.walk(_parse("experiments"))
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    assert "DUALITY_STREAM" not in assigned


def test_bounds_read_one_fit_set_per_t():
    tree = _parse("experiments")
    assigned = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    assert "SCORE_STREAM" in assigned
    assert assigned.isdisjoint({"TERMS_STREAM", "DELTA_STREAM"})
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "estimate_stack" in imported
    assert imported.isdisjoint({"accumulate", "MomentPair", "estimate_koopman"})
    (fit,) = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "fit_realizations"]
    args = fit.args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == ["config", "T", "seeds"]


def test_a_fit_gets_one_verdict():
    def condition_fallback(ctx):
        return lambda node: (isinstance(node, ast.Name) and node.id == "CONDITION_FALLBACK"
                             and isinstance(node.ctx, ctx))

    assert _sites(condition_fallback(ast.Store)) == ["estimator"]
    assert set(_sites(condition_fallback(ast.Load))) == {"estimator.estimate_stack"}
    assert _sites(lambda node: isinstance(node, ast.Constant) and type(node.value) is float
                  and 1e6 < node.value < 1e16) == ["estimator"]
    bounds = list(ast.walk(_parse("bounds")))
    calls = {name for n in bounds if isinstance(n, ast.Call) for name in _names(n.func)}
    assert "solve" in calls and "eigvalsh" not in calls
    assert not [n.value for n in bounds if isinstance(n, ast.Constant)
                and type(n.value) is float and n.value > 1.0]


_MAKERS = {"Philox", "Generator", "default_rng", "RandomState", "make_rng"}


def test_only_seeding_opens_a_stream_and_no_generator_outlives_a_call():
    philox = _sites(lambda node: "Philox" in _names(node)
                    or (isinstance(node, ast.Constant) and node.value == "Philox"))
    assert set(philox) == {"seeding.make_rng"}
    keyed = _sites(lambda node: isinstance(node, ast.Dict) and any(
        isinstance(k, ast.Constant) and k.value == "key" for k in node.keys))
    assert keyed == ["seeding.make_rng"]
    for path in sorted(SRC.glob("*.py")):
        tree = _parse(path.stem)
        classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        outside = [stmt for body in [tree.body, *(c.body for c in classes)] for stmt in body
                   if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        cached = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                  and {name for d in node.decorator_list for name in _names(getattr(d, "func", d))}
                  & {"cache", "lru_cache", "cached_property"}]
        for scope in outside + cached:
            makes = {name for n in ast.walk(scope) if isinstance(n, ast.Call) for name in _names(n.func)}
            assert makes.isdisjoint(_MAKERS), (path.stem, getattr(scope, "name", scope.lineno))
