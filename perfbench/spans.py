"""Span tracing of koopest's layers, installed from outside the package.

A :class:`Tracer` wraps every public module-level function of the layer
modules and rebinds the wrapper in every koopest namespace that holds the
original (``from .x import y`` copies names, so patching only the defining
module would miss calls).  Each call records a span: name, start, end,
parent span and a few work counts read from the arguments.  Spans stay in
memory; :func:`layer_metrics` turns them into per-layer numbers.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("seeding", "basis", "dynamics", "estimator", "pf", "bounds", "experiments", "io", "cli")

# io.fmt runs once per written value; a span per call would swamp the trace.
SKIP = {"io.fmt"}
# Private helpers wrapped only because their arguments carry counts.
EXTRA = {"experiments._ordered_map", "io._write_rows"}


def _file_bytes(a, result):
    return {"bytes": os.path.getsize(a["path"])}


# name -> f(bound arguments, result) -> {count: value}
WORK = {
    "basis.evaluate_many": lambda a, r: {
        "rows": len(a["xs"]),
        "values": len(a["xs"]) * a["dictionary"].n_basis,
    },
    "dynamics.trajectory_chunks": lambda a, r: {"steps": len(r[0])},
    "dynamics.koopman_apply_mc": lambda a, r: {"draws": a["n_mc"]},
    "pf.pf_apply_integral_mc": lambda a, r: {
        "draws": a["n_mc"] * a["quadrature_order"] ** a["gram"].domain.dim
    },
    "estimator.accumulate": lambda a, r: {"pairs": a["samples"].n_samples},
    "estimator.estimate_koopman": lambda a, r: {"fallback": int(r.fallback)},
    "estimator.closure_check": lambda a, r: {
        # one observable per state and draw, plus the design matrix
        "needed": a["n_states"] * a["dictionary"].n_basis * (a["n_mc"] + 1)
    },
    "bounds.estimate_bound_terms": lambda a, r: {
        "realizations": a["n_realizations"],
        "excluded": r.n_excluded,
    },
    "experiments.run_pf_pipeline": lambda a, r: {"realizations": a["config"].n_realizations},
    "experiments._ordered_map": lambda a, r: {"tasks": len(a["tasks"])},
    "io.save_samples": lambda a, r: {"rows": a["samples"].n_samples},
    "io.load_samples": lambda a, r: {"rows": r.n_samples},
    "io._write_rows": _file_bytes,
    "io.write_sidecar": _file_bytes,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "work")

    def __init__(self, name, start, end=None, parent=-1, work=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.work = work


class Tracer:
    """Records one span per call of each wrapped koopest function."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name):
        self.spans.append(Span(name, 0.0, parent=self._stack[-1] if self._stack else -1))
        self._stack.append(len(self.spans) - 1)
        self.spans[-1].start = self.clock()
        return len(self.spans) - 1

    def _close(self, index):
        self.spans[index].end = self.clock()
        self._stack.pop()

    def wrap(self, name, fn):
        count = WORK.get(name)
        signature = inspect.signature(fn)

        def work(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return count(bound.arguments, result)

        if inspect.isgeneratorfunction(fn):
            # Time each next() on its own, so the consumer's work between
            # blocks is not billed to the generator.
            tracer = self

            class Traced:
                def __init__(self, gen):
                    self.gen = gen

                def __iter__(self):
                    return self

                def __next__(self):
                    i = tracer._open(name)
                    try:
                        item = next(self.gen)
                    finally:
                        tracer._close(i)
                    if count is not None:
                        tracer.spans[i].work = count({}, item)
                    return item

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return Traced(fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if count is not None:
                self.spans[i].work = work(args, kwargs, result)
            return result

        return wrapper

    def install(self, package="koopest"):
        """Wrap the layer functions; returns a callable that undoes it."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and (not attr.startswith("_") or name in EXTRA)
                    and name not in SKIP
                ):
                    wrappers[obj] = self.wrap(name, obj)
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    patched.append((module, attr, obj))

        def uninstall():
            for module, attr, obj in patched:
                setattr(module, attr, obj)

        return uninstall


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[i], key=lambda c: spans[c].start):
            lo, hi = max(spans[c].start, reach), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, pairs: int) -> dict[str, float]:
    """Per-layer metrics of one traced job (see perfbench/README.md)."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)  # span time, children included
    own = defaultdict(float)  # self time
    work = defaultdict(lambda: defaultdict(int))
    layer_self = dict.fromkeys(LAYERS, 0.0)
    inside_closure = [False] * len(spans)
    inside_pf_pipeline = [False] * len(spans)
    closure_values = pf_conjugations = 0
    for i, s in enumerate(spans):
        calls[s.name] += 1
        total[s.name] += s.end - s.start
        own[s.name] += selfs[i]
        layer_self[s.name.split(".", 1)[0]] += selfs[i]
        for k, v in (s.work or {}).items():
            work[s.name][k] += v
        if s.parent >= 0:
            p = spans[s.parent].name
            inside_closure[i] = inside_closure[s.parent] or p == "estimator.closure_check"
            inside_pf_pipeline[i] = (
                inside_pf_pipeline[s.parent] or p == "experiments.run_pf_pipeline"
            )
        if inside_closure[i] and s.name == "basis.evaluate_many":
            closure_values += s.work["values"]
        if inside_pf_pipeline[i] and s.name == "pf.koopman_to_pf":
            pf_conjugations += 1

    steps = work["dynamics.trajectory_chunks"]["steps"]
    rows = work["basis.evaluate_many"]["rows"]
    m = {
        "dynamics.trajectory.steps": steps,
        "dynamics.trajectory.us_per_step": 1e6 * _ratio(total["dynamics.trajectory_chunks"], steps),
        "dynamics.koopman_apply_mc.calls": calls["dynamics.koopman_apply_mc"],
        "dynamics.koopman_apply_mc.us_per_draw": 1e6
        * _ratio(total["dynamics.koopman_apply_mc"], work["dynamics.koopman_apply_mc"]["draws"]),
        "basis.evaluate_many.rows": rows,
        "basis.evaluate_many.ns_per_value": 1e9
        * _ratio(total["basis.evaluate_many"], work["basis.evaluate_many"]["values"]),
        "basis.evaluate_many.rows_per_pair": _ratio(rows, pairs),
        "basis.gram.calls": calls["basis.gram"],
        "basis.gram.self_s": own["basis.gram"],
        "estimator.accumulate.us_per_pair": 1e6
        * _ratio(total["estimator.accumulate"], work["estimator.accumulate"]["pairs"]),
        "estimator.estimate_koopman.calls": calls["estimator.estimate_koopman"],
        "estimator.estimate_koopman.us_per_call": 1e6
        * _ratio(total["estimator.estimate_koopman"], calls["estimator.estimate_koopman"]),
        "estimator.estimate_koopman.fallback_frac": _ratio(
            work["estimator.estimate_koopman"]["fallback"], calls["estimator.estimate_koopman"]
        ),
        "estimator.residuals.self_s": own["estimator.residuals"],
        "estimator.closure_check.self_s": own["estimator.closure_check"],
        "estimator.closure_check.useful_frac": _ratio(
            work["estimator.closure_check"]["needed"], closure_values
        ),
        "seeding.make_rng.calls": calls["seeding.make_rng"],
        "seeding.make_rng.self_s": own["seeding.make_rng"],
        "seeding.mix_seed.calls": calls["seeding.mix_seed"],
        "bounds.estimate_bound_terms.self_s": own["bounds.estimate_bound_terms"],
        "bounds.estimate_bound_terms.excluded_frac": _ratio(
            work["bounds.estimate_bound_terms"]["excluded"],
            work["bounds.estimate_bound_terms"]["realizations"],
        ),
        "pf.koopman_to_pf.calls_per_realization": _ratio(
            pf_conjugations, work["experiments.run_pf_pipeline"]["realizations"]
        ),
        "pf.duality_check.self_s": own["pf.duality_check"],
        "pf.pf_apply_integral_mc.us_per_draw": 1e6
        * _ratio(total["pf.pf_apply_integral_mc"], work["pf.pf_apply_integral_mc"]["draws"]),
        "experiments.tasks": work["experiments._ordered_map"]["tasks"],
        "io.save_samples.us_per_row": 1e6
        * _ratio(total["io.save_samples"], work["io.save_samples"]["rows"]),
        "io.load_samples.us_per_row": 1e6
        * _ratio(total["io.load_samples"], work["io.load_samples"]["rows"]),
        "io.bytes_written": work["io._write_rows"]["bytes"] + work["io.write_sidecar"]["bytes"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    last = metric.rsplit(".", 1)[-1]
    if last.startswith("us_per_"):
        return "us"
    if last.startswith("ns_per_"):
        return "ns"
    if last.endswith("_s"):
        return "s"
    if last.endswith("_frac") or "_per_" in last:
        return "ratio"
    if last == "bytes_written":
        return "B"
    return "count"
