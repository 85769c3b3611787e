"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import koopest  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span, self_times  # noqa: E402


def test_self_time_subtracts_covered_part_of_children_only():
    s = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.child", 2.0, 3.0, parent=1),  # billed to a, not again to root
        Span("b", 5.0, 9.0, parent=0),
        Span("c", 8.0, 11.0, parent=0),  # overlaps b and outlives root
    ]
    assert self_times(s) == [2.0, 2.0, 1.0, 4.0, 3.0]


class Ticks:
    """A clock that advances one unit per reading."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_tracer_nests_calls_and_times_each_generator_step():
    tracer = spans.Tracer(clock=Ticks())

    def blocks():
        for m in (3, 2):
            yield np.zeros((m, 2)), np.zeros((m, 2))

    gen = tracer.wrap("dynamics.trajectory_chunks", blocks)

    def consume():
        for _ in gen():
            tracer.clock()  # consumer work between blocks

    tracer.wrap("dynamics.simulate", consume)()
    names = [s.name for s in tracer.spans]
    assert names == ["dynamics.simulate"] + ["dynamics.trajectory_chunks"] * 3
    assert all(s.parent == 0 for s in tracer.spans[1:])
    # three next() spans of one tick each; two ticks of consumer work stay with simulate
    assert self_times(tracer.spans) == [9.0 - 3.0, 1.0, 1.0, 1.0]
    assert spans.layer_metrics(tracer.spans, pairs=5)["dynamics.trajectory.steps"] == 5


def test_install_patches_every_namespace_and_uninstall_restores():
    original = koopest.basis.evaluate_many
    tracer = spans.Tracer()
    uninstall = tracer.install()
    try:
        wrapped = koopest.basis.evaluate_many
        assert wrapped is not original
        assert koopest.estimator.evaluate_many is wrapped
        assert koopest.experiments.evaluate_many is wrapped
        assert koopest.evaluate_many is wrapped
        dct = koopest.closed_quadratic_dictionary()
        system = koopest.make_closed_quadratic(koopest.ClosedQuadraticParams(0.2, 0.3))
        samples = koopest.simulate(system, np.zeros(2), 50, seed=3)
        koopest.accumulate(koopest.MomentPair.empty(dct), dct, samples)
    finally:
        uninstall()
    assert koopest.basis.evaluate_many is original
    assert koopest.experiments.evaluate_many is original
    by_name = {s.name: i for i, s in enumerate(tracer.spans)}
    lift = [s for s in tracer.spans if s.name == "basis.evaluate_many"]
    assert len(lift) == 2 and all(s.parent == by_name["estimator.accumulate"] for s in lift)
    m = spans.layer_metrics(tracer.spans, pairs=50)
    assert m["dynamics.trajectory.steps"] == 50
    assert m["basis.evaluate_many.rows_per_pair"] == 2.0


def test_configs_depend_only_on_the_seed(tmp_path):
    def written(w, seed, directory):
        directory.mkdir()
        return workloads.write_configs(w, seed, directory)

    for w in workloads.WORKLOADS.values():
        first = written(w, 7, tmp_path / f"{w.name}-a")
        second = written(w, 7, tmp_path / f"{w.name}-b")
        other = w.configs(8)
        assert first.keys() == second.keys() == other.keys()
        for name in first:
            assert first[name].read_bytes() == second[name].read_bytes()
            assert koopest.load_config(str(first[name])).base_seed == 7
            assert other[name]["base_seed"] == 8


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer = set(spans.layer_metrics([], pairs=1)) | {"trace.wall_s", "trace.overhead_s"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: spans.unit(k) for k in layer}
