"""koopest benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory of a source checkout; koopest is imported from the
checkout's ``src``.  The workload's configs are generated from ``--seed``
into a temporary directory under ``perfbench/.work``.  A warm-up job runs
first at ``--workers 1``: its outputs are checked and its fingerprint is
the reference every later job must match.  Then jobs repeat until
``--seconds`` have passed:

* ``--trace 0`` runs them at the workload's worker count and reports the
  end-to-end metrics (medians over jobs).  Reference kernels that do not
  touch koopest (``reference.py``) are timed before the first job and
  after every job; job times are reported in units of the kernels'
  total time, averaged over the two timings around the job, which cancels
  the drift in speed a shared host gives the process.  After every job one
  fresh set-up interpreter is timed too, so that ``setup_s`` samples the
  whole run rather than a few seconds of it.
* ``--trace 1`` runs one untraced job, then traced jobs at ``--workers 1``,
  and reports the per-layer metrics (medians over traced jobs).  The spans
  of the last traced job go to ``perfbench/.work/trace-<workload>.json``.

Human-readable lines come first; the last line of standard output is the
JSON result.  The exit code is nonzero when any check fails.
"""

import os

# Pin BLAS/OpenMP threads before numpy loads; pool workers and the set-up
# interpreters inherit these.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"

# Fresh interpreter to ready: import koopest, load and validate the config,
# build the system, dictionary and domain.
SETUP = """import sys
from koopest import experiments as xp
c = xp.load_config(sys.argv[1])
xp.build_system(c), xp.build_dictionary(c), xp.build_domain(c)
"""

END_TO_END_UNITS = {"wall_ref": "ref", "cpu_ref": "ref", "peak_rss_mb": "MB", "setup_s": "s"}


def import_koopest():
    """Import koopest from this checkout only; exit nonzero if it is absent."""
    if not (SRC / "koopest" / "__init__.py").is_file():
        sys.exit(f"perfbench: no koopest sources under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    import koopest

    if Path(koopest.__file__).resolve().parent != SRC / "koopest":
        sys.exit(f"perfbench: imported koopest from {koopest.__file__}, not {SRC}")


def machine_facts() -> dict:
    import numpy
    import scipy

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        facts["blas"] = "unknown"
    for path, key, field in (
        ("/proc/cpuinfo", "cpu_model", "model name"),
        ("/proc/self/status", "os_threads", "Threads"),  # 1 when BLAS is pinned
    ):
        try:
            with open(path) as fh:
                lines = [line for line in fh if line.startswith(field)]
            facts[key] = lines[0].split(":", 1)[1].strip()
        except (OSError, IndexError):
            facts[key] = "unknown"
    return facts


def setup_time(config: Path) -> float:
    """Wall time of one fresh set-up interpreter."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP, str(config)], check=True)
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def same_as_earlier_runs(key: str, fingerprint: dict) -> bool:
    """Record the fingerprint of (workload, seed, configs); compare with earlier runs."""
    path = WORK / "fingerprints.json"
    db = json.loads(path.read_text()) if path.exists() else {}
    earlier = db.setdefault(key, fingerprint)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(db, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return earlier == fingerprint


def run(workload, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    import reference
    from workloads import sha256, write_configs

    configs = workload.configs(seed)
    paths = write_configs(workload, seed, tmp)
    pairs = workload.pairs(configs)
    print(f"perfbench {workload.name} seed={seed} seconds={seconds} trace={int(trace)}")
    print("machine " + json.dumps(machine_facts()))
    print("inputs " + json.dumps({"pairs_per_job": pairs, "configs": configs}, sort_keys=True))

    out = tmp / "out"
    jobs, checks = [], []

    def job(workers):
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        jobs.append(workload.run(paths, out, workers))
        return jobs[-1]

    def repeat(workers, label, setups=None):
        """Jobs until `seconds` have passed (at least one); each must reproduce the warm-up.

        Yields (job, its reference: the sum of the kernel times, each the
        mean of the timings before and after the job).  With a `setups`
        list, one set-up interpreter is timed into it after each job."""
        deadline = time.perf_counter() + seconds
        n = 0
        refs = [reference.timed()]
        while not n or time.perf_counter() < deadline:
            n += 1
            j = job(workers)
            refs.append(reference.timed())
            if setups is not None:
                setups.append(setup_time(config))
            same = j.fingerprint == ref.fingerprint
            checks.append((f"{label} job {n} output equals warm-up", same, ""))
            kernels = {k: (refs[-2][k] + refs[-1][k]) / 2 for k in refs[-1]}
            print(f"job {n} wall_s {j.timer.wall:.4f} cpu_s {j.timer.cpu:.4f} reference_s " + json.dumps(kernels))
            yield j, sum(kernels.values())

    config = next(iter(paths.values()))
    ref = job(1)  # warm-up; checked, and the fingerprint reference
    checks += workload.check(paths, out, ref)
    digest = sha256(json.dumps(configs, sort_keys=True).encode())[:16]
    key = f"{workload.name} seed={seed} configs={digest}"
    same = same_as_earlier_runs(key, ref.fingerprint)
    checks.append(("fingerprint matches earlier runs of this seed", same, key))
    for name, digest in sorted(ref.fingerprint.items()):
        print(f"fingerprint {name} {digest}")

    workers = 2 if workload.parallel else 1
    if not trace:
        c10 = " (C10: equals --workers 1)" if workload.parallel else ""
        setup_time(config)  # warm-up, not counted
        setups = []
        timed = list(repeat(workers, f"--workers {workers}{c10}", setups))
        print("setup_s samples " + " ".join(f"{t:.4f}" for t in setups))
        metrics = {
            "wall_ref": statistics.median(j.timer.wall / r for j, r in timed),
            "cpu_ref": statistics.median(j.timer.cpu / r for j, r in timed),
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": statistics.median(setups),
        }
        units = END_TO_END_UNITS
        # seconds as measured, drift included: printed, not reported
        wall = statistics.median(j.timer.wall for j, _ in timed)
        print(f"wall_s {wall:.6g} s")
        print(f"cpu_s {statistics.median(j.timer.cpu for j, _ in timed):.6g} s")
        print(f"pairs_per_s {pairs / wall:.6g} 1/s")
    else:
        untraced = job(1)
        tracer = spans.Tracer()
        per_job = []
        uninstall = tracer.install()
        try:
            for traced, _ in repeat(1, "traced --workers 1"):
                m = spans.layer_metrics(tracer.spans, pairs)
                per_job.append({**m, "trace.wall_s": traced.timer.wall})
                last, tracer.spans = tracer.spans, []
        finally:
            uninstall()
        if workload.parallel:
            same = job(workers).fingerprint == ref.fingerprint
            checks.append((f"--workers {workers} output equals --workers 1 (C10)", same, ""))
        metrics = {k: statistics.median(m[k] for m in per_job) for k in per_job[0]}
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced.timer.wall
        units = {k: spans.unit(k) for k in metrics}
        wall = metrics["trace.wall_s"]
        shares = {layer: round(metrics[f"{layer}.self_s"] / wall, 4) for layer in spans.LAYERS}
        print("self-time share of traced wall " + json.dumps(shares))
        t0 = last[0].start if last else 0.0
        trace_file = {
            "workload": workload.name,
            "seed": seed,
            "metrics": metrics,
            "spans": [[s.name, s.start - t0, s.end - t0, s.parent] for s in last],
        }
        (WORK / f"trace-{workload.name}.json").write_text(json.dumps(trace_file))

    for name, ok, detail in checks:
        print(f"check {'ok' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")
    failed_checks = sum(1 for _, ok, _ in checks if not ok)
    attempted = sum(j.operations for j in jobs) + len(checks)
    failed = sum(j.failed for j in jobs) + failed_checks
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for k, v in metrics.items():
        print(f"metric {k} {v:.6g} {units[k]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_koopest()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
