"""The four benchmark workloads: generated configs, the job, and its checks.

Each workload is a closed loop: one job at a time from a single process.
A job is the workload's calls into koopest, made in-process (CLI
subcommands through ``koopest.cli.main``, oracles through the library).
Configs are pure functions of the seed and are the only inputs koopest
receives; output directories are passed as overrides.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io as _io
import re
import resource
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from koopest import basis, cli, dynamics, estimator, experiments, pf
from koopest import io as kio

CLOSED_QUADRATIC = {
    "kind": "closed-quadratic",
    "params": {"rho": 0.2, "mu": 0.3, "c": 1.0},
    "noise": {"kind": "gaussian-iid", "std": [1.0, 1.0]},
}
UNIT_BOX = {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}
INTEGRAL_COEFFS = [0.3, -0.2, 0.5, 0.1]  # g in the transfer-integral oracle (C11)


def _closed(seed: int, **extra) -> dict:
    return {
        "label": "perfbench",
        "system": CLOSED_QUADRATIC,
        "dictionary": {"kind": "closed-quadratic"},
        "domain": UNIT_BOX,
        "base_seed": seed,
        "output_dir": "out",  # always overridden
        **extra,
    }


@dataclass
class JobResult:
    timer: "Timer"  # wall and CPU time of the calls into koopest
    fingerprint: dict  # output name -> sha256
    operations: int  # realizations or oracle evaluations
    failed: int
    detail: object = None  # whatever the checks need


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: Callable[[int], dict]  # seed -> {file name: YAML mapping}
    pairs: Callable[[dict], int]  # configs -> (x, y) pairs per job
    run: Callable  # (config paths, out dir, workers) -> JobResult
    check: Callable  # (config paths, out dir, JobResult) -> [(name, ok, detail)]
    parallel: bool = False  # run at --workers 2; traced runs use 1


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def csv_fingerprint(out: Path) -> dict:
    return {p.name: sha256(p.read_bytes()) for p in sorted(out.glob("*.csv"))}


def _cli(argv, timer) -> str:
    buf = _io.StringIO()
    with contextlib.redirect_stdout(buf):
        with timer:
            code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"koopest {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Timer:
    """Accumulates wall and CPU time over several ``with`` blocks."""

    def __init__(self):
        self.wall = self.cpu = 0.0

    def __enter__(self):
        self.t0, self.c0 = time.perf_counter(), cpu_seconds()

    def __exit__(self, *exc):
        self.wall += time.perf_counter() - self.t0
        self.cpu += cpu_seconds() - self.c0


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# sweep-long ---------------------------------------------------------------


def sweep_configs(seed):
    return {"sweep.yaml": _closed(seed, T_grid=[10000, 50000], n_realizations=8)}


def sweep_pairs(cfgs):
    c = cfgs["sweep.yaml"]
    return sum(c["T_grid"]) * c["n_realizations"]


def sweep_run(paths, out, workers):
    timer = Timer()
    args = ["--output-dir", str(out), "--workers", str(workers)]
    _cli(["sweep", str(paths["sweep.yaml"]), *args], timer)
    rows = _rows(out / "sweep.csv")
    failed = sum(int(r["n_failed"]) for r in rows)
    total = sum(int(r["n_ok"]) + int(r["n_failed"]) for r in rows)
    return JobResult(timer, csv_fingerprint(out), total, failed, rows)


def sweep_check(paths, out, job):
    means = [float(r["mean_rel_err"]) for r in job.detail]
    return [
        ("no failed realization", job.failed == 0, f"{job.failed} failed"),
        (
            "means strictly decreasing in T",
            all(a > b for a, b in zip(means, means[1:])),
            " > ".join(f"{m:.4g}" for m in means),
        ),
        ("mean rel err at largest T <= 0.05 (C02)", means[-1] <= 0.05, f"{means[-1]:.4g}"),
    ]


# calib-short --------------------------------------------------------------


def calib_configs(seed):
    return {
        "calib.yaml": _closed(
            seed,
            T_grid=[20, 50, 200],
            n_realizations=500,
            n_term_realizations=100,
            epsilon_list=[0.1, 0.25, 0.5],
        )
    }


def calib_pairs(cfgs):
    c = cfgs["calib.yaml"]
    # bounds: term realizations + one delta run + scored realizations per T;
    # pf: one estimate + the transfer realizations at the largest T
    per_T = c["n_term_realizations"] + 1 + c["n_realizations"]
    return sum(c["T_grid"]) * per_T + max(c["T_grid"]) * (1 + c["n_realizations"])


_SCORED = re.compile(r"T=\s*(\d+)\s+eps=\S+.*\((\d+)/(\d+)\)")


def _n_realizations(paths) -> int:
    return yaml.safe_load(paths["calib.yaml"].read_text())["n_realizations"]


def calib_run(paths, out, workers):
    cfg = str(paths["calib.yaml"])
    n = _n_realizations(paths)
    timer = Timer()
    args = ["--output-dir", str(out), "--workers", str(workers)]
    printed = _cli(["bounds", cfg, *args], timer)
    _cli(["pf", cfg, *args], timer)
    # one scored set per T (the eps rows of one T share it) plus the pf set
    scored = {int(t): int(k) for t, _, k in _SCORED.findall(printed)}
    report = _rows(out / "pf_report.csv")[0]
    ok = sum(scored.values()) + int(report["transfer_total"])
    total = n * (len(scored) + 1)
    return JobResult(timer, csv_fingerprint(out), total, total - ok, report)


def calib_check(paths, out, job):
    n = _n_realizations(paths)
    checks = [
        (
            f"violation rate <= eps at T={r['T']} eps={float(r['epsilon'])} (C04)",
            float(r["violation_rate"]) <= float(r["epsilon"]),
            r["violation_rate"],
        )
        for r in _rows(out / "bounds.csv")
    ]
    defect = float(job.detail["duality_defect"])
    held, total = int(job.detail["transfer_ok"]), int(job.detail["transfer_total"])
    checks.append(("duality defect <= 1e-10 (C05)", defect <= 1e-10, f"{defect:.3e}"))
    checks.append(
        (
            "error-transfer inequality in every realization (C06)",
            held == total == n,
            f"{held}/{total} of {n}",
        )
    )
    return checks


# oracle-mc ----------------------------------------------------------------


def oracle_configs(seed):
    small = dict(CLOSED_QUADRATIC, noise={"kind": "gaussian-iid", "std": [0.15, 0.15]})
    return {
        "closure.yaml": _closed(seed, T_grid=[100], closure_n_states=30, closure_n_mc=10000),
        # the integral oracle reads its draws per node and node order from
        # closure_n_mc and quadrature_order (order 16 resolves sigma 0.15)
        "integral.yaml": {
            **_closed(seed, T_grid=[100], closure_n_mc=6000, quadrature_order=16),
            "system": small,
        },
    }


def oracle_pairs(cfgs):
    c, g = cfgs["closure.yaml"], cfgs["integral.yaml"]
    closure = c["closure_n_states"] * 4 * c["closure_n_mc"]  # N = 4 observables
    return closure + g["quadrature_order"] ** 2 * g["closure_n_mc"]


def oracle_run(paths, out, workers):
    xp = experiments
    timer = Timer()
    with timer:
        c = xp.load_config(str(paths["closure.yaml"]))
        g = xp.load_config(str(paths["integral.yaml"]))
        defects, floors = estimator.closure_check(
            xp.build_dictionary(c),
            xp.build_system(c),
            c.closure_n_states,
            c.closure_n_mc,
            xp.derive_seed(c.base_seed, 0, xp.CLOSURE_STREAM),
            domain=xp.build_domain(c),
            return_floor=True,
        )
        dictionary = xp.build_dictionary(g)
        lam = basis.gram(dictionary, xp.build_domain(g))
        coords, se = pf.pf_apply_integral_mc(
            xp.build_system(g),
            dictionary,
            lam,
            np.array(INTEGRAL_COEFFS),
            g.closure_n_mc,
            xp.derive_seed(g.base_seed, 0, xp.PF_STREAM),
            quadrature_order=g.quadrature_order,
            return_stderr=True,
        )
    arrays = {
        "closure_defects": defects,
        "closure_floors": floors,
        "integral_coords": coords,
        "integral_se": se,
    }
    fingerprint = {k: sha256(np.ascontiguousarray(v).tobytes()) for k, v in arrays.items()}
    return JobResult(timer, fingerprint, 2, 0, (arrays, g, lam))


def oracle_check(paths, out, job):
    arrays, g, lam = job.detail
    checks = [
        (
            f"closure defect of psi{k + 1} <= 3 x floor (C08)",
            d <= 3.0 * f + 1e-12,
            f"{d:.4g} vs floor {f:.4g}",
        )
        for k, (d, f) in enumerate(zip(arrays["closure_defects"], arrays["closure_floors"]))
    ]
    p = pf.koopman_to_pf(experiments.true_koopman(g), lam).matrix
    target = p @ np.array(INTEGRAL_COEFFS)
    for k, (c, t, s) in enumerate(zip(arrays["integral_coords"], target, arrays["integral_se"])):
        checks.append(
            (
                f"integral coordinate {k + 1} within 4 se of P g (C11)",
                abs(c - t) <= 4.0 * s,
                f"{abs(c - t) / s:.2f} se",
            )
        )
    return checks


# csv-roundtrip ------------------------------------------------------------


def roundtrip_configs(seed):
    return {
        "vanderpol.yaml": {
            "label": "perfbench",
            "system": {
                "kind": "vanderpol",
                "params": {"dt": 0.0001, "standard_vdp": False},
                "noise": {"kind": "gaussian-iid", "std": [0.01, 0.01]},
            },
            "dictionary": {"kind": "monomial", "state_dim": 2, "max_degree": 4},
            "domain": UNIT_BOX,
            "T_grid": [80000],  # simulate writes max(T_grid) pairs
            "base_seed": seed,
            "output_dir": "out",
        }
    }


def roundtrip_pairs(cfgs):
    return 2 * max(cfgs["vanderpol.yaml"]["T_grid"])  # rows written, then read


def roundtrip_run(paths, out, workers):
    cfg = str(paths["vanderpol.yaml"])
    timer = Timer()
    _cli(["simulate", cfg, "--output-dir", str(out)], timer)
    _cli(["estimate", cfg, "--output-dir", str(out), "--samples", str(out / "samples.csv")], timer)
    return JobResult(timer, csv_fingerprint(out), 2, 0)


def roundtrip_check(paths, out, job):
    # The same simulation and estimate, kept in memory (as the CLI calls them).
    xp = experiments
    c = xp.load_config(str(paths["vanderpol.yaml"]))
    steps = max(c.T_grid)
    mem = dynamics.simulate(
        xp.build_system(c),
        None,
        steps,
        xp.derive_seed(c.base_seed, steps, 0),
        max_norm=c.divergence_threshold,
        domain=xp.build_domain(c),
    )
    d = xp.build_dictionary(c)
    est = estimator.estimate_koopman(estimator.accumulate(estimator.MomentPair.empty(d), d, mem))
    loaded = kio.load_samples(str(out / "samples.csv"))
    matrix = kio.load_matrix(str(out / "koopman.csv"))
    same_samples = loaded.xs.tobytes() == mem.xs.tobytes() and loaded.ys.tobytes() == mem.ys.tobytes()
    return [
        ("loaded samples bit-equal to simulated", same_samples, f"{loaded.n_samples} rows"),
        (
            "estimate from CSV bit-equal to in-memory",
            matrix.tobytes() == est.matrix.tobytes(),
            f"{d.n_basis}x{d.n_basis}",
        ),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-long",
            "koopest sweep, T 1e4 and 5e4 x 8 realizations (480k pairs), 1 worker: long trajectories, the per-step simulation loop dominates",
            sweep_configs, sweep_pairs, sweep_run, sweep_check,
        ),
        Workload(
            "calib-short",
            "koopest bounds then pf, T 20/50/200, 500 scored + 100 term realizations (262k pairs), 2 workers: per-realization fixed costs near the 2N+2 floor, and the pool",
            calib_configs, calib_pairs, calib_run, calib_check, parallel=True,
        ),
        Workload(
            "oracle-mc",
            "closure_check 30 states x 1e4 draws, transfer integral 256 nodes x 6000 draws (2.74M pairs): dictionary evaluation on large batches, no stepping or solve",
            oracle_configs, oracle_pairs, oracle_run, oracle_check,
        ),
        Workload(
            "csv-roundtrip",
            "koopest simulate then estimate, Van der Pol at N=15, 80k steps (160k rows written and read): CSV formatting and parsing dominate",
            roundtrip_configs, roundtrip_pairs, roundtrip_run, roundtrip_check,
        ),
    )
}


def write_configs(workload: Workload, seed: int, directory: Path) -> dict:
    """Write the workload's generated YAML files; returns name -> path."""
    paths = {}
    for name, data in workload.configs(seed).items():
        paths[name] = directory / name
        paths[name].write_text(yaml.safe_dump(data, sort_keys=True))
    return paths
