"""Command-line front end for the experiment harness.

Subcommands: simulate, estimate, sweep, bounds, pf, closure.  Each takes a
config file plus optional overrides for the base seed, output directory and
worker count.  The exit code is nonzero when a sweep point is flagged
invalid.  All randomness flows from the config's base seed.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import experiments as xp
from .dynamics import simulate
from .estimator import MomentPair, accumulate, estimate_koopman
from .io import load_samples, save_operator, save_samples


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koopest",
        description="Operator-based identification of stochastic dynamics: "
        "simulation, least-squares estimation, error-bound calibration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a YAML experiment config")
        p.add_argument("--base-seed", type=int, default=None, help="override base_seed")
        p.add_argument("--output-dir", default=None, help="override output_dir")
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            help="worker processes (never changes the results)",
        )
        return p

    p_sim = add("simulate", "simulate one trajectory and write a sample-pair CSV")
    p_sim.add_argument(
        "--steps", type=int, default=None, help="trajectory length (default: max of T_grid)"
    )
    p_est = add("estimate", "estimate the Koopman matrix from a sample-pair CSV")
    p_est.add_argument("--samples", required=True, help="sample-pair CSV to read")
    add("sweep", "error-versus-T sweep with realization averaging")
    add("bounds", "evaluate error bounds and empirical violation rates")
    add("pf", "estimate, conjugate into the transfer matrix, verify duality")
    add("closure", "per-observable closure diagnostics for the dictionary")
    return parser


def _load(args) -> xp.ExperimentConfig:
    overrides = {}
    if args.base_seed is not None:
        overrides["base_seed"] = args.base_seed
    if args.output_dir is not None:
        overrides["output_dir"] = args.output_dir
    return xp.load_config(args.config, **overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = _load(args)

    if args.command == "simulate":
        steps = args.steps if args.steps is not None else max(config.T_grid)
        system = xp.build_system(config)
        samples = simulate(
            system,
            None,
            steps,
            xp.derive_seed(config.base_seed, steps, 0),
            max_norm=config.divergence_threshold,
            domain=xp.build_domain(config),
        )
        path = os.path.join(config.output_dir, "samples.csv")
        save_samples(samples, path, label=config.label)
        print(f"wrote {samples.n_samples} sample pairs to {path}")
        return 0

    if args.command == "estimate":
        dictionary = xp.build_dictionary(config)
        samples = load_samples(args.samples)
        moments = accumulate(MomentPair.empty(dictionary), dictionary, samples)
        est = estimate_koopman(moments)
        path = os.path.join(config.output_dir, "koopman.csv")
        save_operator(est, path)
        print(
            f"wrote {est.n_basis}x{est.n_basis} operator (T={est.sample_count}, "
            f"cond={est.condition_sigma0:.3e}) to {path}"
        )
        return 0

    if args.command == "sweep":
        curve = xp.run_sweep(config, workers=args.workers)
        for T, mean, se, n_ok, n_failed, bad in zip(
            curve.T_values,
            curve.mean_rel_err,
            curve.std_err,
            curve.n_ok,
            curve.n_failed,
            curve.invalid,
        ):
            flag = "  INVALID" if bad else ""
            print(f"T={T:>9d}  mean_rel_err={mean:.6e}  se={se:.2e}  ok={n_ok}  failed={n_failed}{flag}")
        if np.isfinite(curve.fitted_slope):
            print(f"fitted log-log slope: {curve.fitted_slope:+.4f} (se {curve.slope_stderr:.4f})")
        else:
            print("fitted log-log slope: skipped (degenerate errors)")
        return 1 if curve.any_invalid else 0

    if args.command == "bounds":
        for report in xp.run_bound_calibration(config, workers=args.workers):
            print(
                f"T={report.sample_count:>9d}  eps={report.epsilon:.2f}  "
                f"bound={report.koopman_bound:.4e}  violation_rate={report.violation_rate:.4f}  "
                f"({report.n_violations}/{report.n_realizations})"
            )
        return 0

    if args.command == "pf":
        _, report = xp.run_pf_pipeline(config, workers=args.workers)
        print(
            f"duality defect: {report['duality_defect']:.3e}   "
            f"gram condition: {report['cond_lambda']:.3e}"
        )
        if report["transfer_total"]:
            print(
                f"error-transfer inequality held in "
                f"{report['transfer_ok']}/{report['transfer_total']} realizations"
            )
        return 0

    if args.command == "closure":
        defects = xp.run_closure(config)
        dictionary = xp.build_dictionary(config)
        for name, d in zip(dictionary.names, defects):
            print(f"{name:>12s}  defect={d:.6e}")
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
