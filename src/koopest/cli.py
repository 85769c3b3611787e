"""Command-line front end for the experiment harness.

Subcommands: simulate, estimate, sweep, bounds, pf, closure.  Each takes a
config file plus only the overrides it reads: the output directory, the
base seed (all but estimate, which draws nothing) and the worker count
(sweep, bounds and pf, which map).  The exit code is 1 when a sweep point is
flagged invalid or when the config, an input file or the run raises
``ValueError``, ``RuntimeError`` or ``OSError``; that error is printed as
one line on stderr.  All randomness flows from the config's base seed.
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


def _positive_int(text: str) -> int:
    """argparse type of a count: anything but a positive integer is a usage
    error naming the flag (exit code 2)."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koopest",
        description="Operator-based identification of stochastic dynamics: "
        "simulation, least-squares estimation, error-bound calibration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, seeded=True, mapped=False):
        """A subcommand: --base-seed if it draws, --workers if it maps."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a YAML experiment config")
        if seeded:
            p.add_argument("--base-seed", type=int, default=None, help="override base_seed")
        p.add_argument("--output-dir", default=None, help="override output_dir")
        if mapped:
            p.add_argument("--workers", type=_positive_int, default=1, help="worker threads, "
                           "at most one per task (never changes the results)")
        return p

    p_sim = add("simulate", "simulate one trajectory and write a sample-pair CSV")
    p_sim.add_argument(
        "--steps", type=_positive_int, default=None,
        help="trajectory length (default: max of T_grid)",
    )
    p_est = add("estimate", "estimate the Koopman matrix from a sample-pair CSV", seeded=False)
    p_est.add_argument("--samples", required=True, help="sample-pair CSV to read")
    add("sweep", "error-versus-T sweep with realization averaging", mapped=True)
    add("bounds", "evaluate error bounds and empirical violation rates", mapped=True)
    add("pf", "estimate, conjugate into the transfer matrix, verify duality", mapped=True)
    add("closure", "per-observable closure diagnostics for the dictionary")
    return parser


def _load(args) -> xp.ExperimentConfig:
    overrides = {}
    if getattr(args, "base_seed", None) is not None:
        overrides["base_seed"] = args.base_seed
    if args.output_dir is not None:
        overrides["output_dir"] = args.output_dir
    return xp.load_config(args.config, **overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ValueError, RuntimeError, OSError) as err:
        print(f"koopest {args.command}: {err}", file=sys.stderr)
        return 1


def _run(args) -> int:
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
        if samples.state_dim != dictionary.state_dim:
            raise ValueError(f"{args.samples} holds states of width {samples.state_dim}, "
                             f"the dictionary takes width {dictionary.state_dim}")
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
