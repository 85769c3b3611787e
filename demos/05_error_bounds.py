"""
Sample-complexity error bounds
==============================

The expected estimation error is bounded by
sqrt(Delta / T) * sqrt(E[tr S0] * E[|S0^-1|_F^2]); dividing by a
confidence level epsilon gives a high-probability bound.  The expectation
factors are estimated by an auxiliary Monte Carlo over the moment matrices
of independent realizations, and the bound is then calibrated empirically:
the fraction of realizations exceeding it must stay below epsilon (and sits
far below, the bound being conservative).

The same calibration is available from the command line:

    koopest bounds configs/closed_quadratic_baseline.yaml
"""

from koopest import (
    bound_terms,
    config_from_dict,
    koopman_error_bound,
    mix_seed,
    run_bound_calibration,
)
from koopest.experiments import fit_realizations

config = config_from_dict(
    {
        "label": "demo",
        "system": {
            "kind": "closed-quadratic",
            "params": {"rho": 0.2, "mu": 0.3, "c": 1.0},
            "noise": {"kind": "gaussian-iid", "std": [1.0, 1.0]},
        },
        "dictionary": {"kind": "closed-quadratic"},
        "domain": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
        "T_grid": [1000, 5000],
        "n_realizations": 100,
        "n_term_realizations": 40,
        "base_seed": 3,
        "epsilon_list": [0.1, 0.25, 0.5],
        "output_dir": "out/demo_bounds",
    }
)

# fit_realizations steps one seeded trajectory per seed, all in one block,
# and streams each into its moment matrix S0 and the estimate; it returns
# the stacks, one row per seed, with each fit's status.  The bound terms
# reduce the S0 stack of the usable ("ok") fits.
T = 5000
fits = fit_realizations(config, T, [mix_seed(1, r) for r in range(40)])
terms = bound_terms(fits.sigma0[fits.status == "ok"])
print(f"E[tr S0]        ~ {terms.mean_trace_sigma0:.3f} (se {terms.se_trace:.3f})")
print(f"E[|S0^-1|_F^2]  ~ {terms.mean_frob_sq_inv_sigma0:.3f} (se {terms.se_frob:.3f})")

# The bound is exactly linear in 1/eps and sqrt(Delta), and decays as T^(-1/2).
for eps in (0.1, 0.25, 0.5):
    bound = koopman_error_bound(2.2, eps, T, terms)  # Delta ~ max residual variance
    print(f"  eps={eps:<5} bound {bound:.4f}")

# The harness calibrates end to end from one base seed: per T it fits one
# set of realizations, whose usable S0 give the terms, whose first fit gives
# the Delta surrogate, and whose estimates it scores, counting how often
# |K_hat - K|_F exceeds the bound.
print()
for report in run_bound_calibration(config):
    print(
        f"T={report.sample_count:<5d} eps={report.epsilon:<5} "
        f"Delta_hat {report.delta_hat:.3f}  bound {report.koopman_bound:.4f}  "
        f"exceeded by {report.violation_rate:.1%} ({report.n_violations}/{report.n_realizations})"
    )
print("bounds.csv in:", config.output_dir)
