"""
Least-squares operator estimation
=================================

Lifted sample pairs accumulate into streaming second-moment matrices; the
operator estimate solves sigma0_hat @ K = sigma1_hat by Cholesky.  On the
closed benchmark the estimate converges to a known ground-truth matrix.
"""

import numpy as np

from koopest import (
    ClosedQuadraticParams,
    MomentPair,
    NoiseModel,
    accumulate,
    closed_quadratic_dictionary,
    closed_quadratic_koopman,
    closure_check,
    estimate_koopman,
    make_closed_quadratic,
    residuals,
    simulate,
    step_pairs,
    unit_box,
)
from koopest.seeding import make_rng

params = ClosedQuadraticParams(rho=0.2, mu=0.3, c=1.0)
dct = closed_quadratic_dictionary()
k_true = closed_quadratic_koopman(params, noise_variance=1.0)

# Noiseless data from distinct states recovers the operator exactly:
# the lifted dynamics are linear on this dictionary.
quiet = make_closed_quadratic(params, noise=NoiseModel.none())
states = make_rng(1).uniform(-1, 1, size=(200, 2))
m = accumulate(MomentPair.empty(dct), dct, step_pairs(quiet, states, seed=2))
est = estimate_koopman(m)
exact_err = np.linalg.norm(est.matrix - closed_quadratic_koopman(params, 0.0), "fro")
print(f"noiseless recovery error: {exact_err:.2e}")

# With unit noise the error shrinks like 1/sqrt(T).
system = make_closed_quadratic(params)
for T in (1000, 10000, 100000):
    ss = simulate(system, None, T, seed=T, domain=unit_box(2))
    est = estimate_koopman(accumulate(MomentPair.empty(dct), dct, ss))
    err = np.linalg.norm(est.matrix - k_true, "fro") / np.linalg.norm(k_true, "fro")
    print(f"T={T:>6d}  rel err {err:.4f}  cond(sigma0) {est.condition_sigma0:.1f}")

# The per-observable mean squared residuals expose the noise level; the
# largest is the plug-in noise-variance bound for the error-bound module.
mean_sq = residuals(dct, ss, est.matrix)
print("\nper-observable mean squared residuals:", np.round(mean_sq, 3))
print("noise-variance bound surrogate (max): ", round(float(mean_sq.max()), 3))

# Closure diagnostics: propagated observables regressed back onto the span.
defects = closure_check(dct, system, n_states=20, n_mc=2000, seed=5)
print("\nclosure defects (closed pair, MC floor):", np.round(defects, 3))
