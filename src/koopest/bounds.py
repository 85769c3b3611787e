"""Sample-complexity error bounds.

The estimator's expected Frobenius error is bounded by
``sqrt(Delta / T) * sqrt(E[tr S0] * E[|S0^-1|_F^2])`` where ``Delta`` bounds
the per-observable residual variance and ``S0`` is the empirical moment
matrix of T lifted samples; dividing by a confidence level ``epsilon``
turns it into a high-probability bound via Markov's inequality.  The two
expectation terms have no closed form for general systems, so they are
estimated here by an auxiliary Monte Carlo over independent realizations
and reported with standard errors.  The empirical check that the violation
rate stays below ``epsilon`` is
:func:`koopest.experiments.run_bound_calibration`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import Dictionary, Domain, unit_box
from .dynamics import StochasticSystem, simulate
from .estimator import MomentPair, SampleFloorError, accumulate, sample_floor
from .seeding import mix_seed

# Errors at the linear-solver floor do not count as bound violations; the
# guard is far below any statistically meaningful error or bound scale.
VIOLATION_ATOL = 1e-9


@dataclass(frozen=True)
class BoundTerms:
    """Monte Carlo estimates of the two expectation factors in the bound."""

    mean_trace_sigma0: float
    mean_frob_sq_inv_sigma0: float
    se_trace: float
    se_frob: float
    n_basis: int
    n_realizations: int
    n_excluded: int = 0


@dataclass(frozen=True)
class BoundReport:
    """Everything entering the high-probability bounds plus their values."""

    epsilon: float
    sample_count: int
    n_basis: int
    delta_hat: float
    mean_trace_sigma0: float
    mean_frob_sq_inv_sigma0: float
    koopman_bound: float
    pf_bound: float
    cond_lambda: float
    n_bound_realizations: int

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.pf_bound < self.koopman_bound:
            raise ValueError("transfer-operator bound cannot undercut the Koopman bound")


@dataclass(frozen=True)
class ViolationStats:
    """How often realized errors exceeded the computed bound."""

    n_realizations: int
    n_violations: int
    violation_rate: float
    n_failed: int = 0

    def __post_init__(self):
        if self.n_realizations < 1:
            raise ValueError("need at least one realization")
        if self.violation_rate != self.n_violations / self.n_realizations:
            raise ValueError("violation_rate must equal n_violations / n_realizations")


def estimate_bound_terms(
    system: StochasticSystem,
    dictionary: Dictionary,
    T: int,
    n_realizations: int,
    seed: int,
    domain: Domain | None = None,
    x0=None,
) -> BoundTerms:
    """Estimate ``E[tr S0]`` and ``E[|S0^-1|_F^2]`` over fresh realizations.

    Each realization simulates an independent length-T trajectory (initial
    state drawn uniformly from the domain unless ``x0`` is fixed), forms its
    moment matrix, and records the trace and the squared Frobenius norm of
    the inverse (computed by a full solve against the identity).  Singular
    realizations are excluded and counted; all-singular is an error.
    """
    n = dictionary.n_basis
    if T <= sample_floor(n):
        raise SampleFloorError(
            f"T must exceed 2N+2 = {sample_floor(n)}; got {T}"
        )
    if n_realizations < 2:
        raise ValueError("need at least two realizations for standard errors")
    if domain is None:
        domain = unit_box(system.state_dim)
    traces, frobs = [], []
    excluded = 0
    for r in range(n_realizations):
        samples = simulate(
            system, x0, T, seed=mix_seed(seed, r), domain=domain
        )
        moments = accumulate(MomentPair.empty(dictionary), dictionary, samples)
        s0 = moments.sigma0_hat
        w = np.linalg.eigvalsh(0.5 * (s0 + s0.T))
        if w[0] <= 0 or w[-1] / w[0] > 1e14:
            excluded += 1
            continue
        inv = np.linalg.solve(s0, np.eye(n))
        traces.append(float(np.trace(s0)))
        frobs.append(float(np.sum(inv * inv)))
    if not traces:
        raise RuntimeError("all realizations had singular moment matrices")
    traces = np.asarray(traces)
    frobs = np.asarray(frobs)
    n_ok = traces.size
    return BoundTerms(
        mean_trace_sigma0=float(traces.mean()),
        mean_frob_sq_inv_sigma0=float(frobs.mean()),
        se_trace=float(traces.std(ddof=1) / np.sqrt(n_ok)) if n_ok > 1 else float("nan"),
        se_frob=float(frobs.std(ddof=1) / np.sqrt(n_ok)) if n_ok > 1 else float("nan"),
        n_basis=n,
        n_realizations=n_ok,
        n_excluded=excluded,
    )


def koopman_error_bound(
    delta_hat: float, epsilon: float, T: int, terms: BoundTerms
) -> float:
    """High-probability Frobenius error bound for the least-squares estimate.

    ``sqrt(delta_hat) / (epsilon * sqrt(T)) * sqrt(mean_trace * mean_frob_sq_inv)``;
    exactly linear in ``1/epsilon``, ``sqrt(delta_hat)`` and ``1/sqrt(T)``.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if delta_hat < 0.0:
        raise ValueError("delta_hat must be nonnegative")
    if T <= sample_floor(terms.n_basis):
        raise SampleFloorError(
            f"T must exceed 2N+2 = {sample_floor(terms.n_basis)}; got {T}"
        )
    return float(
        np.sqrt(delta_hat)
        / (epsilon * np.sqrt(T))
        * np.sqrt(terms.mean_trace_sigma0 * terms.mean_frob_sq_inv_sigma0)
    )


def make_bound_report(
    epsilon: float,
    T: int,
    delta_hat: float,
    terms: BoundTerms,
    cond_lambda: float = 1.0,
) -> BoundReport:
    """Assemble the bound report; the transfer bound is the Koopman bound
    amplified by the Gram condition number."""
    kb = koopman_error_bound(delta_hat, epsilon, T, terms)
    return BoundReport(
        epsilon=float(epsilon),
        sample_count=int(T),
        n_basis=terms.n_basis,
        delta_hat=float(delta_hat),
        mean_trace_sigma0=terms.mean_trace_sigma0,
        mean_frob_sq_inv_sigma0=terms.mean_frob_sq_inv_sigma0,
        koopman_bound=kb,
        pf_bound=kb * float(cond_lambda),
        cond_lambda=float(cond_lambda),
        n_bound_realizations=terms.n_realizations,
    )
