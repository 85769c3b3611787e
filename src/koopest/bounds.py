"""Sample-complexity error bounds.

The estimator's expected Frobenius error is bounded by
``sqrt(Delta / T) * sqrt(E[tr S0] * E[|S0^-1|_F^2])`` where ``Delta`` bounds
the per-observable residual variance and ``S0`` is the empirical moment
matrix of T lifted samples; dividing by a confidence level ``epsilon``
turns it into a high-probability bound via Markov's inequality.  The two
expectation terms have no closed form for general systems, so they are
estimated by an auxiliary Monte Carlo over independent realizations and
reported with standard errors.  This module holds only the mathematics:
:func:`bound_terms` reduces the S0 stack it is given and classifies none.
The harness passes the S0 of the fits its score keeps, those the estimator
calls usable (:func:`koopest.experiments.run_bound_calibration`, which
also checks that the violation rate stays below ``epsilon``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import SampleFloorError, sample_floor

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


@dataclass(frozen=True)
class BoundReport:
    """One ``bounds.csv`` row: the bounds at (T, epsilon) and how often the
    realized errors exceeded the Koopman bound.

    ``koopman_bound`` is :func:`koopman_error_bound` of ``delta_hat``,
    ``epsilon``, ``sample_count`` and ``terms``; the transfer bound
    ``pf_bound`` is it amplified by the Gram condition number ``cond_lambda``.
    ``n_realizations`` counts the scored estimates, ``n_failed`` the
    realizations that produced none.
    """

    epsilon: float
    sample_count: int
    delta_hat: float
    terms: BoundTerms
    koopman_bound: float
    pf_bound: float
    cond_lambda: float
    n_realizations: int
    n_violations: int
    n_failed: int

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.n_realizations < 1:
            raise ValueError("need at least one realization")
        if self.pf_bound < self.koopman_bound:
            raise ValueError("transfer-operator bound cannot undercut the Koopman bound")

    @property
    def violation_rate(self) -> float:
        return self.n_violations / self.n_realizations


def bound_terms(sigma0s) -> BoundTerms:
    """Estimate ``E[tr S0]`` and ``E[|S0^-1|_F^2]`` from independent realizations.

    ``sigma0s`` is an ``(R, N, N)`` stack of usable moment matrices S0,
    R >= 2: their traces, and one stacked solve against the identity.
    """
    s0 = np.asarray(sigma0s, dtype=float)
    if len(s0) < 2:
        raise ValueError("need at least two realizations for standard errors")
    n = s0.shape[-1]
    inv = np.linalg.solve(s0, np.eye(n))
    traces = np.trace(s0, axis1=1, axis2=2)
    frobs = np.sum((inv * inv).reshape(len(s0), -1), axis=1)
    return BoundTerms(
        mean_trace_sigma0=float(traces.mean()),
        mean_frob_sq_inv_sigma0=float(frobs.mean()),
        se_trace=float(traces.std(ddof=1) / np.sqrt(len(s0))),
        se_frob=float(frobs.std(ddof=1) / np.sqrt(len(s0))),
        n_basis=n,
        n_realizations=len(s0),
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
    if not delta_hat >= 0.0:
        raise ValueError(f"delta_hat must be nonnegative, got {delta_hat!r}")
    if T <= sample_floor(terms.n_basis):
        raise SampleFloorError(
            f"T must exceed 2N+2 = {sample_floor(terms.n_basis)}; got {T}"
        )
    return float(
        np.sqrt(delta_hat)
        / (epsilon * np.sqrt(T))
        * np.sqrt(terms.mean_trace_sigma0 * terms.mean_frob_sq_inv_sigma0)
    )

