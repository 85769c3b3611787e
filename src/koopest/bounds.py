"""Sample-complexity error bounds.

The estimator's expected Frobenius error is bounded by
``sqrt(Delta / T) * sqrt(E[tr S0] * E[|S0^-1|_F^2])`` where ``Delta`` bounds
the per-observable residual variance and ``S0`` is the empirical moment
matrix of T lifted samples; dividing by a confidence level ``epsilon``
turns it into a high-probability bound via Markov's inequality.  The two
expectation terms have no closed form for general systems, so they are
estimated by an auxiliary Monte Carlo over independent realizations and
reported with standard errors.  This module holds only the mathematics:
:func:`bound_terms` reduces the stack of the realizations' moment
matrices, which the harness fits (:func:`koopest.experiments.run_bound_calibration`,
which also checks that the violation rate stays below ``epsilon``).
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


def bound_terms(sigma0s) -> BoundTerms:
    """Estimate ``E[tr S0]`` and ``E[|S0^-1|_F^2]`` from independent realizations.

    ``sigma0s`` is the ``(R, N, N)`` stack of the moment matrices S0.  One
    ``eigvalsh`` of the symmetrized stack excludes and counts the singular
    ones (relative condition above 1e14; all-singular is an error), and one
    stacked solve against the identity gives each remaining S0's inverse.
    """
    s0 = np.asarray(sigma0s, dtype=float)
    if len(s0) < 2:
        raise ValueError("need at least two realizations for standard errors")
    n = s0.shape[-1]
    w = np.linalg.eigvalsh(0.5 * (s0 + np.swapaxes(s0, -1, -2)))
    with np.errstate(divide="ignore", invalid="ignore"):
        keep = (w[:, 0] > 0) & ~(w[:, -1] / w[:, 0] > 1e14)
    if not keep.any():
        raise RuntimeError("all realizations had singular moment matrices")
    s0 = s0[keep]
    inv = np.linalg.solve(s0, np.eye(n))
    traces = np.trace(s0, axis1=1, axis2=2)
    frobs = np.sum((inv * inv).reshape(len(s0), -1), axis=1)
    n_ok = traces.size
    return BoundTerms(
        mean_trace_sigma0=float(traces.mean()),
        mean_frob_sq_inv_sigma0=float(frobs.mean()),
        se_trace=float(traces.std(ddof=1) / np.sqrt(n_ok)) if n_ok > 1 else float("nan"),
        se_frob=float(frobs.std(ddof=1) / np.sqrt(n_ok)) if n_ok > 1 else float("nan"),
        n_basis=n,
        n_realizations=n_ok,
        n_excluded=len(keep) - n_ok,
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
    )
