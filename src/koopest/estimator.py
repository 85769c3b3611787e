"""Empirical moment accumulation and the least-squares operator estimate.

The estimator regresses lifted successors on lifted predecessors: with
``S0 = (1/T) sum_t Psi(x_t) Psi(x_t)^T`` and
``S1 = (1/T) sum_t Psi(x_t) Psi(y_t)^T`` the estimate solves ``S0 K = S1``
by a symmetric positive-definite factorization.  Moment sums are streamed
with compensated (Kahan) summation so that absorption order and partition
points do not move the result beyond roundoff.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .basis import Dictionary, Domain, evaluate_many, unit_box
from .dynamics import BLOCK, SampleSet, StochasticSystem, koopman_apply_mc
from .seeding import make_rng, mix_seed

CONDITION_FALLBACK = 1e12


class SampleFloorError(ValueError):
    """Sample count at or below the 2N+2 floor required by the error bound."""


def sample_floor(n_basis: int) -> int:
    """Estimation requires strictly more samples than this (2N + 2)."""
    return 2 * n_basis + 2


def _kahan_add(total: np.ndarray, comp: np.ndarray, block: np.ndarray) -> None:
    y = block - comp
    t = total + y
    comp[...] = (t - total) - y
    total[...] = t


class MomentPair:
    """Streaming second-moment matrices of lifted sample pairs.

    Internally keeps compensated running sums; the exposed ``sigma0_hat`` and
    ``sigma1_hat`` are the sums renormalized by the current count.  Partial
    accumulations over a partition of the data can be combined with
    :func:`merge_moments` and agree with a single pass to roundoff.
    """

    def __init__(self, n_basis: int, names=None):
        if n_basis < 1:
            raise ValueError("n_basis must be positive")
        self.n_basis = n_basis
        self.names = tuple(names) if names is not None else None
        self.count = 0
        self.seed = None  # provenance: seed of the first absorbed sample set
        self._sum0 = np.zeros((n_basis, n_basis))
        self._comp0 = np.zeros((n_basis, n_basis))
        self._sum1 = np.zeros((n_basis, n_basis))
        self._comp1 = np.zeros((n_basis, n_basis))

    @classmethod
    def empty(cls, dictionary: Dictionary) -> "MomentPair":
        return cls(dictionary.n_basis, names=dictionary.names)

    @property
    def sigma0_hat(self) -> np.ndarray:
        if self.count == 0:
            raise ValueError("no samples absorbed yet")
        return (self._sum0 - self._comp0) / self.count

    @property
    def sigma1_hat(self) -> np.ndarray:
        if self.count == 0:
            raise ValueError("no samples absorbed yet")
        return (self._sum1 - self._comp1) / self.count

    def absorb_lifted(self, psi_x: np.ndarray, psi_y: np.ndarray) -> None:
        """Add one block of lifted pairs to the running sums."""
        if psi_x.shape != psi_y.shape or psi_x.shape[1] != self.n_basis:
            raise ValueError("lifted blocks must have shape (m, n_basis)")
        _kahan_add(self._sum0, self._comp0, psi_x.T @ psi_x)
        _kahan_add(self._sum1, self._comp1, psi_x.T @ psi_y)
        self.count += psi_x.shape[0]

    def copy(self) -> "MomentPair":
        out = MomentPair(self.n_basis, names=self.names)
        out.count = self.count
        out.seed = self.seed
        out._sum0 = self._sum0.copy()
        out._comp0 = self._comp0.copy()
        out._sum1 = self._sum1.copy()
        out._comp1 = self._comp1.copy()
        return out


def accumulate(
    moments: MomentPair, dictionary: Dictionary, samples: SampleSet
) -> MomentPair:
    """Absorb a sample set into the running moments (in place) and return them."""
    if samples.state_dim != dictionary.state_dim:
        raise ValueError("sample dimension does not match the dictionary")
    if moments.n_basis != dictionary.n_basis:
        raise ValueError("moment dimension does not match the dictionary")
    if moments.names is None:
        moments.names = dictionary.names
    if moments.seed is None:
        moments.seed = samples.seed
    for start in range(0, samples.n_samples, BLOCK):
        stop = min(start + BLOCK, samples.n_samples)
        psi_x = evaluate_many(dictionary, samples.xs[start:stop])
        psi_y = evaluate_many(dictionary, samples.ys[start:stop])
        moments.absorb_lifted(psi_x, psi_y)
    return moments


def merge_moments(a: MomentPair, b: MomentPair) -> MomentPair:
    """Combine two partial accumulations; equals absorbing their union."""
    if a.n_basis != b.n_basis:
        raise ValueError("moment pairs have different dimensions")
    out = a.copy()
    _kahan_add(out._sum0, out._comp0, b._sum0 - b._comp0)
    _kahan_add(out._sum1, out._comp1, b._sum1 - b._comp1)
    out.count += b.count
    if out.names is None:
        out.names = b.names
    if out.seed is None:
        out.seed = b.seed
    return out


@dataclass(frozen=True)
class OperatorEstimate:
    """A finite-dimensional operator matrix with provenance metadata."""

    matrix: np.ndarray
    operator_kind: str  # "koopman" | "perron-frobenius"
    dict_names: tuple
    sample_count: int
    seed: int | None
    condition_sigma0: float
    fallback: bool = False

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator matrix must be square")
        if not np.isfinite(m).all():
            raise ValueError("operator matrix entries must be finite")
        if self.sample_count <= sample_floor(m.shape[0]):
            raise SampleFloorError(
                f"operator estimate needs more than 2N+2 = {sample_floor(m.shape[0])} "
                f"samples; got {self.sample_count}"
            )
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dict_names", tuple(self.dict_names))

    @property
    def n_basis(self) -> int:
        return self.matrix.shape[0]


def estimate_koopman(moments: MomentPair) -> OperatorEstimate:
    """Least-squares Koopman estimate from accumulated moments.

    Solves ``sigma0_hat @ K = sigma1_hat`` through a Cholesky factorization;
    when the moment matrix is numerically singular (relative condition above
    1e12, or a failed factorization) it falls back to a minimum-norm
    least-squares pseudo-solution and flags the estimate with a warning.

    Raises
    ------
    SampleFloorError
        If the absorbed count is at or below the 2N+2 floor under which the
        error bound (and generically the normal equations) are ill-posed.
    """
    n = moments.n_basis
    if moments.count <= sample_floor(n):
        raise SampleFloorError(
            f"least-squares estimation requires more than 2N+2 = {sample_floor(n)} "
            f"samples for N = {n}; got {moments.count}"
        )
    s0 = moments.sigma0_hat
    s1 = moments.sigma1_hat
    if not (np.isfinite(s0).all() and np.isfinite(s1).all()):
        raise ValueError("moment matrices contain non-finite entries")
    s0 = 0.5 * (s0 + s0.T)
    w = np.linalg.eigvalsh(s0)
    cond = float(w[-1] / w[0]) if w[0] > 0 else float("inf")
    fallback = not (np.isfinite(cond) and cond <= CONDITION_FALLBACK)
    k_hat = None
    if not fallback:
        try:
            c, low = scipy.linalg.cho_factor(s0)
            k_hat = scipy.linalg.cho_solve((c, low), s1)
        except np.linalg.LinAlgError:
            fallback = True
    if fallback:
        warnings.warn(
            f"moment matrix numerically singular (condition {cond:.3e}); "
            "using a minimum-norm least-squares pseudo-solution",
            stacklevel=2,
        )
        k_hat = np.linalg.lstsq(s0, s1, rcond=None)[0]
    return OperatorEstimate(
        matrix=k_hat,
        operator_kind="koopman",
        dict_names=moments.names if moments.names is not None else tuple(f"psi{i+1}" for i in range(n)),
        sample_count=moments.count,
        seed=moments.seed,
        condition_sigma0=cond,
        fallback=fallback,
    )


@dataclass(frozen=True)
class ResidualStats:
    """Per-sample lifting residuals and the noise-variance bound surrogate.

    ``delta_hat`` is the largest per-observable mean squared residual.  The
    residual means vanish by the normal equations whenever the constant
    observable is in the dictionary, so the mean square doubles as the
    sample variance.
    """

    delta_hat: float
    residual_matrix: np.ndarray
    per_basis_variance: np.ndarray

    def __post_init__(self):
        if (np.asarray(self.per_basis_variance) < 0).any():
            raise ValueError("per-basis variances must be nonnegative")


def residuals(
    dictionary: Dictionary, samples: SampleSet, k_hat: OperatorEstimate
) -> ResidualStats:
    """Residuals ``delta_t = Psi(y_t) - K_hat^T Psi(x_t)`` and their statistics."""
    if k_hat.n_basis != dictionary.n_basis:
        raise ValueError("operator size does not match the dictionary")
    if samples.state_dim != dictionary.state_dim:
        raise ValueError("sample dimension does not match the dictionary")
    n = dictionary.n_basis
    t_total = samples.n_samples
    r_sum = np.zeros((n, n))
    sq_sum = np.zeros(n)
    for start in range(0, t_total, BLOCK):
        stop = min(start + BLOCK, t_total)
        psi_x = evaluate_many(dictionary, samples.xs[start:stop])
        psi_y = evaluate_many(dictionary, samples.ys[start:stop])
        delta = psi_y - psi_x @ k_hat.matrix
        r_sum += psi_x.T @ delta
        sq_sum += np.sum(delta * delta, axis=0)
    per_basis = sq_sum / t_total
    return ResidualStats(
        delta_hat=float(per_basis.max()),
        residual_matrix=r_sum / t_total,
        per_basis_variance=per_basis,
    )


def closure_check(
    dictionary: Dictionary,
    system: StochasticSystem,
    n_states: int,
    n_mc: int,
    seed: int,
    domain: Domain | None = None,
    return_floor: bool = False,
):
    """Per-observable closure defects of the dictionary under the dynamics.

    For each observable, Monte Carlo values of its propagation
    ``E_xi[psi_k(T(x)+xi)]`` at random states are regressed onto the span of
    the dictionary; the reported defect is the relative out-of-span residual
    norm.  Defects at the Monte Carlo noise floor indicate the lifted
    dynamics are closed on this dictionary; strictly positive defects beyond
    it indicate closure failure.

    With ``return_floor`` also returns the per-observable noise floor, the
    aggregated Monte Carlo standard error relative to the propagated values
    (an upper scale for the defect of a perfectly closed observable; zero
    for silent noise, where the propagation is exact).
    """
    if n_states < dictionary.n_basis:
        raise ValueError("n_states should be at least the number of observables")
    if domain is None:
        domain = unit_box(dictionary.state_dim)
    rng = make_rng(mix_seed(seed, 0x57A7E5))
    states = domain.sample(rng, n_states)
    design = evaluate_many(dictionary, states)
    n = dictionary.n_basis
    defects = np.empty(n)
    floors = np.empty(n)
    for k in range(n):
        e_k = np.zeros(n)
        e_k[k] = 1.0
        vals = [
            koopman_apply_mc(
                system,
                dictionary,
                e_k,
                states[i],
                n_mc,
                mix_seed(seed, i, k),
                return_stderr=True,
            )
            for i in range(n_states)
        ]
        u = np.array([v for v, _ in vals])
        ses = np.array([s for _, s in vals])
        coef = np.linalg.lstsq(design, u, rcond=None)[0]
        resid = u - design @ coef
        denom = np.linalg.norm(u)
        if denom > 0:
            defects[k] = float(np.linalg.norm(resid) / denom)
            floors[k] = float(np.sqrt(np.sum(ses**2)) / denom)
        else:
            defects[k] = 0.0
            floors[k] = 0.0
    if return_floor:
        return defects, floors
    return defects
