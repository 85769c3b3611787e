"""Empirical moment accumulation and the least-squares operator estimate.

The estimator regresses lifted successors on lifted predecessors: with
``S0 = (1/T) sum_t Psi(x_t) Psi(x_t)^T`` and
``S1 = (1/T) sum_t Psi(x_t) Psi(y_t)^T`` the estimate solves ``S0 K = S1``
by a symmetric positive-definite factorization.  Moment sums are streamed
with compensated (Kahan) summation so that absorption order and partition
points do not move the result beyond roundoff.  A stack of R realizations
takes the path of one: :func:`add_moments` sums ``(R, m, N)`` lifted blocks
into ``(R, N, N)`` moments and :func:`estimate_stack` solves them, of which
:func:`estimate_koopman` is a stack of one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

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


def add_moments(sums: np.ndarray, psi_x: np.ndarray, psi_y: np.ndarray) -> None:
    """Add ``(m, N)`` lifted pairs to ``(4, N, N)`` Kahan sums (S0, its
    compensation, S1, its compensation), or ``(R, m, N)`` stacks to
    ``(4, R, N, N)`` sums: one matmul per moment either way."""
    xt = np.swapaxes(psi_x, -1, -2)
    _kahan_add(sums[0], sums[1], xt @ psi_x)
    _kahan_add(sums[2], sums[3], xt @ psi_y)


class MomentPair:
    """Streaming second-moment matrices of lifted sample pairs.

    Internally keeps compensated running sums; the exposed ``sigma0_hat`` and
    ``sigma1_hat`` are the sums renormalized by the current count.  The parts
    of a partition of the data, accumulated in sequence, agree with a single
    pass to roundoff.
    """

    def __init__(self, n_basis: int, names):
        if n_basis < 1:
            raise ValueError("n_basis must be positive")
        self.n_basis = n_basis
        self.names = tuple(names)
        self.count = 0
        self.seed = None  # provenance: seed of the first absorbed sample set
        self._sums = np.zeros((4, n_basis, n_basis))  # S0, comp0, S1, comp1

    @classmethod
    def empty(cls, dictionary: Dictionary) -> "MomentPair":
        return cls(dictionary.n_basis, dictionary.names)

    @property
    def sigma0_hat(self) -> np.ndarray:
        if self.count == 0:
            raise ValueError("no samples absorbed yet")
        return (self._sums[0] - self._sums[1]) / self.count

    @property
    def sigma1_hat(self) -> np.ndarray:
        if self.count == 0:
            raise ValueError("no samples absorbed yet")
        return (self._sums[2] - self._sums[3]) / self.count


def _lifted_pairs(dictionary: Dictionary, samples: SampleSet):
    """Yield the lifted ``(psi_x, psi_y)`` of ``BLOCK`` pairs at a time; a
    single trajectory lifts each block's m + 1 states once."""
    if samples.state_dim != dictionary.state_dim:
        raise ValueError("sample dimension does not match the dictionary")
    for start in range(0, samples.n_samples, BLOCK):
        stop = min(start + BLOCK, samples.n_samples)
        if samples.states is not None:
            psi = evaluate_many(dictionary, samples.states[start : stop + 1])
            yield psi[:-1], psi[1:]
        else:
            yield (evaluate_many(dictionary, samples.xs[start:stop]),
                   evaluate_many(dictionary, samples.ys[start:stop]))


def accumulate(
    moments: MomentPair, dictionary: Dictionary, samples: SampleSet
) -> MomentPair:
    """Absorb a sample set into the running moments (in place) and return them."""
    if moments.n_basis != dictionary.n_basis:
        raise ValueError("moment dimension does not match the dictionary")
    for psi_x, psi_y in _lifted_pairs(dictionary, samples):
        add_moments(moments._sums, psi_x, psi_y)
        moments.count += len(psi_x)
    if moments.seed is None:
        moments.seed = samples.seed
    return moments


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


def estimate_stack(sigma0, sigma1, count: int, names, seeds) -> list[OperatorEstimate]:
    """Least-squares Koopman estimates of ``(R, N, N)`` moment stacks of
    ``count`` samples each, ``seeds`` their provenance.

    One ``eigvalsh`` of the symmetrized S0 stack gives every condition.
    Each realization is factored and solved by LAPACK ``dpotrf``/``dpotrs``
    (what ``cho_factor``/``cho_solve`` call, so the bits are theirs); when
    its condition exceeds 1e12 or the factorization fails, it falls back to
    a minimum-norm least-squares pseudo-solution, flagged ``fallback``.
    """
    if not (np.isfinite(sigma0).all() and np.isfinite(sigma1).all()):
        raise ValueError("moment matrices contain non-finite entries")
    s0 = 0.5 * (sigma0 + np.swapaxes(sigma0, -1, -2))
    w = np.linalg.eigvalsh(s0)
    with np.errstate(divide="ignore", invalid="ignore"):
        conds = np.where(w[:, 0] > 0, w[:, -1] / w[:, 0], np.inf)
    out = []
    for a, b, cond, seed in zip(s0, sigma1, conds.tolist(), seeds):
        c, info = dpotrf(a, lower=0, clean=0) if cond <= CONDITION_FALLBACK else (None, 1)
        k_hat = dpotrs(c, b, lower=0)[0] if info == 0 else np.linalg.lstsq(a, b, rcond=None)[0]
        out.append(OperatorEstimate(k_hat, "koopman", names, count, seed, cond, info != 0))
    return out


def estimate_koopman(moments: MomentPair) -> OperatorEstimate:
    """Least-squares Koopman estimate from accumulated moments: solves
    ``sigma0_hat @ K = sigma1_hat`` as an :func:`estimate_stack` of one and
    warns when the estimate is a fallback.  Raises SampleFloorError at or
    below the 2N+2 floor, under which the error bound (and generically the
    normal equations) are ill-posed.
    """
    n = moments.n_basis
    if moments.count <= sample_floor(n):
        raise SampleFloorError(
            f"least-squares estimation requires more than 2N+2 = {sample_floor(n)} "
            f"samples for N = {n}; got {moments.count}"
        )
    (est,) = estimate_stack(moments.sigma0_hat[None], moments.sigma1_hat[None],
                            moments.count, moments.names, [moments.seed])
    if est.fallback:
        warnings.warn(
            f"moment matrix numerically singular (condition {est.condition_sigma0:.3e}); "
            "using a minimum-norm least-squares pseudo-solution",
            stacklevel=2,
        )
    return est


@dataclass(frozen=True)
class ResidualStats:
    """Per-sample lifting residuals and the noise-variance bound surrogate.

    ``delta_hat`` is the largest per-observable mean squared residual.  The
    residual means vanish by the normal equations whenever the constant
    observable is in the dictionary, so the mean square doubles as the
    sample variance.
    """

    delta_hat: float
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
    sq_sum = np.zeros(dictionary.n_basis)
    for psi_x, psi_y in _lifted_pairs(dictionary, samples):
        delta = psi_y - psi_x @ k_hat.matrix
        sq_sum += np.sum(delta * delta, axis=0)
    per_basis = sq_sum / samples.n_samples
    return ResidualStats(delta_hat=float(per_basis.max()), per_basis_variance=per_basis)


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
