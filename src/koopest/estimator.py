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
    """A least-squares Koopman matrix with provenance metadata, built from
    one row of :func:`estimate_stack`'s output."""

    matrix: np.ndarray
    dict_names: tuple
    sample_count: int
    seed: int | None
    condition_sigma0: float
    fallback: bool = False

    @property
    def n_basis(self) -> int:
        return self.matrix.shape[0]


def estimate_stack(sigma0, sigma1, count: int):
    """Least-squares Koopman estimates of ``(R, N, N)`` moment stacks of
    ``count`` samples each: the ``(K_hat (R, N, N), cond (R,), fallback (R,))``
    stacks.  At or below the 2N+2 sample floor raises SampleFloorError.

    One ``eigvalsh`` of the symmetrized S0 stack gives every condition.
    Each realization is factored and solved by LAPACK ``dpotrf``/``dpotrs``
    (what ``cho_factor``/``cho_solve`` call, so the bits are theirs); when
    its condition exceeds 1e12 or the factorization fails, it falls back to
    a minimum-norm least-squares pseudo-solution, flagged ``fallback``.
    """
    from scipy.linalg.lapack import dpotrf, dpotrs  # loaded at the first solve, not at import
    n = sigma0.shape[-1]
    if count <= sample_floor(n):
        raise SampleFloorError(
            f"least-squares estimation requires more than 2N+2 = {sample_floor(n)} "
            f"samples for N = {n}; got {count}"
        )
    if not (np.isfinite(sigma0).all() and np.isfinite(sigma1).all()):
        raise ValueError("moment matrices contain non-finite entries")
    s0 = 0.5 * (sigma0 + np.swapaxes(sigma0, -1, -2))
    w = np.linalg.eigvalsh(s0)
    with np.errstate(divide="ignore", invalid="ignore"):
        conds = np.where(w[:, 0] > 0, w[:, -1] / w[:, 0], np.inf)
    k_hat = np.empty_like(s0)
    fallback = np.zeros(len(s0), dtype=bool)
    for r, (a, b, cond) in enumerate(zip(s0, sigma1, conds.tolist())):
        c, info = dpotrf(a, lower=0, clean=0) if cond <= CONDITION_FALLBACK else (None, 1)
        k_hat[r] = dpotrs(c, b, lower=0)[0] if info == 0 else np.linalg.lstsq(a, b, rcond=None)[0]
        fallback[r] = info != 0
    if not np.isfinite(k_hat).all():
        raise ValueError("operator matrix entries must be finite")
    return k_hat, conds, fallback


def estimate_koopman(moments: MomentPair) -> OperatorEstimate:
    """Least-squares Koopman estimate from accumulated moments: solves
    ``sigma0_hat @ K = sigma1_hat`` as an :func:`estimate_stack` of one and
    warns when the estimate is a fallback.  At or below the 2N+2 floor it
    raises SampleFloorError.
    """
    (k_hat,), (cond,), (fallback,) = estimate_stack(
        moments.sigma0_hat[None], moments.sigma1_hat[None], moments.count
    )
    est = OperatorEstimate(k_hat, moments.names, moments.count, moments.seed,
                           float(cond), bool(fallback))
    if est.fallback:
        warnings.warn(
            f"moment matrix numerically singular (condition {est.condition_sigma0:.3e}); "
            "using a minimum-norm least-squares pseudo-solution",
            stacklevel=2,
        )
    return est


def residuals(dictionary: Dictionary, samples: SampleSet, kmat: np.ndarray) -> np.ndarray:
    """Per-observable mean squared residuals ``delta_t = Psi(y_t) - K^T Psi(x_t)``
    of the ``(N, N)`` Koopman matrix ``kmat``, shape ``(N,)``; their maximum
    is the noise-variance bound surrogate Delta-hat.

    The residual means vanish by the normal equations whenever the constant
    observable is in the dictionary, so each mean square is also the
    observable's residual variance.
    """
    if np.shape(kmat) != (dictionary.n_basis,) * 2:
        raise ValueError("operator size does not match the dictionary")
    sq_sum = np.zeros(dictionary.n_basis)
    for psi_x, psi_y in _lifted_pairs(dictionary, samples):
        delta = psi_y - psi_x @ kmat
        sq_sum += np.sum(delta * delta, axis=0)
    return sq_sum / samples.n_samples


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

    Observable k is propagated through its one-row dictionary, so each draw
    lifts only the column it keeps, bit-equal to column k of the full lift.
    """
    if n_states < dictionary.n_basis:
        raise ValueError("n_states should be at least the number of observables")
    if domain is None:
        domain = unit_box(dictionary.state_dim)
    rng = make_rng(mix_seed(seed, 0x57A7E5))
    states = domain.sample(rng, n_states)
    design = evaluate_many(dictionary, states)
    defects = np.zeros(dictionary.n_basis)
    floors = np.zeros(dictionary.n_basis)
    for k in range(dictionary.n_basis):
        psi_k = Dictionary(dictionary.exponents[k : k + 1])
        u, ses = np.array([
            koopman_apply_mc(system, psi_k, [1.0], x, n_mc, mix_seed(seed, i, k))
            for i, x in enumerate(states)
        ]).T
        denom = np.linalg.norm(u)
        if denom > 0:
            resid = u - design @ np.linalg.lstsq(design, u, rcond=None)[0]
            defects[k] = float(np.linalg.norm(resid) / denom)
            floors[k] = float(np.sqrt(np.sum(ses**2)) / denom)
    if return_floor:
        return defects, floors
    return defects
