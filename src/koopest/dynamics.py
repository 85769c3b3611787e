"""Random dynamical systems ``x_{t+1} = T(x_t) + xi_t`` and sample generation.

Ships the two benchmark systems used throughout:

* a closed quadratic map whose lifted dynamics on the dictionary
  ``[1, x1, x2, x1^2]`` are exactly linear, so the ground-truth Koopman
  matrix is known in closed form, and
* an Euler-discretized Van der Pol oscillator, whose lifted dynamics on
  degree-two monomials are not closed.

Trajectories are bit-reproducible functions of (system, x0, steps, seed).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .basis import Dictionary, Domain, dictionary_from_exponents, evaluate, evaluate_many
from .seeding import make_rng

GAUSSIAN_IID = "gaussian-iid"
NO_NOISE = "none"

DEFAULT_DIVERGENCE_NORM = 1e6
# Rows per block, both for drawing trajectory noise and for lifting samples
# into moments and residuals.  One constant, so a fit streamed from
# trajectory_chunks forms the same block sums as accumulate / residuals over
# the simulated samples and the two agree bit for bit.
BLOCK = 65536


class DivergenceError(RuntimeError):
    """A simulated state left the finite / bounded region."""

    def __init__(self, step: int, norm: float, threshold: float):
        self.step = step
        self.norm = norm
        self.threshold = threshold
        super().__init__(
            f"trajectory diverged at step {step}: state norm {norm:.3e} "
            f"exceeds threshold {threshold:.3e} (or is non-finite)"
        )


@dataclass(frozen=True)
class NoiseModel:
    """Additive iid noise, drawn independently across time steps and coordinates."""

    kind: str  # "gaussian-iid" | "none"
    std_dev: np.ndarray

    def __post_init__(self):
        if self.kind not in (GAUSSIAN_IID, NO_NOISE):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        sd = np.atleast_1d(np.asarray(self.std_dev, dtype=float))
        if (sd < 0).any() or not np.isfinite(sd).all():
            raise ValueError("std_dev entries must be finite and nonnegative")
        object.__setattr__(self, "std_dev", sd)

    @classmethod
    def gaussian(cls, std_dev, dim: int | None = None) -> "NoiseModel":
        sd = np.atleast_1d(np.asarray(std_dev, dtype=float))
        if dim is not None and sd.size == 1:
            sd = np.full(dim, float(sd[0]))
        return cls(GAUSSIAN_IID, sd)

    @classmethod
    def none(cls, dim: int) -> "NoiseModel":
        return cls(NO_NOISE, np.zeros(dim))

    @property
    def dim(self) -> int:
        return self.std_dev.size

    @property
    def has_density(self) -> bool:
        return self.kind == GAUSSIAN_IID and bool((self.std_dev > 0).all())

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """m iid noise vectors, shape (m, dim).  Consumes no randomness if silent."""
        if self.kind == NO_NOISE:
            return np.zeros((m, self.dim))
        return rng.normal(0.0, 1.0, size=(m, self.dim)) * self.std_dev

    def density(self, v) -> np.ndarray:
        """Product-Gaussian probability density evaluated at rows of v."""
        if not self.has_density:
            raise ValueError("noise model has no density (kind 'none' or zero std)")
        v = np.atleast_2d(np.asarray(v, dtype=float))
        z = v / self.std_dev
        norm = (2.0 * np.pi) ** (self.dim / 2.0) * float(np.prod(self.std_dev))
        return np.exp(-0.5 * np.sum(z * z, axis=1)) / norm


@dataclass(frozen=True)
class StochasticSystem:
    """State-transition law ``x+ = transition(x) + noise``.

    ``transition`` must be vectorized over the leading axis: it maps arrays
    of shape ``(n,)`` or ``(m, n)`` to the same shape.  Systems are immutable
    and safe to share across workers.
    """

    state_dim: int
    transition: object
    noise: NoiseModel
    label: str = ""

    def __post_init__(self):
        if self.noise.dim != self.state_dim:
            raise ValueError("noise dimension must match state_dim")

    def step(self, x, rng: np.random.Generator | None = None) -> np.ndarray:
        """One transition; with no rng (or silent noise) this is exactly T(x)."""
        x = np.asarray(x, dtype=float)
        out = np.asarray(self.transition(x), dtype=float)
        if self.noise.kind == NO_NOISE or rng is None:
            return out
        return out + self.noise.draw(rng, 1)[0]


@dataclass(frozen=True)
class ClosedQuadraticParams:
    """Parameters of the closed quadratic benchmark map.

    ``x1+ = rho*x1 + xi1``, ``x2+ = mu*x2 + (rho^2 - mu)*c*x1^2 + xi2``.
    Contraction needs |rho| < 1 and |mu| < 1; larger magnitudes are accepted
    with a warning since trajectories may then diverge.
    """

    rho: float
    mu: float
    c: float = 1.0

    def __post_init__(self):
        for name in ("rho", "mu", "c"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.c <= 0:
            raise ValueError("c must be positive")
        if abs(self.rho) >= 1 or abs(self.mu) >= 1:
            warnings.warn(
                "closed quadratic map with |rho| >= 1 or |mu| >= 1 may diverge",
                stacklevel=2,
            )


def make_closed_quadratic(
    params: ClosedQuadraticParams, noise: NoiseModel | None = None
) -> StochasticSystem:
    """Closed quadratic benchmark; default noise is unit-variance Gaussian."""
    rho, mu, c = params.rho, params.mu, params.c
    a = (rho * rho - mu) * c

    def transition(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:  # scalar fast path for the step-by-step simulator
            x1, x2 = float(x[0]), float(x[1])
            return np.array([rho * x1, mu * x2 + a * x1 * x1])
        x1, x2 = x[..., 0], x[..., 1]
        return np.stack([rho * x1, mu * x2 + a * x1 * x1], axis=-1)

    if noise is None:
        noise = NoiseModel.gaussian(1.0, dim=2)
    return StochasticSystem(2, transition, noise, label="closed-quadratic")


def closed_quadratic_dictionary() -> Dictionary:
    """The four observables ``[1, x1, x2, x1^2]`` that close the benchmark map."""
    return dictionary_from_exponents([[0, 0], [1, 0], [0, 1], [2, 0]])


def closed_quadratic_koopman(
    params: ClosedQuadraticParams, noise_variance: float = 1.0
) -> np.ndarray:
    """Ground-truth Koopman matrix of the closed quadratic map.

    Column k holds the coordinates of the propagated observable psi_k in the
    dictionary ``[1, x1, x2, x1^2]``; the only noise contribution is
    ``E[(rho*x1 + xi)^2] = rho^2*x1^2 + Var(xi)``, which puts the noise
    variance of the first coordinate in the (1, 4) entry.
    """
    if noise_variance < 0:
        raise ValueError("noise_variance must be nonnegative")
    rho, mu, c = params.rho, params.mu, params.c
    k = np.zeros((4, 4))
    k[0, 0] = 1.0
    k[0, 3] = noise_variance
    k[1, 1] = rho
    k[2, 2] = mu
    k[3, 2] = (rho * rho - mu) * c
    k[3, 3] = rho * rho
    return k


def make_vanderpol(
    dt: float, noise: NoiseModel | None = None, standard_vdp: bool = False
) -> StochasticSystem:
    """Euler-discretized Van der Pol oscillator with additive noise.

    The default drift is ``x1+ = x1 + dt*x2``,
    ``x2+ = x2 + dt*((1 - x1^2)*x1 - x1)``; setting ``standard_vdp`` swaps in
    the textbook damping field ``(1 - x1^2)*x2 - x1``.  Default noise is
    Gaussian with standard deviation 0.01 per coordinate, comparable to the
    dt-scale drift.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")

    def transition(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x1, x2 = float(x[0]), float(x[1])
        else:
            x1, x2 = x[..., 0], x[..., 1]
        damped = x2 if standard_vdp else x1
        drift = [x1 + dt * x2, x2 + dt * ((1.0 - x1 * x1) * damped - x1)]
        return np.array(drift) if x.ndim == 1 else np.stack(drift, axis=-1)

    if noise is None:
        noise = NoiseModel.gaussian(0.01, dim=2)
    label = "vanderpol-standard" if standard_vdp else "vanderpol"
    return StochasticSystem(2, transition, noise, label=label)


@dataclass(frozen=True)
class SampleSet:
    """Paired predecessor/successor states (x_t, y_t) used for estimation."""

    xs: np.ndarray
    ys: np.ndarray
    source: str  # "single-trajectory" | "independent-pairs"
    seed: int

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 2 or xs.shape != ys.shape:
            raise ValueError("xs and ys must be 2-D arrays of identical shape")
        if xs.shape[0] < 1:
            raise ValueError("sample set must contain at least one pair")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("sample set entries must be finite")
        if self.source not in ("single-trajectory", "independent-pairs"):
            raise ValueError(f"unknown sample source {self.source!r}")
        if self.source == "single-trajectory" and xs.shape[0] > 1:
            if not np.array_equal(xs[1:], ys[:-1]):
                raise ValueError(
                    "single-trajectory samples must chain: ys[t] == xs[t+1]"
                )
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def n_samples(self) -> int:
        return self.xs.shape[0]

    @property
    def state_dim(self) -> int:
        return self.xs.shape[1]


def trajectory_chunks(
    system: StochasticSystem,
    x0,
    steps: int,
    seed: int,
    max_norm: float = DEFAULT_DIVERGENCE_NORM,
    domain: Domain | None = None,
):
    """Yield (xs, ys) blocks of a single trajectory without materializing it.

    Identical arguments produce the identical trajectory as :func:`simulate`
    (blocks hold ``BLOCK`` rows, so the noise stream does not depend on how
    they are consumed).  Pass ``x0=None`` with a domain to draw the initial
    state uniformly from the same seed stream.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    rng = make_rng(seed)
    if x0 is None:
        if domain is None:
            raise ValueError("either x0 or domain must be given")
        x0 = domain.sample(rng)
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (system.state_dim,) or not np.isfinite(x).all():
        raise ValueError("x0 must be a finite state of the system's dimension")
    n = system.state_dim
    transition = system.transition
    done = 0
    while done < steps:
        m = min(BLOCK, steps - done)
        noise = system.noise.draw(rng, m)
        xs = np.empty((m, n))
        ys = np.empty((m, n))
        for i in range(m):
            xs[i] = x
            x = transition(x) + noise[i]
            ys[i] = x
        norms = np.linalg.norm(ys, axis=1)
        bad = ~np.isfinite(norms) | (norms > max_norm)
        if bad.any():
            i = int(np.argmax(bad))
            raise DivergenceError(done + i, float(norms[i]), max_norm)
        yield xs, ys
        done += m


def simulate(
    system: StochasticSystem,
    x0,
    steps: int,
    seed: int,
    max_norm: float = DEFAULT_DIVERGENCE_NORM,
    domain: Domain | None = None,
) -> SampleSet:
    """Simulate one trajectory and return its consecutive (x_t, x_{t+1}) pairs.

    Parameters
    ----------
    x0 :
        Initial state.  Pass None together with ``domain`` to draw it
        uniformly from the domain (using the same seed stream).
    steps :
        Number of transition pairs to generate.
    seed :
        64-bit seed; identical seeds give bit-identical sample sets.
    max_norm :
        Divergence threshold on the state 2-norm; exceeding it (or any
        non-finite state) raises DivergenceError with the step index.
    """
    xs_parts, ys_parts = [], []
    for xs, ys in trajectory_chunks(system, x0, steps, seed, max_norm, domain):
        xs_parts.append(xs)
        ys_parts.append(ys)
    return SampleSet(
        np.concatenate(xs_parts), np.concatenate(ys_parts), "single-trajectory", int(seed)
    )


def step_pairs(system: StochasticSystem, xs, seed: int) -> SampleSet:
    """One noisy transition from each given state: independent (x, y) pairs."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != system.state_dim:
        raise ValueError("xs must have shape (m, state_dim)")
    rng = make_rng(seed)
    ys = np.asarray(system.transition(xs), dtype=float) + system.noise.draw(
        rng, xs.shape[0]
    )
    return SampleSet(xs, ys, "independent-pairs", int(seed))


def koopman_apply_mc(
    system: StochasticSystem,
    dictionary: Dictionary,
    coeffs,
    x,
    n_mc: int,
    seed: int,
    return_stderr: bool = False,
):
    """Monte Carlo estimate of the propagated observable ``E_xi[phi(T(x)+xi)]``.

    ``phi`` is the dictionary combination with the given coefficients.  For a
    silent noise model the expectation is degenerate and the exact value
    ``phi(T(x))`` is returned for any n_mc.  This estimator is the
    independent oracle used by closure diagnostics and ground-truth matrix
    checks.

    With ``return_stderr`` the (value, standard error) pair is returned; the
    standard error is NaN when fewer than two draws are used.
    """
    if n_mc < 1:
        raise ValueError("n_mc must be positive")
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (dictionary.n_basis,):
        raise ValueError("coeffs must have length n_basis")
    x = np.asarray(x, dtype=float)
    tx = np.asarray(system.transition(x), dtype=float)
    if system.noise.kind == NO_NOISE:
        val = float(evaluate(dictionary, tx) @ coeffs)
        return (val, 0.0) if return_stderr else val
    rng = make_rng(seed)
    ys = tx[None, :] + system.noise.draw(rng, n_mc)
    vals = evaluate_many(dictionary, ys) @ coeffs
    mean = float(np.mean(vals))
    if not return_stderr:
        return mean
    sem = float(np.std(vals, ddof=1) / np.sqrt(n_mc)) if n_mc > 1 else float("nan")
    return mean, sem
