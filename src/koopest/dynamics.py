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
from dataclasses import dataclass, field

import numpy as np

from .basis import Dictionary, Domain, evaluate, evaluate_many
from .seeding import make_rng

GAUSSIAN_IID = "gaussian-iid"
NO_NOISE = "none"

STATE_DIM = 2  # every system is planar: the simulator steps two named coordinates

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

    def __reduce__(self):  # rebuilt from its fields when it crosses a process pool
        return DivergenceError, (self.step, self.norm, self.threshold)


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
    """State-transition law ``x+ = T(x) + noise`` on the plane.

    ``drift(x1, x2) -> (y1, y2)`` is the map T written once, in plain
    arithmetic on its two coordinates, so the same function steps Python
    floats (the simulator), ``(R,)`` arrays of lockstep trajectories and
    arrays of states (``transition``, the noiseless T(x); :func:`step_pairs`
    adds the noise).  It must multiply rather than use ``**``, which raises
    on float overflow.  ``state_dim`` must be ``STATE_DIM`` (2).  Systems are
    immutable and safe to share across workers.
    """

    state_dim: int
    drift: object
    noise: NoiseModel
    label: str = ""

    def __post_init__(self):
        if self.state_dim != STATE_DIM:
            raise ValueError(
                f"state_dim must be {STATE_DIM} (systems are planar), got {self.state_dim!r}"
            )
        if self.noise.dim != self.state_dim:
            raise ValueError("noise dimension must match state_dim")

    def transition(self, x) -> np.ndarray:
        """T applied to one state ``(n,)`` or to each row of ``(m, n)``."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.state_dim:
            n = self.state_dim
            raise ValueError(f"state must have shape ({n},) or (m, {n}), got {x.shape}")
        return np.stack(self.drift(*x.T), axis=-1)


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
                stacklevel=3,  # past the generated __init__, at the caller
            )


def make_closed_quadratic(
    params: ClosedQuadraticParams, noise: NoiseModel | None = None
) -> StochasticSystem:
    """Closed quadratic benchmark; default noise is unit-variance Gaussian."""
    rho, mu, c = params.rho, params.mu, params.c
    a = (rho * rho - mu) * c

    def drift(x1, x2):
        return rho * x1, mu * x2 + a * x1 * x1

    if noise is None:
        noise = NoiseModel.gaussian(1.0, dim=STATE_DIM)
    return StochasticSystem(STATE_DIM, drift, noise, label="closed-quadratic")


def closed_quadratic_dictionary() -> Dictionary:
    """The four observables ``[1, x1, x2, x1^2]`` that close the benchmark map."""
    return Dictionary([[0, 0], [1, 0], [0, 1], [2, 0]])


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
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt!r}")

    def drift(x1, x2):
        damped = x2 if standard_vdp else x1
        return x1 + dt * x2, x2 + dt * ((1.0 - x1 * x1) * damped - x1)

    if noise is None:
        noise = NoiseModel.gaussian(0.01, dim=STATE_DIM)
    label = "vanderpol-standard" if standard_vdp else "vanderpol"
    return StochasticSystem(STATE_DIM, drift, noise, label=label)


@dataclass(frozen=True)
class SampleSet:
    """Paired predecessor/successor states (x_t, y_t) used for estimation.

    A ``"single-trajectory"`` set is its T + 1 states x_0..x_T, held once in
    the contiguous ``states`` array; ``xs`` and ``ys`` are its views
    ``states[:-1]`` and ``states[1:]``, so they chain bit for bit.  An
    ``"independent-pairs"`` set keeps ``xs`` and ``ys`` apart and has
    ``states = None``.
    """

    xs: np.ndarray
    ys: np.ndarray
    source: str  # "single-trajectory" | "independent-pairs"
    seed: int
    states: np.ndarray | None = field(init=False, repr=False, compare=False)

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
        states = None
        if self.source == "single-trajectory":
            # bits, not values: 0.0 == -0.0, but a lift or a CSV tells them apart
            unchained = (xs[1:].view(np.uint64) != ys[:-1].view(np.uint64)).any(axis=1)
            if unchained.any():
                t = int(np.argmax(unchained))
                raise ValueError(
                    "single-trajectory samples must chain bit for bit: "
                    f"ys[{t}] differs from xs[{t + 1}]"
                )
            states = np.concatenate([xs[:1], ys])
            xs, ys = states[:-1], states[1:]
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "states", states)

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
    seeds,
    max_norm: float = DEFAULT_DIVERGENCE_NORM,
    domain: Domain | None = None,
):
    """Step one trajectory per seed in lockstep; yield their states block by block.

    Each item is ``(paths, index, failed)``.  ``paths`` has shape
    ``(len(index), m + 1, 2)``: the m + 1 states of this block of each
    trajectory still running, ``index`` holding their positions in ``seeds``
    (a block's last state is the next block's first).  ``failed`` maps the
    position of each trajectory that left the bounded region in this block
    to its DivergenceError; it steps no further.  Every trajectory draws its
    initial state (``x0=None``, uniform on ``domain``) and its noise from its
    own seed stream, ``BLOCK`` rows at a time, so its states do not depend on
    the other seeds: identical arguments give :func:`simulate`'s trajectory.
    Each step calls the planar ``drift(x1, x2)`` once and adds the noise to
    each coordinate; the states are collected per coordinate in two lists,
    and each block's ``paths`` is built from them once.  One seed steps
    Python floats, several step ``(R,)`` arrays through the same loop; both
    are the same IEEE operations in the same order.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    rngs = [make_rng(seed) for seed in seeds]
    if x0 is None:
        if domain is None:
            raise ValueError("either x0 or domain must be given")
        starts = [domain.sample(rng) for rng in rngs]
    else:
        starts = [x0] * len(rngs)
    x = np.array(starts, dtype=float)
    if x.shape != (len(rngs), STATE_DIM) or not np.isfinite(x).all():
        raise ValueError("x0 must be a finite state of the system's dimension")
    lockstep = len(rngs) > 1
    x1, x2 = x.T.copy() if lockstep else x[0].tolist()
    index = np.arange(len(rngs))
    drift = system.drift
    done = 0
    while done < steps and index.size:
        m = min(BLOCK, steps - done)
        noise = [system.noise.draw(rngs[k], m) for k in index]
        # per coordinate, the m noise values of every trajectory: (R,) rows
        # of an array, or for one trajectory a list of Python floats
        columns = np.stack(noise, axis=-1).transpose(1, 0, 2) if lockstep else noise[0].T.tolist()
        out1, out2 = [x1], [x2]
        append1, append2 = out1.append, out2.append
        # arrays and norms overflow to inf as Python floats do, without a
        # warning; the norm check catches it
        with np.errstate(over="ignore", invalid="ignore"):
            for w1, w2 in zip(*columns):
                y1, y2 = drift(x1, x2)
                x1 = y1 + w1
                x2 = y2 + w2
                append1(x1)
                append2(x2)
            path = np.stack([np.array(out1), np.array(out2)], axis=1)
            paths = path.transpose(2, 0, 1) if lockstep else path[None]
            norms = np.linalg.norm(paths[:, 1:], axis=-1)
        bad = ~np.isfinite(norms) | (norms > max_norm)
        failed = {}
        for r in np.flatnonzero(bad.any(axis=1)):
            i = int(np.argmax(bad[r]))
            failed[int(index[r])] = DivergenceError(done + i, float(norms[r, i]), max_norm)
        if failed:
            keep = ~bad.any(axis=1)
            index, paths = index[keep], paths[keep]
            if lockstep:
                x1, x2 = x1[keep], x2[keep]
        yield paths, index, failed
        done += m


def simulate(
    system: StochasticSystem,
    x0,
    steps: int,
    seed: int,
    max_norm: float = DEFAULT_DIVERGENCE_NORM,
    domain: Domain | None = None,
) -> SampleSet:
    """Simulate one trajectory and return its consecutive (x_t, x_{t+1}) pairs,
    a single-trajectory SampleSet over its ``steps + 1`` states.

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
    blocks = []
    for paths, _, failed in trajectory_chunks(system, x0, steps, [seed], max_norm, domain):
        if failed:
            raise failed[0]
        blocks.append(paths[0, :-1])
    blocks.append(paths[0, -1:])  # a block's last state opens the next block
    states = np.concatenate(blocks)
    return SampleSet(states[:-1], states[1:], "single-trajectory", int(seed))


def step_pairs(system: StochasticSystem, xs, seed: int) -> SampleSet:
    """One noisy transition from each given state: independent (x, y) pairs."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != system.state_dim:
        raise ValueError("xs must have shape (m, state_dim)")
    rng = make_rng(seed)
    ys = system.transition(xs) + system.noise.draw(rng, xs.shape[0])
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
    tx = system.transition(x)
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
