"""Experiment harness: configs, seeded sweeps, calibration runs, CSV outputs.

A single YAML config describes the system, dictionary, domain, sample-count
grid and seeds.  Every run is a pure function of the config and its base
seed: per-task seeds are derived with a documented SplitMix64 chain, tasks
form an order-independent map, and reductions happen in a fixed order, so
output CSVs are byte-identical for any worker count.
"""

from __future__ import annotations

import math
import numbers
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields
from itertools import islice

import numpy as np
import yaml

from .basis import (
    DEFAULT_QUADRATURE_ORDER,
    Dictionary,
    Domain,
    evaluate_many,
    gram,
    make_monomial_dictionary,
)
from .bounds import VIOLATION_ATOL, BoundReport, bound_terms, koopman_error_bound
from .dynamics import (
    BLOCK,
    DEFAULT_DIVERGENCE_NORM,
    GAUSSIAN_IID,
    NO_NOISE,
    STATE_DIM,
    ClosedQuadraticParams,
    DivergenceError,
    NoiseModel,
    closed_quadratic_dictionary,
    closed_quadratic_koopman,
    make_closed_quadratic,
    make_vanderpol,
    simulate,
    trajectory_chunks,
)
from .estimator import (
    MomentPair,
    OperatorEstimate,
    accumulate,
    add_moments,
    closure_check,
    estimate_koopman,
    estimate_stack,
    residuals,
    sample_floor,
)
from .io import _write_rows, fmt, save_gram, save_operator, write_sidecar
from .pf import conjugate_stack, duality_check, koopman_to_pf
from .seeding import mix_seed

# Stream tags keep auxiliary seed streams (reference runs, bound terms, ...)
# disjoint from the per-realization streams, which use indices 0..R-1.
REFERENCE_STREAM = 2**33
TERMS_STREAM = 2**33 + 1
DELTA_STREAM = 2**33 + 2
SCORE_STREAM = 2**33 + 3
PF_STREAM = 2**33 + 4
DUALITY_STREAM = 2**33 + 5
CLOSURE_STREAM = 2**33 + 6

# Parameters of each system kind, (required, optional); both maps are planar.
_SYSTEM_PARAMS = {
    "closed-quadratic": ({"rho", "mu"}, {"c"}),
    "vanderpol": ({"dt"}, {"standard_vdp"}),
}

SLOPE_FLOOR = 1e-10  # mean errors at the solver floor carry no scaling signal
MAX_FAILED_FRACTION = 0.2


def derive_seed(base_seed: int, T: int, realization_index: int) -> int:
    """Deterministic 64-bit seed for one (sample count, realization) task.

    Computed as an iterated SplitMix64 chain over the three integers (see
    :func:`koopest.seeding.mix_seed`), giving independent, reproducible
    streams for every task regardless of scheduling.
    """
    return mix_seed(base_seed, T, realization_index)


def _is_number(value, kind) -> bool:
    """Whether ``value`` is an integer (``kind`` int) or a real number (float);
    a bool or a string is neither."""
    abc = numbers.Integral if kind is int else numbers.Real
    return isinstance(value, abc) and not isinstance(value, bool)


def _numbers(key: str, values, kind) -> tuple:
    """``kind`` of each entry; input it rejects raises ValueError naming the key."""
    what = "integers" if kind is int else "numbers"
    try:
        if all(_is_number(v, kind) for v in values):
            return tuple(kind(v) for v in values)
    except (TypeError, OverflowError):  # not a list, or an integer too large for a float
        pass
    raise ValueError(f"{key} must be a list of {what}, got {values!r}")


def _count(key: str, value, least: int) -> int:
    """``value`` as an int of at least ``least``; else ValueError naming the key."""
    if not _is_number(value, int) or value < least:
        raise ValueError(f"{key} must be an integer of at least {least}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; see the README for the YAML schema."""

    label: str
    system_kind: str  # "closed-quadratic" | "vanderpol"
    system_params: dict
    noise_kind: str  # "gaussian-iid" | "none"
    noise_std: tuple
    dictionary_kind: str  # "closed-quadratic" | "monomial"
    dict_state_dim: int | None
    dict_max_degree: int | None
    domain_lower: tuple
    domain_upper: tuple
    T_grid: tuple
    base_seed: int
    epsilon_list: tuple
    output_dir: str
    n_realizations: int = 50
    reference_T_factor: int = 100
    n_term_realizations: int = 50
    delta_hat_override: float | None = None
    divergence_threshold: float = DEFAULT_DIVERGENCE_NORM
    closure_n_states: int = 20
    closure_n_mc: int = 10000
    quadrature_order: int = DEFAULT_QUADRATURE_ORDER

    def __post_init__(self):
        for name, key, kind in (
            ("T_grid", "T_grid", int),
            ("noise_std", "system.noise.std", float),
            ("epsilon_list", "epsilon_list", float),
            ("domain_lower", "domain.lower", float),
            ("domain_upper", "domain.upper", float),
        ):
            object.__setattr__(self, name, _numbers(key, getattr(self, name), kind))
        if not _is_number(self.base_seed, int):
            raise ValueError(f"base_seed must be an integer, got {self.base_seed!r}")
        object.__setattr__(self, "base_seed", int(self.base_seed))
        # two term realizations and two closure draws give a standard error
        for key, least in (("n_realizations", 1), ("n_term_realizations", 2),
                           ("reference_T_factor", 1), ("closure_n_mc", 2),
                           ("quadrature_order", 1)):
            object.__setattr__(self, key, _count(key, getattr(self, key), least))
        if self.dictionary_kind == "monomial":
            # below STATE_DIM, Dictionary would reject the width without naming the key
            for name, key, least in (("dict_state_dim", "dictionary.state_dim", STATE_DIM),
                                     ("dict_max_degree", "dictionary.max_degree", 0)):
                object.__setattr__(self, name, _count(key, getattr(self, name), least))
        override = self.delta_hat_override
        if override is not None and (not _is_number(override, float)
                                     or not 0.0 <= override < math.inf):
            raise ValueError(
                f"delta_hat_override must be null or a finite number >= 0, got {override!r}"
            )
        limit = self.divergence_threshold
        if not _is_number(limit, float) or not limit > 0:
            raise ValueError(f"divergence_threshold must be a positive number, got {limit!r}")
        if not self.T_grid:
            raise ValueError("T_grid must not be empty")
        if list(self.T_grid) != sorted(set(self.T_grid)):
            raise ValueError("T_grid must be strictly ascending")
        for eps in self.epsilon_list:
            if not 0.0 < eps < 1.0:
                raise ValueError("epsilon values must lie in (0, 1)")
        if self.system_kind not in _SYSTEM_PARAMS:
            raise ValueError(f"unknown system.kind {self.system_kind!r}")
        required, optional = _SYSTEM_PARAMS[self.system_kind]
        keys = set(self.system_params)
        if required - keys:
            raise ValueError(f"missing key {min(required - keys)!r} in system.params")
        if keys - required - optional:
            raise ValueError(f"unknown key {min(keys - required - optional)!r} in system.params")
        if self.noise_kind not in (GAUSSIAN_IID, NO_NOISE):
            raise ValueError(f"unknown system.noise.kind {self.noise_kind!r}")
        if len(self.noise_std) not in (1, STATE_DIM):
            raise ValueError(f"system.noise.std needs 1 or {STATE_DIM} entries")
        build_system(self)
        dictionary = build_dictionary(self)
        dims = {"dictionary.state_dim": dictionary.state_dim, "domain": build_domain(self).dim}
        for key, dim in dims.items():
            if dim != STATE_DIM:
                raise ValueError(f"{key} gives dimension {dim}, the system has {STATE_DIM}")
        n = dictionary.n_basis
        # the closure regression fits N coefficients, one state per equation
        object.__setattr__(
            self, "closure_n_states", _count("closure_n_states", self.closure_n_states, n)
        )
        floor = sample_floor(n)
        if self.T_grid[0] <= floor:
            raise ValueError(
                f"every T in T_grid must exceed 2N+2 = {floor} for N = {n}"
            )


def build_domain(config: ExperimentConfig) -> Domain:
    return Domain(np.array(config.domain_lower), np.array(config.domain_upper))


def build_dictionary(config: ExperimentConfig) -> Dictionary:
    if config.dictionary_kind == "closed-quadratic":
        return closed_quadratic_dictionary()
    if config.dictionary_kind == "monomial":
        return make_monomial_dictionary(config.dict_state_dim, config.dict_max_degree)
    raise ValueError(f"unknown dictionary kind {config.dictionary_kind!r}")


def _system_params(config: ExperimentConfig) -> dict:
    """``system.params`` as keyword arguments of the system's constructor."""
    params = {}
    for key, value in config.system_params.items():
        if key == "standard_vdp":
            if not isinstance(value, bool):
                raise ValueError(f"system.params.standard_vdp must be true or false, got {value!r}")
            params[key] = value
        elif _is_number(value, float):
            params[key] = float(value)
        else:
            raise ValueError(f"system.params.{key} must be a number, got {value!r}")
    return params


def build_system(config: ExperimentConfig):
    """The configured system; a value it rejects raises ValueError naming the key."""
    try:
        if config.noise_kind == NO_NOISE:
            noise = NoiseModel.none(STATE_DIM)
        else:
            noise = NoiseModel.gaussian(np.array(config.noise_std), dim=STATE_DIM)
    except ValueError as err:
        raise ValueError(f"system.noise.std: {err}") from None
    params = _system_params(config)
    try:
        if config.system_kind == "closed-quadratic":
            return make_closed_quadratic(ClosedQuadraticParams(**params), noise=noise)
        return make_vanderpol(noise=noise, **params)
    except ValueError as err:
        # each constructor's message begins with the parameter's name, its key
        raise ValueError(f"system.params.{err}") from None


def has_true_koopman(config: ExperimentConfig) -> bool:
    """Ground truth exists only for the closed system/dictionary pairing."""
    return (
        config.system_kind == "closed-quadratic"
        and config.dictionary_kind == "closed-quadratic"
    )


def true_koopman(config: ExperimentConfig) -> np.ndarray:
    if not has_true_koopman(config):
        raise ValueError("no ground-truth operator for this configuration")
    var = 0.0 if config.noise_kind == NO_NOISE else config.noise_std[0] ** 2
    return closed_quadratic_koopman(ClosedQuadraticParams(**_system_params(config)), var)


# Keys a config may hold, per section; anything else is rejected by name.
_OPTIONAL_KEYS = tuple(f.name for f in fields(ExperimentConfig) if f.default is not MISSING)
_KNOWN_KEYS = {
    "config": {"label", "system", "dictionary", "domain", "T_grid", "base_seed",
               "epsilon_list", "output_dir", *_OPTIONAL_KEYS},
    "system": {"kind", "params", "noise"},
    "system.noise": {"kind", "std"},
    "dictionary": {"kind", "state_dim", "max_degree"},
    "domain": {"lower", "upper"},
}


def config_from_dict(data: dict, **overrides) -> ExperimentConfig:
    """Build a config from nested mapping data (the YAML layout).

    Raises ValueError naming the key for any key the layout does not know.
    """
    system = data.get("system", {})
    noise = system.get("noise", {})
    dictionary = data.get("dictionary", {})
    domain = data.get("domain", {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]})
    sections = {"config": data, "system": system, "system.noise": noise,
                "dictionary": dictionary, "domain": domain}
    for where, mapping in sections.items():
        unknown = sorted(set(mapping) - _KNOWN_KEYS[where])
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r} in {where}")
    kind = system.get("kind", "closed-quadratic")
    std = noise.get("std", [0.01, 0.01] if kind == "vanderpol" else [1.0, 1.0])
    flat = dict(
        label=data.get("label", kind),
        system_kind=kind,
        system_params=dict(system.get("params", {})),
        noise_kind=noise.get("kind", "gaussian-iid"),
        noise_std=std if isinstance(std, (list, tuple)) else [std],  # a scalar std serves both axes
        dictionary_kind=dictionary.get("kind", "monomial"),
        dict_state_dim=dictionary.get("state_dim"),
        dict_max_degree=dictionary.get("max_degree"),
        domain_lower=domain["lower"],
        domain_upper=domain["upper"],
        T_grid=data["T_grid"],
        base_seed=data["base_seed"],
        epsilon_list=data.get("epsilon_list", [0.1, 0.25, 0.5]),
        output_dir=data.get("output_dir", "out"),
    )
    flat.update({key: data[key] for key in _OPTIONAL_KEYS if key in data})
    flat.update(overrides)
    return ExperimentConfig(**flat)


def load_config(path: str, **overrides) -> ExperimentConfig:
    with open(path) as fh:
        data = yaml.safe_load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path} does not contain a mapping")
    return config_from_dict(data, **overrides)


def fit_loglog_slope(T_values, errors) -> tuple[float, float]:
    """Least-squares slope of log(error) against log(T), with its standard error.

    The standard error is NaN with fewer than three points; an exact power
    law ``c * T^p`` recovers p to roundoff.
    """
    x = np.log(np.asarray(T_values, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two (T, error) points")
    xm = x - x.mean()
    sxx = float(np.sum(xm * xm))
    if sxx == 0.0:
        raise ValueError("T values must not all be equal")
    slope = float(np.sum(xm * y) / sxx)
    n = x.size
    if n <= 2:
        return slope, float("nan")
    resid = y - (y.mean() + slope * xm)
    sigma2 = float(np.sum(resid * resid) / (n - 2))
    return slope, float(np.sqrt(sigma2 / sxx))


@dataclass(frozen=True)
class ErrorCurve:
    """Aggregated error-versus-sample-count sweep results."""

    label: str
    T_values: tuple
    mean_rel_err: tuple
    std_err: tuple
    n_ok: tuple
    n_failed: tuple
    invalid: tuple
    fitted_slope: float
    slope_stderr: float
    reference: dict = field(default_factory=dict)

    @property
    def any_invalid(self) -> bool:
        return any(self.invalid)


def _ordered_map(fn, tasks, workers: int):
    """``[fn(*task) for task in tasks]``, spread over ``workers`` processes."""
    if workers <= 1 or len(tasks) <= 1:
        return [fn(*t) for t in tasks]
    chunk = max(1, len(tasks) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*tasks), chunksize=chunk))


@dataclass(frozen=True)
class Realization:
    """How one trajectory -> moments -> estimate run ended.

    ``status`` is "ok" or the failure cause: "diverged" (with its
    DivergenceError in ``error``), "floor" or "singular" (a flagged
    fallback estimate, which is kept).
    ``sigma0`` is the raw moment matrix S0 whenever the trajectory was
    completed, whatever the estimate's fate.
    """

    status: str
    estimate: OperatorEstimate | None
    sigma0: np.ndarray | None = None
    error: DivergenceError | None = None


def fit_realizations(
    config: ExperimentConfig, T: int, seeds, estimate: bool = True
) -> list[Realization]:
    """Fit one realization per seed, their trajectories stepped in lockstep.

    Each seed streams T steps from a uniform initial state into its own
    moments, which equal ``accumulate(simulate(...))`` of that seed bit for
    bit, so ``simulate`` regenerates needed samples and no result depends on
    which seeds share a call.  The block's moments are ``(R, N, N)`` stacks,
    fitted by one ``estimate_stack``.  A diverged trajectory leaves the block
    and the others keep stepping.  With ``estimate`` False a realization
    stops at S0 ("ok" or "diverged"); otherwise K_hat is fitted and the
    outcome classified.
    """
    system = build_system(config)
    dictionary = build_dictionary(config)
    n = dictionary.n_basis
    sums = np.zeros((4, len(seeds), n, n))  # S0, comp0, S1, comp1 of every seed
    errors = {}
    for paths, index, failed in trajectory_chunks(
        system, None, T, seeds, config.divergence_threshold, build_domain(config)
    ):
        errors.update(failed)
        # each trajectory's m + 1 states of the block, all lifted in one call
        psi = evaluate_many(dictionary, paths.reshape(-1, STATE_DIM)).reshape(*paths.shape[:2], n)
        part = sums[:, index]
        add_moments(part, psi[:, :-1], psi[:, 1:])
        sums[:, index] = part
    sigma0, sigma1 = (sums[0::2] - sums[1::2]) / T
    live = [k for k in range(len(seeds)) if k not in errors]
    status = "floor" if estimate and T <= sample_floor(n) else "ok"
    estimates = [None] * len(live)
    if estimate and live and status == "ok":
        estimates = estimate_stack(sigma0[live], sigma1[live], T, dictionary.names,
                                   [int(seeds[k]) for k in live])
    fits = {k: Realization("diverged", None, error=err) for k, err in errors.items()}
    for k, est in zip(live, estimates):
        fits[k] = Realization("singular" if est and est.fallback else status, est, sigma0[k])
    return [fits[k] for k in range(len(seeds))]


# Below lockstep_min_seeds(T) seeds per task, stepping them one at a time as
# Python floats beats stepping them together as arrays: a block shares its
# per-call costs but steps arrays, so the crossover grows with T.  Median time
# of one block of R seeds over R one-seed fits (closed-quadratic, N = 4), R at
# the rule: T = 20: R = 3 0.54; 50: 4 0.55; 200: 6 0.74; 500: 8-10 0.78-0.72;
# 1,000: 12 0.80 (11 0.99); 2,000 and 4,096: 16 0.87 and 0.92.  The cap keeps
# every T > 4,096 (at most BLOCK // T < 16 seeds a task) fitted alone.
LOCKSTEP_MIN_SEEDS = 16


def lockstep_min_seeds(T: int) -> int:
    """The fewest seeds per task that a lockstep block fits faster than alone."""
    return min(LOCKSTEP_MIN_SEEDS, math.isqrt(T) // 3 + 2)


def _seed_blocks(seeds, T: int, workers: int) -> list:
    """One T's seeds split into pool tasks of equal size.

    A task holds at most ``BLOCK`` state rows at once, so its memory stays at
    one fit's block, and there are at least ``workers`` tasks.  Below
    ``lockstep_min_seeds(T)`` seeds per task each seed is fitted alone.
    """
    tasks = max(workers, -(-len(seeds) // (BLOCK // min(T, BLOCK))))
    size = -(-len(seeds) // tasks)
    if size < lockstep_min_seeds(T):
        size = 1
    return [seeds[i : i + size] for i in range(0, len(seeds), size)]


def _fit_groups(config: ExperimentConfig, groups, workers: int) -> list[list[Realization]]:
    """Fit ``(T, seeds, estimate)`` groups in seed blocks over one parallel map;
    returns each group's realizations in seed order."""
    tasks, counts = [], []
    for T, seeds, estimate in groups:
        blocks = _seed_blocks(seeds, T, workers)
        tasks += [(config, T, block, estimate) for block in blocks]
        counts.append(len(blocks))
    fits = iter(_ordered_map(fit_realizations, tasks, workers))
    return [[fit for block in islice(fits, count) for fit in block] for count in counts]


def _reference_koopman(config: ExperimentConfig):
    """The analytic operator, or one high-T fit."""
    if has_true_koopman(config):
        return true_koopman(config), {"kind": "analytic"}
    t_ref = config.reference_T_factor * max(config.T_grid)
    seed = derive_seed(config.base_seed, t_ref, REFERENCE_STREAM)
    (fit,) = fit_realizations(config, t_ref, [seed])
    if fit.estimate is None:
        raise RuntimeError(f"the reference fit at T={t_ref} failed: {fit.status}")
    if fit.status == "singular":
        warnings.warn(f"the reference fit at T={t_ref} is singular; using its fallback")
    return fit.estimate.matrix, {"kind": "high-T estimate", "T_ref": t_ref, "seed": seed}


def run_sweep(config: ExperimentConfig, workers: int = 1) -> ErrorCurve:
    """Error-versus-T sweep with realization averaging and slope fitting.

    For every T in the grid and every realization a fresh trajectory is
    simulated with seed ``derive_seed(base_seed, T, r)`` and the estimate's
    relative Frobenius error against the reference operator is recorded.
    Writes ``sweep.csv`` (aggregates), ``sweep_points.csv`` (per realization)
    and ``sweep.meta.json`` into the config's output directory.  A T point
    whose failure fraction exceeds 20% is flagged invalid in the metadata.
    """
    ref, ref_info = _reference_koopman(config)
    seeds = [
        [derive_seed(config.base_seed, T, r) for r in range(config.n_realizations)]
        for T in config.T_grid
    ]
    fits = _fit_groups(config, [(T, s, True) for T, s in zip(config.T_grid, seeds)], workers)
    denom = np.linalg.norm(ref, "fro")
    results = []  # (T, realization, seed, status, relative error)
    for T, group_seeds, group in zip(config.T_grid, seeds, fits):
        for r, (seed, fit) in enumerate(zip(group_seeds, group)):
            rel = float("nan")
            if fit.status == "ok":
                rel = float(np.linalg.norm(fit.estimate.matrix - ref, "fro") / denom)
            results.append((T, r, seed, fit.status, rel))

    means, ses, n_oks, n_faileds, invalids = [], [], [], [], []
    for T in config.T_grid:
        errs = [rel for (t, _, _, status, rel) in results if t == T and status == "ok"]
        n_ok = len(errs)
        n_oks.append(n_ok)
        n_faileds.append(config.n_realizations - n_ok)
        means.append(float(np.mean(errs)) if n_ok else float("nan"))
        ses.append(float(np.std(errs, ddof=1) / math.sqrt(n_ok)) if n_ok > 1 else float("nan"))
        invalids.append(n_faileds[-1] > MAX_FAILED_FRACTION * config.n_realizations)

    usable = [
        (t, m)
        for t, m, bad in zip(config.T_grid, means, invalids)
        if not bad and np.isfinite(m) and m > SLOPE_FLOOR
    ]
    if len(usable) >= 2:
        slope, slope_se = fit_loglog_slope(*zip(*usable))
    else:
        slope, slope_se = float("nan"), float("nan")

    curve = ErrorCurve(
        label=config.label,
        T_values=tuple(config.T_grid),
        mean_rel_err=tuple(means),
        std_err=tuple(ses),
        n_ok=tuple(n_oks),
        n_failed=tuple(n_faileds),
        invalid=tuple(invalids),
        fitted_slope=slope,
        slope_stderr=slope_se,
        reference=ref_info,
    )
    _write_sweep_outputs(config, curve, results)
    return curve


def _write_sweep_outputs(config, curve, results):
    out = config.output_dir
    _write_rows(
        os.path.join(out, "sweep.csv"),
        ["label", "T", "n_ok", "n_failed", "mean_rel_err", "std_err"],
        [
            [config.label, T, n_ok, n_failed, fmt(mean), fmt(se)]
            for T, n_ok, n_failed, mean, se in zip(
                curve.T_values, curve.n_ok, curve.n_failed, curve.mean_rel_err, curve.std_err
            )
        ],
    )
    _write_rows(
        os.path.join(out, "sweep_points.csv"),
        ["label", "T", "realization", "seed", "status", "rel_err"],
        [[config.label, T, r, seed, status, fmt(rel)] for T, r, seed, status, rel in results],
    )
    write_sidecar(
        os.path.join(out, "sweep.meta.json"),
        {
            "config": asdict(config),
            "reference": curve.reference,
            "fitted_slope": None if math.isnan(curve.fitted_slope) else curve.fitted_slope,
            "slope_stderr": None if math.isnan(curve.slope_stderr) else curve.slope_stderr,
            "invalid_T": [int(t) for t, bad in zip(curve.T_values, curve.invalid) if bad],
            "error_metric": "mean over realizations of |K_hat - K_ref|_F / |K_ref|_F",
            "initial_conditions": "uniform on the domain, one draw per realization",
            "seed_derivation": "splitmix64 chain over (base_seed, T, realization)",
        },
    )


def run_bound_calibration(config: ExperimentConfig, workers: int = 1) -> list[BoundReport]:
    """Evaluate the error bound and its empirical violation rate on a grid.

    Fits, for the whole grid in one parallel map, ``n_realizations`` scored
    estimates and ``n_term_realizations`` realizations for the bound's
    expectation terms per T.  Then for each T: reduces the term
    realizations' moment matrices, fits the residual-variance surrogate on
    one trajectory simulated once (unless the config overrides it), and
    scores the estimates against the bound for every epsilon.  Returns and
    writes one ``bounds.csv`` row per (T, epsilon).  Needs a ground-truth
    operator.
    """
    if not has_true_koopman(config):
        raise ValueError("bound calibration needs a ground-truth operator")
    system = build_system(config)
    dictionary = build_dictionary(config)
    domain = build_domain(config)
    ref = true_koopman(config)
    cond_lambda = gram(dictionary, domain).cond

    n, n_terms = config.n_realizations, config.n_term_realizations
    # the term realizations only need S0: they stop before the estimate
    groups = [
        (T, [mix_seed(base, r) for r in range(count)], stream == SCORE_STREAM)
        for T in config.T_grid
        for stream, count in ((SCORE_STREAM, n), (TERMS_STREAM, n_terms))
        for base in (derive_seed(config.base_seed, T, stream),)
    ]
    fits = _fit_groups(config, groups, workers)

    reports = []
    for i, T in enumerate(config.T_grid):
        scored, term_fits = fits[2 * i], fits[2 * i + 1]
        for fit in term_fits:
            if fit.sigma0 is None:
                raise RuntimeError(f"a bound-term realization at T={T} failed: {fit.status}")
        terms = bound_terms([fit.sigma0 for fit in term_fits])
        if config.delta_hat_override is not None:
            delta_hat = float(config.delta_hat_override)
        else:
            seed = derive_seed(config.base_seed, T, DELTA_STREAM)
            try:
                samples = simulate(system, None, T, seed, config.divergence_threshold, domain)
            except DivergenceError as err:
                raise RuntimeError(f"the delta_hat fit at T={T} failed: {err}") from err
            est = estimate_koopman(accumulate(MomentPair.empty(dictionary), dictionary, samples))
            delta_hat = residuals(dictionary, samples, est).delta_hat
        errors = np.array(
            [
                float(np.linalg.norm(fit.estimate.matrix - ref, "fro"))
                for fit in scored
                if fit.status == "ok"
            ]
        )
        if errors.size == 0:
            raise RuntimeError(f"no realization produced an estimate at T={T}")
        for eps in config.epsilon_list:
            bound = koopman_error_bound(delta_hat, eps, T, terms)
            n_viol = int(np.sum(errors > bound + VIOLATION_ATOL))
            reports.append(BoundReport(eps, T, delta_hat, terms, bound, bound * cond_lambda,
                                       cond_lambda, errors.size, n_viol, n - errors.size))

    out = config.output_dir
    _write_rows(
        os.path.join(out, "bounds.csv"),
        ["label", "T", "epsilon", "delta_hat", "mean_trace_sigma0", "mean_frob_sq_inv_sigma0",
         "koopman_bound", "pf_bound", "violation_rate"],
        [
            [config.label, r.sample_count]
            + [fmt(v) for v in (r.epsilon, r.delta_hat, r.terms.mean_trace_sigma0,
                                r.terms.mean_frob_sq_inv_sigma0, r.koopman_bound,
                                r.pf_bound, r.violation_rate)]
            for r in reports
        ],
    )
    write_sidecar(
        os.path.join(out, "bounds.meta.json"),
        {
            "config": asdict(config),
            "cond_lambda": cond_lambda,
            "delta_hat_source": "override"
            if config.delta_hat_override is not None
            else "max per-observable mean squared residual of one fitted run per T",
        },
    )
    return reports


def run_pf_pipeline(config: ExperimentConfig, workers: int = 1):
    """Estimate the Koopman matrix, conjugate it into the transfer matrix,
    verify the duality identity, and (when ground truth exists) check the
    deterministic error-transfer inequality realization by realization.

    Persists the transfer matrix with its sidecar, the Gram matrix, and a
    one-row ``pf_report.csv``.  Returns (PFEstimate, report dict).
    """
    lam = gram(build_dictionary(config), build_domain(config))
    T = max(config.T_grid)
    (fit,) = fit_realizations(config, T, [derive_seed(config.base_seed, T, PF_STREAM)])
    if fit.estimate is None:
        raise RuntimeError(f"the transfer-matrix fit at T={T} failed: {fit.status}")
    est = fit.estimate
    p_hat = koopman_to_pf(est, lam)
    defect = duality_check(
        est.matrix,
        p_hat.matrix,
        lam,
        n_trials=1000,
        seed=derive_seed(config.base_seed, T, DUALITY_STREAM),
    )

    transfer_ok = transfer_total = 0
    if has_true_koopman(config):
        # |P_hat - P|_F <= cond(Lambda) |K_hat - K|_F for every realization
        ref = true_koopman(config)
        p_ref = koopman_to_pf(ref, lam).matrix
        seed_base = derive_seed(config.base_seed, T, SCORE_STREAM)
        seeds = [mix_seed(seed_base, r) for r in range(config.n_realizations)]
        (fits,) = _fit_groups(config, [(T, seeds, True)], workers)
        k_hats = [fit.estimate.matrix for fit in fits if fit.status == "ok"]
        transfer_total = len(k_hats)
        transfer_ok = sum(
            1
            for k, p in zip(k_hats, conjugate_stack(k_hats, lam))
            if np.linalg.norm(p - p_ref, "fro") <= lam.cond * np.linalg.norm(k - ref, "fro")
        )

    report = {
        "label": config.label,
        "T": T,
        "duality_defect": defect,
        "cond_lambda": lam.cond,
        "transfer_ok": transfer_ok,
        "transfer_total": transfer_total,
        "fallback": est.fallback,
    }
    out = config.output_dir
    save_operator(p_hat, os.path.join(out, "pf_matrix.csv"))
    save_operator(est, os.path.join(out, "koopman_matrix.csv"))
    save_gram(lam, os.path.join(out, "gram.csv"))
    _write_rows(
        os.path.join(out, "pf_report.csv"),
        ["label", "T", "duality_defect", "cond_lambda", "transfer_ok", "transfer_total"],
        [[config.label, T, fmt(defect), fmt(lam.cond), transfer_ok, transfer_total]],
    )
    return p_hat, report


def run_closure(config: ExperimentConfig) -> np.ndarray:
    """Closure diagnostics for the configured dictionary and system; writes
    one ``closure.csv`` row per observable."""
    system = build_system(config)
    dictionary = build_dictionary(config)
    domain = build_domain(config)
    defects = closure_check(
        dictionary,
        system,
        config.closure_n_states,
        config.closure_n_mc,
        derive_seed(config.base_seed, 0, CLOSURE_STREAM),
        domain=domain,
    )
    _write_rows(
        os.path.join(config.output_dir, "closure.csv"),
        ["basis", "defect"],
        [[name, fmt(d)] for name, d in zip(dictionary.names, defects)],
    )
    return defects
