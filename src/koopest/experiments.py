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
from dataclasses import asdict, dataclass, field, fields
from itertools import islice
from typing import NamedTuple

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
    ClosedQuadraticParams,
    NoiseModel,
    closed_quadratic_dictionary,
    closed_quadratic_koopman,
    make_closed_quadratic,
    make_vanderpol,
    simulate,
    trajectory_chunks,
)
from .estimator import (
    OperatorEstimate,
    add_moments,
    closure_check,
    estimate_stack,
    residuals,
    sample_floor,
)
from .io import _write_rows, fmt, save_gram, save_operator, write_sidecar
from .pf import conjugate_stack, duality_check, koopman_to_pf
from .seeding import mix_seed

# Stream tags keep auxiliary seed streams (the reference run, the bounds' fit
# set, ...) disjoint from the sweep's streams, which use indices 0..R-1.
REFERENCE_STREAM = 2**33
SCORE_STREAM = 2**33 + 3
PF_STREAM = 2**33 + 4
CLOSURE_STREAM = 2**33 + 6

# An open system's sweep reference is one fit this many times the largest T.
REFERENCE_T_FACTOR = 100
SLOPE_FLOOR = 1e-10  # mean errors at the solver floor carry no scaling signal
MAX_FAILED_FRACTION = 0.2


def derive_seed(base_seed: int, T: int, realization_index: int) -> int:
    """Deterministic 64-bit seed for one (sample count, realization) task.

    Computed as an iterated SplitMix64 chain over the three integers (see
    :func:`koopest.seeding.mix_seed`), giving independent, reproducible
    streams for every task regardless of scheduling.
    """
    return mix_seed(base_seed, T, realization_index)


def _stream_seeds(config: ExperimentConfig, T: int, stream: int, count: int) -> list[int]:
    """``mix_seed(derive_seed(base_seed, T, stream), r)`` for r < count: with
    ``SCORE_STREAM``, the seeds of ``bounds``' one fit set per T, whose first
    ``n_realizations`` ``pf`` refits at the largest T."""
    base = derive_seed(config.base_seed, T, stream)
    return [mix_seed(base, r) for r in range(count)]


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


def _real(key: str, value, positive: bool = False) -> float:
    """``value`` as a float, positive if asked; else ValueError naming the key."""
    try:
        if _is_number(value, float) and (not positive or value > 0):
            return float(value)
    except OverflowError:  # an integer too large for a float
        pass
    raise ValueError(f"{key} must be a {'positive ' if positive else ''}number, got {value!r}")


def _count(key: str, value, least: int) -> int:
    """``value`` as an int of at least ``least``; else ValueError naming the key."""
    if not _is_number(value, int) or value < least:
        raise ValueError(f"{key} must be an integer of at least {least}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description, laid out as its YAML (see the README).

    The fields are the config's top-level keys.  ``system``, ``dictionary``
    and ``domain`` are the YAML sections as :func:`config_from_dict` fills
    in their defaults.  :func:`config_from_dict` checks which keys each
    section holds and which kinds it names; here every value is checked and
    normalized once (``system.params`` and each number as the type a run
    uses, each list a tuple), so ``asdict`` of a config, the block the run
    sidecars record, loads back to an equal config.
    """

    label: str
    system: dict  # kind, params, noise: {kind, std}
    dictionary: dict  # kind; a monomial one also state_dim and max_degree
    domain: dict  # lower, upper
    T_grid: tuple
    base_seed: int
    epsilon_list: tuple = (0.1, 0.25, 0.5)
    output_dir: str = "out"
    n_realizations: int = 50
    n_term_realizations: int = 50
    divergence_threshold: float = DEFAULT_DIVERGENCE_NORM
    closure_n_states: int | None = None  # max(20, N) when absent
    closure_n_mc: int = 10000
    quadrature_order: int = DEFAULT_QUADRATURE_ORDER

    def __post_init__(self):
        system, noise, dictionary = self.system, self.system["noise"], dict(self.dictionary)
        for key, kind in (("T_grid", int), ("epsilon_list", float)):
            object.__setattr__(self, key, _numbers(key, getattr(self, key), kind))
            if not getattr(self, key):
                raise ValueError(f"{key} must not be empty")
        std = _numbers("system.noise.std", noise["std"], float)
        domain = {key: _numbers(f"domain.{key}", self.domain[key], float)
                  for key in ("lower", "upper")}
        if not isinstance(self.label, str):
            raise ValueError(f"label must be a string, got {self.label!r}")
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ValueError(f"output_dir must be a non-empty string, got {self.output_dir!r}")
        if not _is_number(self.base_seed, int):
            raise ValueError(f"base_seed must be an integer, got {self.base_seed!r}")
        object.__setattr__(self, "base_seed", int(self.base_seed))
        # two term realizations and two closure draws give a standard error
        for key, least in (("n_realizations", 1), ("n_term_realizations", 2),
                           ("closure_n_mc", 2), ("quadrature_order", 1)):
            object.__setattr__(self, key, _count(key, getattr(self, key), least))
        object.__setattr__(self, "divergence_threshold",
                           _real("divergence_threshold", self.divergence_threshold, positive=True))
        if list(self.T_grid) != sorted(set(self.T_grid)):
            raise ValueError("T_grid must be strictly ascending")
        for eps in self.epsilon_list:
            if not 0.0 < eps < 1.0:
                raise ValueError("epsilon values must lie in (0, 1)")
        if len(set(self.epsilon_list)) < len(self.epsilon_list):
            raise ValueError(f"epsilon_list must not repeat a value, got {list(self.epsilon_list)}")
        system = {"kind": system["kind"], "params": _system_params(system["params"]),
                  "noise": {"kind": noise["kind"], "std": std}}
        for key, section in (("system", system), ("dictionary", dictionary), ("domain", domain)):
            object.__setattr__(self, key, section)
        dim = len(build_system(self).update)
        if dictionary["kind"] == "monomial":
            dictionary.setdefault("state_dim", dim)
            for key, least in (("state_dim", 1), ("max_degree", 0)):
                dictionary[key] = _count(f"dictionary.{key}", dictionary[key], least)
        dictionary = build_dictionary(self)
        dims = {"dictionary.state_dim": dictionary.state_dim, "domain": build_domain(self).dim}
        for key, got in dims.items():
            if got != dim:
                raise ValueError(f"{key} must be of the system's dimension {dim}, got {got}")
        n = dictionary.n_basis
        # the closure regression fits N coefficients, one state per equation
        states = max(20, n) if self.closure_n_states is None else self.closure_n_states
        object.__setattr__(self, "closure_n_states", _count("closure_n_states", states, n))
        floor = sample_floor(n)
        if self.T_grid[0] <= floor:
            raise ValueError(
                f"every T in T_grid must exceed 2N+2 = {floor} for N = {n}"
            )


def build_domain(config: ExperimentConfig) -> Domain:
    """The configured box; a value it rejects raises ValueError naming the key."""
    try:
        return Domain(np.array(config.domain["lower"]), np.array(config.domain["upper"]))
    except ValueError as err:
        raise ValueError(f"domain: {err}") from None


def build_dictionary(config: ExperimentConfig) -> Dictionary:
    if config.dictionary["kind"] == "closed-quadratic":
        return closed_quadratic_dictionary()
    return make_monomial_dictionary(config.dictionary["state_dim"],
                                    config.dictionary["max_degree"])


def _system_params(params: dict) -> dict:
    """``system.params`` as keyword arguments of the system's constructor."""
    coerced = {}
    for key, value in params.items():
        if key == "standard_vdp":
            if not isinstance(value, bool):
                raise ValueError(f"system.params.standard_vdp must be true or false, got {value!r}")
            coerced[key] = value
        else:
            coerced[key] = _real(f"system.params.{key}", value)
    return coerced


def build_system(config: ExperimentConfig):
    """The configured system; a value it rejects raises ValueError naming the key."""
    system, noise = config.system, config.system["noise"]
    try:  # a silent model's std is checked too, though it draws none
        noise = NoiseModel(noise["kind"], noise["std"])
        if system["kind"] == "closed-quadratic":
            return make_closed_quadratic(ClosedQuadraticParams(**system["params"]), noise=noise)
        return make_vanderpol(noise=noise, **system["params"])
    except ValueError as err:
        # a noise message begins with "std_dev", a constructor's with its parameter, the key
        key = "system.noise.std: " if str(err).startswith("std_dev") else "system.params."
        raise ValueError(f"{key}{err}") from None


def true_koopman(config: ExperimentConfig) -> np.ndarray | None:
    """The analytic operator, which exists only for the closed system on the
    closed dictionary; None for any other pairing."""
    system, noise = config.system, config.system["noise"]
    if (system["kind"], config.dictionary["kind"]) != ("closed-quadratic", "closed-quadratic"):
        return None
    var = 0.0 if noise["kind"] == NO_NOISE else noise["std"][0] ** 2
    return closed_quadratic_koopman(ClosedQuadraticParams(**system["params"]), var)


# The (required, optional) keys of each config section, or of each of its kinds.
# system.params comes last: a config without a system section is the closed
# quadratic map, whose missing mu must not hide a missing key elsewhere.
_KEYS = {
    "config": ({"T_grid", "base_seed"}, {f.name for f in fields(ExperimentConfig)}),
    "system": (set(), {"kind", "params", "noise"}),
    "system.noise": {kind: (set(), {"kind", "std"}) for kind in (GAUSSIAN_IID, NO_NOISE)},
    "dictionary": {"closed-quadratic": (set(), {"kind"}),
                   "monomial": ({"max_degree"}, {"kind", "state_dim"})},
    "domain": ({"lower", "upper"}, set()),
    "system.params": {"closed-quadratic": ({"rho", "mu"}, {"c"}),
                      "vanderpol": ({"dt"}, {"standard_vdp"})},
}


def _section(mapping: dict, where: str, default) -> dict:
    """The section at dotted key ``where``, its last part a key of ``mapping``
    (``default`` when absent); anything but a mapping raises ValueError naming it."""
    value = mapping.get(where.rpartition(".")[2], default)
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a mapping, got {value!r}")
    return value


def config_from_dict(data: dict, **overrides) -> ExperimentConfig:
    """Build a config from nested mapping data (the YAML layout), each
    override replacing one top-level key, and fill in the sections' defaults.

    Raises ValueError naming the key for any section that is not a mapping,
    then, section by section in the order of ``_KEYS``, for a kind the table
    does not know, a key the section may not hold and a required key that is
    missing; :class:`ExperimentConfig` checks the values.
    """
    data = {**data, **overrides}
    system = {"kind": "closed-quadratic", **_section(data, "system", {})}
    sections = {
        "config": data,
        "system": system,
        "system.noise": {"kind": GAUSSIAN_IID, **_section(system, "system.noise", {})},
        "dictionary": {"kind": "monomial", **_section(data, "dictionary", {})},
        "domain": _section(data, "domain", {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}),
        "system.params": _section(system, "system.params", {}),
    }
    for where, keys in _KEYS.items():
        mapping = sections[where]
        if isinstance(keys, dict):  # the keys of the section's kind
            owner = "system" if where == "system.params" else where
            kind = sections[owner]["kind"]
            if not isinstance(kind, str) or kind not in keys:
                raise ValueError(f"unknown {owner}.kind {kind!r}")
            keys = keys[kind]
        required, optional = keys
        unknown = sorted(set(mapping) - required - optional, key=str)
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r} in {where}")
        missing = sorted(required - set(mapping))
        if missing:
            raise ValueError(f"missing key {missing[0]!r} in {where}")
    kind, noise = system["kind"], sections["system.noise"]
    std = noise.get("std", 0.01 if kind == "vanderpol" else 1.0)  # a scalar serves every axis
    noise = {"kind": noise["kind"], "std": std if isinstance(std, (list, tuple)) else [std]}
    return ExperimentConfig(**{
        "label": kind,
        **data,
        "system": {"kind": kind, "params": sections["system.params"], "noise": noise},
        "dictionary": sections["dictionary"],
        "domain": sections["domain"],
    })


def load_config(path: str, **overrides) -> ExperimentConfig:
    with open(path) as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as err:  # PyYAML's message spans several lines
            raise ValueError(f"{path} is not valid YAML: {' '.join(str(err).split())}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path} does not contain a mapping")
    return config_from_dict(data, **overrides)


def fit_loglog_slope(T_values, errors) -> tuple[float, float]:
    """Least-squares slope of log(error) against log(T), with its standard error.

    The standard error is NaN with fewer than three points; an exact power
    law ``c * T^p`` recovers p to roundoff.  A T or an error that is not
    positive and finite raises ValueError naming its ``(T, error)`` pair.
    """
    ts, errs = np.asarray(T_values, dtype=float), np.asarray(errors, dtype=float)
    if ts.ndim != 1 or ts.shape != errs.shape or ts.size < 2:
        raise ValueError("need at least two (T, error) points")
    for t, err in zip(ts.tolist(), errs.tolist()):
        if not (0 < t < math.inf and 0 < err < math.inf):
            raise ValueError(f"(T, error) = ({t!r}, {err!r}): both must be positive and finite")
    x, y = np.log(ts), np.log(errs)
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
    """``[fn(*task) for task in tasks]``, spread over ``workers`` threads of
    this process, one task at a time, so that every worker gets one of
    ``_seed_blocks``' tasks.  The stepping kernel, the matmuls and the LAPACK
    solves release the GIL, so the threads run a fit's heavy parts at once.
    The pool is imported at its first use; it starts no idle threads.
    """
    if workers <= 1 or len(tasks) <= 1:
        return [fn(*t) for t in tasks]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(fn, *zip(*tasks)))


class Fits(NamedTuple):
    """How a block of trajectory -> moments -> estimate runs ended, one row
    per seed in seed order.

    ``status`` is "ok", "diverged" (its DivergenceError in ``cause``, else
    None) or "singular" (a flagged fallback estimate, which is kept).
    ``matrix`` holds the K_hat stack and ``cond`` the condition number of
    each estimate's S0, NaN where there is no estimate; ``sigma0`` holds the
    raw moment matrices S0, NaN where the trajectory diverged.
    """

    status: np.ndarray
    matrix: np.ndarray
    sigma0: np.ndarray
    cond: np.ndarray
    cause: np.ndarray


def fit_realizations(config: ExperimentConfig, T: int, seeds) -> Fits:
    """Fit one realization per seed, their trajectories stepped in one block.

    Each seed streams T steps from a uniform initial state into its own
    moments, which equal ``accumulate(simulate(...))`` of that seed bit for
    bit, so ``simulate`` regenerates needed samples and no result depends on
    which seeds share a call.  The block's moments are ``(R, N, N)`` stacks,
    fitted by one ``estimate_stack``.  A diverged trajectory leaves the block
    and the others keep stepping.  At or below the 2N+2 floor the estimate
    raises SampleFloorError.
    """
    system = build_system(config)
    dictionary = build_dictionary(config)
    n = dictionary.n_basis
    sums = np.zeros((4, len(seeds), n, n))  # S0, comp0, S1, comp1 of every seed
    cause = np.full(len(seeds), None)
    for paths, index, failed in trajectory_chunks(
        system, None, T, seeds, config.divergence_threshold, build_domain(config)
    ):
        for k, err in failed.items():
            cause[k] = err
        # each trajectory's m + 1 states of the block, all lifted in one call
        psi = evaluate_many(dictionary, paths.reshape(-1, paths.shape[2])).reshape(*paths.shape[:2], n)
        part = sums[:, index]
        add_moments(part, psi[:, :-1], psi[:, 1:])
        sums[:, index] = part
    sigma0, sigma1 = (sums[0::2] - sums[1::2]) / T
    live = np.array([err is None for err in cause], dtype=bool)
    status = np.where(live, "ok", "diverged")
    sigma0[~live] = np.nan
    matrix, cond = np.full_like(sigma0, np.nan), np.full(len(seeds), np.nan)
    if live.any():
        matrix[live], cond[live], fallback = estimate_stack(sigma0[live], sigma1[live], T)
        status[np.flatnonzero(live)[fallback]] = "singular"
    return Fits(status, matrix, sigma0, cond, cause)


def _seed_blocks(seeds, T: int, workers: int) -> list:
    """One T's seeds split into pool tasks of equal size.

    The ``workers`` tasks that run at once share one process, so together
    they hold at most ``BLOCK`` state rows, or one seed each where a seed
    holds more than its share: the map's memory stays at one fit's block.
    There are at least ``workers`` tasks.
    """
    tasks = max(workers, -(-len(seeds) // max(1, BLOCK // workers // min(T, BLOCK))))
    size = -(-len(seeds) // tasks)
    return [seeds[i : i + size] for i in range(0, len(seeds), size)]


def _fit_groups(config: ExperimentConfig, groups, workers: int) -> list[Fits]:
    """Fit ``(T, seeds)`` groups in seed blocks over one parallel map; returns
    each group's fits in seed order, its blocks joined field by field.  The
    system's kernel is loaded first, so the run compiles it once."""
    build_system(config).stepping  # functools.cache lets two threads compile at once
    tasks, counts = [], []
    for T, seeds in groups:
        blocks = _seed_blocks(seeds, T, workers)
        tasks += [(config, T, block) for block in blocks]
        counts.append(len(blocks))
    fits = iter(_ordered_map(fit_realizations, tasks, workers))
    return [Fits(*map(np.concatenate, zip(*islice(fits, count)))) for count in counts]


def _required(fits: Fits, what: str, T: int) -> Fits:
    """``fits`` of a group a run cannot do without.  A diverged row raises
    RuntimeError naming ``what`` and T, chained from the first such row's
    DivergenceError; a singular first row, the estimate the run keeps, warns
    once with its fallback."""
    diverged = np.flatnonzero(fits.status == "diverged")
    if diverged.size:
        raise RuntimeError(f"the {what} at T={T} failed: diverged") from fits.cause[diverged[0]]
    if fits.status[0] == "singular":
        warnings.warn(f"the {what} at T={T} is singular; using its fallback")
    return fits


def _frobenius_errors(stack, ref) -> np.ndarray:
    """``|M - ref|_F`` of each matrix M of the stack, one norm per matrix: it
    sums in memory order, where a stacked ``axis=(1, 2)`` norm would not."""
    return np.array([np.linalg.norm(m - ref, "fro") for m in stack])


def run_sweep(config: ExperimentConfig, workers: int = 1) -> ErrorCurve:
    """Error-versus-T sweep with realization averaging and slope fitting.

    For every T in the grid and every realization a fresh trajectory is
    simulated with seed ``derive_seed(base_seed, T, r)`` and the estimate's
    relative Frobenius error against the reference operator is recorded.
    Each T's realizations are reduced in one pass into its ``sweep.csv``
    row (aggregates) and its ``sweep_points.csv`` rows (per realization);
    both files and ``sweep.meta.json`` go into the config's output directory.
    A T point whose failure fraction exceeds 20% is flagged invalid.
    """
    seeds = [[derive_seed(config.base_seed, T, r) for r in range(config.n_realizations)]
             for T in config.T_grid]
    groups = list(zip(config.T_grid, seeds))
    ref, ref_info = true_koopman(config), {"kind": "analytic"}
    if ref is None:  # the reference is one high-T fit, the first group of the map
        t_ref = REFERENCE_T_FACTOR * max(config.T_grid)
        seed = derive_seed(config.base_seed, t_ref, REFERENCE_STREAM)
        ref_info = {"kind": "high-T estimate", "T_ref": t_ref, "seed": seed}
        groups.insert(0, (t_ref, [seed]))
    fits = _fit_groups(config, groups, workers)
    if ref is None:
        ref = _required(fits.pop(0), "reference fit", t_ref).matrix[0]
    denom = np.linalg.norm(ref, "fro")
    stats, rows, points = [], [], []  # stats: (mean, se, n_ok, n_failed, invalid) per T
    for T, group_seeds, group in zip(config.T_grid, seeds, fits):
        ok = group.status == "ok"
        rels = np.full(len(ok), np.nan)
        rels[ok] = _frobenius_errors(group.matrix[ok], ref) / denom
        errs = rels[ok]
        points += [[config.label, T, r, seed, status, fmt(rel)] for r, (seed, status, rel)
                   in enumerate(zip(group_seeds, group.status.tolist(), rels))]
        n_ok = len(errs)
        n_failed = config.n_realizations - n_ok
        invalid = n_failed > MAX_FAILED_FRACTION * config.n_realizations
        mean = float(np.mean(errs)) if n_ok else float("nan")
        se = float(np.std(errs, ddof=1) / math.sqrt(n_ok)) if n_ok > 1 else float("nan")
        stats.append((mean, se, n_ok, n_failed, invalid))
        rows.append([config.label, T, n_ok, n_failed, fmt(mean), fmt(se)])
    means, ses, n_oks, n_faileds, invalids = zip(*stats)

    usable = [
        (t, m)
        for t, m, bad in zip(config.T_grid, means, invalids)
        if not bad and np.isfinite(m) and m > SLOPE_FLOOR
    ]
    if len(usable) >= 2:
        slope, slope_se = fit_loglog_slope(*zip(*usable))
    else:
        slope, slope_se = float("nan"), float("nan")

    out = config.output_dir
    _write_rows(os.path.join(out, "sweep.csv"),
                ["label", "T", "n_ok", "n_failed", "mean_rel_err", "std_err"], rows)
    _write_rows(os.path.join(out, "sweep_points.csv"),
                ["label", "T", "realization", "seed", "status", "rel_err"], points)
    write_sidecar(
        os.path.join(out, "sweep.meta.json"),
        {
            "config": asdict(config),
            "reference": ref_info,
            "fitted_slope": None if math.isnan(slope) else slope,
            "slope_stderr": None if math.isnan(slope_se) else slope_se,
            "invalid_T": [int(t) for t, bad in zip(config.T_grid, invalids) if bad],
            "error_metric": "mean over realizations of |K_hat - K_ref|_F / |K_ref|_F",
            "initial_conditions": "uniform on the domain, one draw per realization",
            "seed_derivation": "splitmix64 chain over (base_seed, T, realization)",
            "stepping": build_system(config).stepping,
        },
    )
    return ErrorCurve(config.label, tuple(config.T_grid), means, ses, n_oks, n_faileds,
                      invalids, slope, slope_se, ref_info)


def run_bound_calibration(config: ExperimentConfig, workers: int = 1) -> list[BoundReport]:
    """Evaluate the error bound and its empirical violation rate on a grid.

    Fits one set per T, the whole grid in one parallel map: the first
    ``max(n_realizations, n_term_realizations)`` seeds of ``SCORE_STREAM``.
    For each T, the moment matrices S0 of the usable ("ok") fits among the
    first ``n_term_realizations`` give the bound's expectation terms (the
    singular ones are counted as ``n_excluded``), and the residual-variance
    surrogate delta_hat is the largest per-observable mean squared residual
    of the first fit, its trajectory simulated again; the first
    ``n_realizations`` estimates are scored against the bound for every
    epsilon.  Returns and writes one ``bounds.csv`` row per (T, epsilon).
    Needs a ground-truth operator.
    """
    ref = true_koopman(config)
    if ref is None:
        raise ValueError("bound calibration needs a ground-truth operator")
    system = build_system(config)
    dictionary = build_dictionary(config)
    domain = build_domain(config)
    cond_lambda = gram(dictionary, domain).cond

    n, n_terms = config.n_realizations, config.n_term_realizations
    seeds = [_stream_seeds(config, T, SCORE_STREAM, max(n, n_terms)) for T in config.T_grid]
    fits = _fit_groups(config, list(zip(config.T_grid, seeds)), workers)

    reports, inputs = [], []
    for T, group_seeds, group in zip(config.T_grid, seeds, fits):
        # the term fits begin with the first fit, whose estimate delta_hat uses;
        # the terms and the score read the same usable ("ok") fits
        head = Fits(*(f[:n_terms] for f in group))
        ok = group.status == "ok"
        usable = _required(head, "bound-term fit", T).sigma0[ok[:n_terms]]
        if len(usable) < 2:
            raise RuntimeError(f"the bound terms at T={T} need two usable fits; "
                               f"{len(usable)} of the {n_terms} bound-term fits are usable")
        terms = bound_terms(usable)
        samples = simulate(system, None, T, group_seeds[0], config.divergence_threshold, domain)
        delta_hat = float(residuals(dictionary, samples, group.matrix[0]).max())
        errors = _frobenius_errors(group.matrix[:n][ok[:n]], ref)
        if errors.size == 0:
            raise RuntimeError(f"no realization produced an estimate at T={T}")
        for eps in config.epsilon_list:
            bound = koopman_error_bound(delta_hat, eps, T, terms)
            n_viol = int(np.sum(errors > bound + VIOLATION_ATOL))
            reports.append(BoundReport(eps, T, delta_hat, terms, bound, bound * cond_lambda,
                                       cond_lambda, errors.size, n_viol, n - errors.size))
        inputs.append({"T": T, "delta_hat_seed": group_seeds[0], "se_trace": terms.se_trace,
                       "se_frob": terms.se_frob, "n_excluded": n_terms - len(usable)})

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
            "delta_hat_source": "max per-observable mean squared residual of the first "
                                "scored realization at each T, its trajectory simulated again",
            "terms_source": "moment matrices S0 of the usable fits among the first "
                            "n_term_realizations scored-stream realizations at each T",
            "bound_inputs": inputs,
            "stepping": system.stepping,
        },
    )
    return reports


def run_pf_pipeline(config: ExperimentConfig, workers: int = 1):
    """Estimate the Koopman matrix, conjugate it into the transfer matrix,
    verify the duality identity, and (when ground truth exists) check the
    deterministic error-transfer inequality realization by realization.

    Persists the transfer and Koopman matrices with their sidecars, the Gram
    matrix and a one-row ``pf_report.csv``.  Returns (PFEstimate, report dict).
    """
    dictionary = build_dictionary(config)
    lam = gram(dictionary, build_domain(config))
    T = max(config.T_grid)
    seed = derive_seed(config.base_seed, T, PF_STREAM)
    ref = true_koopman(config)
    groups = [(T, [seed])]
    if ref is not None:  # the transfer check refits bounds' scored seeds at the largest T
        groups.append((T, _stream_seeds(config, T, SCORE_STREAM, config.n_realizations)))
    fit, *checked = _fit_groups(config, groups, workers)
    _required(fit, "transfer-matrix fit", T)
    est = OperatorEstimate(fit.matrix[0], dictionary.names, T, seed, float(fit.cond[0]),
                           bool(fit.status[0] == "singular"))
    p_hat = koopman_to_pf(est.matrix, lam)
    defect = duality_check(est.matrix, p_hat.matrix, lam)

    transfer_ok = transfer_total = 0
    if ref is not None:
        # |P_hat - P|_F <= cond(Lambda) |K_hat - K|_F for every realization
        k_hats = checked[0].matrix[checked[0].status == "ok"]
        p_errors = _frobenius_errors(conjugate_stack(k_hats, lam), koopman_to_pf(ref, lam).matrix)
        transfer_total = len(k_hats)
        transfer_ok = int(np.sum(p_errors <= lam.cond * _frobenius_errors(k_hats, ref)))

    report = {
        "label": config.label,
        "T": T,
        "duality_defect": defect,
        "cond_lambda": lam.cond,
        "transfer_ok": transfer_ok,
        "transfer_total": transfer_total,
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
