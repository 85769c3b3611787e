"""Experiment harness: configs, seeded sweeps, calibration runs, CSV outputs.

A single YAML config describes the system, dictionary, domain, sample-count
grid and seeds.  Every run is a pure function of the config and its base
seed: per-task seeds are derived with a documented SplitMix64 chain, tasks
form an order-independent map, and reductions happen in a fixed order, so
output CSVs are byte-identical for any worker count.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np
import yaml

from .basis import (
    DEFAULT_QUADRATURE_ORDER,
    Dictionary,
    Domain,
    MonomialSpec,
    evaluate_many,
    gram,
    make_monomial_dictionary,
)
from .bounds import (
    VIOLATION_ATOL,
    bound_terms,
    koopman_error_bound,
    make_bound_report,
    BoundReport,
    ViolationStats,
)
from .dynamics import (
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
    SampleFloorError,
    closure_check,
    estimate_koopman,
    residuals,
    sample_floor,
)
from .io import fmt, save_gram, save_operator, write_sidecar
from .pf import duality_check, koopman_to_pf
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

SLOPE_FLOOR = 1e-10  # mean errors at the solver floor carry no scaling signal
MAX_FAILED_FRACTION = 0.2


def derive_seed(base_seed: int, T: int, realization_index: int) -> int:
    """Deterministic 64-bit seed for one (sample count, realization) task.

    Computed as an iterated SplitMix64 chain over the three integers (see
    :func:`koopest.seeding.mix_seed`), giving independent, reproducible
    streams for every task regardless of scheduling.
    """
    return mix_seed(base_seed, T, realization_index)


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
    divergence_threshold: float = 1e6
    closure_n_states: int = 20
    closure_n_mc: int = 10000
    quadrature_order: int = DEFAULT_QUADRATURE_ORDER

    def __post_init__(self):
        object.__setattr__(self, "T_grid", tuple(int(t) for t in self.T_grid))
        object.__setattr__(self, "noise_std", tuple(float(s) for s in self.noise_std))
        object.__setattr__(self, "epsilon_list", tuple(float(e) for e in self.epsilon_list))
        object.__setattr__(self, "domain_lower", tuple(float(v) for v in self.domain_lower))
        object.__setattr__(self, "domain_upper", tuple(float(v) for v in self.domain_upper))
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be at least 1")
        if self.n_term_realizations < 2:
            raise ValueError("n_term_realizations must be at least 2 (for standard errors)")
        if not self.T_grid:
            raise ValueError("T_grid must not be empty")
        if list(self.T_grid) != sorted(set(self.T_grid)):
            raise ValueError("T_grid must be strictly ascending")
        for eps in self.epsilon_list:
            if not 0.0 < eps < 1.0:
                raise ValueError("epsilon values must lie in (0, 1)")
        n = build_dictionary(self).n_basis
        floor = sample_floor(n)
        if self.T_grid[0] <= floor:
            raise ValueError(
                f"every T in T_grid must exceed 2N+2 = {floor} for N = {n}"
            )
        build_domain(self)  # validates bounds


def build_domain(config: ExperimentConfig) -> Domain:
    return Domain(np.array(config.domain_lower), np.array(config.domain_upper))


def build_dictionary(config: ExperimentConfig) -> Dictionary:
    if config.dictionary_kind == "closed-quadratic":
        return closed_quadratic_dictionary()
    if config.dictionary_kind == "monomial":
        if config.dict_state_dim is None or config.dict_max_degree is None:
            raise ValueError("monomial dictionary needs state_dim and max_degree")
        return make_monomial_dictionary(
            MonomialSpec(config.dict_state_dim, config.dict_max_degree)
        )
    raise ValueError(f"unknown dictionary kind {config.dictionary_kind!r}")


def build_noise(config: ExperimentConfig, dim: int) -> NoiseModel:
    if config.noise_kind == "none":
        return NoiseModel.none(dim)
    return NoiseModel.gaussian(np.array(config.noise_std), dim=dim)


def _closed_quadratic_params(config: ExperimentConfig) -> ClosedQuadraticParams:
    p = config.system_params
    return ClosedQuadraticParams(
        rho=float(p["rho"]), mu=float(p["mu"]), c=float(p.get("c", 1.0))
    )


def build_system(config: ExperimentConfig):
    noise = build_noise(config, 2)
    if config.system_kind == "closed-quadratic":
        return make_closed_quadratic(_closed_quadratic_params(config), noise=noise)
    if config.system_kind == "vanderpol":
        p = config.system_params
        return make_vanderpol(
            dt=float(p["dt"]),
            noise=noise,
            standard_vdp=bool(p.get("standard_vdp", False)),
        )
    raise ValueError(f"unknown system kind {config.system_kind!r}")


def has_true_koopman(config: ExperimentConfig) -> bool:
    """Ground truth exists only for the closed system/dictionary pairing."""
    return (
        config.system_kind == "closed-quadratic"
        and config.dictionary_kind == "closed-quadratic"
    )


def true_koopman(config: ExperimentConfig) -> np.ndarray:
    if not has_true_koopman(config):
        raise ValueError("no ground-truth operator for this configuration")
    var = 0.0 if config.noise_kind == "none" else config.noise_std[0] ** 2
    return closed_quadratic_koopman(_closed_quadratic_params(config), noise_variance=var)


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
    default_std = [0.01, 0.01] if kind == "vanderpol" else [1.0, 1.0]
    flat = dict(
        label=data.get("label", kind),
        system_kind=kind,
        system_params=dict(system.get("params", {})),
        noise_kind=noise.get("kind", "gaussian-iid"),
        noise_std=tuple(np.atleast_1d(noise.get("std", default_std)).tolist()),
        dictionary_kind=dictionary.get("kind", "monomial"),
        dict_state_dim=dictionary.get("state_dim"),
        dict_max_degree=dictionary.get("max_degree"),
        domain_lower=tuple(domain["lower"]),
        domain_upper=tuple(domain["upper"]),
        T_grid=tuple(data["T_grid"]),
        base_seed=int(data["base_seed"]),
        epsilon_list=tuple(data.get("epsilon_list", [0.1, 0.25, 0.5])),
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

    ``status`` is "ok" or the failure cause: "diverged", "floor" or
    "singular" (a failed factorization, or a flagged fallback estimate,
    which is kept).  ``sigma0`` is the raw moment matrix S0 whenever the
    trajectory was completed, whatever the estimate's fate.
    """

    status: str
    estimate: OperatorEstimate | None
    sigma0: np.ndarray | None = None


def fit_realization(config: ExperimentConfig, T: int, seed: int) -> Realization:
    """Stream T steps from a uniform initial state into moments, fit K_hat and
    classify the outcome.  The moments equal ``accumulate(simulate(...))`` of
    the same seed bit for bit, so ``simulate`` regenerates needed samples."""
    system = build_system(config)
    dictionary = build_dictionary(config)
    moments = MomentPair.empty(dictionary)
    moments.seed = int(seed)
    try:
        for xs, ys in trajectory_chunks(
            system, None, T, seed, config.divergence_threshold, build_domain(config)
        ):
            moments.absorb_lifted(evaluate_many(dictionary, xs), evaluate_many(dictionary, ys))
    except DivergenceError:
        return Realization("diverged", None)
    sigma0 = moments.sigma0_hat
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = estimate_koopman(moments)
    except SampleFloorError:
        return Realization("floor", None, sigma0)
    except np.linalg.LinAlgError:
        return Realization("singular", None, sigma0)
    return Realization("singular" if est.fallback else "ok", est, sigma0)


def _reference_koopman(config: ExperimentConfig):
    """The analytic operator, or one high-T fit."""
    if has_true_koopman(config):
        return true_koopman(config), {"kind": "analytic"}
    t_ref = config.reference_T_factor * max(config.T_grid)
    seed = derive_seed(config.base_seed, t_ref, REFERENCE_STREAM)
    fit = fit_realization(config, t_ref, seed)
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
    points = [
        (T, r, derive_seed(config.base_seed, T, r))
        for T in config.T_grid
        for r in range(config.n_realizations)
    ]
    fits = _ordered_map(fit_realization, [(config, T, seed) for T, _, seed in points], workers)
    denom = np.linalg.norm(ref, "fro")
    results = []  # (T, realization, seed, status, relative error)
    for (T, r, seed), fit in zip(points, fits):
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
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "sweep.csv"), "w", newline="") as fh:
        fh.write("label,T,n_ok,n_failed,mean_rel_err,std_err\n")
        for T, n_ok, n_failed, mean, se in zip(
            curve.T_values, curve.n_ok, curve.n_failed, curve.mean_rel_err, curve.std_err
        ):
            fh.write(
                f"{config.label},{T},{n_ok},{n_failed},{fmt(mean)},{fmt(se)}\n"
            )
    with open(os.path.join(out, "sweep_points.csv"), "w", newline="") as fh:
        fh.write("label,T,realization,seed,status,rel_err\n")
        for T, r, seed, status, rel in results:
            fh.write(f"{config.label},{T},{r},{seed},{status},{fmt(rel)}\n")
    write_sidecar(
        os.path.join(out, "sweep.meta.json"),
        {
            "config": _config_meta(config),
            "reference": curve.reference,
            "fitted_slope": None if math.isnan(curve.fitted_slope) else curve.fitted_slope,
            "slope_stderr": None if math.isnan(curve.slope_stderr) else curve.slope_stderr,
            "invalid_T": [int(t) for t, bad in zip(curve.T_values, curve.invalid) if bad],
            "error_metric": "mean over realizations of |K_hat - K_ref|_F / |K_ref|_F",
            "initial_conditions": "uniform on the domain, one draw per realization",
            "seed_derivation": "splitmix64 chain over (base_seed, T, realization)",
        },
    )


def _config_meta(config: ExperimentConfig) -> dict:
    data = asdict(config)
    data["T_grid"] = [int(t) for t in config.T_grid]
    return data


def run_bound_calibration(
    config: ExperimentConfig, workers: int = 1
) -> list[tuple[BoundReport, ViolationStats]]:
    """Evaluate the error bound and its empirical violation rate on a grid.

    Fits, for the whole grid in one parallel map, ``n_realizations`` scored
    estimates and ``n_term_realizations`` realizations for the bound's
    expectation terms per T.  Then for each T: reduces the term
    realizations' moment matrices, fits the residual-variance surrogate
    (unless the config overrides it), and scores the estimates against the
    bound for every epsilon.  Writes one ``bounds.csv`` row per
    (T, epsilon).  Requires a configuration with a ground-truth operator.
    """
    if not has_true_koopman(config):
        raise ValueError("bound calibration needs a ground-truth operator")
    dictionary = build_dictionary(config)
    domain = build_domain(config)
    ref = true_koopman(config)
    cond_lambda = gram(dictionary, domain, config.quadrature_order).cond

    n, n_terms = config.n_realizations, config.n_term_realizations
    tasks = [
        (config, T, mix_seed(derive_seed(config.base_seed, T, stream), r))
        for T in config.T_grid
        for stream, count in ((SCORE_STREAM, n), (TERMS_STREAM, n_terms))
        for r in range(count)
    ]
    fits = _ordered_map(fit_realization, tasks, workers)

    rows = []
    results: list[tuple[BoundReport, ViolationStats]] = []
    per_T = n + n_terms
    for i, T in enumerate(config.T_grid):
        block = fits[i * per_T : (i + 1) * per_T]
        scored, term_fits = block[:n], block[n:]
        for fit in term_fits:
            if fit.sigma0 is None:
                raise RuntimeError(f"a bound-term realization at T={T} failed: {fit.status}")
        terms = bound_terms([fit.sigma0 for fit in term_fits])
        if config.delta_hat_override is not None:
            delta_hat = float(config.delta_hat_override)
        else:
            seed = derive_seed(config.base_seed, T, DELTA_STREAM)
            delta_fit = fit_realization(config, T, seed)
            if delta_fit.estimate is None:
                raise RuntimeError(f"the delta_hat fit at T={T} failed: {delta_fit.status}")
            samples = simulate(
                build_system(config), None, T, seed, config.divergence_threshold, domain
            )
            delta_hat = residuals(dictionary, samples, delta_fit.estimate).delta_hat
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
            stats = ViolationStats(
                n_realizations=int(errors.size),
                n_violations=n_viol,
                violation_rate=n_viol / errors.size,
                n_failed=n - errors.size,
            )
            report = make_bound_report(eps, T, delta_hat, terms, cond_lambda)
            results.append((report, stats))
            rows.append(
                f"{config.label},{T},{fmt(eps)},{fmt(delta_hat)},"
                f"{fmt(terms.mean_trace_sigma0)},{fmt(terms.mean_frob_sq_inv_sigma0)},"
                f"{fmt(report.koopman_bound)},{fmt(report.pf_bound)},{fmt(stats.violation_rate)}\n"
            )

    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "bounds.csv"), "w", newline="") as fh:
        fh.write(
            "label,T,epsilon,delta_hat,mean_trace_sigma0,mean_frob_sq_inv_sigma0,"
            "koopman_bound,pf_bound,violation_rate\n"
        )
        fh.writelines(rows)
    write_sidecar(
        os.path.join(out, "bounds.meta.json"),
        {
            "config": _config_meta(config),
            "cond_lambda": cond_lambda,
            "delta_hat_source": "override"
            if config.delta_hat_override is not None
            else "max per-observable mean squared residual of one fitted run per T",
        },
    )
    return results


def run_pf_pipeline(config: ExperimentConfig, workers: int = 1):
    """Estimate the Koopman matrix, conjugate it into the transfer matrix,
    verify the duality identity, and (when ground truth exists) check the
    deterministic error-transfer inequality realization by realization.

    Persists the transfer matrix with its sidecar, the Gram matrix, and a
    one-row ``pf_report.csv``.  Returns (PFEstimate, report dict).
    """
    lam = gram(build_dictionary(config), build_domain(config), config.quadrature_order)
    T = max(config.T_grid)
    fit = fit_realization(config, T, derive_seed(config.base_seed, T, PF_STREAM))
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
        tasks = [(config, T, mix_seed(seed_base, r)) for r in range(config.n_realizations)]
        k_hats = [
            fit.estimate.matrix
            for fit in _ordered_map(fit_realization, tasks, workers)
            if fit.status == "ok"
        ]
        transfer_total = len(k_hats)
        transfer_ok = sum(
            1
            for k in k_hats
            if np.linalg.norm(koopman_to_pf(k, lam).matrix - p_ref, "fro")
            <= lam.cond * np.linalg.norm(k - ref, "fro")
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
    os.makedirs(out, exist_ok=True)
    save_operator(p_hat, os.path.join(out, "pf_matrix.csv"))
    save_operator(est, os.path.join(out, "koopman_matrix.csv"))
    save_gram(lam, os.path.join(out, "gram.csv"))
    with open(os.path.join(out, "pf_report.csv"), "w", newline="") as fh:
        fh.write("label,T,duality_defect,cond_lambda,transfer_ok,transfer_total\n")
        fh.write(
            f"{config.label},{T},{fmt(defect)},{fmt(lam.cond)},"
            f"{transfer_ok},{transfer_total}\n"
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
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "closure.csv"), "w", newline="") as fh:
        fh.write("basis,defect\n")
        for name, d in zip(dictionary.names, defects):
            fh.write(f"{name},{fmt(d)}\n")
    return defects
