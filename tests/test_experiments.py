import csv
import json
import os
import pickle
import re
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopest import (
    closed_quadratic_koopman,
    ClosedQuadraticParams,
    MomentPair,
    SampleFloorError,
    accumulate,
    config_from_dict,
    derive_seed,
    estimate_koopman,
    fit_loglog_slope,
    load_config,
    run_bound_calibration,
    run_closure,
    run_pf_pipeline,
    run_sweep,
    simulate,
)
from koopest import dynamics, experiments
from koopest.dynamics import BLOCK, DivergenceError
from koopest.experiments import (
    DELTA_STREAM,
    Realization,
    _seed_blocks,
    build_dictionary,
    build_domain,
    build_system,
    fit_realizations,
    lockstep_min_seeds,
    true_koopman,
)

CLOSED_QUADRATIC = {"kind": "closed-quadratic", "params": {"rho": 0.2, "mu": 0.3, "c": 1.0}}
# a valid value of each config section, by its dotted key
SECTIONS = {
    "dictionary": {"kind": "monomial", "state_dim": 2, "max_degree": 2},
    "system": CLOSED_QUADRATIC,
    "system.params": CLOSED_QUADRATIC["params"],
    "system.noise": {"kind": "gaussian-iid", "std": [1.0, 1.0]},
    "domain": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
}


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, 1000, 3) == derive_seed(1, 1000, 3)

    def test_distinct_neighbors(self):
        s = derive_seed(5, 1000, 7)
        assert derive_seed(5, 1000, 8) != s
        assert derive_seed(5, 1001, 7) != s
        assert derive_seed(6, 1000, 7) != s

    def test_no_collisions_in_million_seed_scan(self):
        seeds = {
            derive_seed(42, T, r) for T in range(1000) for r in range(1000)
        }
        assert len(seeds) == 1000 * 1000

    def test_64_bit_range(self):
        s = derive_seed(2**63, 10**6, 999)
        assert 0 <= s < 2**64


class TestSlopeFit:
    def test_exact_inverse_sqrt_law(self):
        ts = np.array([1e3, 1e4, 1e5])
        errs = 3.7 / np.sqrt(ts)
        slope, se = fit_loglog_slope(ts, errs)
        assert slope == pytest.approx(-0.5, abs=1e-10)
        assert se == pytest.approx(0.0, abs=1e-9)

    def test_generic_power_law(self):
        ts = np.array([10.0, 100.0, 1000.0, 10000.0])
        slope, _ = fit_loglog_slope(ts, 2.0 * ts**-0.81)
        assert slope == pytest.approx(-0.81, abs=1e-10)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([10.0], [1.0])


class TestConfig:
    def test_load_shipped_configs(self):
        for name in (
            "closed_quadratic_baseline",
            "closed_quadratic_strong",
            "vanderpol",
            "smoke",
        ):
            cfg = load_config(os.path.join("configs", f"{name}.yaml"))
            assert cfg.n_realizations >= 1
            build_system(cfg)
            build_dictionary(cfg)

    def test_overrides(self, tmp_path):
        cfg = load_config(
            "configs/smoke.yaml", base_seed=1, output_dir=str(tmp_path)
        )
        assert cfg.base_seed == 1
        assert cfg.output_dir == str(tmp_path)

    def test_descending_grid_rejected(self, smoke_config):
        with pytest.raises(ValueError, match="ascending"):
            smoke_config(T_grid=[400, 200])

    def test_grid_below_floor_rejected(self, smoke_config):
        with pytest.raises(ValueError, match="2N\\+2"):
            smoke_config(T_grid=[10, 200])

    def test_bad_epsilon_rejected(self, smoke_config):
        with pytest.raises(ValueError, match="epsilon"):
            smoke_config(epsilon_list=[0.0])

    def test_empty_grid_rejected(self, smoke_config):
        with pytest.raises(ValueError, match="T_grid must not be empty"):
            smoke_config(T_grid=[])

    def test_single_term_realization_rejected(self, smoke_config):
        # the bound terms need a standard error; fail at load, not after the scored fits
        with pytest.raises(ValueError, match="n_term_realizations"):
            smoke_config(n_term_realizations=1)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            # a misspelling must not silently fall back to the default count
            ("n_realisations", 3, "'n_realisations' in config$"),
            ("system", {**CLOSED_QUADRATIC, "nosie": {}}, "'nosie' in system$"),
            (
                "system",
                {**CLOSED_QUADRATIC, "noise": {"kind": "gaussian-iid", "sigma": [1.0]}},
                "'sigma' in system.noise$",
            ),
            ("dictionary", {"kind": "monomial", "state_dim": 2, "degree": 2}, "'degree' in dictionary$"),
            ("domain", {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "uper": [2.0]}, "'uper' in domain$"),
        ],
        ids=["top-level", "system", "noise", "dictionary", "domain"],
    )
    def test_unknown_key_rejected(self, smoke_config, key, value, message):
        with pytest.raises(ValueError, match=message):
            smoke_config(**{key: value})

    @pytest.mark.parametrize(
        "key, value, message",
        [
            # each used to run Gaussian noise, drop the key, or fail mid-run
            ("system", {**CLOSED_QUADRATIC, "noise": {"kind": "uniform"}},
             "unknown system.noise.kind 'uniform'"),
            ("system", {"kind": "closed-quadratic", "params": {"rho": 0.2, "mu": 0.3, "rhoo": 0.5}},
             "unknown key 'rhoo' in system.params"),
            ("system", {"kind": "closed-quadratic", "params": {"rho": 0.2}},
             "missing key 'mu' in system.params"),
            ("system", {"kind": "vanderpol", "params": {"dt": 0.001, "mu": 1.0}},
             "unknown key 'mu' in system.params"),
            ("system", {"kind": "duffing", "params": {}}, "unknown system.kind 'duffing'"),
            ("system", {**CLOSED_QUADRATIC, "noise": {"std": [1.0, 1.0, 1.0]}},
             "system.noise.std needs 1 or 2 entries"),
            ("dictionary", {"kind": "monomial", "state_dim": 3, "max_degree": 2},
             "dictionary.state_dim gives dimension 3"),
            ("domain", {"lower": [-1.0, -1.0, -1.0], "upper": [1.0, 1.0, 1.0]},
             "domain gives dimension 3"),
        ],
        ids=["noise-kind", "param-typo", "param-missing", "vanderpol-param", "system-kind",
             "noise-std-count", "dictionary-dim", "domain-dim"],
    )
    def test_bad_system_rejected_at_load(self, smoke_config, key, value, message):
        with pytest.raises(ValueError, match=message):
            smoke_config(**{key: value})

    @pytest.mark.parametrize(
        "system, key",
        [
            ({"kind": "vanderpol", "params": {"dt": -0.1}}, "system.params.dt"),
            ({"kind": "vanderpol", "params": {"dt": float("nan")}}, "system.params.dt"),
            ({**CLOSED_QUADRATIC, "params": {"rho": 0.2, "mu": 0.3, "c": -1}}, "system.params.c"),
            ({**CLOSED_QUADRATIC, "params": {"rho": "abc", "mu": 0.3}}, "system.params.rho"),
            ({**CLOSED_QUADRATIC, "noise": {"std": [-1.0, 1.0]}}, "system.noise.std"),
        ],
        ids=["dt-negative", "dt-nan", "c-negative", "rho-text", "std-negative"],
    )
    def test_bad_system_value_rejected_at_load(self, smoke_config, system, key):
        # each used to load and fail only at the first fit, inside the sweep
        with pytest.raises(ValueError, match=re.escape(key)):
            smoke_config(system=system)

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"T_grid": ["abc"]}, "T_grid"),
            ({"T_grid": 200}, "T_grid"),
            ({"system": {**CLOSED_QUADRATIC, "noise": {"std": ["abc", 1.0]}}}, "system.noise.std"),
            ({"epsilon_list": [0.1, "half"]}, "epsilon_list"),
            ({"domain": {"lower": ["a", -1.0], "upper": [1.0, 1.0]}}, "domain.lower"),
            ({"domain": {"lower": [-1.0, -1.0], "upper": [1.0, None]}}, "domain.upper"),
            ({"base_seed": "seven"}, "base_seed"),
        ],
        ids=["T_grid-text", "T_grid-scalar", "noise-std", "epsilon", "lower", "upper", "base_seed"],
    )
    def test_non_numeric_value_named(self, smoke_config, overrides, key):
        # bare int() / float() used to fail without the key
        with pytest.raises(ValueError, match=rf"^{re.escape(key)} must be "):
            smoke_config(**overrides)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("quadrature_order", 0),
            ("quadrature_order", 2.5),
            ("closure_n_mc", 1),
            ("closure_n_states", 3),
            ("divergence_threshold", -1),
            ("divergence_threshold", "1e6"),
            ("reference_T_factor", 0),
            ("n_realizations", "abc"),
            ("dictionary.state_dim", "2"),
            ("dictionary.state_dim", 1),
            ("dictionary.max_degree", 2.5),
            ("dictionary.max_degree", True),
            ("delta_hat_override", -1),
            ("delta_hat_override", "abc"),
            ("delta_hat_override", float("nan")),
            ("delta_hat_override", float("inf")),
            ("delta_hat_override", True),
            ("T_grid", [200.7, 400]),
            ("T_grid", [1.0e3, 2000]),
            ("base_seed", 1.5),
            ("base_seed", True),
            ("system.params.rho", True),
            ("system.params.c", "1.0"),
            ("system.noise.std", True),
            ("system.noise.std", [1.0, True]),
            ("system.noise.std", ["1.0", 1.0]),
            ("epsilon_list", [0.1, "0.5"]),
            ("epsilon_list", [True]),
            ("domain.lower", ["-1", -1.0]),
            ("domain.upper", [1.0, True]),
        ],
        ids=["quadrature-zero", "quadrature-fraction", "closure-one-draw", "closure-below-N",
             "threshold-negative", "threshold-text", "reference-zero", "realizations-text",
             "state-dim-text", "state-dim-one", "degree-fraction", "degree-bool",
             "override-negative", "override-text", "override-nan", "override-inf",
             "override-bool", "T_grid-fraction", "T_grid-float", "seed-fraction", "seed-bool",
             "rho-bool", "c-text", "std-bool", "std-bool-entry", "std-text", "epsilon-text",
             "epsilon-bool", "lower-text", "upper-bool"],
    )
    def test_bad_count_or_threshold_named(self, smoke_config, key, value):
        # each used to load, then fail late (a bare TypeError, a failed quadrature,
        # -1 as delta_hat after every fit) or run silently wrong (NaN closure
        # floors, every fit diverged, degree 1, a NaN bound that no error exceeds,
        # T = 200.7 run as 200, a bool or a string read as a number)
        section, _, leaf = key.rpartition(".")
        while section:  # the value replaces one key of a valid section
            value = {**SECTIONS[section], leaf: value}
            section, _, leaf = section.rpartition(".")
        with pytest.raises(ValueError, match=rf"^{re.escape(key)} must be "):
            smoke_config(**{leaf: value})

    def test_delta_hat_override_takes_a_finite_nonnegative_number(self, smoke_config):
        for value in (None, 0, 2.5):
            assert smoke_config(delta_hat_override=value).delta_hat_override == value

    def test_standard_vdp_takes_only_a_boolean(self, smoke_config):
        system = {"kind": "vanderpol", "params": {"dt": 0.001, "standard_vdp": "false"}}
        # the string "false" used to read as true
        with pytest.raises(ValueError, match="system.params.standard_vdp must be true or false"):
            smoke_config(system=system)
        system["params"]["standard_vdp"] = True
        assert build_system(smoke_config(system=system)).label == "vanderpol-standard"

    def test_true_koopman_uses_noise_variance(self, smoke_config):
        cfg = smoke_config()
        k = true_koopman(cfg)
        expected = closed_quadratic_koopman(
            ClosedQuadraticParams(0.2, 0.3, 1.0), noise_variance=1.0
        )
        np.testing.assert_array_equal(k, expected)


class TestFitRealization:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {
                "system": {"kind": "vanderpol", "params": {"dt": 0.001}},
                "dictionary": {"kind": "monomial", "state_dim": 2, "max_degree": 2},
            },
        ],
        ids=["closed-quadratic", "vanderpol"],
    )
    def test_streamed_fit_matches_materialized(self, smoke_config, overrides):
        # T crosses the 65536-row block boundary
        cfg = smoke_config(**overrides)
        T, seed = 65_573, 2024
        (fit,) = fit_realizations(cfg, T, [seed])
        samples = simulate(
            build_system(cfg), None, T, seed, cfg.divergence_threshold, build_domain(cfg)
        )
        dct = build_dictionary(cfg)
        moments = accumulate(MomentPair.empty(dct), dct, samples)
        est = estimate_koopman(moments)
        assert fit.status == "ok"
        np.testing.assert_array_equal(fit.sigma0, moments.sigma0_hat)
        np.testing.assert_array_equal(fit.estimate.matrix, est.matrix)
        assert fit.estimate.seed == est.seed == seed
        assert fit.estimate.condition_sigma0 == est.condition_sigma0

    def test_divergence_keeps_no_moments(self, smoke_config):
        with pytest.warns(UserWarning, match="diverge"):  # the system is built at load
            cfg = smoke_config(
                system={"kind": "closed-quadratic", "params": {"rho": 2.0, "mu": 4.0, "c": 1.0}},
                divergence_threshold=1e4,
            )
        with pytest.warns(UserWarning, match="diverge"):
            (fit,) = fit_realizations(cfg, 120, [5])
        assert (fit.status, fit.estimate, fit.sigma0) == ("diverged", None, None)


def _assert_same_fit(a, b):
    assert a.status == b.status
    for x, y in ((a.sigma0, b.sigma0), (a.estimate, b.estimate), (a.error, b.error)):
        assert (x is None) == (y is None)
    if a.sigma0 is not None:
        assert a.sigma0.tobytes() == b.sigma0.tobytes()
    if a.estimate is not None:
        assert a.estimate.matrix.tobytes() == b.estimate.matrix.tobytes()
        assert (a.estimate.seed, a.estimate.condition_sigma0) == (
            b.estimate.seed, b.estimate.condition_sigma0
        )
    if a.error is not None:
        assert (a.error.step, a.error.norm) == (b.error.step, b.error.norm)


_BLOCK_CONFIG = config_from_dict(
    {"system": CLOSED_QUADRATIC, "dictionary": {"kind": "closed-quadratic"},
     "T_grid": [40], "base_seed": 1}
)


@lru_cache(maxsize=None)
def _solo_fit(T, seed):
    (fit,) = fit_realizations(_BLOCK_CONFIG, T, [seed])
    return fit


class TestFitRealizations:
    # T = 40 lets a task hold 1,638 seeds, T = 13,200 only 4: each seed then
    # runs alone; both sides of that choice must give the same bits
    @settings(max_examples=15, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 60), min_size=1, max_size=12, unique=True),
        cuts=st.lists(st.integers(1, 11), max_size=4),
        T=st.sampled_from([40, 13_200]),
    )
    def test_any_blocking_matches_solo_fits(self, seeds, cuts, T):
        edges = sorted({c for c in cuts if c < len(seeds)})
        blocks = [seeds[a:b] for a, b in zip([0, *edges], [*edges, len(seeds)])]
        fits = [fit for block in blocks for fit in fit_realizations(_BLOCK_CONFIG, T, block)]
        assert len(fits) == len(seeds)
        for seed, fit in zip(seeds, fits):
            _assert_same_fit(fit, _solo_fit(T, seed))

    def test_block_crosses_the_noise_block(self):
        T, seeds = BLOCK + 37, [11, 12, 13, 14, 15]
        fits = fit_realizations(_BLOCK_CONFIG, T, seeds)
        assert [fit.status for fit in fits] == ["ok"] * len(seeds)
        for seed, fit in zip(seeds, fits):
            _assert_same_fit(fit, _solo_fit(T, seed))

    def test_diverged_realizations_leave_the_block(self, smoke_config):
        # a low threshold: three trajectories stay inside for all 70,000 steps,
        # four leave it in the first noise block and one in the second
        cfg = smoke_config(divergence_threshold=6.5)
        T, seeds = 70_000, list(range(8))
        fits = fit_realizations(cfg, T, seeds)
        assert [fit.status for fit in fits] == ["ok", "diverged", "diverged", "diverged",
                                                "diverged", "ok", "ok", "diverged"]
        assert fits[1].error.step >= BLOCK > max(fits[k].error.step for k in (2, 3, 4, 7))
        system, domain = build_system(cfg), build_domain(cfg)
        for seed, fit in zip(seeds, fits):
            (solo,) = fit_realizations(cfg, T, [seed])
            _assert_same_fit(fit, solo)
            if fit.status == "diverged":
                assert (fit.estimate, fit.sigma0) == (None, None)
                with pytest.raises(DivergenceError) as err:
                    simulate(system, None, T, seed, cfg.divergence_threshold, domain)
                assert err.value.step == fit.error.step
                restored = pickle.loads(pickle.dumps(fit.error))  # crosses the pool
                assert (restored.step, str(restored)) == (fit.error.step, str(fit.error))

    def test_stopping_at_sigma0_skips_only_the_estimate(self):
        seeds = list(range(6))
        full = fit_realizations(_BLOCK_CONFIG, 40, seeds)
        terms = fit_realizations(_BLOCK_CONFIG, 40, seeds, estimate=False)
        for a, b in zip(full, terms):
            assert (b.status, b.estimate) == ("ok", None)
            assert a.sigma0.tobytes() == b.sigma0.tobytes()

    @pytest.mark.parametrize(
        "T, n_seeds, workers",
        [(20, 500, 2), (200, 500, 1), (200, 100, 2), (10_000, 8, 1), (50_000, 8, 2),
         (100_000, 3, 1), (40, 3, 2), (40, 9, 2)],
    )
    def test_seed_blocks(self, T, n_seeds, workers):
        seeds = list(range(n_seeds))
        blocks = _seed_blocks(seeds, T, workers)
        assert [s for block in blocks for s in block] == seeds
        assert len(blocks) >= min(workers, n_seeds)
        size = len(blocks[0])
        assert size * min(T, BLOCK) <= BLOCK  # at most one fit's rows in memory
        assert size == 1 or size >= lockstep_min_seeds(T)
        assert size == 1 or T <= 4096  # long trajectories are fitted alone
        assert all(len(block) <= size for block in blocks)

    def test_lockstep_threshold_grows_with_T(self):
        thresholds = [lockstep_min_seeds(T) for T in (11, 20, 50, 200, 1000, 4096, 50_000)]
        assert thresholds == sorted(thresholds)
        assert thresholds[0] <= 3 and thresholds[-1] > BLOCK // 4097


def _materialized_fit(cfg, T, seed):
    """One seed's fit through simulate -> accumulate -> estimate_koopman,
    classified as fit_realizations classifies it."""
    dct = build_dictionary(cfg)
    try:
        samples = simulate(
            build_system(cfg), None, T, seed, cfg.divergence_threshold, build_domain(cfg)
        )
    except DivergenceError as err:
        return Realization("diverged", None, error=err)
    moments = accumulate(MomentPair.empty(dct), dct, samples)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a fallback is flagged "singular"
            est = estimate_koopman(moments)
    except SampleFloorError:
        return Realization("floor", None, moments.sigma0_hat)
    return Realization("singular" if est.fallback else "ok", est, moments.sigma0_hat)


_NOISELESS = {**CLOSED_QUADRATIC, "noise": {"kind": "none", "std": [1.0]}}
_DEGREE_4 = {"dictionary": {"kind": "monomial", "state_dim": 2, "max_degree": 4},
             "closure_n_states": 15}  # N = 15


class TestStackedFit:
    """A lockstep block's (R, N, N) moments, one eigvalsh and per-realization
    LAPACK solves give each seed the bits of its materialized one-seed fit."""

    @pytest.mark.parametrize(
        "overrides, T, seeds, statuses",
        [
            # seed 4 leaves the bounded region at step 309, the others stay
            ({"divergence_threshold": 4.5}, 500, range(8), ["ok"] * 4 + ["diverged"] + ["ok"] * 3),
            ({}, 10, range(5), ["floor"] * 5),  # T = 2N + 2
            # the noiseless contracting map: seed 2's states collapse fastest
            ({"system": _NOISELESS}, 1000, range(6), ["ok", "ok", "singular", "ok", "ok", "ok"]),
            ({"dictionary": {"kind": "monomial", "state_dim": 2, "max_degree": 2}}, 300,
             range(5), ["ok"] * 5),
            (_DEGREE_4, 300, range(5), ["ok"] * 5),
            # BLOCK rows at N = 15, where a 2-D product could differ from a stacked one
            (_DEGREE_4, BLOCK + 37, [3, 4], ["ok"] * 2),
        ],
        ids=["diverges-mid-block", "floor", "singular", "N=6", "N=15", "N=15-beyond-BLOCK"],
    )
    def test_block_matches_materialized_fits(self, smoke_config, overrides, T, seeds, statuses):
        cfg = smoke_config(**overrides)
        seeds = list(seeds)
        fits = fit_realizations(cfg, T, seeds)
        assert [fit.status for fit in fits] == statuses
        for seed, fit in zip(seeds, fits):
            solo = _materialized_fit(cfg, T, seed)
            _assert_same_fit(fit, solo)
            if fit.estimate is not None:
                assert fit.estimate.fallback == solo.estimate.fallback


class TestRunSweep:
    def test_smoke_outputs(self, smoke_config):
        cfg = smoke_config()
        curve = run_sweep(cfg)
        assert curve.T_values == (200, 400)
        assert all(n == 4 for n in curve.n_ok)
        assert not curve.any_invalid
        out = cfg.output_dir
        assert os.path.exists(os.path.join(out, "sweep.csv"))
        assert os.path.exists(os.path.join(out, "sweep_points.csv"))
        with open(os.path.join(out, "sweep.meta.json")) as fh:
            meta = json.load(fh)
        assert meta["reference"]["kind"] == "analytic"
        assert "initial_conditions" in meta
        with open(os.path.join(out, "sweep.csv")) as fh:
            header = fh.readline().strip()
        assert header == "label,T,n_ok,n_failed,mean_rel_err,std_err"

    def test_noiseless_sweep_degenerate(self, smoke_config):
        cfg = smoke_config(
            system={
                "kind": "closed-quadratic",
                "params": {"rho": 0.2, "mu": 0.3, "c": 1.0},
                "noise": {"kind": "none"},
            },
            T_grid=[60, 120],
            n_realizations=3,
        )
        curve = run_sweep(cfg)
        assert max(curve.mean_rel_err) <= 1e-8
        assert np.isnan(curve.fitted_slope)  # slope fit skipped

    def test_worker_count_does_not_change_bytes(self, smoke_config, tmp_path):
        cfg1 = smoke_config(output_dir=str(tmp_path / "w1"))
        cfg2 = smoke_config(output_dir=str(tmp_path / "w2"))
        run_sweep(cfg1, workers=1)
        run_sweep(cfg2, workers=3)
        for name in ("sweep.csv", "sweep_points.csv"):
            b1 = open(os.path.join(cfg1.output_dir, name), "rb").read()
            b2 = open(os.path.join(cfg2.output_dir, name), "rb").read()
            assert b1 == b2

    def test_divergent_system_flagged_invalid(self, smoke_config):
        with pytest.warns(UserWarning, match="diverge"):  # the system is built at load
            cfg = smoke_config(
                system={
                    "kind": "closed-quadratic",
                    # pure doubling map: every trajectory exits the threshold
                    "params": {"rho": 2.0, "mu": 4.0, "c": 1.0},
                    "noise": {"kind": "gaussian-iid", "std": [1.0, 1.0]},
                },
                T_grid=[120],
                n_realizations=4,
                divergence_threshold=1e4,
            )
        with pytest.warns(UserWarning, match="diverge"):
            curve = run_sweep(cfg)
        assert curve.any_invalid
        assert curve.n_failed[0] == 4


class TestRunBoundCalibration:
    def test_rows_and_rates(self, smoke_config):
        cfg = smoke_config(epsilon_list=[0.1, 0.5])
        results = run_bound_calibration(cfg)
        assert len(results) == len(cfg.T_grid) * 2
        for report in results:
            assert report.violation_rate <= report.epsilon
            assert report.pf_bound >= report.koopman_bound
        path = os.path.join(cfg.output_dir, "bounds.csv")
        with open(path) as fh:
            header = fh.readline().strip()
        assert header == (
            "label,T,epsilon,delta_hat,mean_trace_sigma0,mean_frob_sq_inv_sigma0,"
            "koopman_bound,pf_bound,violation_rate"
        )

    def test_epsilon_linearity_shared_terms(self, smoke_config):
        cfg = smoke_config(epsilon_list=[0.1, 0.5])
        results = run_bound_calibration(cfg)
        by_t = {}
        for report in results:
            by_t.setdefault(report.sample_count, {})[report.epsilon] = report
        for t, reports in by_t.items():
            assert reports[0.1].koopman_bound == pytest.approx(
                5.0 * reports[0.5].koopman_bound, rel=1e-12
            )

    def test_requires_ground_truth(self, smoke_config):
        cfg = smoke_config(
            dictionary={"kind": "monomial", "state_dim": 2, "max_degree": 2}
        )
        with pytest.raises(ValueError, match="ground-truth"):
            run_bound_calibration(cfg)

    def test_noiseless_bounds_and_rates_vanish(self, smoke_config):
        cfg = smoke_config(
            system={
                "kind": "closed-quadratic",
                "params": {"rho": 0.2, "mu": 0.3, "c": 1.0},
                "noise": {"kind": "none"},
            },
            T_grid=[60, 120],
            n_realizations=3,
            n_term_realizations=3,
        )
        results = run_bound_calibration(cfg)
        assert len(results) == 2
        for report in results:
            # bound collapses to solver roundoff scale without noise
            assert report.koopman_bound <= 1e-6
            assert report.n_violations == 0
            assert report.violation_rate == 0.0

    def test_diverging_term_realization_named(self, smoke_config):
        # the pure doubling map leaves the config's threshold of 1e4 long
        # before the default 1e6
        with pytest.warns(UserWarning, match="diverge"):  # the system is built at load
            cfg = smoke_config(
                system={"kind": "closed-quadratic", "params": {"rho": 2.0, "mu": 4.0, "c": 1.0}},
                T_grid=[120],
                divergence_threshold=1e4,
            )
        with pytest.warns(UserWarning, match="diverge"):
            with pytest.raises(RuntimeError, match=r"T=120\b.*diverged"):
                run_bound_calibration(cfg)

    def test_delta_hat_trajectory_stepped_once_per_T(self, smoke_config, monkeypatch):
        cfg = smoke_config(T_grid=[60, 120], n_realizations=3, n_term_realizations=3)
        stepped = []
        chunks = dynamics.trajectory_chunks

        def counted(system, x0, steps, seeds, *args):
            stepped.extend((steps, int(seed)) for seed in seeds)
            return chunks(system, x0, steps, seeds, *args)

        monkeypatch.setattr(dynamics, "trajectory_chunks", counted)
        monkeypatch.setattr(experiments, "trajectory_chunks", counted)
        run_bound_calibration(cfg)
        for T in cfg.T_grid:
            assert stepped.count((T, derive_seed(cfg.base_seed, T, DELTA_STREAM))) == 1

    def test_diverging_delta_hat_trajectory_named(self, smoke_config, monkeypatch):
        def diverged(*args):
            raise DivergenceError(7, float("inf"), 1e6)

        monkeypatch.setattr(experiments, "simulate", diverged)
        with pytest.raises(RuntimeError, match=r"delta_hat fit at T=60\b.*diverged at step 7"):
            run_bound_calibration(smoke_config(T_grid=[60]))

    def test_markov_calibration_small(self, smoke_config):
        cfg = smoke_config(
            T_grid=[2000],
            n_realizations=100,
            n_term_realizations=20,
            epsilon_list=[0.25, 0.5, 0.99],
        )
        results = run_bound_calibration(cfg)
        assert [report.epsilon for report in results] == [0.25, 0.5, 0.99]
        for report in results:
            assert report.n_realizations + report.n_failed == 100
            assert report.violation_rate <= report.epsilon


class TestRunPFPipeline:
    def test_duality_and_transfer(self, smoke_config):
        cfg = smoke_config()
        pf_est, report = run_pf_pipeline(cfg)
        assert report["duality_defect"] <= 1e-10
        assert report["transfer_total"] == 4
        assert report["transfer_ok"] == 4
        out = cfg.output_dir
        for name in ("pf_matrix.csv", "pf_matrix.meta.json", "gram.csv", "pf_report.csv"):
            assert os.path.exists(os.path.join(out, name))
        with open(os.path.join(out, "pf_matrix.meta.json")) as fh:
            meta = json.load(fh)
        assert meta["operator_kind"] == "perron-frobenius"
        assert meta["cond_lambda"] >= 1.0


class TestRunClosure:
    def test_closed_pair_small_defects(self, smoke_config):
        cfg = smoke_config(closure_n_mc=4000)
        defects = run_closure(cfg)
        assert defects.shape == (4,)
        assert defects.max() < 0.5
        path = os.path.join(cfg.output_dir, "closure.csv")
        with open(path) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "basis,defect"
        assert len(lines) == 5


class TestCsvOutputs:
    def test_label_with_comma_round_trips(self, smoke_config):
        # hand-joined rows used to split "a,b" into two fields under the header
        cfg = smoke_config(label="a,b", T_grid=[200], n_realizations=2)
        run_sweep(cfg)
        run_bound_calibration(cfg)
        run_pf_pipeline(cfg)
        for name, n_rows in (("sweep.csv", 1), ("sweep_points.csv", 2),
                             ("bounds.csv", 1), ("pf_report.csv", 1)):
            with open(os.path.join(cfg.output_dir, name), newline="") as fh:
                reader = csv.DictReader(fh)
                rows = list(reader)
            assert len(rows) == n_rows
            for row in rows:
                assert None not in row and None not in row.values()
                assert row["label"] == "a,b"
                assert int(row["T"]) == 200
