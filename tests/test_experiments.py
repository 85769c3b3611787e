import json
import os

import numpy as np
import pytest

from koopest import (
    closed_quadratic_koopman,
    ClosedQuadraticParams,
    MomentPair,
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
from koopest.experiments import (
    build_dictionary,
    build_domain,
    build_system,
    fit_realization,
    true_koopman,
)

CLOSED_QUADRATIC = {"kind": "closed-quadratic", "params": {"rho": 0.2, "mu": 0.3, "c": 1.0}}


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
        fit = fit_realization(cfg, T, seed)
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
        cfg = smoke_config(
            system={"kind": "closed-quadratic", "params": {"rho": 2.0, "mu": 4.0, "c": 1.0}},
            divergence_threshold=1e4,
        )
        with pytest.warns(UserWarning, match="diverge"):
            fit = fit_realization(cfg, 120, seed=5)
        assert (fit.status, fit.estimate, fit.sigma0) == ("diverged", None, None)


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
        for report, stats in results:
            assert stats.violation_rate <= report.epsilon
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
        for report, _ in results:
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
        for report, stats in results:
            # bound collapses to solver roundoff scale without noise
            assert report.koopman_bound <= 1e-6
            assert stats.n_violations == 0
            assert stats.violation_rate == 0.0

    def test_diverging_term_realization_named(self, smoke_config):
        # the pure doubling map leaves the config's threshold of 1e4 long
        # before the default 1e6
        cfg = smoke_config(
            system={"kind": "closed-quadratic", "params": {"rho": 2.0, "mu": 4.0, "c": 1.0}},
            T_grid=[120],
            divergence_threshold=1e4,
        )
        with pytest.warns(UserWarning, match="diverge"):
            with pytest.raises(RuntimeError, match=r"T=120\b.*diverged"):
                run_bound_calibration(cfg)

    def test_markov_calibration_small(self, smoke_config):
        cfg = smoke_config(
            T_grid=[2000],
            n_realizations=100,
            n_term_realizations=20,
            epsilon_list=[0.25, 0.5, 0.99],
        )
        results = run_bound_calibration(cfg)
        assert [report.epsilon for report, _ in results] == [0.25, 0.5, 0.99]
        for report, stats in results:
            assert stats.n_realizations + stats.n_failed == 100
            assert stats.violation_rate <= report.epsilon


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
