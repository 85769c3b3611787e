import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopest import (
    BoundReport,
    BoundTerms,
    SampleFloorError,
    bound_terms,
    evaluate_many,
    koopman_error_bound,
    make_closed_quadratic,
    mix_seed,
    run_bound_calibration,
    simulate,
)
from koopest.experiments import build_dictionary, fit_realizations


def term_sigma0s(config, T, n_realizations, seed):
    """S0 of each bound-term realization, fitted as the calibration fits them."""
    seeds = [mix_seed(seed, r) for r in range(n_realizations)]
    return [fit.sigma0 for fit in fit_realizations(config, T, seeds, estimate=False)]


class TestBoundTerms:
    def test_constant_dictionary_is_degenerate(self, smoke_config):
        # with only the constant observable, S0 = [[1]] for every realization
        cfg = smoke_config(dictionary={"kind": "monomial", "state_dim": 2, "max_degree": 0})
        terms = bound_terms(term_sigma0s(cfg, T=10, n_realizations=5, seed=1))
        assert terms.mean_trace_sigma0 == pytest.approx(1.0, abs=1e-12)
        assert terms.mean_frob_sq_inv_sigma0 == pytest.approx(1.0, abs=1e-12)
        assert terms.se_trace == pytest.approx(0.0, abs=1e-12)

    def test_trace_matches_long_run_oracle(self, smoke_config, baseline_params):
        # independent oracle: stationary time average of sum_k psi_k(x)^2
        cfg = smoke_config()
        T = 2000
        terms = bound_terms(term_sigma0s(cfg, T, n_realizations=60, seed=2))

        long_ss = simulate(make_closed_quadratic(baseline_params), np.zeros(2), 400_000, seed=3)
        psi = evaluate_many(build_dictionary(cfg), long_ss.xs[5000:])
        sq = np.sum(psi * psi, axis=1)
        batches = sq.reshape(100, -1).mean(axis=1)
        ref = float(batches.mean())
        se_ref = float(batches.std(ddof=1) / np.sqrt(batches.size))
        tol = 3.0 * np.sqrt(terms.se_trace**2 + se_ref**2)
        assert abs(terms.mean_trace_sigma0 - ref) <= tol

    def test_doubling_realizations_consistent(self, smoke_config):
        cfg = smoke_config()
        a = bound_terms(term_sigma0s(cfg, T=500, n_realizations=40, seed=7))
        b = bound_terms(term_sigma0s(cfg, T=500, n_realizations=80, seed=7))
        tol = 3.0 * np.sqrt(a.se_trace**2 + b.se_trace**2)
        assert abs(a.mean_trace_sigma0 - b.mean_trace_sigma0) <= tol
        tol = 3.0 * np.sqrt(a.se_frob**2 + b.se_frob**2)
        assert abs(a.mean_frob_sq_inv_sigma0 - b.mean_frob_sq_inv_sigma0) <= tol

    def test_floor_enforced(self, smoke_config):
        # T = 10 = 2N+2 for N = 4: the fit is refused but its S0 is kept,
        # and the bound itself refuses the sample count
        (fit,) = fit_realizations(smoke_config(), 10, [0])
        assert fit.status == "floor"
        assert fit.estimate is None
        assert fit.sigma0.shape == (4, 4)
        terms = bound_terms([fit.sigma0, fit.sigma0])
        with pytest.raises(SampleFloorError):
            koopman_error_bound(1.0, 0.5, 10, terms)

    @pytest.mark.parametrize(
        "dictionary",
        [{"kind": "closed-quadratic"},
         {"kind": "monomial", "state_dim": 2, "max_degree": 2},
         {"kind": "monomial", "state_dim": 2, "max_degree": 4}],
        ids=["N=4", "N=6", "N=15"],
    )
    def test_stack_equals_the_per_matrix_loop(self, smoke_config, dictionary):
        cfg = smoke_config(dictionary=dictionary, closure_n_states=15)
        sigma0s = term_sigma0s(cfg, T=300, n_realizations=12, seed=11)
        n = sigma0s[0].shape[0]
        sigma0s.insert(5, np.diag([1.0] * (n - 1) + [1e-15]))  # condition 1e15: excluded
        terms = bound_terms(np.array(sigma0s))
        traces, frobs = [], []
        for s0 in sigma0s:  # one eigendecomposition and one solve per matrix
            w = np.linalg.eigvalsh(0.5 * (s0 + s0.T))
            if w[0] <= 0 or w[-1] / w[0] > 1e14:
                continue
            inv = np.linalg.solve(s0, np.eye(n))
            traces.append(float(np.trace(s0)))
            frobs.append(float(np.sum(inv * inv)))
        traces, frobs = np.array(traces), np.array(frobs)
        assert (terms.n_realizations, terms.n_excluded, terms.n_basis) == (12, 1, n)
        assert terms.mean_trace_sigma0 == float(traces.mean())
        assert terms.mean_frob_sq_inv_sigma0 == float(frobs.mean())
        assert terms.se_trace == float(traces.std(ddof=1) / np.sqrt(12))
        assert terms.se_frob == float(frobs.std(ddof=1) / np.sqrt(12))

    def test_all_singular_is_an_error(self):
        with pytest.raises(RuntimeError, match="singular"):
            bound_terms(np.ones((3, 4, 4)))

    def test_needs_two_realizations(self):
        with pytest.raises(ValueError, match="two realizations"):
            bound_terms([np.eye(4)])


class TestErrorBound:
    def terms(self):
        return BoundTerms(
            mean_trace_sigma0=6.0,
            mean_frob_sq_inv_sigma0=5.0,
            se_trace=0.1,
            se_frob=0.1,
            n_basis=4,
            n_realizations=50,
        )

    def test_zero_noise_zero_bound(self):
        assert koopman_error_bound(0.0, 0.5, 100, self.terms()) == 0.0

    @pytest.mark.parametrize("delta_hat", [-1.0, float("nan")], ids=["negative", "nan"])
    def test_bad_delta_hat_rejected(self, delta_hat):
        # a NaN used to pass, giving a NaN bound that no error exceeds
        with pytest.raises(ValueError, match="delta_hat must be nonnegative"):
            koopman_error_bound(delta_hat, 0.5, 100, self.terms())

    def test_quarter_T_scaling_exact(self):
        b1 = koopman_error_bound(2.0, 0.3, 100, self.terms())
        b2 = koopman_error_bound(2.0, 0.3, 400, self.terms())
        assert b2 == pytest.approx(b1 / 2.0, rel=1e-14)

    def test_epsilon_scaling_exact(self):
        b_half = koopman_error_bound(2.0, 0.5, 100, self.terms())
        b_tenth = koopman_error_bound(2.0, 0.1, 100, self.terms())
        assert b_tenth == pytest.approx(5.0 * b_half, rel=1e-14)

    def test_delta_scaling_exact(self):
        b1 = koopman_error_bound(1.0, 0.5, 100, self.terms())
        b4 = koopman_error_bound(4.0, 0.5, 100, self.terms())
        assert b4 == pytest.approx(2.0 * b1, rel=1e-14)

    @settings(max_examples=300, deadline=None)
    @given(
        delta=st.lists(st.floats(1e-8, 1e8), min_size=2, max_size=2),
        eps=st.lists(st.floats(1e-3, 0.999), min_size=2, max_size=2),
        T=st.lists(st.integers(11, 10**9), min_size=2, max_size=2),
        factors=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=2),
    )
    def test_linear_in_inverse_eps_sqrt_delta_inverse_sqrt_T(self, delta, eps, T, factors):
        terms = BoundTerms(*factors, se_trace=0.1, se_frob=0.1, n_basis=4, n_realizations=50)
        b = koopman_error_bound(delta[0], eps[0], T[0], terms)
        assert koopman_error_bound(delta[1], eps[0], T[0], terms) == pytest.approx(
            b * np.sqrt(delta[1] / delta[0]), rel=1e-13
        )
        assert koopman_error_bound(delta[0], eps[1], T[0], terms) == pytest.approx(
            b * eps[0] / eps[1], rel=1e-13
        )
        assert koopman_error_bound(delta[0], eps[0], T[1], terms) == pytest.approx(
            b * np.sqrt(T[0] / T[1]), rel=1e-13
        )

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            koopman_error_bound(1.0, 1.5, 100, self.terms())
        with pytest.raises(SampleFloorError):
            koopman_error_bound(1.0, 0.5, 10, self.terms())
        with pytest.raises(ValueError):
            koopman_error_bound(-1.0, 0.5, 100, self.terms())


class TestBoundReport:
    TERMS = BoundTerms(6.0, 5.0, 0.1, 0.1, 4, 50)

    def test_recomputable_and_dominated(self):
        bound = koopman_error_bound(2.0, 0.25, 1000, self.TERMS)
        assert bound == pytest.approx(np.sqrt(2.0) / (0.25 * np.sqrt(1000)) * np.sqrt(30.0),
                                      rel=1e-12)
        report = BoundReport(0.25, 1000, 2.0, self.TERMS, bound, 14.0 * bound, 14.0, 10, 2, 0)
        assert report.pf_bound >= report.koopman_bound
        with pytest.raises(ValueError, match="undercut"):
            BoundReport(0.25, 1000, 2.0, self.TERMS, bound, 0.5 * bound, 0.5, 10, 2, 0)
        with pytest.raises(ValueError, match="epsilon"):
            BoundReport(1.0, 1000, 2.0, self.TERMS, bound, bound, 1.0, 10, 2, 0)


class TestViolationRate:
    # Violation rates are scored by run_bound_calibration; the larger Markov
    # calibration lives in test_experiments.py (TestRunBoundCalibration).
    def test_noiseless_has_no_violations(self, smoke_config):
        # Checked for violations only: the state contracts onto a point, S0 is
        # near-singular and E[|S0^-1|_F^2] is huge, so the bound is ~3e-6
        # rather than roundoff.
        cfg = smoke_config(
            system={
                "kind": "closed-quadratic",
                "params": {"rho": 0.2, "mu": 0.3, "c": 1.0},
                "noise": {"kind": "none"},
            },
            T_grid=[100],
            n_realizations=20,
            n_term_realizations=5,
        )
        results = run_bound_calibration(cfg)
        assert len(results) == 1
        for report in results:
            assert report.n_violations == 0
            assert report.violation_rate == 0.0

    def test_stats_invariant(self):
        # the rate is derived from the counts, never stored beside them
        terms = TestBoundReport.TERMS
        report = BoundReport(0.5, 100, 1.0, terms, 1.0, 1.0, 1.0, 10, 2, 1)
        assert report.violation_rate == 0.2
        with pytest.raises(AttributeError):
            report.violation_rate = 0.5
        with pytest.raises(ValueError, match="at least one realization"):
            BoundReport(0.5, 100, 1.0, terms, 1.0, 1.0, 1.0, 0, 0, 10)
