import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from koopest import (
    ClosedQuadraticParams,
    MomentPair,
    NoiseModel,
    SampleFloorError,
    SampleSet,
    accumulate,
    closed_quadratic_dictionary,
    closed_quadratic_koopman,
    closure_check,
    estimate_koopman,
    evaluate,
    make_closed_quadratic,
    make_monomial_dictionary,
    make_vanderpol,
    residuals,
    simulate,
    evaluate_many,
    step_pairs,
    unit_box,
)
from koopest import basis, dynamics, estimator
from koopest.dynamics import BLOCK
from koopest.seeding import make_rng, mix_seed


def uniform_states(n, seed=0, lo=-1.0, hi=1.0):
    return make_rng(seed).uniform(lo, hi, size=(n, 2))


def lifted_apart(dct, samples):
    """Each ``BLOCK`` of pairs with its predecessors and successors lifted
    separately, as pairs that do not chain are lifted."""
    for start in range(0, samples.n_samples, BLOCK):
        stop = start + BLOCK
        yield evaluate_many(dct, samples.xs[start:stop]), evaluate_many(dct, samples.ys[start:stop])


class TestMomentAccumulation:
    def test_single_pair_definition(self, baseline_params):
        dct = closed_quadratic_dictionary()
        x = np.array([0.3, -0.5])
        y = np.array([0.1, 0.7])
        ss = SampleSet(x[None, :], y[None, :], 0)
        m = accumulate(MomentPair.empty(dct), dct, ss)
        px, py = evaluate(dct, x), evaluate(dct, y)
        np.testing.assert_allclose(m.sigma0_hat, np.outer(px, px))
        np.testing.assert_allclose(m.sigma1_hat, np.outer(px, py))
        assert m.count == 1

    def test_absorbing_twice_doubles_count(self, baseline_params):
        dct = closed_quadratic_dictionary()
        system = make_closed_quadratic(baseline_params)
        ss = simulate(system, np.zeros(2), 100, seed=21)
        m1 = accumulate(MomentPair.empty(dct), dct, ss)
        s0 = m1.sigma0_hat.copy()
        accumulate(m1, dct, ss)
        assert m1.count == 200
        np.testing.assert_allclose(m1.sigma0_hat, s0, rtol=1e-14)

    def test_stationary_second_moment(self, baseline_params):
        # AR(1) oracle: stationary E[x1^2] = 1 / (1 - rho^2)
        dct = closed_quadratic_dictionary()
        system = make_closed_quadratic(baseline_params)
        ss = simulate(system, np.zeros(2), 10**5, seed=33)
        m = accumulate(MomentPair.empty(dct), dct, ss)
        target = 1.0 / (1.0 - baseline_params.rho**2)
        assert m.sigma0_hat[1, 1] == pytest.approx(target, rel=0.05)

    def test_single_trajectory_lifts_each_state_once(self, baseline_params, monkeypatch):
        dct = closed_quadratic_dictionary()
        chained = simulate(make_closed_quadratic(baseline_params), np.zeros(2), BLOCK + 50, seed=9)
        rows = []
        lift = estimator.evaluate_many
        monkeypatch.setattr(
            estimator, "evaluate_many", lambda d, xs: rows.append(len(xs)) or lift(d, xs)
        )
        once = accumulate(MomentPair.empty(dct), dct, chained)
        assert rows == [BLOCK + 1, 51]  # each block's m + 1 states
        sums = np.zeros((4, dct.n_basis, dct.n_basis))
        for psi_x, psi_y in lifted_apart(dct, chained):
            estimator.add_moments(sums, psi_x, psi_y)
        twice = (sums[0::2] - sums[1::2]) / chained.n_samples
        assert once.sigma0_hat.tobytes() == twice[0].tobytes()
        assert once.sigma1_hat.tobytes() == twice[1].tobytes()

    def test_merge_matches_single_pass(self, baseline_params):
        dct = closed_quadratic_dictionary()
        system = make_closed_quadratic(baseline_params)
        ss = simulate(system, np.zeros(2), 5000, seed=44)
        whole = accumulate(MomentPair.empty(dct), dct, ss)
        cuts = [0, 17, 1203, 1204, 4999, 5000]
        merged = MomentPair.empty(dct)
        for a, b in zip(cuts[:-1], cuts[1:]):
            sub = SampleSet(ss.xs[a:b], ss.ys[a:b], ss.seed)
            accumulate(merged, dct, sub)
        assert merged.count == whole.count
        np.testing.assert_allclose(merged.sigma0_hat, whole.sigma0_hat, rtol=1e-13)
        np.testing.assert_allclose(merged.sigma1_hat, whole.sigma1_hat, rtol=1e-13)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 2999), max_size=12, unique=True))
    def test_merge_over_any_partition_matches_single_pass(self, inner_cuts):
        dct = closed_quadratic_dictionary()
        system = make_closed_quadratic(ClosedQuadraticParams(rho=0.2, mu=0.3, c=1.0))
        ss = simulate(system, np.zeros(2), 3000, seed=45)
        whole = accumulate(MomentPair.empty(dct), dct, ss)
        cuts = [0, *sorted(inner_cuts), 3000]
        merged = MomentPair.empty(dct)
        for a, b in zip(cuts[:-1], cuts[1:]):
            sub = SampleSet(ss.xs[a:b], ss.ys[a:b], ss.seed)
            accumulate(merged, dct, sub)
        assert merged.count == whole.count
        np.testing.assert_allclose(merged.sigma0_hat, whole.sigma0_hat, rtol=1e-13)
        np.testing.assert_allclose(merged.sigma1_hat, whole.sigma1_hat, rtol=1e-13)

    def test_merge_order_insensitive(self, baseline_params):
        dct = closed_quadratic_dictionary()
        system = make_closed_quadratic(baseline_params)
        a = simulate(system, np.zeros(2), 400, seed=1)
        b = simulate(system, np.zeros(2), 600, seed=2)
        ab = accumulate(accumulate(MomentPair.empty(dct), dct, a), dct, b)
        ba = accumulate(accumulate(MomentPair.empty(dct), dct, b), dct, a)
        np.testing.assert_allclose(ab.sigma0_hat, ba.sigma0_hat, rtol=1e-13)
        np.testing.assert_allclose(ab.sigma1_hat, ba.sigma1_hat, rtol=1e-13)
        assert (ab.count, ab.seed, ba.seed, ab.names) == (1000, 1, 2, dct.names)

    def test_dimension_mismatch(self, baseline_params):
        dct = make_monomial_dictionary(3, 1)
        system = make_closed_quadratic(baseline_params)
        ss = simulate(system, np.zeros(2), 10, seed=0)
        with pytest.raises(ValueError, match="dimension"):
            accumulate(MomentPair.empty(dct), dct, ss)

    def test_positive_semidefinite_and_symmetric(self, baseline_params):
        dct = closed_quadratic_dictionary()
        system = make_closed_quadratic(baseline_params)
        ss = simulate(system, np.zeros(2), 1000, seed=5)
        m = accumulate(MomentPair.empty(dct), dct, ss)
        s0 = m.sigma0_hat
        assert np.abs(s0 - s0.T).max() < 1e-12
        assert np.linalg.eigvalsh(s0).min() > -1e-10


class TestEstimateKoopman:
    def test_exact_recovery_noiseless(self, baseline_params):
        system = make_closed_quadratic(baseline_params, noise=NoiseModel.none())
        dct = closed_quadratic_dictionary()
        ss = step_pairs(system, uniform_states(200, seed=10), seed=11)
        est = estimate_koopman(accumulate(MomentPair.empty(dct), dct, ss))
        k_true = closed_quadratic_koopman(baseline_params, noise_variance=0.0)
        assert np.linalg.norm(est.matrix - k_true, "fro") <= 1e-8
        assert not est.fallback

    def test_identity_map(self):
        dct = closed_quadratic_dictionary()
        xs = uniform_states(60, seed=12)
        ss = SampleSet(xs, xs, 0)
        est = estimate_koopman(accumulate(MomentPair.empty(dct), dct, ss))
        assert np.linalg.norm(est.matrix - np.eye(4), "fro") <= 1e-10

    def test_sample_floor_refusal(self, baseline_params):
        dct = closed_quadratic_dictionary()
        system = make_closed_quadratic(baseline_params)
        ss = simulate(system, np.zeros(2), 10, seed=1)
        m = accumulate(MomentPair.empty(dct), dct, ss)
        with pytest.raises(SampleFloorError, match=r"2N\+2 = 10 samples for N = 4; got 10"):
            estimate_koopman(m)

    def test_just_above_floor_succeeds(self, baseline_params):
        dct = closed_quadratic_dictionary()
        system = make_closed_quadratic(baseline_params)
        ss = simulate(system, np.zeros(2), 11, seed=1)
        est = estimate_koopman(accumulate(MomentPair.empty(dct), dct, ss))
        assert est.sample_count == 11

    def test_normal_equation_identity(self, baseline_params):
        dct = closed_quadratic_dictionary()
        system = make_closed_quadratic(baseline_params)
        m = accumulate(
            MomentPair.empty(dct), dct, simulate(system, np.zeros(2), 2000, seed=3)
        )
        est = estimate_koopman(m)
        assert not est.fallback
        resid = m.sigma0_hat @ est.matrix - m.sigma1_hat
        assert np.linalg.norm(resid, "fro") <= 1e-10

    def test_singular_moments_fall_back(self):
        # x1 frozen makes the constant and x1^2 columns proportional
        dct = closed_quadratic_dictionary()
        xs = uniform_states(40, seed=13)
        xs[:, 0] = 0.5
        ss = SampleSet(xs, xs, 0)
        m = accumulate(MomentPair.empty(dct), dct, ss)
        with pytest.warns(UserWarning, match="singular"):
            est = estimate_koopman(m)
        assert est.fallback

    def test_provenance_fields(self, baseline_params):
        dct = closed_quadratic_dictionary()
        system = make_closed_quadratic(baseline_params)
        ss = simulate(system, np.zeros(2), 50, seed=91)
        est = estimate_koopman(accumulate(MomentPair.empty(dct), dct, ss))
        assert est.dict_names == dct.names
        assert est.seed == 91
        assert est.condition_sigma0 >= 1.0

    def test_consistency_error_decreases_with_T(self, baseline_params):
        system = make_closed_quadratic(baseline_params)
        dct = closed_quadratic_dictionary()
        k_true = closed_quadratic_koopman(baseline_params, 1.0)
        grid = [100, 1000, 10000, 100000]
        n_seeds = 50
        means = []
        for T in grid:
            errs = []
            for r in range(n_seeds):
                ss = simulate(
                    system, None, T, seed=mix_seed(500, T, r), domain=unit_box(2)
                )
                est = estimate_koopman(accumulate(MomentPair.empty(dct), dct, ss))
                errs.append(np.linalg.norm(est.matrix - k_true, "fro"))
            means.append(np.mean(errs))
        assert all(a > b for a, b in zip(means[:-1], means[1:]))


def _dictionary(max_degree):
    if max_degree is None:
        return closed_quadratic_dictionary()  # N = 4
    return make_monomial_dictionary(2, max_degree)


class TestEstimateStack:
    """Stacked moments and solves equal the one-realization forms bit for bit."""

    @pytest.mark.parametrize(
        "max_degree, m", [(None, 21), (None, 200), (2, 4097), (4, 50), (4, BLOCK)],
        ids=["N=4-m=21", "N=4-m=200", "N=6-m=4097", "N=15-m=50", "N=15-m=BLOCK"],
    )
    def test_stacked_sums_match_accumulate(self, baseline_params, max_degree, m):
        dct = _dictionary(max_degree)
        system = make_closed_quadratic(baseline_params)
        trajectories = [simulate(system, None, m, seed=s, domain=unit_box(2)) for s in (5, 6, 7)]
        psi = np.stack([evaluate_many(dct, ss.states) for ss in trajectories])
        sums = np.zeros((4, len(trajectories), dct.n_basis, dct.n_basis))
        estimator.add_moments(sums, psi[:, :-1], psi[:, 1:])
        sigma0, sigma1 = (sums[0::2] - sums[1::2]) / m
        for r, ss in enumerate(trajectories):
            one = accumulate(MomentPair.empty(dct), dct, ss)
            assert sigma0[r].tobytes() == one.sigma0_hat.tobytes()
            assert sigma1[r].tobytes() == one.sigma1_hat.tobytes()

    @pytest.mark.parametrize("max_degree", [None, 2, 4], ids=["N=4", "N=6", "N=15"])
    def test_stack_matches_estimate_koopman(self, baseline_params, max_degree):
        dct = _dictionary(max_degree)
        system = make_closed_quadratic(baseline_params)
        frozen = uniform_states(300, seed=13)
        frozen[:, 0] = 0.5  # x1 frozen: S0 singular, a fallback in mid-stack
        sample_sets = [simulate(system, None, 299, seed=s, domain=unit_box(2)) for s in (1, 2)]
        sample_sets += [SampleSet(frozen[:-1], frozen[1:], 3)]
        sample_sets += [simulate(system, None, 299, seed=4, domain=unit_box(2))]
        moments = [accumulate(MomentPair.empty(dct), dct, ss) for ss in sample_sets]
        k_hat, conds, fallback = estimator.estimate_stack(
            np.array([mom.sigma0_hat for mom in moments]),
            np.array([mom.sigma1_hat for mom in moments]),
            299,
        )
        assert (k_hat.shape, conds.shape) == ((4, dct.n_basis, dct.n_basis), (4,))
        assert fallback.dtype == bool and fallback.tolist() == [False, False, True, False]
        for mom, k, cond, flagged in zip(moments, k_hat, conds, fallback):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                one = estimate_koopman(mom)
            # the per-matrix forms: eigvalsh, then cho_factor/cho_solve or lstsq
            s0 = 0.5 * (mom.sigma0_hat + mom.sigma0_hat.T)
            w = np.linalg.eigvalsh(s0)
            if flagged:
                ref = np.linalg.lstsq(s0, mom.sigma1_hat, rcond=None)[0]
            else:
                ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(s0), mom.sigma1_hat)
                assert cond == float(w[-1] / w[0])
            assert k.tobytes() == ref.tobytes() == one.matrix.tobytes()
            assert (cond, flagged) == (one.condition_sigma0, one.fallback)

    def test_non_finite_moments_rejected(self):
        s0 = np.stack([np.eye(4), np.full((4, 4), np.nan)])
        with pytest.raises(ValueError, match="non-finite"):
            estimator.estimate_stack(s0, np.zeros((2, 4, 4)), 20)

    def test_non_finite_estimate_rejected(self):
        # finite, well-conditioned moments whose solve overflows
        s0 = np.stack([np.eye(4), 1e-300 * np.eye(4)])
        s1 = np.stack([np.eye(4), np.full((4, 4), 1e300)])
        with pytest.raises(ValueError, match="^operator matrix entries must be finite$"):
            estimator.estimate_stack(s0, s1, 20)

    def test_floor_checked_for_the_whole_stack(self):
        s0 = np.stack([np.eye(4)] * 3)
        with pytest.raises(SampleFloorError, match=r"2N\+2 = 10 samples for N = 4; got 10$"):
            estimator.estimate_stack(s0, s0, 10)
        assert estimator.estimate_stack(s0, s0, 11)[0].tobytes() == s0.tobytes()


class TestUnbiasedness:
    def test_mean_moment_matches_long_run(self, baseline_params):
        # average of 200 independent short-run moment matrices vs one long
        # stationary run (batch-means standard errors for the reference)
        system = make_closed_quadratic(baseline_params)
        dct = closed_quadratic_dictionary()
        T = 2000
        reps = 200
        acc = np.zeros((reps, 4, 4))
        for r in range(reps):
            ss = simulate(system, None, T, seed=mix_seed(900, r), domain=unit_box(2))
            acc[r] = accumulate(MomentPair.empty(dct), dct, ss).sigma0_hat
        mean_short = acc.mean(axis=0)
        se_short = acc.std(axis=0, ddof=1) / np.sqrt(reps)

        long_ss = simulate(system, np.zeros(2), 510_000, seed=901)
        from koopest import evaluate_many

        psi = evaluate_many(dct, long_ss.xs[10_000:])  # drop burn-in
        n_batches = 100
        batches = psi.reshape(n_batches, -1, 4)
        batch_moments = np.einsum("bti,btj->bij", batches, batches) / batches.shape[1]
        ref = batch_moments.mean(axis=0)
        se_ref = batch_moments.std(axis=0, ddof=1) / np.sqrt(n_batches)

        tol = 3.0 * np.sqrt(se_short**2 + se_ref**2) + 1e-12
        assert (np.abs(mean_short - ref) <= tol).all()


class TestResiduals:
    def test_exact_model_zero_residuals(self, baseline_params):
        system = make_closed_quadratic(baseline_params, noise=NoiseModel.none())
        dct = closed_quadratic_dictionary()
        ss = step_pairs(system, uniform_states(200, seed=14), seed=15)
        est = estimate_koopman(accumulate(MomentPair.empty(dct), dct, ss))
        assert residuals(dct, ss, est.matrix).max() <= 1e-20

    def test_linear_components_have_unit_variance(self, baseline_params):
        system = make_closed_quadratic(baseline_params)
        dct = closed_quadratic_dictionary()
        ss = simulate(system, np.zeros(2), 10**5, seed=16)
        est = estimate_koopman(accumulate(MomentPair.empty(dct), dct, ss))
        mean_sq = residuals(dct, ss, est.matrix)
        # x1 and x2 residuals are exactly the injected unit-variance noise
        assert mean_sq.shape == (dct.n_basis,)
        assert mean_sq[1] == pytest.approx(1.0, rel=0.10)
        assert mean_sq[2] == pytest.approx(1.0, rel=0.10)

    def test_constant_observable_residual_vanishes(self, baseline_params):
        system = make_closed_quadratic(baseline_params)
        dct = closed_quadratic_dictionary()
        ss = simulate(system, np.zeros(2), 5000, seed=17)
        est = estimate_koopman(accumulate(MomentPair.empty(dct), dct, ss))
        assert residuals(dct, ss, est.matrix)[0] <= 1e-20

    def test_single_trajectory_lifts_each_state_once(self, baseline_params, monkeypatch):
        dct = closed_quadratic_dictionary()
        chained = simulate(make_closed_quadratic(baseline_params), np.zeros(2), BLOCK + 50, seed=9)
        est = estimate_koopman(accumulate(MomentPair.empty(dct), dct, chained))
        rows = []
        lift = estimator.evaluate_many
        monkeypatch.setattr(
            estimator, "evaluate_many", lambda d, xs: rows.append(len(xs)) or lift(d, xs)
        )
        once = residuals(dct, chained, est.matrix)
        assert rows == [BLOCK + 1, 51]  # each block's m + 1 states
        sq_sum = np.zeros(dct.n_basis)
        for psi_x, psi_y in lifted_apart(dct, chained):
            delta = psi_y - psi_x @ est.matrix
            sq_sum += np.sum(delta * delta, axis=0)
        assert once.tobytes() == (sq_sum / chained.n_samples).tobytes()


class TestClosureCheck:
    def test_closed_pair_noiseless_floor(self, baseline_params):
        system = make_closed_quadratic(baseline_params, noise=NoiseModel.none())
        dct = closed_quadratic_dictionary()
        defects = closure_check(dct, system, n_states=20, n_mc=1, seed=18)
        assert defects.max() <= 1e-10

    def test_closed_pair_noisy_at_mc_floor(self, baseline_params):
        system = make_closed_quadratic(baseline_params)
        dct = closed_quadratic_dictionary()
        defects, floors = closure_check(
            dct, system, n_states=20, n_mc=10000, seed=19, return_floor=True
        )
        # defects explained entirely by Monte Carlo noise
        assert (defects <= 3.0 * floors + 1e-12).all()
        assert floors.max() < 0.2

    def test_vanderpol_not_closed(self):
        # exact propagation (silent noise): cubic drift terms leave the span
        system = make_vanderpol(1e-4, noise=NoiseModel.none())
        dct = make_monomial_dictionary(2, 2)
        defects = closure_check(dct, system, n_states=40, n_mc=1, seed=20)
        assert defects.max() > 1e-9
        # x2 picks up the pure cubic term; x1^2 stays inside the span
        assert defects[2] > 1e-9
        assert defects[3] <= 1e-12

    @pytest.mark.parametrize("noisy", [True, False])
    def test_lifts_one_column_per_draw(self, baseline_params, monkeypatch, noisy):
        # koopman_apply_mc lifts through dynamics.evaluate_many, or through
        # basis.evaluate for silent noise; the design matrix is lifted by
        # estimator's own binding and is not counted
        lift = basis.evaluate_many
        shapes = []

        def spy(dictionary, xs):
            out = lift(dictionary, xs)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(dynamics, "evaluate_many", spy)
        monkeypatch.setattr(basis, "evaluate_many", spy)
        noise = None if noisy else NoiseModel.none()
        system = make_closed_quadratic(baseline_params, noise=noise)
        closure_check(make_monomial_dictionary(2, 2), system, n_states=8, n_mc=50, seed=22)
        assert shapes == [(50 if noisy else 1, 1)] * (8 * 6)

    def test_constant_dictionary_closed(self, baseline_params):
        system = make_closed_quadratic(baseline_params)
        dct = make_monomial_dictionary(2, 0)
        defects = closure_check(dct, system, n_states=5, n_mc=10, seed=21)
        assert defects[0] == 0.0
