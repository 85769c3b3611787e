import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopest import (
    ClosedQuadraticParams,
    DivergenceError,
    NoiseModel,
    SampleSet,
    StochasticSystem,
    closed_quadratic_dictionary,
    closed_quadratic_koopman,
    evaluate,
    koopman_apply_mc,
    make_closed_quadratic,
    make_vanderpol,
    simulate,
    step_pairs,
    trajectory_chunks,
    unit_box,
)
from koopest.dynamics import BLOCK
from koopest.seeding import make_rng, mix_seed


def noiseless_quadratic(params):
    return make_closed_quadratic(params, noise=NoiseModel.none(2))


class TestClosedQuadratic:
    def test_noiseless_step(self, baseline_params):
        system = noiseless_quadratic(baseline_params)
        # hand evaluation: (rho^2 - mu) * c * 1 = 0.04 - 0.3
        np.testing.assert_allclose(system.transition([1.0, 0.0]), [0.2, -0.26])

    def test_origin_fixed_point(self, baseline_params):
        system = noiseless_quadratic(baseline_params)
        np.testing.assert_array_equal(system.transition(np.zeros(2)), np.zeros(2))

    def test_strong_parameters_accepted(self, strong_params):
        system = make_closed_quadratic(strong_params)
        assert system.label == "closed-quadratic"

    def test_warns_outside_contraction(self):
        with pytest.warns(UserWarning, match="diverge"):
            ClosedQuadraticParams(rho=1.2, mu=0.3, c=1.0)

    def test_warning_points_at_the_caller(self):
        # not at the dataclass-generated __init__ ("<string>")
        with pytest.warns(UserWarning, match="diverge") as record:
            ClosedQuadraticParams(rho=1.2, mu=0.3, c=1.0)
        assert record[0].filename == __file__

    def test_invalid_c(self):
        with pytest.raises(ValueError):
            ClosedQuadraticParams(rho=0.2, mu=0.3, c=0.0)


class TestGroundTruthKoopman:
    def test_baseline_entries(self, baseline_params):
        k = closed_quadratic_koopman(baseline_params, noise_variance=1.0)
        assert k[3, 2] == pytest.approx(-0.26)
        assert k[3, 3] == pytest.approx(0.04)
        assert k[0, 3] == pytest.approx(1.0)

    def test_degenerate_parameters(self):
        k = closed_quadratic_koopman(ClosedQuadraticParams(0.0, 0.0, 1.0), 1.0)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        expected[0, 3] = 1.0
        np.testing.assert_array_equal(k, expected)

    def test_noiseless_matches_mc_oracle(self, baseline_params):
        # with the noise variance off, the propagated x1^2 column loses its
        # constant offset; cross-check every column against exact propagation
        system = noiseless_quadratic(baseline_params)
        dct = closed_quadratic_dictionary()
        k = closed_quadratic_koopman(baseline_params, noise_variance=0.0)
        assert k[0, 3] == 0.0
        rng = np.random.default_rng(7)
        for x in rng.uniform(-1, 1, size=(10, 2)):
            psi = evaluate(dct, x)
            for col in range(4):
                e = np.zeros(4)
                e[col] = 1.0
                exact = koopman_apply_mc(system, dct, e, x, 1, seed=0)
                assert exact == pytest.approx(float(psi @ k[:, col]), abs=1e-12)

    def test_oracle_agreement_with_noise(self, baseline_params):
        # ground-truth columns vs Monte Carlo propagation at random states
        system = make_closed_quadratic(baseline_params)
        dct = closed_quadratic_dictionary()
        k = closed_quadratic_koopman(baseline_params, noise_variance=1.0)
        rng = np.random.default_rng(11)
        states = rng.uniform(-1, 1, size=(20, 2))
        n_mc = 20000
        for i, x in enumerate(states):
            psi = evaluate(dct, x)
            for col in range(4):
                e = np.zeros(4)
                e[col] = 1.0
                mc, se = koopman_apply_mc(
                    system, dct, e, x, n_mc, seed=mix_seed(3, i, col), return_stderr=True
                )
                target = float(psi @ k[:, col])
                if se == 0.0:
                    assert mc == pytest.approx(target, abs=1e-12)
                else:
                    assert abs(mc - target) <= 4.0 * se


class TestVanDerPol:
    def test_origin_fixed_point(self):
        system = make_vanderpol(1e-4, noise=NoiseModel.none(2))
        np.testing.assert_array_equal(system.transition(np.zeros(2)), np.zeros(2))

    def test_drift_as_printed(self):
        system = make_vanderpol(1e-4, noise=NoiseModel.none(2))
        np.testing.assert_allclose(system.transition([1.0, 1.0]), [1.0001, 1.0 - 0.0001])

    def test_standard_variant_differs(self):
        printed = make_vanderpol(0.01, noise=NoiseModel.none(2))
        textbook = make_vanderpol(0.01, noise=NoiseModel.none(2), standard_vdp=True)
        # at (2, 1): printed x2 drift (1-4)*2-2 = -8, textbook (1-4)*1-2 = -5
        np.testing.assert_allclose(printed.transition([2.0, 1.0]), [2.01, 1.0 - 0.08])
        np.testing.assert_allclose(textbook.transition([2.0, 1.0]), [2.01, 1.0 - 0.05])

    def test_requires_positive_dt(self):
        with pytest.raises(ValueError):
            make_vanderpol(0.0)


SYSTEMS = {
    "closed-quadratic-baseline": make_closed_quadratic(ClosedQuadraticParams(0.2, 0.3, 1.0)),
    "closed-quadratic-strong": make_closed_quadratic(ClosedQuadraticParams(0.8, 0.8, 0.9)),
    "vanderpol": make_vanderpol(0.001),
    "vanderpol-standard": make_vanderpol(0.001, standard_vdp=True),
}

_coordinate = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestPlanarContract:
    def test_other_dimensions_are_rejected(self):
        with pytest.raises(ValueError, match=r"state_dim must be 2 \(systems are planar\), got 3"):
            StochasticSystem(3, lambda x1, x2, x3: (x1, x2, x3), NoiseModel.none(3))


class TestDriftForms:
    """One drift, three ways to call it: the same bits from each."""

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    @settings(max_examples=200, deadline=None)
    @given(
        state=st.tuples(_coordinate, _coordinate),
        others=st.lists(st.tuples(_coordinate, _coordinate), max_size=6),
        row=st.integers(0, 6),
    )
    def test_float_single_and_batch_agree(self, name, state, others, row):
        system = SYSTEMS[name]
        on_floats = system.drift(*state)
        assert all(type(v) is float for v in on_floats)
        row = min(row, len(others))
        batch = np.array(others[:row] + [state] + others[row:])
        expected = np.array(on_floats).tobytes()
        assert system.transition(np.array(state)).tobytes() == expected
        assert system.transition(batch)[row].tobytes() == expected

    @pytest.mark.parametrize("shape", [(3,), (5, 3), (1,), (), (2, 2, 2)])
    def test_wrong_state_shape_is_named(self, shape):
        # a planar drift takes two coordinates; no other shape reaches it
        system = SYSTEMS["closed-quadratic-baseline"]
        message = rf"shape \(2,\) or \(m, 2\), got {re.escape(str(shape))}"
        with pytest.raises(ValueError, match=message):
            system.transition(np.zeros(shape))
        with pytest.raises(ValueError, match=message):
            koopman_apply_mc(system, closed_quadratic_dictionary(), np.ones(4), np.zeros(shape), 10, 0)


class TestSimulate:
    def test_noiseless_hand_iteration(self, baseline_params):
        system = noiseless_quadratic(baseline_params)
        ss = simulate(system, np.array([1.0, 0.0]), 3, seed=5)
        np.testing.assert_allclose(ss.xs[0], [1.0, 0.0])
        np.testing.assert_allclose(ss.xs[1], [0.2, -0.26])
        np.testing.assert_allclose(ss.ys[0], [0.2, -0.26])
        # third state: mu*(-0.26) + (rho^2-mu)*c*0.2^2
        np.testing.assert_allclose(ss.xs[2], [0.04, 0.3 * -0.26 + -0.26 * 0.04])
        np.testing.assert_array_equal(ss.ys[:-1], ss.xs[1:])

    def test_single_step_shape(self, baseline_params):
        ss = simulate(make_closed_quadratic(baseline_params), np.zeros(2), 1, seed=9)
        assert ss.xs.shape == (1, 2) and ss.ys.shape == (1, 2)

    def test_seed_determinism(self, baseline_params):
        system = make_closed_quadratic(baseline_params)
        a = simulate(system, np.zeros(2), 500, seed=123)
        b = simulate(system, np.zeros(2), 500, seed=123)
        assert (a.xs == b.xs).all() and (a.ys == b.ys).all()
        c = simulate(system, np.zeros(2), 500, seed=124)
        assert not (a.ys == c.ys).all()

    def test_chunked_equals_materialized(self, baseline_params):
        system = make_closed_quadratic(baseline_params)
        steps = 70000  # crosses the internal chunk boundary
        ss = simulate(system, np.zeros(2), steps, seed=77)
        chunks = trajectory_chunks(system, np.zeros(2), steps, [77])
        xs = np.concatenate([paths[0, :-1] for paths, _, _ in chunks])
        assert (xs == ss.xs).all()

    @settings(max_examples=8, deadline=None)
    @given(st.one_of(st.integers(1, 300), st.integers(BLOCK - 2, BLOCK + 2),
                     st.integers(2 * BLOCK - 1, 2 * BLOCK + 1)), st.integers(0, 2**32))
    def test_simulate_is_the_chunks_states_for_any_T(self, steps, seed):
        system = make_closed_quadratic(ClosedQuadraticParams(rho=0.2, mu=0.3, c=1.0))
        blocks = [paths[0] for paths, _, _ in trajectory_chunks(system, np.zeros(2), steps, [seed])]
        states = np.concatenate([b[:-1] for b in blocks] + [blocks[-1][-1:]])
        ss = simulate(system, np.zeros(2), steps, seed)
        assert ss.states.shape == (steps + 1, 2) and ss.states.flags.c_contiguous
        assert ss.states.tobytes() == states.tobytes()
        # xs and ys are views of the one state array, so they chain bit for bit
        assert ss.xs.base is ss.states and ss.ys.base is ss.states
        assert ss.xs[1:].tobytes() == ss.ys[:-1].tobytes()

    def test_lockstep_trajectories_equal_simulated_ones(self, baseline_params):
        system, seeds = make_closed_quadratic(baseline_params), [5, 6, 7]
        blocks = list(trajectory_chunks(system, None, 300, seeds, domain=unit_box(2)))
        ((paths, index, failed),) = blocks
        assert paths.shape == (3, 301, 2) and list(index) == [0, 1, 2] and failed == {}
        for seed, path in zip(seeds, paths):
            ss = simulate(system, None, 300, seed, domain=unit_box(2))
            assert path[:-1].tobytes() == ss.xs.tobytes()
            assert path[1:].tobytes() == ss.ys.tobytes()

    def test_initial_state_from_domain(self, baseline_params):
        system = make_closed_quadratic(baseline_params)
        dom = unit_box(2)
        ss = simulate(system, None, 10, seed=3, domain=dom)
        assert (np.abs(ss.xs[0]) <= 1.0).all()
        again = simulate(system, None, 10, seed=3, domain=dom)
        assert (ss.xs == again.xs).all()

    def test_divergence_reports_step(self):
        # mu = rho^2 kills the quadratic coupling, leaving a pure doubling map
        with pytest.warns(UserWarning):
            params = ClosedQuadraticParams(rho=2.0, mu=4.0, c=1.0)
        system = noiseless_quadratic(params)
        with pytest.raises(DivergenceError) as err:
            simulate(system, np.array([1000.0, 0.0]), 50, seed=1)
        # x1 doubles per step: 1000 * 2^(t+1) first exceeds 1e6 at t = 9
        assert err.value.step == 9

    @pytest.mark.parametrize("x1", [1e300, 1e150])
    def test_overflow_fails_alike_as_floats_and_as_arrays(self, x1):
        # one seed steps Python floats, which overflow silently; a lockstep
        # block steps arrays under np.errstate: both must stop at the same step
        with pytest.warns(UserWarning):
            params = ClosedQuadraticParams(rho=2.0, mu=4.0, c=1.0)
        system, x0, seeds = make_closed_quadratic(params), np.array([x1, 1.0]), range(6)
        lockstep = [failed for _, _, failed in trajectory_chunks(system, x0, 50, seeds, np.inf)]
        assert set().union(*lockstep) == set(range(6))
        for k, seed in enumerate(seeds):
            with pytest.raises(DivergenceError) as err:
                simulate(system, x0, 50, seed, max_norm=np.inf)
            (alone,) = [f[0] for _, _, f in trajectory_chunks(system, x0, 50, [seed], np.inf) if f]
            (block,) = [f[k] for f in lockstep if k in f]
            expected = (err.value.step, err.value.norm)
            assert (alone.step, alone.norm) == (block.step, block.norm) == expected
            assert not np.isfinite(expected[1])
            assert (expected[0] == 0) if x1 == 1e300 else (expected[0] > 0)

    def test_trajectory_chain_invariant_enforced(self):
        xs = np.zeros((3, 2))
        ys = np.ones((3, 2))
        with pytest.raises(ValueError, match="chain"):
            SampleSet(xs, ys, "single-trajectory", 0)

    def test_trajectory_chains_bit_for_bit(self):
        # np.array_equal takes -0.0 for 0.0, but a lift or a CSV row does not
        xs, ys = [[1.0], [0.0], [2.0]], [[-0.0], [2.0], [3.0]]
        with pytest.raises(ValueError, match=re.escape("ys[0] differs from xs[1]")):
            SampleSet(xs, ys, "single-trajectory", 0)
        xs[1] = [-0.0]
        ss = SampleSet(xs, ys, "single-trajectory", 0)
        assert ss.states.tobytes() == np.array([[1.0], [-0.0], [2.0], [3.0]]).tobytes()
        assert SampleSet(ys, xs, "independent-pairs", 0).states is None


class TestStepPairs:
    def test_noiseless_equals_transition(self, baseline_params):
        system = noiseless_quadratic(baseline_params)
        xs = np.random.default_rng(2).uniform(-1, 1, size=(25, 2))
        ss = step_pairs(system, xs, seed=8)
        assert ss.source == "independent-pairs"
        np.testing.assert_allclose(ss.ys, system.transition(xs))

    def test_seeded(self, baseline_params):
        system = make_closed_quadratic(baseline_params)
        xs = np.zeros((10, 2))
        a = step_pairs(system, xs, seed=4)
        b = step_pairs(system, xs, seed=4)
        assert (a.ys == b.ys).all()


class TestKoopmanApplyMC:
    def test_noiseless_is_exact(self, baseline_params):
        system = noiseless_quadratic(baseline_params)
        dct = closed_quadratic_dictionary()
        coeffs = np.array([0.5, 1.0, -2.0, 0.25])
        x = np.array([0.4, -0.7])
        expected = float(evaluate(dct, system.transition(x)) @ coeffs)
        for n_mc in (1, 10):
            assert koopman_apply_mc(system, dct, coeffs, x, n_mc, seed=0) == expected

    def test_constants_are_fixed(self, baseline_params):
        system = make_closed_quadratic(baseline_params)
        dct = closed_quadratic_dictionary()
        coeffs = np.array([1.0, 0.0, 0.0, 0.0])
        for seed in (1, 2, 3):
            val = koopman_apply_mc(system, dct, coeffs, np.array([0.3, 9.0]), 50, seed)
            assert val == pytest.approx(1.0, abs=1e-12)

    def test_squared_coordinate_expectation(self, baseline_params):
        # E[(rho*x1 + xi)^2] at x=(1,0): rho^2 + 1 = 1.04
        system = make_closed_quadratic(baseline_params)
        dct = closed_quadratic_dictionary()
        coeffs = np.array([0.0, 0.0, 0.0, 1.0])
        val, se = koopman_apply_mc(
            system, dct, coeffs, np.array([1.0, 0.0]), 10**6, seed=42, return_stderr=True
        )
        assert abs(val - 1.04) <= 3.0 * se

    def test_rng_is_counter_based(self):
        # the documented generator: Philox keyed by the seed
        a = make_rng(99).standard_normal(4)
        b = np.random.Generator(np.random.Philox(key=99)).standard_normal(4)
        assert (a == b).all()


class TestNoiseModel:
    def test_none_draws_zero(self):
        nm = NoiseModel.none(3)
        assert (nm.draw(make_rng(0), 5) == 0).all()

    def test_density_integrates_to_one(self):
        nm = NoiseModel.gaussian([0.5, 2.0])
        rng = make_rng(12)
        # importance check: E_uniform[density * volume] over a wide box ~ 1
        box = 12.0
        pts = rng.uniform(-box, box, size=(200000, 2))
        est = float(np.mean(nm.density(pts)) * (2 * box) ** 2)
        assert est == pytest.approx(1.0, abs=0.02)

    def test_density_unavailable(self):
        with pytest.raises(ValueError, match="density"):
            NoiseModel.none(2).density(np.zeros((1, 2)))
