import dataclasses
import re
import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koopest import (
    ClosedQuadraticParams,
    Dictionary,
    DivergenceError,
    Domain,
    MomentPair,
    NoiseModel,
    SampleSet,
    StochasticSystem,
    accumulate,
    closed_quadratic_dictionary,
    closed_quadratic_koopman,
    estimate_koopman,
    evaluate,
    evaluate_many,
    gram,
    koopman_apply_mc,
    make_closed_quadratic,
    make_monomial_dictionary,
    make_vanderpol,
    pf_apply_integral_mc,
    simulate,
    step_pairs,
    trajectory_chunks,
    unit_box,
)
from koopest import dynamics
from koopest.dynamics import BLOCK
from koopest.seeding import make_rng, mix_seed


def noiseless_quadratic(params):
    return make_closed_quadratic(params, noise=NoiseModel.none())


def _each_kernel(compiler):
    """"compiled" (where a C compiler is found), then "python" with none
    found: a loop over it runs its body under each kernel."""
    if shutil.which("gcc") is not None:
        yield "compiled"
    compiler(None)
    yield "python"


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
        # hand evaluation: (rho^2 - mu) * c * 1 = (0.64 - 0.8) * 0.9
        np.testing.assert_allclose(system.transition([1.0, 0.0]), [0.8, -0.144])

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
                exact, se = koopman_apply_mc(system, dct, e, x, 1, seed=0)
                assert se == 0.0
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
                mc, se = koopman_apply_mc(system, dct, e, x, n_mc, seed=mix_seed(3, i, col))
                target = float(psi @ k[:, col])
                if se == 0.0:
                    assert mc == pytest.approx(target, abs=1e-12)
                else:
                    assert abs(mc - target) <= 4.0 * se


class TestVanDerPol:
    def test_origin_fixed_point(self):
        system = make_vanderpol(1e-4, noise=NoiseModel.none())
        np.testing.assert_array_equal(system.transition(np.zeros(2)), np.zeros(2))

    def test_drift_as_printed(self):
        system = make_vanderpol(1e-4, noise=NoiseModel.none())
        np.testing.assert_allclose(system.transition([1.0, 1.0]), [1.0001, 1.0 - 0.0001])

    def test_standard_variant_differs(self):
        printed = make_vanderpol(0.01, noise=NoiseModel.none())
        textbook = make_vanderpol(0.01, noise=NoiseModel.none(), standard_vdp=True)
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

# Systems of one and three coordinates: the kernels are generated for any
# length of update.  The triangular map closes on TRIANGULAR_DICTIONARY under
# Gaussian noise (each monomial's expected image lies in its span), so its
# Koopman matrix is exact (_exact_koopman).
CUBIC_LINE = StochasticSystem(("x1 - a * x1 * x1 * x1",), {"a": 0.1}, NoiseModel.gaussian(0.2))
AFFINE_LINE = StochasticSystem(("a * x1 + b",), {"a": 0.5, "b": 0.25}, NoiseModel.gaussian(0.3))
TRIANGULAR = StochasticSystem(
    ("rho * x1", "mu * x2 + c * x1 * x1", "nu * x3 + d * x2 * x2"),
    {"rho": 0.5, "mu": 0.4, "c": 1.0, "nu": 0.3, "d": 0.5}, NoiseModel.gaussian(0.3))
TRIANGULAR_DICTIONARY = Dictionary([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 0, 0],
                                    [2, 1, 0], [4, 0, 0], [0, 2, 0]])
# every dimension the kernel checks draw from: 1, 2 and 3
SHAPES = {**SYSTEMS, "cubic-line": CUBIC_LINE, "triangular": TRIANGULAR}

_coordinate = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_unit_coordinate = st.floats(-1.0, 1.0)  # states that stay bounded for a few steps


class TestPlanarContract:
    """A system's dimension is the length of its update, and nothing else
    states it: the planar systems are the case n = 2 of one contract."""

    def test_other_dimensions_are_rejected(self):
        # a NoiseModel holds any non-empty vector of finite, nonnegative stds;
        # the system takes 1 or n of them, n the length of its update
        for std in ([], [[1.0, 1.0]], [1.0, np.nan], [-1.0]):
            with pytest.raises(ValueError, match="std_dev must be a non-empty vector"):
                NoiseModel.gaussian(std)
        for update in (("x1",), ("x1", "x2"), ("x1", "x2", "x3")):
            n, bad = len(update), len(update) + 1
            message = rf"^std_dev needs 1 or {n} entries, one per coordinate, got {bad}$"
            for noise in (NoiseModel.gaussian([1.0] * bad), NoiseModel("none", np.zeros(bad))):
                with pytest.raises(ValueError, match=message):
                    StochasticSystem(update, {}, noise)
            system = StochasticSystem(update, {}, NoiseModel.none())
            assert system.noise.draw(make_rng(0), 3).shape == (3, n)
            stds = np.array([0.1, 0.2, 0.3][:n])  # one per coordinate, kept in order
            noisy = StochasticSystem(update, {}, NoiseModel.gaussian(stds))
            assert noisy.noise.std_dev.tobytes() == stds.tobytes()
            shape = rf"shape \({n},\) or \(m, {n}\), got \(4, {bad}\)"
            with pytest.raises(ValueError, match=shape):
                system.transition(np.zeros((4, bad)))
        with pytest.raises(ValueError, match="non-empty tuple of strings"):
            StochasticSystem((), {}, NoiseModel.none())

    @settings(max_examples=50, deadline=None)
    @given(
        std=st.floats(0.0, 1e3, allow_nan=False),
        seed=st.integers(0, 2**64 - 1),
        m=st.integers(1, 40),
        n=st.integers(1, 3),
    )
    def test_one_entry_std_serves_both_coordinates(self, std, seed, m, n):
        # the system spreads a one-entry std over its n coordinates, with the
        # bytes of n equal entries
        update = tuple(f"x{i}" for i in range(1, n + 1))
        one = StochasticSystem(update, {}, NoiseModel.gaussian(std)).noise
        every = StochasticSystem(update, {}, NoiseModel.gaussian([std] * n)).noise
        assert one.std_dev.tobytes() == np.full(n, std).tobytes() == every.std_dev.tobytes()
        draws = one.draw(make_rng(seed), m)
        assert draws.shape == (m, n)
        assert draws.tobytes() == every.draw(make_rng(seed), m).tobytes()


def _bits(a):
    """The bytes of a float array, every NaN read as the one NaN."""
    a = np.asarray(a, dtype=float)
    return np.where(np.isnan(a), np.nan, a).tobytes()


def _kernels(system):
    """The system's compiled and Python kernels: both step ``update``."""
    names = tuple(system.params)
    if shutil.which("gcc") is None:
        pytest.skip("needs a C compiler")
    compiled, stepping = dynamics._kernel(system.update, names)
    assert stepping == "compiled (gcc -O2 -ffp-contract=off)"
    return {"compiled": compiled, "python": dynamics._python(system.update, names)[0]}


def _run(kernel, system, starts, noise, bound=np.inf):
    """``(paths, stops)`` of one kernel call from R states, noise ``(R, m, n)``:
    the ``(R, m + 1, n)`` paths, NaN past each path's failing state, and the
    ``(R,)`` stop steps."""
    noise = np.ascontiguousarray(noise, dtype=float)
    paths = np.full((len(starts), noise.shape[1] + 1, noise.shape[2]), np.nan)
    paths[:, 0] = starts
    stops = kernel(tuple(system.params.values()), paths, noise, bound)
    assert stops.shape == (len(starts),) and stops.dtype.kind == "i"
    return paths, stops


def _numpy_rule(system, starts, noise, bound):
    """``(paths, stops)`` by the rule the kernels replaced: every state stepped
    as ``transition(x) + w``, then each path's first state whose
    ``np.linalg.norm`` is not finite or exceeds the bound (m if none), for
    states of any width."""
    states = [np.array(starts, dtype=float)]
    with np.errstate(all="ignore"):
        for w in np.transpose(noise, (1, 0, 2)):
            states.append(system.transition(states[-1]) + w)
        paths = np.stack(states, axis=1)
        norms = np.linalg.norm(paths[:, 1:], axis=-1)
    bad = ~np.isfinite(norms) | (norms > bound)
    return paths, np.column_stack([bad, np.ones(len(bad), bool)]).argmax(axis=1)  # m if none


_signed = st.one_of(st.just(-0.0), _coordinate)


def _kernels_agree(system, starts, m, noise, silent, bound):
    n = len(system.update)
    draws = np.array(noise)[: len(starts) * m].reshape(len(starts), m, n)
    if silent:
        draws = np.full_like(draws, -0.0)
    if isinstance(bound, int):
        with np.errstate(all="ignore"):
            norms = np.linalg.norm(_numpy_rule(system, starts, draws, np.inf)[0][:, 1:], axis=-1)
        norms = norms[np.isfinite(norms) & (norms > 0)]
        bound = float(norms[bound % norms.size]) if norms.size else np.inf
    paths, stops = _numpy_rule(system, starts, draws, bound)
    (compiled, compiled_stops), (python, python_stops) = (
        _run(k, system, starts, draws, bound) for k in _kernels(system).values())
    assert compiled.tobytes() == python.tobytes()
    assert compiled_stops.tolist() == python_stops.tolist() == stops.tolist()
    for path, expected, stop in zip(compiled, paths, stops):
        # the states up to the stop, the failing one included, and no more
        assert _bits(path[: stop + 2]) == _bits(expected[: stop + 2])
        assert np.isnan(path[stop + 2 :]).all()


class TestDriftForms:
    """The drift T is written once, as each system's update pair: its compiled
    and Python kernels, one path or a block of them, and ``transition`` give
    the same bits from it."""

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_compiled_and_python_kernels_agree(self, name):
        # Systems of 1, 2 and 3 coordinates (200 examples of each planar one,
        # 60 of the others), R from 1 to 6 paths of m from 0 to 7 steps,
        # states up to 1e6 that overflow to inf and NaN, and silent noise
        # (-0.0) on -0.0 states.  The bound is +inf, a random float, or (an
        # integer k) the norm of the k-th state, which that state passes.
        # Both kernels write the same bytes and stop where the numpy rule
        # stops, at the first failing state
        system = SHAPES[name]
        n = len(system.update)
        zeros = [(0.0,) * n] * 42

        @settings(max_examples=200 if n == 2 else 60, deadline=None)
        @given(
            starts=st.lists(st.tuples(*[_signed] * n), min_size=1, max_size=6),
            m=st.integers(0, 7),
            noise=st.lists(st.tuples(*[_coordinate] * n), min_size=42, max_size=42),
            silent=st.booleans(),
            bound=st.one_of(st.just(np.inf), st.floats(1e-3, 1e12), st.integers(0, 41)),
        )
        @example(starts=[(-0.0,) * n, (0.0, -0.0, 0.0)[:n]], m=3, noise=zeros, silent=True,
                 bound=np.inf)
        @example(starts=[(1e6, -1e6, 1e6)[:n]], m=7, noise=zeros, silent=False, bound=np.inf)
        @example(starts=[(3.0, 4.0, 12.0)[:n]], m=2, noise=zeros, silent=True, bound=0)
        def agree(starts, m, noise, silent, bound):
            _kernels_agree(system, starts, m, noise, silent, bound)

        agree()

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    @settings(max_examples=200, deadline=None)
    @given(
        state=st.tuples(_coordinate, _coordinate),
        others=st.lists(st.tuples(_coordinate, _coordinate), max_size=6),
        row=st.integers(0, 6),
        noise=st.lists(st.lists(st.tuples(_coordinate, _coordinate), min_size=7, max_size=7),
                       min_size=1, max_size=5),
    )
    def test_float_single_and_batch_agree(self, name, state, others, row, noise):
        # in either kernel, a k-step run of one path is the matching row of
        # the same run of a block of paths, overflow to inf and NaN included
        system = SYSTEMS[name]
        row = min(row, len(others))
        starts = others[:row] + [state] + others[row:]
        draws = np.array(noise)[:, : len(starts)].transpose(1, 0, 2)  # (R, k, 2)
        for kernel in _kernels(system).values():
            alone, alone_stops = _run(kernel, system, [state], draws[row : row + 1])
            paths, stops = _run(kernel, system, starts, draws)
            assert paths[row].tobytes() == alone[0].tobytes()
            assert stops[row] == alone_stops[0]

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    @settings(max_examples=200, deadline=None)
    @given(
        state=st.tuples(_coordinate, _coordinate),
        others=st.lists(st.tuples(_coordinate, _coordinate), max_size=6),
        row=st.integers(0, 6),
    )
    def test_transition_is_one_step_with_negative_zero_noise(self, name, state, others, row):
        system = SYSTEMS[name]
        python = dynamics._python(system.update, tuple(system.params))[0]
        expected = _run(python, system, [state], [[(-0.0, -0.0)]])[0][0, 1]
        row = min(row, len(others))
        batch = np.array(others[:row] + [state] + others[row:])
        assert system.transition(np.array(state)).tobytes() == expected.tobytes()
        assert system.transition(batch)[row].tobytes() == expected.tobytes()

    def test_one_library_serves_every_parameter_value(self):
        # parameters are doubles passed at call time, never printed into C
        slow, fast = (make_closed_quadratic(ClosedQuadraticParams(rho, 0.3, 1.0))
                      for rho in (0.2, 0.7))
        assert _kernels(slow)["compiled"] is _kernels(fast)["compiled"]
        path = [[(0.5, 0.25)]]
        assert _run(_kernels(slow)["compiled"], slow, [(1.0, 2.0)], path)[0][0, 1].tolist() == [
            0.2 + 0.5, 0.3 * 2.0 + (0.2 * 0.2 - 0.3) * 1.0 * 1.0 * 1.0 + 0.25]
        assert _run(_kernels(fast)["compiled"], fast, [(1.0, 2.0)], path)[0][0, 1].tolist() == [
            0.7 + 0.5, 0.3 * 2.0 + (0.7 * 0.7 - 0.3) * 1.0 * 1.0 * 1.0 + 0.25]

    def test_the_compiled_kernel_checks_its_buffers(self, compiler):
        # one wrapper checks the buffers of either kernel, compiled or Python
        system = SYSTEMS["vanderpol"]
        params = tuple(system.params.values())
        frozen = np.zeros((2, 3, 2))
        frozen.flags.writeable = False
        for stepping in _each_kernel(compiler):
            kernel, _ = dynamics._kernel(system.update, tuple(system.params))
            for paths, noise, args in [
                (np.zeros((2, 4, 2)), np.zeros((2, 2, 2)), params),  # m + 1 rows
                (np.zeros((2, 3, 2)), np.zeros((1, 2, 2)), params),  # R paths
                (np.zeros((2, 3, 2), dtype=np.float32), np.zeros((2, 2, 2)), params),
                (np.zeros((2, 3, 2)), np.zeros((2, 2, 2), dtype=np.float32), params),
                (np.zeros((2, 2, 3)).transpose(0, 2, 1), np.zeros((2, 2, 2)), params),
                (frozen, np.zeros((2, 2, 2)), params),
                (np.zeros((2, 3, 2)), np.zeros((2, 2, 2)), ()),  # one parameter, dt
            ]:
                with pytest.raises(ValueError, match="float64 C-contiguous"):
                    kernel(args, paths, noise, np.inf)
            paths = np.zeros((2, 3, 2))
            assert kernel(params, paths, np.ones((2, 2, 2)), np.inf).tolist() == [2, 2], stepping

    @pytest.mark.parametrize("shape", [(3,), (5, 3), (1,), (), (2, 2, 2), (1, 2), (4, 2)])
    def test_wrong_state_shape_is_named(self, shape):
        # a planar map takes two coordinates; no other shape reaches it, and
        # the oracle takes one state, not a batch
        system, got = SYSTEMS["closed-quadratic-baseline"], re.escape(str(shape))
        if len(shape) != 2 or shape[1] != 2:  # (m, 2) is a batch that transition takes
            with pytest.raises(ValueError, match=rf"shape \(2,\) or \(m, 2\), got {got}"):
                system.transition(np.zeros(shape))
        with pytest.raises(ValueError, match=rf"shape \(2,\), got {got}"):
            koopman_apply_mc(system, closed_quadratic_dictionary(), np.ones(4), np.zeros(shape), 10, 0)


class TestUpdateGuard:
    """An update is the map T: it may read only x1, x2 and the declared
    parameters, through float constants, +, -, * and parentheses, and not the
    noise w1, w2, which the kernels add; the ValueError quotes it."""

    @pytest.mark.parametrize(
        "expr, found",
        [("x1 ** 2", "Pow"), ("abs(x1)", "abs(x1)"), ("x1 / a", "Div"), ("x1.real", "x1.real"),
         ("b * x1", "b"), ("2 * x1", "2"), ("1e999 * x1", "1e309"), ("x1 // a", "FloorDiv"),
         ("x1 + w1", "w1")],
    )
    def test_rejected(self, expr, found):
        with pytest.raises(ValueError, match=re.escape(f"update {expr!r} may use only")) as err:
            StochasticSystem((expr, "x2"), {"a": 1.0}, NoiseModel.none())
        assert str(err.value).endswith(f"not {found}")

    def test_not_an_expression_or_not_a_pair(self):
        with pytest.raises(ValueError, match=re.escape("update 'x1 +' is not")):
            StochasticSystem(("x1 +", "x2"), {}, NoiseModel.none())
        # three expressions are a system of three coordinates, which may read x3
        assert StochasticSystem(("x1", "x2", "x3"), {}, NoiseModel.none()).noise.std_dev.size == 3
        with pytest.raises(ValueError, match=re.escape("update 'x3' may use only x1, x2, finite")):
            StochasticSystem(("x1", "x3"), {}, NoiseModel.none())
        for name in ("x1", "w2", "_a", "lambda", "a b"):  # the kernels' own names, or none
            with pytest.raises(ValueError, match="parameter names .* other than x1, x2, w1, w2,"):
                StochasticSystem(("x1", "x2"), {name: 1.0}, NoiseModel.none())
        # the state names follow the dimension: x3 is a parameter of a planar map
        planar = StochasticSystem(("x3 * x1", "x2"), {"x3": 2.0}, NoiseModel.none())
        assert planar.params == {"x3": 2.0}
        # a lone string (not a tuple of characters), a tuple holding a number,
        # no expression and a number are refused by the rule, not by the parser
        for update in ("x1", ("x1", 2.0), (), [], 5):
            with pytest.raises(ValueError, match="update must be a non-empty tuple of strings"):
                StochasticSystem(update, {}, NoiseModel.none())
        # a list is held as the tuple, the kernels' cache key
        assert StochasticSystem(["x1", "x2"], {}, NoiseModel.none()).update == ("x1", "x2")

    def test_admitted_forms_step_alike(self):
        system = StochasticSystem(("-x1 + a * (x2 - -0.5)", "x2 - (x1 - a) * 1.5e-3"),
                                  {"a": 2.0}, NoiseModel.none())
        kernels = list(_kernels(system).values())
        paths = [_run(k, system, [(1.0, -0.0), (3.0, 4.0)], np.ones((2, 3, 2)))[0] for k in kernels]
        assert paths[0].tobytes() == paths[1].tobytes()
        # the noise is added last, to T of the state
        assert paths[0][0, 1].tolist() == [
            (-1.0 + 2.0 * (-0.0 - -0.5)) + 1.0, (-0.0 - (1.0 - 2.0) * 1.5e-3) + 1.0]
        assert system.transition(np.array([1.0, -0.0])).tolist() == [0.0, 1.5e-3]
        # T keeps a -0.0 coordinate, and so does a step with silent noise (-0.0)
        tx = system.transition(np.array([2.0, -0.0]))
        assert tx.tobytes() == np.array([-1.0, -0.0]).tobytes()
        assert simulate(system, [2.0, -0.0], 1, seed=0).ys.tobytes() == tx[None].tobytes()

    def test_non_finite_parameter_is_named(self):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"parameter a must be finite, got {value!r}"):
                StochasticSystem(("a * x1", "x2"), {"a": value}, NoiseModel.none())

    def test_a_map_of_no_state_steps_a_batch(self):
        # a coordinate that reads no state evaluates to a float, broadcast
        # over the rows: transition, step_pairs and the transfer integral take it
        system = StochasticSystem(("0.5 * x2", "0.25"), {}, NoiseModel.gaussian(0.5))
        xs = np.array([[1.0, 2.0], [3.0, -4.0], [0.0, 0.0]])
        assert system.transition(xs).tolist() == [[1.0, 0.25], [-2.0, 0.25], [0.0, 0.25]]
        assert system.transition(xs[1]).tolist() == [-2.0, 0.25]
        draws = system.noise.draw(make_rng(3), 3)
        assert step_pairs(system, xs, 3).ys.tobytes() == (system.transition(xs) + draws).tobytes()
        dct = closed_quadratic_dictionary()
        coords = pf_apply_integral_mc(system, dct, gram(dct, unit_box(2)), np.ones(4), n_mc=20,
                                      seed=1, quadrature_order=2)
        assert coords.shape == (4,) and np.isfinite(coords).all()


def _maps(depth):
    """Update expressions of depth at most ``depth`` over x1, x2, the parameter
    a and finite float constants, through +, -, * and unary -."""
    leaf = st.one_of(st.sampled_from(["x1", "x2", "a"]),
                     st.floats(allow_nan=False, allow_infinity=False).map(repr))
    if depth == 0:
        return leaf
    sub = _maps(depth - 1)
    return st.one_of(leaf, sub.map(lambda e: f"(-{e})"),
                     st.tuples(sub, st.sampled_from("+-*"), sub).map(lambda t: f"({' '.join(t)})"))


_pair = st.tuples(_maps(4), _maps(4))
_finite = st.floats(allow_nan=False, allow_infinity=False)


class TestOneLaw:
    """Every generated map T steps one law, x <- T(x) + w: the compiled and
    Python kernels and ``transition(x) + w`` give the same bytes (every NaN
    read as the one NaN), and ``step_pairs`` is one kernel step."""

    @settings(max_examples=40, deadline=None)  # each example compiles one kernel
    @given(
        update=_pair,
        a=_finite,
        starts=st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=3),
        m=st.integers(1, 3),
        noise=st.lists(st.tuples(_finite, _finite), min_size=9, max_size=9),
    )
    def test_kernels_step_transition_plus_noise(self, update, a, starts, m, noise):
        system = StochasticSystem(update, {"a": a}, NoiseModel.none())
        draws = np.array(noise)[: len(starts) * m].reshape(len(starts), m, 2)
        (compiled, stops), (python, _) = (_run(k, system, starts, draws)
                                          for k in _kernels(system).values())
        assert _bits(compiled) == _bits(python)
        with np.errstate(all="ignore"):
            stepped = system.transition(compiled[:, :-1].reshape(-1, 2)) + draws.reshape(-1, 2)
        stepped = stepped.reshape(draws.shape)
        for path, step, stop in zip(compiled, stepped, stops):  # the states the kernel wrote
            assert _bits(path[1 : stop + 2]) == _bits(step[: stop + 1])

    @settings(max_examples=60, deadline=None)
    @given(
        update=_pair,
        a=st.floats(-10.0, 10.0),
        xs=st.lists(st.tuples(_unit_coordinate, _unit_coordinate), min_size=1, max_size=6),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_step_pairs_is_one_kernel_step(self, update, a, xs, seed):
        system = StochasticSystem(update, {"a": a}, NoiseModel.gaussian(0.5))
        draws = system.noise.draw(make_rng(seed), len(xs))[:, None]
        python = dynamics._python(system.update, ("a",))[0]
        step = _run(python, system, xs, draws)[0][:, 1]
        with np.errstate(all="ignore"):
            if np.isfinite(step).all():
                assert step_pairs(system, xs, seed).ys.tobytes() == step.tobytes()
            else:  # a sample set holds finite states only
                with pytest.raises(ValueError, match="finite"):
                    step_pairs(system, xs, seed)

    @settings(max_examples=50, deadline=None)
    @given(update=_pair, w=st.sampled_from(["w1", "w2"]), op=st.sampled_from("+-*"),
           k=st.integers(0, 1))
    def test_a_map_that_reads_the_noise_is_rejected(self, update, w, op, k):
        update = list(update)
        update[k] = f"({update[k]}) {op} {w}"
        message = re.escape(f"update {update[k]!r} may use only x1, x2, a, finite float")
        with pytest.raises(ValueError, match=message) as err:
            StochasticSystem(update, {"a": 1.0}, NoiseModel.none())
        assert str(err.value).endswith(f"not {w}")


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

    def test_stream_positions_carry_across_blocks(self, baseline_params):
        # one generator serves the call: each seed's stream position is kept
        # across the noise blocks and follows the shrinking index when seed 2
        # leaves in the first block; a seed's states do not depend on its order
        # or its neighbours
        system, steps, bound, dom = make_closed_quadratic(baseline_params), BLOCK + 37, 7.0, unit_box(2)

        def run(seeds):
            blocks, failed = {seed: [] for seed in seeds}, {}
            for paths, index, out in trajectory_chunks(system, None, steps, seeds, bound, dom):
                failed.update((seeds[k], err.step) for k, err in out.items())
                for path, k in zip(paths, index.tolist()):
                    blocks[seeds[k]].append(path)
            return failed, {seed: np.concatenate([b[:-1] for b in bs] + [bs[-1][-1:]]).tobytes()
                            for seed, bs in blocks.items() if seed not in failed}

        def whole_stream(seed):  # one fresh generator draws the start and all the noise at once
            rng = make_rng(seed)
            paths = np.empty((1, steps + 1, 2))
            paths[0, 0] = dom.sample(rng)
            noise = system.noise.draw(rng, steps)[None]
            dynamics._kernel(system.update, tuple(system.params))[0](
                tuple(system.params.values()), paths, noise, bound)
            return paths[0].tobytes()

        failed, states = run([0, 1, 2, 3])
        assert failed == {2: 19690} and list(states) == [0, 1, 3]
        for seed, got in states.items():
            assert got == simulate(system, None, steps, seed, bound, dom).states.tobytes()
            assert got == whole_stream(seed)
        for seeds in ([3, 2, 1, 0], [5, 3, 7, 1, 9, 0, 2]):
            again, others = run(seeds)
            assert again[2] == 19690 and {s: others[s] for s in states} == states

    def test_no_seed_gives_no_block(self, baseline_params):
        # the start block used to be built with shape (0,), which failed the
        # state check ("x0 must be a finite planar state ...")
        system = make_closed_quadratic(baseline_params)
        assert list(trajectory_chunks(system, np.zeros(2), 10, [])) == []
        assert list(trajectory_chunks(system, None, 10, [], domain=unit_box(2))) == []
        with pytest.raises(ValueError, match="x0 must be a finite 2-D state, or None and a 2-D"):
            list(trajectory_chunks(system, np.zeros(3), 10, []))

    def test_initial_state_from_domain(self, baseline_params):
        system = make_closed_quadratic(baseline_params)
        dom = unit_box(2)
        ss = simulate(system, None, 10, seed=3, domain=dom)
        assert (np.abs(ss.xs[0]) <= 1.0).all()
        again = simulate(system, None, 10, seed=3, domain=dom)
        assert (ss.xs == again.xs).all()

    def test_divergence_reports_step(self, compiler):
        # mu = rho^2 kills the quadratic coupling, leaving a pure doubling map
        with pytest.warns(UserWarning):
            params = ClosedQuadraticParams(rho=2.0, mu=4.0, c=1.0)
        system = noiseless_quadratic(params)
        for stepping in _each_kernel(compiler):
            assert system.stepping.startswith(stepping)
            with pytest.raises(DivergenceError) as err:
                simulate(system, np.array([1000.0, 0.0]), 50, seed=1)
            # x1 doubles per step: 1000 * 2^(t+1) first exceeds 1e6 at t = 9
            assert (err.value.step, err.value.norm, err.value.threshold) == (9, 1024000.0, 1e6)
            # a norm equal to the bound passes: the next state fails
            with pytest.raises(DivergenceError) as err:
                simulate(system, np.array([1000.0, 0.0]), 50, seed=1, max_norm=1024000.0)
            assert (err.value.step, err.value.norm) == (10, 2048000.0)

    @pytest.mark.parametrize("max_norm", [np.nan, 0.0, -1.0])
    def test_max_norm_must_be_positive(self, max_norm):
        # a NaN bound would fail no state (the tripling map would run on to
        # inf at step 323), one of 0 or below would fail every state at step 0
        system = StochasticSystem(("3.0 * x1", "x2"), {}, NoiseModel.none())
        with pytest.raises(ValueError, match=r"max_norm must be positive or \+inf"):
            simulate(system, [1, 0], 800, 1, max_norm=max_norm)
        with pytest.raises(ValueError, match="max_norm"):
            next(trajectory_chunks(system, [1, 0], 800, [1], max_norm))
        with pytest.raises(DivergenceError) as err:  # the default bound: 3^13 > 1e6
            simulate(system, [1, 0], 800, 1)
        assert (err.value.step, err.value.norm) == (12, 1594323.0)
        with pytest.raises(DivergenceError) as err:  # +inf stops at the overflow alone
            simulate(system, [1, 0], 800, 1, max_norm=np.inf)
        assert (err.value.step, err.value.norm) == (323, np.inf)

    @pytest.mark.parametrize("x1", [1e300, 1e150])
    def test_overflow_fails_alike_as_floats_and_as_arrays(self, x1, compiler):
        # a seed stepped alone and in a block of six overflows silently and
        # stops at the same step, in either kernel
        with pytest.warns(UserWarning):
            params = ClosedQuadraticParams(rho=2.0, mu=4.0, c=1.0)
        system, x0, seeds = make_closed_quadratic(params), np.array([x1, 1.0]), range(6)
        for stepping in _each_kernel(compiler):
            assert system.stepping.startswith(stepping)
            lockstep = [failed for _, _, failed in trajectory_chunks(system, x0, 50, seeds, np.inf)]
            assert set().union(*lockstep) == set(range(6))
            for k, seed in enumerate(seeds):
                with pytest.raises(DivergenceError) as err:
                    simulate(system, x0, 50, seed, max_norm=np.inf)
                (alone,) = [f[0] for _, _, f in trajectory_chunks(system, x0, 50, [seed], np.inf)
                            if f]
                (block,) = [f[k] for f in lockstep if k in f]
                expected = (err.value.step, err.value.norm)
                assert (alone.step, alone.norm) == (block.step, block.norm) == expected
                assert not np.isfinite(expected[1])
                assert (expected[0] == 0) if x1 == 1e300 else (expected[0] > 0)

    def test_pairs_that_do_not_chain_are_no_trajectory(self):
        xs = np.zeros((3, 2))
        ys = np.ones((3, 2))
        ss = SampleSet(xs, ys, 0)
        assert ss.states is None
        assert ss.xs.tobytes() == xs.tobytes() and ss.ys.tobytes() == ys.tobytes()

    def test_trajectory_chains_bit_for_bit(self):
        # np.array_equal takes -0.0 for 0.0, but a lift or a CSV row does not
        xs, ys = [[1.0], [0.0], [2.0]], [[-0.0], [2.0], [3.0]]
        assert SampleSet(xs, ys, 0).states is None
        xs[1] = [-0.0]
        ss = SampleSet(xs, ys, 0)
        assert ss.states.tobytes() == np.array([[1.0], [-0.0], [2.0], [3.0]]).tobytes()
        assert ss.xs.base is ss.states and ss.ys.base is ss.states
        assert SampleSet(ys, xs, 0).states is None


class TestStepPairs:
    def test_noiseless_equals_transition(self, baseline_params):
        system = noiseless_quadratic(baseline_params)
        xs = np.random.default_rng(2).uniform(-1, 1, size=(25, 2))
        ss = step_pairs(system, xs, seed=8)
        assert ss.states is None
        np.testing.assert_allclose(ss.ys, system.transition(xs))

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    @settings(max_examples=50, deadline=None)
    @given(
        xs=st.lists(st.tuples(_unit_coordinate, _unit_coordinate), min_size=1, max_size=8),
        steps=st.integers(1, 6),
    )
    @example(xs=[(-0.0, -0.0)], steps=3)
    def test_silent_noise_leaves_every_bit_to_transition(self, name, xs, steps):
        # silent noise is -0.0, which keeps a -0.0 coordinate as transition does
        system = dataclasses.replace(SYSTEMS[name], noise=NoiseModel.none())
        xs = np.array(xs)
        assert step_pairs(system, xs, seed=8).ys.tobytes() == system.transition(xs).tobytes()
        states = [xs[0]]
        for _ in range(steps):
            states.append(system.transition(states[-1]))
        ss = simulate(system, xs[0], steps, seed=8)
        assert ss.states.tobytes() == np.array(states).tobytes()

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
            assert koopman_apply_mc(system, dct, coeffs, x, n_mc, seed=0) == (expected, 0.0)

    def test_constants_are_fixed(self, baseline_params):
        system = make_closed_quadratic(baseline_params)
        dct = closed_quadratic_dictionary()
        coeffs = np.array([1.0, 0.0, 0.0, 0.0])
        for seed in (1, 2, 3):
            val, _ = koopman_apply_mc(system, dct, coeffs, np.array([0.3, 9.0]), 50, seed)
            assert val == pytest.approx(1.0, abs=1e-12)

    def test_squared_coordinate_expectation(self, baseline_params):
        # E[(rho*x1 + xi)^2] at x=(1,0): rho^2 + 1 = 1.04
        system = make_closed_quadratic(baseline_params)
        dct = closed_quadratic_dictionary()
        coeffs = np.array([0.0, 0.0, 0.0, 1.0])
        val, se = koopman_apply_mc(system, dct, coeffs, np.array([1.0, 0.0]), 10**6, seed=42)
        assert abs(val - 1.04) <= 3.0 * se

    def test_one_draw_has_no_standard_error(self, baseline_params):
        system = make_closed_quadratic(baseline_params)
        val, se = koopman_apply_mc(system, closed_quadratic_dictionary(), np.ones(4),
                                   np.array([1.0, 0.0]), 1, seed=42)
        assert np.isfinite(val) and np.isnan(se)

    def test_rng_is_counter_based(self):
        # the documented generator: Philox keyed by the seed
        a = make_rng(99).standard_normal(4)
        b = np.random.Generator(np.random.Philox(key=99)).standard_normal(4)
        assert (a == b).all()


_seed = st.one_of(st.integers(0, 2**64 - 1), st.integers(-(2**70), -1))


def _fresh(seed):
    """The documented generator: a new Philox keyed by the seed's low 64 bits."""
    return np.random.Generator(np.random.Philox(key=seed & (2**64 - 1)))


class TestRekey:
    """``make_rng(seed, rng)`` re-keys ``rng`` to the seed's stream: it draws
    what a fresh Philox keyed by the seed draws, bit for bit, whatever it drew
    before (a negative seed is masked to 64 bits)."""

    @settings(max_examples=60, deadline=None)
    @given(before=_seed, seed=_seed, partial=st.sampled_from(["none", "raw", "uint32", "normal"]),
           m=st.integers(0, 9))
    def test_rekeyed_draws_equal_a_fresh_generator(self, before, seed, partial, m):
        rng = make_rng(before)
        if partial == "raw":  # leaves buffer_pos below 4
            rng.bit_generator.random_raw(1)
        elif partial == "uint32":  # leaves has_uint32 set
            rng.integers(2**32, dtype=np.uint32)
        elif partial == "normal":
            rng.standard_normal(3)
        assert make_rng(seed, rng) is rng
        fresh = _fresh(seed)
        assert str(rng.bit_generator.state) == str(fresh.bit_generator.state)
        assert str(make_rng(seed).bit_generator.state) == str(fresh.bit_generator.state)
        dom = Domain([-1.0, -0.5], [2.0, 0.5])
        assert dom.sample(rng).tobytes() == dom.sample(fresh).tobytes()
        assert dom.sample(rng, m).tobytes() == dom.sample(fresh, m).tobytes()
        noise = NoiseModel.gaussian([0.3, 2.0])
        assert noise.draw(rng, m).tobytes() == noise.draw(fresh, m).tobytes()
        out = np.empty((m, 2))
        rng.standard_normal(out=out)
        assert out.tobytes() == fresh.standard_normal((m, 2)).tobytes()
        assert rng.integers(2**32, dtype=np.uint32) == fresh.integers(2**32, dtype=np.uint32)

    @given(seed=_seed, m=st.integers(1, 40))
    def test_noise_into_the_block_equals_draw(self, seed, m):
        # standard_normal into a buffer, then += 0.0 and *= std_dev, is
        # rng.normal(0.0, 1.0) * std_dev, which turns a -0.0 into +0.0
        std = np.array([0.25, 3.0])
        out = np.empty((m, 2))
        make_rng(seed, make_rng(0)).standard_normal(out=out)
        out += 0.0
        out *= std
        assert out.tobytes() == NoiseModel.gaussian(std).draw(_fresh(seed), m).tobytes()
        zero = np.array([-0.0, 1.0])
        zero += 0.0
        assert zero.tobytes() == (0.0 + 1.0 * np.array([-0.0, 1.0])).tobytes()


class TestNoiseModel:
    def test_none_draws_zero(self):
        # one column per std entry: a planar system's silent noise has two
        draws = noiseless_quadratic(ClosedQuadraticParams(0.2, 0.3)).noise.draw(make_rng(0), 5)
        assert draws.shape == (5, 2) and draws.tobytes() == np.full((5, 2), -0.0).tobytes()
        assert NoiseModel.none().draw(make_rng(0), 5).tobytes() == np.full((5, 1), -0.0).tobytes()

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
            NoiseModel.none().density(np.zeros((1, 2)))


def _exact_koopman(system, dictionary):
    """The Koopman matrix of a system whose map closes on the dictionary under
    Gaussian noise: at 60 states x uniform on the unit box, E_xi[psi(T(x) + xi)]
    by a tensor Gauss-Hermite rule of 3 nodes per axis (exact for polynomials
    of degree 5 in each noise coordinate), projected on the dictionary by
    least squares, which is exact because the image lies in its span."""
    n = len(system.update)
    nodes, weights = np.polynomial.hermite_e.hermegauss(3)  # weight exp(-z^2 / 2)
    grid = np.stack(np.meshgrid(*[nodes] * n, indexing="ij"), axis=-1).reshape(-1, n)
    mass = np.prod(np.stack(np.meshgrid(*[weights] * n, indexing="ij"), axis=-1).reshape(-1, n),
                   axis=1) / np.sqrt(2 * np.pi) ** n
    xs = unit_box(n).sample(make_rng(5), 60)
    images = np.array([mass @ evaluate_many(dictionary, tx + grid * system.noise.std_dev)
                       for tx in system.transition(xs)])
    return np.linalg.lstsq(evaluate_many(dictionary, xs), images, rcond=None)[0]


class TestAnyDimension:
    """The simulator, the estimator and the oracles at n = 1 and n = 3: the
    dimension is the length of the update."""

    CASES = {"line": (AFFINE_LINE, make_monomial_dictionary(1, 2)),
             "triangular": (TRIANGULAR, TRIANGULAR_DICTIONARY)}

    def test_exact_koopman_entries(self):
        # the rule against entries worked by hand: E[(rho x1 + xi)^2] is
        # rho^2 x1^2 + s^2, E[(rho x1 + xi)^4] is rho^4 x1^4 + 6 rho^2 s^2 x1^2 + 3 s^4,
        # and E[x1'^2 x2'] holds s^2 (mu x2 + c x1^2)
        k, s2 = _exact_koopman(TRIANGULAR, TRIANGULAR_DICTIONARY), 0.3**2
        one, x1, x2, x3, x1x1, x1x1x2, x1x1x1x1, x2x2 = range(8)
        expected = {(one, x1x1): s2, (x1x1, x1x1): 0.25, (one, x1x1x1x1): 3 * s2 * s2,
                    (x1x1, x1x1x1x1): 6 * 0.25 * s2, (x1x1x1x1, x1x1x1x1): 0.0625,
                    (x2, x1x1x2): 0.4 * s2, (x1x1, x1x1x2): s2, (x1x1x1x1, x1x1x2): 0.25,
                    (x3, x3): 0.3, (x2x2, x3): 0.5, (one, x2x2): s2, (x1x1x2, x2x2): 0.8}
        for (row, col), value in expected.items():
            assert k[row, col] == pytest.approx(value, abs=1e-12)
        assert np.count_nonzero(np.abs(k) > 1e-12) == 19
        line = _exact_koopman(*self.CASES["line"])  # [1, x, x^2] under x' = 0.5 x + 0.25 + xi
        np.testing.assert_allclose(line, [[1, 0.25, 0.0625 + s2], [0, 0.5, 0.25], [0, 0, 0.25]],
                                   atol=1e-12)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_noiseless_estimate_recovers_the_operator(self, case):
        system, dictionary = self.CASES[case]
        quiet = dataclasses.replace(system, noise=NoiseModel.none())
        n = len(system.update)
        pairs = step_pairs(quiet, unit_box(n).sample(make_rng(11), 200), seed=3)
        est = estimate_koopman(accumulate(MomentPair.empty(dictionary), dictionary, pairs))
        assert np.abs(est.matrix - _exact_koopman(quiet, dictionary)).max() <= 1e-10

    def test_mean_error_falls_with_T(self):
        # the T^(-1/2) rate: ten times the samples cut the mean Frobenius
        # error by about sqrt(10), here checked as more than a factor 2
        k = _exact_koopman(TRIANGULAR, TRIANGULAR_DICTIONARY)
        means = []
        for T in (1000, 10000):
            errs = []
            for seed in range(20):
                samples = simulate(TRIANGULAR, None, T, mix_seed(35, T, seed), domain=unit_box(3))
                moments = accumulate(MomentPair.empty(TRIANGULAR_DICTIONARY),
                                     TRIANGULAR_DICTIONARY, samples)
                errs.append(np.linalg.norm(estimate_koopman(moments).matrix - k))
            means.append(np.mean(errs))
        assert means[1] < 0.5 * means[0]

    def test_simulate_is_its_path_in_a_block(self):
        # past BLOCK steps, so each seed's stream is saved and restored at n = 3
        seeds, steps, dom = [4, 5, 6], BLOCK + 5, unit_box(3)
        blocks = {seed: [] for seed in seeds}
        for paths, index, failed in trajectory_chunks(TRIANGULAR, None, steps, seeds, domain=dom):
            assert failed == {} and paths.shape[2] == 3
            for path, k in zip(paths, index.tolist()):
                blocks[seeds[k]].append(path)
        for seed, bs in blocks.items():
            states = np.concatenate([b[:-1] for b in bs] + [bs[-1][-1:]])
            alone = simulate(TRIANGULAR, None, steps, seed, domain=dom)
            assert states.tobytes() == alone.states.tobytes()

    @pytest.mark.parametrize("name", ["cubic-line", "triangular"])
    def test_step_pairs_is_one_kernel_step(self, name):
        system = SHAPES[name]
        n = len(system.update)
        xs = unit_box(n).sample(make_rng(9), 6)
        draws = system.noise.draw(make_rng(21), len(xs))[:, None]
        ys = step_pairs(system, xs, 21).ys
        assert ys.shape == (6, n)
        for kernel in _kernels(system).values():
            assert ys.tobytes() == _run(kernel, system, xs, draws)[0][:, 1].tobytes()
        assert ys.tobytes() == (system.transition(xs) + draws[:, 0]).tobytes()

    def test_a_map_of_constants_steps_a_batch(self):
        # a map that reads no state at all used to return one state for a
        # batch: (2,) for rows (3, 2)
        for update in (("0.5", "0.25"), ("-0.0",)):
            system = StochasticSystem(update, {}, NoiseModel.none())
            xs = np.ones((3, len(update)))
            expected = np.tile([float(e) for e in update], (3, 1))
            assert system.transition(xs).tobytes() == expected.tobytes()
            assert system.transition(xs[0]).tobytes() == expected[0].tobytes()

    def test_the_oracle_and_the_divergence_norm_take_n_coordinates(self):
        x = np.array([0.5, -0.25, 1.0])
        value, _ = koopman_apply_mc(TRIANGULAR, TRIANGULAR_DICTIONARY, np.eye(8)[6], x, 4000, 2)
        k = _exact_koopman(TRIANGULAR, TRIANGULAR_DICTIONARY)
        exact = evaluate(TRIANGULAR_DICTIONARY, x) @ k
        assert abs(value - exact[6]) < 0.01
        # the norm of the failing state, summed in coordinate order as the kernels
        # sum it; summed in another order it would differ in the last bit
        big = StochasticSystem(("2.0 * x1", "x2", "x3"), {}, NoiseModel.none())
        with pytest.raises(DivergenceError) as err:
            simulate(big, [1.0, 2.978, 2.594], 30, 0, max_norm=100.0)
        a, b, c = 128.0 * 128.0, 2.978 * 2.978, 2.594 * 2.594
        assert (err.value.step, err.value.norm) == (6, np.sqrt((a + b) + c))
        assert np.sqrt((a + b) + c) < np.sqrt(a + (b + c))
        # so a state whose norm equals the bound in that order passes both kernels
        for kernel in _kernels(big).values():
            paths, stops = _run(kernel, big, [(64.0, 2.978, 2.594)], np.full((1, 1, 3), -0.0),
                                np.sqrt((a + b) + c))
            assert stops.tolist() == [1] and paths[0, 1].tolist() == [128.0, 2.978, 2.594]
