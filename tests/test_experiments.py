import csv
import json
import os
import re
import warnings
from dataclasses import asdict
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopest import (
    closed_quadratic_koopman,
    ClosedQuadraticParams,
    MomentPair,
    accumulate,
    bound_terms,
    config_from_dict,
    derive_seed,
    estimate_koopman,
    fit_loglog_slope,
    load_config,
    make_vanderpol,
    residuals,
    run_bound_calibration,
    run_closure,
    run_pf_pipeline,
    run_sweep,
    simulate,
)
from koopest import dynamics, experiments
from koopest.dynamics import BLOCK, DivergenceError
from koopest.experiments import (
    SCORE_STREAM,
    Fits,
    _seed_blocks,
    build_dictionary,
    build_domain,
    build_system,
    fit_realizations,
    true_koopman,
)
from koopest.io import load_operator

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

    @pytest.mark.parametrize(
        "ts, errs, pair",
        [([10, 100], [np.inf, 1.0], "(10.0, inf)"),
         ([10, 100, 1000], [1.0, 0.0, -1.0], "(100.0, 0.0)"),
         ([10, 100], [1.0, np.nan], "(100.0, nan)"),
         ([0, 100], [1.0, 0.5], "(0.0, 1.0)"),
         ([10, -100], [1.0, 0.5], "(-100.0, 0.5)"),
         ([10, np.inf], [1.0, 0.5], "(inf, 0.5)")],
        ids=["inf-error", "zero-error", "nan-error", "zero-T", "negative-T", "inf-T"],
    )
    def test_a_point_off_the_log_scale_is_named(self, ts, errs, pair):
        # each used to return an infinite or NaN slope, some with a numpy
        # "divide by zero" warning; the first offending pair is named
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^\(T, error\) = {re.escape(pair)}: "):
                fit_loglog_slope(ts, errs)


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
        # a repeat used to load and write two identical bounds.csv rows per T
        with pytest.raises(ValueError, match=r"^epsilon_list must not repeat a value"):
            smoke_config(epsilon_list=[0.1, 0.1])

    def test_empty_grid_rejected(self, smoke_config):
        with pytest.raises(ValueError, match="T_grid must not be empty"):
            smoke_config(T_grid=[])

    def test_empty_epsilon_list_rejected(self, smoke_config):
        # it used to run every fit and write a bounds.csv of only its header
        with pytest.raises(ValueError, match="^epsilon_list must not be empty$"):
            smoke_config(epsilon_list=[])

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
            # keys no config varied: the reference length is a module constant,
            # and delta_hat is always fitted
            ("reference_T_factor", 100, "'reference_T_factor' in config$"),
            ("delta_hat_override", 0.5, "'delta_hat_override' in config$"),
            # a YAML integer key beside a string key used to end in a TypeError
            ("system", {**CLOSED_QUADRATIC, "params": {"rho": 0.2, "mu": 0.3, 1: 2, "zz": 3}},
             "^unknown key 1 in system.params$"),
            ("domain", {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], 1: 2, "zz": 3},
             "^unknown key 1 in domain$"),
        ],
        ids=["top-level", "system", "noise", "dictionary", "domain", "reference_T_factor",
             "delta_hat_override", "params-mixed-types", "domain-mixed-types"],
    )
    def test_unknown_key_rejected(self, smoke_config, key, value, message):
        with pytest.raises(ValueError, match=message):
            smoke_config(**{key: value})

    def test_top_level_keys_of_mixed_type_rejected(self):
        # sorting an integer key beside a string key used to raise a TypeError
        with pytest.raises(ValueError, match="^unknown key 1 in config$"):
            experiments.config_from_dict({1: 2, "zz": 3})

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
             r"^system.noise.std: std_dev needs 1 or 2 entries, one per coordinate, got 3$"),
            ("system", {**CLOSED_QUADRATIC, "noise": {"kind": "none", "std": [0.0] * 3}},
             r"^system.noise.std: std_dev needs 1 or 2 entries"),
            ("dictionary", {"kind": "monomial", "state_dim": 3, "max_degree": 2},
             r"^dictionary.state_dim must be of the system's dimension 2, got 3$"),
            ("domain", {"lower": [-1.0, -1.0, -1.0], "upper": [1.0, 1.0, 1.0]},
             r"^domain must be of the system's dimension 2, got 3$"),
            # the one config error that named no key
            ("domain", {"lower": [-1.0, -1.0], "upper": [1.0]},
             r"^domain: lower and upper must be 1-D vectors of the same length$"),
            # a list is no table key: it used to raise "unhashable type: 'list'"
            ("system", {**CLOSED_QUADRATIC, "kind": ["closed-quadratic"]},
             r"^unknown system\.kind \['closed-quadratic'\]$"),
            ("dictionary", {"kind": "foo"}, r"^unknown dictionary\.kind 'foo'$"),
        ],
        ids=["noise-kind", "param-typo", "param-missing", "vanderpol-param", "system-kind",
             "noise-std-count", "silent-noise-std-count", "dictionary-dim", "domain-dim",
             "domain-lengths", "system-kind-list", "dictionary-kind"],
    )
    def test_bad_system_rejected_at_load(self, smoke_config, key, value, message):
        with pytest.raises(ValueError, match=message):
            smoke_config(**{key: value})

    @pytest.mark.parametrize("key", ["state_dim", "max_degree"])
    def test_monomial_keys_rejected_for_another_dictionary_kind(self, smoke_config, key):
        # both used to load, land in the sidecars and change nothing
        with pytest.raises(ValueError, match=f"^unknown key {key!r} in dictionary$"):
            smoke_config(dictionary={"kind": "closed-quadratic", key: 3})

    @pytest.mark.parametrize(
        "system, key",
        [
            ({"kind": "vanderpol", "params": {"dt": -0.1}}, "system.params.dt"),
            ({"kind": "vanderpol", "params": {"dt": float("nan")}}, "system.params.dt"),
            ({"kind": "vanderpol", "params": {"dt": float("inf")}}, "system.params.dt"),
            ({**CLOSED_QUADRATIC, "params": {"rho": 0.2, "mu": 0.3, "c": -1}}, "system.params.c"),
            ({**CLOSED_QUADRATIC, "params": {"rho": "abc", "mu": 0.3}}, "system.params.rho"),
            ({**CLOSED_QUADRATIC, "noise": {"std": [-1.0, 1.0]}}, "system.noise.std"),
        ],
        ids=["dt-negative", "dt-nan", "dt-inf", "c-negative", "rho-text", "std-negative"],
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
        [("label", ["x"]), ("label", 5), ("output_dir", 5), ("output_dir", ""), ("output_dir", None)],
        ids=["label-list", "label-int", "output_dir-int", "output_dir-empty", "output_dir-null"],
    )
    def test_label_and_output_dir_must_be_text(self, smoke_config, key, value):
        # run_closure used to run its whole Monte Carlo before os.path.join
        # raised a TypeError naming no key
        with pytest.raises(ValueError, match=rf"^{key} must be a (non-empty )?string, got "):
            smoke_config(**{key: value})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("quadrature_order", 0),
            ("quadrature_order", 2.5),
            ("closure_n_mc", 1),
            ("closure_n_states", 3),
            ("divergence_threshold", -1),
            ("divergence_threshold", "1e6"),
            ("divergence_threshold", 10**400),
            ("n_realizations", "abc"),
            ("dictionary.state_dim", "2"),
            ("dictionary.state_dim", 1),
            ("dictionary.max_degree", 2.5),
            ("dictionary.max_degree", True),
            ("T_grid", [200.7, 400]),
            ("T_grid", [1.0e3, 2000]),
            ("base_seed", 1.5),
            ("base_seed", True),
            ("system.params.rho", True),
            ("system.params.c", "1.0"),
            ("system.params.rho", 10**400),
            ("system.noise.std", True),
            ("system.noise.std", [1.0, True]),
            ("system.noise.std", ["1.0", 1.0]),
            ("epsilon_list", [0.1, "0.5"]),
            ("epsilon_list", [True]),
            ("domain.lower", ["-1", -1.0]),
            ("domain.upper", [1.0, True]),
        ],
        ids=["quadrature-zero", "quadrature-fraction", "closure-one-draw", "closure-below-N",
             "threshold-negative", "threshold-text", "threshold-huge", "realizations-text",
             "state-dim-text", "state-dim-one", "degree-fraction", "degree-bool",
             "T_grid-fraction", "T_grid-float", "seed-fraction", "seed-bool",
             "rho-bool", "c-text", "rho-huge", "std-bool", "std-bool-entry", "std-text",
             "epsilon-text", "epsilon-bool", "lower-text", "upper-bool"],
    )
    def test_bad_count_or_threshold_named(self, smoke_config, key, value):
        # each used to load, then fail late (a bare TypeError, a failed quadrature)
        # or run silently wrong (NaN closure floors, every fit diverged, degree 1,
        # T = 200.7 run as 200, a bool or a string read as a number, an
        # integer too large for a float ending in an OverflowError traceback)
        section, _, leaf = key.rpartition(".")
        while section:  # the value replaces one key of a valid section
            value = {**SECTIONS[section], leaf: value}
            section, _, leaf = section.rpartition(".")
        with pytest.raises(ValueError, match=rf"^{re.escape(key)} must be "):
            smoke_config(**{leaf: value})

    @pytest.mark.parametrize("key", ["T_grid", "base_seed", "domain.lower", "domain.upper",
                                     "dictionary.max_degree"])
    def test_missing_required_key_named(self, key):
        # each used to raise a bare KeyError
        data = {"T_grid": [200, 400], "base_seed": 1, "domain": dict(SECTIONS["domain"]),
                "dictionary": dict(SECTIONS["dictionary"])}
        section, _, leaf = key.rpartition(".")
        del (data[section] if section else data)[leaf]
        with pytest.raises(ValueError, match=rf"^missing key '{leaf}' in {section or 'config'}$"):
            config_from_dict(data)

    @pytest.mark.parametrize(
        "key, value",
        [("system", "closed-quadratic"), ("system.noise", None), ("system.params", "rho"),
         ("dictionary", "monomial"), ("domain", [[-1.0, -1.0], [1.0, 1.0]])],
        ids=["system", "system.noise", "system.params", "dictionary", "domain"],
    )
    def test_section_must_be_a_mapping(self, smoke_config, key, value):
        # each used to fail without the key: an AttributeError, "'NoneType'
        # object is not iterable" (an empty YAML section), a dict() error,
        # unknown key 'c' in dictionary, an unhashable list
        section, _, leaf = key.rpartition(".")
        if section:
            value = {**SECTIONS[section], leaf: value}
        with pytest.raises(ValueError, match=rf"^{re.escape(key)} must be a mapping, got "):
            smoke_config(**{section or leaf: value})

    @pytest.mark.parametrize(
        "name", ["closed_quadratic_baseline", "closed_quadratic_strong", "vanderpol", "smoke"]
    )
    def test_shipped_config_round_trips_through_json(self, name):
        # the run sidecars record asdict(config); it used to hold flat fields
        # that config_from_dict rejected ("unknown key 'dict_max_degree'")
        cfg = load_config(os.path.join("configs", f"{name}.yaml"))
        assert config_from_dict(json.loads(json.dumps(asdict(cfg)))) == cfg

    def test_sections_hold_defaults_and_normalized_values(self, smoke_config):
        # a scalar std, integer params, bounds and threshold, a dictionary without its kind
        system = {"kind": "closed-quadratic", "params": {"rho": 0, "mu": 0.3}, "noise": {"std": 2}}
        cfg = smoke_config(system=system, dictionary={"state_dim": 2, "max_degree": 1},
                           domain={"lower": [-1, -2], "upper": [1, 2]}, divergence_threshold=5)
        assert cfg.system == {"kind": "closed-quadratic", "params": {"rho": 0.0, "mu": 0.3},
                              "noise": {"kind": "gaussian-iid", "std": (2.0,)}}
        assert type(cfg.system["params"]["rho"]) is float
        assert type(cfg.divergence_threshold) is float
        assert cfg.dictionary == {"kind": "monomial", "state_dim": 2, "max_degree": 1}
        assert cfg.domain == {"lower": (-1.0, -2.0), "upper": (1.0, 2.0)}
        assert config_from_dict(json.loads(json.dumps(asdict(cfg)))) == cfg

    def test_monomial_state_dim_defaults_to_the_system_dimension(self, smoke_config):
        # "missing key 'state_dim'" used to reject a dictionary whose only
        # loadable state_dim is the system's 2; the sidecars still record it
        implicit = smoke_config(dictionary={"kind": "monomial", "max_degree": 2})
        assert implicit == smoke_config(dictionary=SECTIONS["dictionary"])
        assert asdict(implicit)["dictionary"]["state_dim"] == 2

    def test_standard_vdp_takes_only_a_boolean(self, smoke_config):
        system = {"kind": "vanderpol", "params": {"dt": 0.001, "standard_vdp": "false"}}
        # the string "false" used to read as true
        with pytest.raises(ValueError, match="system.params.standard_vdp must be true or false"):
            smoke_config(system=system)
        system["params"]["standard_vdp"] = True
        built = build_system(smoke_config(system=system))
        textbook = make_vanderpol(0.001, standard_vdp=True)
        states = np.array([[2.0, 1.0], [-0.5, 0.25]])
        assert built.transition(states).tobytes() == textbook.transition(states).tobytes()
        assert not np.array_equal(make_vanderpol(0.001).transition(states),
                                  textbook.transition(states))

    def test_closure_states_default_to_at_least_N(self):
        # it used to default to 20, so a dictionary of more than 20 observables
        # could not load for any subcommand
        big = {"kind": "monomial", "state_dim": 2, "max_degree": 5}  # N = 21
        assert load_config("configs/vanderpol.yaml").closure_n_states == 20
        assert load_config("configs/vanderpol.yaml", dictionary=big).closure_n_states == 21
        message = r"^closure_n_states must be an integer of at least 21, got 20$"
        with pytest.raises(ValueError, match=message):
            load_config("configs/vanderpol.yaml", dictionary=big, closure_n_states=20)

    def test_true_koopman_uses_noise_variance(self, smoke_config):
        cfg = smoke_config()
        k = true_koopman(cfg)
        expected = closed_quadratic_koopman(
            ClosedQuadraticParams(0.2, 0.3, 1.0), noise_variance=1.0
        )
        np.testing.assert_array_equal(k, expected)
        assert true_koopman(smoke_config(dictionary=SECTIONS["dictionary"])) is None


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
        fits = fit_realizations(cfg, T, [seed])
        samples = simulate(
            build_system(cfg), None, T, seed, cfg.divergence_threshold, build_domain(cfg)
        )
        dct = build_dictionary(cfg)
        moments = accumulate(MomentPair.empty(dct), dct, samples)
        est = estimate_koopman(moments)
        assert fits.status.tolist() == ["ok"] and fits.cause.tolist() == [None]
        np.testing.assert_array_equal(fits.sigma0[0], moments.sigma0_hat)
        np.testing.assert_array_equal(fits.matrix[0], est.matrix)
        assert est.seed == seed
        assert fits.cond[0] == est.condition_sigma0

    def test_divergence_keeps_no_moments(self, smoke_config):
        with pytest.warns(UserWarning, match="diverge"):  # the system is built at load
            cfg = smoke_config(
                system={"kind": "closed-quadratic", "params": {"rho": 2.0, "mu": 4.0, "c": 1.0}},
                divergence_threshold=1e4,
            )
        with pytest.warns(UserWarning, match="diverge"):
            fits = fit_realizations(cfg, 120, [5])
        assert fits.status.tolist() == ["diverged"]
        assert isinstance(fits.cause[0], DivergenceError)
        for stack in (fits.matrix, fits.sigma0, fits.cond):
            assert np.isnan(stack).all()


def _assert_same_fit(a, b):
    """Two Fits records agree: statuses, the K_hat, S0 and condition stacks
    bit for bit (NaN rows included), and each cause's step and norm."""
    assert a.status.tolist() == b.status.tolist()
    for x, y in ((a.matrix, b.matrix), (a.sigma0, b.sigma0), (a.cond, b.cond)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()

    def steps(fits):
        return [None if err is None else (err.step, err.norm) for err in fits.cause]

    assert steps(a) == steps(b)


def _row(fits, k):
    """Row k of a Fits record, as a record of one."""
    return Fits(*(field[k : k + 1] for field in fits))


_BLOCK_CONFIG = config_from_dict(
    {"system": CLOSED_QUADRATIC, "dictionary": {"kind": "closed-quadratic"},
     "T_grid": [40], "base_seed": 1}
)


@lru_cache(maxsize=None)
def _solo_fit(T, seed):
    return fit_realizations(_BLOCK_CONFIG, T, [seed])


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
        stacks = [fit_realizations(_BLOCK_CONFIG, T, block) for block in blocks]
        fits = [_row(stack, k) for stack, block in zip(stacks, blocks) for k in range(len(block))]
        assert len(fits) == len(seeds)
        for seed, fit in zip(seeds, fits):
            _assert_same_fit(fit, _solo_fit(T, seed))

    def test_block_crosses_the_noise_block(self):
        T, seeds = BLOCK + 37, [11, 12, 13, 14, 15]
        fits = fit_realizations(_BLOCK_CONFIG, T, seeds)
        assert fits.status.tolist() == ["ok"] * len(seeds)
        for k, seed in enumerate(seeds):
            _assert_same_fit(_row(fits, k), _solo_fit(T, seed))

    def test_diverged_realizations_leave_the_block(self, smoke_config):
        # a low threshold: three trajectories stay inside for all 70,000 steps,
        # four leave it in the first noise block and one in the second
        cfg = smoke_config(divergence_threshold=6.5)
        T, seeds = 70_000, list(range(8))
        fits = fit_realizations(cfg, T, seeds)
        assert fits.status.tolist() == ["ok", "diverged", "diverged", "diverged",
                                        "diverged", "ok", "ok", "diverged"]
        assert fits.cause[1].step >= BLOCK > max(fits.cause[k].step for k in (2, 3, 4, 7))
        system, domain = build_system(cfg), build_domain(cfg)
        for k, seed in enumerate(seeds):
            fit = _row(fits, k)
            _assert_same_fit(fit, fit_realizations(cfg, T, [seed]))
            if fit.status[0] == "diverged":
                assert np.isnan(fit.matrix).all() and np.isnan(fit.sigma0).all()
                with pytest.raises(DivergenceError) as err:
                    simulate(system, None, T, seed, cfg.divergence_threshold, domain)
                assert (err.value.step, str(err.value)) == (fit.cause[0].step, str(fit.cause[0]))
            else:
                assert fit.cause[0] is None

    def test_fit_groups_cross_the_pool(self, smoke_config):
        # at T = 50 the 8 seeds are one block at workers=1 and two
        # blocks of 4 at workers=2, each holding one diverged seed (steps 35, 44)
        cfg = smoke_config(divergence_threshold=3.5)
        groups = [(50, list(range(8))), (60, list(range(8, 14)))]
        assert [len(b) for b in experiments._seed_blocks(groups[0][1], 50, 2)] == [4, 4]
        one, two = (experiments._fit_groups(cfg, groups, workers) for workers in (1, 2))
        assert one[0].status.tolist() == ["ok"] * 4 + ["diverged"] * 2 + ["ok"] * 2
        assert [err.step for err in one[0].cause[4:6]] == [35, 44]
        assert len(one[1].status) == 6
        for a, b in zip(one, two):
            _assert_same_fit(a, b)

    @pytest.mark.parametrize(
        "T, n_seeds, workers",
        [(20, 500, 2), (200, 500, 1), (200, 500, 2), (200, 100, 2), (10_000, 8, 1),
         (50_000, 8, 2), (100_000, 3, 1), (40, 3, 2), (40, 9, 2)],
    )
    def test_seed_blocks(self, T, n_seeds, workers):
        seeds = list(range(n_seeds))
        blocks = _seed_blocks(seeds, T, workers)
        assert [s for block in blocks for s in block] == seeds
        assert len(blocks) >= min(workers, n_seeds)
        size, rows = len(blocks[0]), min(T, BLOCK)
        assert size * rows <= BLOCK  # at most one fit's rows in memory
        # the tasks that run at once share the process: together they hold one
        # fit's rows, or one seed each where a seed holds more than its share
        assert min(workers, len(blocks)) * size * rows <= max(BLOCK, workers * rows)
        assert all(len(block) <= size for block in blocks)
        # as few tasks as memory and the workers allow: a block of seeds steps
        # in one kernel call, never slower than its seeds fitted one at a time
        assert len(blocks) <= max(workers, -(-n_seeds // max(1, BLOCK // workers // rows)))


def _materialized_fit(cfg, T, seed):
    """One seed's fit through simulate -> accumulate -> estimate_koopman,
    recorded as fit_realizations records it."""
    dct = build_dictionary(cfg)
    none = np.full((1, dct.n_basis, dct.n_basis), np.nan)
    try:
        samples = simulate(
            build_system(cfg), None, T, seed, cfg.divergence_threshold, build_domain(cfg)
        )
    except DivergenceError as err:
        return Fits(np.array(["diverged"]), none, none, np.array([np.nan]), np.array([err]))
    moments = accumulate(MomentPair.empty(dct), dct, samples)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a fallback is flagged "singular"
        est = estimate_koopman(moments)
    status = "singular" if est.fallback else "ok"
    return Fits(np.array([status]), est.matrix[None], moments.sigma0_hat[None],
                np.array([est.condition_sigma0]), np.array([None]))


_NOISELESS = {**CLOSED_QUADRATIC, "noise": {"kind": "none", "std": [1.0]}}
_DEGREE_4 = {"dictionary": {"kind": "monomial", "state_dim": 2, "max_degree": 4},
             "closure_n_states": 15}  # N = 15


class TestStackedFit:
    """A block's (R, N, N) moments, one eigvalsh and per-realization
    LAPACK solves give each seed the bits of its materialized one-seed fit."""

    @pytest.mark.parametrize(
        "overrides, T, seeds, statuses",
        [
            # seed 4 leaves the bounded region at step 309, the others stay
            ({"divergence_threshold": 4.5}, 500, range(8), ["ok"] * 4 + ["diverged"] + ["ok"] * 3),
            # the noiseless contracting map: seed 2's states collapse fastest
            ({"system": _NOISELESS}, 1000, range(6), ["ok", "ok", "singular", "ok", "ok", "ok"]),
            ({"dictionary": {"kind": "monomial", "state_dim": 2, "max_degree": 2}}, 300,
             range(5), ["ok"] * 5),
            (_DEGREE_4, 300, range(5), ["ok"] * 5),
            # BLOCK rows at N = 15, where a 2-D product could differ from a stacked one
            (_DEGREE_4, BLOCK + 37, [3, 4], ["ok"] * 2),
        ],
        ids=["diverges-mid-block", "singular", "N=6", "N=15", "N=15-beyond-BLOCK"],
    )
    def test_block_matches_materialized_fits(self, smoke_config, overrides, T, seeds, statuses):
        cfg = smoke_config(**overrides)
        seeds = list(seeds)
        fits = fit_realizations(cfg, T, seeds)
        assert fits.status.tolist() == statuses
        for k, seed in enumerate(seeds):
            _assert_same_fit(_row(fits, k), _materialized_fit(cfg, T, seed))


class TestRequiredFit:
    """The fits a run cannot do without (the reference, the transfer matrix,
    the bound terms) share one check: a diverged row is an error naming the
    fit and T, chained from its DivergenceError; a singular one warns."""

    def test_singular_fit_warns(self, smoke_config, monkeypatch):
        # seed 2's noiseless trajectory collapses (TestStackedFit): pf's
        # transfer-matrix fit is kept with the bytes of its fit_realizations row
        cfg = smoke_config(system=_NOISELESS, T_grid=[1000])
        derive = experiments.derive_seed
        monkeypatch.setattr(experiments, "derive_seed", lambda base, T, stream: (
            2 if stream == experiments.PF_STREAM else derive(base, T, stream)))
        with pytest.warns(UserWarning) as record:
            run_pf_pipeline(cfg)
        messages = [str(w.message) for w in record if "transfer-matrix" in str(w.message)]
        assert messages == ["the transfer-matrix fit at T=1000 is singular; using its fallback"]
        matrix, meta = load_operator(os.path.join(cfg.output_dir, "koopman_matrix.csv"))
        fits = fit_realizations(cfg, 1000, [2])
        assert fits.status.tolist() == ["singular"]
        assert matrix.tobytes() == fits.matrix[0].tobytes()
        assert meta == {"operator_kind": "koopman", "dict_names": list(build_dictionary(cfg).names),
                        "sample_count": 1000, "seed": 2, "condition_sigma0": fits.cond[0],
                        "fallback": True}

    def test_only_a_singular_first_bounds_fit_warns(self, smoke_config, monkeypatch):
        # delta_hat keeps the first fit's estimate, so its fallback warns; any
        # other singular fit is only counted as failed
        cfg = smoke_config(system=_NOISELESS, T_grid=[1000], n_realizations=6,
                           n_term_realizations=6)
        message = "the bound-term fit at T=1000 is singular; using its fallback"
        for seeds, expected in (([2, 0, 1, 3, 4, 5], [message]), ([0, 1, 2, 3, 4, 5], [])):
            monkeypatch.setattr(experiments, "_stream_seeds",
                                lambda config, T, stream, count: seeds[:count])
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                (report,) = run_bound_calibration(cfg)
            assert [str(w.message) for w in record] == expected
            assert (report.n_realizations, report.n_failed) == (5, 1)

    def test_diverged_fit_is_named(self, smoke_config):
        # no analytic operator on the monomial dictionary: the sweep's
        # reference is one fit at T = 4,000, which leaves the low threshold
        cfg = smoke_config(dictionary=SECTIONS["dictionary"], T_grid=[20, 40],
                           divergence_threshold=3.5)
        message = r"^the reference fit at T=4000 failed: diverged$"
        with pytest.raises(RuntimeError, match=message) as err:
            run_sweep(cfg)
        cause = err.value.__cause__
        assert isinstance(cause, DivergenceError) and cause.step < 4000 and cause.norm > 3.5


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

    @pytest.mark.parametrize("threshold", [4.0, 4.5])
    def test_aggregates_recompute_from_points(self, smoke_config, threshold):
        # a low divergence threshold fails some realizations at every T; at
        # 4.0 one T keeps a single estimate, whose standard error is nan
        cfg = smoke_config(n_realizations=6, divergence_threshold=threshold)
        curve = run_sweep(cfg)
        assert all(0 < n for n in curve.n_failed)

        def rows(name):
            with open(os.path.join(cfg.output_dir, name), newline="") as fh:
                return list(csv.DictReader(fh))

        points = rows("sweep_points.csv")
        sweep = rows("sweep.csv")
        assert [int(row["T"]) for row in sweep] == list(cfg.T_grid)
        for row in sweep:
            group = [p for p in points if p["T"] == row["T"]]
            errs = [float(p["rel_err"]) for p in group if p["status"] == "ok"]
            assert len(group) == cfg.n_realizations
            assert int(row["n_ok"]) == len(errs)
            assert int(row["n_failed"]) == len(group) - len(errs)
            assert row["mean_rel_err"] == repr(float(np.mean(errs)))
            se = np.std(errs, ddof=1) / np.sqrt(len(errs)) if len(errs) > 1 else np.nan
            assert row["std_err"] == repr(float(se))


class TestSidecarConfig:
    def test_smoke_run_sidecars_load_back(self, smoke_config):
        cfg = smoke_config()
        run_sweep(cfg)
        run_bound_calibration(cfg)
        for name in ("sweep.meta.json", "bounds.meta.json"):
            with open(os.path.join(cfg.output_dir, name)) as fh:
                assert config_from_dict(json.load(fh)["config"]) == cfg, name


class TestOrderedMap:
    def test_starts_no_more_threads_than_tasks(self, monkeypatch):
        started, chunks = [], []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                chunks.append(chunksize)
                return map(fn, *iterables)

        # the pool is imported when first used, from its own module
        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", FakePool)
        tasks = [(k, 1) for k in range(4)]
        assert experiments._ordered_map(pow, tasks, 8) == [0, 1, 2, 3]
        assert experiments._ordered_map(pow, tasks, 3) == [0, 1, 2, 3]
        assert started == [4, 3]
        # one task at a time: a chunk of several would undo the seed blocks'
        # split of the work into at least one task per worker
        tasks = [(k, 1) for k in range(40)]
        assert experiments._ordered_map(pow, tasks, 2) == list(range(40))
        assert chunks == [1, 1, 1]

    def test_workers_are_threads_of_the_calling_process(self, fresh_python):
        # a fresh run's map starts no process and imports nothing for its workers
        script = (
            "import os, sys, threading\n"
            "from koopest.experiments import _ordered_map\n"
            "def probe(k):\n"
            "    return os.getpid(), threading.get_ident()\n"
            "seen = _ordered_map(probe, [(k,) for k in range(4)], 2)\n"
            "print(all(pid == os.getpid() for pid, _ in seen),\n"
            "      threading.get_ident() in {ident for _, ident in seen},\n"
            "      'scipy' in sys.modules)\n"
        )
        assert fresh_python("-c", script).splitlines()[-1] == "True False False"


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

    def test_transfer_check_fits_the_seeds_bounds_scores(self, smoke_config, monkeypatch):
        # pf's error-transfer tally reads as a tally over bounds' scored runs
        cfg = smoke_config()
        groups = []
        fit_groups = experiments._fit_groups

        def recorded(config, run_groups, workers):
            groups.append([(T, list(seeds)) for T, seeds in run_groups])
            return fit_groups(config, run_groups, workers)

        monkeypatch.setattr(experiments, "_fit_groups", recorded)
        run_bound_calibration(cfg)
        run_pf_pipeline(cfg)
        bounds_groups, pf_groups = groups
        # bounds fits one set per T, which its scored seeds begin
        assert [t for t, _ in bounds_groups] == list(cfg.T_grid)
        T = max(cfg.T_grid)
        scored = bounds_groups[-1][1][: cfg.n_realizations]
        assert len(scored) == cfg.n_realizations
        # pf's one map holds its transfer-matrix fit, then bounds' scored seeds
        transfer_seed = derive_seed(cfg.base_seed, T, experiments.PF_STREAM)
        assert pf_groups == [(T, [transfer_seed]), (T, scored)]

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

    def test_failed_term_fit_chains_its_cause(self, tmp_path):
        # the error used to drop its cause, so it named no step or norm
        system = {"kind": "closed-quadratic", "params": {"rho": 1.2, "mu": 0.3, "c": 1.0}}
        with pytest.warns(UserWarning, match="diverge"):  # the system is built at load
            cfg = load_config("configs/smoke.yaml", system=system, divergence_threshold=50,
                              T_grid=[60], n_term_realizations=4, output_dir=str(tmp_path))
        message = r"^the bound-term fit at T=60 failed: diverged$"
        with pytest.warns(UserWarning, match="diverge"):
            with pytest.raises(RuntimeError, match=message) as err:
                run_bound_calibration(cfg)
        cause = err.value.__cause__
        assert isinstance(cause, DivergenceError) and cause.step <= 60 and cause.norm > 50

    def test_bounds_steps_only_its_one_fit_set(self, smoke_config, monkeypatch):
        # each scored-stream seed is stepped once by its fit and the first
        # once more, for delta_hat's residual walk; no other seed is stepped
        stepped = []
        chunks = dynamics.trajectory_chunks

        def counted(system, x0, steps, seeds, *args):
            stepped.extend((steps, int(seed)) for seed in seeds)
            return chunks(system, x0, steps, seeds, *args)

        monkeypatch.setattr(dynamics, "trajectory_chunks", counted)
        monkeypatch.setattr(experiments, "trajectory_chunks", counted)
        for n, n_terms in ((3, 5), (5, 3)):
            cfg = smoke_config(T_grid=[60, 120], n_realizations=n, n_term_realizations=n_terms)
            stepped.clear()
            run_bound_calibration(cfg)
            expected = []
            for T in cfg.T_grid:
                first, *rest = experiments._stream_seeds(cfg, T, SCORE_STREAM, max(n, n_terms))
                expected += [(T, first)] * 2 + [(T, seed) for seed in rest]
            assert sorted(stepped) == sorted(expected)

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"n_realizations": 6, "n_term_realizations": 3}],
        ids=["more-term-fits", "more-scored-fits"],
    )
    def test_terms_and_delta_hat_read_the_scored_set(self, smoke_config, overrides):
        # the smoke fixture's 8 term fits outnumber its 4 scored ones: the
        # extra fits feed the terms and are not scored
        cfg = smoke_config(**overrides)
        n, n_terms = cfg.n_realizations, cfg.n_term_realizations
        dictionary, system, domain = build_dictionary(cfg), build_system(cfg), build_domain(cfg)
        ref = true_koopman(cfg)
        reports = {r.sample_count: r for r in run_bound_calibration(cfg)}
        for T in cfg.T_grid:
            seeds = experiments._stream_seeds(cfg, T, SCORE_STREAM, max(n, n_terms))
            fits = fit_realizations(cfg, T, seeds)
            report = reports[T]
            assert report.terms == bound_terms(fit_realizations(cfg, T, seeds[:n_terms]).sigma0)
            assert report.terms.n_realizations == n_terms
            samples = simulate(system, None, T, seeds[0], cfg.divergence_threshold, domain)
            assert report.delta_hat == residuals(dictionary, samples, fits.matrix[0]).max()
            # bit-equal to the fit of one trajectory walked by accumulate
            moments = accumulate(MomentPair.empty(dictionary), dictionary, samples)
            assert fits.matrix[0].tobytes() == estimate_koopman(moments).matrix.tobytes()
            errors = [np.linalg.norm(k - ref, "fro") for k in fits.matrix[:n]]
            assert report.n_realizations == n
            assert report.n_violations == sum(e > report.koopman_bound + 1e-9 for e in errors)

    def test_terms_reduce_the_fits_the_score_keeps(self, smoke_config, monkeypatch):
        # seed 2's noiseless S0 has condition 2.3e12: the estimator calls it
        # singular, so the score counts it as failed and the terms leave it out
        cfg = smoke_config(system=_NOISELESS, T_grid=[1000], n_realizations=6,
                           n_term_realizations=6)
        seeds = [2, 0, 1, 3, 4, 5]
        monkeypatch.setattr(experiments, "_stream_seeds",
                            lambda config, T, stream, count: seeds[:count])
        with pytest.warns(UserWarning, match="bound-term fit at T=1000 is singular"):
            (report,) = run_bound_calibration(cfg)
        fits = fit_realizations(cfg, 1000, seeds)
        assert fits.status.tolist() == ["singular"] + ["ok"] * 5
        assert report.terms == bound_terms(fits.sigma0[fits.status == "ok"])
        # with seed 2's S0 in the stack it read 8.9e23
        assert report.terms.mean_frob_sq_inv_sigma0 == pytest.approx(7.0e17, rel=0.01)
        assert (report.n_realizations, report.n_failed) == (5, 1)
        with open(os.path.join(cfg.output_dir, "bounds.meta.json")) as fh:
            (entry,) = json.load(fh)["bound_inputs"]
        assert entry["n_excluded"] == 1

    def test_sidecar_names_each_bound_input(self, smoke_config):
        cfg = smoke_config()
        reports = {r.sample_count: r for r in run_bound_calibration(cfg)}
        with open(os.path.join(cfg.output_dir, "bounds.meta.json")) as fh:
            meta = json.load(fh)
        assert "first scored realization" in meta["delta_hat_source"]
        assert "usable fits" in meta["terms_source"]
        assert [entry["T"] for entry in meta["bound_inputs"]] == list(cfg.T_grid)
        for entry in meta["bound_inputs"]:
            T, terms = entry["T"], reports[entry["T"]].terms
            assert entry == {
                "T": T,
                "delta_hat_seed": experiments._stream_seeds(cfg, T, SCORE_STREAM, 1)[0],
                "se_trace": terms.se_trace,
                "se_frob": terms.se_frob,
                "n_excluded": 0,  # no smoke fit is singular
            }

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
