"""Acceptance gate: every shipped guarantee checked at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (visible with ``pytest -s`` or
``-rA``) carrying the measured quantity and its budget.  Criteria cover
exact recovery, noisy convergence and its rate, bound calibration, the
duality identity and error-transfer inequality, the sample floor, closure
diagnostics, reproducibility across worker counts, and the two Monte Carlo
oracles.
"""

import os
import time

import numpy as np
import pytest

from koopest import (
    ClosedQuadraticParams,
    MomentPair,
    NoiseModel,
    SampleFloorError,
    accumulate,
    closed_quadratic_dictionary,
    closed_quadratic_koopman,
    closure_check,
    duality_check,
    estimate_koopman,
    evaluate,
    gram,
    koopman_apply_mc,
    koopman_to_pf,
    load_config,
    make_closed_quadratic,
    make_monomial_dictionary,
    make_vanderpol,
    pf_apply_integral_mc,
    run_bound_calibration,
    run_pf_pipeline,
    run_sweep,
    simulate,
    step_pairs,
    unit_box,
)
from koopest.seeding import make_rng, mix_seed


def gate(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


BASELINE = ClosedQuadraticParams(rho=0.2, mu=0.3, c=1.0)


def test_c01_exact_recovery_noiseless():
    t0 = time.perf_counter()
    system = make_closed_quadratic(BASELINE, noise=NoiseModel.none(2))
    dct = closed_quadratic_dictionary()
    states = make_rng(101).uniform(-1, 1, size=(200, 2))
    samples = step_pairs(system, states, seed=102)
    est = estimate_koopman(accumulate(MomentPair.empty(dct), dct, samples))
    err = np.linalg.norm(est.matrix - closed_quadratic_koopman(BASELINE, 0.0), "fro")
    elapsed = time.perf_counter() - t0
    gate(
        "C01 exact recovery (noiseless, T=200 distinct states)",
        err <= 1e-8 and elapsed < 1.0,
        f"frobenius error {err:.3e} <= 1e-8, {elapsed:.2f}s < 1s",
    )


def test_c02_noisy_agreement_large_T(tmp_path):
    t0 = time.perf_counter()
    cfg = load_config(
        "configs/closed_quadratic_baseline.yaml",
        T_grid=(1000, 100000),
        output_dir=str(tmp_path),
    )
    curve = run_sweep(cfg)
    err_small, err_large = curve.mean_rel_err
    elapsed = time.perf_counter() - t0
    gate(
        "C02 noisy recovery at T=1e5 (50 realizations)",
        err_large <= 0.05 and err_large < err_small and elapsed < 60.0,
        f"mean rel err {err_large:.4f} <= 0.05 and < {err_small:.4f} (T=1e3), "
        f"{elapsed:.1f}s < 60s",
    )


def test_c03_inverse_sqrt_convergence_rate(tmp_path):
    t0 = time.perf_counter()
    slopes = {}
    decreasing = True
    for name in ("closed_quadratic_baseline", "closed_quadratic_strong"):
        cfg = load_config(
            f"configs/{name}.yaml", output_dir=str(tmp_path / name)
        )
        curve = run_sweep(cfg)
        slopes[name] = curve.fitted_slope
        m = curve.mean_rel_err
        decreasing = decreasing and all(a > b for a, b in zip(m[:-1], m[1:]))
    elapsed = time.perf_counter() - t0
    ok = (
        all(-0.65 <= s <= -0.35 for s in slopes.values())
        and decreasing
        and elapsed < 300.0
    )
    gate(
        "C03 error decay rate over T in {1e3,1e4,1e5}",
        ok,
        "log-log slopes "
        + ", ".join(f"{k.split('_')[-1]}={v:+.3f}" for k, v in slopes.items())
        + f" within [-0.65, -0.35], strictly decreasing means ({decreasing}), "
        f"{elapsed:.1f}s < 300s",
    )


def test_c04_markov_calibration(tmp_path):
    t0 = time.perf_counter()
    cfg = load_config(
        "configs/closed_quadratic_baseline.yaml",
        T_grid=(10000,),
        n_realizations=500,
        epsilon_list=(0.1, 0.25, 0.5),
        output_dir=str(tmp_path),
    )
    results = run_bound_calibration(cfg)
    rates = {report.epsilon: report.violation_rate for report in results}
    elapsed = time.perf_counter() - t0
    ok = all(rate <= eps for eps, rate in rates.items()) and elapsed < 300.0
    gate(
        "C04 bound calibration (T=1e4, 500 realizations)",
        ok,
        "violation rates "
        + ", ".join(f"{r:.3f}<={e}" for e, r in sorted(rates.items()))
        + f", {elapsed:.1f}s < 300s",
    )


def test_c05_duality_identity():
    t0 = time.perf_counter()
    dct = closed_quadratic_dictionary()
    lam = gram(dct, unit_box(2))
    k = closed_quadratic_koopman(BASELINE, 1.0)
    p = koopman_to_pf(k, lam)
    defect = duality_check(k, p.matrix, lam, n_trials=1000, seed=505)
    elapsed = time.perf_counter() - t0
    gate(
        "C05 duality identity (1000 random unit pairs)",
        defect <= 1e-10 and elapsed < 1.0,
        f"max defect {defect:.3e} <= 1e-10, {elapsed:.2f}s < 1s",
    )


def test_c06_error_transfer_inequality(tmp_path):
    t0 = time.perf_counter()
    cfg = load_config(
        "configs/closed_quadratic_baseline.yaml",
        T_grid=(2000,),
        n_realizations=50,
        output_dir=str(tmp_path),
    )
    _, report = run_pf_pipeline(cfg)
    elapsed = time.perf_counter() - t0
    gate(
        "C06 error-transfer inequality (50 realizations)",
        report["transfer_ok"] == report["transfer_total"] == 50 and elapsed < 60.0,
        f"held in {report['transfer_ok']}/{report['transfer_total']}, "
        f"{elapsed:.1f}s < 60s",
    )


def test_c07_sample_floor():
    system = make_closed_quadratic(BASELINE)
    dct = closed_quadratic_dictionary()
    refused = False
    message = ""
    try:
        samples = simulate(system, np.zeros(2), 10, seed=701)
        estimate_koopman(accumulate(MomentPair.empty(dct), dct, samples))
    except SampleFloorError as err:
        refused = True
        message = str(err)
    samples = simulate(system, np.zeros(2), 11, seed=701)
    est = estimate_koopman(accumulate(MomentPair.empty(dct), dct, samples))
    ok = refused and "2N+2" in message and est.sample_count == 11 and not est.fallback
    gate(
        "C07 sample-floor enforcement (N=4)",
        ok,
        f"T=10 refused citing 2N+2 ({refused}), T=11 succeeded "
        f"(cond {est.condition_sigma0:.2e})",
    )


def test_c08_closure_diagnostics():
    dct4 = closed_quadratic_dictionary()
    noisy = make_closed_quadratic(BASELINE)
    defects, floors = closure_check(
        dct4, noisy, n_states=20, n_mc=10000, seed=801, return_floor=True
    )
    closed_ok = bool((defects <= 3.0 * floors + 1e-12).all())

    dct6 = make_monomial_dictionary(2, 2)
    vdp = make_vanderpol(1e-4, noise=NoiseModel.none(2))
    vdp_defects = closure_check(dct6, vdp, n_states=40, n_mc=1, seed=802)
    open_ok = bool(vdp_defects.max() > 1e-9)
    gate(
        "C08 closure diagnostics",
        closed_ok and open_ok,
        f"closed pair defects at MC floor (max {defects.max():.3f} vs floor "
        f"{floors.max():.3f}); open pair max defect {vdp_defects.max():.2e} > 1e-9",
    )


def test_c09_vanderpol_convergence(tmp_path):
    t0 = time.perf_counter()
    cfg = load_config("configs/vanderpol.yaml", output_dir=str(tmp_path))
    curve = run_sweep(cfg)
    elapsed = time.perf_counter() - t0
    means = curve.mean_rel_err
    decreasing = all(a > b for a, b in zip(means[:-1], means[1:]))
    gate(
        "C09 open-dictionary convergence (Van der Pol, 50 realizations)",
        decreasing and not curve.any_invalid and elapsed < 600.0,
        "means "
        + " > ".join(f"{m:.4f}" for m in means)
        + f" strictly decreasing vs T_ref={curve.reference['T_ref']}, "
        f"{elapsed:.1f}s < 600s",
    )


def test_c10_determinism_across_workers(tmp_path):
    cfg1 = load_config("configs/smoke.yaml", output_dir=str(tmp_path / "w1"))
    cfg2 = load_config("configs/smoke.yaml", output_dir=str(tmp_path / "w2"))
    run_sweep(cfg1, workers=1)
    run_sweep(cfg2, workers=3)
    run_bound_calibration(cfg1, workers=1)
    run_bound_calibration(cfg2, workers=3)
    identical = []
    for name in ("sweep.csv", "sweep_points.csv", "bounds.csv"):
        a = open(os.path.join(cfg1.output_dir, name), "rb").read()
        b = open(os.path.join(cfg2.output_dir, name), "rb").read()
        identical.append(a == b)
    gate(
        "C10 determinism across worker counts",
        all(identical),
        f"byte-identical sweep.csv, sweep_points.csv, bounds.csv: {identical}",
    )


def test_c11_monte_carlo_oracles():
    t0 = time.perf_counter()
    # operator columns against direct Monte Carlo propagation
    system = make_closed_quadratic(BASELINE)
    dct = closed_quadratic_dictionary()
    k = closed_quadratic_koopman(BASELINE, 1.0)
    states = make_rng(1101).uniform(-1, 1, size=(20, 2))
    worst = 0.0
    for i, x in enumerate(states):
        psi = evaluate(dct, x)
        for col in range(4):
            e = np.zeros(4)
            e[col] = 1.0
            mc, se = koopman_apply_mc(
                system, dct, e, x, 20000, mix_seed(1102, i, col), return_stderr=True
            )
            target = float(psi @ k[:, col])
            if se > 0:
                worst = max(worst, abs(mc - target) / se)
            else:
                assert mc == pytest.approx(target, abs=1e-12)
    koopman_ok = worst <= 4.0

    # kernel-integral application against matrix propagation
    sigma = 0.15
    small = make_closed_quadratic(BASELINE, noise=NoiseModel.gaussian(sigma, 2))
    lam = gram(dct, unit_box(2))
    p = koopman_to_pf(closed_quadratic_koopman(BASELINE, sigma**2), lam)
    g = np.array([0.3, -0.2, 0.5, 0.1])
    coords, se = pf_apply_integral_mc(
        small, dct, lam, g, n_mc=200000, seed=1103, quadrature_order=16,
        return_stderr=True,
    )
    dev = np.abs(coords - p.matrix @ g) / se
    transfer_ok = bool((dev <= 4.0).all())
    elapsed = time.perf_counter() - t0
    gate(
        "C11 Monte Carlo oracles",
        koopman_ok and transfer_ok,
        f"operator columns within {worst:.2f} se (<=4); integral application "
        f"within {dev.max():.2f} se (<=4); {elapsed:.1f}s",
    )
