import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopest import (
    GramMatrix,
    NoiseModel,
    closed_quadratic_dictionary,
    closed_quadratic_koopman,
    duality_check,
    gram,
    koopman_to_pf,
    make_closed_quadratic,
    make_monomial_dictionary,
    pf_apply_integral_mc,
    unit_box,
)
from koopest.seeding import make_rng


@functools.cache
def _monomial_gram(degree):
    return gram(make_monomial_dictionary(2, degree), unit_box(2))


@pytest.fixture
def analytic_gram():
    return gram(closed_quadratic_dictionary(), unit_box(2))


@pytest.fixture
def true_k(baseline_params):
    return closed_quadratic_koopman(baseline_params, noise_variance=1.0)


class TestKoopmanToPF:
    def test_identity_gram_transposes(self, true_k):
        lam = GramMatrix(np.eye(4), unit_box(2), ("a", "b", "c", "d"))
        p = koopman_to_pf(true_k, lam)
        np.testing.assert_allclose(p.matrix, true_k.T, atol=1e-14)
        assert p.gram.cond == pytest.approx(1.0)

    def test_identity_koopman_maps_to_identity(self, analytic_gram):
        p = koopman_to_pf(np.eye(4), analytic_gram)
        np.testing.assert_allclose(p.matrix, np.eye(4), atol=1e-12)

    def test_construction_identity(self, true_k, analytic_gram):
        p = koopman_to_pf(true_k, analytic_gram)
        lam = analytic_gram.matrix
        direct = np.linalg.solve(lam, true_k.T @ lam)
        assert np.linalg.norm(p.matrix - direct, "fro") <= 1e-10

    def test_spectrum_preserved(self, true_k, analytic_gram):
        p = koopman_to_pf(true_k, analytic_gram)
        ev_p = np.sort_complex(np.linalg.eigvals(p.matrix))
        ev_k = np.sort_complex(np.linalg.eigvals(true_k.T))
        np.testing.assert_allclose(ev_p, ev_k, atol=1e-8)

    @settings(max_examples=200, deadline=None)
    @given(
        eigenvalues=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6),
        log_cond=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_spectrum_preserved_for_any_spd_gram(self, eigenvalues, log_cond, seed):
        # K = V diag(eigenvalues) V^-1 with cond(V) <= 10, and a Gram matrix of
        # condition 10^log_cond: the computed spectrum of P is then within
        # about 1e-10 of K's (Bauer-Fike), far inside the 1e-8 tolerance
        n = len(eigenvalues)
        rng = np.random.default_rng(seed)

        def orthogonal():
            return np.linalg.qr(rng.normal(size=(n, n)))[0]

        q = orthogonal()
        lam = GramMatrix(
            (q * np.logspace(-log_cond, 0.0, n)) @ q.T, unit_box(2),
            tuple(f"psi{i}" for i in range(n)),
        )
        v = orthogonal() * rng.uniform(1.0, 10.0, n) @ orthogonal()
        k = v @ np.diag(eigenvalues) @ np.linalg.inv(v)
        ev = np.linalg.eigvals(koopman_to_pf(k, lam).matrix)
        np.testing.assert_allclose(ev.imag, 0.0, atol=1e-8)
        np.testing.assert_allclose(np.sort(ev.real), np.sort(eigenvalues), atol=1e-8)

    def test_dimension_mismatch(self, analytic_gram):
        with pytest.raises(ValueError):
            koopman_to_pf(np.eye(3), analytic_gram)


class TestDualityCheck:
    def test_constructed_pair_defect_at_roundoff(self, true_k, analytic_gram):
        p = koopman_to_pf(true_k, analytic_gram)
        assert duality_check(true_k, p.matrix, analytic_gram) <= 1e-10

    def test_perturbation_detected(self, true_k, analytic_gram):
        p = koopman_to_pf(true_k, analytic_gram)
        p_bad = p.matrix.copy()
        p_bad[1, 2] += 0.1
        defect = duality_check(true_k, p_bad, analytic_gram)
        # oracle: for exact P the residual of the perturbed matrix is -Lambda dP,
        # whose largest singular value is the supremum over unit pairs
        lam = analytic_gram.matrix
        d_p = p_bad - p.matrix
        direct = np.linalg.svd(lam @ d_p, compute_uv=False)[0]
        assert defect == pytest.approx(direct, abs=1e-10)
        assert defect > 1e-3
        # a maximum over random unit pairs can only fall below the supremum
        rng = make_rng(2)
        a = rng.standard_normal((1000, 4))
        b = rng.standard_normal((1000, 4))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        sampled = np.max(np.abs(np.einsum("ij,ij->i", a, b @ (lam @ d_p).T)))
        assert sampled <= direct

    @settings(max_examples=100, deadline=None)
    @given(degree=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_defect_is_the_supremum_over_unit_pairs(self, degree, seed):
        lam = _monomial_gram(degree)
        n = lam.n_basis
        rng = np.random.default_rng(seed)
        k, p = rng.normal(size=(2, n, n))
        defect = duality_check(k, p, lam)

        def pairing_defect(a, b):  # (K a)^T Lambda b - a^T Lambda (P b), row by row
            return np.einsum("ij,ij->i", a @ k.T, b @ lam.matrix) - np.einsum(
                "ij,ij->i", a @ lam.matrix, b @ p.T)

        a, b = rng.normal(size=(2, 500, n))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        assert np.all(np.abs(pairing_defect(a, b)) <= defect * (1 + 1e-12))
        u, _, vt = np.linalg.svd(k.T @ lam.matrix - lam.matrix @ p)
        (top,) = np.abs(pairing_defect(u[None, :, 0], vt[None, 0]))
        assert defect == pytest.approx(top, rel=1e-12)

    def test_mis_shaped_matrix_rejected(self, true_k, analytic_gram):
        with pytest.raises(ValueError, match="must match the gram matrix"):
            duality_check(np.eye(3), np.eye(4), analytic_gram)
        with pytest.raises(ValueError, match="must match the gram matrix"):
            duality_check(true_k, np.eye(4)[:, :3], analytic_gram)

    def test_zero_coefficient_contributes_nothing(self, true_k, analytic_gram):
        p = koopman_to_pf(true_k, analytic_gram)
        lam = analytic_gram.matrix
        b = np.array([0.3, -0.1, 0.2, 0.05])
        lhs = (true_k @ np.zeros(4)) @ (lam @ b)
        rhs = np.zeros(4) @ (lam @ (p.matrix @ b))
        assert lhs == 0.0 and rhs == 0.0


class TestErrorTransfer:
    def test_deterministic_inequality(self, true_k, analytic_gram):
        # conjugation plus norm submultiplicativity, realization by realization
        cond = analytic_gram.cond
        rng = make_rng(7)
        p_true = koopman_to_pf(true_k, analytic_gram).matrix
        for _ in range(20):
            k_hat = true_k + 0.05 * rng.standard_normal((4, 4))
            p_hat = koopman_to_pf(k_hat, analytic_gram).matrix
            lhs = np.linalg.norm(p_hat - p_true, "fro")
            rhs = cond * np.linalg.norm(k_hat - true_k, "fro")
            assert lhs <= rhs * (1.0 + 1e-9)


class TestIntegralOracle:
    def small_noise_setup(self, baseline_params):
        sigma = 0.15
        system = make_closed_quadratic(
            baseline_params, noise=NoiseModel.gaussian(sigma)
        )
        dct = closed_quadratic_dictionary()
        lam = gram(dct, unit_box(2))
        k = closed_quadratic_koopman(baseline_params, noise_variance=sigma**2)
        p = koopman_to_pf(k, lam)
        return system, dct, lam, p

    def test_zero_function_maps_to_zero(self, baseline_params):
        system, dct, lam, _ = self.small_noise_setup(baseline_params)
        coords = pf_apply_integral_mc(
            system, dct, lam, np.zeros(4), n_mc=100, seed=3, quadrature_order=4
        )
        np.testing.assert_array_equal(coords, np.zeros(4))

    def test_linear_in_g_under_shared_seed(self, baseline_params):
        system, dct, lam, _ = self.small_noise_setup(baseline_params)
        g = np.array([0.3, -0.2, 0.5, 0.1])
        one = pf_apply_integral_mc(
            system, dct, lam, g, n_mc=2000, seed=4, quadrature_order=6
        )
        two = pf_apply_integral_mc(
            system, dct, lam, 2.0 * g, n_mc=2000, seed=4, quadrature_order=6
        )
        np.testing.assert_allclose(two, 2.0 * one, rtol=1e-12)

    def test_matches_matrix_propagation(self, baseline_params):
        # node spacing must resolve the noise scale; order 16 does for 0.15
        system, dct, lam, p = self.small_noise_setup(baseline_params)
        g = np.array([0.3, -0.2, 0.5, 0.1])
        coords, se = pf_apply_integral_mc(
            system, dct, lam, g, n_mc=50000, seed=5, quadrature_order=16,
            return_stderr=True,
        )
        expected = p.matrix @ g
        assert (np.abs(coords - expected) <= 4.0 * se).all()

    def test_silent_noise_unsupported(self, baseline_params):
        system = make_closed_quadratic(baseline_params, noise=NoiseModel.none())
        dct = closed_quadratic_dictionary()
        lam = gram(dct, unit_box(2))
        with pytest.raises(ValueError, match="density"):
            pf_apply_integral_mc(system, dct, lam, np.zeros(4), n_mc=10, seed=0)
