import math

import numpy as np
import pytest
from scipy import integrate

from koopest import (
    Domain,
    GramMatrix,
    MonomialSpec,
    dictionary_from_exponents,
    evaluate,
    evaluate_many,
    gram,
    grlex_exponents,
    make_dictionary,
    make_monomial_dictionary,
    monomial_name,
    unit_box,
)


class TestDomain:
    def test_validation(self):
        with pytest.raises(ValueError):
            Domain([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            Domain([0.0], [1.0, 2.0])

    def test_volume_and_sampling(self):
        d = Domain([-1.0, 0.0], [1.0, 3.0])
        assert d.volume == pytest.approx(6.0)
        rng = np.random.default_rng(0)
        pts = d.sample(rng, 500)
        assert pts.shape == (500, 2)
        assert (pts >= d.lower).all() and (pts <= d.upper).all()


class TestMonomialEnumeration:
    def test_degree_two_order(self):
        # graded-lex with the constant first
        assert grlex_exponents(2, 2) == [
            (0, 0),
            (1, 0),
            (0, 1),
            (2, 0),
            (1, 1),
            (0, 2),
        ]

    @pytest.mark.parametrize("n,d", [(1, 3), (2, 2), (3, 4), (4, 0)])
    def test_count_is_binomial(self, n, d):
        assert len(grlex_exponents(n, d)) == math.comb(n + d, d)

    def test_degree_zero(self):
        spec = MonomialSpec(2, 0)
        dct = make_monomial_dictionary(spec)
        assert dct.n_basis == 1
        assert evaluate(dct, np.array([3.7, -2.0])) == pytest.approx([1.0])

    def test_univariate_cubic(self):
        dct = make_monomial_dictionary(MonomialSpec(1, 3))
        assert dct.names == ("1", "x1", "x1^2", "x1^3")
        np.testing.assert_allclose(
            evaluate(dct, np.array([2.0])), [1.0, 2.0, 4.0, 8.0]
        )

    def test_spec_roundtrip_is_stable(self):
        spec = MonomialSpec(3, 4)
        again = MonomialSpec.from_dict(spec.to_dict())
        assert again.exponent_list == spec.exponent_list

    def test_names(self):
        assert monomial_name((0, 0)) == "1"
        assert monomial_name((2, 1)) == "x1^2*x2"


class TestEvaluate:
    def test_degree_two_at_origin(self):
        dct = make_monomial_dictionary(MonomialSpec(2, 2))
        np.testing.assert_array_equal(
            evaluate(dct, np.zeros(2)), [1, 0, 0, 0, 0, 0]
        )

    def test_degree_two_at_point(self):
        dct = make_monomial_dictionary(MonomialSpec(2, 2))
        np.testing.assert_allclose(
            evaluate(dct, np.array([1.0, 2.0])), [1, 1, 2, 1, 2, 4]
        )

    def test_partial_dictionary(self):
        dct = dictionary_from_exponents([[0, 0], [1, 0], [0, 1], [2, 0]])
        np.testing.assert_allclose(evaluate(dct, np.array([2.0, 3.0])), [1, 2, 3, 4])

    def test_deterministic(self):
        dct = make_monomial_dictionary(MonomialSpec(2, 3))
        x = np.array([0.123456, -0.98765])
        a = evaluate(dct, x)
        b = evaluate(dct, x)
        assert (a == b).all()

    def test_batch_matches_single(self):
        dct = make_monomial_dictionary(MonomialSpec(2, 2))
        xs = np.random.default_rng(1).uniform(-1, 1, size=(40, 2))
        batch = evaluate_many(dct, xs)
        for i in range(40):
            assert (batch[i] == evaluate(dct, xs[i])).all()

    def test_nonfinite_rejected(self):
        dct = make_dictionary(
            [lambda x: np.full(np.shape(x[..., 0]), np.inf)], ["bad"], 1
        )
        with pytest.raises(ValueError, match="non-finite"):
            evaluate(dct, np.array([-1.0]))


class TestGram:
    def test_constant_dictionary(self):
        dct = make_monomial_dictionary(MonomialSpec(2, 0))
        lam = gram(dct, unit_box(2))
        np.testing.assert_allclose(lam.matrix, [[1.0]])

    def test_affine_dictionary_interval(self):
        # normalized moments on [-1, 1]: E[x] = 0, E[x^2] = 1/3
        dct = make_monomial_dictionary(MonomialSpec(1, 1))
        lam = gram(dct, unit_box(1))
        np.testing.assert_allclose(lam.matrix, [[1.0, 0.0], [0.0, 1.0 / 3.0]], atol=1e-15)

    def test_quadratic_dictionary_interval(self):
        dct = make_monomial_dictionary(MonomialSpec(1, 2))
        lam = gram(dct, unit_box(1))
        assert lam.matrix[0, 2] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert lam.matrix[2, 2] == pytest.approx(1.0 / 5.0, abs=1e-15)

    def test_analytic_vs_quadrature(self):
        dct = make_monomial_dictionary(MonomialSpec(2, 3))
        dom = Domain([-1.0, -0.5], [1.0, 2.0])
        lam_a = gram(dct, dom, method="analytic")
        lam_q = gram(dct, dom, quadrature_order=4, method="quadrature")
        assert lam_a.method == "analytic-monomial"
        assert lam_q.method == "quadrature"
        np.testing.assert_allclose(lam_q.matrix, lam_a.matrix, atol=1e-12)

    def test_against_adaptive_quadrature(self):
        # independent oracle: adaptive 2-D quadrature of psi_i * psi_j / vol
        dct = dictionary_from_exponents([[0, 0], [1, 0], [0, 1], [2, 0]])
        dom = unit_box(2)
        lam = gram(dct, dom)
        fns = dct.functions
        for i, j in [(0, 3), (3, 3), (1, 1), (2, 3)]:
            val, _ = integrate.dblquad(
                lambda y, x: fns[i](np.array([x, y])) * fns[j](np.array([x, y])) / 4.0,
                -1.0,
                1.0,
                -1.0,
                1.0,
            )
            assert lam.matrix[i, j] == pytest.approx(val, abs=1e-10)

    def test_symmetry_exact(self):
        dct = make_monomial_dictionary(MonomialSpec(2, 4))
        lam = gram(dct, Domain([-0.3, -2.0], [1.7, 0.4]))
        assert (lam.matrix == lam.matrix.T).all()

    def test_linearly_dependent_raises(self):
        dct = make_dictionary(
            [lambda x: x[..., 0], lambda x: 2.0 * x[..., 0]], ["f", "g"], 1
        )
        with pytest.raises(ValueError, match="eigenvalue"):
            gram(dct, unit_box(1))

    def test_cond_at_least_one(self):
        dct = make_monomial_dictionary(MonomialSpec(2, 2))
        lam = gram(dct, unit_box(2))
        assert lam.cond >= 1.0

    def test_cond_is_the_eigenvalue_ratio_and_not_settable(self):
        lam = GramMatrix(np.diag([4.0, 0.5]), unit_box(2), "quadrature", ("a", "b"))
        assert lam.cond == 8.0
        with pytest.raises(TypeError):
            GramMatrix(np.eye(2), unit_box(2), "quadrature", ("a", "b"), 1.0)

    def test_direct_construction_checks_definiteness(self):
        with pytest.raises(ValueError, match="not positive definite"):
            GramMatrix(np.ones((2, 2)), unit_box(2), "quadrature", ("a", "b"))


class TestDictionaryValidation:
    def test_duplicate_names(self):
        with pytest.raises(ValueError, match="distinct"):
            make_dictionary([lambda x: 1.0, lambda x: 2.0], ["a", "a"], 1)

    def test_empty(self):
        with pytest.raises(ValueError):
            make_dictionary([], [], 1)
