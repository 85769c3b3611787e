import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from koopest import (
    Dictionary,
    Domain,
    GramMatrix,
    closed_quadratic_dictionary,
    evaluate,
    evaluate_many,
    gauss_legendre_nodes,
    gram,
    grlex_exponents,
    make_monomial_dictionary,
    make_rng,
    monomial_name,
    unit_box,
)
from koopest.basis import LIFT_ROWS


class TestDomain:
    def test_validation(self):
        with pytest.raises(ValueError):
            Domain([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            Domain([0.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="widths must be finite"):
            Domain([-1e308, 0.0], [1e308, 1.0])  # the width overflows

    def test_volume_and_sampling(self):
        d = Domain([-1.0, 0.0], [1.0, 3.0])
        assert d.volume == pytest.approx(6.0)
        rng = np.random.default_rng(0)
        pts = d.sample(rng, 500)
        assert pts.shape == (500, 2)
        assert (pts >= d.lower).all() and (pts <= d.upper).all()

    @settings(max_examples=300, deadline=None)
    @given(
        box=st.lists(
            st.tuples(*[st.floats(-1e300, 1e300, allow_nan=False, width=64)] * 2).filter(
                lambda b: b[0] != b[1]
            ),
            min_size=1,
            max_size=4,
        ),
        size=st.sampled_from([None, 1, 6000]) | st.integers(0, 100).map(lambda k: 2 * k + 1),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_sample_is_bit_equal_to_generator_uniform(self, box, size, seed):
        d = Domain([min(b) for b in box], [max(b) for b in box])
        shape = None if size is None else (size, d.dim)
        want = make_rng(seed).uniform(d.lower, d.upper, shape)
        got = d.sample(make_rng(seed), size)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


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

    @given(st.integers(1, 5), st.integers(0, 6))
    def test_count_is_binomial_for_any_size(self, n, d):
        assert len(grlex_exponents(n, d)) == math.comb(n + d, d)

    def test_degree_zero(self):
        dct = make_monomial_dictionary(2, 0)
        assert dct.n_basis == 1
        assert evaluate(dct, np.array([3.7, -2.0])) == pytest.approx([1.0])

    def test_univariate_cubic(self):
        # a cubic in x1 alone, on the planar state
        dct = Dictionary([[0, 0], [1, 0], [2, 0], [3, 0]])
        assert dct.names == ("1", "x1", "x1^2", "x1^3")
        np.testing.assert_allclose(
            evaluate(dct, np.array([2.0, 5.0])), [1.0, 2.0, 4.0, 8.0]
        )

    def test_names(self):
        assert monomial_name((0, 0)) == "1"
        assert monomial_name((2, 1)) == "x1^2*x2"


class TestEvaluate:
    def test_degree_two_at_origin(self):
        dct = make_monomial_dictionary(2, 2)
        np.testing.assert_array_equal(
            evaluate(dct, np.zeros(2)), [1, 0, 0, 0, 0, 0]
        )

    def test_degree_two_at_point(self):
        dct = make_monomial_dictionary(2, 2)
        np.testing.assert_allclose(
            evaluate(dct, np.array([1.0, 2.0])), [1, 1, 2, 1, 2, 4]
        )

    def test_partial_dictionary(self):
        dct = Dictionary([[0, 0], [1, 0], [0, 1], [2, 0]])
        np.testing.assert_allclose(evaluate(dct, np.array([2.0, 3.0])), [1, 2, 3, 4])

    def test_deterministic(self):
        dct = make_monomial_dictionary(2, 3)
        x = np.array([0.123456, -0.98765])
        a = evaluate(dct, x)
        b = evaluate(dct, x)
        assert (a == b).all()

    def test_batch_matches_single(self):
        dct = make_monomial_dictionary(2, 2)
        xs = np.random.default_rng(1).uniform(-1, 1, size=(40, 2))
        batch = evaluate_many(dct, xs)
        for i in range(40):
            assert (batch[i] == evaluate(dct, xs[i])).all()

    @pytest.mark.parametrize(
        "make",
        [closed_quadratic_dictionary]
        + [
            lambda n=n, d=d: make_monomial_dictionary(n, d)
            for n in (2, 3)
            for d in range(5)
        ],
        ids=["closed-quadratic"] + [f"n{n}-d{d}" for n in (2, 3) for d in range(5)],
    )
    def test_large_batch_columns_equal_the_per_observable_form(self, make, repeated_product):
        # 2 * LIFT_ROWS + 1 rows: two full power tables and a one-row last one
        dct = make()
        rng = np.random.default_rng(65_537)
        m, n = 2 * LIFT_ROWS + 1, dct.state_dim
        xs = rng.uniform(-1.5, 1.5, (m, n)) * 10.0 ** rng.integers(-6, 6, (m, n))
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e6, -1e6, 1.0, -1.0]
        picks = rng.random((m, n)) < 0.05
        xs[picks] = rng.choice(special, picks.sum())
        out = evaluate_many(dct, xs)
        assert out.flags.c_contiguous
        expected = repeated_product(dct.exponents, xs)
        for j, name in enumerate(dct.names):
            assert np.ascontiguousarray(out[:, j]).tobytes() == expected[:, j].tobytes(), name

    @pytest.mark.filterwarnings("error")
    def test_nonfinite_rejected(self):
        # a monomial of a large state overflows: one ValueError, no RuntimeWarning
        dct = Dictionary([[0, 0], [4, 0]])
        with pytest.raises(ValueError, match="non-finite"):
            evaluate(dct, np.array([1e100, 0.0]))
        with pytest.raises(ValueError, match="non-finite"):
            evaluate_many(dct, [[1e200, 0.0]])


class TestGram:
    def test_constant_dictionary(self):
        dct = make_monomial_dictionary(2, 0)
        lam = gram(dct, unit_box(2))
        np.testing.assert_allclose(lam.matrix, [[1.0]])

    def test_affine_dictionary_interval(self):
        # normalized moments of each [-1, 1] axis: E[x] = 0, E[x^2] = 1/3
        dct = make_monomial_dictionary(2, 1)
        lam = gram(dct, unit_box(2))
        np.testing.assert_allclose(lam.matrix, np.diag([1.0, 1.0 / 3.0, 1.0 / 3.0]), atol=1e-15)

    def test_quadratic_dictionary_interval(self):
        dct = make_monomial_dictionary(2, 2)
        lam = gram(dct, unit_box(2))
        assert dct.names[3] == "x1^2"
        assert lam.matrix[0, 3] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert lam.matrix[3, 3] == pytest.approx(1.0 / 5.0, abs=1e-15)

    def test_analytic_vs_quadrature(self):
        dct = make_monomial_dictionary(2, 3)
        dom = Domain([-1.0, -0.5], [1.0, 2.0])
        # Gauss-Legendre of order 4 is exact for per-axis degree <= 7
        points, weights = gauss_legendre_nodes(dom, 4)
        psi = evaluate_many(dct, points)
        np.testing.assert_allclose(psi.T @ (weights[:, None] * psi), gram(dct, dom).matrix, atol=1e-12)

    def test_against_adaptive_quadrature(self):
        # independent oracle: adaptive 2-D quadrature of psi_i * psi_j / vol
        dct = Dictionary([[0, 0], [1, 0], [0, 1], [2, 0]])
        dom = unit_box(2)
        lam = gram(dct, dom)
        for i, j in [(0, 3), (3, 3), (1, 1), (2, 3)]:
            val, _ = integrate.dblquad(
                lambda y, x: evaluate(dct, [x, y])[i] * evaluate(dct, [x, y])[j] / 4.0,
                -1.0,
                1.0,
                -1.0,
                1.0,
            )
            assert lam.matrix[i, j] == pytest.approx(val, abs=1e-10)

    def test_symmetry_exact(self):
        dct = make_monomial_dictionary(2, 4)
        lam = gram(dct, Domain([-0.3, -2.0], [1.7, 0.4]))
        assert (lam.matrix == lam.matrix.T).all()

    def test_linearly_dependent_raises(self):
        # 1, x1 and x1^2 are numerically dependent on a box 1e-6 wide
        dct = make_monomial_dictionary(2, 2)
        with pytest.raises(ValueError, match="eigenvalue"):
            gram(dct, Domain([1.0, 1.0], [1.0 + 1e-6, 1.0 + 1e-6]))

    def test_cond_at_least_one(self):
        dct = make_monomial_dictionary(2, 2)
        lam = gram(dct, unit_box(2))
        assert lam.cond >= 1.0

    def test_cond_is_the_eigenvalue_ratio_and_not_settable(self):
        lam = GramMatrix(np.diag([4.0, 0.5]), unit_box(2), ("a", "b"))
        assert lam.cond == 8.0
        with pytest.raises(TypeError):
            GramMatrix(np.eye(2), unit_box(2), ("a", "b"), 1.0)

    def test_compared_by_identity(self):
        # a matrix field must not make == raise or hash fail
        dct = closed_quadratic_dictionary()
        a, b = gram(dct, unit_box(2)), gram(dct, unit_box(2))
        assert a == a and a != b
        assert len({a, a, b}) == 2

    def test_direct_construction_checks_definiteness(self):
        with pytest.raises(ValueError, match="not positive definite"):
            GramMatrix(np.ones((2, 2)), unit_box(2), ("a", "b"))


class TestDictionaryValidation:
    def test_duplicate_names(self):
        with pytest.raises(ValueError, match="distinct"):
            Dictionary([[1, 0], [1, 0]])

    @pytest.mark.parametrize("exponents", [[[2.5, 0], [0, 1]], [[1.0, 0.0]], [0, 1]],
                             ids=["fraction", "float", "1-D"])
    def test_exponents_must_be_a_2d_integer_array(self, exponents):
        # a fractional exponent used to be truncated: [2.5, 0] lifted x1^2
        with pytest.raises(ValueError, match="2-D integer array"):
            Dictionary(exponents)

    def test_compared_by_identity(self):
        # an exponent-array field must not make == raise or hash fail
        a, b = closed_quadratic_dictionary(), closed_quadratic_dictionary()
        assert a == a and a != b
        assert len({a, a, b}) == 2

    def test_empty(self):
        with pytest.raises(ValueError, match="at least one observable"):
            Dictionary(np.zeros((0, 2), dtype=int))
