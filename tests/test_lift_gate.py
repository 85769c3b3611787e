"""Bit-level gate for dictionary evaluation.

Records the sha256 of the raw float64 bytes of ``evaluate_many`` for the
closed-quadratic dictionary and the degree-2 and degree-4 monomials on two
variables, each at seeded uniform states for m = 1, 21 and 65,573 rows.
The hashes were re-recorded when the lift came to be defined by repeated
multiplication (``x^e = x^(e-1) * x``, factors in coordinate order) rather
than by ``pow``.  Each value is then a chain of correctly rounded IEEE
products, so its bytes do not depend on the CPU or on which SIMD kernels
numpy dispatches to; one test re-takes the hashes in a fresh interpreter
with every numpy dispatch target disabled.  The property tests state the
definition for any states and exponents of one to three coordinates:
column j equals the pure-Python repeated product bit for bit, and, where
the values are normal floats, lies within d ULP of
``np.prod(xs ** e_j, axis=-1)``, d the observable's total degree.

Taken with Python 3.11.7 and numpy 2.4.6.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from koopest import (
    Dictionary,
    closed_quadratic_dictionary,
    evaluate_many,
    make_monomial_dictionary,
)

DICTIONARIES = {
    "closed-quadratic": closed_quadratic_dictionary,
    "monomial-2": lambda: make_monomial_dictionary(2, 2),
    "monomial-4": lambda: make_monomial_dictionary(2, 4),
}
ROWS = (1, 21, 65_573)

GOLDEN = {
    "closed-quadratic": {
        1: "605916368b8d7eea40db1ed21d7a2ab5049ef297ba64a574687a5be2f5660c57",
        21: "895b9f266897dd6da78252e3fd73f43f6907e39d4998db18cb977048d8b76b93",
        65_573: "2dd98bbcf8facc46feeebcd3983938800ad89a26b22506f6f4a3ba82698b2a11",
    },
    "monomial-2": {
        1: "b31cac07f3837a9830a12ac4e6c6775bb4812e562366bc8ac36afa985719cb1b",
        21: "68d280a903d87ed26c7ac63403c478e155574be13003d77c5736b1d1467a6443",
        65_573: "079d4f4be8251f47f7a4c3e797912318ddb7ac59df3cc5bb19febf2bdb40f0bb",
    },
    "monomial-4": {
        1: "a704c1a77450a698ca8c396f280b8f35629f3d6de3e9c3a13d3b845eeea37ba6",
        21: "2ea4cfcfc9edfb9b494109fc883646f831f9339191d16bc38193dbd9dc32034e",
        65_573: "ef1c1faf1cad4f3805c09a67c7b78c2ba8f026cd855803ee96f19ca974fb2f16",
    },
}


def _hash(kind, m):
    xs = np.random.default_rng(m).uniform(-1.5, 1.5, size=(m, 2))
    out = evaluate_many(DICTIONARIES[kind](), xs)
    assert out.dtype == np.float64 and out.shape[0] == m
    return hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()


@pytest.mark.parametrize("kind", sorted(DICTIONARIES))
def test_lift_bytes_match_recorded_hashes(kind):
    assert {m: _hash(kind, m) for m in ROWS} == GOLDEN[kind]


@st.composite
def _monomial_case(draw, values):
    n = draw(st.integers(1, 3))
    exponents = draw(
        st.lists(st.tuples(*[st.integers(0, 4)] * n), min_size=1, max_size=8, unique=True)
    )
    m = draw(st.integers(1, 40))
    xs = draw(hnp.arrays(np.float64, (m, n), elements=values))
    return exponents, xs


@settings(max_examples=300, deadline=None)
@given(_monomial_case(st.floats(-1e6, 1e6, allow_nan=False, width=64)))
def test_monomial_columns_equal_the_per_observable_form(repeated_product, case):
    exponents, xs = case
    out = evaluate_many(Dictionary(exponents), xs)
    assert out.tobytes() == repeated_product(exponents, xs).tobytes()


# magnitudes in [1e-3, 1e3] keep every power and product of degree <= 12 normal
_NORMAL = st.one_of(st.floats(-1e3, -1e-3), st.floats(1e-3, 1e3))


@settings(max_examples=300, deadline=None)
@given(_monomial_case(_NORMAL))
def test_monomial_columns_within_degree_ulps_of_pow(case):
    exponents, xs = case
    out = evaluate_many(Dictionary(exponents), xs)
    for j, e in enumerate(np.asarray(exponents)):
        column = np.prod(xs ** e.astype(float), axis=-1)
        assert (np.signbit(out[:, j]) == np.signbit(column)).all()
        # of like sign, the int64 views of two floats differ by their ULP distance
        ulps = np.abs(np.ascontiguousarray(out[:, j]).view(np.int64) - column.view(np.int64))
        assert ulps.max() <= e.sum(), e


def test_lift_bytes_do_not_depend_on_numpy_cpu_dispatch(fresh_python, monkeypatch):
    from numpy._core._multiarray_umath import __cpu_dispatch__

    monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", " ".join(__cpu_dispatch__))
    script = (
        "import json, sys\n"
        "from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__\n"
        "sys.path.insert(0, 'tests')\n"
        "import test_lift_gate as gate\n"
        "print(json.dumps([[t for t in __cpu_dispatch__ if __cpu_features__.get(t)],\n"
        "                  {k: {m: gate._hash(k, m) for m in gate.ROWS} for k in gate.DICTIONARIES}]))"
    )
    enabled, hashes = json.loads(fresh_python("-c", script))
    assert enabled == []
    assert {k: {int(m): h for m, h in v.items()} for k, v in hashes.items()} == GOLDEN


def test_one_coordinate_lifts(repeated_product):
    exponents = [[0], [1], [2], [5]]
    xs = np.array([[-1.5], [0.0], [-0.0], [5e-324], [-2.2e-308], [1e6], [-1e6], [3.0]])
    out = evaluate_many(Dictionary(exponents), xs)
    assert out.tobytes() == repeated_product(exponents, xs).tobytes()


def test_zero_coordinates_rejected():
    with pytest.raises(ValueError, match=r"at least 1 column .*, got 0$"):
        Dictionary(np.zeros((3, 0), dtype=int))
