"""Bit-level gate for dictionary evaluation.

Records the sha256 of the raw float64 bytes of ``evaluate_many`` for the
closed-quadratic dictionary and the degree-2 and degree-4 monomials on two
variables, each at seeded uniform states for m = 1, 21 and 65,573 rows.
The hashes were recorded while every dictionary was still a tuple of
per-observable closures, so the power-table lift must reproduce that form's
bits.  The property test states the same thing for any states and any
exponents of two or three coordinates: column j equals
``np.prod(xs ** e_j, axis=-1)`` bit for bit.  With one coordinate that
reference form squares by ``x*x`` rather than ``pow``, so one-coordinate
exponents are rejected.

Taken with Python 3.11.7 and numpy 2.4.6 on x86-64 with AVX-512; numpy's
``power`` may dispatch to a different kernel on another CPU, where a
mismatch means re-recording the hashes, not a bug.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from koopest import (
    MonomialSpec,
    closed_quadratic_dictionary,
    dictionary_from_exponents,
    evaluate_many,
    make_monomial_dictionary,
)

DICTIONARIES = {
    "closed-quadratic": closed_quadratic_dictionary,
    "monomial-2": lambda: make_monomial_dictionary(MonomialSpec(2, 2)),
    "monomial-4": lambda: make_monomial_dictionary(MonomialSpec(2, 4)),
}
ROWS = (1, 21, 65_573)

GOLDEN = {
    "closed-quadratic": {
        1: "605916368b8d7eea40db1ed21d7a2ab5049ef297ba64a574687a5be2f5660c57",
        21: "3310343dcd400e3eb40052d3a5565b96fe96ca33d085cf56f37f7a26f982e113",
        65_573: "728b5a77ada2c0e3ab6d9634317994c5a19f69d6b3f38ef8438b335ca4ba1f6f",
    },
    "monomial-2": {
        1: "b31cac07f3837a9830a12ac4e6c6775bb4812e562366bc8ac36afa985719cb1b",
        21: "e374e9cb7f979e9d1fc1f22961e38a46f4978fca6f528adb8ee42171f549fbd0",
        65_573: "49f72207e30569fb13d353cd05899adc852e5aad9d9d078ac5c4c03321813611",
    },
    "monomial-4": {
        1: "05eec58227844f45f7413fd6041d3bf1000fad79148848b272d0e4bc03826bcd",
        21: "a87b1b734bd853c20622c81b02fcd74681b98a0bd8b0268063f1cb8af69df2db",
        65_573: "d471a2c77d8deda7295ecb8ebdff160634caf68ae1306e0ea9b5f2fc0e2fd50f",
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
def _monomial_case(draw):
    n = draw(st.integers(2, 3))
    exponents = draw(
        st.lists(st.tuples(*[st.integers(0, 4)] * n), min_size=1, max_size=8, unique=True)
    )
    m = draw(st.integers(1, 40))
    values = st.floats(-1e6, 1e6, allow_nan=False, width=64)
    xs = draw(hnp.arrays(np.float64, (m, n), elements=values))
    return exponents, xs


@settings(max_examples=300, deadline=None)
@given(_monomial_case())
def test_monomial_columns_equal_the_per_observable_form(case):
    exponents, xs = case
    out = evaluate_many(dictionary_from_exponents(exponents), xs)
    for j, e in enumerate(np.asarray(exponents, dtype=float)):
        column = np.prod(xs**e, axis=-1)
        assert np.ascontiguousarray(out[:, j]).tobytes() == column.tobytes()


@pytest.mark.parametrize("exponents", [[[0], [1], [2]], np.zeros((3, 0), dtype=int)])
def test_fewer_than_two_coordinates_rejected(exponents):
    width = np.shape(exponents)[1]
    with pytest.raises(ValueError, match=rf"at least 2 columns .*, got {width}$"):
        dictionary_from_exponents(exponents)
