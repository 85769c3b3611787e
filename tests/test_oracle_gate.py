"""Bit-level gate for the two Monte Carlo oracles.

Records the sha256 of the raw float64 bytes of ``closure_check``'s
(defects, floors) and of ``pf_apply_integral_mc``'s (coords, stderr) for
the closed quadratic map with its four observables on the unit box, and for
Van der Pol with the degree-4 monomials (N = 15) on a box other than the
unit box.  The integral runs at ``quadrature_order`` 5 with an odd draw
count (777) and with 40,001 draws, more than fit two nodes to a batch; the
closure cases include a noiseless call at ``n_mc=1``.  The hashes were
recorded while each closure call still lifted every observable and the
integral still drew, lifted and weighed one node at a time, so lifting one
column and batching nodes must not move a bit.  The closure hashes and the
Van der Pol integral hashes were re-recorded when the lift came to be
defined by repeated multiplication, not ``pow``.

Taken with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1; the lift is exact
IEEE products, but the g-value products and the Gram solves go through
BLAS/LAPACK, so on another build a mismatch means re-recording the hashes,
not a bug.
"""

import hashlib

import numpy as np
import pytest

from koopest import (
    ClosedQuadraticParams,
    Domain,
    NoiseModel,
    closed_quadratic_dictionary,
    closure_check,
    gram,
    make_closed_quadratic,
    make_monomial_dictionary,
    make_vanderpol,
    pf_apply_integral_mc,
    unit_box,
)

BOX = Domain([-1.5, -0.5], [2.0, 1.25])


def _quadratic(sigma=1.0):
    params = ClosedQuadraticParams(rho=0.2, mu=0.3, c=1.0)
    return make_closed_quadratic(params, noise=NoiseModel.gaussian(sigma))


def _vanderpol(noise):
    return make_vanderpol(0.05, noise=noise)


CLOSURE = {
    "closed-quadratic": lambda: closure_check(
        closed_quadratic_dictionary(), _quadratic(), 12, 2000, 41, return_floor=True
    ),
    "vanderpol-n15": lambda: closure_check(
        make_monomial_dictionary(2, 4), _vanderpol(NoiseModel.gaussian(0.2)),
        20, 300, 42, domain=BOX, return_floor=True,
    ),
    "noiseless-n_mc-1": lambda: closure_check(
        make_monomial_dictionary(2, 2), _vanderpol(NoiseModel.none()),
        15, 1, 43, domain=BOX, return_floor=True,
    ),
}

G4 = np.array([0.3, -0.2, 0.5, 0.1])
G15 = np.linspace(-0.7, 0.7, 15)


def _integral(system, dictionary, domain, coeffs_g, n_mc, seed):
    return pf_apply_integral_mc(
        system, dictionary, gram(dictionary, domain), coeffs_g, n_mc, seed,
        quadrature_order=5, return_stderr=True,
    )


INTEGRAL = {
    "closed-quadratic-777": lambda: _integral(
        _quadratic(0.3), closed_quadratic_dictionary(), unit_box(2), G4, 777, 51
    ),
    "closed-quadratic-40001": lambda: _integral(
        _quadratic(0.3), closed_quadratic_dictionary(), unit_box(2), G4, 40_001, 52
    ),
    "vanderpol-n15-777": lambda: _integral(
        _vanderpol(NoiseModel.gaussian(0.3)), make_monomial_dictionary(2, 4), BOX, G15, 777, 53
    ),
    "vanderpol-n15-6000": lambda: _integral(
        _vanderpol(NoiseModel.gaussian(0.3)), make_monomial_dictionary(2, 4), BOX, G15, 6000, 54
    ),
}

GOLDEN = {
    "closure/closed-quadratic": "c95d5b970988d4d4eb6058ee09c5ec54d477718771c4a8953ed73acceac377c7",
    "closure/noiseless-n_mc-1": "e1693085fea7514718f41bb715ff804c26cd85f5856879ac81385386d332f479",
    "closure/vanderpol-n15": "9929aff2b484ac486a4a54508185047693881a40bc1384a6e9797a6a9a6d2faf",
    "integral/closed-quadratic-40001": "ffee484030d1da76be751cca3994970340e4ecc3116386de4127b7f5822fe92c",
    "integral/closed-quadratic-777": "dba47afad34df0e9444a6dee086f8ba0a611b347886c9a2998b0e59bf7c2dd14",
    "integral/vanderpol-n15-6000": "99272e9aa8d183c3715a0e22635ef425cd6b2011b07767ae4b784f74df49e0a7",
    "integral/vanderpol-n15-777": "4ee4e3f19dd325cd610ad8d57ad2923b6e42cfc856844f8206a23c92794b3bad",
}


def _hash(arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        assert a.dtype == np.float64
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CLOSURE))
def test_closure_bytes_match_recorded_hashes(case):
    assert _hash(CLOSURE[case]()) == GOLDEN[f"closure/{case}"]


@pytest.mark.parametrize("case", sorted(INTEGRAL))
def test_integral_bytes_match_recorded_hashes(case):
    assert _hash(INTEGRAL[case]()) == GOLDEN[f"integral/{case}"]
