"""Bit-level gate for the simulator and the transition oracles.

Records the sha256 of the raw float64 bytes of ``simulate`` (xs, then ys)
for the closed quadratic map and both Van der Pol variants at
T = 65,573, which crosses the 65,536-row noise block; of ``step_pairs``
successors from 1,000 uniform states; and of noiseless ``koopman_apply_mc``
values at 20 states.  The hashes were recorded before the systems'
transitions were rewritten as coordinate functions, then as one step loop
per system, and then as one update pair per system that is the noise-free
map T (the kernels step ``T(x) + w``, the noise added last, and
``transition`` is T), so any change to the order or kind of floating-point
operations that step a state is caught.

Taken with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1; the stepping is
scalar IEEE arithmetic and does not depend on the BLAS build.  Both of a
system's kernels must write them: the compiled one (where a C compiler is
found) and the Python one it falls back to.

It also records the sha256 of each system's generated C kernel text, taken
while the generator still wrote the plane's two coordinates by hand: the
generator now writes any number of coordinates, and for these systems it
writes the same text, so gcc builds the same code.  A codegen edit that
touches the planar kernels must re-capture these hashes by name.
"""

import hashlib

import numpy as np
import pytest

from koopest import (
    ClosedQuadraticParams,
    NoiseModel,
    koopman_apply_mc,
    make_closed_quadratic,
    make_monomial_dictionary,
    make_vanderpol,
    simulate,
    step_pairs,
    unit_box,
)
from koopest import dynamics

T = 65_573

SYSTEMS = {
    "closed-quadratic": lambda noise=None: make_closed_quadratic(
        ClosedQuadraticParams(rho=0.2, mu=0.3, c=1.0), noise=noise
    ),
    "vanderpol": lambda noise=None: make_vanderpol(0.001, noise=noise),
    "standard_vdp": lambda noise=None: make_vanderpol(0.001, noise=noise, standard_vdp=True),
}

GOLDEN = {
    "closed-quadratic": {
        "simulate": "17bc29fb76b270360de5c28f388634ffb482395f2b6251c8747177074213330d",
        "step_pairs": "1e08a34491bdccae0701b37e8407d5d4fffd96475c89706128858e280a7a6738",
        "koopman_apply_mc": "95806c60645feb81c34cc17f696b20acc277caa4b5fbf6fa43aac226ff6bafbd",
    },
    "vanderpol": {
        "simulate": "1a89ccfec6d756ae674f892e8e8b5d17401f83c2a511596edc054df943964a24",
        "step_pairs": "9e260f5bb3b0b2cc153984161ba5f8ee5bb0ee6bd059e875213aa3cfc063ab21",
        "koopman_apply_mc": "8fc4988a58b8bb69bff540edf4cdcb674088aa542c0892cd39888f524f8ea2d9",
    },
    "standard_vdp": {
        "simulate": "233af6550799182a40d4b4978cb3bc7047a9412684ceae56a41ff26825c10312",
        "step_pairs": "202de472fc9ee74655c572df0f3023acd4bd4a509643d0111b48b3490b2af8dd",
        "koopman_apply_mc": "a50f43400650bd069a59f881c531d02199d3140546d947daebb931b50bb07fc9",
    },
}

KERNEL_SOURCE = {
    "closed-quadratic": "5408ebe2d21cc65f77794a85db969104bce80f11a6219cd71675e887a65366ae",
    "vanderpol": "203d65a5aa411e5e89295f9ce3548c7a776382be8efd44601b2a3f4e0fce823a",
    "standard_vdp": "6cb81a8c436f06cf42aba8df27f64d35cf546aa6d033bd32ed571618c39fa1d6",
}


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        assert a.dtype == np.float64
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _hashes(kind):
    system = SYSTEMS[kind]()
    samples = simulate(system, None, T, seed=20240611, domain=unit_box(2))
    assert samples.xs.shape == samples.ys.shape == (T, 2)

    states = np.random.default_rng(5).uniform(-1.0, 1.0, size=(1000, 2))
    pairs = step_pairs(system, states, seed=77)

    quiet = SYSTEMS[kind](NoiseModel.none())
    dictionary = make_monomial_dictionary(2, 2)
    coeffs = np.array([0.5, -1.0, 2.0, 0.25, -0.75, 1.5])
    values = [
        koopman_apply_mc(quiet, dictionary, coeffs, x, n_mc=3, seed=i)[0]
        for i, x in enumerate(states[:20])
    ]
    return {
        "simulate": _sha(samples.xs, samples.ys),
        "step_pairs": _sha(pairs.ys),
        "koopman_apply_mc": _sha(np.array(values)),
    }


@pytest.mark.parametrize("kind", sorted(SYSTEMS))
def test_stepping_bytes_match_recorded_hashes(kind):
    assert _hashes(kind) == GOLDEN[kind]


@pytest.mark.parametrize("kind", sorted(SYSTEMS))
def test_python_kernel_bytes_match_recorded_hashes(kind, compiler):
    compiler(None)
    assert SYSTEMS[kind]().stepping == "python: no C compiler found"
    assert _hashes(kind) == GOLDEN[kind]


@pytest.mark.parametrize("kind", sorted(SYSTEMS))
def test_generated_c_source_matches_recorded_hash(kind):
    system = SYSTEMS[kind]()
    source = dynamics._python(system.update, tuple(system.params))[2]
    assert hashlib.sha256(source.encode()).hexdigest() == KERNEL_SOURCE[kind]
