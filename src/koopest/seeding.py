"""Deterministic seed derivation and random-number generators.

All randomness in the package flows through 64-bit seeds.  Seeds for
sub-tasks (realizations, Monte Carlo nodes, initial conditions) are derived
from a base seed with iterated SplitMix64 mixing, and every generator is a
Philox4x64 counter-based bit generator keyed by such a seed.  Both
algorithms are fixed and documented, so results reproduce across platforms
and across any parallel schedule.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def splitmix64(z: int) -> int:
    """One SplitMix64 output step (Steele, Lea & Flood's mixing constants)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_seed(*parts: int) -> int:
    """Fold any number of integers into a single 64-bit seed.

    Starting from a fixed offset, each part is XOR-folded into the state and
    passed through SplitMix64.  The map is deterministic and, in practice,
    collision-free for the seed counts used here.
    """
    z = 0x243F6A8885A308D3
    for p in parts:
        z = splitmix64(z ^ (int(p) & _MASK64))
    return z


def make_rng(seed: int, rng: np.random.Generator | None = None) -> np.random.Generator:
    """Philox4x64 counter-based generator keyed by a 64-bit seed: counter 0 and
    an empty buffer.  Given ``rng`` (the caller's own, never shared between
    threads), re-keys it whatever it drew, a tenth of the cost of a fresh one."""
    rng = np.random.Generator(np.random.Philox(key=0)) if rng is None else rng
    rng.bit_generator.state = {"bit_generator": "Philox", "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0,
                               "uinteger": 0, "state": {"counter": [0] * 4, "key": [int(seed) & _MASK64, 0]}}
    return rng
