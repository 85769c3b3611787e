import itertools
import operator
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from koopest import ClosedQuadraticParams, config_from_dict, dynamics

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def compiler(monkeypatch):
    """``compiler(path)``: from now on in this test the C compiler lookup
    finds ``path`` (None: no compiler), and kernels are built again."""

    def find(path):
        monkeypatch.setattr(dynamics, "shutil", SimpleNamespace(which=lambda name: path))
        dynamics._kernel.cache_clear()

    yield find
    dynamics._kernel.cache_clear()


@pytest.fixture(scope="session")
def repeated_product():
    """``repeated_product(exponents, xs)``: the ``(m, N)`` lift by its
    definition, in Python floats.  Per coordinate ``x^0 = 1`` and
    ``x^e = x^(e-1) * x``; per observable the product of its factors in
    coordinate order, starting from 1."""

    def lift(exponents, xs):
        exponents = [tuple(map(int, e)) for e in exponents]
        top = max(map(max, exponents))
        values = []
        for x in np.asarray(xs, dtype=float).tolist():
            powers = [list(itertools.accumulate([xk] * top, operator.mul, initial=1.0)) for xk in x]
            for e in exponents:
                value = 1.0
                for p, ek in zip(powers, e):
                    value *= p[ek]
                values.append(value)
        return np.array(values, dtype=float).reshape(len(xs), len(exponents))

    return lift


@pytest.fixture
def baseline_params():
    return ClosedQuadraticParams(rho=0.2, mu=0.3, c=1.0)


@pytest.fixture
def strong_params():
    return ClosedQuadraticParams(rho=0.8, mu=0.8, c=0.9)


@pytest.fixture
def fresh_python():
    """Run ``python *args`` in a fresh interpreter on this checkout's sources,
    from the repository root, and return its stdout.  This process has long
    since loaded scipy, so only a fresh one shows what a CLI run loads."""

    def run(*args):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run


@pytest.fixture
def smoke_config(tmp_path):
    """Small closed-quadratic config for harness and CLI smoke tests."""

    def make(**overrides):
        data = {
            "label": "smoke",
            "system": {
                "kind": "closed-quadratic",
                "params": {"rho": 0.2, "mu": 0.3, "c": 1.0},
                "noise": {"kind": "gaussian-iid", "std": [1.0, 1.0]},
            },
            "dictionary": {"kind": "closed-quadratic"},
            "domain": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
            "T_grid": [200, 400],
            "n_realizations": 4,
            "base_seed": 987654321,
            "epsilon_list": [0.5],
            "n_term_realizations": 8,
            "closure_n_states": 12,
            "closure_n_mc": 200,
            "output_dir": str(tmp_path / "out"),
        }
        data.update(overrides)
        return config_from_dict(data)

    return make


def combined_se(se_a, se_b):
    return float(np.sqrt(se_a**2 + se_b**2))
