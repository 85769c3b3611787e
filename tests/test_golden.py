"""Golden-bytes gate for the CSV outputs of the shipped smoke config, of
a small Van der Pol sweep and of the simulate/estimate CSV round trip.

Runs ``configs/smoke.yaml`` through the sweep, bounds and pf subcommands
at ``--workers 1`` and through closure, which takes no worker count, and
compares the sha256 of every CSV with recorded hashes, so any change to
output bytes is caught.  The smoke config scores against the
analytic operator; the Van der Pol sweep (``configs/vanderpol.yaml`` at
``T_grid: [100, 1000]``, 8 realizations) covers the other scoring path,
against a fitted high-T reference, at ``--workers`` 1 and 2.  The round
trip writes ``samples.csv`` with ``koopest simulate`` and reads it back
with ``koopest estimate --samples``, for the smoke config at its default
400 steps and for ``configs/vanderpol.yaml`` at 70,000 steps, past the
65,536-row block in which ``accumulate`` walks a sample set.
``.meta.json`` sidecars embed the output path and are not compared.

The hashes were taken with Python 3.11.7, numpy 2.4.6, scipy 1.17.1 and
OpenBLAS 0.3.31 (scipy-openblas, DYNAMIC_ARCH, Haswell kernels).  The lift
is exact IEEE products, but the moment sums, solves and norms go through
BLAS/LAPACK, and another BLAS build may round differently; a mismatch there
means re-baselining the hashes, not a bug.  A deliberate change to output
bytes must update the hashes and be named in CHANGES.md.
"""

import contextlib
import hashlib
import io

import pytest

from koopest import load_config, run_sweep
from koopest.cli import main

# every hash but bounds.csv, gram.csv and closure.csv re-captured when the
# lift came to be defined by repeated multiplication, not pow
GOLDEN = {
    "sweep.csv": "3950ba7ebc717c0f3b14b8b5a0a27e384230021a43a783c0b2219b32806fc4f4",
    "sweep_points.csv": "e3eccfee8868be2d3c91f828c54c3e66634e57f828c128a2d25fd04a75a45f50",
    # re-captured when the bound terms and delta_hat came to read bounds' one
    # fit set per T, the scored realizations
    "bounds.csv": "c2674376ec910ce37edf9e1023829c72119b62916fd7faaf742e32079d2201d3",
    # re-captured when duality_defect became the exact ||K^T Lambda - Lambda P||_2
    "pf_report.csv": "4025546562eca209c403407d6aff9047b96e8be5ed27837a2057340d80d91787",
    "koopman_matrix.csv": "f25372b8563c80446b88db8e597e9679cae9eac16cb8d1068965e72c6a96279d",
    "pf_matrix.csv": "908466eb3712a8d525c81866b3bd4352fe903100ca31a1be864a8a2db257bd1b",
    "gram.csv": "5b3b672ed0ab22019ab92d8d0a7af6b42c06956c228b290006f1f66b879da63b",
    "closure.csv": "78a2b5c852533517e73c28dc6129267ae93187af0fa2face8001552284557f0a",
}


def test_smoke_csv_bytes_match_golden_hashes(tmp_path):
    for command in ("sweep", "bounds", "pf", "closure"):
        argv = [command, "configs/smoke.yaml", "--output-dir", str(tmp_path)]
        if command != "closure":  # closure does not map, so takes no worker count
            argv += ["--workers", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    actual = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN
    }
    assert actual == GOLDEN


# re-captured when the lift came to be defined by repeated multiplication
GOLDEN_FITTED_REFERENCE = {
    "sweep.csv": "f38f29beb21ca971b4a7ff1fb57c7d83052729a1e346700af5c7fd423b9e8334",
    "sweep_points.csv": "7117abd739f3344ec016a384490aff2776557edaed4ea2dd03f0b8874e8a60c9",
}


def test_fitted_reference_sweep_matches_golden_hashes(tmp_path):
    # the reference is one group of the sweep's map, fitted by a worker at 2
    for workers in (1, 2):
        out = tmp_path / f"workers-{workers}"
        cfg = load_config("configs/vanderpol.yaml", T_grid=[100, 1000], n_realizations=8,
                          output_dir=str(out))
        assert run_sweep(cfg, workers).reference["kind"] == "high-T estimate"
        actual = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in GOLDEN_FITTED_REFERENCE
        }
        assert actual == GOLDEN_FITTED_REFERENCE, f"--workers {workers}"


GOLDEN_ROUND_TRIP = {
    ("configs/smoke.yaml", None): {  # koopman.csv re-captured with the multiplication lift
        "samples.csv": "c2b40a0ae4bf05811e73406ea62263fb266d1638ca9974b8ca9a98cadb0e6c76",
        "koopman.csv": "804b600f17d0ce8317050ad55e7a603c774c7d763a62f2602e92dd206a22ca4d",
    },
    ("configs/vanderpol.yaml", "70000"): {
        "samples.csv": "de1693e1b37eb97be39565b63a62101d5c4a13dc2e7048b06e916bd41ac82a15",
        "koopman.csv": "2a9556ba44408c9da7df3f59256f8fdd92589dd41cd78965717262dc525100c9",
    },
}


@pytest.mark.parametrize("config, steps", GOLDEN_ROUND_TRIP, ids=["smoke", "vanderpol-70000"])
def test_simulate_estimate_round_trip_matches_golden_hashes(tmp_path, config, steps):
    common = [config, "--output-dir", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", *common] + (["--steps", steps] if steps else [])) == 0
        assert main(["estimate", *common, "--samples", str(tmp_path / "samples.csv")]) == 0
    actual = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("samples.csv", "koopman.csv")
    }
    assert actual == GOLDEN_ROUND_TRIP[config, steps]
