"""CSV and JSON-sidecar persistence with byte-deterministic formatting.

Floats are written with ``repr`` (shortest round-trip form) and files use
'\\n' newlines, so identical data always produces identical bytes.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from .basis import GramMatrix
from .dynamics import SampleSet
from .estimator import OperatorEstimate
from .pf import PFEstimate


def fmt(x) -> str:
    return repr(float(x))


def _write_rows(path, header, rows):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_sidecar(path, meta: dict) -> None:
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def sidecar_path(csv_path: str) -> str:
    base, _ = os.path.splitext(csv_path)
    return base + ".meta.json"


def save_samples(samples: SampleSet, path: str, label: str = "") -> None:
    """Sample pairs as CSV (columns x_1..x_n, y_1..y_n) plus a metadata sidecar."""
    n = samples.state_dim
    header = [f"x_{i+1}" for i in range(n)] + [f"y_{i+1}" for i in range(n)]
    rows = (
        [fmt(v) for v in row]
        for row in np.hstack([samples.xs, samples.ys])
    )
    _write_rows(path, header, rows)
    write_sidecar(
        sidecar_path(path),
        {"seed": int(samples.seed), "label": label, "source": samples.source},
    )


def load_samples(path: str) -> SampleSet:
    """Read a sample-pair CSV; the sidecar restores seed and source if present."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    names = data.dtype.names
    n = sum(1 for c in names if c.startswith("x_"))
    if n == 0 or len(names) != 2 * n:
        raise ValueError(f"{path} does not look like a sample-pair CSV")
    table = np.column_stack([data[c] for c in names])
    meta_path = sidecar_path(path)
    seed, source = 0, "independent-pairs"
    if os.path.exists(meta_path):
        with open(meta_path) as fh:
            meta = json.load(fh)
        seed = int(meta.get("seed", 0))
        source = meta.get("source", source)
    return SampleSet(table[:, :n], table[:, n:], source, seed)


def save_matrix(matrix: np.ndarray, path: str, header=None) -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if header is None:
        header = [f"c{j+1}" for j in range(matrix.shape[1])]
    _write_rows(path, list(header), ([fmt(v) for v in row] for row in matrix))


def load_matrix(path: str) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))


def save_operator(est, path: str) -> None:
    """Operator matrix as CSV plus provenance sidecar (Koopman or transfer)."""
    if isinstance(est, OperatorEstimate):
        meta = {
            "operator_kind": est.operator_kind,
            "dict_names": list(est.dict_names),
            "sample_count": int(est.sample_count),
            "seed": None if est.seed is None else int(est.seed),
            "condition_sigma0": float(est.condition_sigma0),
            "fallback": bool(est.fallback),
        }
        names = est.dict_names
        matrix = est.matrix
    elif isinstance(est, PFEstimate):
        src = est.source_koopman
        meta = {
            "operator_kind": "perron-frobenius",
            "dict_names": list(est.gram.names),
            "sample_count": None if src is None else int(src.sample_count),
            "seed": None if src is None or src.seed is None else int(src.seed),
            "condition_sigma0": None if src is None else float(src.condition_sigma0),
            "fallback": False if src is None else bool(src.fallback),
            "cond_lambda": float(est.gram.cond),
            "gram_method": est.gram.method,
        }
        names = est.gram.names
        matrix = est.matrix
    else:
        raise TypeError(f"cannot save operator of type {type(est).__name__}")
    save_matrix(matrix, path, header=names)
    write_sidecar(sidecar_path(path), meta)


def load_operator(path: str):
    """Returns (matrix, metadata dict); metadata empty if no sidecar exists."""
    matrix = load_matrix(path)
    meta_path = sidecar_path(path)
    meta = {}
    if os.path.exists(meta_path):
        with open(meta_path) as fh:
            meta = json.load(fh)
    return matrix, meta


def save_gram(gram: GramMatrix, path: str) -> None:
    """Gram matrix as row-major CSV with the basis names as header."""
    save_matrix(gram.matrix, path, header=gram.names)
    write_sidecar(
        sidecar_path(path),
        {
            "method": gram.method,
            "names": list(gram.names),
            "domain_lower": [float(v) for v in gram.domain.lower],
            "domain_upper": [float(v) for v in gram.domain.upper],
            "cond_lambda": float(gram.cond),
        },
    )
