"""CSV and JSON-sidecar persistence with byte-deterministic formatting.

Floats are written with ``repr`` (shortest round-trip form) and files use
'\\n' newlines, so identical data always produces identical bytes.  One
reader parses every CSV (the header by ``csv.reader``, the body by
``np.loadtxt``) and names the file in its errors.
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


def _read(path: str) -> tuple[list, np.ndarray, dict]:
    """A CSV's header, its ``(rows, columns)`` float body and its sidecar
    metadata (empty without a sidecar)."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), [])
        try:
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
    if table.size == 0 or table.shape[1] != len(header):
        raise ValueError(f"{path}: expected rows of {len(header)} numbers under its header")
    if not os.path.exists(sidecar_path(path)):
        return header, table, {}
    with open(sidecar_path(path)) as fh:
        return header, table, json.load(fh)


def save_samples(samples: SampleSet, path: str, label: str = "") -> None:
    """Sample pairs as CSV (columns x_1..x_n, y_1..y_n) plus a metadata sidecar."""
    header = [f"{c}_{i+1}" for c in "xy" for i in range(samples.state_dim)]
    _write_rows(path, header, np.hstack([samples.xs, samples.ys]).tolist())
    write_sidecar(
        sidecar_path(path),
        {"seed": int(samples.seed), "label": label, "source": samples.source},
    )


def load_samples(path: str) -> SampleSet:
    """Read a sample-pair CSV headed exactly ``x_1..x_n,y_1..y_n``; the sidecar
    restores seed and source if present.  Bad input raises ValueError naming the file."""
    header, table, meta = _read(path)
    n = len(header) // 2
    if n == 0 or header != [f"{c}_{i+1}" for c in "xy" for i in range(n)]:
        raise ValueError(f"{path}: a samples header must be x_1..x_n,y_1..y_n, got {header}")
    source = meta.get("source", "independent-pairs")
    try:
        return SampleSet(table[:, :n], table[:, n:], source, int(meta.get("seed", 0)))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def save_matrix(matrix: np.ndarray, path: str, header) -> None:
    _write_rows(path, list(header), np.atleast_2d(np.asarray(matrix, dtype=float)).tolist())


def load_matrix(path: str) -> np.ndarray:
    return _read(path)[1]


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
    else:
        raise TypeError(f"cannot save operator of type {type(est).__name__}")
    save_matrix(est.matrix, path, header=meta["dict_names"])
    write_sidecar(sidecar_path(path), meta)


def load_operator(path: str):
    """Returns (matrix, metadata dict); metadata empty if no sidecar exists."""
    _, matrix, meta = _read(path)
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
