"""CSV and JSON-sidecar persistence with byte-deterministic formatting.

Floats are written with ``repr``'s bytes (shortest round-trip form) and files
use '\\n' newlines, so identical data always produces identical bytes.  Every
CSV goes through one writer: the header and any row holding strings through
``csv.writer``, which quotes cells such as labels, and float tables as rows
of ``repr`` text joined by commas, the same bytes ``csv`` would write.  A
float table is formatted by one ``orjson`` call, whose text equals
``repr``'s for every cell but those ``repr`` writes in exponent form or as
``nan``/``inf``; ``repr`` formats the rows that hold such a cell.  orjson is
imported at the first float-table write.  A single trajectory's T + 1 states
are each formatted once, row t joining the text of states t and t + 1.  One
reader parses every CSV (the header by ``csv.reader``, the body by
``np.loadtxt``) and names the file, and the file line of a bad row, in its
errors.
"""

from __future__ import annotations

import csv
import json
import os
import warnings

import numpy as np

from .basis import GramMatrix
from .dynamics import SampleSet
from .estimator import OperatorEstimate
from .pf import PFEstimate


def fmt(x) -> str:
    return repr(float(x))


def _texts(table: np.ndarray) -> list:
    """Each row of a float table as the ``repr`` of its cells joined by commas.

    orjson writes the same shortest digits as ``repr`` but not its exponent
    form (nonzero |x| < 1e-4, |x| >= 1e16) nor ``nan``/``inf``, so the rows
    holding such a cell are formatted by ``repr``."""
    import orjson  # loaded at the first float-table write, not at import

    table = np.ascontiguousarray(table, dtype=float)  # orjson takes C order only
    if not len(table):
        return []
    texts = orjson.dumps(table, option=orjson.OPT_SERIALIZE_NUMPY).decode()[2:-2].split("],[")
    size = np.abs(table)
    plain = (size < 1e16) & ((size >= 1e-4) | (size == 0))  # False at nan
    for i in np.flatnonzero(~plain.all(axis=1)):
        texts[i] = ",".join(map(repr, table[i].tolist()))
    return texts


def _write_rows(path, header, rows=(), lines=()):
    """Write a CSV with '\\n' newlines: ``header`` and ``rows`` (lists of cells)
    through ``csv.writer``, then ``lines``, body rows of number text already
    joined by commas and ended by a newline, which ``csv`` would leave unquoted."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        fh.writelines(lines)


def write_sidecar(path, meta: dict) -> None:
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sidecar_path(csv_path: str) -> str:
    base, _ = os.path.splitext(csv_path)
    return base + ".meta.json"


def _read(path: str) -> tuple[list, np.ndarray, dict]:
    """A CSV's header, its ``(rows, columns)`` float body and its sidecar
    metadata (empty without a sidecar)."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), [])
        try:
            with warnings.catch_warnings():  # an empty body is reported below, naming the file
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError as err:
            raise ValueError(f"{path}: {_bad_line(path, len(header)) or err}") from None
    if table.size == 0 or table.shape[1] != len(header):
        expected = f"expected rows of {len(header)} numbers under its header"
        raise ValueError(f"{path}: {_bad_line(path, len(header)) or expected}")
    sidecar = _sidecar_path(path)
    if not os.path.exists(sidecar):
        return header, table, {}
    with open(sidecar) as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{sidecar}: {err}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{sidecar}: a sidecar must hold a JSON object, "
                         f"got {type(meta).__name__}")
    return header, table, meta


def _bad_line(path: str, width: int) -> str | None:
    """The first body line that is not ``width`` numbers, named by its 1-based
    file line (the header is line 1); None if there is none.  Blank lines are
    skipped, as ``np.loadtxt`` skips them."""
    with open(path) as fh:
        next(fh, None)
        for number, line in enumerate(fh, 2):
            cells = line.rstrip("\n").split(",")
            if cells == [""]:
                continue
            if len(cells) != width:
                return f"line {number}: expected {width} columns, got {len(cells)}"
            for column, cell in enumerate(cells, 1):
                try:
                    float(cell)
                except ValueError:
                    return (f"line {number}: cannot read {cell!r} as a number "
                            f"at data row {number - 1}, column {column}")
    return None


def save_samples(samples: SampleSet, path: str, label: str = "") -> None:
    """Sample pairs as CSV (columns x_1..x_n, y_1..y_n) plus a metadata sidecar.

    Each state is formatted once: a single trajectory's row t joins the text
    of its states t and t + 1."""
    header = [f"{c}_{i+1}" for c in "xy" for i in range(samples.state_dim)]
    if samples.states is None:
        x_text, y_text = _texts(samples.xs), _texts(samples.ys)
    else:
        x_text = _texts(samples.states)
        y_text = x_text[1:]
    # one body string, joined in C (a sample set holds at least one pair)
    _write_rows(path, header, lines=["\n".join(map(",".join, zip(x_text, y_text))) + "\n"])
    write_sidecar(_sidecar_path(path), {"seed": int(samples.seed), "label": label})


def load_samples(path: str) -> SampleSet:
    """Read a sample-pair CSV headed exactly ``x_1..x_n,y_1..y_n``; the sidecar
    restores the seed if present (0 without one).  Rows that chain load as one
    trajectory, sidecar or not.  Bad input raises ValueError naming the file."""
    header, table, meta = _read(path)
    n = len(header) // 2
    if n == 0 or header != [f"{c}_{i+1}" for c in "xy" for i in range(n)]:
        raise ValueError(f"{path}: a samples header must be x_1..x_n,y_1..y_n, got {header}")
    seed = meta.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(f"{_sidecar_path(path)}: seed must be an integer, got {seed!r}")
    try:
        return SampleSet(table[:, :n], table[:, n:], seed)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def save_matrix(matrix: np.ndarray, path: str, header) -> None:
    table = np.atleast_2d(np.asarray(matrix, dtype=float))
    _write_rows(path, list(header), lines=(f"{row}\n" for row in _texts(table)))


def load_matrix(path: str) -> np.ndarray:
    return _read(path)[1]


def save_operator(est, path: str) -> None:
    """Operator matrix as CSV plus provenance sidecar (Koopman or transfer)."""
    if isinstance(est, OperatorEstimate):
        meta = {
            "operator_kind": "koopman",
            "dict_names": list(est.dict_names),
            "sample_count": int(est.sample_count),
            "seed": None if est.seed is None else int(est.seed),
            "condition_sigma0": (float(est.condition_sigma0)  # a singular S0's inf is null
                                 if np.isfinite(est.condition_sigma0) else None),
            "fallback": bool(est.fallback),
        }
    elif isinstance(est, PFEstimate):  # the fit's provenance stays with K
        meta = {
            "operator_kind": "perron-frobenius",
            "dict_names": list(est.gram.names),
            "cond_lambda": float(est.gram.cond),
            "gram_method": "analytic-monomial",
        }
    else:
        raise TypeError(f"cannot save operator of type {type(est).__name__}")
    save_matrix(est.matrix, path, header=meta["dict_names"])
    write_sidecar(_sidecar_path(path), meta)


def load_operator(path: str):
    """Returns (matrix, metadata dict); metadata empty if no sidecar exists."""
    _, matrix, meta = _read(path)
    return matrix, meta


def save_gram(gram: GramMatrix, path: str) -> None:
    """Gram matrix as row-major CSV with the basis names as header."""
    save_matrix(gram.matrix, path, header=gram.names)
    write_sidecar(
        _sidecar_path(path),
        {
            "method": "analytic-monomial",
            "names": list(gram.names),
            "domain_lower": [float(v) for v in gram.domain.lower],
            "domain_upper": [float(v) for v in gram.domain.upper],
            "cond_lambda": float(gram.cond),
        },
    )
