import csv
import io
import json
import os
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from koopest import (
    MomentPair,
    SampleSet,
    accumulate,
    closed_quadratic_dictionary,
    estimate_koopman,
    gram,
    koopman_to_pf,
    make_closed_quadratic,
    simulate,
    unit_box,
)
from koopest.io import (
    _texts,
    _write_rows,
    load_matrix,
    load_operator,
    load_samples,
    save_gram,
    save_matrix,
    save_operator,
    save_samples,
)


def make_samples(baseline_params, steps=60, seed=7):
    system = make_closed_quadratic(baseline_params)
    return simulate(system, np.zeros(2), steps, seed=seed)


class TestSampleRoundTrip:
    def test_values_survive_exactly(self, baseline_params, tmp_path):
        ss = make_samples(baseline_params)
        path = str(tmp_path / "samples.csv")
        save_samples(ss, path, label="roundtrip")
        back = load_samples(path)
        assert (back.xs == ss.xs).all() and (back.ys == ss.ys).all()
        assert back.states is not None
        assert back.seed == ss.seed

    def test_header_and_sidecar(self, baseline_params, tmp_path):
        ss = make_samples(baseline_params)
        path = str(tmp_path / "samples.csv")
        save_samples(ss, path, label="lbl")
        with open(path) as fh:
            assert fh.readline().strip() == "x_1,x_2,y_1,y_2"
        with open(str(tmp_path / "samples.meta.json")) as fh:
            meta = json.load(fh)
        assert meta == {"seed": ss.seed, "label": "lbl"}

    def test_trajectory_without_sidecar_loads_as_one_trajectory(self, baseline_params, tmp_path):
        ss = make_samples(baseline_params)
        path = str(tmp_path / "samples.csv")
        save_samples(ss, path)
        os.remove(str(tmp_path / "samples.meta.json"))
        back = load_samples(path)
        assert back.states.tobytes() == ss.states.tobytes()
        assert back.seed == 0

    def test_source_in_an_older_sidecar_is_ignored(self, baseline_params, tmp_path):
        ss = make_samples(baseline_params)
        path = str(tmp_path / "samples.csv")
        save_samples(ss, path)
        meta = {"seed": 4, "label": "", "source": "independent-pairs"}
        (tmp_path / "samples.meta.json").write_text(json.dumps(meta))
        back = load_samples(path)
        assert back.states.tobytes() == ss.states.tobytes()
        assert back.seed == 4

    @pytest.mark.parametrize(
        "sidecar, message",
        [("{seed: 1}", r"samples\.meta\.json: Expecting property name"),
         ('["a"]', r"samples\.meta\.json: a sidecar must hold a JSON object, got list"),
         ('{"seed": 1.5}', r"samples\.meta\.json: seed must be an integer, got 1\.5"),
         ('{"seed": true}', r"samples\.meta\.json: seed must be an integer, got True"),
         ('{"seed": "1"}', r"samples\.meta\.json: seed must be an integer, got '1'")],
        ids=["malformed", "not-an-object", "float-seed", "bool-seed", "string-seed"],
    )
    def test_bad_sidecar_rejected_naming_it(self, baseline_params, tmp_path, sidecar, message):
        path = str(tmp_path / "samples.csv")
        save_samples(make_samples(baseline_params), path)
        (tmp_path / "samples.meta.json").write_text(sidecar)
        with pytest.raises(ValueError, match=message):
            load_samples(path)

    def test_single_row(self, tmp_path):
        from koopest import SampleSet

        ss = SampleSet(np.array([[0.1, 0.2]]), np.array([[0.3, 0.4]]), 5)
        path = str(tmp_path / "one.csv")
        save_samples(ss, path)
        back = load_samples(path)
        assert back.xs.shape == (1, 2)
        assert (back.xs == ss.xs).all() and (back.ys == ss.ys).all()


# doubles whose shortest repr is easy to get wrong: signed zero, the
# smallest subnormal and other subnormals, exponent-form small and large
# values, and the largest finite double of either sign
SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e-300 / 7, 1e-5,
           -1e-5, 1e16, 1.0000000000000002e16, sys.float_info.max, -sys.float_info.max]


def csv_writer_bytes(samples):
    """The samples CSV as ``csv.writer`` writes ``np.hstack([xs, ys]).tolist()``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"{c}_{i+1}" for c in "xy" for i in range(samples.state_dim)])
    writer.writerows(np.hstack([samples.xs, samples.ys]).tolist())
    return buf.getvalue().encode()


def special_sets():
    rng = np.random.default_rng(3)
    values = np.concatenate([SPECIAL, SPECIAL, rng.normal(size=120)])
    states = rng.permutation(values).reshape(-1, 3)
    chained = SampleSet(states[:-1], states[1:], 11)
    pairs = SampleSet(states[::2][:20], states[1::2][:20], 12)
    assert chained.states is not None and pairs.states is None
    return {"chained": chained, "independent": pairs}


class TestSampleBytes:
    @pytest.mark.parametrize("kind", ["chained", "independent"])
    def test_bytes_equal_the_csv_writer_form(self, tmp_path, kind):
        samples = special_sets()[kind]
        path = tmp_path / "samples.csv"
        save_samples(samples, str(path))
        assert path.read_bytes() == csv_writer_bytes(samples)

    @pytest.mark.parametrize("kind", ["chained", "independent"])
    def test_load_then_save_is_byte_identical(self, tmp_path, kind):
        first, again = tmp_path / "a" / "samples.csv", tmp_path / "b" / "samples.csv"
        save_samples(special_sets()[kind], str(first))
        back = load_samples(str(first))
        assert (back.states is None) == (special_sets()[kind].states is None)
        save_samples(back, str(again))
        assert again.read_bytes() == first.read_bytes()


def repr_texts(table):
    """The reference row texts: each cell's ``repr`` joined by commas."""
    return [",".join(map(repr, row)) for row in table.tolist()]


def bits(x):
    return int(np.float64(x).view(np.uint64))


# the edges of repr's positional form: it writes 1e-4 and nextafter(1e16, 0)
# positionally, nextafter(1e-4, 0) and 1e16 in exponent form
EDGES = [np.nextafter(1e-4, 0), 1e-4, np.nextafter(1e16, 0), 1e16]

# cells as float64 bit patterns: any pattern (NaN payloads, +-inf, +-0.0,
# subnormals and exponents of every size), the edges, and plain floats
CELLS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sampled_from([bits(s * x) for x in EDGES for s in (1, -1)]),
    st.floats(-1e17, 1e17).map(bits),
)
TABLES = arrays(np.uint64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
                elements=CELLS).map(lambda a: a.view(np.float64))


class TestTexts:
    """``_texts`` writes the bytes of ``repr`` for every table, whatever its
    cells, shape or memory layout."""

    @settings(max_examples=300, deadline=None)
    @given(TABLES)
    def test_equals_repr_on_any_bits_and_layout(self, table):
        wide = np.hstack([table, table])
        for view in (table, table.T, table[::2], table[:, ::-1], wide[:, :table.shape[1]]):
            assert _texts(view) == repr_texts(view)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (1, 1), (1, 4), (4, 1)],
                             ids=["0xn", "mx0", "1x1", "1xn", "mx1"])
    def test_shapes(self, shape):
        table = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape) / 3.0
        assert _texts(table) == repr_texts(table)
        assert _texts(table.T) == repr_texts(table.T)

    def test_edges_of_the_positional_form(self):
        table = np.array([EDGES, [-x for x in EDGES], [0.1, -0.0, 5e-324, np.nan]])
        assert _texts(table) == ["9.999999999999999e-05,0.0001,9999999999999998.0,1e+16",
                                 "-9.999999999999999e-05,-0.0001,-9999999999999998.0,-1e+16",
                                 "0.1,-0.0,5e-324,nan"]
        assert _texts(table) == repr_texts(table)


class TestCsvQuoting:
    def test_string_cells_keep_csv_quoting(self, tmp_path):
        path = tmp_path / "t.csv"
        _write_rows(str(path), ["label", "x,y"], rows=[['a,"b"', 1.5]], lines=["2.5,-0.0\n"])
        assert path.read_text() == 'label,"x,y"\n"a,""b""",1.5\n2.5,-0.0\n'


class TestSampleBoundary:
    @pytest.mark.parametrize(
        "header", ["x_1,y_1,x_2,y_2", "x_1,x_2,y_2,y_1", "x1,x2,y1,y2", "x_1,x_2,y_1", "a,b"]
    )
    def test_header_must_be_exact(self, tmp_path, header):
        # x_1,y_1,x_2,y_2 used to load, taking (x_1, y_1) as the state
        path = tmp_path / "samples.csv"
        path.write_text(f"{header}\n" + ",".join("0.5" for _ in header.split(",")) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: a samples header must be")):
            load_samples(str(path))

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0.5,abc,0.7,0.8", r"'abc'.* row \d+, column 2\b"),
            ("0.5,,0.7,0.8", r"'' .* row \d+, column 2\b"),
            ("0.5,0.6,0.7", r"columns"),
            ("0.5,nan,0.7,0.8", r"finite"),
        ],
        ids=["word", "empty", "short-row", "nan"],
    )
    def test_bad_cell_names_the_file(self, tmp_path, row, message):
        path = tmp_path / "samples.csv"
        path.write_text(f"x_1,x_2,y_1,y_2\n0.1,0.2,0.3,0.4\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + message):
            load_samples(str(path))


    @pytest.mark.parametrize(
        "body, message",
        [
            ("0.1,0.2,0.3,0.4\n0.5,abc,0.7,0.8\n", "line 3: cannot read 'abc'"),
            ("0.1,0.2,0.3,0.4\n0.5,0.6,0.7\n", "line 3: expected 4 columns, got 3"),
            ("0.1,0.2,0.3,0.4\n\n0.5,0.6,0.7\n", "line 4: expected 4 columns, got 3"),
            ("0.5,0.6,0.7\n0.1,0.2,0.3\n", "line 2: expected 4 columns, got 3"),
        ],
        ids=["word", "short-row", "after-blank-line", "short-first-row"],
    )
    def test_bad_row_names_its_file_line(self, tmp_path, body, message):
        # numpy's loadtxt counted a bad cell's row from 0 and a short row's from 1
        path = tmp_path / "samples.csv"
        path.write_text(f"x_1,x_2,y_1,y_2\n{body}")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_samples(str(path))


class TestMatrixRoundTrip:
    @pytest.mark.parametrize("shape", [(3, 1), (1, 3)])
    def test_one_column_or_row_keeps_its_shape(self, tmp_path, shape):
        # a (3, 1) matrix used to come back as (1, 3)
        matrix = np.arange(1.0, 4.0).reshape(shape) / 7.0
        path = str(tmp_path / "m.csv")
        save_matrix(matrix, path, header=[f"c{j+1}" for j in range(shape[1])])
        back = load_matrix(path)
        assert back.shape == shape
        assert back.tobytes() == matrix.tobytes()


class TestOperatorRoundTrip:
    def test_koopman_metadata(self, baseline_params, tmp_path):
        dct = closed_quadratic_dictionary()
        ss = make_samples(baseline_params, steps=100)
        est = estimate_koopman(accumulate(MomentPair.empty(dct), dct, ss))
        path = str(tmp_path / "k.csv")
        save_operator(est, path)
        matrix, meta = load_operator(path)
        assert (matrix == est.matrix).all()
        assert meta["operator_kind"] == "koopman"
        assert meta["sample_count"] == 100
        assert meta["seed"] == ss.seed
        assert meta["fallback"] is False

    def test_singular_estimate_sidecar_is_standard_json(self, tmp_path):
        # 50 all-zero pairs: S0 is singular, its condition inf, which the
        # sidecar used to write as the non-JSON token Infinity
        dct = closed_quadratic_dictionary()
        zeros = SampleSet(np.zeros((50, 2)), np.zeros((50, 2)), 0)
        with pytest.warns(UserWarning, match="numerically singular"):
            est = estimate_koopman(accumulate(MomentPair.empty(dct), dct, zeros))
        assert est.condition_sigma0 == np.inf and est.fallback
        path = str(tmp_path / "k.csv")
        save_operator(est, path)

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        with open(tmp_path / "k.meta.json") as fh:
            meta = json.loads(fh.read(), parse_constant=refuse)
        assert meta["condition_sigma0"] is None and meta["fallback"] is True
        assert load_operator(path)[1] == meta

    def test_transfer_metadata(self, baseline_params, tmp_path):
        dct = closed_quadratic_dictionary()
        lam = gram(dct, unit_box(2))
        ss = make_samples(baseline_params, steps=100)
        est = estimate_koopman(accumulate(MomentPair.empty(dct), dct, ss))
        p = koopman_to_pf(est.matrix, lam)
        path = str(tmp_path / "p.csv")
        save_operator(p, path)
        matrix, meta = load_operator(path)
        assert (matrix == p.matrix).all()
        assert meta["operator_kind"] == "perron-frobenius"
        assert meta["cond_lambda"] == lam.cond
        # the fit's provenance lives in the Koopman sidecar alone
        assert sorted(meta) == ["cond_lambda", "dict_names", "gram_method", "operator_kind"]

    @pytest.mark.parametrize("sidecar", ["{", "[1, 2]"], ids=["malformed", "not-an-object"])
    def test_bad_sidecar_named(self, tmp_path, sidecar):
        path = tmp_path / "k.csv"
        save_matrix(np.eye(2), str(path), header=["a", "b"])
        (tmp_path / "k.meta.json").write_text(sidecar)
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'k.meta.json'}: ")):
            load_operator(str(path))


class TestGramExport:
    def test_header_lists_basis_names(self, tmp_path):
        dct = closed_quadratic_dictionary()
        lam = gram(dct, unit_box(2))
        path = str(tmp_path / "gram.csv")
        save_gram(lam, path)
        with open(path) as fh:
            assert fh.readline().strip() == "1,x1,x2,x1^2"
        assert (load_matrix(path) == lam.matrix).all()
