import csv
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgaclust import dataset
from hgaclust.dataset import (
    HEART_COLUMNS,
    IMPUTE_STRATEGIES,
    FeatureMatrix,
    RawDataset,
    impute_missing,
    load_heart_csv,
    split_features_target,
    standardize,
)
from hgaclust.errors import ContractError, InputError

from oracles import python_load_heart_csv


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


ROW_TEMPLATE = "63,1,3,145,233,1,0,150,0,2.3,0,{ca},{thal},1"


def _rows(n, ca="0", thal="1"):
    return "\n".join(ROW_TEMPLATE.format(ca=ca, thal=thal) for _ in range(n)) + "\n"


# the fixture's header, three complete rows and three rows with a "?" cell
_FIXTURE_LINES = (Path(__file__).parent / "data" / "synthetic_heart.csv").read_bytes().splitlines()
FUZZ_LINES = _FIXTURE_LINES[:4] + [_FIXTURE_LINES[i] for i in (19, 64, 90)]


@st.composite
def mutated_fixture_rows(draw):
    """Fixture lines, then a few byte insertions, deletions and overwrites."""
    lines = draw(st.lists(st.sampled_from(FUZZ_LINES), max_size=6))
    text = bytearray(b"\n".join(lines) + draw(st.sampled_from([b"", b"\n", b"\r\n"])))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(text)))
        chunk = draw(st.sampled_from([b",", b"?", b"\n", b'"', b"-", b"e9", b"nan", b"\x00", b"\xff"])
                     | st.binary(min_size=1, max_size=3))
        cut = draw(st.integers(0, 3))
        text[at:at + cut] = chunk if draw(st.booleans()) else b""
    return bytes(text)


class TestLoad:
    def test_full_fixture_shape(self, heart_csv):
        data = load_heart_csv(heart_csv)
        assert data.n_rows == 303
        assert data.values.shape == (303, 14)

    def test_fixture_missing_cells_flagged_not_filled(self, heart_csv):
        data = load_heart_csv(heart_csv)
        cols = [c for _, c in data.imputed_cells]
        assert cols.count("ca") == 4 and cols.count("thal") == 2
        assert np.isnan(data.values).sum() == 6

    def test_empty_file(self, tmp_path):
        with pytest.raises(InputError, match="file is empty"):
            load_heart_csv(_write(tmp_path, ""))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_heart_csv(tmp_path / "nope.csv")

    def test_five_row_fixture_with_one_missing_ca(self, tmp_path):
        text = _rows(4) + ROW_TEMPLATE.format(ca="?", thal="1") + "\n"
        data = load_heart_csv(_write(tmp_path, text))
        assert data.imputed_cells == ((4, "ca"),)
        assert math.isnan(data.values[4, 11])

    def test_header_detected_and_skipped(self, tmp_path):
        text = ",".join(HEART_COLUMNS) + "\n" + _rows(2)
        data = load_heart_csv(_write(tmp_path, text))
        assert data.n_rows == 2

    def test_wrong_header_rejected(self, tmp_path):
        text = "a,b,c\n" + _rows(1)
        with pytest.raises(InputError, match="does not match expected columns"):
            load_heart_csv(_write(tmp_path, text))

    def test_wrong_column_count_names_row(self, tmp_path):
        text = _rows(1) + "1,2,3\n"
        with pytest.raises(InputError, match="row 2 has 3 columns, expected 14"):
            load_heart_csv(_write(tmp_path, text))

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        bad = ROW_TEMPLATE.format(ca="abc", thal="1")
        with pytest.raises(InputError, match="row 1, column 'ca': cell 'abc' is not"):
            load_heart_csv(_write(tmp_path, bad + "\n"))

    def test_nan_literal_rejected(self, tmp_path):
        bad = ROW_TEMPLATE.format(ca="nan", thal="1")
        with pytest.raises(InputError, match="cell 'nan' is not numeric"):
            load_heart_csv(_write(tmp_path, bad + "\n"))

    def test_missing_target_rejected(self, tmp_path):
        bad = "63,1,3,145,233,1,0,150,0,2.3,0,0,1,?"
        with pytest.raises(InputError, match="missing target is not supported"):
            load_heart_csv(_write(tmp_path, bad + "\n"))

    def test_multivalued_target_binarized(self, tmp_path):
        text = (
            "63,1,3,145,233,1,0,150,0,2.3,0,0,1,0\n"
            "63,1,3,145,233,1,0,150,0,2.3,0,0,1,3\n"
        )
        data = load_heart_csv(_write(tmp_path, text))
        assert data.values[:, 13].tolist() == [0.0, 1.0]


    @pytest.mark.parametrize("header", [True, False], ids=["header", "headerless"])
    def test_byte_order_mark_skipped(self, header, heart_csv, tmp_path):
        lines = Path(heart_csv).read_bytes().splitlines(keepends=True)
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(b"".join(lines if header else lines[1:]))
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        expected, loaded = load_heart_csv(plain), load_heart_csv(marked)
        assert np.array_equal(loaded.values, expected.values, equal_nan=True)
        assert loaded.imputed_cells == expected.imputed_cells != ()

class TestLoaderFuzz:
    @settings(max_examples=300)
    @given(
        content=st.binary(max_size=300) | mutated_fixture_rows(),
        strategy=st.sampled_from(IMPUTE_STRATEGIES),
    )
    def test_load_and_impute_return_data_or_input_error(self, content, strategy):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.csv"
            path.write_bytes(content)
            try:
                data = impute_missing(load_heart_csv(path), strategy)
            except InputError:
                return
        assert isinstance(data, RawDataset)
        assert not np.isnan(data.values).any()


# Plain cells, and cells at the edges of the cell rule: a "?" with whitespace,
# whitespace that only str.strip removes, NaN or infinity literals, an overflow,
# text, an empty cell. Targets likewise, one negative target included.
PLAIN_CELLS = ["0", "1", "2.3", "-4", "63", "1e3", "1_0", "\u0663", "\u0661\u0662.\u0665",
               "\xa05\xa0", " 7 ", "?"]
EDGE_CELLS = [" ? ", "\t?", "\x1c7", "7\x1f", "nan", "NaN", "inf", "-inf", "1e400", "abc", "1 0", ""]
PLAIN_TARGETS = ["0", "1", "2", "4", "3.5", "\u0661"] * 2 + ["-1"]
EDGE_TARGETS = ["?", " ? ", "\x1c1", "nan", "1e400"]
HEADER = ",".join(HEART_COLUMNS) + "\n"
# Cells of the C reader's alphabet (digits, ".+-eE", space, tab, "?"), which a plain file
# holds alone, then cells of that alphabet the rule refuses, and targets likewise.
ASCII_CELLS = ["0", "-0", "+5", ".5", "7.", "0012", "2E-2", "1e+2", "\t8 ", " ? ", "\t?", "?"]
ASCII_EDGE_CELLS = ["+?", "-?", "??", "?5", "1e", ".", "--1", "-1e999", "+ 1", " "]
ASCII_TARGETS = ["0", "1", "+2", "4.0", "3e0", " 1 ", "-0"] * 2 + ["-1", "-.5"]
PLAIN_TEXT = r"[0-9.+\-eE \t?,\r\n]+"  # what a file past its header holds to be plain


@st.composite
def heart_files(draw):
    """CSV text of a few rows from the plain alphabets, with up to two edge cells or bad rows.

    One draw picks the file's cells (the rule's plain cells, or the C reader's alphabet) and
    its line ends (``\\n``, ``\\r``, ``\\r\\n`` or a mix of them).
    """
    alphabets = [(PLAIN_CELLS, PLAIN_TARGETS), (ASCII_CELLS, ASCII_TARGETS)]
    cells, targets = draw(st.sampled_from(alphabets))
    ends = st.sampled_from(draw(st.sampled_from([["\n"], ["\r"], ["\r\n"], ["\n", "\r", "\r\n"]])))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        row = draw(st.lists(st.sampled_from(cells), min_size=13, max_size=13))
        rows.append(row + [draw(st.sampled_from(targets))])
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["cell", "target", "length", "blank"]))
        row = draw(st.sampled_from([row for row in rows if len(row) > 1]))
        if kind == "cell":
            row[draw(st.integers(0, 12))] = draw(st.sampled_from(EDGE_CELLS + ASCII_EDGE_CELLS))
        elif kind == "target":
            row[-1] = draw(st.sampled_from(EDGE_TARGETS + ASCII_EDGE_CELLS))
        elif kind == "length":  # a cell short, or one too many
            row[13:] = draw(st.sampled_from([[], row[13:] + ["0"]]))
        else:  # an empty or whitespace-only line
            rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from([[], [" "], ["\t"]])))
    header = ",".join(HEART_COLUMNS) + draw(ends) if draw(st.booleans()) else ""
    return header + "".join(",".join(row) + draw(ends) for row in rows[:-1]) + ",".join(
        rows[-1]) + draw(st.sampled_from(["", "\n", "\r", "\r\n"]))


def _load_outcome(path):
    try:
        data = load_heart_csv(path)
    except InputError as exc:
        return str(exc)
    return data.values.tobytes(), data.imputed_cells


class TestCellRule:
    @settings(max_examples=300)
    @given(heart_files())
    @example(_rows(2, ca=" ? ") + _rows(1, thal="\x1c7"))  # edge cells the rule accepts
    @example(_rows(1) + "63,1,3,145,233,1,0,150,0,2.3,0,0,1,?\n")
    @example(_rows(1) + "63,1,3,145,233,1,0,150,0,2.3,0,0,1,1,0\n")
    @example(_rows(3, ca="?", thal="\u0663"))
    # a header with a "?" cell is data; one with a "nan" cell is a wrong header
    @example(HEADER.replace(",ca,", ",?,") + _rows(2))
    @example(HEADER.replace(",ca,", ", ? ,") + _rows(2))
    @example(HEADER.replace(",ca,", ",nan,") + _rows(2))
    # two anomalies: the first in file order is named, a negative target only last
    @example(_rows(1, ca="abc") + "1,2,3\n")
    @example("1,2,3\n" + _rows(1, ca="abc"))
    @example("63,1,3,145,233,1,0,150,0,2.3,0,nan,1,?\n")
    @example(_rows(1).replace(",1\n", ",-1\n") + _rows(1, thal="inf"))
    def test_matches_the_per_cell_oracle(self, text):
        """Same values and missing cells, or the same error, as a plain per-cell reader."""

        def refuse(*args):
            raise AssertionError("a well-formed plain file went to the csv path")

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cells.csv"
            path.write_text(text, encoding="utf-8")
            expected = python_load_heart_csv(path, HEART_COLUMNS)
            if not isinstance(expected, str):
                values, missing = expected
                expected = np.array(values, dtype=np.float64).tobytes(), missing
            plain = re.fullmatch(PLAIN_TEXT, text.removeprefix(",".join(HEART_COLUMNS)))
            with pytest.MonkeyPatch.context() as patch:
                if not isinstance(expected, str) and plain:
                    patch.setattr(dataset, "_parsed_rows", refuse)
                assert _load_outcome(path) == expected


def _oracle_outcome(path):
    """The per-cell oracle's outcome in :func:`_load_outcome`'s form."""
    try:
        expected = python_load_heart_csv(path, HEART_COLUMNS)
    except csv.Error as exc:  # the loader names csv's refusal after the path
        return f"{path}: {exc}"
    if isinstance(expected, str):
        return expected
    return np.array(expected[0], dtype=np.float64).tobytes(), expected[1]


FIXTURE_TEXT = (Path(__file__).parent / "data" / "synthetic_heart.csv").read_text()


@pytest.mark.filterwarnings("error")  # the C reader warns on a file with no data rows
class TestReaderPaths:
    """Which reader converts a file's rows: numpy's C reader for plain files, csv for the rest."""

    @staticmethod
    def _paths_taken(tmp_path, text):
        path, taken = _write(tmp_path, text), []
        plain_values, np_loadtxt = dataset._plain_values, np.loadtxt

        def spy(*args):
            values = plain_values(*args)
            taken.append("csv" if values is None else "C")
            return values

        def loadtxt(*args, **kwargs):
            taken.append("loadtxt")
            return np_loadtxt(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataset, "_plain_values", spy)
            patch.setattr(np, "loadtxt", loadtxt)
            outcome = _load_outcome(path)
        assert outcome == _oracle_outcome(path)
        return taken

    @pytest.mark.parametrize("text", [
        FIXTURE_TEXT,
        FIXTURE_TEXT.replace("\n", "\r\n"),
        FIXTURE_TEXT.replace("\n", "\r"),
        _rows(2, ca=" ? ", thal="\t+1e0") + _rows(1, ca="-0", thal=".5").rstrip("\n"),
        _rows(3).replace(",1\n", ",0\r", 1).replace(",1\n", ",4\r\n", 1),
        HEADER.replace("age", '"age"') + _rows(2),
    ], ids=["fixture", "crlf", "cr", "edge-cells", "mixed-ends", "quoted-header"])
    def test_plain_files_take_the_c_reader(self, tmp_path, text):
        assert self._paths_taken(tmp_path, text) == ["loadtxt", "C"]

    @pytest.mark.parametrize("text", [
        _rows(2).replace("145", '"145"'),
        HEADER.replace("age", '"age\n"') + _rows(2),
        _rows(1, ca="1_0"),
        _rows(1, thal="\u0661"),
        _rows(1, thal="\x1c7"),
        "\n" + _rows(2),
        HEADER + "\n" + _rows(2),
        HEADER + "\n\r\n",
        _rows(1) + "\n" + _rows(1),
        _rows(1) + " \n" + _rows(1),
        _rows(2).replace(",1\n", ",1,0\n"),
        _rows(1) + "0" * 131_073 + _rows(1),
        _rows(1, ca="+?"),
        _rows(1, thal="1e400"),
        _rows(1) + _rows(1).replace(",1\n", ",?\n"),
    ], ids=["quotes", "header-spanning-lines", "underscore", "arabic-indic-digit", "file-separator",
            "blank-first-line", "blank-line-after-header", "blank-lines-only",
            "blank-middle-line", "whitespace-line", "15-columns", "line-past-field-limit",
            "signed-missing", "infinity", "missing-target"])
    def test_other_files_take_the_csv_path(self, tmp_path, text):
        assert self._paths_taken(tmp_path, text)[-1] == "csv"


class TestImpute:
    def test_median_fill(self, tmp_path):
        text = (
            _rows(1, ca="1") + _rows(1, ca="2") + _rows(1, ca="?") + _rows(1, ca="4")
        )
        data = impute_missing(load_heart_csv(_write(tmp_path, text)), "median")
        # median of {1, 2, 4} is 2
        assert data.values[2, 11] == 2.0
        assert data.imputed_cells == ((2, "ca"),)

    @pytest.mark.parametrize("observed", [
        [3.0, 1.0, 2.0, 2.0, 5.0],  # odd, a duplicate in the middle
        [4.0, 1.0, 4.0, 1.0],  # even, duplicates on both sides
        [7.5, -2.0, 7.5, 7.5, -2.0, 0.25],
        [-0.0, -0.0, 0.0],  # mixed zeros in the middle: numpy's mean makes them +0.0
        [-0.0],
        [-0.0, 0.0, -0.0, 0.0],
        [0.0, 1.0, -0.0, -1.0, -0.0, 0.0],
        [1.7e308, 1.7e308, -1.0, 1.7e308],  # the middle pair's sum overflows: halves added
        [-1.7e308, -1.7e308, 1.0, -1.7e308],
        [5e-324, 5e-324, 1.0, -1.0],  # subnormal halves would round to 0: the sum is halved
    ])
    def test_median_fill_is_numpys_median(self, observed):
        """np.median's bits wherever finite; a middle pair whose sum overflows is halved first."""
        values = np.zeros((len(observed) + 1, len(HEART_COLUMNS)))
        values[:-1, 11], values[-1, 11] = observed, math.nan
        with np.errstate(over="ignore"):  # numpy warns on the overflowing pairs
            expected = float(np.median(np.array(observed)))
        if not math.isfinite(expected):  # the halves' median, doubled: exact for these values
            expected = 2 * float(np.median(np.array(observed) / 2))
        filled = impute_missing(RawDataset(values), "median").values[-1, 11]
        assert math.isfinite(filled) and filled.hex() == expected.hex()

    def test_mode_fill_prefers_smallest_on_ties(self, tmp_path):
        text = _rows(1, ca="3") + _rows(1, ca="1") + _rows(1, ca="?") + _rows(1, ca="1")
        data = impute_missing(load_heart_csv(_write(tmp_path, text)), "mode")
        assert data.values[2, 11] == 1.0

    def test_no_missing_is_identity(self, tmp_path):
        data = load_heart_csv(_write(tmp_path, _rows(3)))
        assert impute_missing(data, "median") is data

    def test_drop_removes_flagged_rows(self, heart_csv):
        data = load_heart_csv(heart_csv)
        dropped = impute_missing(data, "drop")
        # the fixture mirrors the canonical file: 6 rows carry '?', 297 survive
        assert dropped.n_rows == 297
        assert dropped.imputed_cells == ()

    def test_median_keeps_row_count(self, heart_csv):
        data = load_heart_csv(heart_csv)
        assert impute_missing(data, "median").n_rows == 303

    def test_unknown_strategy(self, heart_csv):
        with pytest.raises(ValueError):
            impute_missing(load_heart_csv(heart_csv), "mean")

    def test_entirely_missing_column_unimputable(self, tmp_path):
        text = _rows(2, ca="?")
        with pytest.raises(InputError, match="column 'ca' has no observed values"):
            impute_missing(load_heart_csv(_write(tmp_path, text)), "median")

    @given(
        st.lists(
            st.tuples(
                st.floats(-100, 100).map(lambda x: round(x, 3)),
                st.booleans(),
            ),
            min_size=2,
            max_size=20,
        ).filter(lambda rows: not all(missing for _, missing in rows))
    )
    def test_impute_never_changes_observed_cells(self, rows):
        values = np.full((len(rows), 14), 1.0)
        for i, (val, missing) in enumerate(rows):
            values[i, 4] = np.nan if missing else val
        data = RawDataset(values)
        for strategy in ("median", "mode"):
            filled = impute_missing(data, strategy)
            observed = ~np.isnan(values)
            assert (filled.values[observed] == values[observed]).all()
            assert not np.isnan(filled.values).any()


class TestSplit:
    def test_fixture_split_counts(self, heart_csv):
        data = impute_missing(load_heart_csv(heart_csv), "median")
        features, labels = split_features_target(data)
        assert features.values.shape == (303, 13)
        assert labels.shape == (303,)
        assert int((labels == 0).sum()) == 138
        assert int((labels == 1).sum()) == 165

    def test_one_row_split(self, tmp_path):
        data = load_heart_csv(_write(tmp_path, _rows(1)))
        features, labels = split_features_target(data)
        assert features.values.shape == (1, 13)
        assert labels.tolist() == [1]

    def test_row_order_preserved(self, heart_csv):
        data = impute_missing(load_heart_csv(heart_csv), "median")
        features, labels = split_features_target(data)
        target_idx = HEART_COLUMNS.index("target")
        for i in (0, 150, 302):
            assert labels[i] == data.values[i, target_idx]
            row_without_target = np.delete(data.values[i], target_idx)
            assert (features.values[i] == row_without_target).all()

    def test_not_imputed_rejected(self, heart_csv):
        data = load_heart_csv(heart_csv)
        with pytest.raises(ContractError):
            split_features_target(data)


class TestStandardize:
    def test_two_point_column(self):
        fm = FeatureMatrix(np.array([[1.0], [3.0]]))
        out = standardize(fm)
        assert out.values[:, 0] == pytest.approx([-0.7071067811865475, 0.7071067811865475])

    def test_mean_zero_std_one(self, heart_csv):
        data = impute_missing(load_heart_csv(heart_csv), "median")
        features, _ = split_features_target(data)
        out = standardize(features)
        assert np.abs(out.values.mean(axis=0)).max() < 1e-9
        assert np.abs(out.values.std(axis=0, ddof=1) - 1).max() < 1e-9

    def test_idempotent_within_tolerance(self, heart_csv):
        data = impute_missing(load_heart_csv(heart_csv), "median")
        features, _ = split_features_target(data)
        once = standardize(features)
        twice = standardize(once)
        assert np.abs(twice.values - once.values).max() < 1e-9

    def test_constant_column_maps_to_zero(self):
        fm = FeatureMatrix(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
        out = standardize(fm)
        assert (out.values[:, 0] == 0).all()

    def test_single_row_rejected(self):
        with pytest.raises(InputError, match="standardization needs at least 2 rows"):
            standardize(FeatureMatrix(np.ones((1, 2))))
