import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestImpute:
    def test_median_fill(self, tmp_path):
        text = (
            _rows(1, ca="1") + _rows(1, ca="2") + _rows(1, ca="?") + _rows(1, ca="4")
        )
        data = impute_missing(load_heart_csv(_write(tmp_path, text)), "median")
        # median of {1, 2, 4} is 2
        assert data.values[2, 11] == 2.0
        assert data.imputed_cells == ((2, "ca"),)

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
