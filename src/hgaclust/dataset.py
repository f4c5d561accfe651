"""Ingestion of the 14-attribute heart-disease CSV.

File format: UTF-8 (a leading byte-order mark is skipped), comma separated,
``?`` as the only missing-value sentinel, columns in the fixed UCI order of
:data:`HEART_COLUMNS`. One cell rule, :func:`_parse_cell`, holds for every
cell: one bulk pass applies it, a file that fails is scanned only to name its
first bad row or cell, and a first row in which no cell passes is a header. The
target column is binarized on load: 0 stays 0 (low risk), any positive value
becomes 1 (high risk).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import chain, tee
from pathlib import Path

import numpy as np

from .errors import ContractError, InputError

HEART_COLUMNS: tuple[str, ...] = (
    "age", "sex", "cp", "trestbps", "chol", "fbs", "restecg",
    "thalach", "exang", "oldpeak", "slope", "ca", "thal", "target",
)
TARGET = HEART_COLUMNS.index("target")

MISSING_SENTINEL = "?"

IMPUTE_STRATEGIES = ("median", "mode", "drop")


@dataclass(frozen=True)
class RawDataset:
    """Parsed rows plus provenance of cells that were missing in the source.

    ``values`` is an (n, 14) float array in :data:`HEART_COLUMNS` order,
    with NaN marking cells that are still missing. ``imputed_cells`` lists
    (row, column name) pairs that were missing in the source file; after
    :func:`impute_missing` those cells hold filled values.
    """

    values: np.ndarray
    imputed_cells: tuple[tuple[int, str], ...] = ()

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class FeatureMatrix:
    """n x d feature block: the heart columns without the target."""

    values: np.ndarray

    @property
    def n_columns(self) -> int:
        return self.values.shape[1]


def _parse_cell(text: str) -> float:
    """The cell rule: stripped, ``?`` is NaN and anything else must be a finite float."""
    text = text.strip()
    if text == MISSING_SENTINEL:
        return math.nan
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def load_heart_csv(path: str | Path) -> RawDataset:
    """Parse a heart-disease CSV into a :class:`RawDataset`.

    Missing cells (``?``) are flagged in ``imputed_cells`` but not filled;
    call :func:`impute_missing` before feature extraction. Raises
    FileNotFoundError, or InputError naming the row and column, the
    undecodable byte or oversized field, or a header other than
    :data:`HEART_COLUMNS`.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            raw_rows = list(csv.reader(handle))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"{path}: {exc}") from None
    if not raw_rows:
        raise InputError(f"{path}: file is empty")

    if _looks_like_header(raw_rows[0]):
        header = tuple(cell.strip() for cell in raw_rows[0])
        if header != HEART_COLUMNS:
            raise InputError(
                f"{path}: header {list(header)} does not match expected columns "
                f"{list(HEART_COLUMNS)}"
            )
        raw_rows = raw_rows[1:]
        if not raw_rows:
            raise InputError(f"{path}: no data rows after header")

    n_cols = len(HEART_COLUMNS)
    texts = map(str.strip, chain.from_iterable(raw_rows))
    texts = map({MISSING_SENTINEL: "nan"}.get, *tee(texts))  # get(text, text)
    try:  # _parse_cell's rule over every cell at once
        flat = np.fromiter(map(float, texts), np.float64, len(raw_rows) * n_cols)
    except ValueError:
        raise _first_error(path, raw_rows) from None
    at = [divmod(k, n_cols) for k in np.flatnonzero(np.isnan(flat)).tolist()]
    if set(map(len, raw_rows)) != {n_cols} or np.isinf(flat).any() or any(
        j == TARGET or raw_rows[i][j].strip() != MISSING_SENTINEL for i, j in at
    ):
        raise _first_error(path, raw_rows)
    values = flat.reshape(-1, n_cols)
    targets = values[:, TARGET]
    if (targets < 0).any():
        bad = int(np.argmax(targets < 0))
        raise InputError(f"{path}: row {bad + 1}, column 'target': negative target value")
    # Collapse the 0..4 diagnosis coding to the low/high dichotomy.
    values[:, TARGET] = (targets > 0).astype(np.float64)

    return RawDataset(values, tuple((i, HEART_COLUMNS[j]) for i, j in at))


def _first_error(path: str | Path, raw_rows: list[list[str]]) -> Exception:
    """The InputError naming a refused file's first bad row or cell; a ContractError if none."""
    n_cols = len(HEART_COLUMNS)
    for i, row in enumerate(raw_rows, 1):
        if len(row) != n_cols:
            return InputError(f"{path}: row {i} has {len(row)} columns, expected {n_cols}")
        for column, cell in zip(HEART_COLUMNS, row):
            try:
                if not (math.isnan(_parse_cell(cell)) and column == "target"):
                    continue
                problem = "missing target is not supported"
            except ValueError:
                problem = f"cell {cell!r} is not numeric and not {MISSING_SENTINEL!r}"
            return InputError(f"{path}: row {i}, column {column!r}: {problem}")
    return ContractError(f"{path}: the bulk parse refused a file whose every cell parses")


def _looks_like_header(row: list[str]) -> bool:
    # Column names never parse as cells; a row with any numeric or missing cell is data.
    for cell in row:
        try:
            _parse_cell(cell)
        except ValueError:
            continue
        return False
    return bool(row)


def impute_missing(data: RawDataset, strategy: str = "median") -> RawDataset:
    """Fill (or drop) missing cells.

    ``median``/``mode`` fill per column from the observed values, ``drop``
    removes every row containing a missing cell. Non-missing cells are
    never changed. A column with no observed values raises
    InputError for the filling strategies.
    """
    if strategy not in IMPUTE_STRATEGIES:
        raise ValueError(f"unknown imputation strategy {strategy!r}")
    nan_mask = np.isnan(data.values)
    if not nan_mask.any():
        return data

    if strategy == "drop":
        keep = ~nan_mask.any(axis=1)
        return RawDataset(data.values[keep].copy())

    values = data.values.copy()
    for j in np.flatnonzero(nan_mask.any(axis=0)):
        observed = values[~nan_mask[:, j], j]
        if observed.size == 0:
            raise InputError(f"column {HEART_COLUMNS[j]!r} has no observed values")
        if strategy == "median":
            fill = median(observed)
        else:
            uniq, counts = np.unique(observed, return_counts=True)
            fill = float(uniq[np.argmax(counts)])  # ties: smallest value
        values[nan_mask[:, j], j] = fill

    marks = tuple((int(i), HEART_COLUMNS[j]) for i, j in np.argwhere(nan_mask))
    return RawDataset(values, marks)


def median(values: np.ndarray) -> float:
    """``float(np.median(values))``'s bits for NaN-free float64 ``values`` by its own steps (one
    partition at its kth list, then the middle one or two values' mean), without numpy.ma."""
    half, odd = divmod(values.size, 2)
    middle = np.partition(values, [half - 1, half][odd:] + [-1])[half - 1 + odd:half + 1]
    return float(middle.mean())


def split_features_target(data: RawDataset) -> tuple[FeatureMatrix, np.ndarray]:
    """Separate the 13 feature columns from the 0/1 label vector.

    Row order is preserved: label i belongs to feature row i.
    """
    if np.isnan(data.values).any():
        raise ContractError("dataset still has missing cells; impute first")
    labels = data.values[:, TARGET].astype(np.int64)
    if not np.isin(labels, (0, 1)).all():
        raise InputError("target labels must be 0 or 1")
    return FeatureMatrix(np.delete(data.values, TARGET, axis=1)), labels


def standardize(features: FeatureMatrix) -> FeatureMatrix:
    """Per-column z-score (sample std, ddof=1); constant columns map to zero.

    Values whose mean or standard deviation overflows float64 raise
    InputError instead of turning into infinities or silent zeros.
    """
    x = features.values
    if x.shape[0] < 2:
        raise InputError("standardization needs at least 2 rows")
    with np.errstate(over="ignore", invalid="ignore"):
        means = x.mean(axis=0)
        stds = x.std(axis=0, ddof=1)
    if not (np.isfinite(means).all() and np.isfinite(stds).all()):
        raise InputError("feature values overflow float64: non-finite column mean or std")
    centered = x - means
    scaled = np.where(stds > 0, centered / np.where(stds > 0, stds, 1.0), 0.0)
    return FeatureMatrix(scaled)
