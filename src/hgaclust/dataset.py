"""Ingestion of the 14-attribute heart-disease CSV.

File format: comma separated, optional header row (detected by a
non-numeric first row), ``?`` as the only missing-value sentinel, columns
in the fixed UCI order of :data:`HEART_COLUMNS`. The target column is
binarized on load: 0 stays 0 (low risk), any positive value becomes 1
(high risk).

Canonical numeric formatting, used when serializing: integral values are
written without a fractional part (``63``), everything else as the
shortest round-trip decimal (``2.3``). Parsing then serializing a file in
canonical form reproduces it byte for byte.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ContractError,
    InsufficientDataError,
    MalformedInputError,
    SchemaError,
    UnimputableError,
)

HEART_COLUMNS: tuple[str, ...] = (
    "age", "sex", "cp", "trestbps", "chol", "fbs", "restecg",
    "thalach", "exang", "oldpeak", "slope", "ca", "thal", "target",
)

MISSING_SENTINEL = "?"

IMPUTE_STRATEGIES = ("median", "mode", "drop")


@dataclass(frozen=True)
class RawDataset:
    """Parsed rows plus provenance of cells that were missing in the source.

    ``values`` is an (n, 14) float array with NaN marking cells that are
    still missing. ``imputed_cells`` lists (row, column) pairs that were
    missing in the source file; after :func:`impute_missing` those cells
    hold filled values.
    """

    values: np.ndarray
    columns: tuple[str, ...] = HEART_COLUMNS
    imputed_cells: tuple[tuple[int, str], ...] = ()
    had_header: bool = False

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def fully_imputed(self) -> bool:
        return not np.isnan(self.values).any()


@dataclass(frozen=True)
class FeatureMatrix:
    """n x d feature block; means/stds are recorded once standardized."""

    values: np.ndarray
    column_names: tuple[str, ...]
    column_means: np.ndarray | None = None
    column_stds: np.ndarray | None = None

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_columns(self) -> int:
        return self.values.shape[1]

    @property
    def standardized(self) -> bool:
        return self.column_means is not None


def _parse_cell(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def canonical_cell(value: float) -> str:
    """Canonical text for one numeric cell (``?`` for missing)."""
    value = float(value)
    if math.isnan(value):
        return MISSING_SENTINEL
    if value == int(value):
        return str(int(value))
    return repr(value)


def load_heart_csv(path: str | Path, schema: tuple[str, ...] = HEART_COLUMNS) -> RawDataset:
    """Parse a heart-disease CSV into a :class:`RawDataset`.

    Missing cells (``?``) are flagged in ``imputed_cells`` but not filled;
    call :func:`impute_missing` before feature extraction. Raises
    FileNotFoundError, MalformedInputError (naming row and column, or
    the undecodable byte or oversized field) or SchemaError.
    """
    columns = tuple(schema)
    if "target" not in columns:
        raise SchemaError("schema has no 'target' column")
    target_idx = columns.index("target")

    try:
        with open(path, newline="") as handle:
            raw_rows = list(csv.reader(handle))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise MalformedInputError(f"{path}: {exc}") from None
    if not raw_rows:
        raise MalformedInputError(f"{path}: file is empty")

    had_header = _looks_like_header(raw_rows[0])
    if had_header:
        header = tuple(cell.strip() for cell in raw_rows[0])
        if header != columns:
            raise SchemaError(
                f"{path}: header {list(header)} does not match expected columns {list(columns)}"
            )
        raw_rows = raw_rows[1:]
        if not raw_rows:
            raise MalformedInputError(f"{path}: no data rows after header")

    n_cols = len(columns)
    values = np.empty((len(raw_rows), n_cols), dtype=np.float64)
    missing: list[tuple[int, str]] = []
    for i, row in enumerate(raw_rows):
        if len(row) != n_cols:
            raise MalformedInputError(
                f"{path}: row {i + 1} has {len(row)} columns, expected {n_cols}"
            )
        for j, cell in enumerate(row):
            text = cell.strip()
            if text == MISSING_SENTINEL:
                if j == target_idx:
                    raise MalformedInputError(
                        f"{path}: row {i + 1}, column 'target': missing target is not supported"
                    )
                values[i, j] = np.nan
                missing.append((i, columns[j]))
                continue
            try:
                values[i, j] = _parse_cell(text)
            except ValueError:
                raise MalformedInputError(
                    f"{path}: row {i + 1}, column {columns[j]!r}: "
                    f"cell {cell!r} is not numeric and not {MISSING_SENTINEL!r}"
                ) from None

    targets = values[:, target_idx]
    if (targets < 0).any():
        bad = int(np.argmax(targets < 0))
        raise MalformedInputError(
            f"{path}: row {bad + 1}, column 'target': negative target value"
        )
    # Collapse the 0..4 diagnosis coding to the low/high dichotomy.
    values[:, target_idx] = (targets > 0).astype(np.float64)

    return RawDataset(values, columns, tuple(missing), had_header)


def _looks_like_header(row: list[str]) -> bool:
    # Column names never parse as numbers; a row with any numeric cell is data.
    if not row:
        return False
    for cell in row:
        text = cell.strip()
        if text == MISSING_SENTINEL:
            return False
        try:
            _parse_cell(text)
        except ValueError:
            continue
        return False
    return True


def write_heart_csv(data: RawDataset, path: str | Path, header: bool | None = None) -> Path:
    """Serialize with canonical numeric formatting; NaN cells become ``?``."""
    path = Path(path)
    if header is None:
        header = data.had_header
    lines = []
    if header:
        lines.append(",".join(data.columns))
    for row in data.values:
        lines.append(",".join(canonical_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def impute_missing(data: RawDataset, strategy: str = "median") -> RawDataset:
    """Fill (or drop) missing cells.

    ``median``/``mode`` fill per column from the observed values, ``drop``
    removes every row containing a missing cell. Non-missing cells are
    never changed. A column with no observed values raises
    UnimputableError for the filling strategies.
    """
    if strategy not in IMPUTE_STRATEGIES:
        raise ValueError(f"unknown imputation strategy {strategy!r}")
    nan_mask = np.isnan(data.values)
    if not nan_mask.any():
        return data

    if strategy == "drop":
        keep = ~nan_mask.any(axis=1)
        return RawDataset(data.values[keep].copy(), data.columns, (), data.had_header)

    values = data.values.copy()
    for j in np.flatnonzero(nan_mask.any(axis=0)):
        observed = values[~nan_mask[:, j], j]
        if observed.size == 0:
            raise UnimputableError(f"column {data.columns[j]!r} has no observed values")
        if strategy == "median":
            fill = float(np.median(observed))
        else:
            uniq, counts = np.unique(observed, return_counts=True)
            fill = float(uniq[np.argmax(counts)])  # ties: smallest value
        values[nan_mask[:, j], j] = fill

    marks = tuple((int(i), data.columns[j]) for i, j in np.argwhere(nan_mask))
    return RawDataset(values, data.columns, marks, data.had_header)


def split_features_target(data: RawDataset) -> tuple[FeatureMatrix, np.ndarray]:
    """Separate the 13 feature columns from the 0/1 label vector.

    Row order is preserved: label i belongs to feature row i.
    """
    if "target" not in data.columns:
        raise SchemaError("dataset has no 'target' column")
    if not data.fully_imputed:
        raise ContractError("dataset still has missing cells; impute first")
    target_idx = data.columns.index("target")
    labels = data.values[:, target_idx].astype(np.int64)
    if not np.isin(labels, (0, 1)).all():
        raise SchemaError("target labels must be 0 or 1")
    features = np.delete(data.values, target_idx, axis=1)
    names = tuple(c for c in data.columns if c != "target")
    return FeatureMatrix(features, names), labels


def standardize(features: FeatureMatrix) -> FeatureMatrix:
    """Per-column z-score (sample std, ddof=1); constant columns map to zero."""
    if features.n_rows < 2:
        raise InsufficientDataError("standardization needs at least 2 rows")
    means = features.values.mean(axis=0)
    stds = features.values.std(axis=0, ddof=1)
    centered = features.values - means
    scaled = np.where(stds > 0, centered / np.where(stds > 0, stds, 1.0), 0.0)
    return FeatureMatrix(scaled, features.column_names, means, stds)
