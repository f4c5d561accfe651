"""Ingestion of the 14-attribute heart-disease CSV.

File format: UTF-8 (a leading byte-order mark is skipped), comma separated,
``?`` as the only missing-value sentinel, columns in the fixed UCI order of
:data:`HEART_COLUMNS`. One cell rule, :func:`_parse_cell`, holds for every
cell, and a first row in which no cell passes is a header. A plain file (past
its header only digits, ``.+-eE``, spaces, tabs, ``?`` and commas) is converted
by numpy's C reader in one call; any other file, or one the C reader would read
otherwise, is read by :mod:`csv` and the rule row by row, which names its
first bad row or cell. The target column is binarized on load: 0 stays 0 (low
risk), any positive value becomes 1 (high risk).
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
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


def _parse_cell(text: str) -> float | None:
    """The cell rule: stripped, ``?`` is NaN and anything else must be a finite float, else None."""
    text = text.strip()
    if text == MISSING_SENTINEL:
        return math.nan
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


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
            text = handle.read()
        rows = csv.reader(io.StringIO(text, newline=""))
        first = next(rows, [])
        header = bool(first) and all(_parse_cell(cell) is None for cell in first)
        values = _plain_values(text, header)
        rest = [] if values is not None else list(rows)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"{path}: {exc}") from None
    if not text:
        raise InputError(f"{path}: file is empty")
    if header and (names := [cell.strip() for cell in first]) != list(HEART_COLUMNS):
        raise InputError(f"{path}: header {names} does not match expected columns "
                         f"{list(HEART_COLUMNS)}")
    if values is None:
        if header and not rest:
            raise InputError(f"{path}: no data rows after header")
        values = _parsed_rows(path, rest if header else [first, *rest])
    targets = values[:, TARGET]
    if (targets < 0).any():
        bad = int(np.argmax(targets < 0))
        raise InputError(f"{path}: row {bad + 1}, column 'target': negative target value")
    # Collapse the 0..4 diagnosis coding to the low/high dichotomy.
    values[:, TARGET] = targets > 0
    at = np.argwhere(np.isnan(values)).tolist()
    return RawDataset(values, tuple((i, HEART_COLUMNS[j]) for i, j in at))


def _plain_values(text: str, header: bool) -> np.ndarray | None:
    """The rows after the header by numpy's C reader if the file is plain, else None (csv path).

    Plain: rows of digits, ``.+-eE``, spaces, tabs, ``?`` and commas alone, which
    ``csv.reader`` splits where ``str.split`` does and the C reader converts as ``float``
    does; a blank line, another row length, an infinity or a missing target is not. A quoted
    header is csv's to read; a quoted field that spans lines leaves a quote in the body.
    """
    body = text.replace("\r\n", "\n").replace("\r", "\n")  # csv.reader's line ends
    body = (body.partition("\n")[2] if header else body).removesuffix("\n")
    if body.isspace() or not re.fullmatch(r"[0-9.+\-eE \t?,\n]+", body):
        return None
    lines = body.replace("?", " nan").split("\n")  # the space keeps "+?" refused
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
    except ValueError:
        return None
    plain = values.shape == (len(lines), len(HEART_COLUMNS)) and not np.isinf(values).any()
    return values if plain and not np.isnan(values[:, TARGET]).any() else None


def _parsed_rows(path: str | Path, rows: list[list[str]]) -> np.ndarray:
    """The cell rule over csv rows: their values, or an InputError at the first bad row or cell."""
    n_cols, values = len(HEART_COLUMNS), []
    for i, row in enumerate(rows, 1):
        if len(row) != n_cols:
            raise InputError(f"{path}: row {i} has {len(row)} columns, expected {n_cols}")
        for column, cell in zip(HEART_COLUMNS, row):
            values.append(_parse_cell(cell))
            if values[-1] is None:
                raise InputError(f"{path}: row {i}, column {column!r}: cell {cell!r} is not "
                                 f"numeric and not {MISSING_SENTINEL!r}")
        if math.isnan(values[-1]):
            raise InputError(f"{path}: row {i}, column 'target': missing target is not supported")
    return np.array(values, dtype=np.float64).reshape(-1, n_cols)


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
    """``float(np.median(values))``'s bits for NaN-free float64 ``values`` wherever finite, by its
    steps without numpy.ma (one partition at its kth list, then the middle one or two values'
    mean); a middle pair whose sum overflows is halved before adding, so its mean stays finite."""
    half, odd = divmod(values.size, 2)
    middle = np.partition(values, [half - 1, half][odd:] + [-1])[half - 1 + odd:half + 1]
    with np.errstate(over="ignore"):
        mean = middle.mean()
    return float(mean if np.isfinite(mean) else (middle / 2).sum())


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
