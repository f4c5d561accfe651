"""Cluster-to-class alignment, confusion matrix, and the five metrics.

Cluster identities coming out of a clustering run are arbitrary, so the
assignment is first mapped onto the ground-truth classes by whichever of
the two possible mappings maximizes accuracy (ties keep the identity
mapping). The positive class is high risk (label 1).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .errors import ContractError


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def n(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class Metrics:
    """The five percentages, kept at full precision."""

    accuracy: float
    error: float
    recall: float
    precision: float
    f1: float

    def rounded(self) -> dict[str, float]:
        """Two decimal places, half away from zero (display formatting)."""
        return {name: round_percent(value) for name, value in asdict(self).items()}


def round_percent(value: float) -> float:
    return float(Decimal(repr(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def align_clusters_to_labels(assignment: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Relabel clusters by the accuracy-maximizing cluster-to-class mapping."""
    assignment = np.asarray(assignment)
    labels = np.asarray(labels)
    if assignment.shape != labels.shape:
        raise ContractError(
            f"assignment length {assignment.size} != label length {labels.size}"
        )
    matches = int((assignment == labels).sum())
    if 2 * matches < labels.size:  # the flipped mapping agrees more often
        return (1 - assignment).astype(assignment.dtype)
    return assignment.copy()


def confusion_matrix(mapped: np.ndarray, labels: np.ndarray) -> ConfusionMatrix:
    """Counts with high risk (1) as the positive class."""
    mapped = np.asarray(mapped).astype(bool)
    labels = np.asarray(labels).astype(bool)
    if mapped.shape != labels.shape:
        raise ContractError("assignment and labels must have equal length")
    return ConfusionMatrix(
        tp=int((mapped & labels).sum()),
        tn=int((~mapped & ~labels).sum()),
        fp=int((mapped & ~labels).sum()),
        fn=int((~mapped & labels).sum()),
    )


def metrics(cm: ConfusionMatrix) -> Metrics:
    """Accuracy, error, recall, precision, F1 as percentages.

    Recall, precision and F1 are defined as 0 when their denominator is 0.
    """
    n = cm.n
    if n <= 0:
        raise ContractError("confusion matrix is empty")
    accuracy = (cm.tp + cm.tn) / n * 100.0
    error = (cm.fp + cm.fn) / n * 100.0
    recall = cm.tp / (cm.tp + cm.fn) * 100.0 if cm.tp + cm.fn else 0.0
    precision = cm.tp / (cm.tp + cm.fp) * 100.0 if cm.tp + cm.fp else 0.0
    f1 = 2.0 * recall * precision / (recall + precision) if recall + precision else 0.0
    return Metrics(accuracy, error, recall, precision, f1)
