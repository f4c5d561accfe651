"""Principal components of the feature matrix and 2-D projection.

The eigensolver contract is the residual ||C v - lambda v|| <= 1e-8, not a
named algorithm; numpy's symmetric solver satisfies it. Eigenvector signs
are canonicalized so projections are deterministic across solvers: the
entry of largest magnitude in each vector is made positive, ties resolved
toward the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import FeatureMatrix
from .errors import ContractError, DimensionError, InputError, InsufficientDataError

SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class EigenPairs:
    """Eigenvalues in non-increasing order; unit eigenvectors as columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class ProjectedDataset:
    """Per-point coordinates in the top principal components."""

    points: np.ndarray
    explained_variance_ratio: tuple[float, ...]

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def _values(features: FeatureMatrix | np.ndarray) -> np.ndarray:
    if isinstance(features, FeatureMatrix):
        return features.values
    return np.asarray(features, dtype=np.float64)


def covariance_matrix(features: FeatureMatrix | np.ndarray) -> np.ndarray:
    """Sample covariance (divisor n - 1), exactly symmetric.

    Values whose covariance overflows float64 raise InputError.
    """
    x = _values(features)
    n = x.shape[0]
    if n < 2:
        raise InsufficientDataError("covariance needs at least 2 rows")
    with np.errstate(over="ignore", invalid="ignore"):
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / (n - 1)
    if not np.isfinite(cov).all():
        raise InputError("feature values overflow float64: non-finite covariance")
    return (cov + cov.T) / 2.0


def symmetric_eigendecomposition(cov: np.ndarray) -> EigenPairs:
    """Eigenpairs of a symmetric matrix, sorted by descending eigenvalue."""
    cov = np.asarray(cov, dtype=np.float64)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ContractError(f"expected a square matrix, got shape {cov.shape}")
    asym = np.abs(cov - cov.T).max() if cov.size else 0.0
    if not asym <= SYMMETRY_TOL:
        raise ContractError(f"matrix is not symmetric (max asymmetry {asym:g})")

    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    eigenvalues = eigenvalues[::-1].copy()
    eigenvectors = eigenvectors[:, ::-1].copy()
    for j in range(eigenvectors.shape[1]):
        pivot = np.argmax(np.abs(eigenvectors[:, j]))  # first index on ties
        if eigenvectors[pivot, j] < 0:
            eigenvectors[:, j] = -eigenvectors[:, j]
    return EigenPairs(eigenvalues, eigenvectors)


def project(
    features: FeatureMatrix | np.ndarray, eig: EigenPairs, k: int = 2
) -> ProjectedDataset:
    """Project centered rows onto the top-k eigenvectors.

    The explained-variance ratio of each kept component is its eigenvalue
    over the covariance trace (negative round-off eigenvalues count as 0).
    """
    x = _values(features)
    d = eig.eigenvectors.shape[1]
    if k > d:
        raise DimensionError(f"k={k} exceeds the {d} available components")
    centered = x - x.mean(axis=0)
    points = centered @ eig.eigenvectors[:, :k]
    trace = float(eig.eigenvalues.sum())
    if trace > 0:
        ratios = tuple(max(float(v), 0.0) / trace for v in eig.eigenvalues[:k])
    else:
        ratios = tuple(0.0 for _ in range(k))
    return ProjectedDataset(points, ratios)


def write_projection_csv(
    path: str | Path, projected: ProjectedDataset, labels: np.ndarray
) -> Path:
    """Plot-ready CSV of (pc1, pc2, target) rows."""
    path = Path(path)
    lines = ["pc1,pc2,target"]
    for (x, y), label in zip(projected.points[:, :2].tolist(), labels):
        lines.append(f"{x!r},{y!r},{int(label)}")
    path.write_text("\n".join(lines) + "\n")
    return path
