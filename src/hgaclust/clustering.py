"""Assignment chromosomes, the two-cluster fitness, and plain k-means.

A chromosome assigns each projected point to cluster 0 (low risk) or 1
(high risk). Its fitness is the sum over both clusters of plain
(unsquared) Euclidean distances from members to their cluster mean;
lower is better. A chromosome that leaves either cluster empty gets
fitness +inf so it loses every replacement comparison.

All sums use math.fsum, which is correctly rounded, so fitness values are
bit-identical regardless of evaluation order and can be compared exactly
against an independently coded oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, InfeasibleError
from .pca import ProjectedDataset


@dataclass
class Chromosome:
    """Length-n bit vector (0 = low-risk cluster, 1 = high-risk cluster)."""

    genes: np.ndarray
    cached_fitness: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        genes = np.asarray(self.genes, dtype=np.uint8)
        if genes.ndim != 1:
            raise ContractError("genes must be a 1-D vector")
        if genes.size and genes.max() > 1:
            raise ContractError("genes must be 0 or 1")
        self.genes = genes

    def __len__(self) -> int:
        return self.genes.size

    def copy(self) -> "Chromosome":
        return Chromosome(self.genes.copy(), self.cached_fitness)

    def genes_string(self) -> str:
        """Serialized form used in reports, e.g. '01101'."""
        return "".join("1" if g else "0" for g in self.genes)


@dataclass(frozen=True)
class FitnessBreakdown:
    """Per-cluster fitness terms; a None centroid marks an empty cluster."""

    low_fitness: float
    high_fitness: float
    total: float
    low_centroid: tuple[float, float] | None
    high_centroid: tuple[float, float] | None


def as_points(points: ProjectedDataset | np.ndarray) -> np.ndarray:
    if isinstance(points, ProjectedDataset):
        return points.points
    return np.asarray(points, dtype=np.float64)


def _cluster_stats(xy: np.ndarray) -> tuple[tuple[float, float] | None, float]:
    """(centroid, sum of member-to-centroid distances) for one cluster."""
    k = xy.shape[0]
    if k == 0:
        return None, 0.0
    cx = math.fsum(xy[:, 0].tolist()) / k
    cy = math.fsum(xy[:, 1].tolist()) / k
    if k == 1:
        return (cx, cy), 0.0
    dx = xy[:, 0] - cx
    dy = xy[:, 1] - cy
    return (cx, cy), math.fsum(np.sqrt(dx * dx + dy * dy).tolist())


def chromosome_fitness(
    points: ProjectedDataset | np.ndarray, chrom: Chromosome
) -> FitnessBreakdown:
    """Total fitness = low term + high term; +inf if either cluster is empty.

    The total is cached on the chromosome.
    """
    xy = as_points(points)
    if chrom.genes.size != xy.shape[0]:
        raise ContractError(
            f"chromosome length {chrom.genes.size} != point count {xy.shape[0]}"
        )
    mask = chrom.genes == 1
    low_centroid, low_fit = _cluster_stats(xy[~mask])
    high_centroid, high_fit = _cluster_stats(xy[mask])
    if low_centroid is None or high_centroid is None:
        total = math.inf
    else:
        total = low_fit + high_fit
    chrom.cached_fitness = total
    return FitnessBreakdown(low_fit, high_fit, total, low_centroid, high_centroid)


@dataclass
class Assignment:
    """k-means result.

    ``objective_trace`` is the per-iteration sum of squared assigned
    distances (the quantity Lloyd iterations monotonically decrease);
    ``distance_trace`` records the unsquared sum alongside, which is the
    same objective the chromosome fitness uses.
    """

    genes: np.ndarray
    iterations: int
    objective_trace: list[float]
    distance_trace: list[float]


def kmeans(
    points: ProjectedDataset | np.ndarray,
    k: int = 2,
    init: int | np.random.Generator | np.ndarray | None = None,
    max_iter: int = 100,
    tol: float = 0.0,
) -> Assignment:
    """Lloyd iterations until assignments stabilize.

    ``init`` is a seed/Generator (k distinct data points are drawn as the
    starting centroids) or an explicit (k, 2) centroid array. Ties in the
    nearest-centroid step keep the current assignment when it is among the
    tied minima, otherwise take the lowest cluster index. A cluster left
    empty keeps its previous centroid. ``tol > 0`` additionally stops when
    the squared objective improves by less than tol.
    """
    xy = as_points(points)
    n = xy.shape[0]
    if k < 1 or k > n:
        raise InfeasibleError(f"k={k} clusters infeasible for {n} points")
    if max_iter < 1:
        raise ContractError("max_iter must be at least 1")

    if isinstance(init, np.ndarray):
        centroids = init.astype(np.float64).copy()
        if centroids.shape != (k, 2):
            raise ContractError(f"expected {k} x 2 initial centroids, got {init.shape}")
    else:
        rng = init if isinstance(init, np.random.Generator) else np.random.default_rng(init)
        centroids = xy[rng.choice(n, size=k, replace=False)].copy()

    assign: np.ndarray | None = None
    objective_trace: list[float] = []
    distance_trace: list[float] = []
    iterations = 0
    while iterations < max_iter:
        diffs = xy[:, None, :] - centroids[None, :, :]
        dists = np.sqrt((diffs * diffs).sum(axis=2))
        best = dists.min(axis=1)
        new_assign = dists.argmin(axis=1)
        if assign is not None:
            keep = dists[np.arange(n), assign] == best
            new_assign = np.where(keep, assign, new_assign)
            if np.array_equal(new_assign, assign):
                break
        assign = new_assign
        assigned = dists[np.arange(n), assign]
        objective_trace.append(math.fsum((assigned * assigned).tolist()))
        distance_trace.append(math.fsum(assigned.tolist()))
        for j in range(k):
            members = xy[assign == j]
            if members.shape[0]:
                centroids[j, 0] = math.fsum(members[:, 0].tolist()) / members.shape[0]
                centroids[j, 1] = math.fsum(members[:, 1].tolist()) / members.shape[0]
        iterations += 1
        if tol > 0 and len(objective_trace) >= 2 and objective_trace[-2] - objective_trace[-1] < tol:
            break

    assert assign is not None
    dtype = np.uint8 if k <= 256 else np.int64
    return Assignment(assign.astype(dtype), iterations, objective_trace, distance_trace)
