"""Assignment chromosomes, the two-cluster fitness, and seeded 2-means.

A chromosome assigns each projected point to cluster 0 (low risk) or 1
(high risk). Its fitness is the sum over both clusters of plain
(unsquared) Euclidean distances from members to their cluster mean;
lower is better. A chromosome that leaves either cluster empty gets
fitness +inf so it loses every replacement comparison.

The two-cluster geometry (centroid, distances, one nearest-centroid
reassignment pass) is written once: the GA's improvement step is one
pass, and the k-means baseline is that pass repeated until no point moves.

All sums use math.fsum, which is correctly rounded, so fitness values are
bit-identical regardless of evaluation order and can be compared exactly
against an independently coded oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .pca import ProjectedDataset

KMEANS_MAX_ITER = 100


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

    def genes_string(self) -> str:
        """Serialized form used in reports, e.g. '01101'."""
        return "".join("1" if g else "0" for g in self.genes)


@dataclass(frozen=True)
class FitnessBreakdown:
    """Total fitness and both centroids; a None centroid marks an empty cluster."""

    total: float
    low_centroid: tuple[float, float] | None
    high_centroid: tuple[float, float] | None


def as_points(points: ProjectedDataset | np.ndarray) -> np.ndarray:
    if isinstance(points, ProjectedDataset):
        return points.points
    return np.asarray(points, dtype=np.float64)


def _centroid(xy: np.ndarray) -> tuple[float, float]:
    """Mean of a non-empty cluster, each axis summed with fsum."""
    k = xy.shape[0]
    return math.fsum(xy[:, 0].tolist()) / k, math.fsum(xy[:, 1].tolist()) / k


def _distances(xy: np.ndarray, centroid: tuple[float, float]) -> np.ndarray:
    """Euclidean distance of every point to one centroid."""
    dx = xy[:, 0] - centroid[0]
    dy = xy[:, 1] - centroid[1]
    return np.sqrt(dx * dx + dy * dy)


def _cluster_stats(xy: np.ndarray) -> tuple[tuple[float, float] | None, float]:
    """(centroid, sum of member-to-centroid distances) for one cluster."""
    if xy.shape[0] == 0:
        return None, 0.0
    centroid = _centroid(xy)
    return centroid, math.fsum(_distances(xy, centroid).tolist())


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
    return FitnessBreakdown(total, low_centroid, high_centroid)


def reassign_nearest(
    xy: np.ndarray, low: tuple[float, float], high: tuple[float, float], genes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One nearest-centroid pass over fixed low and high centroids.

    A point moves only to a strictly nearer centroid, so a tie keeps its
    current gene. Returns the new genes and each point's distance to its
    new centroid.
    """
    d_low = _distances(xy, low)
    d_high = _distances(xy, high)
    new_genes = np.where(
        d_high < d_low, np.uint8(1), np.where(d_low < d_high, np.uint8(0), genes)
    )
    return new_genes, np.minimum(d_low, d_high)


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


def kmeans(points: ProjectedDataset | np.ndarray, seed: int) -> Assignment:
    """Seeded 2-means: :func:`reassign_nearest` repeated until no point moves.

    The starting centroids are two distinct data points drawn with
    ``default_rng(seed)``. The first pass starts from all-zero genes, so
    a point equidistant from both starts joins cluster 0, and it always
    counts as an iteration. A cluster left empty keeps its centroid.
    """
    xy = as_points(points)
    n = xy.shape[0]
    if n < 2:
        raise ContractError(f"2 clusters infeasible for {n} points")
    centroids = xy[np.random.default_rng(seed).choice(n, size=2, replace=False)].tolist()
    genes = np.zeros(n, dtype=np.uint8)
    objective_trace: list[float] = []
    distance_trace: list[float] = []
    for _ in range(KMEANS_MAX_ITER):
        new_genes, assigned = reassign_nearest(xy, centroids[0], centroids[1], genes)
        if distance_trace and np.array_equal(new_genes, genes):
            break
        genes = new_genes
        objective_trace.append(math.fsum((assigned * assigned).tolist()))
        distance_trace.append(math.fsum(assigned.tolist()))
        for j in (0, 1):
            members = xy[genes == j]
            if members.shape[0]:
                centroids[j] = _centroid(members)
    return Assignment(genes, len(distance_trace), objective_trace, distance_trace)
