"""Assignment chromosomes, the two-cluster fitness, and seeded 2-means.

A chromosome assigns each projected point to cluster 0 (low risk) or 1
(high risk). Its fitness is the sum over both clusters of plain
(unsquared) Euclidean distances from members to their cluster mean;
lower is better. A chromosome that leaves either cluster empty gets
fitness +inf so it loses every replacement comparison.

The two-cluster geometry is written once: :func:`chromosome_fitness`
returns every point's distance to both centroids, and :func:`nearest`
turns two such arrays into one reassignment pass. The GA's improvement
step runs it once on its own evaluation's distances; the k-means baseline
repeats it until no point moves. Evaluating a chromosome does not modify it.

All sums use math.fsum, which is correctly rounded, so fitness values are
bit-identical regardless of evaluation order and can be compared exactly
against an independently coded oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .pca import ProjectedDataset

KMEANS_MAX_ITER = 100


@dataclass(eq=False)
class Chromosome:
    """Length-n bit vector (0 = low-risk, 1 = high-risk cluster); equal only to itself."""

    genes: np.ndarray
    cached_fitness: float | None = None

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


@dataclass(frozen=True, eq=False)
class FitnessBreakdown:
    """Total fitness, both centroids and all distances to each; None for an empty cluster."""

    total: float
    low_centroid: tuple[float, float] | None
    high_centroid: tuple[float, float] | None
    d_low: np.ndarray | None
    d_high: np.ndarray | None


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


def chromosome_fitness(
    points: ProjectedDataset | np.ndarray, chrom: Chromosome
) -> FitnessBreakdown:
    """Both centroids, every point's distance to each, and their total.

    The total sums each point's distance to its own cluster's centroid;
    it is +inf if either cluster is empty. The chromosome is not modified.
    """
    xy = as_points(points)
    if chrom.genes.size != xy.shape[0]:
        raise ContractError(
            f"chromosome length {chrom.genes.size} != point count {xy.shape[0]}"
        )
    mask = chrom.genes == 1
    low, high = (_centroid(m) if m.shape[0] else None for m in (xy[~mask], xy[mask]))
    if low is None or high is None:
        return FitnessBreakdown(math.inf, low, high, None, None)
    d_low, d_high = _distances(xy, low), _distances(xy, high)
    total = math.fsum(d_low[~mask].tolist()) + math.fsum(d_high[mask].tolist())
    return FitnessBreakdown(total, low, high, d_low, d_high)


def nearest(d_low: np.ndarray, d_high: np.ndarray, genes: np.ndarray) -> np.ndarray:
    """One reassignment pass: each point takes its strictly nearer centroid, a tie its gene."""
    return np.where(
        d_high < d_low, np.uint8(1), np.where(d_low < d_high, np.uint8(0), genes)
    )


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
    """Seeded 2-means: :func:`nearest` repeated until no point moves.

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
        d_low, d_high = _distances(xy, centroids[0]), _distances(xy, centroids[1])
        new_genes = nearest(d_low, d_high, genes)
        if distance_trace and np.array_equal(new_genes, genes):
            break
        genes = new_genes
        assigned = np.minimum(d_low, d_high)
        objective_trace.append(math.fsum((assigned * assigned).tolist()))
        distance_trace.append(math.fsum(assigned.tolist()))
        for j in (0, 1):
            members = xy[genes == j]
            if members.shape[0]:
                centroids[j] = _centroid(members)
    return Assignment(genes, len(distance_trace), objective_trace, distance_trace)
