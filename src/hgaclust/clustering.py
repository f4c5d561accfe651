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

Centroid and fitness sums are correctly rounded, with the same bits as
math.fsum, so fitness values do not depend on evaluation order and can be
compared exactly against an independently coded oracle. Arrays of at least
SUM_CROSSOVER values are summed by error-free extraction instead of fsum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .pca import ProjectedDataset

KMEANS_MAX_ITER = 100
SUM_CROSSOVER = 1024  # values per sum from which extraction beats fsum over a list
EXTRACTION_PASSES = 4  # real data needs 2; what is left after these goes to fsum


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


def _cluster_sums(values: np.ndarray, mask: np.ndarray) -> tuple[float, float]:
    """``math.fsum`` of ``values[~mask]`` and of ``values[mask]``, bit for bit.

    From SUM_CROSSOVER values on, each pass splits the remainder ``r`` exactly
    into ``q = (r + sigma) - sigma`` and ``r - q`` (Rump, Ogita and Oishi 2008).
    With ``sigma`` a power of two above (n + 1) * max|r|, every partial sum of
    ``q`` fits in 53 bits on one grid below sigma, so bincount sums it exactly
    in any order; fsum rounds those partials plus any remainder left.
    """
    if values.size < SUM_CROSSOVER:
        return math.fsum(values[~mask].tolist()), math.fsum(values[mask].tolist())
    parts: tuple[list[float], list[float]] = ([], [])
    r = values
    for _ in range(EXTRACTION_PASSES):
        top = max(float(r.max(initial=0.0)), -float(r.min(initial=0.0)))
        if top == 0.0:
            return math.fsum(parts[0]), math.fsum(parts[1])
        scale = math.frexp(top)[1] + (values.size + 1).bit_length()
        if not math.isfinite(top) or scale > 1023:
            break
        sigma = math.ldexp(1.0, scale)
        q = r + sigma
        q -= sigma
        r = r - q
        for part, total in zip(parts, np.bincount(mask, weights=q, minlength=2).tolist()):
            part.append(total)
    left = r != 0  # the passes ran out, or sigma would not be finite
    low, high = (math.fsum(p + r[left & m].tolist()) for p, m in zip(parts, (~mask, mask)))
    return low, high


def _centroids(xy: np.ndarray, mask: np.ndarray) -> list[tuple[float, float] | None]:
    """Mean of cluster 0 (``~mask``) and of cluster 1 (``mask``); None if empty."""
    high = int(np.count_nonzero(mask))
    sums = zip(_cluster_sums(xy[:, 0], mask), _cluster_sums(xy[:, 1], mask))
    return [(x / k, y / k) if k else None for (x, y), k in zip(sums, (mask.size - high, high))]


def _distances(xy: np.ndarray, centroid: tuple[float, float]) -> np.ndarray:
    """Euclidean distance of every point to one centroid, in place on two temporaries."""
    dx, dy = xy[:, 0] - centroid[0], xy[:, 1] - centroid[1]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


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
    low, high = _centroids(xy, mask)
    if low is None or high is None:
        return FitnessBreakdown(math.inf, low, high, None, None)
    d_low, d_high = _distances(xy, low), _distances(xy, high)
    low_total, high_total = _cluster_sums(np.where(mask, d_high, d_low), mask)
    return FitnessBreakdown(low_total + high_total, low, high, d_low, d_high)


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
        for j, centroid in enumerate(_centroids(xy, genes == 1)):
            if centroid is not None:
                centroids[j] = centroid
    return Assignment(genes, len(distance_trace), objective_trace, distance_trace)
