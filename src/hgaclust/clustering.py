"""Assignment chromosomes, the two-cluster fitness, and seeded 2-means.

A chromosome assigns each projected point to cluster 0 (low risk) or 1
(high risk). Its fitness is the sum over both clusters of plain
(unsquared) Euclidean distances from members to their cluster mean;
lower is better. A chromosome that leaves either cluster empty gets
fitness +inf so it loses every replacement comparison.

The two-cluster geometry is written once, for a (B, n) block of gene rows:
:func:`fitness_block` measures every point against both centroids of every row in
one (B, 2, n) pass (:func:`chromosome_fitness` is its one-row case), and
:func:`nearest` turns two distance rows into one branch-free reassignment pass. The
GA's improvement step runs it once on its own evaluation's distances; k-means
repeats it until no point moves. Evaluating a chromosome does not modify it.

Sums are correctly rounded, with math.fsum's bits, so fitness values and the k-means
traces do not depend on evaluation order or block size and match an independently coded
oracle exactly. The points are split into exact pieces once per run (:class:`SplitPoints`),
so a block's centroid partials are one product, exact in any order; a total is summed on
first read, by the same extraction from SUM_CROSSOVER values on and by fsum below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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

    def __post_init__(self) -> None:
        genes = np.asarray(self.genes)
        if genes.ndim != 1:
            raise ContractError("genes must be a 1-D vector")
        if not ((genes == 0) | (genes == 1)).all():  # before the cast, which would wrap 256 to 0
            raise ContractError("genes must be 0 or 1")
        self.genes = genes.astype(np.uint8, copy=False)

    def __len__(self) -> int:
        return self.genes.size

    def genes_string(self) -> str:
        """Serialized form used in reports, e.g. '01101'."""
        return "".join("1" if g else "0" for g in self.genes)


@dataclass(frozen=True, eq=False)
class FitnessBreakdown:
    """Each point's (2, n) distances to both centroids and to its ``own``; None if one is empty.
    ``total`` is summed on first read and kept, so read it before ``genes`` change."""

    distances: np.ndarray | None
    own: np.ndarray | None
    genes: np.ndarray

    @cached_property
    def total(self) -> float:
        if self.own is None:
            return math.inf
        low, high = _cluster_sums(self.own, self.genes.view(np.bool_))
        return low + high

    def total_at_least(self, value: float) -> bool:
        """True if ``value <= total`` is certain from a plain float sum; False if undecided.

        A float sum of n non-negative terms is within (n-1)u/(1-(n-1)u) of their exact sum
        S (Higham, *Accuracy and Stability*, section 4.2; u = 2**-53), and ``total`` is at
        least S(1-u)**2: a margin of (n + 8) * 2**-52 covers both away from the extremes."""
        naive = float(self.own.sum())
        margin = 1 - (self.own.size + 8) * 2.0**-52
        return 2.0**-1000 < naive < 2.0**1000 and value <= naive * margin


def _extract(values: np.ndarray) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Rows ``q`` and a remainder ``r`` that add up to ``values`` exactly; ``r`` None if zero.

    Each pass splits ``r`` into ``q = (r + sigma) - sigma`` and ``r - q`` (Rump, Ogita
    and Oishi 2008). With ``sigma`` a power of two above (n + 1) * max|r|, every partial
    sum of a row is exact, in any order. A non-finite value or a sigma past 2**1023
    stops the first pass, so fsum sees ``values`` and overflows or gives NaN as over them.
    """
    rows, r = [], values
    for _ in range(EXTRACTION_PASSES + 1):  # the last looks at the final remainder only
        top = max(float(r.max(initial=0.0)), -float(r.min(initial=0.0)))
        scale = math.frexp(top)[1] + (values.size + 1).bit_length()
        if top == 0.0 or len(rows) == EXTRACTION_PASSES or not math.isfinite(top) or scale > 1023:
            break
        q = r + math.ldexp(1.0, scale)
        q -= math.ldexp(1.0, scale)
        r = r - q
        rows.append(q)
    return rows, None if top == 0.0 else r


def _side_sums(low: list, high: list, rest: np.ndarray | None, genes: np.ndarray):
    """fsum of each cluster's exact partials plus its entries of the remainder ``rest``."""
    if rest is None:
        return math.fsum(low), math.fsum(high)
    return math.fsum(low + rest[genes == 0].tolist()), math.fsum(high + rest[genes == 1].tolist())


class SplitPoints:
    """Points held once as a (2, n) ``coords`` array, each axis split by :func:`_extract`.

    ``pieces`` stacks x's ``rows[0]`` rows, y's rows and a row of ones: ``genes @
    pieces.T`` holds each gene row's high-cluster exact partials and size, ``totals``
    minus it the low cluster's. ``rest`` is each axis's remainder, None if zero (the usual case).
    """

    def __init__(self, xy: np.ndarray) -> None:
        (x_rows, x_rest), (y_rows, y_rest) = _extract(xy[:, 0]), _extract(xy[:, 1])
        self.coords, self.rows = np.ascontiguousarray(xy.T), (len(x_rows), len(y_rows))
        self.pieces = np.array([*x_rows, *y_rows, np.ones(xy.shape[0])])
        self.totals = self.pieces.sum(axis=1)
        self.rest = [x_rest, y_rest]

    def centroids(self, genes: np.ndarray) -> list:
        """Mean of cluster 0 and of cluster 1 under ``genes``, None if empty; for a (B, n)
        block, one such pair per row, all rows' exact partials from one product."""
        block = np.atleast_2d(genes)
        high, k, means = block @ self.pieces.T, self.rows[0], []
        for low, high, row in zip((self.totals - high).tolist(), high.tolist(), block):
            x = _side_sums(low[:k], high[:k], self.rest[0], row)
            y = _side_sums(low[k:-1], high[k:-1], self.rest[1], row)
            counts = (low[-1], high[-1])
            means.append([(sx / n, sy / n) if n else None for sx, sy, n in zip(x, y, counts)])
        return means if genes.ndim == 2 else means[0]

    def distances(self, centroids) -> np.ndarray:
        """Row j: each point's Euclidean distance to ``centroids[j]``, both rows in one pass, or
        (B, 2, n) for B pairs; an infinite coordinate less an infinite centroid is NaN, silently."""
        c = np.asarray(centroids, dtype=np.float64)[..., None]
        with np.errstate(over="ignore", invalid="ignore"):  # past ~1.3e154 apart the square is inf
            d, dy = self.coords[0] - c[..., 0, :], self.coords[1] - c[..., 1, :]
            np.square(d, out=d)
            d += np.square(dy, out=dy)
        return np.sqrt(d, out=d)


def as_points(points: SplitPoints | ProjectedDataset | np.ndarray) -> SplitPoints:
    """The points split once: a SplitPoints passes through, anything else is split here."""
    if isinstance(points, SplitPoints):
        return points
    xy = points.points if isinstance(points, ProjectedDataset) else points
    return SplitPoints(np.asarray(xy, dtype=np.float64))


def _cluster_sums(values: np.ndarray, mask: np.ndarray) -> tuple[float, float]:
    """fsum's bits for ``values[~mask]`` and ``values[mask]``; extraction from SUM_CROSSOVER on."""
    if values.size < SUM_CROSSOVER:
        return math.fsum(values[~mask].tolist()), math.fsum(values[mask].tolist())
    rows, r = _extract(values)
    weights = mask.astype(np.float64)
    high = [float(np.einsum("i,i", q, weights)) for q in rows]  # exact, so low is total - high
    low = [float(q.sum()) - h for q, h in zip(rows, high)]
    return _side_sums(low, high, r, mask)


def fitness_block(split: SplitPoints, genes: np.ndarray) -> tuple[np.ndarray, list]:
    """A (B, n) block's (B, 2, n) distances, NaN to an empty cluster, and each row's breakdown."""
    means = split.centroids(genes)
    d = split.distances([[c or (math.nan, math.nan) for c in pair] for pair in means])
    bits = d.view(np.int64)  # own: d[:, 1]'s bits where the gene is 1, else d[:, 0]'s; no branch
    own = np.negative(genes, dtype=np.int64)
    own &= bits[:, 0] ^ bits[:, 1]
    own ^= bits[:, 0]
    return d, [FitnessBreakdown(*((None, None) if None in pair else (dist, mine)), row)
               for pair, dist, mine, row in zip(means, d, own.view(np.float64), genes)]


def chromosome_fitness(
    points: SplitPoints | ProjectedDataset | np.ndarray, chrom: Chromosome
) -> FitnessBreakdown:
    """Every point's distance to both centroids and to its own; the total is summed when read.

    The total is +inf if either cluster is empty. The chromosome is not modified.
    """
    split = as_points(points)
    n = split.coords.shape[1]
    if chrom.genes.size != n:
        raise ContractError(f"chromosome length {chrom.genes.size} != point count {n}")
    return fitness_block(split, chrom.genes[None])[1][0]


def nearest(d_low: np.ndarray, d_high: np.ndarray, genes: np.ndarray) -> np.ndarray:
    """Each point's strictly nearer centroid, else (tie or NaN) its gene: uint8, 0 or 1 only."""
    return ((d_high < d_low) | (genes.view(np.bool_) & ~(d_low < d_high))).view(np.uint8)


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


def kmeans(points: SplitPoints | ProjectedDataset | np.ndarray, seed: int) -> Assignment:
    """Seeded 2-means: :func:`nearest` repeated until no point moves.

    The starting centroids are two distinct data points drawn with
    ``default_rng(seed)``. The first pass starts from all-zero genes, so
    a point equidistant from both starts joins cluster 0, and it always
    counts as an iteration. A cluster left empty keeps its centroid.
    """
    split = as_points(points)
    n = split.coords.shape[1]
    if n < 2:
        raise ContractError(f"2 clusters infeasible for {n} points")
    centroids = split.coords[:, np.random.default_rng(seed).choice(n, 2, replace=False)].T.tolist()
    genes, all_low = np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=bool)
    objective_trace: list[float] = []
    distance_trace: list[float] = []
    for _ in range(KMEANS_MAX_ITER):
        d = split.distances(centroids)
        new_genes = nearest(*d, genes)
        if distance_trace and np.array_equal(new_genes, genes):
            break
        genes = new_genes
        assigned = np.minimum(d[0], d[1])
        objective_trace.append(_cluster_sums(assigned * assigned, all_low)[0])
        distance_trace.append(_cluster_sums(assigned, all_low)[0])
        centroids = [new or old for new, old in zip(split.centroids(genes), centroids)]
    return Assignment(genes, len(distance_trace), objective_trace, distance_trace)
