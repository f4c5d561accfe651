"""Assignment chromosomes, the two-cluster fitness, and seeded 2-means.

A chromosome assigns each projected point to cluster 0 (low risk) or 1
(high risk). Its fitness is the sum over both clusters of plain
(unsquared) Euclidean distances from members to their cluster mean;
lower is better. A chromosome that leaves either cluster empty gets
fitness +inf so it loses every replacement comparison.

The two-cluster geometry is written once, for a (B, n) block of gene rows: :func:`fitness_block`
measures every point against both centroids of every row in one (B, 2, n) pass
(:func:`chromosome_fitness` is its one-row case; :func:`own_distances` gives its own-centroid
side alone, bit for bit), and :func:`nearest` turns two distance rows into one branch-free
reassignment pass. The GA's improvement step runs it once on its own evaluation's distances;
k-means repeats it until no point moves. Evaluating a chromosome does not modify it.

Sums are correctly rounded, with math.fsum's bits, so fitness values and the k-means
traces do not depend on evaluation order or block size and match an independently coded
oracle exactly. The points are split into exact pieces once per run (:class:`SplitPoints`),
so a block's centroid partials are one product, exact in any order, and each (row, side,
axis) sum is one short fsum over them. A block's totals are one extraction over its (B, n)
distances, a sigma per row, from SUM_CROSSOVER cells on and fsum over each row below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, InputError
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
        return (self.genes + 48).tobytes().decode()  # 48: ord("0")


@dataclass(frozen=True, eq=False)
class FitnessBreakdown:
    """The exact fitness ``total`` (+inf if a cluster is empty) and each point's (2, n)
    ``distances`` to both centroids (None if a cluster is empty), both fixed when measured."""

    total: float
    distances: np.ndarray | None


def lower_bounds(own: np.ndarray) -> np.ndarray:
    """Per row of ``own``, a value certain to be at most its exact total, or NaN (decides nothing).

    A float sum of n non-negative terms, in any order, is within (n-1)u/(1-(n-1)u) of their
    exact sum S (Higham, *Accuracy and Stability*, section 4.2; u = 2**-53), and the total is at
    least S(1-u)**2: a margin of (n + 8) * 2**-52 covers both above 2**-1000. Points that pass
    :func:`check_summable` keep a row's sum below sqrt(n) * 2**512, so there is no upper cut."""
    naive, margin = own.sum(1), 1 - (own.shape[1] + 8) * 2.0**-52
    return np.where(2.0**-1000 < naive, naive * margin, math.nan)


def _extract(values: np.ndarray) -> tuple[list[np.ndarray], list[int]]:
    """Rows ``q`` whose sum is each row of a (B, n) ``values`` exactly, and the rows they miss.

    Each pass splits the remainder ``r`` into ``q = (r + sigma) - sigma`` and ``r - q`` (Rump,
    Ogita and Oishi 2008). With ``sigma`` a power of two above (n + 1) * max|r| of its row, every
    partial sum of a row of ``q`` is exact, in any order. Rows needing a sigma past 2**1023 (as
    squared distances may) or left with a remainder after EXTRACTION_PASSES go to fsum."""
    extra, rows, r = (values.shape[1] + 1).bit_length(), [], values
    tops = np.abs(r).max(1, initial=0.0).tolist()
    whole = [not top < 2.0 ** (1023 - extra) for top in tops]  # squares near the guard's bound
    if any(whole):
        r = np.where(np.array(whole)[:, None], 0.0, values)
        tops = np.abs(r).max(1).tolist()
    while any(tops) and len(rows) < EXTRACTION_PASSES:
        sigma = np.array([[math.ldexp(1.0, math.frexp(top)[1] + extra)] for top in tops])
        q = r + sigma
        q -= sigma
        r = r - q
        rows.append(q)
        tops = np.abs(r).max(1).tolist()
    return rows, [b for b, (held, top) in enumerate(zip(whole, tops)) if held or top]


def check_summable(coords: np.ndarray) -> None:
    """Raise InputError unless the (2, n) ``coords`` are finite and n * (x reach² + y reach²) is,
    a reach: an axis' span plus 2**-48 * its max|coord| (a mean may round an ulp off the range)."""
    n = coords.shape[1]
    low, high = (coords.min(1).tolist(), coords.max(1).tolist()) if n else ([], [])
    if not all(map(math.isfinite, low + high)):
        raise InputError("the points must have finite coordinates")
    reach = [b - a + max(-a, b) * 2.0**-48 for a, b in zip(low, high)]
    if not math.isfinite(n * sum(r * r for r in reach)):
        raise InputError("squared distances of the projected points overflow float64")


class SplitPoints:
    """Points held once as a (2, n) ``coords`` array, both axes split by one :func:`_extract`;
    InputError for points :func:`check_summable` refuses, so no sum over them can overflow.

    ``pieces`` stacks x's ``rows`` rows, y's and a row of ones: ``genes @ pieces.T`` holds
    each gene row's high-cluster exact partials and size, ``totals`` minus it the low
    cluster's. ``raw`` lists the axes the split missed (usually none), for fsum over coordinates."""

    def __init__(self, xy: np.ndarray) -> None:
        self.coords = np.ascontiguousarray(xy.T)
        check_summable(self.coords)
        rows, missed = _extract(self.coords)
        self.rows, self.raw = len(rows), missed
        self.pieces = np.array([*(q[0] for q in rows), *(q[1] for q in rows), np.ones(xy.shape[0])])
        self.totals = self.pieces.sum(axis=1)

    def centroids(self, genes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each cluster's (x, y) mean, NaN if it is empty, and its size: (B, 2, 2) and (B, 2) for
        (B, n) ``genes``, (2, 2) and (2,) for one row; fsums over partials from one product."""
        block = np.atleast_2d(genes)
        high = block @ self.pieces.T
        low, k = self.totals - high, self.rows
        parts = np.concatenate((low[:, :k], high[:, :k], low[:, k:-1], high[:, k:-1]), 1)
        parts = parts.reshape(4 * len(block), k).tolist()  # per row: x low, x high, y low, y high
        for axis, coords in ((axis, self.coords[axis]) for axis in self.raw):  # fsum over those
            for at, mask in zip(range(2 * axis, len(parts), 4), block.view(np.bool_)):
                parts[at:at + 2] = coords[~mask].tolist(), coords[mask].tolist()
        sums = np.array(list(map(math.fsum, parts))).reshape(-1, 4)[:, [0, 2, 1, 3]]  # side-major
        counts = np.concatenate((low[:, -1:], high[:, -1:]), 1)
        # an empty cluster's sums are 0, and 0 / NaN gives its mean NaN without a warning
        means = sums.reshape(-1, 2, 2) / np.where(counts > 0, counts, math.nan)[:, :, None]
        return (means, counts) if genes.ndim == 2 else (means[0], counts[0])

    def distances(self, centroids) -> np.ndarray:
        """Row j: each point's Euclidean distance to ``centroids[j]``, both rows in one pass, or
        (B, 2, n) for B pairs; NaN, silently, only to an empty cluster's NaN mean."""
        c = np.asarray(centroids, dtype=np.float64)[..., None]
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


def _cluster_sums(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """(B, 2): fsum's bits for each row's ``values[~mask]`` and ``values[mask]``, from SUM_CROSSOVER
    cells on over exact partials from one :func:`_extract` (high a product with ``mask``)."""
    rows, missed = ([], range(len(values))) if values.size < SUM_CROSSOVER else _extract(values)
    weights = mask.astype(np.float64)
    high = np.array([np.einsum("ij,ij->i", q, weights) for q in rows]).reshape(-1, len(values))
    low = np.array([q.sum(1) for q in rows]).reshape(-1, len(values)) - high
    parts = np.array((low, high)).transpose(2, 0, 1).reshape(2 * len(values), -1).tolist()
    for b in missed:
        parts[2 * b:2 * b + 2] = values[b, ~mask[b]].tolist(), values[b, mask[b]].tolist()
    return np.array(list(map(math.fsum, parts))).reshape(-1, 2)


def fitness_totals(own: np.ndarray, genes: np.ndarray, empty=False) -> np.ndarray:
    """Each row's fitness: its two clusters' fsums of ``own`` added, +inf where ``empty``."""
    sums = _cluster_sums(own, genes.view(np.bool_))
    return np.where(empty, math.inf, sums[:, 0] + sums[:, 1])


def fitness_block(split: SplitPoints, genes: np.ndarray) -> tuple[np.ndarray, ...]:
    """A (B, n) block's (B, 2, n) distances, NaN to an empty cluster, each point's (B, n)
    distance to its own centroid, and whether each row leaves a cluster empty."""
    means, counts = split.centroids(genes)
    d = split.distances(means)
    bits = d.view(np.int64)  # own: d[:, 1]'s bits where the gene is 1, else d[:, 0]'s; no branch
    own = np.negative(genes, dtype=np.int64)
    own &= bits[:, 0] ^ bits[:, 1]
    own ^= bits[:, 0]
    return d, own.view(np.float64), (counts == 0).any(1)


def own_distances(split: SplitPoints, genes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`fitness_block`'s ``own`` and empty flags, bit for bit: each point's own centroid
    is taken first, then one (B, n) pass in :meth:`SplitPoints.distances`' operation order."""
    means, counts = split.centroids(genes)
    at = genes + np.arange(0, 2 * len(genes), 2)[:, None]  # row b's low mean at 2b, high at 2b + 1
    d = means.transpose(2, 0, 1).reshape(2, -1).take(at, axis=1)  # (2, B, n): x and y
    np.square(np.subtract(split.coords[:, None], d, out=d), out=d)
    return np.sqrt(np.add(*d, out=d[0]), out=d[0]), (counts == 0).any(1)


def chromosome_fitness(
    points: SplitPoints | ProjectedDataset | np.ndarray, chrom: Chromosome
) -> FitnessBreakdown:
    """The exact total and every point's distance to both centroids, both computed here.

    The total is +inf if either cluster is empty. The chromosome is neither modified nor kept.
    """
    split = as_points(points)
    n = split.coords.shape[1]
    if chrom.genes.size != n:
        raise ContractError(f"chromosome length {chrom.genes.size} != point count {n}")
    d, own, empty = fitness_block(split, chrom.genes[None])
    total = fitness_totals(own, chrom.genes[None], empty).item()
    return FitnessBreakdown(total, None if empty[0] else d[0])


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
    centroids = split.coords[:, np.random.default_rng(seed).choice(n, 2, replace=False)].T
    genes, all_low = np.zeros(n, dtype=np.uint8), np.zeros((1, n), dtype=bool)
    objective_trace: list[float] = []
    distance_trace: list[float] = []
    for _ in range(KMEANS_MAX_ITER):
        d = split.distances(centroids)
        new_genes = nearest(*d, genes)
        if distance_trace and np.array_equal(new_genes, genes):
            break
        genes = new_genes
        assigned = np.minimum(d[:1], d[1:])
        objective_trace.append(float(_cluster_sums(assigned * assigned, all_low)[0, 0]))
        distance_trace.append(float(_cluster_sums(assigned, all_low)[0, 0]))
        means, counts = split.centroids(genes)
        centroids = np.where(counts[:, None] > 0, means, centroids)
    return Assignment(genes, len(distance_trace), objective_trace, distance_trace)
