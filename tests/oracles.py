"""Independent pure-Python oracles used to cross-check the library.

These deliberately avoid the library's numpy code paths: plain lists,
math.sqrt, and math.fsum (correctly rounded, so sums do not depend on
evaluation order and results can be compared exactly).
"""

import math


def python_fitness(points, genes):
    """Two-cluster assignment fitness, computed from scratch.

    +inf when either cluster is empty, matching the library's rule.
    """
    parts = []
    for cluster in (0, 1):
        members = [p for p, g in zip(points, genes) if g == cluster]
        if not members:
            return math.inf
        k = len(members)
        cx = math.fsum(p[0] for p in members) / k
        cy = math.fsum(p[1] for p in members) / k
        parts.append(
            math.fsum(
                math.sqrt((p[0] - cx) * (p[0] - cx) + (p[1] - cy) * (p[1] - cy))
                for p in members
            )
        )
    return parts[0] + parts[1]


def brute_force_min_fitness(points):
    """Exhaustive minimum over all 2^n assignments.

    Returns (min_fitness, genes). Practical for n <= ~16.
    """
    n = len(points)
    best = math.inf
    best_genes = [0] * n
    for mask in range(2 ** n):
        genes = [(mask >> i) & 1 for i in range(n)]
        fitness = python_fitness(points, genes)
        if fitness < best:
            best = fitness
            best_genes = genes
    return best, best_genes


def python_two_means(points, start):
    """2-means from the data points at the two ``start`` indices, from scratch.

    Returns (genes, iterations, objective_trace, distance_trace). The first
    pass sends a point equidistant from both starts to cluster 0 and always
    counts; after it a point moves only to a strictly nearer centroid, and
    the loop stops once no point moves. An emptied cluster keeps its
    centroid.
    """
    centroids = [list(points[i]) for i in start]
    genes = [0] * len(points)
    objective_trace, distance_trace = [], []
    for _ in range(100):  # the library's KMEANS_MAX_ITER
        new_genes, assigned = [], []
        for (x, y), gene in zip(points, genes):
            d = [math.sqrt((x - cx) * (x - cx) + (y - cy) * (y - cy)) for cx, cy in centroids]
            if d[0] < d[1]:
                gene = 0
            elif d[1] < d[0]:
                gene = 1
            new_genes.append(gene)
            assigned.append(d[gene])
        if distance_trace and new_genes == genes:
            break
        genes = new_genes
        objective_trace.append(math.fsum(d * d for d in assigned))
        distance_trace.append(math.fsum(assigned))
        for cluster in (0, 1):
            members = [p for p, g in zip(points, genes) if g == cluster]
            if members:
                k = len(members)
                centroids[cluster] = [
                    math.fsum(p[0] for p in members) / k,
                    math.fsum(p[1] for p in members) / k,
                ]
    return genes, len(distance_trace), objective_trace, distance_trace


def python_improvement(points, genes):
    """The GA's improvement step, from scratch: (genes, fitness) of what it keeps.

    Each point moves to the strictly nearer of the two centroids of
    ``genes`` (a tie keeps its gene), and the candidate is kept if its
    fitness does not exceed the input's. Otherwise, or when a cluster is
    empty, the input's genes and fitness come back.
    """
    genes = list(genes)
    base = python_fitness(points, genes)
    if base == math.inf:
        return genes, base
    centroids = []
    for cluster in (0, 1):
        members = [p for p, g in zip(points, genes) if g == cluster]
        k = len(members)
        centroids.append((math.fsum(p[0] for p in members) / k,
                          math.fsum(p[1] for p in members) / k))
    candidate = []
    for (x, y), gene in zip(points, genes):
        d = [math.sqrt((x - cx) * (x - cx) + (y - cy) * (y - cy)) for cx, cy in centroids]
        if d[0] < d[1]:
            gene = 0
        elif d[1] < d[0]:
            gene = 1
        candidate.append(gene)
    fitness = python_fitness(points, candidate)
    if fitness <= base:
        return candidate, fitness
    return genes, base
