"""Independent pure-Python oracles used to cross-check the library.

These deliberately avoid the library's numpy code paths: plain lists,
math.sqrt, and math.fsum (correctly rounded, so sums do not depend on
evaluation order and results can be compared exactly). numpy appears
only as the GA oracle's random generator, which must be the library's.
"""

import csv
import math

import numpy as np


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


def python_run_hga(points, population_size, seed, doldrum_factor=2, max_generations=1_000_000,
                   improvement_enabled=True, mutation_enabled=True,
                   improve_initial_population=False):
    """The steady-state hybrid GA, from scratch on lists of genes and fitness values.

    Returns (best_fitness, best_genes, min_fitness_trace, terminated_by).
    It makes the library's ``np.random.Generator`` calls in the library's
    order: one ``integers(0, 2, size=n)`` per initial chromosome, two
    draws per distinct pair (the parents, then each child's mutation) and
    one cut ``integers(1, n)`` per crossover. If every initial chromosome
    leaves a cluster empty, gene 0 of the first is flipped. A child takes
    the place of the first worst chromosome only if its fitness is
    strictly lower. The run stops after doldrum_factor * population_size
    generations in a row without a strictly lower population minimum, or
    at max_generations; the best is the first minimal chromosome.
    """
    rng = np.random.default_rng(seed)
    n = len(points)

    def distinct_pair(size):
        first = int(rng.integers(size))
        second = int(rng.integers(size - 1))
        if second >= first:
            second += 1
        return first, second

    def scored(genes, improve):
        if improve:
            return python_improvement(points, genes)
        return genes, python_fitness(points, genes)

    population = [
        scored(rng.integers(0, 2, size=n, dtype=np.uint8).tolist(), improve_initial_population)
        for _ in range(population_size)
    ]
    if all(fitness == math.inf for _, fitness in population):
        genes = list(population[0][0])
        genes[0] ^= 1
        population[0] = scored(genes, False)

    current_min = min(fitness for _, fitness in population)
    doldrum, trace, terminated_by = 0, [], "cap"
    while len(trace) < max_generations:
        first, second = distinct_pair(population_size)
        p1, p2 = population[first][0], population[second][0]
        cut = int(rng.integers(1, n))
        for child in (p1[:cut] + p2[cut:], p2[:cut] + p1[cut:]):
            if mutation_enabled:
                for position in distinct_pair(n):
                    child[position] ^= 1
            child, fitness = scored(child, improvement_enabled)
            values = [value for _, value in population]
            worst = values.index(max(values))
            if fitness < values[worst]:
                population[worst] = (child, fitness)
        new_min = min(fitness for _, fitness in population)
        if new_min < current_min:
            doldrum, current_min = 0, new_min
        else:
            doldrum += 1
        trace.append(new_min)
        if doldrum >= doldrum_factor * population_size:
            terminated_by = "doldrum"
            break

    values = [value for _, value in population]
    best = values.index(min(values))
    return values[best], population[best][0], trace, terminated_by


def python_load_heart_csv(path, columns):
    """The heart CSV read cell by cell: (rows of floats, missing cells), or the error text.

    Each cell is stripped; ``?`` is missing (NaN) and anything else must be a finite
    float. A first row with no such cell is a header and must equal ``columns``. The
    first wrong row length, unparsable cell or missing target in file order is named,
    and only then a negative target. Targets come back as 0.0 or 1.0.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        return f"{path}: file is empty"

    def cell_value(text):
        text = text.strip()
        if text == "?":
            return math.nan
        value = float(text)
        if math.isnan(value) or math.isinf(value):
            raise ValueError(text)
        return value

    def parses(text):
        try:
            cell_value(text)
        except ValueError:
            return False
        return True

    if rows[0] and not any(parses(cell) for cell in rows[0]):
        header = [cell.strip() for cell in rows[0]]
        if header != list(columns):
            return f"{path}: header {header} does not match expected columns {list(columns)}"
        rows = rows[1:]
        if not rows:
            return f"{path}: no data rows after header"
    values, missing = [], []
    for i, row in enumerate(rows, 1):
        if len(row) != len(columns):
            return f"{path}: row {i} has {len(row)} columns, expected {len(columns)}"
        values.append([])
        for name, cell in zip(columns, row):
            try:
                value = cell_value(cell)
            except ValueError:
                return f"{path}: row {i}, column {name!r}: cell {cell!r} is not numeric and not '?'"
            if math.isnan(value):
                if name == "target":
                    return f"{path}: row {i}, column 'target': missing target is not supported"
                missing.append((i - 1, name))
            values[-1].append(value)
    target = columns.index("target")
    for i, row in enumerate(values, 1):
        if row[target] < 0:
            return f"{path}: row {i}, column 'target': negative target value"
        row[target] = 1.0 if row[target] > 0 else 0.0
    return values, tuple(missing)
