"""Steady-state hybrid genetic algorithm over a (P, n) uint8 gene matrix.

One generation = select two random parents, one-point crossover, flip two
random genes in each offspring, deterministically improve each offspring
(one nearest-centroid reassignment pass with guarded acceptance), then
try to replace the current worst chromosome with each offspring in turn.
The run stops after a doldrum window of doldrum_factor * population_size
consecutive generations without a strict decrease of the population
minimum fitness, or at the max_generations safety cap.

All randomness flows from a single numpy PCG64 generator seeded with the
run seed, so a run is a pure function of (points, config). The loop runs in blocks of K
generations: one ``integers`` call over the block's bounds takes its draws, with the values
and final generator state of one scalar call per draw, and no draw depends on the data.
:func:`_children` builds a block's children, one scoring pass scores them, and
:func:`_offspring` applies the generations in order; one whose parent row was replaced
earlier in its block is rebuilt and scored alone. Fitness is a pure function of the genes,
so every result is bit-identical to one generation at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .clustering import Chromosome, as_points, chromosome_fitness, fitness_block, nearest
from .errors import ContractError, InputError

TraceSink = Callable[[int, float, float], None]

# A run's improvement memo stops taking entries once they would pass this
# many bytes, counting each packed key plus MEMO_ENTRY_OVERHEAD for the
# dict slot and the bytes and float objects. The cap changes speed only.
MEMO_BUDGET_BYTES = 16 * 2**20
MEMO_ENTRY_OVERHEAD = 100
BLOCK_CELLS = 2**13  # gene cells (rows x points) one block scoring pass takes


@dataclass
class HgaConfig:
    population_size: int = 2500
    doldrum_factor: int = 2
    max_generations: int = 1_000_000
    improvement_enabled: bool = True
    mutation_enabled: bool = True
    improve_initial_population: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise InputError("population_size must be at least 2")
        if self.doldrum_factor < 1 or self.max_generations < 1:
            raise InputError("doldrum_factor and max_generations must be positive")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")


@dataclass
class Population:
    """A (P, n) uint8 gene matrix and its fitness vector: the extremes are read off ``fitness``."""

    genes: np.ndarray
    fitness: np.ndarray

    @property
    def min_fitness(self) -> float:
        return float(self.fitness.min())

    @property
    def max_fitness(self) -> float:
        return float(self.fitness.max())


@dataclass
class HgaResult:
    best_chromosome: Chromosome
    best_fitness: float
    generations_run: int
    min_fitness_trace: list[float]
    terminated_by: str  # "doldrum" or "cap"


def init_population(
    points,
    config: HgaConfig,
    rng: np.random.Generator,
    memo: dict[bytes, float] | None = None,
) -> Population:
    """Fair-coin chromosomes, one draw per row, evaluated (and optionally improved with
    ``memo``) by :func:`_score_into`.

    If every chromosome leaves a cluster empty, no child could ever
    replace one (``inf < inf`` is false), so gene 0 of chromosome 0 is
    flipped: a one-versus-rest split, which has two non-empty clusters.
    This draws nothing from ``rng``.
    """
    split = as_points(points)
    n = split.coords.shape[1]
    if n < 2:
        raise ContractError("need at least 2 points")
    size, memo = config.population_size, {} if memo is None else memo
    try:
        pop = Population(np.empty((size, n), dtype=np.uint8), np.empty(size))
    except (MemoryError, ValueError) as exc:  # past the memory, or past numpy's size limit
        raise InputError(f"population_size {size} is too large for {n} points") from exc
    for i in range(size):
        pop.genes[i] = rng.integers(0, 2, size=n, dtype=np.uint8)
    _score_into(split, pop.genes, pop.fitness, config.improve_initial_population, memo)
    if np.isinf(pop.fitness).all():
        pop.genes[0, 0] ^= 1
        _score_into(split, pop.genes[:1], pop.fitness[:1], False, memo)
    return pop


def _distinct_pair(first: int, second: int) -> tuple[int, int]:
    """Draws below m and below m - 1 as two distinct indices below m, uniform over ordered pairs."""
    return first, second + (second >= first)


def select_parents(pop: Population, first: int, second: int) -> tuple[int, int]:
    """Two distinct indices from draws ``first`` below P and ``second`` below P - 1."""
    if not (0 <= first < len(pop.fitness) and 0 <= second < len(pop.fitness) - 1):
        raise ContractError(f"parent draws ({first}, {second}) out of range")
    return _distinct_pair(first, second)


def one_point_crossover(p1: np.ndarray, p2: np.ndarray, cut: int) -> tuple[np.ndarray, np.ndarray]:
    """Two fresh children: the parents with their tails after ``cut`` (1..n-1) swapped; the
    one-generation case of :func:`_children`."""
    n = len(p1)
    if n != len(p2):
        raise ContractError(f"parent lengths differ: {n} vs {len(p2)}")
    if not 1 <= cut <= n - 1:
        raise ContractError(f"cut must be in 1..{n - 1}, got {cut}")
    o1, o2 = _children(np.stack((p1, p2)), np.array([[0, 0, cut]]))
    return o1, o2


def two_point_mutation(genes: np.ndarray, positions: tuple[int, int]) -> None:
    """Flip the genes at two distinct ``positions``, in place."""
    first, second = positions
    if first == second or not (0 <= first < len(genes) and 0 <= second < len(genes)):
        raise ContractError(f"positions must be two distinct indices below {len(genes)}")
    genes[first] ^= 1
    genes[second] ^= 1


def deterministic_improvement(points, chrom: Chromosome, memo: dict | None = None) -> Chromosome:
    """One nearest-centroid reassignment pass with guarded acceptance: :func:`_improve` on one row.

    The input is evaluated once; :func:`nearest` reads the candidate off that evaluation's
    distances. A kept candidate comes back as a new chromosome; otherwise, or when no point
    moves or a cluster is empty, the input comes back. The input is never modified.
    """
    split = as_points(points)
    base = chromosome_fitness(split, chrom)
    genes = chrom.genes[None]
    cand = genes if base.distances is None else nearest(*base.distances, chrom.genes)[None]
    score = lambda rows: [chromosome_fitness(split, Chromosome(row)).total for row in rows]
    ((kept, _),) = _improve(genes, cand, [base], score, {} if memo is None else memo)
    return Chromosome(cand[0]) if kept else chrom


def _improve(genes, cands, bases, score, memo) -> list[tuple[bool, float]]:
    """The improvement rule: whether each gene row keeps its candidate, and the fitness it keeps.

    A candidate (``cands``) that moves a point is kept if its fitness does not exceed its
    row's (``bases``; summed only if :meth:`FitnessBreakdown.total_at_least` cannot tell).
    ``memo`` maps packed candidates to their totals (the pass pulls most children onto a few
    local optima); distinct misses go to one ``score(rows)`` call, kept to MEMO_BUDGET_BYTES.
    """
    keys = [np.packbits(c).tobytes() if m else None for c, m in zip(cands, (cands != genes).any(1))]
    misses = {key: b for b, key in enumerate(keys) if key is not None and key not in memo}
    found = dict(zip(misses, score(cands[list(misses.values())]))) if misses else {}
    for key, total in found.items():
        if (len(memo) + 1) * (len(key) + MEMO_ENTRY_OVERHEAD) <= MEMO_BUDGET_BYTES:
            memo[key] = total
    totals = [None if key is None else found[key] if key in found else memo[key] for key in keys]
    kept = [t is not None and (b.total_at_least(t) or t <= b.total) for b, t in zip(bases, totals)]
    return [(keep, total if keep else b.total) for keep, total, b in zip(kept, totals, bases)]


def _scored_block(split, genes: np.ndarray, improve: bool, memo: dict) -> list:
    """Each row's fitness, a (B, n) block's rows first improved in place with ``memo`` if asked."""
    d, bases = fitness_block(split, genes)
    if not improve:
        return [base.total for base in bases]
    cands = nearest(d[:, 0], d[:, 1], genes)  # NaN distances keep a row with an empty cluster
    score = lambda rows: _scored_block(split, rows, False, memo)
    kept, fitness = zip(*_improve(genes, cands, bases, score, memo))
    genes[list(kept)] = cands[list(kept)]
    return list(fitness)


def _score_into(split, genes, fitness, improve, memo, alone=True) -> bool:
    """:func:`_scored_block` in place over chunks of BLOCK_CELLS cells, a row at least. A chunk
    whose exact sums fail in fsum (overflow, inf - inf) is redone a row at a time if ``alone``,
    so the first failing row raises, as scored alone; else the call returns False."""
    step = max(1, BLOCK_CELLS // genes.shape[1])
    for rows in (slice(start, start + step) for start in range(0, len(genes), step)):
        try:
            fitness[rows] = _scored_block(split, genes[rows], improve, memo)
        except (OverflowError, ValueError) as exc:
            if "fsum" not in str(exc):
                raise
            if not alone:
                return False
            for i in range(*rows.indices(len(genes))):
                fitness[i:i + 1] = _scored_block(split, genes[i:i + 1], improve, memo)
    return True


def steady_state_replace(pop: Population, genes: np.ndarray, fitness: float) -> bool:
    """Copy ``genes`` into the worst (first maximal) row if their ``fitness`` is lower."""
    worst = int(pop.fitness.argmax())
    if fitness < pop.fitness[worst]:
        pop.genes[worst], pop.fitness[worst] = genes, fitness
        return True
    return False


def _children(genes: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Rows 2g and 2g + 1: the children of draws ``block[g]``, as the operators build them."""
    first, second = _distinct_pair(block[:, 0], block[:, 1])
    children = genes[np.stack((first, second), 1).ravel()]
    for g, (i, j, cut) in enumerate(zip(first.tolist(), second.tolist(), block[:, 2].tolist())):
        children[2 * g, cut:], children[2 * g + 1, cut:] = genes[j, cut:], genes[i, cut:]
    if block.shape[1] > 3:
        flips = np.stack(_distinct_pair(*block[:, 3:].reshape(-1, 2).T), 1)
        children[np.arange(len(children))[:, None], flips] ^= 1
    return children


def _offspring(split, pop, draw: Callable[[], np.ndarray], improve, memo) -> Iterator[zip]:
    """Each generation's two scored children, built and scored a block of ``draw()`` (one row
    per generation) at a time. One whose parent row's fitness changed since (a replacement
    lowers it) is stale: it is rebuilt from the updated matrix and scored alone, as is each
    one of a block whose exact sums fail."""
    while True:
        block = draw()
        parents = [pair.tolist() for pair in _distinct_pair(block[:, 0], block[:, 1])]
        children, fitness = _children(pop.genes, block), np.empty(2 * len(block))
        failed = not _score_into(split, children, fitness, improve, memo, alone=False)
        for g, (i, j, fi, fj) in enumerate(zip(*parents, *pop.fitness[parents].tolist())):
            rows = slice(2 * g, 2 * g + 2)
            if failed or pop.fitness[i] != fi or pop.fitness[j] != fj:
                children[rows] = _children(pop.genes, block[g:g + 1])
                _score_into(split, children[rows], fitness[rows], improve, memo)
            yield zip(children[rows], fitness[rows])


def run_hga(points, config: HgaConfig, trace_sink: TraceSink | None = None) -> HgaResult:
    """Run the full loop; deterministic given (points, config)."""
    split = as_points(points)
    rng = np.random.default_rng(config.seed)
    memo: dict[bytes, float] = {}
    pop = init_population(split, config, rng, memo)
    (size, n), improve = pop.genes.shape, config.improvement_enabled
    k = max(1, min(max(2, size // 8), BLOCK_CELLS // (2 * n)))  # stale ~ k / size
    # per generation: parents below size and size - 1, a cut in 1..n-1, and with mutation
    # positions below n and n - 1 per child
    bounds = [(0, size), (0, size - 1), (1, n)] + [(0, n), (0, n - 1)] * 2 * config.mutation_enabled
    low, high = np.tile(np.array(bounds).T, k)
    draw = lambda: rng.integers(low, high).reshape(k, len(bounds))
    offspring = _offspring(split, pop, draw, improve, memo)

    window = config.doldrum_factor * config.population_size
    doldrum = 0
    current_min = pop.min_fitness
    trace: list[float] = []
    terminated_by = "cap"
    generation = 0

    while generation < config.max_generations:
        generation += 1
        for genes, fitness in next(offspring):
            steady_state_replace(pop, genes, fitness)

        new_min = pop.min_fitness
        if new_min < current_min:
            doldrum = 0
            current_min = new_min
        else:
            doldrum += 1
        trace.append(new_min)
        if trace_sink is not None:
            trace_sink(generation, new_min, pop.max_fitness)
        if doldrum >= window:
            terminated_by = "doldrum"
            break

    best = Chromosome(pop.genes[pop.fitness.argmin()].copy())  # the first minimum on ties
    return HgaResult(best, pop.min_fitness, generation, trace, terminated_by)
