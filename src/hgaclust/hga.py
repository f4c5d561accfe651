"""Steady-state hybrid genetic algorithm over a (P, n) uint8 gene matrix.

One generation = select two random parents, one-point crossover, flip two
random genes in each offspring, deterministically improve each offspring
(one nearest-centroid reassignment pass with guarded acceptance), then
try to replace the current worst chromosome with each offspring in turn.
The run stops after a doldrum window of doldrum_factor * population_size
consecutive generations without a strict decrease of the population
minimum fitness, or at the max_generations safety cap.

All randomness flows from a single numpy PCG64 generator seeded with the
run seed, so a run is a pure function of (points, config); the loop takes
its draws in blocks (:func:`_draws`). Children are scored as Chromosomes, and
only :func:`deterministic_improvement` writes ``Chromosome.cached_fitness``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .clustering import Chromosome, SplitPoints, as_points, chromosome_fitness, nearest
from .errors import ContractError, InputError

TraceSink = Callable[[int, float, float], None]

# A run's improvement memo stops taking entries once they would pass this
# many bytes, counting each packed key plus MEMO_ENTRY_OVERHEAD for the
# dict slot and the bytes and float objects. The cap changes speed only.
MEMO_BUDGET_BYTES = 16 * 2**20
MEMO_ENTRY_OVERHEAD = 100
_DRAW_BLOCK = 64  # generations whose draws one ``integers`` call takes


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
    """Fair-coin chromosomes, all evaluated (and optionally improved with ``memo``).

    If every chromosome leaves a cluster empty, no child could ever
    replace one (``inf < inf`` is false), so gene 0 of chromosome 0 is
    flipped: a one-versus-rest split, which has two non-empty clusters.
    This draws nothing from ``rng``.
    """
    split = as_points(points)
    n = split.coords.shape[1]
    if n < 2:
        raise ContractError("need at least 2 points")
    size, improve = config.population_size, config.improve_initial_population
    try:
        pop = Population(np.empty((size, n), dtype=np.uint8), np.empty(size))
    except (MemoryError, ValueError) as exc:  # past the memory, or past numpy's size limit
        raise InputError(f"population_size {size} is too large for {n} points") from exc
    for i in range(size):
        genes = rng.integers(0, 2, size=n, dtype=np.uint8)
        pop.genes[i], pop.fitness[i] = _scored(split, genes, improve, memo)
    if np.isinf(pop.fitness).all():
        pop.genes[0, 0] ^= 1
        pop.fitness[0] = chromosome_fitness(split, Chromosome(pop.genes[0])).total
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
    """Two fresh children: the parents with their tails after ``cut`` (1..n-1) swapped."""
    n = len(p1)
    if n != len(p2):
        raise ContractError(f"parent lengths differ: {n} vs {len(p2)}")
    if not 1 <= cut <= n - 1:
        raise ContractError(f"cut must be in 1..{n - 1}, got {cut}")
    o1, o2 = p1.copy(), p2.copy()
    o1[cut:], o2[cut:] = p2[cut:], p1[cut:]
    return o1, o2


def two_point_mutation(genes: np.ndarray, positions: tuple[int, int]) -> None:
    """Flip the genes at two distinct ``positions``, in place."""
    first, second = positions
    if first == second or not (0 <= first < len(genes) and 0 <= second < len(genes)):
        raise ContractError(f"positions must be two distinct indices below {len(genes)}")
    genes[first] ^= 1
    genes[second] ^= 1


def deterministic_improvement(
    points, chrom: Chromosome, memo: dict[bytes, float] | None = None
) -> Chromosome:
    """One nearest-centroid reassignment pass with guarded acceptance.

    The input is evaluated once; :func:`nearest` reads the candidate off that
    evaluation's distances. The candidate is kept only if its fitness does not
    exceed the input's (summed only if :meth:`FitnessBreakdown.total_at_least`
    cannot tell), so this step never makes a chromosome worse. Otherwise, or when
    no point moves or a cluster is empty, the input comes back with its fitness.

    ``memo`` maps a candidate's packed genes to its fitness total. The pass
    pulls most children of a run onto a few local optima, so the GA passes
    one memo per run and looks a repeated candidate up: fitness is a pure
    function of (points, genes), so a hit gives an evaluation's bits. Only
    candidates are stored, up to :data:`MEMO_BUDGET_BYTES`.
    """
    if memo is None:
        memo = {}
    split = as_points(points)
    base = chromosome_fitness(split, chrom)
    new_genes = chrom.genes if base.distances is None else nearest(*base.distances, chrom.genes)
    if new_genes.tobytes() != chrom.genes.tobytes():
        key = np.packbits(new_genes).tobytes()
        total = memo.get(key)
        if total is None:
            total = chromosome_fitness(split, Chromosome(new_genes)).total
            if (len(memo) + 1) * (len(key) + MEMO_ENTRY_OVERHEAD) <= MEMO_BUDGET_BYTES:
                memo[key] = total
        if base.total_at_least(total) or total <= base.total:
            return Chromosome(new_genes, total)
    chrom.cached_fitness = base.total
    return chrom


def _scored(
    split: SplitPoints, genes: np.ndarray, improve: bool, memo: dict[bytes, float] | None
) -> tuple[np.ndarray, float]:
    """``genes`` improved with ``memo``, or ``genes`` themselves, and their fitness."""
    chrom = Chromosome(genes)
    if improve:
        chrom = deterministic_improvement(split, chrom, memo)
        return chrom.genes, chrom.cached_fitness
    return genes, chromosome_fitness(split, chrom).total


def steady_state_replace(pop: Population, genes: np.ndarray, fitness: float) -> bool:
    """Copy ``genes`` into the worst (first maximal) row if their ``fitness`` is lower."""
    worst = int(pop.fitness.argmax())
    if fitness < pop.fitness[worst]:
        pop.genes[worst], pop.fitness[worst] = genes, fitness
        return True
    return False


def _draws(rng: np.random.Generator, size: int, n: int, mutation: bool) -> Iterator[list[int]]:
    """Each generation's draws: parents below ``size`` and ``size - 1``, a cut in 1..n-1, and
    with ``mutation`` positions below ``n`` and ``n - 1`` per child. The bounds are fixed, so one
    ``integers`` call takes a block, with the scalar calls' values and final generator state."""
    bounds = [(0, size), (0, size - 1), (1, n)] + [(0, n), (0, n - 1)] * 2 * mutation
    low, high = np.tile(np.array(bounds).T, _DRAW_BLOCK)
    while True:
        yield from rng.integers(low, high).reshape(_DRAW_BLOCK, len(bounds)).tolist()


def run_hga(points, config: HgaConfig, trace_sink: TraceSink | None = None) -> HgaResult:
    """Run the full loop; deterministic given (points, config)."""
    split = as_points(points)
    rng = np.random.default_rng(config.seed)
    memo: dict[bytes, float] = {}
    pop = init_population(split, config, rng, memo)
    draws = _draws(rng, *pop.genes.shape, config.mutation_enabled)

    window = config.doldrum_factor * config.population_size
    doldrum = 0
    current_min = pop.min_fitness
    trace: list[float] = []
    terminated_by = "cap"
    generation = 0

    while generation < config.max_generations:
        generation += 1
        first, second, cut, *positions = next(draws)
        i, j = select_parents(pop, first, second)
        children = one_point_crossover(pop.genes[i], pop.genes[j], cut)
        for child, pair in zip(children, (positions[:2], positions[2:])):
            if pair:
                two_point_mutation(child, _distinct_pair(*pair))
            steady_state_replace(pop, *_scored(split, child, config.improvement_enabled, memo))

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
