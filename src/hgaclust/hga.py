"""Steady-state hybrid genetic algorithm over assignment chromosomes.

One generation = select two random parents, one-point crossover, flip two
random genes in each offspring, deterministically improve each offspring
(one nearest-centroid reassignment pass with guarded acceptance), then
try to replace the current worst chromosome with each offspring in turn.
The run stops after a doldrum window of doldrum_factor * population_size
consecutive generations without a strict decrease of the population
minimum fitness, or at the max_generations safety cap.

All randomness flows from a single numpy PCG64 generator seeded with the
run seed, so a run is a pure function of (points, config). The population
holds each chromosome's fitness; only :func:`deterministic_improvement`
writes ``Chromosome.cached_fitness``, to return its result's fitness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .clustering import Chromosome, SplitPoints, as_points, chromosome_fitness, nearest
from .errors import ContractError, InputError

TraceSink = Callable[[int, float, float], None]

# A run's improvement memo stops taking entries once they would pass this
# many bytes, counting each packed key plus MEMO_ENTRY_OVERHEAD for the
# dict slot and the bytes and float objects. The cap changes speed only.
MEMO_BUDGET_BYTES = 16 * 2**20
MEMO_ENTRY_OVERHEAD = 100


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
        if self.population_size > np.iinfo(np.intp).max // 8:  # numpy's float64 length limit
            raise InputError(f"population_size {self.population_size} is too large for numpy")
        if self.doldrum_factor < 1 or self.max_generations < 1:
            raise InputError("doldrum_factor and max_generations must be positive")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")


@dataclass
class Population:
    """Chromosomes and their fitness totals, held once: the extremes are read off ``fitness``."""

    chromosomes: list[Chromosome]
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
    improve = config.improve_initial_population
    chromosomes, fitness = [], np.empty(config.population_size)
    for i in range(config.population_size):
        chrom = Chromosome(rng.integers(0, 2, size=n, dtype=np.uint8))
        chrom, fitness[i] = _scored(split, chrom, improve, memo)
        chromosomes.append(chrom)
    if np.isinf(fitness).all():
        genes = chromosomes[0].genes.copy()
        genes[0] ^= 1
        chromosomes[0], fitness[0] = _scored(split, Chromosome(genes), False, memo)
    return Population(chromosomes, fitness)


def _distinct_pair(rng: np.random.Generator, n: int) -> tuple[int, int]:
    """Two distinct indices below ``n``, uniform over ordered pairs."""
    first = int(rng.integers(n))
    second = int(rng.integers(n - 1))
    if second >= first:
        second += 1
    return first, second


def select_parents(pop: Population, rng: np.random.Generator) -> tuple[int, int]:
    """Two distinct indices, uniform over ordered pairs."""
    if len(pop.chromosomes) < 2:
        raise ContractError("selection needs a population of at least 2")
    return _distinct_pair(rng, len(pop.chromosomes))


def one_point_crossover(
    p1: Chromosome,
    p2: Chromosome,
    rng: np.random.Generator | None,
    cut: int | None = None,
) -> tuple[Chromosome, Chromosome]:
    """Swap tails after a cut drawn uniformly from 1..n-1 (or forced via ``cut``)."""
    n = len(p1)
    if n != len(p2):
        raise ContractError(f"parent lengths differ: {n} vs {len(p2)}")
    if n < 2:
        raise ContractError("crossover needs chromosomes of length >= 2")
    if cut is None:
        cut = int(rng.integers(1, n))
    elif not 1 <= cut <= n - 1:
        raise ContractError(f"cut must be in 1..{n - 1}, got {cut}")
    o1 = np.concatenate([p1.genes[:cut], p2.genes[cut:]])
    o2 = np.concatenate([p2.genes[:cut], p1.genes[cut:]])
    return Chromosome(o1), Chromosome(o2)


def two_point_mutation(
    chrom: Chromosome,
    rng: np.random.Generator | None,
    positions: tuple[int, int] | None = None,
) -> Chromosome:
    """Flip two distinct gene positions drawn uniformly (or forced via ``positions``)."""
    n = len(chrom)
    if n < 2:
        raise ContractError("mutation needs chromosomes of length >= 2")
    if positions is None:
        first, second = _distinct_pair(rng, n)
    else:
        first, second = positions
        if first == second or not (0 <= first < n and 0 <= second < n):
            raise ContractError(f"positions must be two distinct indices below {n}")
    genes = chrom.genes.copy()
    genes[first] ^= 1
    genes[second] ^= 1
    return Chromosome(genes)


def deterministic_improvement(
    points, chrom: Chromosome, memo: dict[bytes, float] | None = None
) -> Chromosome:
    """One nearest-centroid reassignment pass with guarded acceptance.

    The input is evaluated once and its fitness recorded on it; :func:`nearest`
    then reads the candidate off that evaluation's distances. The candidate
    is kept only if its fitness does not exceed the input's, so this step
    never makes a chromosome worse. Otherwise, or when no point moves or a
    cluster is empty, the input itself is returned.

    ``memo`` maps a candidate's packed genes to its fitness total. The
    pass pulls most children of a run onto a few local optima, so the GA
    passes one memo per run and a repeated candidate is looked up instead
    of evaluated again. Fitness is a pure function of (points, genes), so
    a hit gives the same bits as an evaluation. Only candidates are
    stored, up to :data:`MEMO_BUDGET_BYTES`.
    """
    if memo is None:
        memo = {}
    split = as_points(points)
    base = chromosome_fitness(split, chrom)
    chrom.cached_fitness = base.total
    if base.distances is None:
        return chrom
    new_genes = nearest(*base.distances, chrom.genes)
    if np.array_equal(new_genes, chrom.genes):
        return chrom
    key = np.packbits(new_genes).tobytes()
    total = memo.get(key)
    if total is None:
        total = chromosome_fitness(split, Chromosome(new_genes)).total
        if (len(memo) + 1) * (len(key) + MEMO_ENTRY_OVERHEAD) <= MEMO_BUDGET_BYTES:
            memo[key] = total
    if total <= base.total:
        return Chromosome(new_genes, total)
    return chrom


def _scored(
    split: SplitPoints, chrom: Chromosome, improve: bool, memo: dict[bytes, float] | None
) -> tuple[Chromosome, float]:
    """``chrom`` improved with ``memo``, or ``chrom`` itself, and its fitness."""
    if improve:
        chrom = deterministic_improvement(split, chrom, memo)
        return chrom, chrom.cached_fitness
    return chrom, chromosome_fitness(split, chrom).total


def steady_state_replace(pop: Population, offspring: Chromosome, fitness: float) -> bool:
    """Put the offspring in place of the worst (first maximal) one if its ``fitness`` is lower."""
    worst = int(np.argmax(pop.fitness))
    if fitness < pop.fitness[worst]:
        pop.chromosomes[worst] = offspring
        pop.fitness[worst] = fitness
        return True
    return False


def run_hga(points, config: HgaConfig, trace_sink: TraceSink | None = None) -> HgaResult:
    """Run the full loop; deterministic given (points, config)."""
    split = as_points(points)
    rng = np.random.default_rng(config.seed)
    memo: dict[bytes, float] = {}
    pop = init_population(split, config, rng, memo)

    window = config.doldrum_factor * config.population_size
    doldrum = 0
    current_min = pop.min_fitness
    trace: list[float] = []
    terminated_by = "cap"
    generation = 0

    while generation < config.max_generations:
        generation += 1
        i, j = select_parents(pop, rng)
        offspring = one_point_crossover(pop.chromosomes[i], pop.chromosomes[j], rng)
        for child in offspring:
            if config.mutation_enabled:
                child = two_point_mutation(child, rng)
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

    best = int(np.argmin(pop.fitness))  # the first on ties
    return HgaResult(pop.chromosomes[best], pop.min_fitness, generation, trace, terminated_by)
