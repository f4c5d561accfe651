"""Steady-state hybrid genetic algorithm over assignment chromosomes.

One generation = select two random parents, one-point crossover, flip two
random genes in each offspring, deterministically improve each offspring
(one nearest-centroid reassignment pass with guarded acceptance), then
try to replace the current worst chromosome with each offspring in turn.
The run stops after a doldrum window of doldrum_factor * population_size
consecutive generations without a strict decrease of the population
minimum fitness, or at the max_generations safety cap.

All randomness flows from a single numpy PCG64 generator seeded with the
run seed, so a run is a pure function of (points, config).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .clustering import Chromosome, as_points, chromosome_fitness, reassign_nearest
from .errors import ContractError, InputError

TraceSink = Callable[[int, float, float], None]


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


@dataclass
class Population:
    chromosomes: list[Chromosome]
    fitness: np.ndarray
    min_index: int = 0
    max_index: int = 0

    @classmethod
    def from_chromosomes(cls, chromosomes: list[Chromosome]) -> "Population":
        if any(c.cached_fitness is None for c in chromosomes):
            raise ContractError("every chromosome must be evaluated first")
        fitness = np.array([c.cached_fitness for c in chromosomes], dtype=np.float64)
        pop = cls(chromosomes, fitness)
        pop.refresh_extremes()
        return pop

    def refresh_extremes(self) -> None:
        # argmin/argmax take the first occurrence, which fixes ties deterministically
        self.min_index = int(np.argmin(self.fitness))
        self.max_index = int(np.argmax(self.fitness))

    @property
    def size(self) -> int:
        return len(self.chromosomes)

    @property
    def min_fitness(self) -> float:
        return float(self.fitness[self.min_index])

    @property
    def max_fitness(self) -> float:
        return float(self.fitness[self.max_index])


@dataclass
class HgaResult:
    best_chromosome: Chromosome
    best_fitness: float
    generations_run: int
    min_fitness_trace: list[float]
    terminated_by: str  # "doldrum" or "cap"


def init_population(
    points, config: HgaConfig, rng: np.random.Generator
) -> Population:
    """Fair-coin chromosomes, all evaluated (and optionally improved)."""
    xy = as_points(points)
    n = xy.shape[0]
    if n < 2:
        raise ContractError("need at least 2 points")
    chromosomes = []
    for _ in range(config.population_size):
        chrom = Chromosome(rng.integers(0, 2, size=n, dtype=np.uint8))
        if config.improve_initial_population:
            chrom = deterministic_improvement(xy, chrom)  # evaluates as a side effect
        else:
            chromosome_fitness(xy, chrom)
        chromosomes.append(chrom)
    return Population.from_chromosomes(chromosomes)


def _distinct_pair(rng: np.random.Generator, n: int) -> tuple[int, int]:
    """Two distinct indices below ``n``, uniform over ordered pairs."""
    first = int(rng.integers(n))
    second = int(rng.integers(n - 1))
    if second >= first:
        second += 1
    return first, second


def select_parents(pop: Population, rng: np.random.Generator) -> tuple[int, int]:
    """Two distinct indices, uniform over ordered pairs."""
    if pop.size < 2:
        raise ContractError("selection needs a population of at least 2")
    return _distinct_pair(rng, pop.size)


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


def deterministic_improvement(points, chrom: Chromosome) -> Chromosome:
    """One nearest-centroid reassignment pass with guarded acceptance.

    Both centroids are computed from the input chromosome and held fixed
    for one :func:`reassign_nearest` pass. The candidate is kept only if
    its recomputed fitness does not exceed the input's, so this step can
    never make a chromosome worse. A chromosome with an empty cluster is
    returned unchanged.
    """
    xy = as_points(points)
    base = chromosome_fitness(xy, chrom)
    if base.low_centroid is None or base.high_centroid is None:
        return chrom
    new_genes, _ = reassign_nearest(xy, base.low_centroid, base.high_centroid, chrom.genes)
    if np.array_equal(new_genes, chrom.genes):
        return chrom
    candidate = Chromosome(new_genes)
    if chromosome_fitness(xy, candidate).total <= base.total:
        return candidate
    return chrom


def steady_state_replace(pop: Population, offspring: Chromosome) -> bool:
    """Overwrite the worst chromosome if the offspring is strictly better."""
    if offspring.cached_fitness is None:
        raise ContractError("offspring fitness must be evaluated before replacement")
    if offspring.cached_fitness < pop.fitness[pop.max_index]:
        pop.chromosomes[pop.max_index] = offspring
        pop.fitness[pop.max_index] = offspring.cached_fitness
        pop.refresh_extremes()
        return True
    return False


def run_hga(points, config: HgaConfig, trace_sink: TraceSink | None = None) -> HgaResult:
    """Run the full loop; deterministic given (points, config)."""
    xy = as_points(points)
    rng = np.random.default_rng(config.seed)
    pop = init_population(xy, config, rng)

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
            if config.improvement_enabled:
                child = deterministic_improvement(xy, child)
            else:
                chromosome_fitness(xy, child)
            steady_state_replace(pop, child)

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

    best = pop.chromosomes[pop.min_index]
    return HgaResult(best, pop.min_fitness, generation, trace, terminated_by)
