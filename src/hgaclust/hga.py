"""Steady-state hybrid genetic algorithm over a (P, n) uint8 gene matrix.

One generation = select two random parents, one-point crossover, flip two
random genes in each offspring, deterministically improve each offspring
(one nearest-centroid reassignment pass with guarded acceptance), then
try to replace the current worst chromosome with each offspring in turn.
The run stops after a doldrum window of doldrum_factor * population_size
consecutive generations without a strict decrease of the population
minimum fitness, or at the max_generations safety cap.

All randomness flows from a single numpy PCG64 generator seeded with the
run seed, so a run is a pure function of (points, config). The initial genes are one
``integers`` call over rows padded to whole 32-bit words (a uint8 call drops the rest of its
last word), as one call per row. The loop runs in blocks of K generations: one ``integers``
call over the block's bounds takes its draws, with the values and final state of one scalar
call per draw, and no draw depends on the data.
:func:`_children` builds a block's children and one scoring pass scores them; then
:func:`run_hga` runs the generations in order, and one whose parent row was replaced earlier
in its block is rebuilt and scored alone. Fitness is a pure function of the genes, so every
result is bit-identical to one generation at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .clustering import (Chromosome, as_points, chromosome_fitness, fitness_block, fitness_totals,
                         lower_bounds, nearest, own_distances)
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
    """Fair-coin chromosomes from one draw for all rows, evaluated (and optionally improved with
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
    try:  # rows padded to whole 32-bit words: one draw takes the per-row draws' stream
        pop = Population(rng.integers(0, 2, (size, n + -n % 4), np.uint8)[:, :n], np.empty(size))
    except (MemoryError, ValueError) as exc:  # past the memory, or past numpy's size limit
        raise InputError(f"population_size {size} is too large for {n} points") from exc
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

    The input is evaluated once: :func:`nearest` reads the candidate off its distances, kept as
    a new chromosome iff its fitness is at most the input's exact total. Otherwise, or when no
    point moves or a cluster is empty, the input comes back. The input is never modified.
    """
    split = as_points(points)
    base, genes = chromosome_fitness(split, chrom), chrom.genes[None]
    cand = genes if base.distances is None else nearest(*base.distances, chrom.genes)[None]
    score = lambda rows: np.array([chromosome_fitness(split, Chromosome(r)).total for r in rows])
    memo = {} if memo is None else memo
    (kept,), _ = _improve(genes, cand, [base.total], lambda rows: [base.total], score, memo)
    return Chromosome(cand[0]) if kept else chrom


def _improve(genes, cands, bounds, exact, score, memo) -> tuple[np.ndarray, np.ndarray]:
    """The improvement rule over a (B, n) block: which rows keep their candidate, and each fitness.

    A candidate (``cands``) that moves a point is kept if its fitness does not exceed its row's:
    at most the row's ``bounds`` entry (at most its exact total) keeps it, else ``exact(rows)``,
    the exact totals of the rows left, decides. ``memo`` maps packed candidates to their totals
    (most children fall onto a few local optima); distinct misses go to one ``score(rows)``
    call, kept to MEMO_BUDGET_BYTES.
    """
    moved = (cands != genes).any(1).tolist()
    keys = [k.tobytes() if m else None for k, m in zip(np.packbits(cands, axis=1), moved)]
    misses = {key: b for b, key in enumerate(keys) if key is not None and key not in memo}
    found = dict(zip(misses, score(cands[list(misses.values())]).tolist())) if misses else {}
    for key, total in found.items():
        if (len(memo) + 1) * (len(key) + MEMO_ENTRY_OVERHEAD) <= MEMO_BUDGET_BYTES:
            memo[key] = total
    fitness = np.array([np.nan if k is None else (found if k in found else memo)[k] for k in keys])
    kept = fitness <= bounds  # NaN (no move, or no usable bound) keeps nothing yet
    if (left := (~kept).nonzero()[0]).size:  # a slice when every row is left: nothing copied
        base = np.asarray(exact(left if left.size < len(kept) else slice(None)), dtype=np.float64)
        kept[left] = fitness[left] <= base
        fitness[left] = np.where(kept[left], fitness[left], base)
    return kept, fitness


def _scored_block(split, genes: np.ndarray, improve: bool, memo: dict) -> np.ndarray:
    """Each row's fitness, a (B, n) block's rows first improved in place with ``memo`` if asked."""
    if not improve:  # the totals alone: no distance to the other centroid is read
        own, empty = own_distances(split, genes)
        return fitness_totals(own, genes, empty)
    d, own, empty = fitness_block(split, genes)
    cands = nearest(d[:, 0], d[:, 1], genes)  # NaN distances keep a row with an empty cluster
    exact = lambda rows: fitness_totals(own[rows], genes[rows], empty[rows])
    score = lambda rows: _scored_block(split, rows, False, memo)
    kept, fitness = _improve(genes, cands, lower_bounds(own), exact, score, memo)
    genes[kept] = cands[kept]
    return fitness


def _score_into(split, genes, fitness, improve, memo) -> None:
    """:func:`_scored_block` in place over chunks of BLOCK_CELLS cells, a row at least."""
    step = max(1, BLOCK_CELLS // genes.shape[1])
    for rows in (slice(start, start + step) for start in range(0, len(genes), step)):
        fitness[rows] = _scored_block(split, genes[rows], improve, memo)


def steady_state_replace(pop: Population, genes: np.ndarray, fitness: float) -> bool:
    """Copy ``genes`` into the worst (first maximal) row if their ``fitness`` is lower."""
    worst = int(pop.fitness.argmax())
    if fitness < pop.fitness[worst]:
        pop.genes[worst], pop.fitness[worst] = genes, fitness
        return True
    return False


def _children(genes: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Rows 2g and 2g + 1: the children of draws ``block[g]``, as the operators build them."""
    parents = genes[np.array(_distinct_pair(block[:, 0], block[:, 1])).T]  # (K, 2, n)
    # where the two parents differ from the cut on: flipping those bits swaps their tails
    swap = (parents[:, 0] ^ parents[:, 1]) & (np.arange(genes.shape[1]) >= block[:, 2:3])
    children = (parents ^ swap[:, None]).reshape(2 * len(block), -1)
    if block.shape[1] > 3:
        flips = np.array(_distinct_pair(*block[:, 3:].reshape(-1, 2).T)).T
        children[np.arange(len(children))[:, None], flips] ^= 1
    return children


def run_hga(points, config: HgaConfig, trace_sink: TraceSink | None = None) -> HgaResult:
    """Run the full loop; deterministic given (points, config), with a finite best fitness.

    A generation whose parent row's fitness changed since its block was scored (a replacement
    lowers it) is stale: it is rebuilt from the updated matrix and scored alone. The population
    minimum is carried, not rescanned: only an accepted child can lower it.
    """
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
    window, cap = config.doldrum_factor * size, config.max_generations
    current_min, doldrum, trace = pop.min_fitness, 0, []

    while len(trace) < cap and doldrum < window:
        block = rng.integers(low, high).reshape(k, len(bounds))
        parents = [pair.tolist() for pair in _distinct_pair(block[:, 0], block[:, 1])]
        children, fitness = _children(pop.genes, block), np.empty(2 * k)
        _score_into(split, children, fitness, improve, memo)
        for g, (i, j, fi, fj) in enumerate(zip(*parents, *pop.fitness[parents].tolist())):
            rows = slice(2 * g, 2 * g + 2)
            if pop.fitness[i] != fi or pop.fitness[j] != fj:
                children[rows] = _children(pop.genes, block[g:g + 1])
                _score_into(split, children[rows], fitness[rows], improve, memo)
            doldrum += 1
            for genes, value in zip(children[rows], fitness[rows].tolist()):
                if steady_state_replace(pop, genes, value) and value < current_min:
                    current_min, doldrum = value, 0
            trace.append(current_min)
            if trace_sink is not None:
                trace_sink(len(trace), current_min, pop.max_fitness)
            if len(trace) == cap or doldrum >= window:
                break  # the rest of the block's draws go unused

    best = Chromosome(pop.genes[pop.fitness.argmin()].copy())  # the first minimum on ties
    terminated_by = "doldrum" if doldrum >= window else "cap"
    return HgaResult(best, current_min, len(trace), trace, terminated_by)
