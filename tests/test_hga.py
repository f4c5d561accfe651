import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from hgaclust import clustering, hga
from hgaclust.clustering import Chromosome, chromosome_fitness
from hgaclust.errors import ContractError, InputError
from hgaclust.hga import (
    HgaConfig,
    Population,
    deterministic_improvement,
    init_population,
    one_point_crossover,
    run_hga,
    select_parents,
    steady_state_replace,
    two_point_mutation,
)

from oracles import brute_force_min_fitness, python_improvement, python_run_hga

TWO_PAIRS = np.array([[0.0, 0.0], [0.0, 2.0], [10.0, 0.0], [10.0, 2.0]])
# a few exact values, so that ties and +inf (an empty cluster) come up often
FITNESS = st.sampled_from([0.0, 1.0, 2.5, math.inf]) | st.floats(0, 100)


def row(text):
    return np.array([int(c) for c in text], dtype=np.uint8)


def bits(text):
    return Chromosome(row(text))


def text(genes):
    return "".join(str(g) for g in genes.tolist())


def draw_pair(rng, size):
    """The two raw draws of a distinct pair below ``size``, as the GA takes them."""
    return int(rng.integers(size)), int(rng.integers(size - 1))


class TestInitPopulation:
    def test_shape(self):
        rng = np.random.default_rng(0)
        pop = init_population(np.zeros((5, 2)) + np.arange(5)[:, None], HgaConfig(population_size=4), rng)
        assert pop.genes.shape == (4, 5) and pop.genes.dtype == np.uint8
        assert not np.isnan(pop.fitness).any()

    def test_same_seed_identical(self):
        pts = np.random.default_rng(1).normal(size=(8, 2))
        pops = [
            init_population(pts, HgaConfig(population_size=6), np.random.default_rng(42))
            for _ in range(2)
        ]
        assert np.array_equal(pops[0].genes, pops[1].genes)
        assert np.array_equal(pops[0].fitness, pops[1].fitness)

    def test_full_scale_population(self, prepared):
        *_, projected = prepared
        rng = np.random.default_rng(3)
        pop = init_population(projected, HgaConfig(population_size=2500), rng)
        assert pop.genes.shape == (2500, projected.n_points)
        assert pop.fitness.shape == (2500,) and np.isfinite(pop.fitness).all()
        # scoring leaves the rows as drawn: one fair-coin draw per row
        again = np.random.default_rng(3)
        drawn = [again.integers(0, 2, size=projected.n_points, dtype=np.uint8) for _ in range(2500)]
        assert np.array_equal(pop.genes, np.array(drawn))

    # n = 1 to 9 covers n mod 4 = 0..3; where size * ceil(n / 4) is odd (7 * 1, 9 * 1, 13 * 1,
    # 5 * 1, 3 * 3) the draw ends on half of a 64-bit PCG64 output, the other half left spare
    @pytest.mark.parametrize(
        "size, n", [(7, 1), (9, 2), (13, 3), (5, 4), (5, 5), (6, 6), (3, 7), (4, 8), (3, 9)])
    @pytest.mark.parametrize("improve", [False, True], ids=["drawn", "improve-initial"])
    def test_one_draw_takes_the_per_row_stream(self, size, n, improve):
        points = np.random.default_rng(n).normal(size=(max(n, 2), 2))
        config = HgaConfig(population_size=size, improve_initial_population=improve)
        for seed in range(5):
            rng, per_row = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = [per_row.integers(0, 2, size=n, dtype=np.uint8) for _ in range(size)]
            if n == 1:  # below init's two points: the padded draw on its own
                genes = rng.integers(0, 2, (size, 4), np.uint8)[:, :1]
            else:
                genes = init_population(points, config, rng).genes
            if improve and n > 1:
                drawn = [deterministic_improvement(points, Chromosome(row)).genes for row in drawn]
            assert np.array_equal(genes, np.array(drawn))
            assert rng.bit_generator.state == per_row.bit_generator.state
            assert rng.integers(1 << 62) == per_row.integers(1 << 62)

    def test_all_one_sided_population_is_repaired(self):
        # seed 1 draws [1, 1] for both chromosomes: flipping gene 0 of the
        # first gives the only split, without another draw from the rng
        rng = np.random.default_rng(1)
        pop = init_population(TWO_PAIRS[:2], HgaConfig(population_size=2), rng)
        assert [text(genes) for genes in pop.genes] == ["01", "11"]
        assert pop.fitness.tolist() == [0.0, math.inf]
        assert (pop.min_fitness, pop.max_fitness) == (0.0, math.inf)
        after = np.random.default_rng(1)
        after.integers(0, 2, size=2, dtype=np.uint8)
        after.integers(0, 2, size=2, dtype=np.uint8)
        assert rng.integers(1 << 30) == after.integers(1 << 30)

    def test_extreme_indices_consistent(self):
        pts = np.random.default_rng(2).normal(size=(10, 2))
        pop = init_population(pts, HgaConfig(population_size=30), np.random.default_rng(5))
        totals = [chromosome_fitness(pts, Chromosome(genes)).total for genes in pop.genes]
        assert pop.fitness.tolist() == totals
        assert (pop.min_fitness, pop.max_fitness) == (min(totals), max(totals))


class TestSelectParents:
    def test_size_two_forced(self):
        pop = Population(np.array([[0, 1], [1, 0]], dtype=np.uint8), np.array([1.0, 2.0]))
        rng = np.random.default_rng(0)
        for _ in range(20):
            pair = select_parents(pop, *draw_pair(rng, 2))
            assert sorted(pair) == [0, 1]

    def test_empirical_uniformity(self):
        pop = Population(np.tile(np.array([0, 1], dtype=np.uint8), (10, 1)), np.arange(10.0))
        rng = np.random.default_rng(123)
        counts = np.zeros(10)
        draws = 100_000
        for _ in range(draws):
            i, j = select_parents(pop, *draw_pair(rng, 10))
            assert i != j
            counts[i] += 1
            counts[j] += 1
        freqs = counts / draws
        assert np.abs(freqs - 0.2).max() < 0.01

    def test_same_seed_same_sequence(self):
        pop = Population(np.tile(np.array([0, 1], dtype=np.uint8), (7, 1)), np.arange(7.0))
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        seq_a = [select_parents(pop, *draw_pair(rng_a, 7)) for _ in range(50)]
        seq_b = [select_parents(pop, *draw_pair(rng_b, 7)) for _ in range(50)]
        assert seq_a == seq_b

    @pytest.mark.parametrize("draws", [(3, 0), (0, 2), (-1, 0)])
    def test_draws_out_of_range(self, draws):
        pop = Population(np.zeros((3, 2), dtype=np.uint8), np.zeros(3))
        with pytest.raises(ContractError):
            select_parents(pop, *draws)


class TestCrossover:
    def test_known_vectors_at_cut_four(self):
        o1, o2 = one_point_crossover(row("10110"), row("00011"), 4)
        assert text(o1) == "10111"
        assert text(o2) == "00010"

    def test_identical_parents(self):
        rng = np.random.default_rng(0)
        p = row("10101")
        for _ in range(10):
            o1, o2 = one_point_crossover(p, p, int(rng.integers(1, 5)))
            assert text(o1) == "10101"
            assert text(o2) == "10101"

    def test_length_two_forced_cut(self):
        cut = int(np.random.default_rng(0).integers(1, 2))
        o1, o2 = one_point_crossover(row("10"), row("01"), cut)
        assert text(o1) == "11"
        assert text(o2) == "00"

    def test_cut_range_exhausted(self):
        rng = np.random.default_rng(1)
        cuts = set()
        for _ in range(200):
            o1, _ = one_point_crossover(row("0000"), row("1111"), int(rng.integers(1, 4)))
            cuts.add(text(o1))
        assert cuts == {"0111", "0011", "0001"}  # cuts 1, 2, 3

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            one_point_crossover(row("101"), row("10"), 1)

    @pytest.mark.parametrize("cut", [0, 5])
    def test_cut_out_of_range(self, cut):
        with pytest.raises(ContractError):
            one_point_crossover(row("10110"), row("00011"), cut)

    def test_children_are_fresh(self):
        p1, p2 = row("1100"), row("0011")
        o1, o2 = one_point_crossover(p1, p2, 2)
        o1[:] = o2[:] = 0
        assert (text(p1), text(p2)) == ("1100", "0011")


class TestMutation:
    def test_known_vector_first_offspring(self):
        genes = row("10111")
        two_point_mutation(genes, (1, 4))
        assert text(genes) == "11110"

    def test_known_vector_second_offspring(self):
        genes = row("00010")
        two_point_mutation(genes, (0, 3))
        assert text(genes) == "10000"

    def test_involution(self):
        original = row("0110101")
        genes = original.copy()
        two_point_mutation(genes, (2, 5))
        two_point_mutation(genes, (2, 5))
        assert np.array_equal(genes, original)

    def test_flips_exactly_two_positions(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            genes = row("000000000")
            two_point_mutation(genes, hga._distinct_pair(*draw_pair(rng, 9)))
            assert int(genes.sum()) == 2

    def test_mutates_only_its_child(self):
        p1, p2 = row("0011"), row("1100")
        o1, o2 = one_point_crossover(p1, p2, 2)
        two_point_mutation(o1, hga._distinct_pair(*draw_pair(np.random.default_rng(0), 4)))
        assert int((o1 != row("0000")).sum()) == 2
        assert (text(p1), text(p2), text(o2)) == ("0011", "1100", "1111")

    @pytest.mark.parametrize("positions", [(1, 1), (0, 4), (-1, 2)])
    def test_positions_out_of_range(self, positions):
        with pytest.raises(ContractError):
            two_point_mutation(row("0110"), positions)


@st.composite
def points_and_chromosomes(draw):
    """A few points on a coarse grid (ties included) and a stream of chromosomes."""
    n = draw(st.integers(2, 9))
    coords = st.integers(-3, 3).map(lambda v: v / 2)
    points = np.array(draw(st.lists(st.tuples(coords, coords), min_size=n, max_size=n)))
    genes = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    return points, draw(st.lists(genes, min_size=1, max_size=25))


class TestDeterministicImprovement:
    def test_single_misassigned_point_flips(self):
        pts = np.array([[10.0, 0.0], [0.0, 0.0], [2.0, 0.0], [10.0, 2.0], [12.0, 0.0]])
        before = bits("10111")
        after = deterministic_improvement(pts, before)
        assert after.genes_string() == "10011"
        assert np.array_equal(before.genes, np.array([1, 0, 1, 1, 1], dtype=np.uint8))

    @pytest.mark.parametrize(
        "points, genes, kept",
        [
            ([[10, 0], [0, 0], [2, 0], [10, 2], [12, 0]], "10111", True),
            ([[1.5, -0.5], [1.5, -1.0], [1.5, -1.5], [1.5, 1.5], [0.5, -1.5]], "11110", False),
            (TWO_PAIRS, "0011", False),
            (TWO_PAIRS, "1111", False),
        ],
        ids=["kept", "rejected", "no-move", "empty-cluster"],
    )
    def test_argument_is_left_as_it_was(self, points, genes, kept):
        chrom = bits(genes)
        array = chrom.genes
        improved = deterministic_improvement(np.array(points, dtype=float), chrom, {})
        assert (improved is not chrom) == kept
        assert chrom.genes is array and chrom.genes_string() == genes
        assert vars(chrom).keys() == {"genes"}  # nothing written onto the argument
        assert kept == (improved.genes is not array)

    def test_fixed_point_returned_unchanged(self):
        c = bits("0011")
        assert deterministic_improvement(TWO_PAIRS, c) is c

    def test_empty_cluster_returned_unchanged(self):
        c = bits("1111")
        assert deterministic_improvement(TWO_PAIRS, c) is c

    def test_never_increases_fitness(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            n = int(rng.integers(2, 30))
            pts = rng.normal(0, 5, size=(n, 2))
            c = Chromosome(rng.integers(0, 2, n, dtype=np.uint8))
            before = chromosome_fitness(pts, c).total
            after = chromosome_fitness(pts, deterministic_improvement(pts, c)).total
            assert after <= before

    def test_pass_never_increases_assigned_distance_sum(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            n = int(rng.integers(2, 25))
            pts = rng.normal(0, 5, size=(n, 2))
            c = Chromosome(rng.integers(0, 2, n, dtype=np.uint8))
            centroids, counts = clustering.as_points(pts).centroids(c.genes)
            if not counts.all():
                continue
            improved = deterministic_improvement(pts, c)

            def assigned_sum(genes):
                d = np.sqrt(((pts - centroids[genes]) ** 2).sum(axis=1))
                return math.fsum(d.tolist())

            assert assigned_sum(improved.genes) <= assigned_sum(c.genes)

    @settings(max_examples=200)
    @given(points_and_chromosomes())
    # a pass that moves a point but raises the fitness: the candidate is rejected
    @example((np.array([[1.5, -0.5], [1.5, -1.0], [1.5, -1.5], [1.5, 1.5], [0.5, -1.5]]),
              [[1, 1, 1, 1, 0]]))
    def test_matches_the_python_oracle(self, case):
        points, stream = case
        memo = {}
        for genes in stream:
            chrom = Chromosome(np.array(genes, dtype=np.uint8))
            improved = deterministic_improvement(points, chrom, memo)
            expected_genes, expected_fitness = python_improvement(points.tolist(), genes)
            assert improved.genes.tolist() == expected_genes
            assert chromosome_fitness(points, improved).total.hex() == expected_fitness.hex()
            # the input itself comes back when no point moves or the candidate is rejected
            assert (improved is chrom) == (expected_genes == genes)


class TestOnDemandTotal:
    """The improvement step keeps a candidate iff its fitness is at most the input's exact total."""

    @staticmethod
    def _improve(monkeypatch, points, genes):
        """The improvement of ``genes``, the input and the evaluations the step made."""
        bases = []

        def spy(split, chrom):
            bases.append(chromosome_fitness(split, chrom))
            return bases[-1]

        monkeypatch.setattr(hga, "chromosome_fitness", spy)
        chrom = bits(genes)
        improved = deterministic_improvement(np.array(points), chrom)
        return improved, chrom, bases

    @pytest.mark.parametrize(
        "points, genes, kept",
        [
            # point 3 moves; both assignments total exactly 6.0
            ([[0, 0], [-3, 0], [0, 0], [3, 0], [1, 0]], "11110", True),
            ([[1.5, -0.5], [1.5, -1.0], [1.5, -1.5], [1.5, 1.5], [0.5, -1.5]], "11110", False),
            (TWO_PAIRS, "0011", False),
            (TWO_PAIRS, "1111", False),
        ],
        ids=["tie", "rejected", "no-move", "empty-cluster"],
    )
    def test_exact_path(self, points, genes, kept, monkeypatch):
        improved, chrom, bases = self._improve(monkeypatch, points, genes)
        assert (improved is not chrom) == kept
        # kept on a tie, or the input: the total read back is the input's, bit for bit
        total = chromosome_fitness(np.array(points, dtype=float), improved).total
        assert total.hex() == bases[0].total.hex()

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_a_non_finite_point_is_refused(self, value):
        # a NaN or inf coordinate would make NaN totals: the split refuses it before any sum
        points = np.array([[0, 0], [1, 0], [value, 0], [5, 0]])
        with pytest.raises(InputError, match="finite"):
            deterministic_improvement(points, bits("0011"))
        with pytest.raises(InputError, match="finite"):
            chromosome_fitness(points, bits("0011"))

    def test_clear_gain_skips_the_exact_total(self, monkeypatch):
        points = [[10.0, 0.0], [0.0, 0.0], [2.0, 0.0], [10.0, 2.0], [12.0, 0.0]]
        improved, chrom, _ = self._improve(monkeypatch, points, "10111")
        assert improved.genes_string() == "10011" and chrom.genes_string() == "10111"
        assert chromosome_fitness(np.array(points), improved).total < chromosome_fitness(
            np.array(points), chrom).total

    def test_total_is_fixed_when_measured(self):
        # a mutation of the evaluated genes must not reach the total read afterwards
        points = np.array([[6.3, -6.6], [32.0, 5.2], [-26.8, 18.1], [65.2, 47.4],
                           [-35.2, -63.3], [-31.2, 2.1]])
        chrom = bits("000111")
        breakdown = chromosome_fitness(points, chrom)
        two_point_mutation(chrom.genes, (0, 3))
        assert breakdown.total.hex() == chromosome_fitness(points, bits("000111")).total.hex()

    def test_oracle_run_takes_both_paths(self, monkeypatch):
        outcomes = []  # per candidate that moves a point: decided by the bound alone
        improve = hga._improve

        def spy(genes, cands, bounds, exact, score, memo):
            asked = np.zeros(len(genes), dtype=bool)
            result = improve(genes, cands, bounds,
                             lambda rows: asked.__setitem__(rows, True) or exact(rows), score, memo)
            outcomes.extend((~asked[(cands != genes).any(1)]).tolist())
            return result

        monkeypatch.setattr(hga, "_improve", spy)
        # a coarse grid, so that ties and rejections come up
        points = np.random.default_rng(0).integers(-3, 4, size=(20, 2)) / 2
        knobs = {"population_size": 12, "seed": 0, "doldrum_factor": 2, "max_generations": 300}
        result = run_hga(points, HgaConfig(**knobs))
        fitness, genes, trace, terminated_by = python_run_hga(points.tolist(), **knobs)
        assert result.best_fitness.hex() == fitness.hex()
        assert result.best_chromosome.genes.tolist() == genes
        assert [value.hex() for value in result.min_fitness_trace] == [v.hex() for v in trace]
        assert (result.generations_run, result.terminated_by) == (len(trace), terminated_by)
        # decided by the bound, and left to the exact total
        assert outcomes.count(True) > 0 and outcomes.count(False) > 0


def scalar_generation(rng, size, n, mutation):
    """One generation's draws by scalar calls, in the GA's order."""
    draws = [int(rng.integers(size)), int(rng.integers(size - 1)), int(rng.integers(1, n))]
    for _ in range(2 * mutation):
        draws += [int(rng.integers(n)), int(rng.integers(n - 1))]
    return draws


def block_draw(rng, size, n, mutation, k):
    """``k`` generations' draws, one row each, by one array-bound call as ``run_hga`` takes them."""
    bounds = [(0, size), (0, size - 1), (1, n)] + [(0, n), (0, n - 1)] * 2 * mutation
    low, high = np.tile(np.array(bounds).T, k)
    return rng.integers(low, high).reshape(k, len(bounds))


class TestBlockDraws:
    """One array-bound ``integers`` call per block gives the scalar stream exactly."""

    # 2**31 + 1 rejects about half of its 32-bit halves; 2**32 - 1 is the largest
    # bound of one half; 2**32 and 2**40 take 64-bit words
    BOUNDS = [2, 3, 2**31 + 1, 2**32 - 1, 2**32, 2**40]
    GENERATIONS = 30  # 13 and 100 do not divide it: the last block draws past the run

    @pytest.mark.parametrize("mutation", [True, False], ids=["mutation", "no-mutation"])
    @pytest.mark.parametrize("size", BOUNDS)
    @pytest.mark.parametrize("n", BOUNDS)
    def test_equal_scalar_draws(self, n, size, mutation):
        for seed in range(20):
            scalar = np.random.default_rng(seed)
            # init's uint8 draws: 1 to 8 genes leave a spare 32-bit half or not
            scalar.integers(0, 2, size=1 + seed % 8, dtype=np.uint8)
            rows, states = [], []
            for _ in range(100):
                rows.append(scalar_generation(scalar, size, n, mutation))
                states.append(scalar.bit_generator.state)
            for k in (1, 2, 13, 100):
                block = np.random.default_rng(seed)
                block.integers(0, 2, size=1 + seed % 8, dtype=np.uint8)
                blocks = -(-self.GENERATIONS // k)
                drawn = [block_draw(block, size, n, mutation, k) for _ in range(blocks)]
                assert np.concatenate(drawn).tolist() == rows[:blocks * k]
                assert block.bit_generator.state == states[blocks * k - 1]

    @pytest.mark.parametrize(
        "size, n, k",
        [(12, 20, 2), (104, 20, 13), (800, 20, 100), (3, hga.BLOCK_CELLS // 2 + 1, 1)],
    )
    def test_run_takes_one_call_per_block(self, size, n, k, monkeypatch):
        taken, rebuilt, after_init = [], [], []
        init, children = hga.init_population, hga._children

        def spy_init(split, config, rng, memo):
            pop = init(split, config, rng, memo)
            after_init.append((rng, rng.bit_generator.state))
            return pop

        def spy_children(genes, block):
            # a block's first call takes all its K draw rows; a stale rebuild takes block[g:g + 1]
            if k > 1 and len(block) == 1:
                g, offset = divmod(block.ctypes.data - taken[-1].ctypes.data, block.strides[0])
                assert np.shares_memory(block, taken[-1]) and not offset
                assert block.tolist() == taken[-1][g:g + 1].tolist()
                rebuilt.append((len(taken), g))
            else:
                taken.append(block)
            return children(genes, block)

        monkeypatch.setattr(hga, "init_population", spy_init)
        monkeypatch.setattr(hga, "_children", spy_children)
        points = np.random.default_rng(0).normal(size=(n, 2))
        config = HgaConfig(population_size=size, doldrum_factor=100,
                           max_generations=self.GENERATIONS)
        assert run_hga(points, config).generations_run == self.GENERATIONS
        assert [len(block) for block in taken] == [k] * -(-self.GENERATIONS // k)
        # at most once per generation, in order; these runs all have a stale generation at K > 1,
        # and at K = 1 none can be stale
        assert rebuilt == sorted(set(rebuilt)) and bool(rebuilt) == (k > 1)
        ((rng, state),) = after_init
        scalar = np.random.default_rng()
        scalar.bit_generator.state = state
        assert np.concatenate(taken).tolist() == [
            scalar_generation(scalar, size, n, True) for _ in range(len(taken) * k)]
        assert rng.bit_generator.state == scalar.bit_generator.state

    def test_rejected_halves_are_redrawn(self):
        block, stepped = np.random.default_rng(5), np.random.default_rng(5)
        block_draw(block, 2**31 + 1, 3, False, 64)
        taken = 3 * 64
        for halves in range(4 * taken):
            if stepped.bit_generator.state == block.bit_generator.state:
                break
            stepped.integers(2**32, dtype=np.uint64)  # exactly one 32-bit half
        else:
            pytest.fail("the block's state is not a whole number of 32-bit halves ahead")
        assert halves > taken


class TestSteadyStateReplace:
    def _population(self, fitnesses):
        genes = np.tile(np.array([0, 1, 0], dtype=np.uint8), (len(fitnesses), 1))
        return Population(genes, np.array(fitnesses, dtype=np.float64))

    def test_strict_improvement_replaces_worst(self):
        pop = self._population([5.0, 3.0, 4.0, 1.0])
        offspring = row("110")
        assert steady_state_replace(pop, offspring, 3.0)
        assert pop.max_fitness == 4.0
        assert text(pop.genes[0]) == "110"
        offspring[:] = 0  # the population holds a copy
        assert text(pop.genes[0]) == "110"

    def test_tie_leaves_population_unchanged(self):
        pop = self._population([5.0, 3.0])
        assert not steady_state_replace(pop, row("110"), 5.0)
        assert pop.fitness.tolist() == [5.0, 3.0]
        assert [text(genes) for genes in pop.genes] == ["010", "010"]

    def test_two_offspring_evict_two_worst(self):
        pop = self._population([5.0, 3.0, 4.0, 1.0])
        assert steady_state_replace(pop, row("100"), 2.0)
        assert steady_state_replace(pop, row("001"), 3.5)  # compared against the updated max
        assert sorted(pop.fitness.tolist()) == [1.0, 2.0, 3.0, 3.5]
        assert [text(genes) for genes in pop.genes] == ["100", "010", "001", "010"]

    def test_lowest_index_replaced_on_shared_maximum(self):
        pop = self._population([4.0, 4.0, 1.0])
        steady_state_replace(pop, row("101"), 0.5)
        assert pop.fitness.tolist() == [0.5, 4.0, 1.0]

    @settings(max_examples=200)
    @given(st.lists(FITNESS, min_size=2, max_size=8), st.lists(FITNESS, max_size=20))
    def test_matches_a_list_oracle(self, initial, stream):
        # the oracle: the first maximum is the worst, replaced only on a strict decrease
        pop = Population(np.zeros((len(initial), 5), dtype=np.uint8), np.array(initial))
        expected, rows = list(initial), [[0] * 5 for _ in initial]
        for step, value in enumerate(stream, start=1):
            offspring = [(step >> bit) & 1 for bit in range(5)]  # a distinct row per step
            worst = expected.index(max(expected))
            accepted = value < expected[worst]
            if accepted:
                expected[worst], rows[worst] = value, offspring
            assert steady_state_replace(pop, np.array(offspring, dtype=np.uint8), value) == accepted
            assert pop.fitness.tolist() == expected
            assert pop.genes.tolist() == rows


class TestRunHga:
    def test_two_pairs_reaches_exhaustive_optimum(self):
        optimum, _ = brute_force_min_fitness(TWO_PAIRS.tolist())
        result = run_hga(TWO_PAIRS, HgaConfig(population_size=20, seed=0))
        assert result.best_fitness == optimum == 4.0

    def test_frozen_landscape_terminates_after_exact_window(self):
        # all points coincide, so every two-sided assignment has fitness 0 and
        # the minimum can never strictly decrease
        pts = np.zeros((6, 2))
        config = HgaConfig(
            population_size=10, doldrum_factor=2, improvement_enabled=False, seed=1
        )
        result = run_hga(pts, config)
        assert result.best_fitness == 0.0  # frozen from generation zero
        assert result.terminated_by == "doldrum"
        assert result.generations_run == 20
        assert result.min_fitness_trace == [0.0] * 20

    def test_same_seed_identical_result(self, prepared):
        *_, projected = prepared
        config = HgaConfig(population_size=40, seed=7)
        a = run_hga(projected, config)
        b = run_hga(projected, config)
        assert a.best_fitness == b.best_fitness
        assert a.generations_run == b.generations_run
        assert a.terminated_by == b.terminated_by
        assert a.min_fitness_trace == b.min_fitness_trace
        assert np.array_equal(a.best_chromosome.genes, b.best_chromosome.genes)

    def test_min_trace_non_increasing(self):
        pts = np.random.default_rng(10).normal(0, 4, size=(30, 2))
        result = run_hga(pts, HgaConfig(population_size=25, seed=3))
        trace = result.min_fitness_trace
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert result.best_fitness == trace[-1]

    def test_generation_cap(self):
        pts = np.random.default_rng(11).normal(size=(12, 2))
        result = run_hga(pts, HgaConfig(population_size=50, max_generations=5, seed=0))
        assert result.generations_run == 5
        assert result.terminated_by == "cap"
        assert len(result.min_fitness_trace) == 5

    def test_trace_sink_receives_every_generation(self):
        pts = np.random.default_rng(12).normal(size=(10, 2))
        rows = []
        result = run_hga(
            pts,
            HgaConfig(population_size=10, max_generations=30, seed=2),
            trace_sink=lambda gen, lo, hi: rows.append((gen, lo, hi)),
        )
        assert len(rows) == result.generations_run
        assert [r[0] for r in rows] == list(range(1, result.generations_run + 1))
        assert all(lo <= hi for _, lo, hi in rows)
        assert [lo for _, lo, _ in rows] == result.min_fitness_trace

    def test_improvement_accelerates_convergence(self):
        pts = np.random.default_rng(13).normal(0, 5, size=(40, 2))
        on = run_hga(pts, HgaConfig(population_size=30, seed=4))
        off = run_hga(
            pts, HgaConfig(population_size=30, improvement_enabled=False, seed=4)
        )
        assert on.best_fitness <= off.best_fitness


class TestImprovementMemo:
    @settings(max_examples=200)
    @given(points_and_chromosomes())
    def test_memo_gives_the_same_genes_bits_and_identity(self, case):
        points, stream = case
        split, memo = clustering.as_points(points), {}
        for genes in stream:
            plain_in = Chromosome(np.array(genes, dtype=np.uint8))
            memo_in = Chromosome(np.array(genes, dtype=np.uint8))
            plain = deterministic_improvement(points, plain_in)
            memoized = deterministic_improvement(points, memo_in, memo)
            assert np.array_equal(memoized.genes, plain.genes)
            # the input itself comes back on a no-op or a rejection
            assert (memoized is memo_in) == (plain is plain_in)
            # the loop's scoring pass: the memo, holding this row's candidate by now, gives an
            # empty memo's genes and fitness bits
            rows = np.array([genes, genes], dtype=np.uint8)
            filled = hga._scored_block(split, rows[:1], True, memo)
            empty = hga._scored_block(split, rows[1:], True, {})
            assert rows[0].tolist() == rows[1].tolist() == memoized.genes.tolist()
            assert [value.hex() for value in filled] == [value.hex() for value in empty]

    def test_repeated_candidate_is_looked_up(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            hga, "chromosome_fitness", lambda *a: calls.append(1) or chromosome_fitness(*a)
        )
        memo = {}
        first = deterministic_improvement(TWO_PAIRS, bits("0111"), memo)
        again = deterministic_improvement(TWO_PAIRS, bits("0111"), memo)
        assert first.genes_string() == again.genes_string() == "0011"
        assert chromosome_fitness(TWO_PAIRS, again).total.hex() == (4.0).hex()
        assert len(calls) == 3  # two bases, one candidate
        assert memo == {np.packbits(first.genes).tobytes(): 4.0}


@st.composite
def gene_blocks(draw):
    """Points on a coarse grid (ties) or wide floats, and a block of gene rows: random, all-0 and
    all-1 (an empty cluster), and repeats of them (one memo entry for each distinct candidate)."""
    n = draw(st.integers(2, 12))
    grid = st.integers(-3, 3).map(lambda v: v / 2)
    coord = draw(st.sampled_from([grid, st.floats(-1e6, 1e6, allow_nan=False)]))
    points = np.array(draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)))
    gene_row = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    rows = draw(st.lists(gene_row | st.sampled_from([[0] * n, [1] * n]), min_size=1, max_size=10))
    rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    return points, np.array(rows, dtype=np.uint8)


class TestBlockEqualsRow:
    """A block of rows scored by the block path gives each row's one-row genes and bits."""

    @settings(max_examples=300)
    @given(gene_blocks(), st.booleans(), st.booleans())
    @example((TWO_PAIRS, np.array([[0, 1, 1, 1], [0, 1, 1, 1], [1, 1, 1, 1], [0, 0, 1, 1]],
                                  dtype=np.uint8)), False, False)
    def test_block_matches_rows(self, case, prefill, undecided):
        points, genes = case
        split = clustering.as_points(points)
        memos = [{}, {}]  # block, rows
        if prefill:  # candidates of every other row already known
            for row in genes[::2]:
                deterministic_improvement(split, Chromosome(row.copy()), memos[0])
            memos[1].update(memos[0])
        scored = {"block": 0, "rows": 0}
        row_fitness = hga.chromosome_fitness
        with pytest.MonkeyPatch.context() as patch:
            if undecided:  # every guard left to the exact totals
                patch.setattr(hga, "lower_bounds", lambda own: np.full(len(own), math.nan))
            for kernel in ("fitness_block", "own_distances"):  # block rows, with or without both
                patch.setattr(hga, kernel, lambda split, g, f=getattr(hga, kernel): scored.update(
                    block=scored["block"] + len(g)) or f(split, g))
            patch.setattr(hga, "chromosome_fitness", lambda split, c: scored.update(
                rows=scored["rows"] + 1) or row_fitness(split, c))
            block_genes = genes.copy()
            fitness = hga._scored_block(split, block_genes, True, memos[0])
            rows = [deterministic_improvement(split, Chromosome(g.copy()), memos[1]) for g in genes]
        assert block_genes.tolist() == [row.genes.tolist() for row in rows]
        assert [value.hex() for value in fitness] == [
            chromosome_fitness(split, row).total.hex() for row in rows]
        # each distinct missing candidate is scored once, and stored as the rows store it
        assert scored["block"] == scored["rows"] and memos[0] == memos[1]
        totals = hga._scored_block(split, genes, False, {})
        assert [t.hex() for t in totals] == [chromosome_fitness(split, Chromosome(g)).total.hex()
                                             for g in genes]

    @pytest.mark.parametrize("extraction", [False, True], ids=["fsum", "extraction"])
    def test_totals_alone_match_the_rows(self, extraction, monkeypatch):
        # the totals-only path (own distances alone) gives chromosome_fitness's bits on both
        # sum paths: 40 points sum by fsum, and every sum is extracted past a crossover of 0
        if extraction:
            monkeypatch.setattr(clustering, "SUM_CROSSOVER", 0)
        rng = np.random.default_rng(7)
        split = clustering.as_points(rng.normal(0, 5, size=(40, 2)))
        genes = rng.integers(0, 2, (9, 40), dtype=np.uint8)
        genes[3], genes[6] = 0, 1  # empty clusters: +inf
        totals = hga._scored_block(split, genes.copy(), False, {})
        assert [t.hex() for t in totals] == [chromosome_fitness(split, Chromosome(g)).total.hex()
                                             for g in genes]
        assert math.isinf(totals[3]) and math.isinf(totals[6]) and np.isfinite(totals[:3]).all()


def _run_signature(result):
    return (
        result.best_fitness.hex(),
        result.best_chromosome.genes_string(),
        [value.hex() for value in result.min_fitness_trace],
        result.generations_run,
    )


class TestRunHgaMemo:
    SEEDS = (0, 1, 2)

    def _runs(self, projected):
        return [
            _run_signature(run_hga(projected, HgaConfig(population_size=20, seed=seed)))
            for seed in self.SEEDS
        ]

    def test_disabled_memo_gives_the_same_runs(self, prepared, monkeypatch):
        *_, projected = prepared
        with_memo = self._runs(projected)
        monkeypatch.setattr(hga, "MEMO_BUDGET_BYTES", 0)
        assert self._runs(projected) == with_memo

    def test_tiny_budget_caps_the_memo(self, prepared, monkeypatch):
        *_, projected = prepared
        with_memo = self._runs(projected)
        entry = (len(projected.points) + 7) // 8 + hga.MEMO_ENTRY_OVERHEAD
        monkeypatch.setattr(hga, "MEMO_BUDGET_BYTES", 5 * entry)
        sizes = []
        improve = hga._improve  # the improvement rule the loop applies to every child

        def spy(*args):  # the memo is the last argument
            result = improve(*args)
            sizes.append(len(args[-1]))
            return result

        monkeypatch.setattr(hga, "_improve", spy)
        assert self._runs(projected) == with_memo
        assert max(sizes) == 5

    def test_memo_saves_fitness_calls(self, prepared, monkeypatch):
        # rows scored and rows improved: the loop's kernel and rule, and any row scored alone
        *_, projected = prepared
        calls = {"fitness": 0, "improve": 0}

        def counted(name, fn, rows):
            def wrapper(*args):
                calls[name] += rows(args)
                return fn(*args)

            return wrapper

        for attribute, name, rows in [
            ("chromosome_fitness", "fitness", lambda args: 1),
            ("fitness_block", "fitness", lambda args: len(args[1])),
            ("own_distances", "fitness", lambda args: len(args[1])),
            ("_improve", "improve", lambda args: len(args[0])),
        ]:
            monkeypatch.setattr(hga, attribute, counted(name, getattr(hga, attribute), rows))
        config = HgaConfig(population_size=20, seed=0)
        run_hga(projected, config)
        assert calls["improve"] > 0
        assert calls["fitness"] < config.population_size + 2 * calls["improve"]


@st.composite
def ga_cases(draw):
    """Up to 40 points (a coarse grid for ties, or wide floats) and small GA knobs."""
    n = draw(st.integers(2, 40))
    coord = st.integers(-3, 3).map(lambda v: v / 2) | st.floats(-1e3, 1e3, allow_nan=False)
    points = np.array(draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)))
    return points, {
        "population_size": draw(st.integers(2, 12)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "doldrum_factor": draw(st.integers(1, 3)),
        "max_generations": draw(st.integers(1, 300)),
    }


class TestRunHgaOracle:
    """Whole runs against the list-based GA of tests/oracles.py, bit for bit."""

    @pytest.mark.parametrize(
        "improvement, mutation, improve_initial", list(itertools.product((True, False), repeat=3))
    )
    # a failing whole run is reported unshrunk: shrinking one took minutes
    @settings(max_examples=40, phases=[phase for phase in Phase if phase is not Phase.shrink])
    @given(ga_cases())
    # both initial chromosomes draw [1, 1], so the population is repaired
    @example((TWO_PAIRS[:2], {"population_size": 2, "seed": 1, "doldrum_factor": 2,
                              "max_generations": 50}))
    def test_matches_the_python_oracle(self, improvement, mutation, improve_initial, case):
        points, knobs = case
        flags = {
            "improvement_enabled": improvement,
            "mutation_enabled": mutation,
            "improve_initial_population": improve_initial,
        }
        result = run_hga(points, HgaConfig(**knobs, **flags))
        fitness, genes, trace, terminated_by = python_run_hga(points.tolist(), **knobs, **flags)
        assert result.best_fitness.hex() == fitness.hex()
        assert result.best_chromosome.genes.tolist() == genes
        assert [value.hex() for value in result.min_fitness_trace] == [v.hex() for v in trace]
        assert (result.generations_run, result.terminated_by) == (len(trace), terminated_by)


class TestGenerationBlocks:
    """The loop builds and scores K generations' children as one block, on one scoring path: the
    split refuses points whose sums could fail. A stale generation is rebuilt and scored alone,
    and once two children pass BLOCK_CELLS every generation is its own block (K = 1, one row per
    scoring pass). Both kinds must occur for the oracle comparisons to cover them."""

    @staticmethod
    def _oracle_runs(monkeypatch, points, seeds, **knobs):
        """Per seed, (generations run, generations rebuilt, generations stale) and the rows of
        every scoring pass; each run matches the oracle. A generation is stale when one of its
        parent rows was replaced earlier in its block, as seen by ``steady_state_replace``."""
        events, passes = [], []
        children, replace, scored = hga._children, hga.steady_state_replace, hga._scored_block

        def spy_children(genes, block):
            events.append(("children", list(zip(*hga._distinct_pair(block[:, 0], block[:, 1])))))
            return children(genes, block)

        def spy_replace(pop, genes, fitness):
            worst, accepted = int(pop.fitness.argmax()), replace(pop, genes, fitness)
            if accepted:
                events.append(("replace", worst))
            return accepted

        monkeypatch.setattr(hga, "_children", spy_children)
        monkeypatch.setattr(hga, "steady_state_replace", spy_replace)
        monkeypatch.setattr(hga, "_scored_block", lambda split, genes, *a: passes.append(
            len(genes)) or scored(split, genes, *a))
        counts = []
        for seed in seeds:
            events.clear()
            result = run_hga(points, HgaConfig(seed=seed, **knobs),
                             lambda *_: events.append(("generation", None)))
            expected = python_run_hga(points.tolist(), seed=seed, **knobs)
            fitness, genes, trace, terminated_by = expected
            assert result.best_fitness.hex() == fitness.hex()
            assert result.best_chromosome.genes.tolist() == genes
            assert [value.hex() for value in result.min_fitness_trace] == [v.hex() for v in trace]
            assert (result.generations_run, result.terminated_by) == (len(trace), terminated_by)
            pairs, g, replaced, pending, rebuilt, stale = [], 0, set(), set(), 0, 0
            for kind, value in events:
                if kind == "children" and g < len(pairs):  # within a block: a rebuild
                    rebuilt += 1
                elif kind == "children":
                    pairs, g, replaced = value, 0, set()
                elif kind == "replace":
                    pending.add(value)
                else:
                    stale += bool(replaced & set(pairs[g]))
                    replaced, pending, g = replaced | pending, set(), g + 1
            counts.append((result.generations_run, rebuilt, stale))
        return counts, passes

    def test_blocks_and_stale_generations_match_the_oracle(self, monkeypatch):
        # a coarse grid, so that ties and rejections come up; K = 2 at population 12
        points = np.random.default_rng(0).integers(-3, 4, size=(20, 2)) / 2
        counts, _ = self._oracle_runs(monkeypatch, points, range(4), population_size=12)
        # exactly the stale generations are rebuilt
        assert all(rebuilt == stale for _, rebuilt, stale in counts)
        generations, _, stale = map(sum, zip(*counts))
        assert 0 < stale < generations  # some generations were stale, most came from blocks

    def test_past_the_cell_cap_each_generation_is_a_block_of_one_row_passes(self, monkeypatch):
        n = hga.BLOCK_CELLS // 2 + 1  # two children pass the cap, so K = 1
        points = np.random.default_rng(1).normal(0, 3, size=(n, 2))
        counts, passes = self._oracle_runs(
            monkeypatch, points, [0], population_size=3, max_generations=3)
        assert counts == [(3, 0, 0)]
        assert set(passes) == {1}  # init, children and candidates each scored a row at a time

    @pytest.mark.parametrize("cap, stop", [(2, (2, "cap")), (3, (3, "doldrum")),
                                           (4, (3, "doldrum"))])
    def test_a_stop_inside_a_block_drops_the_rest_of_it(self, cap, stop):
        # K = 2 at population 2, and the doldrum window of 2 closes at generation 3, the first
        # of the second block: a cap of 3 closes on the same generation, and the doldrum wins
        points = [[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]]
        knobs = {"population_size": 2, "doldrum_factor": 1, "seed": 0, "max_generations": cap}
        result = run_hga(np.array(points), HgaConfig(**knobs))
        _, _, trace, terminated_by = python_run_hga(points, **knobs)
        assert (result.generations_run, result.terminated_by) == (len(trace), terminated_by) == stop
        assert [value.hex() for value in result.min_fitness_trace] == [v.hex() for v in trace]

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_a_non_finite_coordinate_is_refused(self, value):
        # inf - inf against an infinite centroid, or a NaN, would score NaN: refused before any draw
        points = np.random.default_rng(2).normal(size=(12, 2))
        points[3, 0] = value
        with pytest.raises(InputError, match="finite"):
            run_hga(points, HgaConfig(population_size=8))

    def test_coordinates_whose_sums_would_fail_are_refused(self):
        # inf - inf, or two points near +-1.7e308, would make fsum raise for some assignments
        # mid-run: refused before the first draw
        pairs = [(math.inf, -math.inf), (1.7e308, 1.7e308), (-1.7e308, -1.7e308)]
        for seed in range(90):
            rng = np.random.default_rng(seed)
            points = rng.normal(size=(12, 2))
            points[rng.choice(12, 2, replace=False), 0] = pairs[seed % 3]
            config = HgaConfig(population_size=2, max_generations=40, seed=seed,
                               improve_initial_population=bool(seed % 2))
            with pytest.raises(InputError):
                run_hga(points, config)

    @pytest.mark.parametrize("kernel, rows", [("own_distances", 12), ("fitness_block", 4)],
                             ids=["init", "block"])
    def test_a_kernel_error_propagates(self, kernel, rows, monkeypatch):
        # nothing catches a kernel error: it comes out of the run as it is
        scoring = getattr(hga, kernel)

        def broken(split, genes):
            if len(genes) == rows:  # all 12 initial rows, or a block of K = 2 generations
                raise ValueError("operands could not be broadcast together")
            return scoring(split, genes)

        monkeypatch.setattr(hga, kernel, broken)
        points = np.random.default_rng(3).normal(size=(20, 2))
        with pytest.raises(ValueError, match="broadcast"):
            run_hga(points, HgaConfig(population_size=12, max_generations=5))


class TestRunHgaFrozen:
    """Whole runs frozen bit for bit: best fitness, genes, length, stop and trace.

    The path has no PCA, only elementwise IEEE arithmetic, correctly
    rounded sums and one mat-vec whose every partial sum is exact, so the
    bits hold on every platform.
    """

    POINTS = np.random.default_rng(1).normal(size=(40, 2))
    # (flags, seed) -> (best_fitness.hex(), genes, generations_run, terminated_by,
    #                   sha256 of the comma-joined hex trace)
    FROZEN = {
        ("default", 0): (
            "0x1.f89d5b3b05b34p+4", "0100001011101101001011010111010110100011", 64, "doldrum",
            "28e2072896e87985d3808efe69a6e39f86ad7e3b959421343b20f0069ba9b034",
        ),
        ("default", 1): (
            "0x1.f89d5b3b05b34p+4", "1011110100010010110100101000101001011100", 67, "doldrum",
            "eebd96179bd69b457b8e70467e186aa7e4ba3456d5993b9b1e6bf4fdef4e5eaf",
        ),
        ("default", 2): (
            "0x1.f89d5b3b05b34p+4", "1011110100010010110100101000101001011100", 62, "doldrum",
            "88968a5916f4346de02f85cb90de3019089138f1706c2c9428bc02ea6d186263",
        ),
        ("improve_initial", 0): (
            "0x1.f89d5b3b05b34p+4", "1011110100010010110100101000101001011100", 60, "doldrum",
            "92fb806e0b56414e568cf33fcbbe9a33dcc5ea60134f2714ff5b8dbb49b0583a",
        ),
        ("improve_initial", 1): (
            "0x1.f89d5b3b05b34p+4", "1011110100010010110100101000101001011100", 60, "doldrum",
            "92fb806e0b56414e568cf33fcbbe9a33dcc5ea60134f2714ff5b8dbb49b0583a",
        ),
        ("improve_initial", 2): (
            "0x1.f89d5b3b05b34p+4", "1011110100010010110100101000101001011100", 60, "doldrum",
            "92fb806e0b56414e568cf33fcbbe9a33dcc5ea60134f2714ff5b8dbb49b0583a",
        ),
        ("no_improvement", 0): (
            "0x1.06159a9738581p+5", "0100101011101111001011010111110110010011", 328, "doldrum",
            "f4a3369415bff0277ba0a736c3e28b3bfd3acc6e3980216db3b0f5fa1e86f5a7",
        ),
        ("no_improvement", 1): (
            "0x1.24e9e5599e90dp+5", "0101000011001101001000011101011100101011", 60, "doldrum",
            "74eb18f20373cb92c024331e8362c1ba475bc80df264a1d2ba8513e994caa493",
        ),
        ("no_improvement", 2): (
            "0x1.fab40500b0b95p+4", "1011110100010010110100101000101001111100", 343, "doldrum",
            "8f396da5cfa9f53f328fbc57d7ce4778450ca93d7acaaaae183d220442d41416",
        ),
        ("no_mutation", 0): (
            "0x1.f89d5b3b05b34p+4", "0100001011101101001011010111010110100011", 65, "doldrum",
            "34af39bafb7d07bcb5dce4ac84caecd7084489121cbe225d1103b9bc99a12204",
        ),
        ("no_mutation", 1): (
            "0x1.04a9cfa86c697p+5", "0100001001001100001011010100010100100011", 80, "doldrum",
            "625c15764a37a25f8775ccd170e52897faebfd7642e7ecbb85aa6fad59affce9",
        ),
        ("no_mutation", 2): (
            "0x1.f89d5b3b05b34p+4", "1011110100010010110100101000101001011100", 64, "doldrum",
            "244727e67c734a5f9a2f05276688afbb8cde38010104395504195d8cbe098b4b",
        ),
    }
    FLAGS = {
        "default": {},
        "improve_initial": {"improve_initial_population": True},
        "no_improvement": {"improvement_enabled": False},
        "no_mutation": {"mutation_enabled": False},
    }

    @pytest.mark.parametrize("flags, seed", list(FROZEN), ids=[f"{f}-{s}" for f, s in FROZEN])
    def test_run_matches_frozen_signature(self, flags, seed):
        config = HgaConfig(population_size=30, seed=seed, **self.FLAGS[flags])
        result = run_hga(self.POINTS, config)
        trace = ",".join(value.hex() for value in result.min_fitness_trace)
        assert (
            result.best_fitness.hex(),
            result.best_chromosome.genes_string(),
            result.generations_run,
            result.terminated_by,
            hashlib.sha256(trace.encode()).hexdigest(),
        ) == self.FROZEN[flags, seed]

    @pytest.mark.parametrize("flags, seed", list(FROZEN), ids=[f"{f}-{s}" for f, s in FROZEN])
    def test_extraction_path_matches_frozen_signature(self, flags, seed, monkeypatch):
        # 40 points sum by fsum; with no crossover every sum takes the extraction path
        monkeypatch.setattr(clustering, "SUM_CROSSOVER", 0)
        self.test_run_matches_frozen_signature(flags, seed)
