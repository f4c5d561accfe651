import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgaclust import hga
from hgaclust.clustering import Chromosome, chromosome_fitness
from hgaclust.errors import ContractError
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

from oracles import brute_force_min_fitness, python_improvement

TWO_PAIRS = np.array([[0.0, 0.0], [0.0, 2.0], [10.0, 0.0], [10.0, 2.0]])
# a few exact values, so that ties and +inf (an empty cluster) come up often
FITNESS = st.sampled_from([0.0, 1.0, 2.5, math.inf]) | st.floats(0, 100)


def bits(text):
    return Chromosome(np.array([int(c) for c in text], dtype=np.uint8))


class TestInitPopulation:
    def test_shape(self):
        rng = np.random.default_rng(0)
        pop = init_population(np.zeros((5, 2)) + np.arange(5)[:, None], HgaConfig(population_size=4), rng)
        assert len(pop.chromosomes) == 4
        assert all(len(c) == 5 for c in pop.chromosomes)
        assert not np.isnan(pop.fitness).any()

    def test_same_seed_identical(self):
        pts = np.random.default_rng(1).normal(size=(8, 2))
        pops = [
            init_population(pts, HgaConfig(population_size=6), np.random.default_rng(42))
            for _ in range(2)
        ]
        for a, b in zip(pops[0].chromosomes, pops[1].chromosomes):
            assert np.array_equal(a.genes, b.genes)
        assert np.array_equal(pops[0].fitness, pops[1].fitness)

    def test_full_scale_population(self, prepared):
        *_, projected = prepared
        rng = np.random.default_rng(3)
        pop = init_population(projected, HgaConfig(population_size=2500), rng)
        assert len(pop.chromosomes) == 2500
        assert all(c.cached_fitness is not None for c in pop.chromosomes)

    def test_all_one_sided_population_is_repaired(self):
        # seed 1 draws [1, 1] for both chromosomes: flipping gene 0 of the
        # first gives the only split, without another draw from the rng
        rng = np.random.default_rng(1)
        pop = init_population(TWO_PAIRS[:2], HgaConfig(population_size=2), rng)
        assert [c.genes_string() for c in pop.chromosomes] == ["01", "11"]
        assert pop.fitness.tolist() == [0.0, math.inf]
        assert (pop.min_fitness, pop.max_fitness) == (0.0, math.inf)
        after = np.random.default_rng(1)
        after.integers(0, 2, size=2, dtype=np.uint8)
        after.integers(0, 2, size=2, dtype=np.uint8)
        assert rng.integers(1 << 30) == after.integers(1 << 30)

    def test_extreme_indices_consistent(self):
        pts = np.random.default_rng(2).normal(size=(10, 2))
        pop = init_population(pts, HgaConfig(population_size=30), np.random.default_rng(5))
        totals = [chromosome_fitness(pts, c).total for c in pop.chromosomes]
        assert pop.fitness.tolist() == totals
        assert (pop.min_fitness, pop.max_fitness) == (min(totals), max(totals))


class TestSelectParents:
    def test_size_two_forced(self):
        chroms = [Chromosome(np.array(genes, dtype=np.uint8)) for genes in ([0, 1], [1, 0])]
        pop = Population(chroms, np.array([1.0, 2.0]))
        rng = np.random.default_rng(0)
        for _ in range(20):
            pair = select_parents(pop, rng)
            assert sorted(pair) == [0, 1]

    def test_empirical_uniformity(self):
        chroms = [Chromosome(np.array([0, 1], dtype=np.uint8)) for _ in range(10)]
        pop = Population(chroms, np.arange(10.0))
        rng = np.random.default_rng(123)
        counts = np.zeros(10)
        draws = 100_000
        for _ in range(draws):
            i, j = select_parents(pop, rng)
            assert i != j
            counts[i] += 1
            counts[j] += 1
        freqs = counts / draws
        assert np.abs(freqs - 0.2).max() < 0.01

    def test_same_seed_same_sequence(self):
        chroms = [Chromosome(np.array([0, 1], dtype=np.uint8)) for _ in range(7)]
        pop = Population(chroms, np.arange(7.0))
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        seq_a = [select_parents(pop, rng_a) for _ in range(50)]
        seq_b = [select_parents(pop, rng_b) for _ in range(50)]
        assert seq_a == seq_b


class TestCrossover:
    def test_known_vectors_at_cut_four(self):
        o1, o2 = one_point_crossover(bits("10110"), bits("00011"), None, cut=4)
        assert o1.genes_string() == "10111"
        assert o2.genes_string() == "00010"

    def test_identical_parents(self):
        rng = np.random.default_rng(0)
        p = bits("10101")
        for _ in range(10):
            o1, o2 = one_point_crossover(p, p, rng)
            assert o1.genes_string() == "10101"
            assert o2.genes_string() == "10101"

    def test_length_two_forced_cut(self):
        o1, o2 = one_point_crossover(bits("10"), bits("01"), np.random.default_rng(0))
        assert o1.genes_string() == "11"
        assert o2.genes_string() == "00"

    def test_cut_range_exhausted(self):
        rng = np.random.default_rng(1)
        cuts = set()
        for _ in range(200):
            o1, _ = one_point_crossover(bits("0000"), bits("1111"), rng)
            cuts.add(o1.genes_string())
        assert cuts == {"0111", "0011", "0001"}  # cuts 1, 2, 3

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            one_point_crossover(bits("101"), bits("10"), np.random.default_rng(0))


class TestMutation:
    def test_known_vector_first_offspring(self):
        mutated = two_point_mutation(bits("10111"), None, positions=(1, 4))
        assert mutated.genes_string() == "11110"

    def test_known_vector_second_offspring(self):
        mutated = two_point_mutation(bits("00010"), None, positions=(0, 3))
        assert mutated.genes_string() == "10000"

    def test_involution(self):
        original = bits("0110101")
        once = two_point_mutation(original, None, positions=(2, 5))
        twice = two_point_mutation(once, None, positions=(2, 5))
        assert np.array_equal(twice.genes, original.genes)

    def test_flips_exactly_two_positions(self):
        rng = np.random.default_rng(4)
        original = bits("000000000")
        for _ in range(100):
            mutated = two_point_mutation(original, rng)
            assert int(mutated.genes.sum()) == 2

    def test_cache_not_carried_over(self):
        c = bits("0011")
        c.cached_fitness = 4.0
        mutated = two_point_mutation(c, np.random.default_rng(0))
        assert mutated.cached_fitness is None


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
            breakdown = chromosome_fitness(pts, c)
            if breakdown.low_centroid is None or breakdown.high_centroid is None:
                continue
            improved = deterministic_improvement(pts, c)
            centroids = np.array([breakdown.low_centroid, breakdown.high_centroid])

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
            assert improved.cached_fitness.hex() == expected_fitness.hex()
            # the input itself comes back when no point moves or the candidate is rejected
            assert (improved is chrom) == (expected_genes == genes)


class TestSteadyStateReplace:
    def _population(self, fitnesses):
        chroms = [Chromosome(np.array([0, 1, 0], dtype=np.uint8), f) for f in fitnesses]
        return Population(chroms, np.array(fitnesses, dtype=np.float64))

    def test_strict_improvement_replaces_worst(self):
        pop = self._population([5.0, 3.0, 4.0, 1.0])
        offspring = Chromosome(np.array([1, 1, 0], dtype=np.uint8), 3.0)
        assert steady_state_replace(pop, offspring)
        assert pop.max_fitness == 4.0
        assert pop.chromosomes[0] is offspring

    def test_tie_leaves_population_unchanged(self):
        pop = self._population([5.0, 3.0])
        offspring = Chromosome(np.array([1, 1, 0], dtype=np.uint8), 5.0)
        assert not steady_state_replace(pop, offspring)
        assert pop.fitness.tolist() == [5.0, 3.0]

    def test_two_offspring_evict_two_worst(self):
        pop = self._population([5.0, 3.0, 4.0, 1.0])
        first = Chromosome(np.array([1, 0, 0], dtype=np.uint8), 2.0)
        second = Chromosome(np.array([0, 0, 1], dtype=np.uint8), 3.5)
        assert steady_state_replace(pop, first)
        assert steady_state_replace(pop, second)  # compared against the updated max
        assert sorted(pop.fitness.tolist()) == [1.0, 2.0, 3.0, 3.5]

    def test_lowest_index_replaced_on_shared_maximum(self):
        pop = self._population([4.0, 4.0, 1.0])
        offspring = Chromosome(np.array([1, 0, 1], dtype=np.uint8), 0.5)
        steady_state_replace(pop, offspring)
        assert pop.fitness.tolist() == [0.5, 4.0, 1.0]

    def test_unevaluated_offspring_rejected(self):
        pop = self._population([2.0, 1.0])
        with pytest.raises(ContractError):
            steady_state_replace(pop, Chromosome(np.array([0, 1, 0], dtype=np.uint8)))

    @settings(max_examples=200)
    @given(st.lists(FITNESS, min_size=2, max_size=8), st.lists(FITNESS, max_size=20))
    def test_matches_a_list_oracle(self, initial, stream):
        # the oracle: the first maximum is the worst, replaced only on a strict decrease
        pop = self._population(initial)
        expected = list(initial)
        for value in stream:
            offspring = Chromosome(np.array([1, 1, 0], dtype=np.uint8), value)
            worst = expected.index(max(expected))
            accepted = value < expected[worst]
            if accepted:
                expected[worst] = value
            assert steady_state_replace(pop, offspring) == accepted
            assert pop.fitness.tolist() == expected
            assert (pop.chromosomes[worst] is offspring) == accepted


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
        memo = {}
        for genes in stream:
            plain_in = Chromosome(np.array(genes, dtype=np.uint8))
            memo_in = Chromosome(np.array(genes, dtype=np.uint8))
            plain = deterministic_improvement(points, plain_in)
            memoized = deterministic_improvement(points, memo_in, memo)
            assert np.array_equal(memoized.genes, plain.genes)
            assert memoized.cached_fitness.hex() == plain.cached_fitness.hex()
            # the input itself comes back on a no-op or a rejection
            assert (memoized is memo_in) == (plain is plain_in)

    def test_repeated_candidate_is_looked_up(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            hga, "chromosome_fitness", lambda *a: calls.append(1) or chromosome_fitness(*a)
        )
        memo = {}
        first = deterministic_improvement(TWO_PAIRS, bits("0111"), memo)
        again = deterministic_improvement(TWO_PAIRS, bits("0111"), memo)
        assert first.genes_string() == again.genes_string() == "0011"
        assert again.cached_fitness.hex() == first.cached_fitness.hex()
        assert len(calls) == 3  # two bases, one candidate
        assert memo == {np.packbits(first.genes).tobytes(): 4.0}


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

        def spy(points, chrom, memo=None):
            result = deterministic_improvement(points, chrom, memo)
            sizes.append(len(memo))
            return result

        monkeypatch.setattr(hga, "deterministic_improvement", spy)
        assert self._runs(projected) == with_memo
        assert max(sizes) == 5

    def test_memo_saves_fitness_calls(self, prepared, monkeypatch):
        *_, projected = prepared
        calls = {"fitness": 0, "improve": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(hga, "chromosome_fitness", counted("fitness", chromosome_fitness))
        monkeypatch.setattr(
            hga, "deterministic_improvement", counted("improve", deterministic_improvement)
        )
        config = HgaConfig(population_size=20, seed=0)
        run_hga(projected, config)
        assert calls["improve"] > 0
        assert calls["fitness"] < config.population_size + 2 * calls["improve"]


class TestRunHgaFrozen:
    """Whole runs frozen bit for bit: best fitness, genes, length, stop and trace.

    The path has no PCA and no BLAS call, only elementwise IEEE arithmetic
    and ``math.fsum``, so the bits hold on every platform.
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
