import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgaclust import clustering
from hgaclust.clustering import Chromosome, chromosome_fitness, kmeans
from hgaclust.errors import ContractError

from oracles import brute_force_min_fitness, python_fitness, python_two_means


def chrom(bits):
    return Chromosome(np.array(bits, dtype=np.uint8))


@st.composite
def points_and_genes(draw, min_size=2, max_size=24):
    n = draw(st.integers(min_size, max_size))
    coord = st.floats(-1e6, 1e6, allow_nan=False)
    pts = np.array([[draw(coord), draw(coord)] for _ in range(n)])
    genes = [draw(st.integers(0, 1)) for _ in range(n)]
    return pts, genes


class TestChromosome:
    def test_equality_is_identity(self):
        a, b = chrom([0, 1, 1]), chrom([0, 1, 1])
        assert a == a and a != b
        assert a in [b, a] and b not in [a]
        breakdown = chromosome_fitness(np.eye(3, 2), a)
        assert breakdown == breakdown and breakdown != chromosome_fitness(np.eye(3, 2), a)

    # checked before the uint8 cast, which would give [0, 0], [0, 1] and [1, 0]
    @pytest.mark.parametrize("genes", [[0, 256], [0.5, 1.7], [1, 0.9]])
    def test_non_binary_genes_are_rejected(self, genes):
        with pytest.raises(ContractError, match="genes must be 0 or 1"):
            Chromosome(np.array(genes))

    def test_bool_and_integer_genes_are_cast(self):
        for genes in (np.array([True, False, True]), np.array([1, 0, 1]), [1.0, 0.0, 1.0]):
            c = Chromosome(genes)
            assert c.genes.dtype == np.uint8 and c.genes_string() == "101"


def centroids(pts, bits):
    return clustering.as_points(pts).centroids(chrom(bits).genes)


class TestCentroid:
    def test_midpoint(self):
        pts = np.array([[0.0, 0.0], [0.0, 2.0]])
        assert centroids(pts, [0, 0])[0] == (0.0, 1.0)

    def test_singleton(self):
        pts = np.array([[7.0, -3.0], [1.0, 1.0]])
        assert centroids(pts, [0, 1])[0] == (7.0, -3.0)

    def test_empty_cluster_marker(self):
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert centroids(pts, [1, 1])[0] is None

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            chromosome_fitness(np.zeros((3, 2)), chrom([0, 1]))


# A singleton cluster contributes exactly 0.0, so a far singleton in the
# other cluster makes the total equal, bit for bit, to one cluster's term.
FAR = [1000.0, -1000.0]


class TestClusterFitness:
    def test_symmetric_pair(self):
        pts = np.array([[0.0, 0.0], [0.0, 2.0], FAR])
        assert chromosome_fitness(pts, chrom([0, 0, 1])).total == 2.0

    def test_singleton_is_zero(self):
        pts = np.array([[5.0, 5.0], [0.0, 0.0]])
        assert chromosome_fitness(pts, chrom([0, 1])).total == 0.0

    def test_three_point_hand_computation(self):
        # centroid (2, 1); distances sqrt(5), sqrt(5), 2
        pts = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 3.0], FAR])
        expected = 2 * math.sqrt(5.0) + 2.0
        value = chromosome_fitness(pts, chrom([0, 0, 0, 1])).total
        assert value == pytest.approx(expected, abs=1e-12)
        # independent brute-force cross-check
        brute = math.fsum(
            math.sqrt((x - 2.0) ** 2 + (y - 1.0) ** 2) for x, y in pts[:3].tolist()
        )
        assert value == brute


class TestChromosomeFitness:
    def test_two_singletons(self):
        pts = np.array([[0.0, 0.0], [9.0, 9.0]])
        assert chromosome_fitness(pts, chrom([0, 1])).total == 0.0

    def test_symmetric_pairs(self):
        pts = np.array([[0.0, 0.0], [0.0, 2.0], [10.0, 0.0], [10.0, 2.0]])
        breakdown = chromosome_fitness(pts, chrom([0, 0, 1, 1]))
        assert breakdown.total == 4.0
        # each cluster's term on its own: the pair plus a far singleton
        for pair, genes in ((pts[:2], [0, 0, 1]), (pts[2:], [1, 1, 0])):
            assert chromosome_fitness(np.vstack([pair, FAR]), chrom(genes)).total == 2.0
        assert centroids(pts, [0, 0, 1, 1]) == [(0.0, 1.0), (10.0, 1.0)]

    def test_empty_cluster_is_infinite(self):
        pts = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 3.0]])
        breakdown = chromosome_fitness(pts, chrom([0, 0, 0]))
        assert breakdown.total == math.inf
        assert breakdown.distances is None
        assert centroids(pts, [0, 0, 0])[1] is None

    def test_cache_set_and_exactly_reproducible(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(17, 2))
        c = chrom(rng.integers(0, 2, 17))
        genes = c.genes.copy()
        first = chromosome_fitness(pts, c).total
        # evaluating leaves the chromosome as it was
        assert np.array_equal(c.genes, genes) and vars(c).keys() == {"genes"}
        assert chromosome_fitness(pts, c).total.hex() == first.hex()

    @pytest.mark.filterwarnings("error")  # the overflowing square is meant: no warning
    def test_a_point_past_the_square_root_of_the_largest_float_scores_inf(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1e200, 0.0], [2.0, 1.0]])
        assert chromosome_fitness(pts, chrom([0, 0, 1, 1])).total == math.inf
        assert chromosome_fitness(pts, chrom([0, 0, 0, 1])).total == math.inf
        # alone in its cluster, the far point adds 0 to the other cluster's finite sum
        total = chromosome_fitness(pts, chrom([0, 0, 1, 0])).total
        assert total.hex() == python_fitness(pts.tolist(), [0, 0, 1, 0]).hex()
        assert math.isfinite(total)

    def test_oracle_equality_on_random_cases(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(2, 20))
            pts = rng.normal(0, 50, size=(n, 2))
            genes = rng.integers(0, 2, n, dtype=np.uint8)
            lib = chromosome_fitness(pts, Chromosome(genes)).total
            ora = python_fitness(pts.tolist(), genes.tolist())
            assert lib == ora or (math.isinf(lib) and math.isinf(ora))

    @given(points_and_genes())
    def test_permutation_equivariance_exact(self, case):
        pts, genes = case
        baseline = chromosome_fitness(pts, chrom(genes)).total
        perm = np.random.default_rng(0).permutation(len(genes))
        permuted = chromosome_fitness(pts[perm], chrom(np.array(genes)[perm])).total
        assert permuted == baseline or (math.isinf(permuted) and math.isinf(baseline))

    @given(points_and_genes())
    def test_label_swap_invariance_exact(self, case):
        pts, genes = case
        a = chromosome_fitness(pts, chrom(genes)).total
        b = chromosome_fitness(pts, chrom([1 - g for g in genes])).total
        assert a == b or (math.isinf(a) and math.isinf(b))

    def test_zero_iff_singletons_or_coincident(self):
        singletons = np.array([[1.0, 1.0], [5.0, 5.0]])
        assert chromosome_fitness(singletons, chrom([0, 1])).total == 0.0
        coincident = np.array([[2.0, 2.0]] * 5)
        assert chromosome_fitness(coincident, chrom([0, 1, 0, 1, 1])).total == 0.0
        spread = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [6.0, 5.0]])
        assert chromosome_fitness(spread, chrom([0, 0, 1, 1])).total > 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_exhaustive_minimum_matches_oracle_exactly(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 13))
        pts = rng.normal(0, 3, size=(n, 2))
        oracle_min, _ = brute_force_min_fitness(pts.tolist())
        lib_min = min(
            chromosome_fitness(pts, chrom([(m >> i) & 1 for i in range(n)])).total
            for m in range(2 ** n)
        )
        assert lib_min == oracle_min


def fsum_bits(values, mask):
    try:
        return math.fsum(values[~mask].tolist()).hex(), math.fsum(values[mask].tolist()).hex()
    except OverflowError as exc:  # an intermediate sum passes float_info.max
        return repr(exc), repr(exc)


def cluster_sum_bits(values, mask):
    try:
        return tuple(total.hex() for total in clustering._cluster_sums(values, mask))
    except OverflowError as exc:
        return repr(exc), repr(exc)


MAX = sys.float_info.max
SUMMANDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # subnormals to float_info.max
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, MAX, -MAX, MAX / 4]),
)
# Cancelling pairs at twelve levels 180 binades apart, from 2**980 down, then
# 2**-1000 and 3.0: each extraction pass clears one level, so the sum (3.0 a
# copy) lives only in the remainder that the final fsum adds.
WIDE_SPAN = [m * 2.0 ** k for k in range(980, -1001, -180) for m in (1.5, -1.5)]
WIDE_SPAN += [2.0 ** -1000, 3.0]


class TestOnDemandTotal:
    """``FitnessBreakdown.total`` is summed on first read; the guard bound decides without it."""

    @pytest.mark.parametrize("extraction", [False, True], ids=["fsum", "extraction"])
    def test_first_read_gives_the_exact_total(self, extraction, monkeypatch):
        if extraction:  # every n is past the crossover
            monkeypatch.setattr(clustering, "SUM_CROSSOVER", 0)
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            pts = rng.normal(0, 50, size=(n, 2))
            genes = rng.integers(0, 2, n, dtype=np.uint8)
            breakdown = chromosome_fitness(pts, Chromosome(genes))
            assert "total" not in breakdown.__dict__
            total = breakdown.total
            assert total.hex() == python_fitness(pts.tolist(), genes.tolist()).hex()
            assert breakdown.__dict__["total"] is total

    THREE = 3.0 * (1 - 10 * 2.0**-52)  # the plain sum 1 + 2 less its margin for n = 2

    @pytest.mark.parametrize(
        "own, value, decided",
        [
            ([1.0, 2.0], 2.0, True),
            ([1.0, 2.0], THREE, True),
            ([1.0, 2.0], math.nextafter(THREE, 4.0), False),  # inside the margin
            ([1.0, 2.0], 3.0, False),  # a tie
            ([1.0, 2.0], 3.5, False),  # a rejection
            ([1.0, 2.0], math.nan, False),
            ([1.0, 2.0], math.inf, False),
            ([1.0, math.nan], 0.5, False),
            ([1.0, math.inf], 0.5, False),
            ([0.0, 0.0], 0.0, False),
            ([2.0**-1001, 2.0**-1001], 0.0, False),  # the plain sum is 2**-1000
            ([2.0**-1000, 2.0**-1000], 0.0, True),
            ([2.0**999, 2.0**999], 1.0, False),  # the plain sum is 2**1000
            ([2.0**998, 2.0**998], 1.0, True),
        ],
    )
    def test_bound_decides_only_far_from_ties_and_extremes(self, own, value, decided):
        own = np.array(own)
        genes = np.array([0, 1], dtype=np.uint8)
        breakdown = clustering.FitnessBreakdown(np.array([own, own]), own, genes)
        assert breakdown.total_at_least(value) is decided
        if decided:
            assert value <= breakdown.total


class TestClusterSums:
    """``_cluster_sums`` against ``math.fsum`` over each cluster, compared as hex."""

    @given(st.lists(st.tuples(SUMMANDS, st.booleans()), max_size=40), st.booleans())
    @example([(0.0, False), (-0.0, True), (0.0, True)], False)
    @example([(-0.0, False)] * 5, False)
    @example([(1.5, False), (-2.5, False), (1e-300, False)], False)
    @example([(MAX, True), (MAX, True), (-MAX, True)], False)
    @example([(MAX / 4, False), (1.0, True)], False)
    @example([(value, False) for value in WIDE_SPAN], False)
    def test_matches_fsum_on_both_paths(self, pairs, small_path):
        values = np.array([value for value, _ in pairs], dtype=np.float64)
        mask = np.array([bit for _, bit in pairs], dtype=bool)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(clustering, "SUM_CROSSOVER", len(pairs) + 1 if small_path else 0)
            assert cluster_sum_bits(values, mask) == fsum_bits(values, mask)

    @given(
        st.lists(SUMMANDS, min_size=1, max_size=12),
        st.integers(1024, 3000),
        st.integers(0, 2),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_fsum_at_and_above_the_crossover(self, pattern, n, sides, seed):
        rng = np.random.default_rng(seed)
        values = rng.permutation(np.resize(np.array(pattern, dtype=np.float64), n))
        mask = (np.zeros(n, bool), np.ones(n, bool), rng.random(n) < 0.5)[sides]
        assert cluster_sum_bits(values, mask) == fsum_bits(values, mask)

    def test_wide_span_reaches_the_final_fsum(self):
        values = np.resize(np.array(WIDE_SPAN), 2 * clustering.SUM_CROSSOVER)
        mask = np.arange(values.size) // 2 % 3 == 0  # keeps each pair in one cluster
        assert cluster_sum_bits(values, mask) == fsum_bits(values, mask)
        assert cluster_sum_bits(np.zeros(values.size), mask) == ("0x0.0p+0", "0x0.0p+0")
        assert cluster_sum_bits(-np.zeros(values.size), mask) == ("0x0.0p+0", "0x0.0p+0")

    def test_a_remainder_cleared_by_the_last_pass_is_none(self):
        # four cancelling levels of WIDE_SPAN: each pass clears one, the fourth the last
        values = np.resize(np.array(WIDE_SPAN[:8]), 2 * clustering.SUM_CROSSOVER)
        rows, rest = clustering._extract(values)
        assert len(rows) == clustering.EXTRACTION_PASSES and rest is None
        mask = np.arange(values.size) % 3 == 0
        assert cluster_sum_bits(values, mask) == fsum_bits(values, mask)

    def test_kernel_matches_the_oracle_on_the_extraction_path(self):
        rng = np.random.default_rng(11)
        n = 2 * clustering.SUM_CROSSOVER
        pts = rng.normal(0, 4, size=(n, 2)) + np.where(rng.random((n, 1)) < 0.5, 9.0, -9.0)
        chromosomes = [rng.integers(0, 2, n, dtype=np.uint8) for _ in range(3)]
        chromosomes.append((pts[:, 0] > 0).astype(np.uint8))
        one_point = np.zeros(n, dtype=np.uint8)
        one_point[int(rng.integers(n))] = 1
        chromosomes += [one_point, 1 - one_point]
        for genes in chromosomes:
            lib = chromosome_fitness(pts, Chromosome(genes)).total
            assert lib.hex() == python_fitness(pts.tolist(), genes.tolist()).hex()


def fsum_centroids(xy, genes):
    """Each cluster's mean by fsum over its own values, x before y as the kernel sums them."""
    try:
        x, y = ([math.fsum(xy[genes == side, axis].tolist()) for side in (0, 1)] for axis in (0, 1))
    except (OverflowError, ValueError) as exc:  # an intermediate overflow, or inf - inf
        return repr(exc)
    counts = [int(np.count_nonzero(genes == side)) for side in (0, 1)]
    return [((sx / k).hex(), (sy / k).hex()) if k else None for sx, sy, k in zip(x, y, counts)]


def split_centroids(xy, genes):
    try:
        centroids = clustering.SplitPoints(xy).centroids(genes)
    except (OverflowError, ValueError) as exc:
        return repr(exc)
    return [None if c is None else (c[0].hex(), c[1].hex()) for c in centroids]


class TestSplitPoints:
    """Centroids read off the once-per-run split against fsum over each cluster, as hex."""

    @given(st.lists(st.tuples(SUMMANDS, SUMMANDS, st.integers(0, 1)), min_size=1, max_size=40))
    @example([(0.0, -0.0, 0), (-0.0, -0.0, 1), (-0.0, 0.0, 0)])
    @example([(5e-324, 1e300, 0), (-MAX / 4, 1.0, 1), (1e-300, -5e-324, 1)])
    @example([(3.0, 4.0, 1)] + [(float(i), -float(i), 0) for i in range(6)])
    @example([(1.0, 2.0, 0), (3.0, 4.0, 0)])
    @example([(value, -value, i % 2) for i, value in enumerate(WIDE_SPAN)])
    def test_matches_fsum_below_the_crossover(self, rows):
        xy = np.array([(x, y) for x, y, _ in rows], dtype=np.float64)
        genes = np.array([side for *_, side in rows], dtype=np.uint8)
        assert split_centroids(xy, genes) == fsum_centroids(xy, genes)

    @given(
        st.lists(st.tuples(SUMMANDS, SUMMANDS), min_size=1, max_size=12),
        st.integers(clustering.SUM_CROSSOVER, 3000),
        st.integers(0, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_fsum_at_and_above_the_crossover(self, pattern, n, sides, seed):
        rng = np.random.default_rng(seed)
        xy = rng.permutation(np.resize(np.array(pattern, dtype=np.float64), (n, 2)))
        one_point = (np.arange(n) == rng.integers(n)).astype(np.uint8)
        genes = (np.zeros(n), np.ones(n), rng.random(n) < 0.5, one_point)[sides].astype(np.uint8)
        assert split_centroids(xy, genes) == fsum_centroids(xy, genes)

    def test_wide_span_leaves_a_remainder(self):
        xy = np.resize(np.array(WIDE_SPAN), (2 * clustering.SUM_CROSSOVER, 2))
        split = clustering.SplitPoints(xy)
        assert split.rest[0] is not None and split.rest[1] is not None
        genes = (np.arange(xy.shape[0]) % 3 == 0).astype(np.uint8)
        assert split_centroids(xy, genes) == fsum_centroids(xy, genes)

    def test_fixture_needs_no_remainder(self, prepared):
        *_, projected = prepared
        split = clustering.as_points(projected)
        assert split.rest == [None, None]
        assert split.pieces.shape == (sum(split.rows) + 1, projected.n_points)
        assert split.totals[-1] == projected.n_points

    AXES = {
        "plain": [1.0, -2.0, 0.5],
        "inf": [math.inf, 1.0, 2.0],
        "nan": [math.nan, 1.0, 3.0],
        "overflow": [MAX, MAX, -MAX],
        "inf-minus-inf": [math.inf, -math.inf, 1.0],
    }

    @pytest.mark.parametrize("x", list(AXES))
    @pytest.mark.parametrize("y", list(AXES))
    @pytest.mark.parametrize("genes", [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]])
    def test_specials_give_fsum_result_or_error(self, x, y, genes):
        # with both axes raising, x's error comes first, as in per-axis sums
        xy = np.array([self.AXES[x], self.AXES[y]]).T.copy()
        genes = np.array(genes, dtype=np.uint8)
        assert split_centroids(xy, genes) == fsum_centroids(xy, genes)


class TestSplitSeam:
    @pytest.fixture
    def builds(self, monkeypatch):
        """One entry per SplitPoints built while the test runs."""
        builds = []
        build = clustering.SplitPoints.__init__
        monkeypatch.setattr(
            clustering.SplitPoints, "__init__", lambda self, xy: builds.append(1) or build(self, xy)
        )
        return builds

    def test_each_run_splits_the_points_once(self, builds):
        import hgaclust.hga as hga

        pts = np.random.default_rng(2).normal(size=(30, 2))
        hga.run_hga(pts, hga.HgaConfig(population_size=8, max_generations=20, seed=1))
        assert len(builds) == 1
        kmeans(pts, 3)
        assert len(builds) == 2
        split = clustering.as_points(pts)
        hga.run_hga(split, hga.HgaConfig(population_size=8, max_generations=20, seed=1))
        kmeans(split, 3)
        assert len(builds) == 3 and clustering.as_points(split) is split

    def test_replicates_and_the_kmeans_command_share_one_split(self, builds, heart_csv, capsys):
        from hgaclust import cli, experiment

        config = experiment.ExperimentConfig(
            input=heart_csv, population_size=8, max_generations=20, replicates=3
        )
        experiment.run_experiment(config)
        assert len(builds) == 1  # not once per seed for k-means, its score and the GA
        assert cli.main(["kmeans", "--input", heart_csv]) == 0
        assert len(builds) == 2

    def test_fitness_is_the_same_for_every_form_of_points(self, prepared):
        *_, projected = prepared
        split = clustering.as_points(projected)
        rng = np.random.default_rng(4)
        for _ in range(5):
            genes = Chromosome(rng.integers(0, 2, projected.n_points, dtype=np.uint8))
            totals = {
                chromosome_fitness(form, genes).total.hex()
                for form in (projected.points, projected, split)
            }
            assert len(totals) == 1

    def test_improvement_on_an_ndarray_evaluates_base_and_new_candidate(self, monkeypatch):
        import hgaclust.hga as hga

        calls = []
        monkeypatch.setattr(
            hga, "chromosome_fitness", lambda *a: calls.append(type(a[0])) or chromosome_fitness(*a)
        )
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [6.0, 5.0]])
        improved = hga.deterministic_improvement(pts, chrom([0, 1, 1, 1]))
        assert improved.genes_string() == "0011"
        assert calls == [clustering.SplitPoints, clustering.SplitPoints]


# few distinct values, so equal pairs (ties) are common; NaN never compares
DISTANCES = st.sampled_from([0.0, 1.0, 2.5, math.inf, math.nan]) | st.floats(0, 10)


class TestNearest:
    """``nearest`` against the scalar rule: strictly nearer wins, a tie or NaN keeps the gene."""

    @given(st.lists(st.tuples(DISTANCES, DISTANCES, st.integers(0, 1)), min_size=1, max_size=60))
    @example([(1.0, 1.0, 0), (1.0, 1.0, 1), (math.nan, 1.0, 1), (1.0, math.nan, 0)])
    @example([(math.inf, math.inf, 1), (0.0, -0.0, 1), (2.0, 1.0, 0), (1.0, 2.0, 1)])
    def test_matches_the_scalar_rule(self, rows):
        d_low = np.array([low for low, _, _ in rows])
        d_high = np.array([high for _, high, _ in rows])
        genes = np.array([gene for _, _, gene in rows], dtype=np.uint8)
        moved = clustering.nearest(d_low, d_high, genes)
        assert moved.dtype == np.uint8 and set(moved.tolist()) <= {0, 1}
        expected = [1 if high < low else 0 if low < high else gene for low, high, gene in rows]
        assert moved.tolist() == expected


class TestKmeans:
    def test_fixed_point_converges_in_one_iteration(self):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        # seed 1 starts from points 1 and 2, one of each pair
        assert np.random.default_rng(1).choice(4, size=2, replace=False).tolist() == [1, 2]
        res = kmeans(pts, 1)
        assert res.iterations == 1
        assert res.genes.tolist() == [0, 0, 1, 1]

    def test_n_equals_k_zero_objective(self):
        pts = np.array([[0.0, 0.0], [3.0, 0.0]])
        res = kmeans(pts, 1)
        assert res.objective_trace[-1] == 0.0
        assert res.distance_trace[-1] == 0.0
        assert sorted(res.genes.tolist()) == [0, 1]

    def test_two_gaussian_fixture_recovers_mixture(self):
        # seeded fixture: components 10 apart, sigma 0.8; perfect recovery frozen
        rng = np.random.default_rng(424242)
        pts = np.vstack(
            [rng.normal((-5.0, 0.0), 0.8, size=(20, 2)), rng.normal((5.0, 0.0), 0.8, size=(20, 2))]
        )
        mixture = np.array([0] * 20 + [1] * 20)
        res = kmeans(pts, 7)
        matches = max((res.genes == mixture).sum(), (res.genes != mixture).sum())
        assert matches >= 38
        assert matches == 40

    def test_objective_trace_non_increasing(self):
        rng = np.random.default_rng(77)
        for seed in range(10):
            pts = rng.normal(0, 4, size=(60, 2))
            res = kmeans(pts, seed)
            assert all(
                later <= earlier
                for earlier, later in zip(res.objective_trace, res.objective_trace[1:])
            )

    @pytest.mark.filterwarnings("error")  # the overflowing square is meant: no warning
    @pytest.mark.parametrize("seed", range(4))
    def test_a_point_at_1e200_finishes_without_a_warning(self, seed):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1e200, 0.0], [2.0, 1.0]])
        res = kmeans(pts, seed)
        assert 1 <= res.iterations < clustering.KMEANS_MAX_ITER
        assert res.genes.tolist() in ([0, 0, 1, 0], [1, 1, 0, 1])

    def test_more_clusters_than_points_rejected(self):
        with pytest.raises(ContractError, match="2 clusters infeasible for 1 points"):
            kmeans(np.zeros((1, 2)), 0)

    @pytest.mark.parametrize("kind", ["random", "tied", "identical"])
    def test_matches_pure_python_oracle_exactly(self, kind):
        rng = np.random.default_rng(31)
        for seed in range(60):
            n = int(rng.integers(2, 80))
            if kind == "random":
                pts = rng.normal(0, 5, size=(n, 2))
            elif kind == "tied":  # a coarse grid puts many points equidistant from both centroids
                pts = np.round(rng.normal(0, 1.5, size=(n, 2)))
            else:
                pts = np.tile(rng.normal(size=(1, 2)), (n, 1))
            start = np.random.default_rng(seed).choice(n, size=2, replace=False).tolist()
            genes, iterations, objective, distance = python_two_means(pts.tolist(), start)
            res = kmeans(pts, seed)
            assert res.genes.tolist() == genes
            assert res.iterations == iterations
            assert res.objective_trace == objective
            assert res.distance_trace == distance

    def test_matches_the_oracle_on_the_extraction_path(self, monkeypatch):
        monkeypatch.setattr(clustering, "SUM_CROSSOVER", 0)
        rng = np.random.default_rng(32)
        for seed in range(20):
            n = int(rng.integers(2, 80))
            pts = rng.normal(0, 5, size=(n, 2))
            start = np.random.default_rng(seed).choice(n, size=2, replace=False).tolist()
            genes, iterations, objective, distance = python_two_means(pts.tolist(), start)
            res = kmeans(pts, seed)
            assert (res.genes.tolist(), res.iterations) == (genes, iterations)
            assert (res.objective_trace, res.distance_trace) == (objective, distance)
