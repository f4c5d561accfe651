import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgaclust import clustering
from hgaclust.clustering import Chromosome, chromosome_fitness, kmeans
from hgaclust.errors import ContractError, InputError

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
    """Each cluster's mean as an (x, y) tuple, None if it is empty (its mean is NaN, its size 0)."""
    means, counts = clustering.as_points(pts).centroids(chrom(bits).genes)
    assert means.shape == (2, 2) and counts.tolist() == [len(bits) - sum(bits), sum(bits)]
    assert np.isnan(means[counts == 0]).all()
    return [tuple(mean) if count else None for mean, count in zip(means.tolist(), counts)]


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

    @pytest.mark.filterwarnings("error")  # refused before any square is taken: no warning
    def test_a_point_past_the_square_root_of_the_largest_float_is_refused(self):
        # a distance of 1e200 squares to inf: the split refuses the points
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1e200, 0.0], [2.0, 1.0]])
        for genes in ([0, 0, 1, 1], [0, 0, 0, 1], [0, 0, 1, 0]):
            with pytest.raises(InputError, match="squared distances"):
                chromosome_fitness(pts, chrom(genes))

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
    except (OverflowError, ValueError) as exc:  # an intermediate overflow, or inf - inf
        return repr(exc), repr(exc)


def cluster_sum_bits(values, mask):
    try:
        return tuple(total.hex() for total in clustering._cluster_sums(values[None], mask[None])[0])
    except (OverflowError, ValueError) as exc:
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
    """``FitnessBreakdown.total`` is the exact total; ``lower_bounds`` decides without it."""

    @pytest.mark.parametrize("extraction", [False, True], ids=["fsum", "extraction"])
    def test_first_read_gives_the_exact_total(self, extraction, monkeypatch):
        if extraction:  # every n is past the crossover
            monkeypatch.setattr(clustering, "SUM_CROSSOVER", 0)
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            pts = rng.normal(0, 50, size=(n, 2))
            genes = rng.integers(0, 2, n, dtype=np.uint8)
            total = chromosome_fitness(pts, Chromosome(genes)).total
            assert total.hex() == python_fitness(pts.tolist(), genes.tolist()).hex()

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
            ([0.0, 0.0], 0.0, False),
            ([2.0**-1001, 2.0**-1001], 0.0, False),  # the plain sum is 2**-1000
            ([2.0**-1000, 2.0**-1000], 0.0, True),
            ([2.0**998, 2.0**998], 1.0, True),
            ([2.0**999, 2.0**999], 1.0, True),  # no upper cut: guarded rows stay far below
        ],
    )
    def test_bound_decides_only_far_from_ties_and_extremes(self, own, value, decided):
        own = np.array([own, own[::-1]])  # a block: each row's bound is its own
        genes = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        assert (value <= clustering.lower_bounds(own)).tolist() == [decided, decided]
        if decided:
            assert (value <= clustering.fitness_totals(own, genes)).all()


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
        rows, missed = clustering._extract(values[None])
        assert len(rows) == clustering.EXTRACTION_PASSES and missed == []
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


@st.composite
def sum_rows(draw, n):
    """A row of n summands and its mask, of one kind: plain (two extraction passes), a remainder
    left after EXTRACTION_PASSES (exponents spread over 2,000 binades, or a few values next to
    zero), signed zeros, or a non-finite or overflowing row; the mask random or one-sided."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["plain", "spread", "near-zero", "zeros", "special"]))
    if kind == "plain":
        row = rng.random(n) * 10
    elif kind == "spread":
        row = rng.random(n) * 2.0 ** rng.integers(-1070, 1000, n).astype(float)
    elif kind == "near-zero":
        row = np.where(rng.random(n) < 0.5, 5e-324, 1.0) * rng.integers(1, 9, n)
    elif kind == "zeros":
        row = np.where(rng.random(n) < 0.5, 0.0, -0.0)
    else:
        row = rng.random(n)
        row[rng.integers(n)] = draw(st.sampled_from([math.inf, -math.inf, math.nan, MAX]))
        row[rng.integers(n)] = draw(st.sampled_from([math.inf, -math.inf, MAX, 1.0]))
    mask = (rng.random(n) < 0.5, np.zeros(n, bool), np.ones(n, bool))[draw(st.integers(0, 2))]
    return row, mask


@st.composite
def sum_blocks(draw):
    n = draw(st.integers(1, 60))
    rows = draw(st.lists(sum_rows(n), min_size=1, max_size=8))
    return np.array([row for row, _ in rows]), np.array([mask for _, mask in rows])


class TestBlockSums:
    """A block's sums, from one extraction over all its rows or by fsum, against fsum a row at
    a time, as hex; on either side of the cell switch, SUM_CROSSOVER cells per call."""

    @settings(max_examples=300)
    @given(sum_blocks(), st.booleans())
    def test_block_matches_fsum_row_by_row(self, block, extraction):
        values, mask = block
        expected = [fsum_bits(row, m) for row, m in zip(values, mask)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(clustering, "SUM_CROSSOVER", values.size + (not extraction))
            failing = [bits[0] for bits in expected if bits[0].startswith(("Overflow", "Value"))]
            if failing:  # rows are summed in order: the first failing row's error comes out
                with pytest.raises((OverflowError, ValueError)) as info:
                    clustering._cluster_sums(values, mask)
                assert repr(info.value) == failing[0]
                return
            sums = clustering._cluster_sums(values, mask)
            assert [(low.hex(), high.hex()) for low, high in sums.tolist()] == expected

    @settings(max_examples=100)
    @given(sum_blocks(), st.booleans(), st.integers(0, 255))
    def test_totals_add_both_sides_and_empty_rows_are_inf(self, block, extraction, empty_bits):
        values, mask = block
        # distances: non-negative and below sqrt(MAX) or inf, so no sum fails
        values = np.where(np.isnan(values) | (np.abs(values) < 1e150), np.abs(values), math.inf)
        empty = (empty_bits >> np.arange(len(values))) % 2 == 1
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(clustering, "SUM_CROSSOVER", values.size + (not extraction))
            totals = clustering.fitness_totals(values, mask.view(np.uint8), empty)
        for total, row, m, is_empty in zip(totals.tolist(), values, mask, empty):
            expected = math.inf if is_empty else (
                math.fsum(row[~m].tolist()) + math.fsum(row[m].tolist()))
            assert total.hex() == expected.hex()


def summable(xy):
    """The split's guard in plain Python: finite coordinates, and n * (x reach² + y reach²)
    finite, a reach being an axis' span plus 2**-48 of its largest magnitude."""
    n, axes = len(xy), list(zip(*xy.tolist()))
    if not all(math.isfinite(v) for axis in axes for v in axis):
        return False
    reach = [max(axis) - min(axis) + max(map(abs, axis)) * 2.0**-48 for axis in axes]
    return math.isfinite(n * (reach[0] * reach[0] + reach[1] * reach[1]))


def fsum_centroids(xy, genes):
    """Each cluster's mean by fsum over its own values, x before y as the kernel sums them;
    "refused" for points the split's guard refuses."""
    if not summable(xy):
        return "refused"
    x, y = ([math.fsum(xy[genes == side, axis].tolist()) for side in (0, 1)] for axis in (0, 1))
    counts = [int(np.count_nonzero(genes == side)) for side in (0, 1)]
    return [((sx / k).hex(), (sy / k).hex()) if k else None for sx, sy, k in zip(x, y, counts)]


def split_centroids(xy, genes):
    """The one-row centroids as hex pairs, None for an empty cluster; a (2, n) block of the row
    and its complement must give the same two pairs, swapped; "refused" on an InputError."""
    try:
        split = clustering.SplitPoints(xy)
    except InputError:
        return "refused"
    means, counts = split.centroids(genes)
    assert np.isnan(means[counts == 0]).all()
    block, block_counts = split.centroids(np.stack((genes, 1 - genes)))
    assert block_counts.tolist() == [counts.tolist(), counts[::-1].tolist()]
    assert np.array_equal(block[1], means[::-1], equal_nan=True)
    return [None if k == 0 else (x.hex(), y.hex()) for (x, y), k in zip(means.tolist(), counts)]


AXES = {
    "plain": [1.0, -2.0, 0.5],
    "inf": [math.inf, 1.0, 2.0],
    "nan": [math.nan, 1.0, 3.0],
    "overflow": [MAX, MAX, -MAX],
    "inf-minus-inf": [math.inf, -math.inf, 1.0],
}


class TestSplitPoints:
    """Centroids read off the once-per-run split against fsum over each cluster, as hex, and
    refusals against the guard's conditions (±MAX and 1e300 are among the drawn values)."""

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
        # cancelling pairs at eight levels 180 binades apart, from 2**400 down: the guard
        # passes them, and four passes clear four levels
        levels = [m * 2.0**k for k in range(400, -1001, -180) for m in (1.5, -1.5)]
        xy = np.resize(np.array(levels), (2 * clustering.SUM_CROSSOVER, 2))
        split = clustering.SplitPoints(xy)
        assert split.raw == [0, 1]  # a remainder on both axes
        genes = (np.arange(xy.shape[0]) % 3 == 0).astype(np.uint8)
        assert split_centroids(xy, genes) == fsum_centroids(xy, genes)

    def test_fixture_needs_no_remainder(self, prepared):
        *_, projected = prepared
        split = clustering.as_points(projected)
        assert split.raw == []
        assert split.pieces.shape == (2 * split.rows + 1, projected.n_points)
        assert split.totals[-1] == projected.n_points

    @pytest.mark.parametrize("genes", [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]])
    def test_plain_axes_give_the_fsum_result(self, genes):
        # the one pair of AXES the guard passes
        xy = np.array([AXES["plain"], AXES["plain"]]).T.copy()
        genes = np.array(genes, dtype=np.uint8)
        assert split_centroids(xy, genes) == fsum_centroids(xy, genes) != "refused"

    @pytest.mark.filterwarnings("error")  # refused by reductions alone: no warning
    @pytest.mark.parametrize(
        "x, y", [(x, y) for x in AXES for y in AXES if (x, y) != ("plain", "plain")])
    @pytest.mark.parametrize("genes", [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]])
    def test_specials_are_refused(self, x, y, genes):
        # a non-finite coordinate, or a span whose square overflows, on either axis
        xy = np.array([AXES[x], AXES[y]]).T.copy()
        with pytest.raises(InputError):
            clustering.SplitPoints(xy)
        with pytest.raises(InputError):
            chromosome_fitness(xy, chrom(genes))


def spread_points(n, level, tilt, seed):
    """n points whose n * (x span² + y span²) is ``level`` * 2**1024, ``tilt`` of it along x: each
    axis takes 0, its span and n - 2 ``default_rng(seed)`` uniform values between."""
    rng = np.random.default_rng(seed)
    spans = [math.sqrt(share * level / n) * 2.0**512 for share in (tilt, 1 - tilt)]
    return np.array([[0.0, span, *rng.uniform(0, span, n - 2)] for span in spans]).T


@st.composite
def edge_points(draw):
    """Points the guard passes, at its edges, n past SUM_CROSSOVER: spans up to 0.999 of the
    overflow bound; every x the same and up to 0.999 of the bound for x alone (then only the
    rounding of the mean sets points apart); or normal values scaled by 2**e, e drawn per
    coordinate from -1000 up to at most 400."""
    n, seed = draw(st.integers(1024, 2100)), draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["spread", "identical", "magnitude"]))
    rng = np.random.default_rng(seed)
    if kind == "spread":
        return spread_points(n, draw(st.floats(0, 0.999)), draw(st.floats(0, 1)), seed)
    if kind == "identical":
        x = draw(st.sampled_from([1.0, -1.0])) * math.sqrt(draw(st.floats(0.5, 0.999)) / n)
        return np.stack((np.full(n, x * 2.0**560), rng.normal(size=n)), 1)
    exponents = rng.integers(-1000, draw(st.integers(-1000, 400)) + 1, (n, 2))
    return rng.normal(size=(n, 2)) * 2.0**exponents


class TestGuardEdges:
    """Points the split's guard passes never make a sum raise or warn, and still sum exactly."""

    @settings(max_examples=60, deadline=None)
    @given(edge_points(), st.integers(0, 3))
    # k-means' squared distances here need a sigma past 2**1023: without _extract's clause for
    # them, math.ldexp raises OverflowError in the first k-means iteration
    @example(spread_points(1024, 0.99, 1.0, 0), 0)
    def test_guarded_points_sum_exactly(self, xy, seed):
        from hgaclust import hga

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any numpy warning fails the example
            self._sum_exactly(hga, xy, seed)

    @staticmethod
    def _sum_exactly(hga, xy, seed):
        split = clustering.SplitPoints(xy)
        rng = np.random.default_rng(seed)
        n = len(xy)
        one = (np.arange(n) == rng.integers(n)).astype(np.uint8)
        genes = np.stack((rng.integers(0, 2, n, dtype=np.uint8), one, np.zeros(n, np.uint8)))
        for row in genes:
            assert split_centroids(xy, row) == fsum_centroids(xy, row)
        _, own, empty = clustering.fitness_block(split, genes)
        totals = clustering.fitness_totals(own, genes, empty).tolist()
        assert [t.hex() for t in totals] == [
            python_fitness(xy.tolist(), row.tolist()).hex() for row in genes]
        assert 1 <= kmeans(split, seed).iterations <= clustering.KMEANS_MAX_ITER
        result = hga.run_hga(split, hga.HgaConfig(population_size=4, max_generations=3, seed=seed))
        best = python_fitness(xy.tolist(), result.best_chromosome.genes.tolist())
        assert result.best_fitness.hex() == best.hex()

    @pytest.mark.filterwarnings("error")
    def test_the_guard_refuses_past_its_bound(self):
        n = 1500
        for level, refused in ((0.999, False), (1.001, True)):
            same_x = np.stack((np.full(n, math.sqrt(level / n) * 2.0**560), np.zeros(n)), 1)
            for xy in (spread_points(n, level, 0.5, 0), same_x, -same_x):
                if refused:
                    with pytest.raises(InputError, match="squared distances"):
                        clustering.SplitPoints(xy)
                else:
                    clustering.SplitPoints(xy)
        # every x two floats under 2**(1023 - bit_length(n + 1)), the sigma bound for sums of n
        # coordinates: their mean rounds 2**959 off them, and that distance's square overflows
        near_top = 2.0 ** (1023 - (n + 1).bit_length()) * (1 - 2 * 2.0**-53)
        same_x = np.stack((np.full(n, near_top), np.random.default_rng(0).normal(size=n)), 1)
        mean = math.fsum([near_top] * n) / n
        assert math.isinf((near_top - mean) * (near_top - mean))
        with pytest.raises(InputError, match="squared distances"):
            clustering.SplitPoints(same_x)
        # no points and one point pass, and reach the ContractErrors of their callers
        with pytest.raises(ContractError, match="2 clusters infeasible for 0 points"):
            kmeans(np.empty((0, 2)), 0)
        from hgaclust import hga

        with pytest.raises(ContractError, match="need at least 2 points"):
            hga.init_population(np.ones((1, 2)), hga.HgaConfig(), np.random.default_rng(0))


class TestOwnDistances:
    """The own side alone, for rows whose totals are all that is read: fitness_block's bits."""

    @pytest.mark.parametrize("n", [303, 5000], ids=["n303", "n5000"])  # both sides of 4,096
    @pytest.mark.parametrize("rows", [1, 2, 27])
    @pytest.mark.parametrize("empty", [False, True], ids=["filled", "empty"])
    def test_matches_fitness_block_bit_for_bit(self, n, rows, empty):
        rng = np.random.default_rng(n + rows)
        split = clustering.SplitPoints(rng.normal(0, 3, size=(n, 2)))
        genes = rng.integers(0, 2, (rows, n), dtype=np.uint8)
        if empty:  # the last row all high, the first all low (one row: all low)
            genes[-1], genes[0] = 1, 0
        _, own, empty_rows = clustering.fitness_block(split, genes)
        distances, empty_flags = clustering.own_distances(split, genes)
        assert distances.shape == (rows, n)
        assert np.array_equal(distances.view(np.int64), own.view(np.int64))
        assert empty_flags.tolist() == empty_rows.tolist()
        assert empty_flags.any() == empty


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

    @pytest.mark.filterwarnings("error")  # refused before any square is taken: no warning
    @pytest.mark.parametrize("seed", range(4))
    def test_a_point_at_1e200_is_refused(self, seed):
        # a distance of 1e200 squares to inf: the split refuses the points, wherever the far
        # point sits and whatever the seed
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 1.0]])
        pts[seed, 0] = 1e200
        with pytest.raises(InputError, match="squared distances"):
            kmeans(pts, seed)

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
