"""Span recorder for the traced pass, and the per-layer metrics built from it.

The program is not edited: :meth:`Recorder.install` replaces layer
functions in the module namespaces where callers look them up
(``hgaclust.experiment``, ``hgaclust.hga`` and ``hgaclust.cli``) with
wrappers that record a span -- id, name, start, end, parent id -- and a
few counts, and :meth:`Recorder.uninstall` puts the originals back. Spans
are kept in memory and written once, after ``cli.main`` returns.

A target that no longer exists (a later refactor may delete or rename
it) is skipped and listed as absent; every metric that needs it is then
left out of the result rather than reported as a failure.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import Counter, defaultdict
from importlib import import_module

# Bytes one fitness evaluation must read per point: two float64
# coordinates and one uint8 gene.
FITNESS_BYTES_PER_POINT = 17


def _count_cells(rec, args, result):
    rec.counts["dataset.cells"] += result.values.size


def _count_pca_flops(rec, args, result):
    # Counted from shapes, not measured: the n x d centring and Gram
    # product here, the d x d eigensolve (~9 d^3, Golub & Van Loan) and the
    # n x d x 2 projection.
    n, d = args[0].values.shape
    rec.counts["pca.flops"] += n * d + 2 * n * d * d + 9 * d ** 3 + 2 * n * d * 2


def _note_initial_best(rec, args, result):
    rec.initial_best = [result.min_fitness, 0, time.perf_counter()]


def _count_kmeans(rec, args, result):
    rec.counts["clustering.kmeans_iterations"] += result.iterations


def _count_fitness_points(rec, args, result):
    rec.counts["clustering.fitness_points"] += len(args[1])


def _count_improve(rec, args, result):
    if result is not args[1]:
        rec.counts["hga.improve_kept"] += 1


def _count_replace(rec, args, result):
    if result:
        rec.counts["hga.replace_accepted"] += 1


def _count_report(rec, args, result):
    rec.counts["experiment.report_bytes"] += result.stat().st_size


# (module, attribute, span name, count hook). Calls are recorded where the
# caller looks the name up, so ``chromosome_fitness`` is two targets: the
# GA's evaluations (hga namespace) and the k-means baseline score
# (experiment namespace).
TARGETS = (
    ("hgaclust.experiment", "prepare_points", "experiment.prepare", None),
    ("hgaclust.experiment", "load_heart_csv", "dataset.load", _count_cells),
    ("hgaclust.experiment", "impute_missing", "dataset.impute", None),
    ("hgaclust.experiment", "split_features_target", "dataset.split", None),
    ("hgaclust.experiment", "standardize", "dataset.standardize", None),
    ("hgaclust.experiment", "covariance_matrix", "pca.covariance", _count_pca_flops),
    ("hgaclust.experiment", "symmetric_eigendecomposition", "pca.eigh", None),
    ("hgaclust.experiment", "project", "pca.project", None),
    ("hgaclust.experiment", "kmeans", "clustering.kmeans", _count_kmeans),
    ("hgaclust.experiment", "chromosome_fitness", "experiment.baseline_fitness", None),
    ("hgaclust.experiment", "run_hga", "hga.run", None),
    ("hgaclust.experiment", "align_clusters_to_labels", "evaluation.align", None),
    ("hgaclust.experiment", "confusion_matrix", "evaluation.confusion", None),
    ("hgaclust.experiment", "metrics", "evaluation.metrics", None),
    ("hgaclust.hga", "init_population", "hga.init", _note_initial_best),
    ("hgaclust.hga", "select_parents", "hga.select", None),
    ("hgaclust.hga", "one_point_crossover", "hga.crossover", None),
    ("hgaclust.hga", "two_point_mutation", "hga.mutation", None),
    ("hgaclust.hga", "deterministic_improvement", "hga.improve", _count_improve),
    ("hgaclust.hga", "steady_state_replace", "hga.replace", _count_replace),
    ("hgaclust.hga", "chromosome_fitness", "clustering.fitness", _count_fitness_points),
    ("hgaclust.cli", "emit_report", "cli.emit_report", _count_report),
)


class Recorder:
    """Wraps the layer functions and records spans, counts and GA progress."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self.searches: list[dict] = []  # one per run_hga call
        self.absent: list[str] = []
        self.initial_best: list | None = None  # set by the init_population wrapper
        self._stack: list[int | None] = [None]
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, hook=None):
        clock, stack, spans = time.perf_counter, self._stack, self.spans

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent))
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def _wrap_run_hga(self, name, fn):
        """Also timestamps each new population minimum via ``trace_sink``.

        The search starts from the initial population's minimum (generation
        0), so a generation counts only if it strictly lowers that minimum.
        """

        def run_hga(points, config, trace_sink=None):
            best = []  # minimum, its generation, its time

            def initial():
                return self.initial_best or [math.inf, 0, start]

            def sink(generation, min_fitness, max_fitness):
                if not best:
                    best[:] = initial()
                if min_fitness < best[0]:
                    best[:] = [min_fitness, generation, time.perf_counter()]
                if trace_sink is not None:
                    trace_sink(generation, min_fitness, max_fitness)

            self.initial_best = None
            start = time.perf_counter()
            result = fn(points, config, trace_sink=sink)
            end = time.perf_counter()
            best = best or initial()
            self.searches.append(
                {
                    "generations": result.generations_run,
                    "last_improvement_gen": best[1],
                    "start": start,
                    "best_at": best[2],
                    "end": end,
                }
            )
            return result

        return self.wrap(name, run_hga)

    def install(self) -> None:
        for module_name, attr, name, hook in TARGETS:
            module = import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            self._saved.append((module, attr, original))
            if name == "hga.run":
                wrapper = self._wrap_run_hga(name, original)
            else:
                wrapper = self.wrap(name, original, hook)
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "searches": self.searches,
                    "absent": self.absent,
                },
                handle,
            )


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for span_id, _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = {}
    for span_id, _, start, end, _ in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result[span_id] = (end - start) - covered
    return result


def layer_metrics(trace: dict, wall_s: float, cpu_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (name -> (value, unit)) of one traced pass."""
    spans, counts, searches = trace["spans"], trace["counts"], trace["searches"]
    absent = set(trace["absent"])
    own = self_times(spans)
    total, self_s, calls = Counter(), Counter(), Counter()
    for span_id, name, start, end, _ in spans:
        total[name] += end - start
        self_s[name] += own[span_id]
        calls[name] += 1

    def ratio(num, den):
        return num / den if den else 0.0

    def median_search(key):
        return statistics.median(key(s) for s in searches)

    loop_s = lambda: total["hga.run"] - total["hga.init"]  # noqa: E731
    top_level = sum(end - start for _, _, start, end, parent in spans if parent is None)
    table = [
        ("dataset.load_s", "s", ("dataset.load",), lambda: total["dataset.load"]),
        ("dataset.impute_s", "s", ("dataset.impute",), lambda: total["dataset.impute"]),
        ("dataset.standardize_s", "s", ("dataset.standardize",),
         lambda: total["dataset.standardize"]),
        ("dataset.cells", "count", ("dataset.load",), lambda: counts.get("dataset.cells", 0)),
        ("pca.s", "s", ("pca.covariance", "pca.eigh", "pca.project"),
         lambda: total["pca.covariance"] + total["pca.eigh"] + total["pca.project"]),
        ("pca.flops_computed", "flop", ("pca.covariance",), lambda: counts.get("pca.flops", 0)),
        ("clustering.kmeans_s", "s", ("clustering.kmeans",), lambda: total["clustering.kmeans"]),
        ("clustering.kmeans_iterations", "count", ("clustering.kmeans",),
         lambda: counts.get("clustering.kmeans_iterations", 0)),
        ("clustering.fitness_calls", "count", ("clustering.fitness",),
         lambda: calls["clustering.fitness"]),
        ("clustering.fitness_self_s", "s", ("clustering.fitness",),
         lambda: self_s["clustering.fitness"]),
        ("clustering.fitness_us", "us", ("clustering.fitness",),
         lambda: ratio(self_s["clustering.fitness"], calls["clustering.fitness"]) * 1e6),
        ("clustering.fitness_ns_per_point", "ns", ("clustering.fitness",),
         lambda: ratio(self_s["clustering.fitness"],
                       counts.get("clustering.fitness_points", 0)) * 1e9),
        ("clustering.fitness_bytes_computed", "bytes", ("clustering.fitness",),
         lambda: counts.get("clustering.fitness_points", 0) * FITNESS_BYTES_PER_POINT),
        ("hga.init_s", "s", ("hga.init",), lambda: total["hga.init"]),
        ("hga.loop_s", "s", ("hga.run", "hga.init"), loop_s),
        ("hga.generations", "count", ("hga.run",),
         lambda: sum(s["generations"] for s in searches)),
        ("hga.gen_us", "us", ("hga.run", "hga.init"),
         lambda: ratio(loop_s(), sum(s["generations"] for s in searches)) * 1e6),
        ("hga.operators_self_s", "s", ("hga.select", "hga.crossover", "hga.mutation"),
         lambda: self_s["hga.select"] + self_s["hga.crossover"] + self_s["hga.mutation"]),
        ("hga.improve_calls", "count", ("hga.improve",), lambda: calls["hga.improve"]),
        ("hga.improve_kept", "count", ("hga.improve",), lambda: counts.get("hga.improve_kept", 0)),
        ("hga.improve_kept_ratio", "ratio", ("hga.improve",),
         lambda: ratio(counts.get("hga.improve_kept", 0), calls["hga.improve"])),
        ("hga.improve_self_s", "s", ("hga.improve",), lambda: self_s["hga.improve"]),
        ("hga.replace_calls", "count", ("hga.replace",), lambda: calls["hga.replace"]),
        ("hga.replace_accepted", "count", ("hga.replace",),
         lambda: counts.get("hga.replace_accepted", 0)),
        ("hga.replace_accept_ratio", "ratio", ("hga.replace",),
         lambda: ratio(counts.get("hga.replace_accepted", 0), calls["hga.replace"])),
        ("hga.replace_self_s", "s", ("hga.replace",), lambda: self_s["hga.replace"]),
        ("hga.last_improvement_gen", "count", ("hga.run",),
         lambda: median_search(lambda s: s["last_improvement_gen"])),
        ("hga.time_to_best_s", "s", ("hga.run",),
         lambda: median_search(lambda s: s["best_at"] - s["start"])),
        ("hga.doldrum_share", "ratio", ("hga.run",),
         lambda: ratio(sum(s["end"] - s["best_at"] for s in searches),
                       sum(s["end"] - s["start"] for s in searches))),
        ("hga.seed_s_p50", "s", ("hga.run",), lambda: median_search(lambda s: s["end"] - s["start"])),
        ("hga.seed_s_max", "s", ("hga.run",), lambda: max(s["end"] - s["start"] for s in searches)),
        ("evaluation.s", "s", ("evaluation.align", "evaluation.confusion", "evaluation.metrics"),
         lambda: total["evaluation.align"] + total["evaluation.confusion"]
         + total["evaluation.metrics"]),
        ("experiment.prepare_calls", "count", ("experiment.prepare",),
         lambda: calls["experiment.prepare"]),
        ("experiment.prepare_s", "s", ("experiment.prepare",), lambda: total["experiment.prepare"]),
        ("experiment.report_emit_s", "s", ("cli.emit_report",), lambda: total["cli.emit_report"]),
        ("experiment.report_bytes", "bytes", ("cli.emit_report",),
         lambda: counts.get("experiment.report_bytes", 0)),
        ("cli.wall_s", "s", (), lambda: wall_s),
        ("cli.cpu_s", "s", (), lambda: cpu_s),
        ("cli.cpu_util", "ratio", (), lambda: ratio(cpu_s, wall_s)),
        ("cli.unaccounted_s", "s", (), lambda: wall_s - top_level),
        ("cli.unaccounted_frac", "ratio", (), lambda: ratio(wall_s - top_level, wall_s)),
    ]
    result = {}
    for name, unit, needs, compute in table:
        if absent.intersection(needs):
            continue
        try:
            result[name] = (float(compute()), unit)
        except (ValueError, statistics.StatisticsError):  # no search ran
            continue
    return result
