"""Tests of the benchmark's own span arithmetic, oracle, generator and gate.

    python3 -m pytest perfbench/tests
"""

import json
import math

import jsonschema
import numpy as np
import pytest

import cohort
import gate
import tracer
from hgaclust.clustering import Chromosome, chromosome_fitness
from hgaclust.experiment import ExperimentConfig, load_report_schema, prepare_points, run_experiment

FIXTURE = str(tracer.__file__).rsplit("/perfbench/", 1)[0] + "/tests/data/synthetic_heart.csv"


def test_self_time_subtracts_the_union_of_child_intervals():
    # root 0..10 has children 1..4 and 3..6 (overlapping: union 1..6) and
    # 8..9; child 1..4 has a grandchild 2..3 that must not count for root.
    spans = [
        (0, "root", 0.0, 10.0, None),
        (1, "a", 1.0, 4.0, 0),
        (2, "b", 3.0, 6.0, 0),
        (3, "c", 8.0, 9.0, 0),
        (4, "a.inner", 2.0, 3.0, 1),
    ]
    own = tracer.self_times(spans)
    assert own == {0: 10.0 - 5.0 - 1.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.0}


def test_recorder_nests_spans_and_restores_originals(monkeypatch):
    import hgaclust.hga as hga

    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (("hgaclust.hga", "gone", "hga.gone", None),))
    original = hga.chromosome_fitness
    rec = tracer.Recorder()
    rec.install()
    assert hga.chromosome_fitness is not original
    points = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [6.0, 5.0]])
    improved = hga.deterministic_improvement(points, Chromosome(np.array([0, 1, 1, 1], np.uint8)))
    rec.uninstall()
    assert hga.chromosome_fitness is original
    assert rec.absent == ["hga.gone"]
    names = {span_id: name for span_id, name, *_ in rec.spans}
    improve_id = next(i for i, n in names.items() if n == "hga.improve")
    fitness = [s for s in rec.spans if s[1] == "clustering.fitness"]
    assert len(fitness) == 2 and all(s[4] == improve_id for s in fitness)
    assert improved.genes.tolist() == [0, 0, 1, 1]
    assert rec.counts["hga.improve_kept"] == 1

    trace = json.loads(json.dumps({"spans": rec.spans, "counts": rec.counts,
                                   "searches": rec.searches, "absent": rec.absent}))
    metrics = tracer.layer_metrics(trace, wall_s=1.0, cpu_s=0.5)
    assert metrics["clustering.fitness_calls"] == (2.0, "count")
    assert metrics["hga.improve_kept_ratio"] == (1.0, "ratio")


def test_last_improvement_counts_only_gains_over_the_initial_population():
    import hgaclust.experiment as experiment
    import hgaclust.hga as hga

    # With an improved initial population, seeds 4 and 10 never beat it in
    # five generations: their last improvement is generation 0.
    points = np.random.default_rng(3).normal(size=(30, 2))
    found = []
    for seed in range(12):
        config = hga.HgaConfig(population_size=6, max_generations=5, seed=seed,
                               improve_initial_population=True)
        initial = hga.init_population(hga.as_points(points), config,
                                      np.random.default_rng(seed)).min_fitness
        rec = tracer.Recorder()
        rec.install()
        result = experiment.run_hga(points, config)
        rec.uninstall()
        expected, running = 0, initial
        for generation, value in enumerate(result.min_fitness_trace, start=1):
            if value < running:
                expected, running = generation, value
        assert rec.searches[0]["last_improvement_gen"] == expected
        found.append(expected)
    assert found.count(0) == 2


def test_absent_target_drops_only_its_metrics():
    trace = {"spans": [], "counts": {}, "searches": [], "absent": ["clustering.fitness"]}
    metrics = tracer.layer_metrics(trace, wall_s=2.0, cpu_s=1.0)
    assert not any(name.startswith("clustering.fitness") for name in metrics)
    assert metrics["hga.improve_calls"] == (0.0, "count")
    assert metrics["cli.cpu_util"] == (0.5, "ratio")


def test_oracle_matches_chromosome_fitness_on_the_fixture():
    _, _, labels, projected, _ = prepare_points(ExperimentConfig(input=FIXTURE))
    xs, ys = projected.points[:, 0].tolist(), projected.points[:, 1].tolist()
    rng = np.random.default_rng(7)
    for genes in [labels.astype(np.uint8)] + [rng.integers(0, 2, labels.size, dtype=np.uint8)
                                              for _ in range(5)]:
        text = "".join(str(int(g)) for g in genes)
        assert gate.python_fitness(xs, ys, text) == chromosome_fitness(
            projected, Chromosome(genes)).total
    assert gate.python_fitness(xs, ys, "1" * labels.size) == math.inf


def test_generator_is_deterministic_in_the_seed(tmp_path):
    first = cohort.write_cohort(tmp_path / "a.csv", 0)
    again = cohort.write_cohort(tmp_path / "b.csv", 0)
    other = cohort.write_cohort(tmp_path / "c.csv", 1)
    assert first == again
    assert first["sha256"] == "9213fa3130d645def4501fa49bf3deb3df907db1c8a4c27021d569902994ebdb"
    assert (first["rows"], first["missing_cells"]) == (20_000, 200)
    assert other["sha256"] != first["sha256"]


@pytest.fixture(scope="module")
def small_report():
    config = ExperimentConfig(input=FIXTURE, population_size=20, replicates=2)
    return json.loads(json.dumps(run_experiment(config)))


def _check(report, reference=None):
    schema = load_report_schema()
    validator = jsonschema.validators.validator_for(schema)(schema)
    return gate.check_report(report, validator, 0, 2, "sha", reference)


def test_gate_passes_an_untouched_report(small_report):
    assert _check(small_report) == [[], []]
    assert _check(small_report, gate.identity(small_report, "sha")) == [[], []]


def test_gate_fails_a_report_with_one_flipped_assignment_bit(small_report):
    report = json.loads(json.dumps(small_report))
    genes = report["hga"]["assignment"]
    report["hga"]["assignment"] = ("1" if genes[0] == "0" else "0") + genes[1:]
    problems = _check(report)
    assert sum(1 for p in problems if p) == 1
    assert "fsum oracle" in problems[0][0]


def test_gate_fails_a_seed_whose_identity_drifted(small_report):
    reference = gate.identity(small_report, "sha")
    reference["replicate_rows_sha256"][1] = "0" * 64
    assert [bool(p) for p in _check(small_report, reference)] == [False, True]
