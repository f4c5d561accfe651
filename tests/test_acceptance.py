"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
The end-to-end criteria run against the bundled 303-row synthetic twin of
the Cleveland file (see tests/data/make_synthetic_heart.py); the real
file can be dropped in via --input for the CLI but is not redistributable
here.
"""

import functools
import json
import time
from statistics import median

import _acceptance_log

import jsonschema
import numpy as np
import pytest

from hgaclust import cli
from hgaclust.clustering import Chromosome, chromosome_fitness
from hgaclust.evaluation import ConfusionMatrix, metrics
from hgaclust.experiment import (
    ExperimentConfig,
    emit_report,
    load_report_schema,
    run_experiment,
)
from hgaclust.hga import (
    HgaConfig,
    deterministic_improvement,
    one_point_crossover,
    run_hga,
    two_point_mutation,
)
from hgaclust.pca import covariance_matrix, project, symmetric_eigendecomposition

from oracles import brute_force_min_fitness

RECORDED_TRACES: list[list[float]] = []


def _say(message):
    print(message)
    _acceptance_log.VERDICTS.append(message)  # re-printed in the terminal summary


def _report_line(number, description):
    def decorator(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            try:
                func(*args, **kwargs)
            except BaseException:
                _say(f"ACCEPTANCE {number} FAIL: {description}")
                raise
            _say(f"ACCEPTANCE {number} PASS: {description}")

        return wrapper

    return decorator


@_report_line(1, "metric arithmetic reproduces the published table within 0.02")
def test_criterion_1_metric_arithmetic():
    m = metrics(ConfusionMatrix(tp=158, tn=127, fp=11, fn=7))
    published = {
        "accuracy": 94.06,
        "error": 5.94,
        "recall": 95.75,
        "precision": 93.49,
        "f1": 94.60,
    }
    for name, target in published.items():
        value = getattr(m, name)
        assert abs(value - target) <= 0.02, f"{name}: {value} vs {target}"


@_report_line(2, "HGA matches the exhaustive optimum on >= 95 of 100 instances, never below")
def test_criterion_2_brute_force_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    exact, below = 0, 0
    for trial in range(100):
        n = int(rng.integers(6, 13))
        points = rng.normal(0, 5, size=(n, 2))
        optimum, _ = brute_force_min_fitness(points.tolist())
        result = run_hga(
            points,
            HgaConfig(population_size=50, max_generations=2000, seed=trial),
        )
        RECORDED_TRACES.append(result.min_fitness_trace)
        if result.best_fitness == optimum:
            exact += 1
        if result.best_fitness < optimum:
            below += 1
    elapsed = time.perf_counter() - start
    assert below == 0, f"{below} runs reported a fitness below the exhaustive optimum"
    assert exact >= 95, f"only {exact} of 100 runs matched the optimum exactly"
    assert elapsed < 60, f"oracle-equivalence batch took {elapsed:.1f}s"


@_report_line(3, "min-fitness traces non-increasing; improvement never hurts (10^4 cases)")
def test_criterion_3_monotonicity_suite():
    for trace in RECORDED_TRACES:
        assert all(b <= a for a, b in zip(trace, trace[1:]))

    rng = np.random.default_rng(999)
    for _ in range(10_000):
        n = int(rng.integers(2, 24))
        points = rng.normal(0, 10, size=(n, 2))
        chrom = Chromosome(rng.integers(0, 2, n, dtype=np.uint8))
        before = chromosome_fitness(points, chrom).total
        improved = deterministic_improvement(points, chrom)
        assert chromosome_fitness(points, improved).total <= before

    result = run_hga(
        np.random.default_rng(1).normal(size=(40, 2)), HgaConfig(population_size=30, seed=1)
    )
    trace = result.min_fitness_trace
    assert all(b <= a for a, b in zip(trace, trace[1:]))


@_report_line(4, "eigen residuals, orthonormality, variance, and round-trip within bounds")
def test_criterion_4_pca_numerics():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        d = int(rng.integers(2, 14))
        m = rng.normal(size=(d, d)) * rng.uniform(0.1, 50)
        sym = (m + m.T) / 2
        eig = symmetric_eigendecomposition(sym)
        for lam, v in zip(eig.eigenvalues, eig.eigenvectors.T):
            assert np.linalg.norm(sym @ v - lam * v) <= 1e-8 * max(1.0, abs(lam))
        gram = eig.eigenvectors.T @ eig.eigenvectors
        assert np.abs(gram - np.eye(d)).max() <= 1e-8

    for seed in range(10):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 14))
        data = rng.normal(size=(60, d)) * rng.uniform(0.5, 8.0, size=d)
        cov = covariance_matrix(data)
        eig = symmetric_eigendecomposition(cov)
        projected = project(data, eig, k=2)
        var1 = float(np.var(projected.points[:, 0], ddof=1))
        assert abs(var1 - eig.eigenvalues[0]) <= 1e-6 * abs(eig.eigenvalues[0])
        full = project(data, eig, k=d)
        reconstructed = full.points @ eig.eigenvectors.T
        assert np.abs(reconstructed - (data - data.mean(axis=0))).max() <= 1e-8


@_report_line(5, "crossover and mutation reproduce the published vectors bit-exact")
def test_criterion_5_crossover_mutation_fixtures():
    p1 = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    p2 = np.array([0, 0, 0, 1, 1], dtype=np.uint8)
    o1, o2 = one_point_crossover(p1, p2, 4)
    assert o1.tolist() == [1, 0, 1, 1, 1]
    assert o2.tolist() == [0, 0, 0, 1, 0]

    two_point_mutation(o1, (1, 4))
    assert o1.tolist() == [1, 1, 1, 1, 0]
    two_point_mutation(o2, (0, 3))
    assert o2.tolist() == [1, 0, 0, 0, 0]


@_report_line(6, "full-default experiment: fast, schema-valid, reproducible; HGA holds up over 20 seeds")
def test_criterion_6_end_to_end_experiment(heart_csv, tmp_path):
    base = ExperimentConfig(input=heart_csv, seed=0, normalize_timings=True)
    start = time.perf_counter()
    report = run_experiment(base)
    elapsed = time.perf_counter() - start
    assert elapsed < 600, f"full-default run took {elapsed:.0f}s"
    assert report["config"]["population_size"] == 2500
    assert report["dataset"]["n_rows"] == 303

    path = emit_report(report, "json", tmp_path / "full.json")
    jsonschema.validate(json.loads(path.read_text()), load_report_schema())
    assert run_experiment(base) == report  # seed-reproducible

    batch = run_experiment(
        ExperimentConfig(input=heart_csv, seed=100, replicates=20, normalize_timings=True)
    )
    rows = batch["replicates"]
    hga_fit = [r["hga_fitness"] for r in rows]
    km_fit = [r["kmeans_fitness"] for r in rows]
    hga_acc = [r["hga_accuracy_pct"] for r in rows]
    km_acc = [r["kmeans_accuracy_pct"] for r in rows]
    wins = sum(1 for h, k in zip(hga_acc, km_acc) if h >= k)

    print(
        f"\n  20-seed batch: median HGA fitness {median(hga_fit):.4f} vs "
        f"k-means {median(km_fit):.4f}; HGA accuracy >= k-means in {wins}/20 seeds"
    )
    print(
        f"  accuracy distribution: min {min(hga_acc):.2f}  median {median(hga_acc):.2f}  "
        f"max {max(hga_acc):.2f}  (published figure on the real data: 94.06)"
    )
    assert median(hga_fit) <= median(km_fit)
    assert wins >= 10

    trace = report["hga"]["min_fitness_trace"]
    assert all(b <= a for a, b in zip(trace, trace[1:]))


@_report_line(7, "identical flags and seed give byte-identical reports")
def test_criterion_7_determinism(heart_csv, tmp_path):
    blobs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        code = cli.main(
            [
                "experiment", "--input", heart_csv, "--seed", "21",
                "--population-size", "150", "--normalize-timings",
                "--output", str(out),
            ]
        )
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
