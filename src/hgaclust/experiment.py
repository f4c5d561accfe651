"""Seeded end-to-end experiment: load, impute, project, cluster, evaluate.

The report is a plain dict matching ``report_schema.json`` (shipped next
to this module). Reports are emitted with sorted keys, so two runs with
identical flags and seed produce byte-identical JSON once timings are
normalized. Replicate seeds are derived as base_seed + i.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from importlib import resources
from itertools import chain
from pathlib import Path
from statistics import median

import numpy as np

from . import __version__
from .clustering import Chromosome, chromosome_fitness, kmeans
from .dataset import impute_missing, load_heart_csv, split_features_target, standardize
from .errors import HgaClustError, InputError, InsufficientDataError
from .evaluation import align_clusters_to_labels, confusion_matrix, metrics
from .hga import HgaConfig, run_hga
from .pca import covariance_matrix, project, symmetric_eigendecomposition

SCHEMA_VERSION = 1


@dataclass(kw_only=True)
class ExperimentConfig(HgaConfig):
    """The GA knobs plus the pipeline's data and reporting settings."""

    input: str
    standardize: bool = True
    impute_strategy: str = "median"
    replicates: int = 1
    normalize_timings: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.replicates < 1:
            raise InputError(f"replicates must be at least 1, got {self.replicates}")


@contextmanager
def _stage(name: str, timings: dict[str, float]):
    """Prefix the stage name to package errors and record its wall time."""
    start = time.perf_counter()
    try:
        yield
    except HgaClustError as exc:
        raise type(exc)(f"{name}: {exc}") from exc
    except OSError as exc:
        raise InputError(f"{name}: {exc}") from exc
    timings[name] = time.perf_counter() - start


def prepare_points(config: ExperimentConfig):
    """Shared front half of every run: CSV -> imputed features -> 2-D points.

    Returns (data, features, labels, projected, stage timings).
    """
    timings: dict[str, float] = {}
    with _stage("dataset", timings):
        raw = load_heart_csv(config.input)
        data = impute_missing(raw, config.impute_strategy)
        features, labels = split_features_target(data)
        if config.standardize:
            features = standardize(features)
    with _stage("pca", timings):
        eig = symmetric_eigendecomposition(covariance_matrix(features))
        projected = project(features, eig, k=2)
    return data, features, labels, projected, timings


def evaluate_assignment(genes: np.ndarray, labels: np.ndarray) -> dict:
    """Label mapping, confusion counts and the five metrics of one assignment."""
    mapped = align_clusters_to_labels(genes, labels)
    cm = confusion_matrix(mapped, labels)
    m = metrics(cm)
    rounded = m.rounded()
    return {
        "label_mapping": "identity" if np.array_equal(mapped, genes) else "flipped",
        "confusion": {"tp": cm.tp, "tn": cm.tn, "fp": cm.fp, "fn": cm.fn},
        "metrics": {
            "accuracy_pct": m.accuracy,
            "error_pct": m.error,
            "recall_pct": m.recall,
            "precision_pct": m.precision,
            "f1_pct": m.f1,
        },
        "metrics_display": {
            "accuracy_pct": rounded["accuracy"],
            "error_pct": rounded["error"],
            "recall_pct": rounded["recall"],
            "precision_pct": rounded["precision"],
            "f1_pct": rounded["f1"],
        },
    }


def kmeans_block(projected, labels: np.ndarray, seed: int) -> dict:
    """The report's ``kmeans`` block: the seeded two-cluster baseline."""
    baseline = kmeans(projected, seed)
    fitness = chromosome_fitness(projected, Chromosome(baseline.genes)).total
    if not math.isfinite(fitness):
        raise InsufficientDataError(
            "the projected points cannot be split into two non-empty clusters"
        )
    return {
        "fitness": fitness,
        "iterations": baseline.iterations,
        "objective_trace": baseline.objective_trace,
        "distance_trace": baseline.distance_trace,
        "assignment": "".join(str(int(g)) for g in baseline.genes),
        **evaluate_assignment(baseline.genes, labels),
    }


def hga_block(projected, labels: np.ndarray, config: HgaConfig, trace_sink=None) -> dict:
    """The report's ``hga`` block: one hybrid GA run under ``config``."""
    result = run_hga(projected, config, trace_sink=trace_sink)
    if not math.isfinite(result.best_fitness):
        raise InputError(
            f"no chromosome with two non-empty clusters after {result.generations_run} "
            "generations; try a larger population"
        )
    return {
        "best_fitness": result.best_fitness,
        "generations_run": result.generations_run,
        "terminated_by": result.terminated_by,
        "min_fitness_trace": result.min_fitness_trace,
        "assignment": result.best_chromosome.genes_string(),
        **evaluate_assignment(result.best_chromosome.genes, labels),
    }


def _run_single(config: ExperimentConfig, seed: int, prepared, trace_sink=None) -> dict:
    """One seed's pass over the prepared points; returns the per-seed report body."""
    data, features, labels, projected, prepare_timings = prepared
    timings = dict(prepare_timings)
    with _stage("kmeans", timings):
        kmeans_report = kmeans_block(projected, labels, seed)
    with _stage("hga", timings):
        hga_report = hga_block(projected, labels, replace(config, seed=seed), trace_sink)

    low_count = int((labels == 0).sum())
    # the scatter's prediction is the HGA assignment relabeled onto the classes
    flipped = hga_report["label_mapping"] == "flipped"
    return {
        "dataset": {
            "n_rows": data.n_rows,
            "n_features": features.n_columns,
            "imputed_cell_count": len(data.imputed_cells),
            "imputed_cells": [[row, col] for row, col in data.imputed_cells],
            "label_counts": {"low_risk": low_count, "high_risk": int(labels.size - low_count)},
        },
        "pca": {
            "standardized": config.standardize,
            "explained_variance_ratio": list(projected.explained_variance_ratio or ()),
        },
        "kmeans": kmeans_report,
        "hga": hga_report,
        "scatter": {
            "pc1": projected.points[:, 0].tolist(),
            "pc2": projected.points[:, 1].tolist(),
            "predicted": [int(g) ^ flipped for g in hga_report["assignment"]],
            "actual": [int(v) for v in labels],
        },
        "timings_s": timings,
    }


def run_experiment(config: ExperimentConfig, trace_sink=None) -> dict:
    """Full report for the base seed, plus per-seed rows when replicating.

    Every seed shares one prepared set of points. ``trace_sink`` receives
    (generation, min_fitness, max_fitness) for the base-seed run only.
    """
    t0 = time.perf_counter()
    prepared = prepare_points(config)
    report = {
        "schema_version": SCHEMA_VERSION,
        "artifact_version": __version__,
        "config": asdict(config),
        **_run_single(config, config.seed, prepared, trace_sink),
    }
    report["timings_s"]["total"] = time.perf_counter() - t0

    replicates = (
        _run_single(config, config.seed + i, prepared) for i in range(1, config.replicates)
    )
    rows = [
        {
            "seed": config.seed + i,
            "hga_fitness": body["hga"]["best_fitness"],
            "hga_accuracy_pct": body["hga"]["metrics"]["accuracy_pct"],
            "kmeans_fitness": body["kmeans"]["fitness"],
            "kmeans_accuracy_pct": body["kmeans"]["metrics"]["accuracy_pct"],
            "generations_run": body["hga"]["generations_run"],
        }
        for i, body in enumerate(chain([report], replicates))
    ]
    report["replicates"] = rows
    if config.replicates > 1:
        wins = sum(1 for r in rows if r["hga_accuracy_pct"] >= r["kmeans_accuracy_pct"])
        report["replicate_summary"] = {
            "median_hga_fitness": median(r["hga_fitness"] for r in rows),
            "median_kmeans_fitness": median(r["kmeans_fitness"] for r in rows),
            "median_hga_accuracy_pct": median(r["hga_accuracy_pct"] for r in rows),
            "median_kmeans_accuracy_pct": median(r["kmeans_accuracy_pct"] for r in rows),
            "hga_accuracy_at_least_kmeans_fraction": wins / len(rows),
        }

    if config.normalize_timings:
        normalize_report_timings(report)
    return report


def normalize_report_timings(report: dict) -> dict:
    """Zero every timing so byte-for-byte report comparison is meaningful."""
    report["timings_s"] = {key: 0.0 for key in report.get("timings_s", {})}
    return report


def load_report_schema() -> dict:
    text = resources.files("hgaclust").joinpath("report_schema.json").read_text()
    return json.loads(text)


def summary_csv_text(report: dict) -> str:
    """Header plus one row of headline metrics."""
    if "hga" in report:
        display = report["hga"]["metrics_display"]
        row = [
            report["config"]["seed"],
            report["dataset"]["n_rows"],
            report["config"]["standardize"],
            report["config"]["impute_strategy"],
            report["kmeans"]["metrics_display"]["accuracy_pct"],
            report["kmeans"]["fitness"],
            report["hga"]["best_fitness"],
            display["accuracy_pct"],
            display["error_pct"],
            display["recall_pct"],
            display["precision_pct"],
            display["f1_pct"],
            report["hga"]["generations_run"],
        ]
        header = (
            "seed,n_rows,standardize,impute_strategy,kmeans_accuracy_pct,kmeans_fitness,"
            "hga_fitness,hga_accuracy_pct,hga_error_pct,hga_recall_pct,hga_precision_pct,"
            "hga_f1_pct,hga_generations"
        )
    else:  # evaluation-only report (confusion + metrics)
        display = report["metrics_display"]
        cm = report["confusion"]
        row = [
            cm["tp"], cm["tn"], cm["fp"], cm["fn"],
            display["accuracy_pct"], display["error_pct"], display["recall_pct"],
            display["precision_pct"], display["f1_pct"],
        ]
        header = "tp,tn,fp,fn,accuracy_pct,error_pct,recall_pct,precision_pct,f1_pct"
    return header + "\n" + ",".join(str(v) for v in row) + "\n"


def report_json(report: dict) -> str:
    """The one JSON spelling of every report; NaN and infinity are refused."""
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def emit_report(report: dict, format: str = "json", path: str | Path = "report.json") -> Path:
    """Write the report as full JSON or a one-row CSV of headline metrics."""
    path = Path(path)
    if format == "json":
        path.write_text(report_json(report))
    elif format == "csv-summary":
        path.write_text(summary_csv_text(report))
    else:
        raise ValueError(f"unknown report format {format!r}")
    return path


def write_scatter_csv(report: dict, path: str | Path) -> Path:
    """(pc1, pc2, predicted, actual) rows for scatter plotting."""
    scatter = report["scatter"]
    path = Path(path)
    lines = ["pc1,pc2,predicted,actual"]
    for x, y, pred, actual in zip(
        scatter["pc1"], scatter["pc2"], scatter["predicted"], scatter["actual"]
    ):
        lines.append(f"{x!r},{y!r},{pred},{actual}")
    path.write_text("\n".join(lines) + "\n")
    return path
