"""Seeded end-to-end experiment: load, impute, project, cluster, evaluate.

The report is a plain dict matching ``report_schema.json`` (shipped next
to this module). Reports are emitted with sorted keys, so two runs with
identical flags and seed produce byte-identical JSON once timings are
normalized. Replicate seeds are derived as base_seed + i, and each runs only
the seed-dependent k-means baseline and HGA over one shared split of the points.
The seeds run in strided shares, one per usable CPU: this process runs the
base seed's share and a forked child each other share. Rows come back in
seed order, so the report does not depend on the number of CPUs.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__
from .clustering import Chromosome, as_points, check_summable, chromosome_fitness, kmeans
from .dataset import impute_missing, load_heart_csv, split_features_target, standardize
from .errors import ContractError, HgaClustError, InputError
from .evaluation import align_clusters_to_labels, confusion_matrix, metrics
from .hga import HgaConfig, run_hga
from .pca import covariance_matrix, project, symmetric_eigendecomposition

SCHEMA_VERSION = 1
REPORT_FORMATS = ("json", "csv-summary")


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
        check_summable(projected.points.T)  # as SplitPoints does, with the pca stage's prefix
    return data, features, labels, projected, timings


def evaluate_assignment(genes: np.ndarray, labels: np.ndarray) -> dict:
    """Label mapping, confusion counts and the five metrics of one assignment."""
    mapped = align_clusters_to_labels(genes, labels)
    cm = confusion_matrix(mapped, labels)
    m = metrics(cm)
    return {
        "label_mapping": "identity" if np.array_equal(mapped, genes) else "flipped",
        "confusion": asdict(cm),
        "metrics": {f"{name}_pct": value for name, value in asdict(m).items()},
        "metrics_display": {f"{name}_pct": value for name, value in m.rounded().items()},
    }


def kmeans_block(points, labels: np.ndarray, seed: int) -> dict:
    """The report's ``kmeans`` block: the seeded two-cluster baseline and its score."""
    split = as_points(points)
    baseline = kmeans(split, seed)
    chrom = Chromosome(baseline.genes)
    fitness = chromosome_fitness(split, chrom).total
    if not math.isfinite(fitness):
        raise InputError("the projected points cannot be split into two non-empty clusters")
    return {
        "fitness": fitness,
        "iterations": baseline.iterations,
        "objective_trace": baseline.objective_trace,
        "distance_trace": baseline.distance_trace,
        "assignment": chrom.genes_string(),
        **evaluate_assignment(baseline.genes, labels),
    }


def hga_block(points, labels: np.ndarray, config: HgaConfig, trace_sink=None) -> dict:
    """The report's ``hga`` block: one hybrid GA run under ``config``."""
    result = run_hga(points, config, trace_sink=trace_sink)
    return {
        "best_fitness": result.best_fitness,
        "generations_run": result.generations_run,
        "terminated_by": result.terminated_by,
        "min_fitness_trace": result.min_fitness_trace,
        "assignment": result.best_chromosome.genes_string(),
        **evaluate_assignment(result.best_chromosome.genes, labels),
    }


def _run_seed(config: ExperimentConfig, seed: int, labels, split, trace_sink=None) -> dict:
    """One seed's ``kmeans`` and ``hga`` blocks over the shared split, and their stage times."""
    timings: dict[str, float] = {}
    with _stage("kmeans", timings):
        kmeans_report = kmeans_block(split, labels, seed)
    with _stage("hga", timings):
        hga_report = hga_block(split, labels, replace(config, seed=seed), trace_sink)
    return {"kmeans": kmeans_report, "hga": hga_report, "timings_s": timings}


def _rows(bodies) -> tuple[list[dict], Exception | None]:
    """Replicate rows of lazy (seed, body) pairs up to the first that raises; that error or None."""
    rows = []
    try:
        for seed, body in bodies:
            rows.append({
                "seed": seed,
                "hga_fitness": body["hga"]["best_fitness"],
                "hga_accuracy_pct": body["hga"]["metrics"]["accuracy_pct"],
                "kmeans_fitness": body["kmeans"]["fitness"],
                "kmeans_accuracy_pct": body["kmeans"]["metrics"]["accuracy_pct"],
                "generations_run": body["hga"]["generations_run"],
            })
    except Exception as exc:
        return rows, exc
    return rows, None


def _fork_rows(bodies):
    """(pid, pipe) of a child that pickles :func:`_rows` of ``bodies`` to the pipe. The child
    leaves by ``os._exit``: it never returns into the caller nor flushes inherited buffers."""
    read, write = os.pipe()
    if pid := os.fork():
        os.close(write)
        return pid, os.fdopen(read, "rb")
    status = 1
    try:
        os.close(read)  # else a parent that died leaves this child blocked on a full pipe
        with os.fdopen(write, "wb") as pipe:
            pickle.dump(_rows(bodies), pipe)
        status = 0
    finally:
        os._exit(status)


def _join_rows(seeds, pid: int, pipe) -> tuple[list[dict], Exception | None]:
    """A forked share's rows and error; a child that ends without them is a ContractError."""
    with pipe:
        payload = pipe.read()  # to EOF first: a payload can outgrow the pipe's buffer
    if os.waitpid(pid, 0)[1]:
        return [], ContractError(f"the run of seeds {list(seeds)} ended without a result")
    return pickle.loads(payload)


def run_experiment(config: ExperimentConfig, trace_sink=None) -> dict:
    """Full report for the base seed, plus one :func:`_run_seed` row per seed when replicating.

    ``trace_sink`` receives (generation, min_fitness, max_fitness) for the
    base-seed run only.
    """
    t0 = time.perf_counter()
    data, features, labels, projected, timings = prepare_points(config)
    split = as_points(projected)
    seeds = range(config.seed, config.seed + config.replicates)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    width = min(cpus, len(seeds))
    shares, children = [seeds[i::width] for i in range(width)], []
    try:
        for share in shares[1:]:
            bodies = ((seed, _run_seed(config, seed, labels, split)) for seed in share)
            children.append((share, *_fork_rows(bodies)))
        base = _run_seed(config, config.seed, labels, split, trace_sink)
        timings.update(base.pop("timings_s"))
        low_count = int((labels == 0).sum())
        predicted = np.frombuffer(base["hga"]["assignment"].encode(), np.uint8) & 1  # "1" is 49
        predicted ^= base["hga"]["label_mapping"] == "flipped"  # relabeled onto the classes
        report = {
            "schema_version": SCHEMA_VERSION,
            "artifact_version": __version__,
            "config": asdict(config),
            "dataset": {
                "n_rows": data.n_rows,
                "n_features": features.n_columns,
                "imputed_cell_count": len(data.imputed_cells),
                "imputed_cells": [[row, col] for row, col in data.imputed_cells],
                "label_counts": {"low_risk": low_count, "high_risk": int(labels.size - low_count)},
            },
            "pca": {
                "standardized": config.standardize,
                "explained_variance_ratio": list(projected.explained_variance_ratio),
            },
            **base,
            "scatter": {
                "pc1": projected.points[:, 0].tolist(),
                "pc2": projected.points[:, 1].tolist(),
                "predicted": predicted.tolist(),
                "actual": labels.tolist(),  # int64, so JSON writes 1, not 1.0
            },
            "timings_s": timings,
        }
        timings["total"] = time.perf_counter() - t0

        bodies = ((seed, _run_seed(config, seed, labels, split)) for seed in shares[0][1:])
        results = [(shares[0], *_rows(chain([(config.seed, report)], bodies)))]
        while children:
            results.append((children[0][0], *_join_rows(*children[0])))
            children.pop(0)
    finally:  # children are left here only when this process raised
        for _, pid, pipe in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
    if failures := [(share[len(rows)], error) for share, rows, error in results if error]:
        raise min(failures)[1]  # the lowest failing seed's, as a serial run raises
    rows = sorted((row for _, rows, _ in results for row in rows), key=lambda row: row["seed"])
    report["replicates"] = rows
    if config.replicates > 1:
        wins = sum(1 for r in rows if r["hga_accuracy_pct"] >= r["kmeans_accuracy_pct"])
        summary = report["replicate_summary"] = {
            f"median_{key}": float(np.median([r[key] for r in rows]))
            for key in ("hga_fitness", "kmeans_fitness", "hga_accuracy_pct", "kmeans_accuracy_pct")
        }
        summary["hga_accuracy_at_least_kmeans_fraction"] = wins / len(rows)

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


def render_report(report: dict, format: str = "json") -> Iterator[str]:
    """The report's text in chunks: full JSON, or a header plus one row of headline metrics.

    Chunks spare a large report one whole string and its encoded copy.
    JSON refuses NaN and infinity. The CSV columns follow the report's
    insertion order, so the metric columns come in :class:`Metrics` order.
    """
    if format not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {format!r}")
    if format == "json":
        yield from json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False).iterencode(report)
        yield "\n"
        return
    if "hga" in report:
        config, hga = report["config"], report["hga"]
        columns = {
            "seed": config["seed"],
            "n_rows": report["dataset"]["n_rows"],
            "standardize": config["standardize"],
            "impute_strategy": config["impute_strategy"],
            "kmeans_accuracy_pct": report["kmeans"]["metrics_display"]["accuracy_pct"],
            "kmeans_fitness": report["kmeans"]["fitness"],
            "hga_fitness": hga["best_fitness"],
            **{f"hga_{key}": value for key, value in hga["metrics_display"].items()},
            "hga_generations": hga["generations_run"],
        }
    else:  # evaluation-only report (confusion + metrics)
        columns = {**report["confusion"], **report["metrics_display"]}
    yield ",".join(columns) + "\n" + ",".join(str(v) for v in columns.values()) + "\n"


def emit_report(report: dict, format: str = "json", path: str | Path = "report.json") -> Path:
    """Write :func:`render_report`'s text to ``path``; a refused report leaves no file."""
    with output_file(path) as handle:
        handle.writelines(render_report(report, format))
    return Path(path)


@contextmanager
def output_file(path: str | Path):
    """``path`` open for writing. A body that raises removes ``path`` if it is a regular
    file; a device or pipe, or a link to one, stays."""
    with open(path, "w") as handle:
        try:
            yield handle
        except BaseException:
            handle.close()
            if Path(path).is_file():
                Path(path).unlink()
            raise


def csv_line(values) -> str:
    """One CSV row of each value's repr, so floats read back bit for bit."""
    return ",".join(map(repr, values)) + "\n"


def write_csv_table(path: str | Path, columns: dict[str, list]) -> None:
    """A header of the column names, then one :func:`csv_line` per row of the columns."""
    with open(path, "w") as handle:
        handle.write(",".join(columns) + "\n")
        handle.writelines(map(csv_line, zip(*columns.values())))
