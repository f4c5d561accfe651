"""Per-seed correctness gate, applied to every pass outside the timed region.

A seed passes only if the CLI returned 0, the report validates against
the program's own schema, both fitness values equal a pure-Python
``math.fsum`` recomputation bit for bit, and -- where ``reference.json``
holds a frozen identity for the seed -- the identity matches.

Replicate rows other than the base seed carry no assignment in the
report, so for them the gate checks the row's seed, its finite values and
its frozen row hash where one is held.
"""

from __future__ import annotations

import hashlib
import json
import math


def python_fitness(xs, ys, genes: str) -> float:
    """Two-cluster fitness from scratch: plain lists, math.sqrt and math.fsum.

    The benchmark's own copy of the oracle recipe in ``tests/oracles.py``;
    +inf when either cluster is empty.
    """
    parts = []
    for cluster in "01":
        members = [(x, y) for x, y, g in zip(xs, ys, genes) if g == cluster]
        if not members:
            return math.inf
        k = len(members)
        cx = math.fsum(p[0] for p in members) / k
        cy = math.fsum(p[1] for p in members) / k
        parts.append(
            math.fsum(
                math.sqrt((p[0] - cx) * (p[0] - cx) + (p[1] - cy) * (p[1] - cy))
                for p in members
            )
        )
    return parts[0] + parts[1]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def row_sha256(row: dict) -> str:
    return _sha256(json.dumps(row, sort_keys=True))


def identity(report: dict, input_sha256: str) -> dict:
    """The frozen-reference block of one report."""
    return {
        "input_sha256": input_sha256,
        "best_fitness": repr(report["hga"]["best_fitness"]),
        "hga_assignment_sha256": _sha256(report["hga"]["assignment"]),
        "kmeans_assignment_sha256": _sha256(report["kmeans"]["assignment"]),
        "replicate_rows_sha256": [row_sha256(row) for row in report["replicates"]],
    }


def check_report(report, validator, seed: int, replicates: int, input_sha256: str,
                 reference: dict | None) -> list[list[str]]:
    """Problems found for each of the ``replicates`` seeds (empty list: seed passed)."""
    problems: list[list[str]] = [[] for _ in range(replicates)]
    schema_errors = [e.message for e in validator.iter_errors(report)]
    if schema_errors:
        return [[f"schema: {schema_errors[0]}"] for _ in range(replicates)]

    base = problems[0]
    xs, ys = report["scatter"]["pc1"], report["scatter"]["pc2"]
    for block, key in (("hga", "best_fitness"), ("kmeans", "fitness")):
        got = report[block][key]
        want = python_fitness(xs, ys, report[block]["assignment"])
        if got != want:
            base.append(f"{block}.{key} {got!r} != fsum oracle {want!r}")
    if report["config"]["seed"] != seed:
        base.append(f"config.seed {report['config']['seed']} != {seed}")

    rows = report["replicates"]
    if len(rows) != replicates:
        return [p + [f"{len(rows)} replicate rows, expected {replicates}"] for p in problems]
    for i, row in enumerate(rows):
        if row["seed"] != seed + i:
            problems[i].append(f"row {i} seed {row['seed']} != {seed + i}")
        for key in ("hga_fitness", "kmeans_fitness"):
            if not (math.isfinite(row[key]) and row[key] > 0):
                problems[i].append(f"row {i} {key} {row[key]!r} is not finite and positive")
    if rows[0]["hga_fitness"] != report["hga"]["best_fitness"]:
        base.append("row 0 hga_fitness differs from hga.best_fitness")

    if reference is not None:
        got = identity(report, input_sha256)
        for key in ("input_sha256", "best_fitness", "hga_assignment_sha256",
                    "kmeans_assignment_sha256"):
            if got[key] != reference[key]:
                base.append(f"identity {key} {got[key]} != frozen {reference[key]}")
        for i, (have, want) in enumerate(zip(got["replicate_rows_sha256"],
                                             reference["replicate_rows_sha256"])):
            if have != want:
                problems[i].append(f"row {i} hash differs from the frozen reference")
    return problems
