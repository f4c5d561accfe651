"""Deterministic large-cohort input for the ``large_cohort`` workload.

A 20,000-row file in the 14-column heart-disease format, drawn from the
same class-conditional recipe as ``tests/data/make_synthetic_heart.py``
(copied here so the benchmark input cannot drift when that fixture script
changes), with 1% of the rows carrying a ``?`` in ``ca`` or ``thal``.
The bytes are a pure function of the workload seed.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

N_ROWS = 20_000
LOW_SHARE = 138 / 303  # class balance of the bundled 303-row fixture
MISSING_SHARE = 0.01
HEADER = "age,sex,cp,trestbps,chol,fbs,restecg,thalach,exang,oldpeak,slope,ca,thal,target"
CA, THAL = 11, 12


def _ints(rng, mean, sd, lo, hi, size):
    return np.clip(np.rint(rng.normal(mean, sd, size)), lo, hi).astype(int)


def _class_block(rng, n, high_risk):
    if high_risk:
        age = _ints(rng, 56.5, 8.0, 29, 77, n)
        sex = (rng.random(n) < 0.82).astype(int)
        cp = rng.choice(4, p=[0.68, 0.10, 0.10, 0.12], size=n)
        trestbps = _ints(rng, 134, 18, 94, 200, n)
        chol = _ints(rng, 251, 49, 126, 564, n)
        fbs = (rng.random(n) < 0.16).astype(int)
        restecg = rng.choice(3, p=[0.45, 0.50, 0.05], size=n)
        thalach = _ints(rng, 139, 22, 71, 202, n)
        exang = (rng.random(n) < 0.55).astype(int)
        oldpeak = np.clip(np.round(np.abs(rng.normal(1.6, 1.2, n)), 1), 0.0, 6.2)
        slope = rng.choice(3, p=[0.21, 0.65, 0.14], size=n)
        ca = rng.choice(5, p=[0.45, 0.25, 0.17, 0.10, 0.03], size=n)
        thal = rng.choice(4, p=[0.01, 0.05, 0.35, 0.59], size=n)
    else:
        age = _ints(rng, 52.5, 9.5, 29, 77, n)
        sex = (rng.random(n) < 0.56).astype(int)
        cp = rng.choice(4, p=[0.25, 0.30, 0.35, 0.10], size=n)
        trestbps = _ints(rng, 129, 16, 94, 200, n)
        chol = _ints(rng, 242, 52, 126, 564, n)
        fbs = (rng.random(n) < 0.14).astype(int)
        restecg = rng.choice(3, p=[0.60, 0.38, 0.02], size=n)
        thalach = _ints(rng, 158, 19, 71, 202, n)
        exang = (rng.random(n) < 0.14).astype(int)
        oldpeak = np.clip(np.round(np.abs(rng.normal(0.4, 0.7, n)), 1), 0.0, 6.2)
        slope = rng.choice(3, p=[0.13, 0.35, 0.52], size=n)
        ca = rng.choice(5, p=[0.75, 0.15, 0.07, 0.02, 0.01], size=n)
        thal = rng.choice(4, p=[0.01, 0.04, 0.75, 0.20], size=n)
    target = np.full(n, int(high_risk))
    return np.column_stack(
        [age, sex, cp, trestbps, chol, fbs, restecg, thalach, exang,
         oldpeak, slope, ca, thal, target]
    )


def _cell(value):
    if value == int(value):
        return str(int(value))
    return repr(float(value))


def cohort_text(seed: int) -> str:
    """CSV text of the cohort for ``seed``; one header line, ``N_ROWS`` data lines."""
    rng = np.random.default_rng([0x6A09E667, seed])
    n_low = round(N_ROWS * LOW_SHARE)
    rows = np.vstack([_class_block(rng, n_low, False), _class_block(rng, N_ROWS - n_low, True)])
    rng.shuffle(rows, axis=0)
    missing = rng.choice(N_ROWS, size=round(N_ROWS * MISSING_SHARE), replace=False)
    missing_col = {int(r): (CA if k % 3 else THAL) for k, r in enumerate(missing)}
    lines = [HEADER]
    for i, row in enumerate(rows):
        cells = [_cell(v) for v in row]
        if i in missing_col:
            cells[missing_col[i]] = "?"
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_cohort(path: str | Path, seed: int) -> dict:
    """Write the cohort and return its provenance record."""
    data = cohort_text(seed).encode()
    Path(path).write_bytes(data)
    return {
        "rows": N_ROWS,
        "missing_cells": data.count(b"?"),
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
    }
