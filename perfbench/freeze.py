"""Re-freeze ``reference.json``, the identity block the gate compares against.

    python3 perfbench/freeze.py

Run from the root of a source checkout. For workload seeds 0-9 (and, on
``paper_single``, the four CLI seeds of each seed's panel) it runs
the CLI in-process, checks the report with the gate, and records
``repr(best_fitness)``, the sha256 of both assignments, the sha256 of each
replicate row and the input's sha256. Re-freeze only in a change that
alters results on purpose, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import gate
import run

WORKLOAD_SEEDS = range(10)


def main() -> int:
    root = Path.cwd().resolve()
    sys.path.insert(0, str(root / "src"))
    import hgaclust.cli

    (root / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=root / ".perfbench_work"))
    references: dict[str, dict[str, dict]] = {}
    try:
        for name, workload in run.WORKLOADS.items():
            frozen = references.setdefault(name, {})
            for seed in WORKLOAD_SEEDS:
                bench = run.Bench(root, workdir, name, seed)
                bench.prepare_input()
                for cli_seed in sorted({workload.cli_seed(seed, k) for k in range(workload.cycle)}):
                    if hgaclust.cli.main(bench.argv(cli_seed)) != 0:
                        raise SystemExit(f"{name} seed {cli_seed}: CLI failed")
                    report = json.loads(bench.report_path.read_text())
                    problems = gate.check_report(report, bench.validator, cli_seed,
                                                 workload.replicates, bench.input_sha256, None)
                    if any(problems):
                        raise SystemExit(f"{name} seed {cli_seed}: {problems}")
                    frozen[str(cli_seed)] = gate.identity(report, bench.input_sha256)
                    print(name, cli_seed, frozen[str(cli_seed)]["best_fitness"], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = Path(run.__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
