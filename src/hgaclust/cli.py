"""Command-line experiment runner.

Subcommands mirror the pipeline stages so each is independently runnable:

  pca         project the dataset onto (pc1, pc2) and export a plot CSV
  kmeans      seeded 2-means baseline clustering of the projection
  hga         hybrid genetic algorithm clustering
  evaluate    score a saved 0/1 assignment against the dataset labels
  experiment  the full pipeline, optionally replicated over seeds

Exit status: 0 on success, 2 for a bad flag value, file, output path
or dataset, 3 for an internal contract violation.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from .dataset import IMPUTE_STRATEGIES
from .errors import ContractError, InputError
from .experiment import (
    REPORT_FORMATS,
    ExperimentConfig,
    csv_line,
    emit_report,
    evaluate_assignment,
    hga_block,
    kmeans_block,
    prepare_points,
    render_report,
    run_experiment,
    write_csv_table,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hgaclust", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # Config flags store under their ExperimentConfig field name and leave
    # the namespace untouched when absent, so the dataclass holds the defaults.
    data = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    data.add_argument("--input", required=True, help="path to the heart-disease CSV")
    data.add_argument(
        "--standardize",
        action=argparse.BooleanOptionalAction,
        help="z-score the 13 features before PCA (default: on)",
    )
    data.add_argument(
        "--impute",
        dest="impute_strategy",
        choices=IMPUTE_STRATEGIES,
        help="missing-value strategy (default: median)",
    )

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--output", help="report path (default: stdout)")
    out.add_argument("--format", choices=REPORT_FORMATS, default="json")

    seeded = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    seeded.add_argument("--seed", type=int, help="run seed (default: 0)")

    ga = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    ga.add_argument("--population-size", type=int)
    ga.add_argument("--doldrum-factor", type=int)
    ga.add_argument("--max-generations", type=int)
    ga.add_argument(
        "--no-improvement", dest="improvement_enabled", action="store_false",
        help="disable the deterministic improvement step",
    )
    ga.add_argument(
        "--no-mutation", dest="mutation_enabled", action="store_false",
        help="disable two-point mutation (ablation)",
    )
    ga.add_argument(
        "--improve-initial", dest="improve_initial_population", action="store_true",
        help="also improve the initial population",
    )
    ga.add_argument(
        "--trace-file", default=None, help="write generation,min_fitness,max_fitness lines here"
    )

    p = sub.add_parser("pca", parents=[data], help="project onto the top two components")
    p.add_argument("--output", required=True, help="projection CSV path (pc1,pc2,target)")

    sub.add_parser("kmeans", parents=[data, seeded, out], help="k-means baseline")
    sub.add_parser("hga", parents=[data, seeded, ga, out], help="hybrid GA clustering")

    ev = sub.add_parser("evaluate", parents=[data, out], help="score a saved assignment")
    ev.add_argument("--assignment", required=True, help="file holding a 0/1 assignment string")

    ex = sub.add_parser("experiment", parents=[data, seeded, ga, out], help="full pipeline")
    ex.add_argument(
        "--replicates", type=int, default=argparse.SUPPRESS,
        help="number of derived-seed runs",
    )
    ex.add_argument("--scatter", help="write a pc1,pc2,predicted,actual CSV here")
    ex.add_argument(
        "--normalize-timings",
        action="store_true",
        default=argparse.SUPPRESS,
        help="zero the timing fields so reports are byte-reproducible",
    )

    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    given = vars(args)
    return ExperimentConfig(
        **{f.name: given[f.name] for f in fields(ExperimentConfig) if f.name in given}
    )


def _emit(args: argparse.Namespace, report: dict) -> None:
    if args.output:
        emit_report(report, args.format, args.output)
    else:
        sys.stdout.writelines(render_report(report, args.format))


@contextmanager
def _trace_sink(path: str | None):
    """generation,min_fitness,max_fitness lines, or None; a body that raises leaves no file."""
    if not path:
        yield None
        return
    with open(path, "w") as handle:
        handle.write("generation,min_fitness,max_fitness\n")
        try:
            yield lambda *row: handle.write(csv_line(row))
        except BaseException:
            handle.close()
            Path(path).unlink()
            raise


def _cmd_pca(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    _, _, labels, projected, _ = prepare_points(config)
    pc1, pc2 = projected.points.T.tolist()
    write_csv_table(args.output, {"pc1": pc1, "pc2": pc2, "target": labels.tolist()})
    summary = {
        "explained_variance_ratio": list(projected.explained_variance_ratio),
        "standardized": config.standardize,
        "n_points": projected.n_points,
        "output": args.output,
    }
    sys.stdout.writelines(render_report(summary))
    return 0


def _cmd_kmeans(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    _, _, labels, projected, _ = prepare_points(config)
    _emit(args, {"seed": config.seed, **kmeans_block(projected, labels, config.seed)})
    return 0


def _cmd_hga(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    _, _, labels, projected, _ = prepare_points(config)
    with _trace_sink(args.trace_file) as sink:
        block = hga_block(projected, labels, config, trace_sink=sink)
    _emit(args, {"seed": config.seed, **block})
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    _, _, labels, _, _ = prepare_points(config)
    try:
        text = Path(args.assignment).read_text(encoding="utf-8-sig").strip()
    except UnicodeDecodeError as exc:
        raise InputError(f"{args.assignment}: {exc}") from None
    if not text or set(text) - {"0", "1"}:
        raise InputError(f"{args.assignment}: expected a string of 0s and 1s")
    genes = np.array([int(c) for c in text], dtype=np.uint8)
    if genes.size != labels.size:
        raise InputError(
            f"assignment length {genes.size} does not match dataset size {labels.size}"
        )
    _emit(args, evaluate_assignment(genes, labels))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    with _trace_sink(args.trace_file) as sink:
        report = run_experiment(config, trace_sink=sink)
    if args.scatter:
        write_csv_table(args.scatter, report["scatter"])
    _emit(args, report)
    return 0


def _check_output_paths(args: argparse.Namespace) -> None:
    """Refuse, before any stage runs, an output path that names a directory, lies in
    none, or names the same file as an input or an earlier output."""
    inputs = (args.input, getattr(args, "assignment", None))
    taken = {os.path.realpath(path) for path in inputs if path}
    for path in (getattr(args, name, None) for name in ("output", "scatter", "trace_file")):
        if not path:
            continue
        if Path(path).is_dir() or not Path(path).parent.is_dir():
            raise InputError(f"{path}: not a file path in an existing directory")
        if os.path.realpath(path) in taken:
            raise InputError(f"{path}: names the same file as an input or another output")
        taken.add(os.path.realpath(path))


_COMMANDS = {
    "pca": _cmd_pca,
    "kmeans": _cmd_kmeans,
    "hga": _cmd_hga,
    "evaluate": _cmd_evaluate,
    "experiment": _cmd_experiment,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_output_paths(args)
        return _COMMANDS[args.command](args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
