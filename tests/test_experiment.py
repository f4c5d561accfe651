import json
import math
import os
import pickle
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace
from io import StringIO
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgaclust import cli, experiment
from hgaclust.errors import ContractError, InputError
from hgaclust.dataset import (
    IMPUTE_STRATEGIES,
    impute_missing,
    load_heart_csv,
    split_features_target,
)
from oracles import brute_force_min_fitness
from hgaclust.experiment import (
    REPORT_FORMATS,
    ExperimentConfig,
    emit_report,
    load_report_schema,
    normalize_report_timings,
    render_report,
    run_experiment,
    write_csv_table,
)

SMALL = dict(population_size=25, seed=11)
ROW_A = "52,1,0,166,350,0,1,133,1,2.3,1,2,2,1"
ROW_B = "48,0,3,145,298,0,0,134,0,0.2,2,0,2,0"
BAD_GA_KNOBS = [
    ["--population-size", "1"], ["--max-generations", "0"], ["--doldrum-factor", "0"],
    # past numpy's largest dimension; refused when the population is allocated
    ["--population-size", "100000000000000000000"], ["--population-size", str(2**64)],
]
FIXTURE_TEXT = (Path(__file__).parent / "data" / "synthetic_heart.csv").read_text()
FUZZ_CELLS = ["?", "0", "-3", "1e150", "1e308", "x"]


def _chol_rows(first, second):
    """ROW_A and ROW_B with their cholesterol cells replaced, then ROW_A as is."""
    return f"{ROW_A.replace('350', first)}\n{ROW_B.replace('298', second)}\n{ROW_A}\n".encode()


def _fixture_with_huge_cells() -> bytes:
    """The fixture with row 1's chol and row 2's trestbps at 1e154."""
    header, first, second, *rest = FIXTURE_TEXT.splitlines()
    names, first, second = header.split(","), first.split(","), second.split(",")
    first[names.index("chol")] = second[names.index("trestbps")] = "1.0e154"
    return "\n".join([header, ",".join(first), ",".join(second), *rest, ""]).encode()


def _validate_report(report: dict, command: str) -> None:
    """Check a subcommand's JSON report against its part of ``report_schema.json``.

    ``evaluate`` emits the scoring fields of a clustering block, and ``pca``
    the projection summary on stdout.
    """
    schema = load_report_schema()
    if command == "evaluate":
        scored = ["label_mapping", "confusion", "metrics", "metrics_display"]
        schema = {"$defs": schema["$defs"], **schema["properties"]["kmeans"], "required": scored}
    elif command != "experiment":
        schema = {"$defs": schema["$defs"], **schema["properties"][command]}
        report = {key: value for key, value in report.items() if key != "seed"}
    jsonschema.validate(report, schema)


@st.composite
def cli_runs(draw):
    """(argv, CSV text, traced, assignment, clash): 2-15 fixture rows with a few cells replaced.

    Knobs take small values; ``evaluate`` gets an assignment of about the
    row count, or a malformed one, and the other subcommands get None.
    ``clash`` is None, or now and then an output flag to point at the input.
    """
    header, *rows = FIXTURE_TEXT.splitlines()
    picked = draw(st.lists(st.sampled_from(rows), min_size=2, max_size=15))
    cells = [row.split(",") for row in picked]
    for _ in range(draw(st.integers(0, 3))):
        row = cells[draw(st.integers(0, len(cells) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(FUZZ_CELLS))
    lines = [header] * draw(st.booleans()) + [",".join(row) for row in cells]

    command = draw(st.sampled_from(["experiment", "hga", "kmeans", "pca", "evaluate"]))
    # flag -> (valid values, bad values); at most one knob per example takes a bad value,
    # so each bad value is reached on its own, and about half the examples have none
    knobs = {}
    switches = ["--standardize", "--no-standardize"]
    if command in ("experiment", "hga", "kmeans"):
        knobs["--seed"] = (range(51), range(-2, 0))
    if command in ("experiment", "hga"):
        knobs["--population-size"] = (range(2, 7), range(2))
        knobs["--max-generations"] = (range(1, 9), range(1))
        knobs["--doldrum-factor"] = (range(1, 4), range(1))
        switches += ["--no-improvement", "--no-mutation", "--improve-initial"]
    if command == "experiment":
        knobs["--replicates"] = (range(1, 4), range(1))
        switches.append("--normalize-timings")
    broken = draw(st.none() | st.sampled_from(list(knobs))) if knobs else None
    argv = [command]
    for flag, (good, bad) in knobs.items():
        # always bound the GA: the defaults (2500 chromosomes, 10^6 generations) take seconds
        if flag in ("--population-size", "--max-generations", broken) or draw(st.booleans()):
            argv += [flag, str(draw(st.sampled_from(bad if flag == broken else good)))]
    for flag, choices in (("--impute", IMPUTE_STRATEGIES), ("--format", REPORT_FORMATS)):
        if (command != "pca" or flag == "--impute") and draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(choices))]
    argv += draw(st.lists(st.sampled_from(switches), unique=True))
    traced = command in ("experiment", "hga") and draw(st.booleans())
    assignment = None
    if command == "evaluate":
        size = len(cells) + draw(st.integers(-1, 1))
        assignment = draw(
            st.text("01", min_size=size, max_size=size) | st.sampled_from(["", "012", " 01 \n"])
        )
    clash = draw(st.sampled_from([None] * 6 + ["--output"] + ["--trace-file"] * traced))
    return argv, "\n".join(lines) + "\n", traced, assignment, clash


@st.composite
def csv_bytes(draw):
    """Arbitrary bytes, or 2-12 fixture lines with a few byte runs spliced in or cut out."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=300))
    header, *rows = FIXTURE_TEXT.encode().splitlines()
    lines = [header] * draw(st.booleans()) + draw(st.lists(st.sampled_from(rows), min_size=2, max_size=12))
    text = bytearray(draw(st.sampled_from([b"\n", b"\r\n"])).join(lines))
    for _ in range(draw(st.integers(0, 4))):
        at, cut = draw(st.integers(0, len(text))), draw(st.integers(0, 3))
        text[at:at + cut] = draw(st.binary(max_size=4) | st.sampled_from([b",", b"?", b"\n", b"nan"]))
    return bytes(text)


@pytest.fixture(scope="module")
def small_report(heart_csv):
    return run_experiment(ExperimentConfig(input=heart_csv, **SMALL))


class TestRunExperiment:
    def test_report_validates_against_schema(self, small_report, tmp_path):
        path = emit_report(small_report, "json", tmp_path / "report.json")
        parsed = json.loads(path.read_text())
        jsonschema.validate(parsed, load_report_schema())

    def test_config_echoed(self, small_report, heart_csv):
        config = small_report["config"]
        assert config["input"] == heart_csv
        assert config["seed"] == 11
        assert config["population_size"] == 25
        assert config["impute_strategy"] == "median"
        assert config["standardize"] is True

    def test_dataset_block(self, small_report):
        block = small_report["dataset"]
        assert block["n_rows"] == 303
        assert block["n_features"] == 13
        assert block["imputed_cell_count"] == 6
        assert block["label_counts"] == {"low_risk": 138, "high_risk": 165}

    def test_assignment_strings_match_length(self, small_report):
        assert len(small_report["hga"]["assignment"]) == 303
        assert set(small_report["hga"]["assignment"]) <= {"0", "1"}
        assert len(small_report["kmeans"]["assignment"]) == 303

    def test_hga_trace_non_increasing(self, small_report):
        trace = small_report["hga"]["min_fitness_trace"]
        assert len(trace) == small_report["hga"]["generations_run"]
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert small_report["hga"]["best_fitness"] == trace[-1]

    def test_deterministic_given_seed(self, heart_csv):
        config = ExperimentConfig(input=heart_csv, normalize_timings=True, **SMALL)
        assert run_experiment(config) == run_experiment(config)

    def test_different_seed_differs(self, heart_csv, small_report):
        other = run_experiment(ExperimentConfig(input=heart_csv, population_size=25, seed=12))
        assert other["hga"]["assignment"] != small_report["hga"]["assignment"] or (
            other["hga"]["min_fitness_trace"] != small_report["hga"]["min_fitness_trace"]
        )

    def test_missing_input_stage_labeled(self, tmp_path):
        with pytest.raises(Exception, match="dataset"):
            run_experiment(ExperimentConfig(input=str(tmp_path / "nope.csv"), **SMALL))

    def test_zero_replicates_rejected(self, heart_csv):
        with pytest.raises(Exception, match="replicates"):
            run_experiment(ExperimentConfig(input=heart_csv, replicates=0, **SMALL))

    def test_tiny_csv_hga_reaches_exhaustive_optimum(self, tmp_path):
        rows = [  # two tight groups of three
            "40,1,0,120,200,0,0,180,0,0.2,2,0,2,0",
            "41,1,0,118,205,0,0,178,0,0.3,2,0,2,0",
            "39,0,0,122,198,0,0,182,0,0.1,2,0,2,0",
            "65,1,3,160,300,1,1,110,1,4.0,0,3,3,1",
            "66,1,3,158,305,1,1,108,1,4.2,0,3,3,1",
            "64,0,3,162,295,1,1,112,1,3.8,0,3,3,1",
        ]
        csv_path = tmp_path / "tiny.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        report = run_experiment(
            ExperimentConfig(input=str(csv_path), population_size=4, seed=1)
        )
        points = list(zip(report["scatter"]["pc1"], report["scatter"]["pc2"]))
        optimum, _ = brute_force_min_fitness(points)
        assert report["hga"]["best_fitness"] == optimum

    @pytest.mark.slow
    def test_full_default_regression(self, heart_csv):
        # frozen from the first verified full-default run on the bundled fixture;
        # the loose tolerance leaves room for BLAS last-ulp drift upstream
        report = run_experiment(ExperimentConfig(input=heart_csv, seed=0))
        assert report["hga"]["best_fitness"] == pytest.approx(361.03269669050667, abs=1e-6)
        assert report["hga"]["metrics_display"]["accuracy_pct"] == 89.77
        assert report["hga"]["terminated_by"] == "doldrum"
        assert report["kmeans"]["fitness"] == pytest.approx(361.1723113160781, abs=1e-6)
        assert report["hga"]["best_fitness"] <= report["kmeans"]["fitness"]

    def test_replicates_and_summary(self, heart_csv):
        config = ExperimentConfig(input=heart_csv, population_size=25, seed=5, replicates=3)
        report = run_experiment(config)
        seeds = [row["seed"] for row in report["replicates"]]
        assert seeds == [5, 6, 7]
        summary = report["replicate_summary"]
        assert summary["median_hga_fitness"] <= summary["median_kmeans_fitness"] * 1.5
        assert 0.0 <= summary["hga_accuracy_at_least_kmeans_fraction"] <= 1.0
        jsonschema.validate(json.loads(json.dumps(report)), load_report_schema())
        # a replicate seed runs k-means and the HGA exactly as a base seed does
        for row in report["replicates"]:
            single = run_experiment(replace(config, seed=row["seed"], replicates=1))
            assert row == {
                "seed": row["seed"],
                "hga_fitness": single["hga"]["best_fitness"],
                "hga_accuracy_pct": single["hga"]["metrics"]["accuracy_pct"],
                "kmeans_fitness": single["kmeans"]["fitness"],
                "kmeans_accuracy_pct": single["kmeans"]["metrics"]["accuracy_pct"],
                "generations_run": single["hga"]["generations_run"],
            }


# finite floats, the edges of float repr among them, and plain ints in flat lists (one join)
JSON_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e-05, 1e16, sys.float_info.max, -sys.float_info.max])
JSON_LEAVES = (st.none() | st.booleans() | st.integers() | JSON_FLOATS | st.text()
               | JSON_FLOATS.map(np.float64))
JSON_TREES = st.recursive(
    JSON_LEAVES | st.lists(JSON_FLOATS, max_size=8) | st.lists(st.integers(), max_size=8),
    lambda kids: st.lists(kids, max_size=6) | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(st.text(), kids, max_size=6),
    max_leaves=40,
)


class TestColdImports:
    def test_a_run_never_imports_numpy_ma(self, heart_csv, tmp_path):
        # np.median imports numpy.ma (~10 ms cold) for a masked-array check; the median fill
        # (the fixture has missing cells) and the replicate medians take its steps without it
        src = str(Path(experiment.__file__).parents[1])
        script = ("import sys; from hgaclust import cli; code = cli.main(sys.argv[1:]); "
                  "print(code, 'numpy.ma' in sys.modules)")
        argv = ["experiment", "--input", heart_csv, "--population-size", "20",
                "--replicates", "2", "--output", str(tmp_path / "r.json")]
        path = os.pathsep.join(filter(None, [src, os.getenv("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.stdout.split() == ["0", "False"], done.stderr


class TestEmission:
    @settings(max_examples=300)
    @given(st.dictionaries(st.text(), JSON_TREES, max_size=6))
    def test_json_text_is_the_indented_encoders(self, tree):
        # the report's JSON text is the standard encoder's, byte for byte: non-ASCII keys and
        # strings, tuples, empty containers, mixed lists, np.float64 leaves and float edges
        assert render_report(tree) == json.dumps(
            tree, indent=2, sort_keys=True, allow_nan=False) + "\n"

    def test_json_text_of_overflowing_and_nested_flat_lists(self):
        # a flat float list whose sum overflows is still written, one value per line
        tree = {"\u00e9": [sys.float_info.max] * 2, "b": [[1, 2], [-0.0, 1e16], (), {}],
                "c": [True, 1, 1.5, None, "x", np.float64(2.5)]}
        assert render_report(tree) == json.dumps(
            tree, indent=2, sort_keys=True, allow_nan=False) + "\n"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("where", ["scalar", "flat list"])
    def test_non_finite_value_is_refused(self, value, where, tmp_path):
        report = {"x": value} if where == "scalar" else {"x": {"y": [1.0, value, 2.0]}}
        with pytest.raises(ValueError, match="not JSON compliant"):
            emit_report(report, "json", tmp_path / "r.json")
        assert not (tmp_path / "r.json").exists()

    def test_json_round_trip(self, small_report, tmp_path):
        path = emit_report(small_report, "json", tmp_path / "r.json")
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(small_report)
        )

    def test_csv_summary_row(self, small_report, tmp_path):
        path = emit_report(small_report, "csv-summary", tmp_path / "r.csv")
        header, row = path.read_text().splitlines()
        assert header.split(",") == [
            "seed", "n_rows", "standardize", "impute_strategy",
            "kmeans_accuracy_pct", "kmeans_fitness", "hga_fitness",
            "hga_accuracy_pct", "hga_error_pct", "hga_recall_pct",
            "hga_precision_pct", "hga_f1_pct", "hga_generations",
        ]
        cells = row.split(",")
        assert cells[:4] == ["11", "303", "True", "median"]
        display = small_report["hga"]["metrics_display"]
        assert cells[7:12] == [
            str(display[key])
            for key in ("accuracy_pct", "error_pct", "recall_pct", "precision_pct", "f1_pct")
        ]
        assert cells[12] == str(small_report["hga"]["generations_run"])

    def test_unknown_format(self, small_report, tmp_path):
        with pytest.raises(ValueError):
            emit_report(small_report, "yaml", tmp_path / "r.yaml")
        assert not (tmp_path / "r.yaml").exists()

    def test_non_finite_report_leaves_no_file(self, small_report, tmp_path):
        report = {**small_report, "timings_s": {"total": float("nan")}}
        with pytest.raises(ValueError):
            emit_report(report, "json", tmp_path / "r.json")
        assert not (tmp_path / "r.json").exists()

    def test_non_finite_report_keeps_a_link_to_a_device(self, tmp_path):
        link = tmp_path / "r.json"
        link.symlink_to(os.devnull)
        with pytest.raises(ValueError, match="not JSON compliant"):
            emit_report({"x": float("nan")}, "json", link)
        assert link.is_symlink()

    def test_scatter_export(self, small_report, tmp_path):
        scatter = small_report["scatter"]
        write_csv_table(tmp_path / "scatter.csv", scatter)
        lines = (tmp_path / "scatter.csv").read_text().splitlines()
        assert lines[0] == "pc1,pc2,predicted,actual"
        assert len(lines) == 304  # header + one row per point
        for i, line in enumerate(lines[1:]):
            pc1, pc2, predicted, actual = line.split(",")
            assert float(pc1).hex() == scatter["pc1"][i].hex()
            assert float(pc2).hex() == scatter["pc2"][i].hex()
            assert (int(predicted), int(actual)) == (scatter["predicted"][i], scatter["actual"][i])

    def test_normalize_timings_zeroes_block(self, small_report):
        report = normalize_report_timings(json.loads(json.dumps(small_report)))
        assert set(report["timings_s"].values()) == {0.0}


class TestCli:
    def test_experiment_round_trip(self, heart_csv, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(
            [
                "experiment", "--input", heart_csv, "--seed", "11",
                "--population-size", "25", "--output", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        jsonschema.validate(report, load_report_schema())

    def test_byte_identical_reports(self, heart_csv, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = cli.main(
                [
                    "experiment", "--input", heart_csv, "--seed", "3",
                    "--population-size", "25", "--normalize-timings",
                    "--output", str(out),
                ]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_pca_subcommand(self, heart_csv, tmp_path, capsys):
        out = tmp_path / "proj.csv"
        code = cli.main(["pca", "--input", heart_csv, "--output", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 304
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_points"] == 303
        assert len(summary["explained_variance_ratio"]) == 2

    def test_kmeans_subcommand(self, heart_csv, tmp_path):
        out = tmp_path / "kmeans.json"
        code = cli.main(
            ["kmeans", "--input", heart_csv, "--seed", "2", "--output", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert set(report["assignment"]) <= {"0", "1"}
        assert report["metrics_display"]["accuracy_pct"] > 50

    def test_hga_subcommand_with_trace(self, heart_csv, tmp_path):
        out = tmp_path / "hga.json"
        trace = tmp_path / "trace.csv"
        code = cli.main(
            [
                "hga", "--input", heart_csv, "--seed", "2",
                "--population-size", "20", "--output", str(out),
                "--trace-file", str(trace),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        lines = trace.read_text().splitlines()
        assert lines[0] == "generation,min_fitness,max_fitness"
        assert len(lines) == report["generations_run"] + 1
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) <= float(first[2])

    def test_evaluate_reference_counts_csv_summary(self, heart_csv, tmp_path, capsys):
        # build an assignment with exactly 11 false positives and 7 false negatives
        data = impute_missing(load_heart_csv(heart_csv), "median")
        _, labels = split_features_target(data)
        assignment = labels.copy()
        zeros = np.flatnonzero(labels == 0)
        ones = np.flatnonzero(labels == 1)
        assignment[zeros[:11]] = 1
        assignment[ones[:7]] = 0
        assignment_file = tmp_path / "assign.txt"
        assignment_file.write_text("".join(str(int(g)) for g in assignment))

        code = cli.main(
            [
                "evaluate", "--input", heart_csv, "--assignment", str(assignment_file),
                "--format", "csv-summary",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "94.06" in out
        header, row = out.splitlines()
        assert header.split(",")[:4] == ["tp", "tn", "fp", "fn"]
        assert row.split(",")[:4] == ["158", "127", "11", "7"]

    def test_evaluate_rejects_bad_assignment(self, heart_csv, tmp_path):
        bad = tmp_path / "assign.txt"
        bad.write_text("0102")
        assert cli.main(["evaluate", "--input", heart_csv, "--assignment", str(bad)]) == 2

    def test_invalid_input_path_exit_code(self, tmp_path):
        code = cli.main(["experiment", "--input", str(tmp_path / "missing.csv")])
        assert code == 2

    def test_malformed_csv_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2,3\n")
        assert cli.main(["experiment", "--input", str(bad)]) == 2

    @pytest.mark.parametrize(
        "argv",
        [[command, *knob] for command in ("experiment", "hga") for knob in BAD_GA_KNOBS]
        + [["experiment", "--replicates", "0"], ["experiment", "--replicates", str(2**63)]]
        + [[command, "--seed", "-1"] for command in ("experiment", "kmeans", "hga")],
        ids=lambda argv: "-".join(arg.lstrip("-") for arg in argv[:2])
        + (f"-{len(argv[2])}-digits" if len(argv[2]) > 2 else ""),
    )
    def test_bad_knob_exit_code(self, argv, heart_csv, capsys):
        assert cli.main([*argv, "--input", heart_csv]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, rows, expected, linked",
        [
            # identical rows project onto one point, so k-means leaves a cluster empty
            (["experiment"], [ROW_A] * 20, 2, False),
            (["hga", "--seed", "-1"], [ROW_A, ROW_B], 2, False),
            (["experiment", "--population-size", "4"], [ROW_A, ROW_B, ROW_A], 0, False),
            # a trace path that links to the null device is never removed
            (["experiment"], [ROW_A] * 20, 2, True),
            (["experiment", "--population-size", "4"], [ROW_A, ROW_B, ROW_A], 0, True),
        ],
        ids=["experiment-fails", "hga-fails", "experiment", "devnull-link-fails", "devnull-link"],
    )
    def test_trace_file_kept_only_on_success(self, argv, rows, expected, linked, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        trace, out = tmp_path / "t.csv", tmp_path / "out.json"
        if linked:
            trace.symlink_to(os.devnull)
        argv = [*argv, "--input", str(csv_path), "--trace-file", str(trace), "--output", str(out)]
        assert cli.main(argv) == expected
        assert out.exists() == (expected == 0)
        assert trace.is_symlink() if linked else trace.exists() == (expected == 0)
        if expected == 0 and not linked:
            assert trace.read_text().startswith("generation,min_fitness,max_fitness\n")
        if argv[0] == "experiment" and expected:
            assert capsys.readouterr().err == (
                "error: kmeans: the projected points cannot be split into two non-empty clusters\n"
            )

    @pytest.mark.parametrize(
        "argv, content",
        [
            (["experiment", "--input", "{bad}"], f"{ROW_A}\n{ROW_B}".encode() + b"\xff\n"),
            (["experiment", "--input", "{bad}"], ("1" * 131_073 + ROW_A[2:] + "\n").encode()),
            (["evaluate", "--input", "{heart_csv}", "--assignment", "{bad}"], b"01\xff"),
            # values whose column mean, std or covariance overflows float64
            (["experiment", "--input", "{bad}"], _chol_rows("1e308", "1e308")),
            (["experiment", "--input", "{bad}", "--no-standardize"], _chol_rows("1e308", "1e308")),
            (["experiment", "--input", "{bad}"], _chol_rows("1e200", "2e200")),
            (["experiment", "--input", "{bad}", "--no-standardize"], _chol_rows("1e200", "2e200")),
            (["pca", "--input", "{bad}"], _chol_rows("1e200", "2e200")),
            # finite covariance, but sums of squared distances between points overflow
            (["kmeans", "--input", "{bad}", "--no-standardize"], _fixture_with_huge_cells()),
            (["hga", "--input", "{bad}", "--no-standardize", "--population-size", "20"],
             _fixture_with_huge_cells()),
            (["experiment", "--input", "{bad}", "--no-standardize", "--population-size", "20"],
             _fixture_with_huge_cells()),
            (["hga", "--input", "{bad}", "--no-standardize", "--population-size", "4"],
             _chol_rows("7e153", "-7e153")),
        ],
        ids=[
            "non-utf8-csv", "oversized-cell", "non-utf8-assignment",
            "overflow-mean", "overflow-mean-raw", "overflow-std", "overflow-cov-raw",
            "overflow-std-pca", "overflow-distance-kmeans", "overflow-distance-hga",
            "overflow-distance", "overflow-distance-rows-hga",
        ],
    )
    @pytest.mark.filterwarnings("error")  # a numpy overflow warning fails the test
    def test_malformed_file_exit_code(self, argv, content, heart_csv, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.write_bytes(content)
        out = tmp_path / "out"
        argv = [arg.format(bad=bad, heart_csv=heart_csv) for arg in argv]
        assert cli.main([*argv, "--output", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "--population-size", "4", "--scatter", "{tmp}/s.csv",
             "--trace-file", "{tmp}/t.csv", "--output", "{tmp}/nodir/out.json"],
            ["experiment", "--scatter", "{tmp}/nodir/s.csv", "--output", "{tmp}/out.json"],
            ["hga", "--trace-file", "{tmp}/nodir/t.csv", "--output", "{tmp}/out.json"],
            ["pca", "--output", "{tmp}/nodir/p.csv"],
            ["kmeans", "--output", "{tmp}"],
            # an output that names an input or another output would overwrite it
            ["hga", "--population-size", "4", "--max-generations", "3", "--trace-file", "{input}"],
            ["experiment", "--trace-file", "{input}", "--output", "{tmp}/o.json"],
            ["experiment", "--output", "{input}"],
            ["experiment", "--scatter", "{tmp}/sc.csv", "--output", "{tmp}/sc.csv"],
            ["hga", "--trace-file", "{tmp}/t.csv", "--output", "{tmp}/t.csv"],
            ["pca", "--output", "rows.csv"],
            ["kmeans", "--output", "{tmp}/link.csv"],
            ["evaluate", "--assignment", "{tmp}/a.txt", "--output", "{tmp}/a.txt"],
            # a hard link has its own real path but is the same file
            ["hga", "--population-size", "4", "--max-generations", "3",
             "--trace-file", "{tmp}/hard.csv", "--output", "{tmp}/o.json"],
            ["evaluate", "--assignment", "{tmp}/a.txt", "--output", "{tmp}/hard.txt"],
        ],
        ids=[
            "experiment-output", "experiment-scatter", "hga-trace", "pca-output", "kmeans-dir",
            "hga-trace-input", "experiment-trace-input", "experiment-output-input",
            "scatter-output", "trace-output", "pca-relative-input", "kmeans-symlink-input",
            "evaluate-output-assignment", "hga-trace-hardlink-input",
            "evaluate-output-hardlink-assignment",
        ],
    )
    def test_bad_output_path_fails_before_the_run(self, argv, tmp_path, monkeypatch, capsys):
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text(f"{ROW_A}\n{ROW_B}\n{ROW_A}\n")
        (tmp_path / "a.txt").write_text("010")
        (tmp_path / "link.csv").symlink_to(csv_path)
        os.link(csv_path, tmp_path / "hard.csv")
        os.link(tmp_path / "a.txt", tmp_path / "hard.txt")
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        calls = []
        for module in (experiment, cli):
            monkeypatch.setattr(module, "prepare_points", calls.append)
        monkeypatch.chdir(tmp_path)
        argv = [arg.format(tmp=tmp_path, input=csv_path) for arg in argv]
        assert cli.main([*argv, "--input", str(csv_path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert calls == []
        # no file is created, and none changes
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_byte_order_mark_accepted(self, heart_csv, tmp_path, capsys):
        outputs = []
        for name, mark in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            csv_path, assignment = tmp_path / f"{name}.csv", tmp_path / f"{name}.txt"
            csv_path.write_bytes(mark + Path(heart_csv).read_bytes())
            assignment.write_bytes(mark + b"01" * 151 + b"0\n")
            given = ["--input", str(csv_path)]
            assert cli.main(["kmeans", *given, "--seed", "7"]) == 0
            assert cli.main(["evaluate", *given, "--assignment", str(assignment)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_replicates_prepare_points_once(self, heart_csv, tmp_path, monkeypatch):
        calls = []
        prepare = experiment.prepare_points
        monkeypatch.setattr(
            experiment, "prepare_points", lambda config: calls.append(config) or prepare(config)
        )
        code = cli.main(
            [
                "experiment", "--input", heart_csv, "--replicates", "3",
                "--population-size", "10", "--output", str(tmp_path / "report.json"),
            ]
        )
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "argv", [["kmeans"], ["hga", "--population-size", "20"]], ids=["kmeans", "hga"]
    )
    def test_csv_summary_format(self, argv, heart_csv, capsys):
        code = cli.main(
            [*argv, "--input", heart_csv, "--seed", "2", "--format", "csv-summary"]
        )
        assert code == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header == "tp,tn,fp,fn,accuracy_pct,error_pct,recall_pct,precision_pct,f1_pct"
        assert sum(int(v) for v in row.split(",")[:4]) == 303

    @pytest.mark.parametrize(
        "argv, rows, expected, best",
        [
            # identical rows project onto one point, so k-means leaves a cluster empty
            (["experiment"], [ROW_A] * 20, 2, None),
            (["kmeans"], [ROW_A] * 20, 2, None),
            # two points, two chromosomes: seed 1 draws [1, 1] twice, which the
            # initial population repairs into the split [0, 1] of fitness 0
            (["experiment", "--population-size", "2", "--seed", "1"], [ROW_A, ROW_B], 0, 0.0),
            (["hga", "--population-size", "2", "--seed", "1"], [ROW_A, ROW_B], 0, 0.0),
            # unstandardized, a negative round-off eigenvalue once pushed a ratio past 1
            (["experiment", "--no-standardize", "--population-size", "2", "--seed", "1"],
             [ROW_A, ROW_B], 0, 0.0),
            # points 1e150 either side of the third: squared distances stay finite,
            # and the best split leaves one outer point alone
            (["experiment", "--no-standardize", "--population-size", "4"],
             _chol_rows("1e150", "-1e150").decode().splitlines(), 0, 1e150),
        ],
        ids=[
            "experiment-kmeans", "kmeans", "experiment-hga", "hga", "experiment-hga-raw",
            "experiment-huge-raw",
        ],
    )
    def test_unsplit_points_exit_code(self, argv, rows, expected, best, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "report.json"
        code = cli.main([*argv, "--input", str(csv_path), "--output", str(out)])
        assert code == expected
        captured = capsys.readouterr()
        assert "Infinity" not in captured.out + captured.err
        if expected == 2:
            assert not out.exists()
            return
        report = json.loads(out.read_text())
        _validate_report(report, argv[0])
        hga = report["hga"] if argv[0] == "experiment" else report
        assert hga["best_fitness"] == best

    @pytest.mark.parametrize(
        "argv, prefix",
        [(["hga"], ""), (["experiment", "--replicates", "2"], "hga: ")],
        ids=["hga", "experiment-shares"],
    )
    # size * 303 genes pass numpy's size limit, or the address space: nothing is allocated
    @pytest.mark.parametrize("size", [10**17, 2**50], ids=["past-numpy-limit", "past-memory"])
    def test_unallocatable_population_exit_code(
        self, argv, prefix, size, heart_csv, tmp_path, monkeypatch, capsys
    ):
        _usable_cpus(monkeypatch, 2)  # seed 1 runs in a forked share
        out = tmp_path / "report.json"
        code = cli.main([*argv, "--input", heart_csv, "--population-size", str(size),
                         "--output", str(out)])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == (
            f"error: {prefix}population_size {size} is too large for 303 points\n"
        )
        _assert_no_children()


def _usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(count), raising=False)


def _count_forks(monkeypatch) -> list:
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
    return forks


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    """Fail, rather than hang, a test whose wait on a forked child never returns."""

    def expire(signum, frame):
        raise TimeoutError("a wait on a forked child did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.usefixtures("deadline")
class TestForkedShares:
    """Replicate seeds run in strided shares, one per usable CPU, the base seed's share
    in this process and each other share in a forked child."""

    def test_outputs_identical_for_any_cpu_count(self, heart_csv, tmp_path, monkeypatch):
        forks = _count_forks(monkeypatch)
        outputs = []
        for count in (1, 2, 3, 4):
            _usable_cpus(monkeypatch, count)
            paths = [tmp_path / f"{name}{count}" for name in ("report", "trace", "scatter")]
            argv = [
                "experiment", "--input", heart_csv, "--seed", "2", "--replicates", "5",
                "--population-size", "20", "--normalize-timings", "--output", str(paths[0]),
                "--trace-file", str(paths[1]), "--scatter", str(paths[2]),
            ]
            assert cli.main(argv) == 0
            outputs.append([path.read_bytes() for path in paths])
        # seeds 2..6 in shares of 5, 3+2, 2+2+1 and 2+1+1+1
        assert outputs[1:] == outputs[:1] * 3
        assert len(forks) == 0 + 1 + 2 + 3
        _assert_no_children()

    @pytest.mark.parametrize("count, forks", [(10**6, 2), (None, 0)], ids=["huge", "unknown"])
    def test_shares_clamped_to_the_seeds(self, count, forks, heart_csv, monkeypatch):
        # the count is only ever patched, so no value here starts that many processes
        if count is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            _usable_cpus(monkeypatch, count)
        calls = _count_forks(monkeypatch)
        report = run_experiment(ExperimentConfig(input=heart_csv, population_size=10, replicates=3))
        assert [row["seed"] for row in report["replicates"]] == [0, 1, 2]
        assert len(calls) == forks
        _assert_no_children()

    @pytest.mark.parametrize(
        "error, failing, code",
        [(InputError, [3], 2), (ContractError, [3], 3), (InputError, [2, 3], 2),
         (InputError, [1, 4], 2), (ContractError, [0, 1], 3)],
        ids=["child", "child-contract", "own-share-first", "child-first", "base"],
    )
    def test_seed_error_matches_serial(
        self, error, failing, code, heart_csv, tmp_path, monkeypatch, capsys
    ):
        run_seed = experiment._run_seed

        def failing_seed(config, seed, *args):
            if seed in failing:
                raise error(f"hga: seed {seed} failed")
            return run_seed(config, seed, *args)

        monkeypatch.setattr(experiment, "_run_seed", failing_seed)
        outcomes = []
        for count in (1, 2):  # seeds 0..4 in shares [0, 2, 4] and [1, 3]
            _usable_cpus(monkeypatch, count)
            out = tmp_path / f"report{count}"
            argv = ["experiment", "--input", heart_csv, "--replicates", "5",
                    "--population-size", "10", "--output", str(out)]
            outcomes.append((cli.main(argv), capsys.readouterr().err, out.exists()))
            _assert_no_children()
        assert outcomes == [(code, f"error: hga: seed {min(failing)} failed\n", False)] * 2

    @pytest.mark.parametrize(
        "end", [lambda: os._exit(1), lambda: os.kill(os.getpid(), signal.SIGKILL)],
        ids=["exit-1", "killed"],
    )
    def test_child_without_result_is_contract_error(
        self, end, heart_csv, tmp_path, monkeypatch, capsys
    ):
        run_seed, parent = experiment._run_seed, os.getpid()

        def dying_child(config, seed, *args):
            if os.getpid() != parent:
                end()
            return run_seed(config, seed, *args)

        monkeypatch.setattr(experiment, "_run_seed", dying_child)
        _usable_cpus(monkeypatch, 3)
        out = tmp_path / "report.json"
        argv = ["experiment", "--input", heart_csv, "--replicates", "5",
                "--population-size", "10", "--output", str(out)]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == "error: the run of seeds [1, 4] ended without a result\n"
        assert not out.exists()
        _assert_no_children()

    @pytest.mark.parametrize("error", [KeyboardInterrupt, InputError], ids=["interrupt", "input"])
    def test_own_share_error_stops_every_child(self, error, heart_csv, monkeypatch):
        run_seed, parent = experiment._run_seed, os.getpid()

        def slow_children(config, seed, *args):
            if os.getpid() != parent:
                time.sleep(60)  # killed long before it wakes
            elif seed == 0:
                raise error("hga: base seed failed")
            return run_seed(config, seed, *args)

        monkeypatch.setattr(experiment, "_run_seed", slow_children)
        _usable_cpus(monkeypatch, 3)
        start = time.perf_counter()
        with pytest.raises(error):
            run_experiment(ExperimentConfig(input=heart_csv, population_size=10, replicates=3))
        _assert_no_children()
        assert time.perf_counter() - start < 30

    @staticmethod
    def _body(fitness=1.5) -> dict:
        return {
            "hga": {"best_fitness": fitness, "metrics": {"accuracy_pct": 50.0}, "generations_run": 3},
            "kmeans": {"fitness": 2.5, "metrics": {"accuracy_pct": 40.0}},
        }

    def test_payload_past_the_pipe_buffer(self):
        seeds = range(20_000)
        pid, pipe = experiment._fork_rows((seed, self._body()) for seed in seeds)
        rows, error = experiment._join_rows(seeds, pid, pipe)
        assert error is None and [row["seed"] for row in rows] == list(seeds)
        assert len(pickle.dumps((rows, error))) > 64 * 1024
        _assert_no_children()

    def test_unpicklable_rows_are_contract_error(self):
        pid, pipe = experiment._fork_rows([(7, self._body(fitness=lambda: 0))])
        rows, error = experiment._join_rows(range(7, 8), pid, pipe)
        assert rows == [] and isinstance(error, ContractError)
        assert str(error) == "the run of seeds [7] ended without a result"
        _assert_no_children()


class TestCliFuzz:
    @settings(max_examples=200, deadline=None)
    @given(run=cli_runs())
    def test_exit_code_and_artifacts(self, run):
        argv, text, traced, assignment, clash = run
        with tempfile.TemporaryDirectory() as tmp:
            csv_path, out, trace = Path(tmp, "in.csv"), Path(tmp, "out"), Path(tmp, "trace.csv")
            csv_path.write_text(text)
            paths = {"--output": out, "--trace-file": trace, clash: csv_path}
            argv = [*argv, "--input", str(csv_path), "--output", str(paths["--output"])]
            argv += ["--trace-file", str(paths["--trace-file"])] * traced
            if assignment is not None:
                Path(tmp, "assign.txt").write_text(assignment)
                argv += ["--assignment", str(Path(tmp, "assign.txt"))]
            with redirect_stderr(StringIO()) as err, redirect_stdout(StringIO()) as stdout, \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main(argv)
            assert code == 2 if clash else code in (0, 2)
            assert csv_path.read_text() == text
            assert [str(w.message) for w in caught] == []  # a warning would print to stderr
            if code == 2:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: ")
                assert not out.exists() and not trace.exists()
                return
            assert err.getvalue() == ""
            assert trace.exists() == traced
            if argv[0] == "pca":
                assert out.read_text().startswith("pc1,pc2,target\n")
                _validate_report(json.loads(stdout.getvalue()), "pca")
            elif "csv-summary" in argv:
                assert len(out.read_text().splitlines()) == 2
            else:
                _validate_report(json.loads(out.read_text()), argv[0])


class TestCliBytesFuzz:
    @settings(max_examples=150, deadline=None)
    @given(
        content=csv_bytes(),
        seed=st.integers(0, 20),
        extra=st.lists(
            st.sampled_from(["--no-standardize", "--impute", "--format", "--replicates"]),
            unique=True,
        ),
        choice=st.integers(0, 2),
    )
    def test_experiment_exits_0_or_2_and_leaves_no_output_on_2(self, content, seed, extra, choice):
        values = {"--impute": IMPUTE_STRATEGIES, "--format": REPORT_FORMATS, "--replicates": ("1", "2")}
        with tempfile.TemporaryDirectory() as tmp:
            csv_path, out = Path(tmp, "in.csv"), Path(tmp, "out")
            csv_path.write_bytes(content)
            argv = ["experiment", "--input", str(csv_path), "--output", str(out), "--seed", str(seed),
                    "--population-size", "4", "--max-generations", "6"]
            for flag in extra:
                argv += [flag] + ([values[flag][choice % len(values[flag])]] if flag in values else [])
            with redirect_stderr(StringIO()) as err, redirect_stdout(StringIO()), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main(argv)
            assert code in (0, 2)
            assert [str(w.message) for w in caught] == []
            assert csv_path.read_bytes() == content
            if code == 2:
                assert err.getvalue().startswith("error: ") and not out.exists()
            else:
                assert err.getvalue() == "" and out.stat().st_size > 0


class TestConfigSingleSourced:
    def test_fields_match_schema(self):
        required = load_report_schema()["properties"]["config"]["required"]
        assert {f.name for f in fields(ExperimentConfig)} == set(required)

    def test_every_flag_echoed(self, heart_csv, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(
            [
                "experiment", "--input", heart_csv, "--seed", "7",
                "--population-size", "10", "--no-improvement", "--no-mutation",
                "--improve-initial", "--impute", "drop", "--no-standardize",
                "--doldrum-factor", "3", "--max-generations", "50", "--replicates", "2",
                "--normalize-timings", "--output", str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["config"] == {
            "input": heart_csv,
            "seed": 7,
            "population_size": 10,
            "doldrum_factor": 3,
            "max_generations": 50,
            "improvement_enabled": False,
            "mutation_enabled": False,
            "improve_initial_population": True,
            "standardize": False,
            "impute_strategy": "drop",
            "replicates": 2,
            "normalize_timings": True,
        }
