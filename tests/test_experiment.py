import json
from dataclasses import fields

import jsonschema
import numpy as np
import pytest

from hgaclust import cli, experiment
from hgaclust.dataset import impute_missing, load_heart_csv, split_features_target
from oracles import brute_force_min_fitness
from hgaclust.experiment import (
    ExperimentConfig,
    emit_report,
    load_report_schema,
    normalize_report_timings,
    run_experiment,
    write_scatter_csv,
)

SMALL = dict(population_size=25, seed=11)
ROW_A = "52,1,0,166,350,0,1,133,1,2.3,1,2,2,1"
ROW_B = "48,0,3,145,298,0,0,134,0,0.2,2,0,2,0"
BAD_GA_KNOBS = [["--population-size", "1"], ["--max-generations", "0"], ["--doldrum-factor", "0"]]


def _chol_rows(first, second):
    """ROW_A and ROW_B with their cholesterol cells replaced, then ROW_A as is."""
    return f"{ROW_A.replace('350', first)}\n{ROW_B.replace('298', second)}\n{ROW_A}\n".encode()


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
        report = run_experiment(
            ExperimentConfig(input=heart_csv, population_size=25, seed=5, replicates=3)
        )
        seeds = [row["seed"] for row in report["replicates"]]
        assert seeds == [5, 6, 7]
        summary = report["replicate_summary"]
        assert summary["median_hga_fitness"] <= summary["median_kmeans_fitness"] * 1.5
        assert 0.0 <= summary["hga_accuracy_at_least_kmeans_fraction"] <= 1.0
        jsonschema.validate(json.loads(json.dumps(report)), load_report_schema())


class TestEmission:
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

    def test_scatter_export(self, small_report, tmp_path):
        path = write_scatter_csv(small_report, tmp_path / "scatter.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "pc1,pc2,predicted,actual"
        assert len(lines) == 304  # header + one row per point

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
        + [["experiment", "--replicates", "0"]],
        ids=lambda argv: "-".join(arg.lstrip("-") for arg in argv[:2]),
    )
    def test_bad_knob_exit_code(self, argv, heart_csv, capsys):
        assert cli.main([*argv, "--input", heart_csv]) == 2
        assert capsys.readouterr().err.startswith("error: ")

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
        ],
        ids=[
            "non-utf8-csv", "oversized-cell", "non-utf8-assignment",
            "overflow-mean", "overflow-mean-raw", "overflow-std", "overflow-cov-raw",
            "overflow-std-pca",
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
        "argv, rows",
        [
            # identical rows project onto one point, so k-means leaves a cluster empty
            (["experiment"], [ROW_A] * 20),
            (["kmeans"], [ROW_A] * 20),
            # two points, two chromosomes: seed 1 draws [1, 1] twice, and neither
            # crossover nor the two-gene mutation can split the points from there
            (["experiment", "--population-size", "2", "--seed", "1"], [ROW_A, ROW_B]),
            (["hga", "--population-size", "2", "--seed", "1"], [ROW_A, ROW_B]),
        ],
        ids=["experiment-kmeans", "kmeans", "experiment-hga", "hga"],
    )
    def test_unsplit_points_exit_code(self, argv, rows, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "report.json"
        code = cli.main([*argv, "--input", str(csv_path), "--output", str(out)])
        assert code == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert "Infinity" not in captured.out + captured.err


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
