import json
import subprocess
import sys

import numpy as np
import pytest

from qcalib.cli import main
from qcalib.data import load_csv, save_csv
from qcalib.synthetic import GeneratorSpec, generate


@pytest.fixture()
def train_csv(tmp_path):
    path = tmp_path / "train.csv"
    save_csv(generate(GeneratorSpec("sine_hetero", 300, seed=1)), path)
    return path


@pytest.fixture()
def test_csv(tmp_path):
    path = tmp_path / "test.csv"
    save_csv(generate(GeneratorSpec("sine_hetero", 120, seed=2)), path)
    return path


def run_calibrate(tmp_path, train_csv, *extra):
    model_path = tmp_path / "model.json"
    rc = main(
        [
            "calibrate",
            "--input",
            str(train_csv),
            "--target",
            "y",
            "--output",
            str(model_path),
            "--bandwidth",
            "0.8",
            "--seed",
            "1",
            *extra,
        ]
    )
    assert rc == 0
    return model_path


class TestCalibrate:
    def test_writes_model_json(self, tmp_path, train_csv):
        model_path = run_calibrate(tmp_path, train_csv)
        blob = json.loads(model_path.read_text())
        assert blob["format"] == "qcalib.model"
        assert blob["feature_names"] == ["x"]
        assert blob["config"]["kernel"]["bandwidth"] == 0.8

    def test_reruns_are_byte_identical(self, tmp_path, train_csv):
        p1 = run_calibrate(tmp_path, train_csv)
        data1 = p1.read_bytes()
        p2 = run_calibrate(tmp_path, train_csv)
        assert p2.read_bytes() == data1

    def test_missing_target_exits_2_and_writes_nothing(self, tmp_path, train_csv, capsys):
        model_path = tmp_path / "model.json"
        rc = main(
            [
                "calibrate",
                "--input",
                str(train_csv),
                "--target",
                "nope",
                "--output",
                str(model_path),
            ]
        )
        assert rc == 2
        assert not model_path.exists()
        assert "no column named" in capsys.readouterr().err

    def test_auto_bandwidth_default(self, tmp_path, train_csv):
        model_path = tmp_path / "model.json"
        rc = main(
            [
                "calibrate",
                "--input",
                str(train_csv),
                "--target",
                "y",
                "--output",
                str(model_path),
                "--regressor",
                "knn",
                "--knn-k",
                "10",
            ]
        )
        assert rc == 0
        blob = json.loads(model_path.read_text())
        assert blob["config"]["kernel"]["auto"] is True

    def test_bad_bandwidth_string(self, tmp_path, train_csv, capsys):
        rc = main(
            [
                "calibrate",
                "--input",
                str(train_csv),
                "--target",
                "y",
                "--output",
                str(tmp_path / "m.json"),
                "--bandwidth",
                "wide",
            ]
        )
        assert rc == 2
        assert "--bandwidth" in capsys.readouterr().err


class TestConfigFile:
    def test_file_supplies_defaults_flags_win(self, tmp_path, train_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            f"input = {train_csv}\n"
            "target = y\n"
            "bandwidth = 0.8\n"
            "seed = 1\n"
        )
        via_cfg = tmp_path / "via_cfg.json"
        rc = main(["calibrate", "--config", str(cfg), "--output", str(via_cfg)])
        assert rc == 0
        direct = run_calibrate(tmp_path, train_csv)
        assert via_cfg.read_bytes() == direct.read_bytes()

        # an explicit flag beats the file value
        overridden = tmp_path / "override.json"
        rc = main(
            [
                "calibrate",
                "--config",
                str(cfg),
                "--output",
                str(overridden),
                "--seed",
                "2",
            ]
        )
        assert rc == 0
        assert json.loads(overridden.read_text())["config"]["seed"] == 2

    def test_unknown_key_rejected(self, tmp_path, train_csv, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bandwith = 0.8\n")  # typo must not pass silently
        rc = main(
            [
                "calibrate",
                "--config",
                str(cfg),
                "--input",
                str(train_csv),
                "--target",
                "y",
                "--output",
                str(tmp_path / "m.json"),
            ]
        )
        assert rc == 2
        assert "unknown key" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        rc = main(["calibrate", "--config", str(cfg)])
        assert rc == 2
        assert "key=value" in capsys.readouterr().err


class TestPredict:
    def test_taus_columns(self, tmp_path, train_csv, test_csv):
        model_path = run_calibrate(tmp_path, train_csv)
        out = tmp_path / "preds.csv"
        rc = main(
            [
                "predict",
                "--model",
                str(model_path),
                "--input",
                str(test_csv),
                "--output",
                str(out),
                "--taus",
                "0.1,0.5,0.9",
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,q_0.1,q_0.5,q_0.9"
        assert len(lines) == 121
        row = [float(v) for v in lines[1].split(",")]
        assert row[1] <= row[2] <= row[3]  # monotone across levels

    def test_alpha_interval_matches_library(self, tmp_path, train_csv, test_csv):
        from qcalib.calibration import load_model

        model_path = run_calibrate(tmp_path, train_csv)
        out = tmp_path / "preds.csv"
        rc = main(
            [
                "predict",
                "--model",
                str(model_path),
                "--input",
                str(test_csv),
                "--output",
                str(out),
                "--alpha",
                "0.1",
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,q_0.05,q_0.95"
        model = load_model(model_path)
        x0, lo, hi = (float(v) for v in lines[1].split(","))
        assert (lo, hi) == model.predict_interval([x0], 0.1)

    def test_feature_only_input_accepted(self, tmp_path, train_csv):
        model_path = run_calibrate(tmp_path, train_csv)
        feats = tmp_path / "feats.csv"
        feats.write_text("x\n1.0\n7.5\n")
        out = tmp_path / "preds.csv"
        rc = main(
            [
                "predict",
                "--model",
                str(model_path),
                "--input",
                str(feats),
                "--output",
                str(out),
                "--taus",
                "0.5",
            ]
        )
        assert rc == 0
        assert len(out.read_text().strip().splitlines()) == 3

    def test_schema_mismatch(self, tmp_path, train_csv, capsys):
        model_path = run_calibrate(tmp_path, train_csv)
        feats = tmp_path / "feats.csv"
        feats.write_text("z\n1.0\n")
        rc = main(
            [
                "predict",
                "--model",
                str(model_path),
                "--input",
                str(feats),
                "--output",
                str(tmp_path / "p.csv"),
            ]
        )
        assert rc == 2
        assert "schema mismatch" in capsys.readouterr().err


    def test_model_document_not_an_object(self, tmp_path, test_csv):
        model_path = tmp_path / "m.json"
        model_path.write_text("[1, 2, 3]\n")
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "qcalib",
                "predict",
                "--model",
                str(model_path),
                "--input",
                str(test_csv),
                "--output",
                str(tmp_path / "p.csv"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "expected a JSON object" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "p.csv").exists()


class TestEvaluate:
    def test_report_and_curve(self, tmp_path, train_csv, test_csv):
        model_path = run_calibrate(tmp_path, train_csv)
        report = tmp_path / "report.json"
        curve = tmp_path / "curve.csv"
        rc = main(
            [
                "evaluate",
                "--model",
                str(model_path),
                "--input",
                str(test_csv),
                "--output-json",
                str(report),
                "--output-curve",
                str(curve),
                "--seed",
                "3",
            ]
        )
        assert rc == 0
        blob = json.loads(report.read_text())
        assert 0.0 <= blob["mace"] <= 1.0
        assert blob["agce"] >= blob["mace"] - 1e-12
        assert len(blob["per_tau_observed"]) == 99
        assert blob["seed"] == 3
        lines = curve.read_text().strip().splitlines()
        assert lines[0] == "tau,observed,gap"
        assert len(lines) == 100

    def test_grouped_coverage(self, tmp_path, train_csv, test_csv):
        model_path = run_calibrate(tmp_path, train_csv)
        report = tmp_path / "report.json"
        rc = main(
            [
                "evaluate",
                "--model",
                str(model_path),
                "--input",
                str(test_csv),
                "--output-json",
                str(report),
                "--group-column",
                "x",
                "--group-bins",
                "4",
            ]
        )
        assert rc == 0
        gc = json.loads(report.read_text())["group_coverage"]
        assert gc["bins"] == [0.0, 1.0, 2.0, 3.0]
        assert sum(gc["sizes"]) == 120

    def test_schema_mismatch_rejected(self, tmp_path, train_csv, capsys):
        model_path = run_calibrate(tmp_path, train_csv)
        other = tmp_path / "other.csv"
        other.write_text("x,z,y\n1,2,3\n4,5,6\n")
        rc = main(
            [
                "evaluate",
                "--model",
                str(model_path),
                "--input",
                str(other),
                "--output-json",
                str(tmp_path / "r.json"),
            ]
        )
        assert rc == 2
        assert "schema mismatch" in capsys.readouterr().err


class TestDemo:
    def test_example1_outputs(self, tmp_path):
        outdir = tmp_path / "out"
        rc = main(["demo", "example1", "--n", "800", "--outdir", str(outdir), "--seed", "0"])
        assert rc == 0
        blob = json.loads((outdir / "example1_report.json").read_text())
        assert blob["tau"] == 0.9
        models = blob["models"]
        assert set(models) == {"counterexample", "calibrated"}
        assert models["counterexample"]["bins"] == ["x<=0.9", "x>0.9"]
        # the foil covers everything below the threshold, nothing above
        assert models["counterexample"]["coverage"][0] > 0.99
        assert models["counterexample"]["coverage"][1] < 0.01
        lines = (outdir / "example1_coverage.csv").read_text().strip().splitlines()
        assert lines[0] == "model,bin,rows,coverage"
        assert len(lines) == 5

    def test_sine_outputs(self, tmp_path):
        outdir = tmp_path / "out"
        rc = main(
            [
                "demo",
                "sine",
                "--n",
                "400",
                "--outdir",
                str(outdir),
                "--seed",
                "0",
                "--bandwidth",
                "0.5",
            ]
        )
        assert rc == 0
        lines = (outdir / "sine_intervals.csv").read_text().strip().splitlines()
        assert lines[0] == "x,q_lo,q_hi,oracle_lo,oracle_hi"
        assert len(lines) == 302
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0 and first[1] <= first[2]

    def test_scaled_uniform_outputs(self, tmp_path):
        outdir = tmp_path / "out"
        rc = main(
            [
                "demo",
                "scaled_uniform",
                "--n",
                "400",
                "--outdir",
                str(outdir),
                "--seed",
                "0",
                "--bandwidth",
                "0.3",
            ]
        )
        assert rc == 0
        lines = (outdir / "scaled_uniform_curve.csv").read_text().strip().splitlines()
        assert lines[0] == "x,q_pred,q_oracle"
        # oracle column follows (2 tau - 1) x at the default tau = 0.9
        x, _, oracle = (float(v) for v in lines[-1].split(","))
        assert oracle == pytest.approx(0.8 * x)

    def test_demo_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            rc = main(["demo", "example1", "--n", "600", "--outdir", str(out), "--seed", "4"])
            assert rc == 0
        assert (out1 / "example1_report.json").read_bytes() == (
            out2 / "example1_report.json"
        ).read_bytes()
        assert (out1 / "example1_coverage.csv").read_bytes() == (
            out2 / "example1_coverage.csv"
        ).read_bytes()


class TestCovshift:
    def test_report_compares_both_models(self, tmp_path, train_csv):
        outdir = tmp_path / "cs"
        rc = main(
            [
                "covshift",
                "--input",
                str(train_csv),
                "--target",
                "y",
                "--outdir",
                str(outdir),
                "--bandwidth",
                "0.8",
                "--resample-count",
                "200",
                "--seed",
                "0",
            ]
        )
        assert rc == 0
        blob = json.loads((outdir / "covshift_report.json").read_text())
        assert set(blob["models"]) == {"local", "marginal"}
        assert blob["covshift"]["shifted_rows"] == 200
        assert blob["covshift"]["train_rows"] == 270
        for name in ("local", "marginal"):
            assert (outdir / f"covshift_{name}_curve.csv").exists()
            assert 0.0 <= blob["models"][name]["mace"] <= 1.0


def test_module_entry_point(tmp_path):
    csv_path = tmp_path / "train.csv"
    save_csv(generate(GeneratorSpec("uniform_triangle", 60, seed=0)), csv_path)
    model_path = tmp_path / "model.json"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "qcalib",
            "calibrate",
            "--input",
            str(csv_path),
            "--target",
            "y",
            "--output",
            str(model_path),
            "--bandwidth",
            "0.2",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "bandwidth: 0.2 (fixed)" in proc.stdout
    assert model_path.exists()


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("calibrate", "predict", "evaluate", "demo", "covshift"):
        assert name in out
