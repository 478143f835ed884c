import argparse
import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcalib.cli import _build_parser, _merge_config, main
from qcalib.data import Dataset, load_csv, save_csv
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


    @pytest.mark.parametrize(
        "features, expect",
        [
            ([[3.0, 1.0]] * 20, "bandwidth: inf (identical calibration features"),
            ([[0.1, 2.0], [0.7, 1.0], [0.2, 5.0], [0.9, 3.0]] * 2, "(5 folds clamped to the 4"),
        ],
    )
    def test_degenerate_auto_inputs_exit_0(self, tmp_path, capsys, features, expect):
        features = np.array(features)
        path = tmp_path / "tiny.csv"
        save_csv(Dataset(features, np.arange(len(features), dtype=float), ("a", "b")), path)
        model_path = tmp_path / "model.json"
        argv = ["calibrate", "--input", str(path), "--target", "y", "--output", str(model_path)]
        assert main(argv) == 0
        assert expect in capsys.readouterr().out
        assert json.loads(model_path.read_text())["config"]["kernel"]["cv"]["fallback"]


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

    def test_every_long_option_is_a_config_key(self, tmp_path):
        # keys come from the parser, so a new flag is a key with nothing else to edit
        parser = _build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        cfg = tmp_path / "run.cfg"
        for name, command in commands.choices.items():
            for action in command._actions:
                for flag in action.option_strings:
                    if not flag.startswith("--") or flag in ("--help", "--config"):
                        continue
                    key = flag[2:].replace("-", "_")
                    argv = [name, "--config", str(cfg)]
                    if action.nargs == 0:
                        for word, added in (("Yes", [flag]), ("off", [])):
                            cfg.write_text(f"{key} = {word}\n")
                            assert _merge_config(parser, argv)[3:] == added, (name, key)
                        cfg.write_text(f"{key} = maybe\n")
                        with pytest.raises(ValueError, match="true/false"):
                            _merge_config(parser, argv)
                    else:
                        cfg.write_text(f"{key} = 7\n")
                        assert _merge_config(parser, argv)[3:] == [flag, "7"], (name, key)

    @pytest.mark.parametrize(
        "command, line, key",
        [("calibrate", "taus = 0.5", "taus"), ("predict", "no_shuffle = true", "no_shuffle")],
    )
    def test_key_of_another_subcommand_rejected(self, tmp_path, capsys, command, line, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = 1\n{line}\n")
        rc = main([command, "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{cfg} line 2: unknown key {key!r}" in err

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

    def test_bad_taus_named(self, tmp_path, train_csv, test_csv, capsys):
        model_path = run_calibrate(tmp_path, train_csv)
        out = tmp_path / "p.csv"
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
                "0.5,abc",
            ]
        )
        assert rc == 2
        assert "--taus '0.5,abc'" in capsys.readouterr().err
        assert not out.exists()


def _drop_coefficient(blob):
    blob["regressor"]["coefficients"] = blob["regressor"]["coefficients"][:1]


def _widen_train_features(blob):
    rows = blob["regressor"]["train_features"]
    blob["regressor"]["train_features"] = [row + [0.0] for row in rows]


def _widen_standardizer(blob):
    blob["standardizer"]["means"].append(0.0)
    blob["standardizer"]["stddevs"].append(1.0)


def _widen_estimator_points(blob):
    rows = blob["quantile_estimator"]["points"]
    blob["quantile_estimator"]["points"] = [row + [0.0] for row in rows]


@pytest.mark.parametrize(
    "regressor, corrupt, field",
    [
        (
            "ols",
            lambda b: b["quantile_estimator"].update(min_neighbors=None),
            "quantile_estimator.min_neighbors",
        ),
        ("ols", lambda b: b.update(feature_names=5), "feature_names"),
        ("ols", lambda b: b.update(feature_names=["x", "x"]), "feature_names"),
        ("ols", lambda b: b.update(projection=3), "projection"),
        ("ols", lambda b: b.pop("config"), "config"),
        ("ols", _drop_coefficient, "regressor.coefficients"),
        ("ols", lambda b: b["regressor"].update(kind="forest"), "regressor.kind"),
        ("knn", _widen_train_features, "regressor.train_features"),
        ("knn", lambda b: b["regressor"]["train_targets"].pop(), "regressor.train_targets"),
        ("knn", lambda b: b["regressor"].update(knn_k=0), "regressor.knn_k"),
        ("knn", lambda b: b["regressor"].update(knn_k=10**6), "regressor.knn_k"),
        ("external", lambda b: b["regressor"].update(external_index=2), "regressor.external_index"),
        (
            "ols --projection correlation --projection-dim 1",
            lambda b: b["projection"].update(selected_indices=[None]),
            "projection.selected_indices",
        ),
        ("ols", _widen_standardizer, "standardizer.means"),
        (
            "ols --projection correlation --projection-dim 1",
            lambda b: b["projection"].update(input_dim=3),
            "projection.input_dim",
        ),
        (
            "ols --projection correlation --projection-dim 1",
            _widen_estimator_points,
            "quantile_estimator.points",
        ),
        ("external", _widen_estimator_points, "quantile_estimator.points"),
        ("external", lambda b: b["regressor"].update(input_dim=3), "regressor.input_dim"),
        ("ols", lambda b: b["standardizer"]["stddevs"].pop(), "standardizer.stddevs"),
        ("ols", lambda b: b["standardizer"]["stddevs"].__setitem__(0, -1.0), "standardizer.stddevs"),
        (
            "ols",
            lambda b: b["standardizer"]["stddevs"].__setitem__(0, float("inf")),
            "standardizer.stddevs",
        ),
        (
            "ols --min-neighbors 40",
            lambda b: b["quantile_estimator"].update(min_neighbors=40.5),
            "quantile_estimator.min_neighbors",
        ),
        ("ols", lambda b: b["regressor"].update(input_dim=3.7), "regressor.input_dim"),
        ("knn", lambda b: b["regressor"].update(knn_k=True), "regressor.knn_k"),
        ("knn", lambda b: b["regressor"].pop("knn_k"), "regressor.knn_k"),
        (
            "ols --projection correlation --projection-dim 1",
            lambda b: b["projection"].update(kind=5),
            "projection.kind",
        ),
        (
            "ols --projection correlation --projection-dim 1",
            lambda b: b["projection"].update(selected_indices=[5]),
            "projection.selected_indices",
        ),
        (
            "ols",
            lambda b: b["quantile_estimator"].update(bandwidth=-1),
            "quantile_estimator.bandwidth",
        ),
        (
            "ols",
            lambda b: b["regressor"]["coefficients"].__setitem__(1, float("nan")),
            "regressor.coefficients",
        ),
        ("ols", lambda b: b.update(target_name=5), "target_name"),
        ("ols", lambda b: b.update(config=5), "config"),
    ],
    ids=[
        "null_min_neighbors",
        "scalar_feature_names",
        "repeated_feature_names",
        "scalar_projection",
        "missing_config",
        "truncated_ols_coefficients",
        "unknown_kind",
        "wide_knn_features",
        "short_knn_targets",
        "knn_k_zero",
        "knn_k_above_rows",
        "external_index_out_of_range",
        "null_selected_index",
        "standardizer_wider_than_columns",
        "projection_input_not_standardizer_width",
        "points_wider_than_projection_output",
        "points_wider_than_standardizer",
        "regressor_input_dim_not_feature_count",
        "short_stddevs",
        "negative_stddev",
        "infinite_stddev",
        "fractional_min_neighbors",
        "fractional_input_dim",
        "boolean_knn_k",
        "missing_knn_k",
        "numeric_projection_kind",
        "selected_index_out_of_range",
        "negative_bandwidth",
        "nan_coefficient",
        "numeric_target_name",
        "scalar_config",
    ],
)
def test_malformed_model_document_exits_2_naming_the_field(
    tmp_path, capsys, regressor, corrupt, field
):
    data = generate(GeneratorSpec("sine_hetero", 200, seed=3))
    train_csv = tmp_path / "train.csv"
    with_pred = np.column_stack([data.features, data.target])
    save_csv(Dataset(with_pred, data.target, ("x", "pred")), train_csv)
    model_path = run_calibrate(
        tmp_path, train_csv, "--regressor", *regressor.split(), "--external-column", "pred"
    )
    blob = json.loads(model_path.read_text())
    corrupt(blob)
    model_path.write_text(json.dumps(blob))
    capsys.readouterr()
    out = tmp_path / "p.csv"
    rc = main(
        ["predict", "--model", str(model_path), "--input", str(train_csv), "--output", str(out)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert str(model_path) in err and field in err, err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, output_flag", [("predict", "--output"), ("evaluate", "--output-json")]
)
def test_model_file_that_is_not_json_exits_2_naming_it(
    tmp_path, train_csv, capsys, command, output_flag
):
    model_path = run_calibrate(tmp_path, train_csv)
    model_path.write_text(model_path.read_text()[:27])  # cut inside the first object
    capsys.readouterr()
    out = tmp_path / "out"
    rc = main(
        [command, "--model", str(model_path), "--input", str(train_csv), output_flag, str(out)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model_path}: "), err
    assert not out.exists()


GOLDEN = Path(__file__).parent / "golden"


def _fields(blob: dict) -> dict:
    """{dotted path: (holding object, key)} of every top-level field and of
    every field of each part; ``config`` echoes the settings and holds no part."""
    out = {key: (blob, key) for key in blob}
    for name, part in blob.items():
        if isinstance(part, dict) and name != "config":
            out.update({f"{name}.{key}": (part, key) for key in part})
    return out


def _json_kind(value):
    # int and float are one JSON type, except that an integer field rejects 2.5
    return "number" if type(value) in (int, float) else type(value)


@pytest.fixture(scope="module")
def golden_predictions(tmp_path_factory):
    """The golden models' queries as a CSV, and each model's predict output."""
    root = tmp_path_factory.mktemp("golden")
    queries = root / "queries.csv"
    rows = json.loads((GOLDEN / "predictions.json").read_text())["queries"]
    queries.write_text("x1,x2,pred\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows))
    expected = {}
    for kind in ("ols", "knn", "external"):
        out = root / f"{kind}.csv"
        argv = ["--model", str(GOLDEN / f"{kind}.json"), "--input", str(queries)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["predict", *argv, "--output", str(out), "--taus", "0.1,0.5,0.9"]) == 0
        expected[kind] = out.read_bytes()
    return root, queries, expected


def _mutations(path: str, value) -> list[str]:
    out = ["drop", "retype"]
    if isinstance(value, list) and value:
        out.append("truncate")
        matrix = isinstance(value[0], list)
        if matrix:
            out.append("transpose")
        if all(type(v) in (int, float) for row in (value if matrix else [value]) for v in row):
            out.append("non-finite")
    if path == "quantile_estimator.bandwidth":
        out.append("negative")
    if path == "quantile_estimator.min_neighbors":
        out.append("zero")
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_model_exits_2_naming_its_field_or_predicts_the_same(golden_predictions, data):
    """One field of a golden model dropped, retyped, truncated, transposed,
    made non-finite, or set out of range: predict either exits 2 naming the
    file and the field, or writes the golden model's predictions unchanged."""
    root, queries, expected = golden_predictions
    kind = data.draw(st.sampled_from(sorted(expected)))
    blob = json.loads((GOLDEN / f"{kind}.json").read_text())
    fields = _fields(blob)
    choices = [(m, p) for p, (holder, key) in fields.items() for m in _mutations(p, holder[key])]
    mutation = data.draw(st.sampled_from(sorted({m for m, _ in choices})))
    path = data.draw(st.sampled_from([p for m, p in choices if m == mutation]))
    holder, key = fields[path]
    value = holder[key]
    if mutation == "drop":
        del holder[key]
    elif mutation == "retype":
        others = (None, True, 2.5, 7, "s", [], {})
        holder[key] = data.draw(
            st.sampled_from([v for v in others if _json_kind(v) != _json_kind(value)])
        )
    elif mutation == "truncate":
        holder[key] = value[:-1]
    elif mutation == "transpose":
        holder[key] = [list(column) for column in zip(*value)]
    elif mutation == "non-finite":
        row = data.draw(st.sampled_from(value if isinstance(value[0], list) else [value]))
        row[data.draw(st.integers(0, len(row) - 1))] = data.draw(
            st.sampled_from([math.nan, math.inf, -math.inf])
        )
    elif mutation == "negative":
        holder[key] = -data.draw(st.sampled_from([1e-9, 0.5, 7]))
    else:
        holder[key] = 0
    model_path = root / "mutated.json"
    model_path.write_text(json.dumps(blob))
    out = root / "mutated.csv"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        argv = ["--model", str(model_path), "--input", str(queries), "--output", str(out)]
        rc = main(["predict", *argv, "--taus", "0.1,0.5,0.9"])
    err = err.getvalue()
    if rc == 0:
        assert out.read_bytes() == expected[kind], (path, mutation)
    else:
        assert rc == 2, err
        # a part that still reads but no longer fits the next one (projection
        # null before 1-wide points) is named by the width check, on both sides
        assert str(model_path) in err, err
        assert path in err or " has width " in err, (path, mutation, err)
        assert "Traceback" not in err and not out.exists()


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
