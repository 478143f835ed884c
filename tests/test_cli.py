import argparse
import codecs
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

from qcalib import neighbors
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


    def test_grid_subsample_of_identical_rows_exits_0(self, tmp_path, capsys):
        # x = 0 except row 123: the calibration half holds that row at seed
        # 0, the grid's 2 000-row subsample of the half does not
        path = tmp_path / "flat.csv"
        path.write_text("x,y\n" + "".join(f"{float(i == 123)},{i % 7}\n" for i in range(5000)))
        model_path = tmp_path / "model.json"
        argv = ["calibrate", "--input", str(path), "--target", "y", "--output", str(model_path)]
        assert main([*argv, "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "bandwidth: inf (identical features in the grid's 2000-row subsample" in out, out
        kernel = json.loads(model_path.read_text())["config"]["kernel"]
        assert kernel["cv"]["fallback"].startswith("identical features in the grid's")
        assert main([*argv, "--seed", "1"]) == 0
        assert "(cross-validated)" in capsys.readouterr().out


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
                        value = action.choices[0] if action.choices else "7"
                        cfg.write_text(f"{key} = {value}\n")
                        assert _merge_config(parser, argv)[3:] == [flag, value], (name, key)

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

    @pytest.mark.parametrize(
        "text, key, line, first",
        [
            ("seed = 1\nseed = 7\n", "seed", 2, 1),
            # dashes and underscores name one key, and a switch repeats too
            ("no-shuffle = true\n# note\n\nno_shuffle = false\n", "no_shuffle", 4, 1),
        ],
    )
    def test_repeated_key_rejected(self, tmp_path, train_csv, capsys, text, key, line, first):
        # the last value used to win silently
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "m.json"
        argv = ["--config", str(cfg), "--input", str(train_csv), "--target", "y"]
        assert main(["calibrate", *argv, "--output", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {cfg} line {line}: key {key!r} repeats line {first}\n")
        assert not out.exists()


    @pytest.mark.parametrize(
        "line, message",
        [
            ("seed = abc", "seed: invalid int value 'abc'"),
            ("fraction_train = half", "fraction_train: invalid float value 'half'"),
            ("regressor = tree", "regressor: invalid choice 'tree' (choose from 'ols', 'knn', 'external')"),
        ],
    )
    def test_value_its_flag_refuses_named_by_file_and_line(self, tmp_path, train_csv, capsys, line, message):
        # argparse used to refuse it, naming neither the file nor the line
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"target = y\n{line}\n")
        out = tmp_path / "m.json"
        assert main(["calibrate", "--config", str(cfg), "--input", str(train_csv), "--output", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {cfg} line 2: {message}\n")
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--taus", "0.1,0.9", "--alpha", "0.5"], ""),
            (["--alpha", "0.5"], "taus = 0.1,0.9\n"),
            (["--taus", "0.1,0.9"], "alpha = 0.5\n"),
            ([], "taus = 0.1,0.9\nalpha = 0.5\n"),
        ],
        ids=["both_flags", "taus_in_config", "alpha_in_config", "both_in_config"],
    )
    def test_taus_and_alpha_exclude_each_other(
        self, tmp_path, train_csv, test_csv, capsys, flags, config
    ):
        model_path = run_calibrate(tmp_path, train_csv)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        out = tmp_path / "preds.csv"
        argv = ["predict", "--model", str(model_path), "--input", str(test_csv), "--output", str(out)]
        capsys.readouterr()
        if config:
            # refused while the file is read, naming it, the line and both keys
            assert main([*argv, "--config", str(cfg), *flags]) == 2
            err = capsys.readouterr().err
            line = len(config.splitlines())
            assert f"{cfg} line {line}: key " in err, err
            assert "'taus' (--taus)" in err or "'alpha' (--alpha)" in err, err
        else:
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--config", str(cfg), *flags])
            assert exc.value.code == 2
            err = capsys.readouterr().err
        assert "--taus" in err and "--alpha" in err, err
        assert not out.exists()
        # with neither flag the levels stay the default three
        assert main([*argv]) == 0
        assert out.read_text().splitlines()[0] == "x,q_0.025,q_0.5,q_0.975"

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
    """{kind: (model, queries CSV, predict output)}: the golden models on their
    queries, and a model over six features, whose balls take the Gram path."""
    root = tmp_path_factory.mktemp("golden")
    queries = root / "queries.csv"
    rows = json.loads((GOLDEN / "predictions.json").read_text())["queries"]
    queries.write_text("x1,x2,pred\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows))
    cases = {kind: (GOLDEN / f"{kind}.json", queries) for kind in ("ols", "knn", "external")}
    wide_csv, wide_model = root / "wide.csv", root / "wide.json"
    save_csv(generate(GeneratorSpec("sine_hetero", 80, seed=4, nuisance_dims=5)), wide_csv)
    cases["wide"] = (wide_model, wide_csv)
    expected = {}
    with contextlib.redirect_stdout(io.StringIO()):
        argv = ["--input", str(wide_csv), "--target", "y", "--bandwidth", "2.5"]
        assert main(["calibrate", *argv, "--output", str(wide_model)]) == 0
        for kind, (model, inputs) in cases.items():
            out = root / f"{kind}_predictions.csv"
            argv = ["--model", str(model), "--input", str(inputs), "--output", str(out)]
            assert main(["predict", *argv, "--taus", "0.1,0.5,0.9"]) == 0
            expected[kind] = (model, inputs, out.read_bytes())
    width = len(json.loads(wide_model.read_text())["quantile_estimator"]["points"][0])
    assert width >= neighbors._GRAM_MIN_DIM
    return root, expected


def _mutations(path: str, value) -> list[str]:
    out = ["drop", "retype"]
    if isinstance(value, list) and value:
        out.append("truncate")
        matrix = isinstance(value[0], list)
        if matrix:
            out.append("transpose")
        if all(type(v) in (int, float) for row in (value if matrix else [value]) for v in row):
            out += ["non-finite", "non-number"]
    if path in ("quantile_estimator.points", "regressor.train_features"):
        out.append("huge")  # each query's distance to every stored point overflows
    if path == "quantile_estimator.bandwidth":
        out.append("negative")
    if path == "quantile_estimator.min_neighbors":
        out.append("zero")
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_model_exits_2_naming_its_field_or_predicts_the_same(golden_predictions, data):
    """One field of a model dropped, retyped, truncated, transposed, made
    non-finite, or set out of range: predict either exits 2 naming the file
    and the field, or writes the model's predictions unchanged. An array
    element that is not a number always exits 2: true is not 1.0. A stored
    point of 1e200 overflows the distances, and the message names both the
    queries and the model."""
    root, expected = golden_predictions
    kind = data.draw(st.sampled_from(sorted(expected)))
    source, queries, golden = expected[kind]
    blob = json.loads(source.read_text())
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
    elif mutation in ("non-finite", "non-number"):
        row = data.draw(st.sampled_from(value if isinstance(value[0], list) else [value]))
        bad = [math.nan, math.inf, -math.inf] if mutation == "non-finite" else [True, "0.5", None]
        row[data.draw(st.integers(0, len(row) - 1))] = data.draw(st.sampled_from(bad))
    elif mutation == "huge":
        row = data.draw(st.sampled_from(value))
        row[data.draw(st.integers(0, len(row) - 1))] = 1e200
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
        assert mutation not in ("non-number", "huge"), (path, err)
        assert out.read_bytes() == golden, (path, mutation)
    else:
        assert rc == 2, err
        assert str(model_path) in err, err
        if mutation == "huge":
            assert f"error: {queries} or {model_path}: overflow encountered in " in err, err
        else:
            # a part that still reads but no longer fits the next one (projection
            # null before 1-wide points) is named by the width check, on both sides
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
        # the model's feature x is missing; an extra column alone is no mismatch
        model_path = run_calibrate(tmp_path, train_csv)
        other = tmp_path / "other.csv"
        other.write_text("w,z,y\n1,2,3\n4,5,6\n")
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


    @pytest.mark.parametrize("column, message", [("y", "'y'"), ("q", "'q'")])
    def test_group_column_is_any_column_but_the_target(
        self, tmp_path, train_csv, test_csv, capsys, column, message
    ):
        model_path = run_calibrate(tmp_path, train_csv)
        extra = tmp_path / "extra.csv"
        _with_extra_column(test_csv, extra)
        argv = ["evaluate", "--model", str(model_path), "--input", str(extra)]
        report = tmp_path / "r.json"
        assert main([*argv, "--output-json", str(report), "--group-column", "z"]) == 0
        assert sum(json.loads(report.read_text())["group_coverage"]["sizes"]) == 120
        report.unlink()
        capsys.readouterr()
        assert main([*argv, "--output-json", str(report), "--group-column", column]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {extra}: no column named {message} to group by, other than the target\n"
        assert not report.exists()


    def test_target_that_is_a_model_feature_rejected(self, tmp_path, train_csv, test_csv, capsys):
        model_path = run_calibrate(tmp_path, train_csv)
        report = tmp_path / "r.json"
        argv = ["--model", str(model_path), "--input", str(test_csv), "--output-json", str(report)]
        assert main(["evaluate", *argv, "--target", "x"]) == 2
        assert capsys.readouterr().err == f"error: {test_csv}: target column 'x' is a model feature\n"
        assert not report.exists()


def _with_extra_column(src: Path, dest: Path) -> None:
    """``src`` with its columns reversed and a column z of row numbers first."""
    lines = src.read_text().splitlines()
    cells = [line.split(",")[::-1] for line in lines]
    dest.write_text("".join(",".join([str(i) if i else "z", *row]) + "\n" for i, row in enumerate(cells)))


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_predict_and_evaluate_select_the_model_columns_by_name(
    tmp_path, train_csv, test_csv, capsys, command
):
    """Both commands read the model's features by name and ignore other
    columns; a missing feature exits 2 naming it, and writes nothing."""
    model_path = run_calibrate(tmp_path, train_csv)
    extra, missing = tmp_path / "extra.csv", tmp_path / "missing.csv"
    _with_extra_column(test_csv, extra)
    missing.write_text("z,y\n1,2\n3,4\n")

    def run(path, out):
        argv = [command, "--model", str(model_path), "--input", str(path)]
        flag = "--output" if command == "predict" else "--output-json"
        capsys.readouterr()
        return main([*argv, flag, str(out)]), out

    plain, with_extra = run(test_csv, tmp_path / "plain.out"), run(extra, tmp_path / "extra.out")
    assert plain[0] == with_extra[0] == 0
    if command == "predict":
        assert plain[1].read_bytes() == with_extra[1].read_bytes()
    else:
        reports = [json.loads(out.read_text()) for _, out in (plain, with_extra)]
        assert [r.pop("input") for r in reports] == [str(test_csv), str(extra)]
        assert reports[0] == reports[1]
    rc, out = run(missing, tmp_path / "missing.out")
    assert rc == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err == f"error: {missing}: schema mismatch, missing model feature columns ['x']\n"


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

    def test_tau_where_it_applies(self, tmp_path, capsys):
        argv = ["demo", "example1", "--n", "800", "--seed", "0", "--outdir"]
        assert main([*argv, str(tmp_path / "a"), "--tau", "0.7"]) == 0
        assert main([*argv, str(tmp_path / "b")]) == 0
        assert main([*argv, str(tmp_path / "c"), "--tau", "0.9"]) == 0
        report = "example1_report.json"
        blob = json.loads((tmp_path / "a" / report).read_text())
        assert blob["tau"] == 0.7
        # the foil's threshold moves with tau: all below it covered, none above
        assert blob["models"]["counterexample"]["bins"] == ["x<=0.7", "x>0.7"]
        assert blob["models"]["counterexample"]["coverage"] == [1.0, 0.0]
        assert (tmp_path / "b" / report).read_bytes() == (tmp_path / "c" / report).read_bytes()
        capsys.readouterr()
        argv = ["demo", "sine", "--n", "400", "--outdir", str(tmp_path / "s"), "--tau", "0.5"]
        assert main(argv) == 2
        assert "--tau does not apply to demo sine" in capsys.readouterr().err

    def test_flag_given_as_zero_is_not_the_default(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        assert main(["demo", "sine", "--n", "0", "--outdir", str(outdir)]) == 2
        assert "n must be positive, got 0" in capsys.readouterr().err
        assert not outdir.exists()

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


def _output_argv(command, model_path, train_csv, test_csv, path):
    """argv of ``command`` with ``path`` as the output it writes last."""
    return {
        "calibrate": [
            "calibrate", "--input", str(train_csv), "--target", "y",
            "--output", str(path), "--bandwidth", "0.8",
        ],
        "predict": [
            "predict", "--model", str(model_path), "--input", str(test_csv),
            "--output", str(path),
        ],
        "evaluate": [
            "evaluate", "--model", str(model_path), "--input", str(test_csv),
            "--output-json", str(model_path.parent / "report.json"), "--output-curve", str(path),
        ],
    }[command]


class TestOutputPaths:
    @pytest.mark.parametrize("command", ["calibrate", "predict", "evaluate"])
    @pytest.mark.parametrize("where", ["a directory", "a missing folder"])
    def test_unwritable_output_exits_2_naming_it(
        self, tmp_path, train_csv, test_csv, capsys, command, where
    ):
        model_path = run_calibrate(tmp_path, train_csv)
        out = tmp_path / "out"
        out.mkdir()
        path = out if where == "a directory" else out / "missing" / "file"
        capsys.readouterr()
        assert main(_output_argv(command, model_path, train_csv, test_csv, path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and "Traceback" not in err
        # evaluate wrote its report before the curve failed, and removed it
        assert sorted(out.iterdir()) == [] and not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command", ["calibrate", "predict", "evaluate"])
    def test_existing_file_that_cannot_be_opened_is_kept(
        self, tmp_path, train_csv, test_csv, capsys, monkeypatch, command
    ):
        model_path = run_calibrate(tmp_path, train_csv)
        path = tmp_path / "locked.out"
        path.write_text("someone else's\n")
        real_open = open

        def refusing_open(file, mode="r", *args, **kwargs):
            if str(file) == str(path) and "w" in mode:
                raise PermissionError(13, "Permission denied", str(file))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr("builtins.open", refusing_open)
        assert main(_output_argv(command, model_path, train_csv, test_csv, path)) == 2
        assert "Permission denied" in capsys.readouterr().err
        assert path.read_text() == "someone else's\n"
        assert not (tmp_path / "report.json").exists()


FILE_CLASHES = [
    pytest.param(
        ["calibrate", "--input", "{train}", "--target", "y", "--output", "{train}"],
        "--input and --output",
        id="calibrate-over-its-input",
    ),
    pytest.param(
        ["calibrate", "--input", "{train}", "--target", "y", "--output", "{sub}/../train.csv"],
        "--input and --output",
        id="calibrate-over-its-input-spelled-otherwise",
    ),
    pytest.param(
        ["calibrate", "--input", "{train}", "--target", "y", "--output", "{cfg}",
         "--config", "{cfg}"],
        "--config and --output",
        id="calibrate-over-its-config",
    ),
    pytest.param(
        ["predict", "--model", "{model}", "--input", "{test}", "--output", "{model}"],
        "--model and --output",
        id="predict-over-its-model",
    ),
    pytest.param(
        ["predict", "--model", "{model}", "--input", "{test}", "--output", "{link}"],
        "--input and --output",
        id="predict-over-a-link-to-its-input",
    ),
    pytest.param(
        ["evaluate", "--model", "{model}", "--input", "{test}", "--output-json", "{new}",
         "--output-curve", "{new}"],
        "--output-json and --output-curve",
        id="evaluate-two-outputs-to-one-file",
    ),
    pytest.param(
        ["evaluate", "--model", "{model}", "--input", "{test}", "--output-json", "{model}"],
        "--model and --output-json",
        id="evaluate-over-its-model",
    ),
    pytest.param(
        ["covshift", "--input", "{curve}", "--target", "y", "--outdir", "{dir}"],
        "--input and --outdir",
        id="covshift-over-its-input",
    ),
    pytest.param(
        ["demo", "sine", "--config", "{report}", "--outdir", "{dir}"],
        "--config and --outdir",
        id="demo-over-its-config",
    ),
]


@pytest.mark.parametrize("argv, flags", FILE_CLASHES)
def test_output_naming_an_input_or_another_output_exits_2(
    tmp_path, train_csv, test_csv, capsys, argv, flags
):
    model_path = run_calibrate(tmp_path, train_csv)
    (tmp_path / "sub").mkdir()
    (tmp_path / "cfg.txt").write_text("bandwidth = 0.8\n")
    (tmp_path / "link.csv").symlink_to(test_csv)
    # an input named as a file that demo or covshift writes under --outdir
    (tmp_path / "covshift_local_curve.csv").write_bytes(train_csv.read_bytes())
    (tmp_path / "sine_report.json").write_text("n = 50\n")
    paths = {
        "train": train_csv, "test": test_csv, "model": model_path, "sub": tmp_path / "sub",
        "cfg": tmp_path / "cfg.txt", "link": tmp_path / "link.csv", "new": tmp_path / "same.out",
        "dir": tmp_path, "curve": tmp_path / "covshift_local_curve.csv",
        "report": tmp_path / "sine_report.json",
    }
    before = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {flags} name the same file ")
    assert {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


def test_byte_order_marks_and_undecodable_files(tmp_path, train_csv, capsys):
    # a CSV and a config file saved with a BOM read as without one
    bom_csv = tmp_path / "bom.csv"
    bom_csv.write_bytes(train_csv.read_bytes().decode().encode("utf-8-sig"))
    cfg = tmp_path / "cfg.txt"
    cfg.write_bytes("bandwidth = 0.8\nseed = 1\n".encode("utf-8-sig"))
    model_path, plain_path = tmp_path / "model.json", tmp_path / "plain.json"
    argv = ["calibrate", "--input", str(bom_csv), "--target", "y", "--output", str(model_path)]
    assert main([*argv, "--config", str(cfg)]) == 0
    assert json.loads(model_path.read_text())["feature_names"] == ["x"]
    plain = ["calibrate", "--input", str(train_csv), "--target", "y", "--output", str(plain_path)]
    assert main([*plain, "--bandwidth", "0.8", "--seed", "1"]) == 0
    assert model_path.read_bytes() == plain_path.read_bytes()
    preds = tmp_path / "preds.csv"
    predict = ["predict", "--model", str(model_path), "--input", str(train_csv)]
    assert main([*predict, "--output", str(preds)]) == 0
    # bytes that are not UTF-8 exit 2 naming the file
    for path in (bom_csv, cfg):
        path.write_bytes(path.read_bytes() + b"caf\xe9\n")
        capsys.readouterr()
        assert main([*argv, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xe9")
        path.write_bytes(path.read_bytes()[: -len(b"caf\xe9\n")])


def test_blank_header_cell_exits_2(tmp_path, capsys):
    path = tmp_path / "blank.csv"
    path.write_text("a,,y\n1,2,3\n4,5,6\n7,8,9\n1,1,1\n")
    out = tmp_path / "model.json"
    assert main(["calibrate", "--input", str(path), "--target", "y", "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {path}: header column 2 is blank\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, header, column, name",
    [
        ("calibrate", "x,y,y", 3, "y"),  # a copy of the target would become a feature
        ("calibrate", "x,x,y", 2, "x"),
        ("predict", "x,x", 2, "x"),  # the model's feature x would read one of them
    ],
)
def test_repeated_header_name_exits_2(tmp_path, train_csv, capsys, command, header, column, name):
    model_path = run_calibrate(tmp_path, train_csv)
    path = tmp_path / "repeat.csv"
    width = len(header.split(","))
    path.write_text(header + "\n" + "".join(f"{','.join([str(i)] * width)}\n" for i in range(9)))
    out = tmp_path / "out.file"
    if command == "calibrate":
        argv = ["calibrate", "--input", str(path), "--target", "y", "--output", str(out)]
    else:
        argv = ["predict", "--model", str(model_path), "--input", str(path), "--output", str(out)]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {path}: header column {column} repeats '{name}'\n")
    assert not out.exists()


# text changes that leave every number and name as it was; the rest may fail
_HARMLESS = ("bom", "crlf", "cr", "blank_lines", "quote")
_CSV_MUTATIONS = (*_HARMLESS, "ragged", "blank_name", "repeat_name", "non_finite", "huge", "text", "bad_bytes")
_CONFIG_MUTATIONS = (
    "config_bom", "unknown_key", "repeat_key", "malformed", "switch_word", "wrong_type", "config_bad_bytes"
)
# mutations no command may run past
_REFUSED = (
    "ragged", "blank_name", "bad_bytes", "unknown_key", "repeat_key", "malformed", "wrong_type",
    "config_bad_bytes",
)
# values their flags refuse: a type that cannot read them, or a choice not offered
_WRONG_TYPED = ("seed = abc", "cv_folds = 2.5", "min_neighbors = many", "fraction_train = half", "regressor = tree")
_CLEAN_CONFIG = "target = y\nbandwidth = 0.8\nseed = 1\n"


def _mutated(data, kind: str, raw: bytes) -> bytes:
    """``raw`` changed by one mutation of the given kind, drawn from ``data``."""
    if kind in ("bom", "config_bom"):  # a second BOM would be part of the first name
        return raw if raw.startswith(codecs.BOM_UTF8) else codecs.BOM_UTF8 + raw
    if kind in ("bad_bytes", "config_bad_bytes"):
        at = data.draw(st.integers(0, len(raw)))
        return raw[:at] + data.draw(st.sampled_from([b"\xe9", b"\xff\xfe", b"\x80"])) + raw[at:]
    lines = raw.decode().splitlines()
    row = data.draw(st.integers(0, len(lines) - 1))
    cells = lines[row].split(",")
    column = data.draw(st.integers(0, len(cells) - 1))

    def cell(value):
        cells[column] = value
        lines[row] = ",".join(cells)

    if kind == "ragged":  # a cell more on the header leaves every data row short
        lines[row] += ",1.5"
    elif kind == "quote" and not cells[column].startswith('"'):
        cell(f'"{data.draw(st.sampled_from(["", " "]))}{cells[column]}"')
    elif kind == "blank_name":
        lines[0] = ",".join(c if i != column else data.draw(st.sampled_from(["", "  "]))
                            for i, c in enumerate(lines[0].split(",")))
    elif kind == "repeat_name":
        names = lines[0].split(",")
        names[column] = data.draw(st.sampled_from(names))
        lines[0] = ",".join(names)
    elif kind in ("non_finite", "huge", "text") and row > 0:
        values = {
            "non_finite": ["nan", "inf", "-inf", "1e400", "-Infinity"],
            "huge": ["1e300", "-1.7976931348623157e308", "1e200", "5e-324", "1e155"],
            "text": ["abc", "", "1_000", "\u0663", "0x10", "#1", "1,5"],
        }[kind]
        cell(data.draw(st.sampled_from(values)))
    elif kind == "blank_lines":
        lines.insert(data.draw(st.integers(1, len(lines))), data.draw(st.sampled_from(["", "  ", "\t"])))
    elif kind == "unknown_key":
        lines.insert(row, data.draw(st.sampled_from(["bandwith = 0.8", "taus = 0.5", "group_bins = 3"])))
    elif kind == "repeat_key":
        lines.append(lines[row].replace(" ", data.draw(st.sampled_from(["", " ", "  "]))))
    elif kind == "malformed":
        lines.insert(row, data.draw(st.sampled_from(["just words", "=", "seed"])))
    elif kind == "wrong_type":  # in place of the clean seed line, so no key repeats
        lines = [line for line in lines if not line.startswith("seed")]
        lines.append(data.draw(st.sampled_from(_WRONG_TYPED)))
    elif kind == "switch_word":
        lines.append(f"no_shuffle = {data.draw(st.sampled_from(['maybe', '', 'true', 'off']))}")
    end = {"crlf": "\r\n", "cr": "\r"}.get(kind, "\n")
    return "".join(line + end for line in lines).encode()


@pytest.fixture(scope="module")
def clean_runs(tmp_path_factory):
    """A 40-row CSV and a config file, and what calibrate, predict and
    evaluate write from them, each file under the path the fuzz reuses."""
    root = tmp_path_factory.mktemp("csv_fuzz")
    data, cfg = root / "data.csv", root / "run.cfg"
    save_csv(generate(GeneratorSpec("sine_hetero", 40, seed=3, nuisance_dims=1)), data)
    cfg.write_text(_CLEAN_CONFIG)
    model = root / "model.json"
    commands = {
        "calibrate": (["calibrate", "--config", str(cfg), "--input", str(data)], "--output"),
        "predict": (["predict", "--model", str(model), "--input", str(data)], "--output"),
        "evaluate": (["evaluate", "--model", str(model), "--input", str(data)], "--output-json"),
    }
    expected = {}
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["calibrate", "--config", str(cfg), "--input", str(data), "--output", str(model)]) == 0
        for name, (argv, flag) in commands.items():
            out = root / f"{name}.out"
            assert main([*argv, flag, str(out)]) == 0
            expected[name] = out.read_bytes()
    return root, data.read_text(), commands, expected


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_csv_or_config_exits_2_naming_the_file_or_runs(clean_runs, data):
    """One or two mutations of the CSV or the config file: ragged rows,
    quotes, a BOM, other line ends, blank lines, blank and repeated names,
    non-finite, huge or non-numeric cells, bytes that are not UTF-8, and
    unknown, repeated or malformed config lines. calibrate, predict and
    evaluate each exit 0, or exit 2 naming a mutated file, with no traceback
    and no output left; a harmless mutation writes the clean outputs."""
    root, clean_csv, commands, expected = clean_runs
    kinds = data.draw(st.lists(st.sampled_from(_CSV_MUTATIONS + _CONFIG_MUTATIONS), min_size=1, max_size=2))
    csv_raw, cfg_raw = clean_csv.encode(), _CLEAN_CONFIG.encode()
    # a BOM or bad bytes go in last, so every other mutation edits UTF-8 text
    for kind in sorted(kinds, key=lambda k: k.endswith(("bom", "bad_bytes"))):
        if kind in _CONFIG_MUTATIONS:
            cfg_raw = _mutated(data, kind, cfg_raw)
        else:
            csv_raw = _mutated(data, kind, csv_raw)
    (root / "data.csv").write_bytes(csv_raw)
    (root / "run.cfg").write_bytes(cfg_raw)
    for name, (argv, flag) in commands.items():
        out = root / "mutated.out"
        out.unlink(missing_ok=True)
        mutated = [root / "data.csv"] + [root / "run.cfg"] * (name == "calibrate")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([*argv, flag, str(out)])
        err = err.getvalue()
        assert "Traceback" not in err
        read = {k for k in kinds if name == "calibrate" or k not in _CONFIG_MUTATIONS}
        if rc == 0:
            assert not read & set(_REFUSED), (name, kinds)
            if read <= {*_HARMLESS, "config_bom"}:
                assert out.read_bytes() == expected[name], (name, kinds)
        else:
            assert rc == 2, (name, kinds, err)
            assert any(err.startswith(f"error: {path}") for path in mutated), (name, kinds, err)
            assert not out.exists(), (name, kinds)


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
