"""Command-line interface.

Subcommands: calibrate, predict, evaluate, demo, covshift. Flags beat values
from an optional ``--config`` file (flat ``key=value`` lines, each key a long
option of the invoked subcommand, switches set by true/false words), which in
turn beat built-in defaults. Every run with the same flags
and seeds writes byte-identical outputs; on failure partially written files
are removed and the exit code is 2.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .calibration import (
    CalibrationConfig,
    calibrate,
    load_model,
    save_model,
)
from .data import Dataset, DatasetError, SplitSpec, load_csv, read_numeric_csv
from .metrics import (
    AgceConfig,
    TauGrid,
    _interval_levels,
    default_tau_grid,
    evaluate_predictions,
    group_coverage,
    report_to_dict,
    write_tau_curve_csv,
)
from .projection import correlation_select, gaussian_projection
from .quantile import BandwidthSearch, KernelConfig
from .regressors import RegressorSpec
from .synthetic import (
    GeneratorSpec,
    ShiftSpec,
    analytic_quantile,
    covariate_shift_testset,
    generate,
    sharpness_counterexample_predictor,
)

__all__ = ["main"]

_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


class _OutputSet:
    """Tracks files a command writes so failures can remove partial output."""

    def __init__(self) -> None:
        self._paths: list[Path] = []

    def register(self, path) -> Path:
        p = Path(path)
        self._paths.append(p)
        return p

    def cleanup(self) -> None:
        for p in self._paths:
            p.unlink(missing_ok=True)


def _write_json(outputs: _OutputSet, path, payload: dict) -> None:
    p = outputs.register(path)
    with open(p, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(outputs: _OutputSet, path, header: list[str], rows) -> None:
    p = outputs.register(path)
    with open(p, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value: float) -> str:
    return repr(float(value))


def _parse_kernel(bandwidth: str, min_neighbors: int) -> KernelConfig | str:
    if bandwidth == "auto":
        return "auto"
    try:
        h = float(bandwidth)
    except ValueError:
        raise ValueError(
            f'--bandwidth must be "auto" or a nonnegative number, got {bandwidth!r}'
        ) from None
    return KernelConfig(h, min_neighbors)


def _regressor_spec(args) -> RegressorSpec:
    return RegressorSpec(
        kind=args.regressor,
        knn_k=args.knn_k,
        external_column=getattr(args, "external_column", None),
    )


def _build_projection(args, data: Dataset, spec: RegressorSpec):
    if args.projection == "none":
        return None
    if args.projection_dim is None:
        raise ValueError("--projection-dim is required when --projection is set")
    # the quantile step never sees the external predictions column
    if spec.kind == "external":
        keep = [j for j, n in enumerate(data.feature_names) if n != spec.external_column]
        view = Dataset(
            data.features[:, keep],
            data.target,
            tuple(data.feature_names[j] for j in keep),
            data.target_name,
        )
    else:
        view = data
    if args.projection == "gaussian":
        return gaussian_projection(view.d, args.projection_dim, seed=args.seed)
    return correlation_select(view, args.projection_dim)


def _calibration_config(args, data: Dataset) -> CalibrationConfig:
    spec = _regressor_spec(args)
    kernel = _parse_kernel(args.bandwidth, args.min_neighbors)
    return CalibrationConfig(
        regressor=spec,
        split=SplitSpec(args.fraction_train, seed=args.seed, shuffle=not args.no_shuffle),
        kernel=kernel,
        min_neighbors=args.min_neighbors,
        bandwidth_search=BandwidthSearch(folds=args.cv_folds, seed=args.seed),
        projection=_build_projection(args, data, spec),
        seed=args.seed,
    )


def _cmd_calibrate(args, outputs: _OutputSet) -> None:
    data = load_csv(args.input, args.target)
    cfg = _calibration_config(args, data)
    model = calibrate(data, cfg)
    save_model(model, outputs.register(args.output))
    kernel = model.config["kernel"]
    chosen = "fixed"
    if kernel["auto"]:
        chosen = kernel["cv"]["fallback"] or "cross-validated"
    print(f"rows: {data.n} (fit {model.config['n_fit']} / calibration {model.config['n_calibration']})")
    print(f"bandwidth: {kernel['bandwidth']:g} ({chosen})")
    print(f"seed: {args.seed}")
    print(f"model: {args.output}")


def _aligned_features(model, header: tuple[str, ...], table: np.ndarray, path) -> np.ndarray:
    missing = [n for n in model.feature_names if n not in header]
    if missing:
        raise DatasetError(
            f"{path}: schema mismatch, missing model feature columns {missing}"
        )
    cols = [header.index(n) for n in model.feature_names]
    return table[:, cols]


def _parse_taus(args) -> TauGrid:
    if args.alpha is not None:
        return _interval_levels(args.alpha)
    try:
        return TauGrid([float(t) for t in args.taus.split(",") if t.strip()])
    except ValueError as exc:
        raise ValueError(f"--taus {args.taus!r}: {exc}") from None


def _cmd_predict(args, outputs: _OutputSet) -> None:
    model = load_model(args.model)
    header, table = read_numeric_csv(args.input)
    xs = _aligned_features(model, header, table, args.input)
    grid = _parse_taus(args)
    preds = model.predict_quantile_batch(xs, grid)
    out_header = list(model.feature_names) + [f"q_{t:g}" for t in grid.levels]
    rows = (
        [_fmt(v) for v in x_row] + [_fmt(q) for q in q_row]
        for x_row, q_row in zip(xs, preds)
    )
    _write_csv(outputs, args.output, out_header, rows)
    print(f"rows: {xs.shape[0]}")
    print(f"levels: {', '.join(f'{t:g}' for t in grid.levels)}")
    print(f"predictions: {args.output}")


def _quantile_bins(values: np.ndarray, k: int) -> np.ndarray:
    if k < 2:
        raise ValueError(f"--group-bins must be at least 2, got {k}")
    edges = np.quantile(values, np.arange(1, k) / k)
    labels = np.searchsorted(edges, values, side="left")
    for b in range(k):
        if not (labels == b).any():
            raise DatasetError(
                f"grouping produced an empty bin ({b + 1} of {k}); fewer bins needed"
            )
    return labels


def _cmd_evaluate(args, outputs: _OutputSet) -> None:
    model = load_model(args.model)
    target = args.target or model.target_name
    data = load_csv(args.input, target)
    if set(data.feature_names) != set(model.feature_names):
        raise DatasetError(
            f"{args.input}: schema mismatch, file columns {sorted(data.feature_names)} "
            f"vs model columns {sorted(model.feature_names)}"
        )
    cols = [data.feature_names.index(n) for n in model.feature_names]
    xs = data.features[:, cols]
    grid = default_tau_grid()
    preds = model.predict_quantile_batch(xs, grid)
    grouping = None
    if args.group_column is not None:
        if args.group_column not in data.feature_names:
            raise DatasetError(f"no column named {args.group_column!r} to group by")
        col = data.features[:, data.feature_names.index(args.group_column)]
        grouping = _quantile_bins(col, args.group_bins)
    agce_cfg = AgceConfig(
        groups=args.agce_groups,
        group_fraction=args.agce_fraction,
        with_replacement=not args.agce_without_replacement,
        seed=args.seed,
    )
    report = evaluate_predictions(preds, data.target, grid, agce_cfg, grouping)
    payload = report_to_dict(report)
    payload["model"] = str(args.model)
    payload["input"] = str(args.input)
    payload["seed"] = args.seed
    _write_json(outputs, args.output_json, payload)
    if args.output_curve is not None:
        outputs.register(args.output_curve)
        write_tau_curve_csv(report, args.output_curve)
    print(f"rows: {data.n}")
    print(f"mace: {report.mace:.6f}")
    print(f"agce: {report.agce:.6f}")
    print(f"check_score: {report.check_score:.6f}")
    print(f"report: {args.output_json}")


def _demo_model(args, family: str, regressor: RegressorSpec):
    """Calibrate on ``args.n`` rows of a synthetic family, split half and half."""
    train = generate(GeneratorSpec(family, args.n, seed=args.seed))
    cfg = CalibrationConfig(
        regressor=regressor,
        split=SplitSpec(0.5, seed=args.seed),
        kernel=_parse_kernel(args.bandwidth, 1),
        seed=args.seed,
    )
    return calibrate(train, cfg)


def _demo_example1(args, outputs: _OutputSet, outdir: Path) -> None:
    tau = 0.9
    model = _demo_model(args, "uniform_triangle", RegressorSpec("ols"))
    test = generate(GeneratorSpec("uniform_triangle", args.n, seed=args.seed + 1))
    foil = sharpness_counterexample_predictor(test.features[:, 0], tau)
    calibrated = model.predict_quantile_batch(test.features, np.array([tau]))[:, 0]

    labels = np.where(test.features[:, 0] <= 0.9, "x<=0.9", "x>0.9")
    grid = TauGrid(np.array([tau]))
    tables = {
        "counterexample": group_coverage(foil[:, None], test.target, labels, grid),
        "calibrated": group_coverage(calibrated[:, None], test.target, labels, grid),
    }
    payload = {
        "demo": "example1",
        "n": args.n,
        "seed": args.seed,
        "tau": tau,
        "bandwidth": model.config["kernel"]["bandwidth"],
        "models": {
            name: {
                "bins": list(t.bins),
                "sizes": list(t.sizes),
                "coverage": [float(v) for v in t.levels[:, 0]],
            }
            for name, t in tables.items()
        },
    }
    _write_json(outputs, outdir / "example1_report.json", payload)
    rows = []
    for name, t in tables.items():
        for b, size, cov in zip(t.bins, t.sizes, t.levels[:, 0]):
            rows.append([name, b, size, _fmt(cov)])
    _write_csv(outputs, outdir / "example1_coverage.csv", ["model", "bin", "rows", "coverage"], rows)
    for name, t in tables.items():
        pairs = ", ".join(f"{b}: {v:.4f}" for b, v in zip(t.bins, t.levels[:, 0]))
        print(f"{name} coverage at tau={tau}: {pairs}")


def _demo_sine(args, outputs: _OutputSet, outdir: Path) -> None:
    model = _demo_model(args, "sine_hetero", RegressorSpec("knn", knn_k=20))
    xs = np.linspace(0.0, 15.0, 301)
    levels = np.array([0.025, 0.975])
    bands = model.predict_quantile_batch(xs[:, None], levels)
    rows = []
    for x, (lo, hi) in zip(xs, bands):
        rows.append(
            [
                _fmt(x),
                _fmt(lo),
                _fmt(hi),
                _fmt(analytic_quantile("sine_hetero", x, 0.025)),
                _fmt(analytic_quantile("sine_hetero", x, 0.975)),
            ]
        )
    _write_csv(
        outputs,
        outdir / "sine_intervals.csv",
        ["x", "q_lo", "q_hi", "oracle_lo", "oracle_hi"],
        rows,
    )
    payload = {
        "demo": "sine",
        "n": args.n,
        "seed": args.seed,
        "alpha": 0.05,
        "bandwidth": model.config["kernel"]["bandwidth"],
    }
    _write_json(outputs, outdir / "sine_report.json", payload)
    print(f"bandwidth: {model.config['kernel']['bandwidth']:g}")
    print(f"intervals: {outdir / 'sine_intervals.csv'}")


def _demo_scaled_uniform(args, outputs: _OutputSet, outdir: Path) -> None:
    tau = args.tau
    model = _demo_model(args, "scaled_uniform", RegressorSpec("ols"))
    xs = np.linspace(0.0, 1.0, 201)
    preds = model.predict_quantile_batch(xs[:, None], np.array([tau]))[:, 0]
    rows = [
        [_fmt(x), _fmt(q), _fmt(analytic_quantile("scaled_uniform", x, tau))]
        for x, q in zip(xs, preds)
    ]
    _write_csv(outputs, outdir / "scaled_uniform_curve.csv", ["x", "q_pred", "q_oracle"], rows)
    payload = {
        "demo": "scaled_uniform",
        "n": args.n,
        "seed": args.seed,
        "tau": tau,
        "bandwidth": model.config["kernel"]["bandwidth"],
    }
    _write_json(outputs, outdir / "scaled_uniform_report.json", payload)
    print(f"bandwidth: {model.config['kernel']['bandwidth']:g}")
    print(f"curve: {outdir / 'scaled_uniform_curve.csv'}")


# each demo with its default row count and bandwidth
_DEMOS = {
    "example1": (_demo_example1, 20000, "0.1"),
    "sine": (_demo_sine, 5000, "auto"),
    "scaled_uniform": (_demo_scaled_uniform, 5000, "auto"),
}


def _cmd_demo(args, outputs: _OutputSet) -> None:
    run, n, bandwidth = _DEMOS[args.name]
    args.n, args.bandwidth = args.n or n, args.bandwidth or bandwidth
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    run(args, outputs, outdir)


def _cmd_covshift(args, outputs: _OutputSet) -> None:
    data = load_csv(args.input, args.target)
    shift = ShiftSpec(
        pool_fraction=args.pool_fraction,
        resample_count=args.resample_count,
        variance_scale=args.variance_scale,
        seed=args.seed,
    )
    train, shifted = covariate_shift_testset(data, shift)
    cfg = _calibration_config(args, train)
    conditional = calibrate(train, cfg)
    marginal = calibrate(
        train, dataclasses.replace(cfg, kernel=KernelConfig(math.inf, 1))
    )
    grid = default_tau_grid()
    agce_cfg = AgceConfig(seed=args.seed)
    reports = {}
    for name, model in (("local", conditional), ("marginal", marginal)):
        preds = model.predict_quantile_batch(shifted.features, grid)
        reports[name] = evaluate_predictions(preds, shifted.target, grid, agce_cfg)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    payload = {
        "covshift": {
            "input": str(args.input),
            "pool_fraction": args.pool_fraction,
            "resample_count": args.resample_count,
            "variance_scale": args.variance_scale,
            "seed": args.seed,
            "train_rows": train.n,
            "shifted_rows": shifted.n,
            "bandwidth": conditional.config["kernel"]["bandwidth"],
        },
        "models": {name: report_to_dict(rep) for name, rep in reports.items()},
    }
    _write_json(outputs, outdir / "covshift_report.json", payload)
    for name, rep in reports.items():
        outputs.register(outdir / f"covshift_{name}_curve.csv")
        write_tau_curve_csv(rep, outdir / f"covshift_{name}_curve.csv")
    print(f"train rows: {train.n}, shifted rows: {shifted.n}")
    for name, rep in reports.items():
        print(f"{name} mace: {rep.mace:.6f}")
    print(f"report: {outdir / 'covshift_report.json'}")


def _add_calibration_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--regressor", choices=("ols", "knn", "external"), default="ols")
    sub.add_argument("--knn-k", type=int, default=5)
    sub.add_argument("--external-column", default=None)
    sub.add_argument("--fraction-train", type=float, default=0.5)
    sub.add_argument("--no-shuffle", action="store_true")
    sub.add_argument("--bandwidth", default="auto", help='kernel radius or "auto" for CV')
    sub.add_argument("--min-neighbors", type=int, default=1)
    sub.add_argument("--cv-folds", type=int, default=5)
    sub.add_argument("--projection", choices=("none", "gaussian", "correlation"), default="none")
    sub.add_argument("--projection-dim", type=int, default=None)


def _build_parser() -> argparse.ArgumentParser:
    # abbreviation would let a shortened flag slip past the config merge
    parser = argparse.ArgumentParser(
        prog="qcalib",
        description="Calibrate, evaluate, and demo conditional quantile predictions.",
        allow_abbrev=False,
    )
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--config", default=None, help="flat key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", parents=[common], allow_abbrev=False, help="fit a calibrated model from CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--output", required=True, help="model JSON path")
    _add_calibration_flags(p)
    p.set_defaults(handler=_cmd_calibrate)

    p = sub.add_parser("predict", parents=[common], allow_abbrev=False, help="emit quantile predictions as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--taus", default="0.025,0.5,0.975")
    p.add_argument("--alpha", type=float, default=None, help="central interval instead of --taus")
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("evaluate", parents=[common], allow_abbrev=False, help="score a model on labeled CSV data")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--target", default=None, help="defaults to the model's target column")
    p.add_argument("--output-json", required=True)
    p.add_argument("--output-curve", default=None)
    p.add_argument("--group-column", default=None)
    p.add_argument("--group-bins", type=int, default=5)
    p.add_argument("--agce-groups", type=int, default=20)
    p.add_argument("--agce-fraction", type=float, default=0.1)
    p.add_argument("--agce-without-replacement", action="store_true")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("demo", parents=[common], allow_abbrev=False, help="run a built-in synthetic walkthrough")
    p.add_argument("name", choices=tuple(_DEMOS))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--outdir", default="demo_out")
    p.add_argument("--bandwidth", default=None)
    p.add_argument("--tau", type=float, default=0.9)
    p.set_defaults(handler=_cmd_demo)

    p = sub.add_parser("covshift", parents=[common], allow_abbrev=False, help="compare models on a covariate-shifted test set")
    p.add_argument("--input", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--outdir", default="covshift_out")
    p.add_argument("--pool-fraction", type=float, default=0.1)
    p.add_argument("--resample-count", type=int, default=1000)
    p.add_argument("--variance-scale", type=float, default=0.3)
    _add_calibration_flags(p)
    p.set_defaults(handler=_cmd_covshift)
    return parser


def _read_config_pairs(path, command: argparse.ArgumentParser) -> list[tuple[str, str | None]]:
    # the keys are the command's long options; a switch takes a true/false word
    switches = {
        flag[2:].replace("-", "_"): action.nargs == 0
        for action in command._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag not in ("--help", "--config")
    }
    pairs: list[tuple[str, str | None]] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ValueError(f"{path} line {line_no}: expected key=value, got {text!r}")
            key, value = (part.strip() for part in text.split("=", 1))
            key = key.replace("-", "_")
            if key not in switches:
                raise ValueError(f"{path} line {line_no}: unknown key {key!r} for {command.prog}")
            if not switches[key]:
                pairs.append((key, value))
            elif value.lower() in _TRUE_WORDS:
                pairs.append((key, None))
            elif value.lower() not in _FALSE_WORDS:
                raise ValueError(f"{path} line {line_no}: {key} must be true/false")
    return pairs


def _merge_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Append config-file entries as flags unless the same flag was given
    explicitly, so flags beat the file and the file beats built-in defaults.

    Subparsers parse into a fresh namespace, which makes parser-level
    ``set_defaults`` useless for per-command options; rewriting argv also
    lets file values satisfy required arguments and reuse each option's
    own type conversion. Keys must belong to the invoked subcommand,
    ``argv[0]``.
    """
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    if path is None or argv[0] not in commands.choices:
        return argv  # argparse reports a missing or unknown subcommand
    merged = list(argv)
    for key, value in _read_config_pairs(path, commands.choices[argv[0]]):
        flag = "--" + key.replace("_", "-")
        if any(t == flag or t.startswith(flag + "=") for t in argv):
            continue
        merged.append(flag)
        if value is not None:
            merged.append(value)
    return merged


def main(argv=None) -> int:
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        merged_argv = _merge_config(parser, raw_argv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args = parser.parse_args(merged_argv)
    outputs = _OutputSet()
    try:
        args.handler(args, outputs)
    except (DatasetError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        outputs.cleanup()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
