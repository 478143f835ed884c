"""Command-line interface.

Subcommands: calibrate, predict, evaluate, demo, covshift. Flags beat values
from an optional ``--config`` file (flat ``key=value`` lines, each key a long
option of the invoked subcommand, switches set by true/false words), which in
turn beat built-in defaults. Every run with the same flags
and seeds writes byte-identical outputs; on failure the exit code is 2 and
the files the command wrote are removed.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np

from .calibration import (
    CalibrationConfig,
    _quantile_columns,
    calibrate,
    load_model,
    save_model,
)
from .data import (
    Dataset,
    DatasetError,
    SplitSpec,
    _write_csv,
    _write_json,
    load_csv,
    read_numeric_csv,
)
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
from .regressors import RegressorSpec, _external_index
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
    keep = _quantile_columns(data.d, _external_index(spec, data.feature_names))
    if args.projection == "gaussian":
        return gaussian_projection(len(keep), args.projection_dim, seed=args.seed)
    names = tuple(data.feature_names[j] for j in keep)
    view = Dataset(data.features[:, keep], data.target, names, data.target_name)
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


def _cmd_calibrate(args, written: list) -> None:
    data = load_csv(args.input, args.target)
    cfg = _calibration_config(args, data)
    model = calibrate(data, cfg)
    save_model(model, args.output)
    written.append(args.output)
    kernel = model.config["kernel"]
    chosen = "fixed"
    if kernel["auto"]:
        chosen = kernel["cv"]["fallback"] or "cross-validated"
    print(f"rows: {data.n} (fit {model.config['n_fit']} / calibration {model.config['n_calibration']})")
    print(f"bandwidth: {kernel['bandwidth']:g} ({chosen})")
    print(f"seed: {args.seed}")
    print(f"model: {args.output}")


def _aligned_features(model, header: tuple[str, ...], table: np.ndarray, path) -> np.ndarray:
    """The model's feature columns of ``table``, by name and in the model's
    order; other columns are ignored."""
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


def _cmd_predict(args, written: list) -> None:
    model = load_model(args.model)
    header, table = read_numeric_csv(args.input)
    xs = _aligned_features(model, header, table, args.input)
    grid = _parse_taus(args)
    preds = model.predict_quantile_batch(xs, grid)
    out_header = list(model.feature_names) + [f"q_{t:g}" for t in grid.levels]
    _write_csv(args.output, out_header, np.hstack([xs, preds]))
    written.append(args.output)
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


def _cmd_evaluate(args, written: list) -> None:
    model = load_model(args.model)
    target = args.target or model.target_name
    header, table = read_numeric_csv(args.input)
    if target not in header:
        raise DatasetError(f"{args.input}: no column named {target!r}")
    if target in model.feature_names:
        raise DatasetError(f"{args.input}: target column {target!r} is a model feature")
    xs = _aligned_features(model, header, table, args.input)
    ys = table[:, header.index(target)]
    grid = default_tau_grid()
    preds = model.predict_quantile_batch(xs, grid)
    grouping = None
    if args.group_column is not None:
        if args.group_column == target or args.group_column not in header:
            raise DatasetError(
                f"{args.input}: no column named {args.group_column!r} to group by, "
                f"other than the target"
            )
        col = table[:, header.index(args.group_column)]
        grouping = _quantile_bins(col, args.group_bins)
    agce_cfg = AgceConfig(
        groups=args.agce_groups,
        group_fraction=args.agce_fraction,
        with_replacement=not args.agce_without_replacement,
        seed=args.seed,
    )
    report = evaluate_predictions(preds, ys, grid, agce_cfg, grouping)
    payload = report_to_dict(report)
    payload["model"] = str(args.model)
    payload["input"] = str(args.input)
    payload["seed"] = args.seed
    _write_json(args.output_json, payload)
    written.append(args.output_json)
    if args.output_curve is not None:
        write_tau_curve_csv(report, args.output_curve)
        written.append(args.output_curve)
    print(f"rows: {ys.size}")
    print(f"mace: {report.mace:.6f}")
    print(f"agce: {report.agce:.6f}")
    print(f"check_score: {report.check_score:.6f}")
    print(f"report: {args.output_json}")


def _demo_example1(args, model, csv_path: Path):
    """Demo example1's own report fields, CSV header and rows, and printed lines."""
    tau = args.tau
    test = generate(GeneratorSpec("uniform_triangle", args.n, seed=args.seed + 1))
    foil = sharpness_counterexample_predictor(test.features[:, 0], tau)
    calibrated = model.predict_quantile_batch(test.features, np.array([tau]))[:, 0]

    labels = np.where(test.features[:, 0] <= tau, f"x<={tau}", f"x>{tau}")
    grid = TauGrid(np.array([tau]))
    tables = {
        "counterexample": group_coverage(foil[:, None], test.target, labels, grid),
        "calibrated": group_coverage(calibrated[:, None], test.target, labels, grid),
    }
    fields = {
        "tau": tau,
        "models": {
            name: {
                "bins": list(t.bins),
                "sizes": list(t.sizes),
                "coverage": [float(v) for v in t.levels[:, 0]],
            }
            for name, t in tables.items()
        },
    }
    rows = [
        [name, b, size, cov]
        for name, t in tables.items()
        for b, size, cov in zip(t.bins, t.sizes, t.levels[:, 0])
    ]
    lines = [
        f"{name} coverage at tau={tau}: "
        + ", ".join(f"{b}: {v:.4f}" for b, v in zip(t.bins, t.levels[:, 0]))
        for name, t in tables.items()
    ]
    return fields, ["model", "bin", "rows", "coverage"], rows, lines


def _demo_sine(args, model, csv_path: Path):
    xs = np.linspace(0.0, 15.0, 301)
    levels = (0.025, 0.975)
    bands = model.predict_quantile_batch(xs[:, None], np.array(levels))
    oracle = [[analytic_quantile("sine_hetero", x, t) for t in levels] for x in xs]
    lines = [f"bandwidth: {model.config['kernel']['bandwidth']:g}", f"intervals: {csv_path}"]
    header = ["x", "q_lo", "q_hi", "oracle_lo", "oracle_hi"]
    return {"alpha": 0.05}, header, np.column_stack([xs, bands, oracle]), lines


def _demo_scaled_uniform(args, model, csv_path: Path):
    xs = np.linspace(0.0, 1.0, 201)
    preds = model.predict_quantile_batch(xs[:, None], np.array([args.tau]))[:, 0]
    oracle = [analytic_quantile("scaled_uniform", x, args.tau) for x in xs]
    lines = [f"bandwidth: {model.config['kernel']['bandwidth']:g}", f"curve: {csv_path}"]
    header = ["x", "q_pred", "q_oracle"]
    return {"tau": args.tau}, header, np.column_stack([xs, preds, oracle]), lines


# each demo: its synthetic family, base regressor and CSV, and its default row
# count, bandwidth and level (None: takes no --tau)
_DEMOS = {
    "example1": (
        _demo_example1, "uniform_triangle", RegressorSpec("ols"), "example1_coverage.csv",
        20000, "0.1", 0.9,
    ),
    "sine": (
        _demo_sine, "sine_hetero", RegressorSpec("knn", knn_k=20), "sine_intervals.csv",
        5000, "auto", None,
    ),
    "scaled_uniform": (
        _demo_scaled_uniform, "scaled_uniform", RegressorSpec("ols"), "scaled_uniform_curve.csv",
        5000, "auto", 0.9,
    ),
}


def _cmd_demo(args, written: list) -> None:
    """Calibrate on ``--n`` rows of the demo's family, split half and half, then
    write the demo's CSV and its report."""
    run, family, regressor, csv_name, n, bandwidth, tau = _DEMOS[args.name]
    if tau is None and args.tau is not None:
        raise ValueError(f"--tau does not apply to demo {args.name}")
    args.n = n if args.n is None else args.n
    args.bandwidth = bandwidth if args.bandwidth is None else args.bandwidth
    args.tau = tau if args.tau is None else args.tau
    train = generate(GeneratorSpec(family, args.n, seed=args.seed))
    cfg = CalibrationConfig(
        regressor=regressor,
        split=SplitSpec(0.5, seed=args.seed),
        kernel=_parse_kernel(args.bandwidth, 1),
        seed=args.seed,
    )
    model = calibrate(train, cfg)
    csv_path, report_path = _outdir_files(args)
    fields, header, rows, lines = run(args, model, csv_path)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(csv_path, header, rows)
    written.append(csv_path)
    report = {
        "demo": args.name,
        "n": args.n,
        "seed": args.seed,
        "bandwidth": model.config["kernel"]["bandwidth"],
        **fields,
    }
    _write_json(report_path, report)
    written.append(report_path)
    print("\n".join(lines))


def _cmd_covshift(args, written: list) -> None:
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

    report_path, *curve_paths = _outdir_files(args)
    report_path.parent.mkdir(parents=True, exist_ok=True)
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
    _write_json(report_path, payload)
    written.append(report_path)
    for rep, path in zip(reports.values(), curve_paths):  # local, then marginal
        write_tau_curve_csv(rep, path)
        written.append(path)
    print(f"train rows: {train.n}, shifted rows: {shifted.n}")
    for name, rep in reports.items():
        print(f"{name} mace: {rep.mace:.6f}")
    print(f"report: {report_path}")


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
    p.add_argument("--tau", type=float, default=None)
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
    actions = {
        flag[2:].replace("-", "_"): action
        for action in command._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag not in ("--help", "--config")
    }
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    pairs: list[tuple[str, str | None]] = []
    first: dict[str, int] = {}
    for line_no, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ValueError(f"{path} line {line_no}: expected key=value, got {text!r}")
        key, value = (part.strip() for part in text.split("=", 1))
        key = key.replace("-", "_")
        if key not in actions:
            raise ValueError(f"{path} line {line_no}: unknown key {key!r} for {command.prog}")
        if first.setdefault(key, line_no) != line_no:
            raise ValueError(f"{path} line {line_no}: key {key!r} repeats line {first[key]}")
        action = actions[key]
        if action.nargs != 0:
            _check_config_value(action, value, f"{path} line {line_no}: {key}")
            pairs.append((key, value))
        elif value.lower() in _TRUE_WORDS:
            pairs.append((key, None))
        elif value.lower() not in _FALSE_WORDS:
            raise ValueError(f"{path} line {line_no}: {key} must be true/false")
    return pairs


def _check_config_value(action: argparse.Action, value: str, where: str) -> None:
    """Refuse, naming the file and line, a value its flag would refuse."""
    try:
        converted = value if action.type is None else action.type(value)
    except (TypeError, ValueError):
        raise ValueError(f"{where}: invalid {action.type.__name__} value {value!r}") from None
    if action.choices is not None and converted not in action.choices:
        choices = ", ".join(map(repr, action.choices))
        raise ValueError(f"{where}: invalid choice {value!r} (choose from {choices})")


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


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist (yet)
        return Path(a).resolve() == Path(b).resolve()


def _outdir_files(args) -> list[Path]:
    """The files a demo or covshift run writes under ``--outdir``, in the
    order it writes them; none for the other commands."""
    if args.command == "demo":
        outdir = Path(args.outdir)
        return [outdir / _DEMOS[args.name][3], outdir / f"{args.name}_report.json"]
    if args.command == "covshift":
        outdir = Path(args.outdir)
        curves = [outdir / f"covshift_{name}_curve.csv" for name in ("local", "marginal")]
        return [outdir / "covshift_report.json", *curves]
    return []


def _check_file_flags(args) -> None:
    """Refuse, before any work, an output path that names an input file or
    another output; the flags are compared as resolved paths."""

    def named(dests):
        paths = [("--" + dest.replace("_", "-"), getattr(args, dest, None)) for dest in dests]
        return [(flag, path) for flag, path in paths if path is not None]

    inputs = named(("config", "model", "input"))
    outputs = named(("output", "output_json", "output_curve"))
    outputs += [("--outdir", path) for path in _outdir_files(args)]
    for i, (second, b) in enumerate(outputs):
        for first, a in inputs + outputs[:i]:
            if _same_file(a, b):
                raise ValueError(f"{first} and {second} name the same file {b}")


def main(argv=None) -> int:
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        merged_argv = _merge_config(parser, raw_argv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args = parser.parse_args(merged_argv)
    written: list = []  # each path is recorded once its write has returned
    try:
        _check_file_flags(args)
        # a finite input too large for float arithmetic stops the run, named by
        # its file, instead of warning and going on with inf or nan
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            args.handler(args, written)
    except (ValueError, KeyError, OSError, FloatingPointError) as exc:  # DatasetError is a ValueError
        for path in written:
            Path(path).unlink(missing_ok=True)
        if isinstance(exc, FloatingPointError) and hasattr(args, "model"):
            # the model's stored values take part in the same arithmetic
            exc = (
                f"{args.input} or {args.model}: {exc}; "
                "one of them holds values too large to compute with"
            )
        elif isinstance(exc, FloatingPointError) and hasattr(args, "input"):
            exc = f"{args.input}: {exc}; its values are too large to compute with"
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
