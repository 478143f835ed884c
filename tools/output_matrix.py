"""Run a fixed matrix of qcalib commands and fingerprint everything they write.

Usage::

    PYTHONPATH=src python tools/output_matrix.py OUTDIR

The matrix is 48 models on a 400-row CSV (x1, x2, x3, pred, y):
{ols, knn k = 7, external} x {no projection, gaussian dim 2, correlation
dim 2, gaussian dim 10 (the identity)} x {--bandwidth 0.3, auto} x
{--min-neighbors 1, 3}. Each model is followed by ``predict --taus
0.1,0.5,0.9``, ``predict --alpha 0.2`` and ``evaluate --group-column x1
--group-bins 3 --output-curve`` on a 200-row test CSV. Then the three demos
at ``--n 600``, ``scaled_uniform --n 500 --bandwidth 0.2 --tau 0.7``, and
``covshift`` with OLS ``auto`` and with kNN plus a correlation projection.
Last come three kNN models (k = 20) on a 2 400-row ``sine_hetero`` CSV with
three nuisance columns, where x spans [0, 15] and the others [0, 1], so
calibrate's residual pass reads key slabs rather than every stored point: no
projection at ``--bandwidth 0.3``, and ``--projection correlation
--projection-dim 1`` at 0.05 and ``auto``, each with ``predict --taus
0.05,0.5,0.95`` on a 2 000-row CSV and ``evaluate --output-curve``.
Then two rewrites of the 400- and 200-row CSVs that hold the same numbers,
one for each path of the CSV reader, go through ``calibrate`` (OLS at
``--bandwidth 0.3``), ``predict`` and ``evaluate``: ``fast`` starts with a
byte order mark and has blank lines between its CRLF-ended rows, which
``np.loadtxt`` reads; ``slow`` quotes some cells, writes others with a digit
separator (``0.1_25``) and has whitespace-only lines, which only the per-cell
loop reads.
Last, four OLS models with no projection on a 1 200-row ``sine_hetero`` CSV
with eleven nuisance columns, so the estimator's balls are 12-d and take
their members from the Gram block: ``--bandwidth 3`` and ``auto``, each
with ``--min-neighbors`` 1 and 3, each followed by ``predict --taus
0.05,0.5,0.95`` on a 600-row CSV and ``evaluate --output-curve``.

OUTDIR receives every file the commands write, ``commands.log`` with each
command, its printed output and its exit code, and a sorted ``SHA256SUMS``.
All paths are relative to OUTDIR, so runs of two source trees into two
directories compare with ``diff OUTDIR_A/SHA256SUMS OUTDIR_B/SHA256SUMS``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import re
import sys
from pathlib import Path

import numpy as np

import qcalib
from qcalib.cli import main
from qcalib.data import Dataset, save_csv
from qcalib.synthetic import GeneratorSpec, generate

REGRESSORS = {
    "ols": ["--regressor", "ols"],
    "knn": ["--regressor", "knn", "--knn-k", "7"],
    "external": ["--regressor", "external", "--external-column", "pred"],
}
PROJECTIONS = {
    "none": [],
    "gaussian2": ["--projection", "gaussian", "--projection-dim", "2"],
    "correlation2": ["--projection", "correlation", "--projection-dim", "2"],
    "identity": ["--projection", "gaussian", "--projection-dim", "10"],
}
BANDWIDTHS = ("0.3", "auto")
MIN_NEIGHBORS = ("1", "3")
KNN_20 = ["--regressor", "knn", "--knn-k", "20"]
ONE_COLUMN = ["--projection", "correlation", "--projection-dim", "1"]
WIDE_MODELS = {
    "knn-none-h0.3": [*KNN_20, "--bandwidth", "0.3"],
    "knn-correlation1-h0.05": [*KNN_20, *ONE_COLUMN, "--bandwidth", "0.05"],
    "knn-correlation1-hauto": [*KNN_20, *ONE_COLUMN, "--bandwidth", "auto"],
}
D12_MODELS = {
    f"ols-none-h{h}-k{k}": ["--bandwidth", h, "--min-neighbors", k]
    for h in ("3", "auto")
    for k in MIN_NEIGHBORS
}


def _dataset(n: int, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 3.0, size=(n, 3))
    mean = np.sin(xs[:, 0]) + 0.5 * xs[:, 1]
    y = mean + rng.normal(0.0, 0.2 + 0.3 * xs[:, 2])
    pred = mean + rng.normal(0.0, 0.1, size=n)
    return Dataset(np.column_stack([xs, pred]), y, ("x1", "x2", "x3", "pred"), "y")


def _run(log: list[str], *argv: str) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except Exception as exc:  # noqa: BLE001 - a traceback is an outcome to compare
            code = f"exception {type(exc).__name__}: {exc}"
    log.append(f"$ qcalib {' '.join(argv)}\n")
    log.append(out.getvalue())
    log.append("".join(f"stderr: {line}\n" for line in err.getvalue().splitlines()))
    log.append(f"exit {code}\n")


def run_matrix(log: list[str]) -> None:
    save_csv(_dataset(400, 1), "train.csv")
    save_csv(_dataset(200, 2), "test.csv")
    for (reg, reg_flags), (proj, proj_flags), h, k in itertools.product(
        REGRESSORS.items(), PROJECTIONS.items(), BANDWIDTHS, MIN_NEIGHBORS
    ):
        name = f"{reg}-{proj}-h{h}-k{k}"
        _run(
            log, "calibrate", "--input", "train.csv", "--target", "y",
            "--output", f"{name}.model.json", "--bandwidth", h, "--min-neighbors", k,
            "--seed", "3", *reg_flags, *proj_flags,
        )
        _run(
            log, "predict", "--model", f"{name}.model.json", "--input", "test.csv",
            "--output", f"{name}.taus.csv", "--taus", "0.1,0.5,0.9",
        )
        _run(
            log, "predict", "--model", f"{name}.model.json", "--input", "test.csv",
            "--output", f"{name}.alpha.csv", "--alpha", "0.2",
        )
        _run(
            log, "evaluate", "--model", f"{name}.model.json", "--input", "test.csv",
            "--output-json", f"{name}.report.json", "--output-curve", f"{name}.curve.csv",
            "--group-column", "x1", "--group-bins", "3", "--seed", "4",
        )
    for demo in ("example1", "sine", "scaled_uniform"):
        _run(log, "demo", demo, "--n", "600", "--outdir", f"demo-{demo}", "--seed", "5")
    _run(
        log, "demo", "scaled_uniform", "--n", "500", "--bandwidth", "0.2", "--tau", "0.7",
        "--outdir", "demo-scaled_uniform-tau", "--seed", "5",
    )
    _run(
        log, "covshift", "--input", "train.csv", "--target", "y", "--outdir", "covshift-ols",
        "--regressor", "ols", "--bandwidth", "auto", "--seed", "6",
    )
    _run(
        log, "covshift", "--input", "train.csv", "--target", "y", "--outdir", "covshift-knn",
        "--regressor", "knn", "--knn-k", "7", "--projection", "correlation",
        "--projection-dim", "2", "--seed", "6",
    )
    _sine_models(log, "wide", 2400, 2000, 3, WIDE_MODELS)
    for path in ("fast", "slow"):
        for name in ("train", "test"):
            _rewritten(f"{name}.csv", f"{path}-{name}.csv", path)
        _run(
            log, "calibrate", "--input", f"{path}-train.csv", "--target", "y",
            "--output", f"{path}.model.json", "--bandwidth", "0.3", "--seed", "3",
        )
        _run(
            log, "predict", "--model", f"{path}.model.json", "--input", f"{path}-test.csv",
            "--output", f"{path}.taus.csv", "--taus", "0.1,0.5,0.9",
        )
        _run(
            log, "evaluate", "--model", f"{path}.model.json", "--input", f"{path}-test.csv",
            "--output-json", f"{path}.report.json", "--output-curve", f"{path}.curve.csv",
            "--group-column", "x1", "--group-bins", "3", "--seed", "4",
        )
    _sine_models(log, "d12", 1200, 600, 11, D12_MODELS)


def _sine_models(log: list[str], prefix: str, n_train: int, n_test: int, nuisance: int, models) -> None:
    """``sine_hetero`` train and test CSVs with ``nuisance`` extra columns,
    then calibrate, predict and evaluate for each model's flags."""
    train, test = f"{prefix}-train.csv", f"{prefix}-test.csv"
    for name, n, seed in ((train, n_train, 7), (test, n_test, 8)):
        save_csv(generate(GeneratorSpec("sine_hetero", n, seed=seed, nuisance_dims=nuisance)), name)
    for name, flags in models.items():
        model = f"{prefix}-{name}.model.json"
        _run(
            log, "calibrate", "--input", train, "--target", "y",
            "--output", model, "--seed", "9", *flags,
        )
        _run(
            log, "predict", "--model", model, "--input", test,
            "--output", f"{prefix}-{name}.taus.csv", "--taus", "0.05,0.5,0.95",
        )
        _run(
            log, "evaluate", "--model", model, "--input", test,
            "--output-json", f"{prefix}-{name}.report.json", "--output-curve", f"{prefix}-{name}.curve.csv",
            "--group-column", "x", "--group-bins", "5", "--seed", "4",
        )


def _rewritten(src: str, dest: str, path: str) -> None:
    """``src`` with the same numbers, laid out for one CSV reader path."""
    rows = Path(src).read_text(encoding="utf-8").splitlines()
    if path == "fast":
        text = "\ufeff" + "".join(row + "\r\n" + "\r\n" * (i % 7 == 3) for i, row in enumerate(rows))
    else:
        out = []
        for i, row in enumerate(rows):
            cells = row.split(",")
            if i % 5 == 1:
                cells = [f'"{c}"' for c in cells]
            elif i % 5 == 2:
                cells = [re.sub(r"(\d)(\d)", r"\1_\2", c, count=1) for c in cells]
            out.append(",".join(cells) + ("\n  \t\n" if i % 9 == 4 else "\n"))
        text = "".join(out)
    Path(dest).write_bytes(text.encode("utf-8"))


def write_sums(root: Path) -> int:
    files = sorted(
        p.relative_to(root).as_posix()
        for p in root.rglob("*")
        if p.is_file() and p.name != "SHA256SUMS"
    )
    lines = [f"{hashlib.sha256((root / f).read_bytes()).hexdigest()}  {f}\n" for f in files]
    (root / "SHA256SUMS").write_text("".join(lines), encoding="utf-8")
    return len(files)


def main_matrix(outdir: str) -> int:
    root = Path(outdir)
    root.mkdir(parents=True, exist_ok=True)
    if any(root.iterdir()):
        print(f"error: {root} is not empty", file=sys.stderr)
        return 2
    log: list[str] = []
    here = os.getcwd()
    os.chdir(root)
    try:
        run_matrix(log)
        Path("commands.log").write_text("".join(log), encoding="utf-8")
    finally:
        os.chdir(here)
    count = write_sums(root)
    commands = sum(line.startswith("$ ") for line in log)
    failed = sum(line.startswith("exit ") and line != "exit 0\n" for line in log)
    print(f"qcalib: {Path(qcalib.__file__).parent}")
    print(f"{commands} commands, {failed} not exiting 0, {count} files in {root / 'SHA256SUMS'}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(main_matrix(sys.argv[1]))
