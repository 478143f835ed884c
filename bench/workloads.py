"""The three workloads and the measurement sequence they share.

Each run makes its inputs from the seed and warms up on a small slice. Then
it makes rounds until the given seconds are spent (at least MIN_ROUNDS). A
round runs the user's sequence once with timers and the workload's extra
calls of those of its phases that take under about a second, between runs of
a fixed reference kernel, and then serves single ``predict_interval`` calls
in a closed loop for SERVING_SHARE of the sequence's time, with set-up
samples (load the saved model, answer once) spread through the serving. It
reads the process's peak RSS before any check runs, so the checks' own
arrays do not count. A traced run makes one untraced and one traced pass of
the sequence, then a short traced serving phase.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import qcalib as qc
import qcalib.cli

import checks
from tracing import Tracer, layer_metrics

GRID = qc.default_tau_grid()
ALPHA = 0.1
MIN_ROUNDS = 4
SERVING_SHARE = 0.25
SETUPS_PER_ROUND = 6
LATENCY_WINDOW_S = 0.5
MIN_WINDOW_CALLS = 50
CHECK_ROWS = 200
TRACED_CALLS = 200
# Host speed: see measure(). Serving times are scaled to a host on which the
# median run of reference_kernel() takes REFERENCE_NOMINAL_S, sequence times
# to one on which a run of round_kernel() takes ROUND_NOMINAL_S on average.
REFERENCE_NOMINAL_S = 0.0035
REFERENCE_EVERY_S = 0.02
ROUND_NOMINAL_S = 0.038
ROUND_KERNEL_RUNS = 3  # on either side of each round's sequence
_REFERENCE_POINTS = np.random.default_rng(0).random((2000, 5))
_REFERENCE_DOC = json.dumps(np.random.default_rng(1).random(2000).tolist())
_REFERENCE_ROWS = np.random.default_rng(2).random((40, 31)).tolist()
_ROUND_RNG = np.random.default_rng(7)
_SCAN_POINTS = _ROUND_RNG.random((1200, 20))
_SCAN_QUERIES = _ROUND_RNG.random((120, 20))
_SORT_POINTS = _ROUND_RNG.random((2500, 5))
_SORT_QUERIES = _ROUND_RNG.random((48, 5))
_TEXT_ROWS = _ROUND_RNG.random((160, 31)).tolist()
_BALL_VALUES = _ROUND_RNG.random(1200)
_BALL_ORDER = np.argsort(_BALL_VALUES, kind="stable")
_BALL_DISTANCES = _ROUND_RNG.random((600, 1200))
# An OLS prediction for a single row differs in the last bits from the same
# row's prediction inside a batch (the matrix-vector product sums in another
# order), so on OLS workloads the interval check allows this much and the
# calls that differ at all are counted instead.
OLS_INTERVAL_ATOL = 1e-12


@dataclass
class Run:
    """What one run measured and found."""

    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    reference: dict = field(default_factory=dict)  # printed beside the metrics, no bound
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    checks_passed: int = 0

    def check(self, name: str, message: str | None) -> None:
        if message is None:
            self.checks_passed += 1
        else:
            self.problems.append(f"{name}: {message}")


@dataclass
class Sequence:
    """Timings and outputs of one pass of the user's sequence."""

    steps: int
    calibrate_s: float
    predict_s: float
    pipeline_s: float
    rows: int
    model_path: Path
    fingerprint: bytes  # digest of the sequence's prediction output, to compare passes
    mace: float
    check_score: float
    loaded: object = None  # the model as loaded from disk
    model: object = None  # the model as calibrate returned it, when in memory
    preds: np.ndarray | None = None  # the 99-level batch prediction, when in memory
    preds_csv: Path | None = None  # the predictions file, when written


def _sine(n: int, seed: int, nuisance: int):
    return qc.generate(qc.GeneratorSpec("sine_hetero", n, seed=seed, nuisance_dims=nuisance))


def _level_column(level: float) -> int:
    hits = np.flatnonzero(GRID.levels == level)
    if hits.size != 1:
        raise ValueError(f"level {level!r} is not on the evaluation grid")
    return int(hits[0])


class Analyst:
    """calibrate -> save -> load -> batch predict -> evaluate, in process."""

    def __init__(
        self,
        seed,
        workdir,
        *,
        n_train,
        n_test,
        nuisance,
        regressor,
        kernel,
        project_to,
        slack,
        interval_atol,
        repeats,
    ):
        self.seed = seed
        self.workdir = workdir
        self.regressor = regressor
        self.kernel = kernel
        self.project_to = project_to
        self.slack = slack
        self.interval_atol = interval_atol
        self.repeats = repeats
        self.train = _sine(n_train, 2 * seed, nuisance)
        self.test = _sine(n_test, 2 * seed + 1, nuisance)
        self.held_out = self.test.features
        self.targets = self.test.target

    def _config(self, data):
        projection = None
        if self.project_to is not None:
            projection = qc.correlation_select(data, self.project_to)
        return qc.CalibrationConfig(
            regressor=self.regressor,
            split=qc.SplitSpec(0.5, seed=self.seed),
            kernel=self.kernel,
            bandwidth_search=qc.BandwidthSearch(seed=self.seed),
            projection=projection,
            seed=self.seed,
        )

    def warm_up(self) -> None:
        self._sequence(self.train.select(np.arange(600)), self.test.select(np.arange(50)), "warmup")

    def sequence(self, tag: str) -> Sequence:
        return self._sequence(self.train, self.test, tag)

    def repeat(self, seq: Sequence, phase: str) -> float:
        """Seconds of one more call of a phase of the sequence, on its inputs."""
        t0 = time.perf_counter()
        if phase == "calibrate":
            qc.calibrate(self.train, self._config(self.train))
        else:
            seq.loaded.predict_quantile_batch(self.held_out, GRID)
        return time.perf_counter() - t0

    def _sequence(self, train, test, tag) -> Sequence:
        path = self.workdir / f"{tag}-model.json"
        t0 = time.perf_counter()
        model = qc.calibrate(train, self._config(train))
        t1 = time.perf_counter()
        qc.save_model(model, path)
        loaded = qc.load_model(path)
        t2 = time.perf_counter()
        preds = loaded.predict_quantile_batch(test.features, GRID)
        t3 = time.perf_counter()
        report = qc.evaluate_predictions(preds, test.target, GRID)
        t4 = time.perf_counter()
        return Sequence(
            steps=5,
            calibrate_s=t1 - t0,
            predict_s=t3 - t2,
            pipeline_s=t4 - t0,
            rows=test.n,
            model_path=path,
            fingerprint=hashlib.sha256(preds).digest(),
            mace=report.mace,
            check_score=report.check_score,
            loaded=loaded,
            model=model,
            preds=preds,
        )

    def check(self, seq: Sequence, rows, intervals, run: Run) -> None:
        fit_rows, _ = checks.split_rows(self.train.n, self.seed)
        fit_x, fit_y = self.train.features[fit_rows], self.train.target[fit_rows]
        sample = _sample_rows(self.seed, self.test.n)
        if self.regressor.kind == "knn":
            k = self.regressor.knn_k
            got = seq.loaded.predict_mean(self.held_out[sample])
            run.check("kNN vs brute force", checks.knn_predictions(fit_x, fit_y, k, self.held_out[sample], got))
            base = checks.knn_means(fit_x, fit_y, k, self.held_out)
        else:
            run.check("OLS vs lstsq", checks.ols_coefficients(fit_x, fit_y, seq.loaded.regressor.coefficients))
            beta = checks.lstsq_coefficients(fit_x, fit_y)
            base = self.held_out @ beta[1:] + beta[0]
        run.check(
            "save/load round trip",
            checks.bit_identical(
                seq.model.predict_quantile_batch(self.held_out[sample], GRID),
                seq.loaded.predict_quantile_batch(self.held_out[sample], GRID),
                "predictions of the calibrated and the reloaded model",
            ),
        )
        _shared_checks(self, seq, seq.preds, sample, base, rows, intervals, run)


class Cli:
    """qcalib calibrate -> predict -> evaluate on generated CSV files."""

    slack = 0.0
    interval_atol = OLS_INTERVAL_ATOL
    repeats = {"calibrate": 2}  # qcalib calibrate takes about half a second

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.train = _sine(12_000, 2 * seed, 29)
        self.test = _sine(6_000, 2 * seed + 1, 29)
        self.held_out = self.test.features
        self.targets = self.test.target
        self.csv = {}
        for name, data in (
            ("train", self.train),
            ("test", self.test),
            ("warmup-train", self.train.select(np.arange(400))),
            ("warmup-test", self.test.select(np.arange(100))),
        ):
            self.csv[name] = workdir / f"{name}.csv"
            _write_csv(data, self.csv[name])

    def warm_up(self) -> None:
        self._sequence(self.csv["warmup-train"], self.csv["warmup-test"], "warmup")

    def sequence(self, tag: str) -> Sequence:
        return self._sequence(self.csv["train"], self.csv["test"], tag)

    def repeat(self, seq: Sequence, phase: str) -> float:
        """Seconds of one more call of a phase of the sequence, on its inputs."""
        t0 = time.perf_counter()
        if phase == "calibrate":
            self._calibrate(self.csv["train"], self.workdir / "repeat-model.json")
        else:
            self._predict(seq.model_path, self.csv["test"], self.workdir / "repeat-preds.csv")
        return time.perf_counter() - t0

    def _calibrate(self, train_csv, model) -> None:
        _cli(
            "calibrate", "--input", train_csv, "--target", "y", "--output", model,
            "--regressor", "ols", "--projection", "correlation", "--projection-dim", "1",
            "--bandwidth", "0.05", "--seed", str(self.seed),
        )

    def _predict(self, model, test_csv, preds) -> None:
        _cli("predict", "--model", model, "--input", test_csv, "--output", preds, "--taus", "0.05,0.5,0.95")

    def _sequence(self, train_csv, test_csv, tag) -> Sequence:
        model = self.workdir / f"{tag}-model.json"
        preds = self.workdir / f"{tag}-preds.csv"
        report = self.workdir / f"{tag}-report.json"
        seed = str(self.seed)
        t0 = time.perf_counter()
        self._calibrate(train_csv, model)
        t1 = time.perf_counter()
        self._predict(model, test_csv, preds)
        t2 = time.perf_counter()
        _cli(
            "evaluate", "--model", model, "--input", test_csv, "--output-json", report,
            "--group-column", "x", "--group-bins", "5", "--seed", seed,
        )
        t3 = time.perf_counter()
        scores = json.loads(report.read_text(encoding="utf-8"))
        return Sequence(
            steps=3,
            calibrate_s=t1 - t0,
            predict_s=t2 - t1,
            pipeline_s=t3 - t0,
            rows=self.test.n,
            model_path=model,
            fingerprint=hashlib.sha256(preds.read_bytes()).digest(),
            mace=scores["mace"],
            check_score=scores["check_score"],
            preds_csv=preds,
        )

    def check(self, seq: Sequence, rows, intervals, run: Run) -> None:
        fit_rows, _ = checks.split_rows(self.train.n, self.seed)
        fit_x, fit_y = self.train.features[fit_rows], self.train.target[fit_rows]
        run.check("OLS vs lstsq", checks.ols_coefficients(fit_x, fit_y, seq.loaded.regressor.coefficients))
        beta = checks.lstsq_coefficients(fit_x, fit_y)
        base = self.held_out @ beta[1:] + beta[0]
        preds = seq.loaded.predict_quantile_batch(self.held_out, GRID)
        written = np.loadtxt(seq.preds_csv, delimiter=",", skiprows=1, ndmin=2)
        d = self.held_out.shape[1]
        columns = [_level_column(t) for t in (0.05, 0.5, 0.95)]
        message, differ = checks.within(
            written[:, d:], preds[:, columns], OLS_INTERVAL_ATOL, "quantiles written by predict"
        )
        run.check(
            "predict CSV",
            checks.bit_identical(written[:, :d], self.held_out, "feature columns written by predict")
            or message
            or checks.nondecreasing_rows(written[:, d:]),
        )
        run.reference["predict_csv_bit_mismatches"] = (differ, f"of {written[:, d:].size} values")
        sample = _sample_rows(self.seed, self.test.n)
        again = self.workdir / "resaved-model.json"
        qc.save_model(seq.loaded, again)
        run.check(
            "save/load round trip",
            checks.bit_identical(
                qc.load_model(again).predict_quantile_batch(self.held_out[sample], GRID),
                seq.loaded.predict_quantile_batch(self.held_out[sample], GRID),
                "predictions of the saved and the re-saved model",
            ),
        )
        _shared_checks(self, seq, preds, sample, base, rows, intervals, run)


def _write_csv(data, path: Path) -> None:
    # %.17g round-trips every double, so the file holds the arrays exactly
    table = np.column_stack([data.features, data.target])
    header = ",".join([*data.feature_names, data.target_name])
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")


def _cli(*argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qc.cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"qcalib {argv[0]} exited with {code}: {err.getvalue().strip()}")


def _sample_rows(seed: int, n: int) -> np.ndarray:
    return np.sort(np.random.default_rng([seed, 1]).choice(n, CHECK_ROWS, replace=False))


def _shared_checks(workload, seq, preds, sample, base, rows, intervals, run: Run) -> None:
    loaded = seq.loaded
    est = loaded.quantile_estimator
    xs = workload.held_out[sample]
    selected = None if loaded.projection is None else loaded.projection.selected_indices
    z = checks.ball_coordinates(xs, loaded.standardizer.means, loaded.standardizer.stddevs, selected)
    message, excluded = checks.ball_quantiles(
        est.points,
        est.values,
        est.kernel.bandwidth,
        est.kernel.min_neighbors,
        z,
        GRID.levels,
        loaded.residual_quantile_batch(xs, GRID),
    )
    run.check("ball quantiles vs sorted scan", message)
    run.reference["ball_check_excluded"] = (excluded, f"of {len(sample)}")
    run.check("nondecreasing in tau", checks.nondecreasing_rows(preds))
    lo, hi = _level_column(ALPHA / 2), _level_column(1 - ALPHA / 2)
    message, differ = checks.intervals_match(
        intervals, rows, preds[:, lo], preds[:, hi], workload.interval_atol
    )
    run.check("interval = batch", message)
    run.reference["interval_batch_bit_mismatches"] = (differ, f"of {len(rows)} calls")
    run.check(
        "metrics recomputed",
        checks.metrics_agree(preds, workload.targets, GRID.levels, seq.mace, seq.check_score),
    )
    marginal = checks.marginal_check_score(base, est.values, workload.targets, GRID.levels)
    run.check("beats marginal baseline", checks.beats_marginal(seq.check_score, marginal, workload.slack))
    run.reference["marginal_check_score"] = (marginal, "loss")


WORKLOADS = {
    "knn_d5_fixed": lambda seed, workdir: Analyst(
        seed,
        workdir,
        n_train=5_000,
        n_test=2_500,
        nuisance=4,
        regressor=qc.RegressorSpec("knn", knn_k=20),
        kernel=qc.KernelConfig(0.05),
        project_to=1,
        slack=0.0,
        interval_atol=0.0,
        repeats={},
    ),
    # calibration barely beats the marginal baseline at d = 20 (the curse of
    # dimensionality), so here the check only bounds how far it may fall behind
    "ols_auto_d20": lambda seed, workdir: Analyst(
        seed,
        workdir,
        n_train=3_000,
        n_test=3_000,
        nuisance=19,
        regressor=qc.RegressorSpec("ols"),
        kernel="auto",
        project_to=None,
        slack=0.01,
        interval_atol=OLS_INTERVAL_ATOL,
        repeats={"predict": 1},  # the batch predict takes about 0.7 s
    ),
    "cli_wide_csv": Cli,
}


def reference_kernel() -> float:
    """Fixed work in the program's proportions: distance scans with a stable
    argsort, interpreter-bound arithmetic, JSON parsing, and CSV text written
    and parsed back."""
    acc = 0.0
    for q in _REFERENCE_POINTS[:6]:
        d = np.sqrt(((_REFERENCE_POINTS - q) ** 2).sum(axis=1))
        acc += float(d[np.argsort(d, kind="stable")[10]])
    for i in range(1500):
        acc += i * 1e-9
    text = "\n".join(",".join(repr(v) for v in row) for row in _REFERENCE_ROWS)
    for row in csv.reader(io.StringIO(text)):
        acc += sum(float(cell) for cell in row)
    return acc + sum(json.loads(_REFERENCE_DOC)[:10])


def round_kernel() -> float:
    """Fixed work with the four kinds of cost the sequences have, each about a
    quarter of it: interpreter-bound CSV text and arithmetic, a distance scan
    whose broadcast temporaries (20 MB) stream from memory, distance rows
    ordered with a stable argsort, and a Python loop of small numpy calls per
    query row, as in a ball quantile."""
    text = "\n".join(",".join(repr(v) for v in row) for row in _TEXT_ROWS)
    acc = 0.0
    for row in csv.reader(io.StringIO(text)):
        acc += sum(float(cell) for cell in row)
    for i in range(60000):
        acc += i * 1e-9
    d = np.sqrt(((_SCAN_QUERIES[:, None, :] - _SCAN_POINTS[None, :, :]) ** 2).sum(axis=2))
    acc += float((d <= 1.2).sum())
    d = np.sqrt(((_SORT_QUERIES[:, None, :] - _SORT_POINTS[None, :, :]) ** 2).sum(axis=2))
    acc += float(np.argsort(d, axis=1, kind="stable")[:, 20].sum())
    values_sorted = _BALL_VALUES[_BALL_ORDER]
    for row in _BALL_DISTANCES:
        vals = values_sorted[(row <= 0.2)[_BALL_ORDER]]
        acc += float(vals[np.minimum((GRID.levels * vals.shape[0]).astype(int), vals.shape[0] - 1)].sum())
    return acc


def _time_round_kernel(times: int) -> list[float]:
    runs = []
    for _ in range(times):
        t0 = time.perf_counter()
        round_kernel()
        runs.append(time.perf_counter() - t0)
    return runs


def _answer(model, x, run: Run):
    """One predict_interval call: (interval or None if it failed, nanoseconds)."""
    t0 = time.perf_counter_ns()
    try:
        interval = model.predict_interval(x, ALPHA)
    except Exception as exc:  # a service keeps answering; the failure is counted
        interval = None
        run.failed += 1
        run.errors.append(repr(exc))
    return interval, time.perf_counter_ns() - t0


class Service:
    """A closed loop of single predict_interval calls from one caller, cycling
    through the held-out rows, with set-up samples (load the saved document,
    answer once) spread evenly through each serving window and a run of the
    reference kernel every REFERENCE_EVERY_S."""

    def __init__(self, xs, run: Run):
        self.xs = xs
        self.run = run
        self.rows, self.intervals, self.latencies_ns = [], [], []
        self.windows = []  # (call latencies ns, reference runs s), per LATENCY_WINDOW_S
        self.setup_s = []
        self.reference_s = []

    def serve(self, model, model_path: Path, seconds: float, setups: int) -> None:
        start = time.perf_counter()
        due = [start + (j + 0.5) * seconds / setups for j in range(setups)]
        window, references = [], []
        window_end, reference_due = start + LATENCY_WINDOW_S, start
        while time.perf_counter() < start + seconds or due:
            now = time.perf_counter()
            if now >= window_end:
                self.windows.append((window, references))
                window, references = [], []
                window_end = now + LATENCY_WINDOW_S
            if now >= reference_due:
                reference_kernel()
                references.append(time.perf_counter() - now)
                self.reference_s.append(references[-1])
                reference_due = now + REFERENCE_EVERY_S
                continue
            if due and now >= due[0]:
                due.pop(0)
                qc.load_model(model_path).predict_interval(self.xs[0], ALPHA)
                self.setup_s.append(time.perf_counter() - now)
                self.run.attempted += 1
                continue
            row = len(self.rows) % self.xs.shape[0]
            interval, ns = _answer(model, self.xs[row], self.run)
            self.rows.append(row)
            self.intervals.append(interval)
            self.latencies_ns.append(ns)
            window.append(ns)
            self.run.attempted += 1
        self.windows.append((window, references))


def measure(name: str, seed: int, seconds: int, trace: bool, workdir: Path, trace_path: Path) -> Run:
    run = Run()
    workload = WORKLOADS[name](seed, workdir)
    workload.warm_up()
    if trace:
        seq = workload.sequence("run")
        run.attempted += seq.steps
        seq.loaded = seq.loaded or qc.load_model(seq.model_path)
        rows, intervals = _traced(workload, seq, run, trace_path)
        workload.check(seq, rows, intervals, run)
        return run

    # On a shared host, neighbours slow a process in bursts (a single 0.4 s
    # pure-Python phase varies by a quarter from one second to the next,
    # measured on a 2-vCPU KVM guest) and in stretches of minutes, during
    # which a whole run is 20 to 80 % slower. So every timing is a mean or
    # median over rounds, windows or samples spread through the run, divided
    # by the host slowdown measured over the same stretch of time with a
    # fixed kernel. The sequence timings take the mean over the rounds (and
    # over the workload's extra calls of its phases that take under about a
    # second), over the mean of the round_kernel() runs on either side; a
    # LATENCY_WINDOW_S window of calls is scaled by the reference_kernel()
    # runs inside it (one every REFERENCE_EVERY_S), and the set-up samples,
    # spread through the serving, by all the run's reference_kernel() runs.
    seqs, round_kernel_s = [], []
    phase_s = {"calibrate": [], "predict": []}
    service = Service(workload.held_out, run)
    end = time.perf_counter() + seconds
    while len(seqs) < MIN_ROUNDS or time.perf_counter() < end:
        round_kernel_s += _time_round_kernel(ROUND_KERNEL_RUNS)
        seq = workload.sequence(f"round{len(seqs)}")
        phase_s["calibrate"].append(seq.calibrate_s)
        phase_s["predict"].append(seq.predict_s)
        for phase, times in workload.repeats.items():
            phase_s[phase] += [workload.repeat(seq, phase) for _ in range(times)]
            run.attempted += times
        round_kernel_s += _time_round_kernel(ROUND_KERNEL_RUNS)
        run.attempted += seq.steps
        seq.loaded = seq.loaded or qc.load_model(seq.model_path)
        if seqs:  # only the last round's models and outputs are checked
            seqs[-1].model = seqs[-1].loaded = seqs[-1].preds = None
        seqs.append(seq)
        service.serve(seq.loaded, seq.model_path, SERVING_SHARE * seq.pipeline_s, SETUPS_PER_ROUND)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latency_ms = np.array(service.latencies_ns) / 1e6
    windows = [(w, r) for w, r in service.windows if len(w) >= MIN_WINDOW_CALLS and r]
    windows = windows or [(service.latencies_ns, service.reference_s)]
    slowdown = statistics.median(service.reference_s) / REFERENCE_NOMINAL_S
    round_slowdown = statistics.fmean(round_kernel_s) / ROUND_NOMINAL_S
    raw = {
        "setup_s": statistics.median(service.setup_s),
        "calibrate_s": statistics.fmean(phase_s["calibrate"]),
        "predict_s": statistics.fmean(phase_s["predict"]),
        "pipeline_s": statistics.fmean(s.pipeline_s for s in seqs),
    }
    scaled_p50_ms = REFERENCE_NOMINAL_S * 1e-6 * statistics.median(
        statistics.median(w) / statistics.median(r) for w, r in windows
    )
    seq = seqs[-1]
    run.metrics = {
        "setup_s": (raw["setup_s"] / slowdown, "s"),
        "calibrate_s": (raw["calibrate_s"] / round_slowdown, "s"),
        "predict_rows_per_s": (seq.rows * round_slowdown / raw["predict_s"], "rows/s"),
        "interval_p50_ms": (scaled_p50_ms, "ms"),
        "pipeline_s": (raw["pipeline_s"] / round_slowdown, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "check_score": (seq.check_score, "loss"),
    }
    run.reference["host_slowdown"] = (slowdown, f"x, over {len(service.reference_s)} reference runs")
    run.reference["round_slowdown"] = (round_slowdown, f"x, over {len(seqs)} rounds")
    for name, value in raw.items():
        run.reference[f"unscaled_{name}"] = (value, "s")
    run.reference["unscaled_interval_p50_ms"] = (float(np.median(latency_ms)), "ms")
    run.reference["interval_p99_ms"] = (
        float(np.quantile(latency_ms, 0.99)),
        f"ms over {latency_ms.size} calls",
    )
    run.reference["mace"] = (seq.mace, "abs. error")
    run.check(
        "rounds agree",
        None
        if all(s.fingerprint == seq.fingerprint for s in seqs)
        else "the rounds' predictions differ",
    )
    workload.check(seq, service.rows, service.intervals, run)
    return run


def _traced(workload, seq: Sequence, run: Run, trace_path: Path):
    """Second pass of the sequence and a short serving phase, both traced."""
    tracer = Tracer()
    tracer.install()
    try:
        tracer.phase = "pipeline"
        traced = workload.sequence("traced")
        tracer.phase = "scalar"
        model = traced.loaded or qc.load_model(traced.model_path)
        rows = _sample_rows(workload.seed, workload.held_out.shape[0])[:TRACED_CALLS]
        intervals = [_answer(model, workload.held_out[row], run)[0] for row in rows]
        run.attempted += len(rows)
    finally:
        tracer.uninstall()
    run.attempted += traced.steps
    run.check(
        "traced pass output",
        None if traced.fingerprint == seq.fingerprint else "differs from the untraced pass",
    )
    run.metrics = layer_metrics(tracer.spans)
    run.metrics["calibration.model_bytes"] = (os.path.getsize(traced.model_path), "bytes")
    run.metrics["trace.overhead_s"] = (traced.pipeline_s - seq.pipeline_s, "s")
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": [s.to_dict() for s in tracer.spans]}, fh)
    return rows, intervals
