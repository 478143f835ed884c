"""Show that every check in checks.py fails on a corrupted output.

    python3 bench/selftest.py

On small generated data, each check is first given the program's true
output, which it must pass, and then the same output shifted by one rank,
one ulp or one row, which it must fail. Prints one line per check; exit code
1 if any check passes a corrupted output or fails a true one.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import qcalib as qc  # noqa: E402

import checks  # noqa: E402

GRID = qc.default_tau_grid()
SEED = 3


def _next_rank(model, x, value):
    """The member value one rank above ``value`` in x's ball."""
    z = model.transform_features(x[None, :])[0]
    members = np.sort(model.quantile_estimator.values[model.quantile_estimator.neighborhood(z).indices])
    return members[np.searchsorted(members, value, side="right")]


def main() -> int:
    train = qc.generate(qc.GeneratorSpec("sine_hetero", 2_000, seed=SEED, nuisance_dims=1))
    test = qc.generate(qc.GeneratorSpec("sine_hetero", 300, seed=SEED + 1, nuisance_dims=1))
    xs, ys = test.features, test.target
    knn = qc.calibrate(
        train,
        qc.CalibrationConfig(
            regressor=qc.RegressorSpec("knn", knn_k=10),
            split=qc.SplitSpec(0.5, seed=SEED),
            kernel=qc.KernelConfig(0.2),
            projection=qc.correlation_select(train, 1),
            seed=SEED,
        ),
    )
    ols = qc.calibrate(
        train,
        qc.CalibrationConfig(regressor=qc.RegressorSpec("ols"), split=qc.SplitSpec(0.5, seed=SEED), kernel=qc.KernelConfig(0.5)),
    )
    fit_rows, cal_rows = checks.split_rows(train.n, SEED)
    fit_x, fit_y = train.features[fit_rows], train.target[fit_rows]
    preds = knn.predict_quantile_batch(xs, GRID)
    verdicts = []

    def expect(name, on_true, on_corrupted):
        on_true = on_true[0] if isinstance(on_true, tuple) else on_true
        on_corrupted = on_corrupted[0] if isinstance(on_corrupted, tuple) else on_corrupted
        ok = on_true is None and on_corrupted is not None
        verdicts.append(ok)
        detail = on_corrupted if on_true is None else f"failed the true output: {on_true}"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")

    # ball quantiles: one value moved up one rank within its ball
    est = knn.quantile_estimator
    z = checks.ball_coordinates(xs, knn.standardizer.means, knn.standardizer.stddevs, knn.projection.selected_indices)
    got = knn.residual_quantile_batch(xs, GRID)
    bad = got.copy()
    bad[7, 50] = _next_rank(knn, xs[7], got[7, 50])
    args = (est.points, est.values, est.kernel.bandwidth, est.kernel.min_neighbors, z, GRID.levels)
    expect("ball quantiles, one rank up", checks.ball_quantiles(*args, got), checks.ball_quantiles(*args, bad))

    # kNN: the k-th neighbour swapped for the (k+1)-th in one prediction
    got = knn.predict_mean(xs)
    bad = got.copy()
    order = np.lexsort((np.arange(fit_x.shape[0]), np.sqrt(((fit_x - xs[4]) ** 2).sum(axis=1))))
    bad[4] = fit_y[np.r_[order[:9], order[10]]].mean()
    expect(
        "kNN brute force, one rank",
        checks.knn_predictions(fit_x, fit_y, 10, xs, got),
        checks.knn_predictions(fit_x, fit_y, 10, xs, bad),
    )

    # OLS: coefficients fitted on a fit part shifted by one row
    shifted = np.r_[fit_rows[1:], cal_rows[0]]
    expect(
        "OLS vs lstsq, fit rows shifted by one",
        checks.ols_coefficients(fit_x, fit_y, ols.regressor.coefficients),
        checks.ols_coefficients(fit_x, fit_y, checks.lstsq_coefficients(train.features[shifted], train.target[shifted])),
    )

    # monotone rows: two adjacent levels swapped in one row
    row = int(np.argmax(preds[:, 60] < preds[:, 61]))
    bad = preds.copy()
    bad[row, [60, 61]] = bad[row, [61, 60]]
    expect("nondecreasing in tau, one rank", checks.nondecreasing_rows(preds), checks.nondecreasing_rows(bad))

    # interval vs batch: one ulp exactly, one rank with the OLS tolerance
    lo, hi = int(np.flatnonzero(GRID.levels == 0.05)[0]), int(np.flatnonzero(GRID.levels == 0.95)[0])
    rows = list(range(50))
    intervals = [knn.predict_interval(xs[r], 0.1) for r in rows]
    bad = list(intervals)
    bad[3] = (np.nextafter(bad[3][0], np.inf), bad[3][1])
    expect(
        "interval = batch, one ulp",
        checks.intervals_match(intervals, rows, preds[:, lo], preds[:, hi]),
        checks.intervals_match(bad, rows, preds[:, lo], preds[:, hi]),
    )
    bad = list(intervals)
    base = float(knn.predict_mean(xs[3][None, :])[0])
    bad[3] = (bad[3][0], base + _next_rank(knn, xs[3], bad[3][1] - base))
    expect(
        "interval = batch within the OLS tolerance, one rank",
        checks.intervals_match(intervals, rows, preds[:, lo], preds[:, hi], 1e-12),
        checks.intervals_match(bad, rows, preds[:, lo], preds[:, hi], 1e-12),
    )

    # save/load round trip: one ulp in one prediction
    path = Path(__file__).resolve().parent / ".runs" / f"selftest-{os.getpid()}.json"
    path.parent.mkdir(exist_ok=True)
    try:
        qc.save_model(knn, path)
        reloaded = qc.load_model(path).predict_quantile_batch(xs, GRID)
    finally:
        path.unlink(missing_ok=True)
    bad = reloaded.copy()
    bad[11, 20] = np.nextafter(bad[11, 20], -np.inf)
    expect("round trip bit-identical, one ulp", checks.bit_identical(preds, reloaded, "round trip"), checks.bit_identical(preds, bad, "round trip"))

    # written predictions within tolerance: rows shifted by one
    expect(
        "predict CSV within tolerance, one row",
        checks.within(preds, preds, 1e-12, "written"),
        checks.within(np.roll(preds, 1, axis=0), preds, 1e-12, "written"),
    )

    # reported metrics: a report computed on predictions shifted by one row
    true_report = qc.evaluate_predictions(preds, ys, GRID)
    shifted_report = qc.evaluate_predictions(np.roll(preds, 1, axis=0), ys, GRID)
    expect(
        "metrics recomputed, one row",
        checks.metrics_agree(preds, ys, GRID.levels, true_report.mace, true_report.check_score),
        checks.metrics_agree(preds, ys, GRID.levels, shifted_report.mace, shifted_report.check_score),
    )

    # marginal baseline: calibrated predictions shifted by one row
    marginal = checks.marginal_check_score(knn.predict_mean(xs), est.values, ys, GRID.levels)
    expect(
        "beats marginal baseline, one row",
        checks.beats_marginal(true_report.check_score, marginal),
        checks.beats_marginal(shifted_report.check_score, marginal),
    )

    print(f"{sum(verdicts)} of {len(verdicts)} checks fail on corrupted output and pass on the true one")
    return 0 if all(verdicts) else 1


if __name__ == "__main__":
    raise SystemExit(main())
