"""Independent checks of what the program returned.

Each check recomputes a result without the library's code paths (plain numpy,
or the slow oracle ``qcalib.reference.sorted_left_quantile``) or tests a
property the method guarantees. It returns None on success, or a message
naming the first disagreement. ``selftest.py`` feeds every check an output
shifted by one rank, one ulp or one row and requires it to fail.
"""

from __future__ import annotations

import math

import numpy as np
from qcalib.reference import sorted_left_quantile

# a stored point this close to a ball's edge (relative to the radius) could
# fall on either side through rounding alone, so its query is not compared
EDGE_RTOL = 1e-9


def split_rows(n: int, seed: int, fraction: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """Fit and calibration rows by the documented split rule: the fit part is
    the first round-half-up(fraction * n) rows of a default_rng(seed)
    permutation, the calibration part the rest."""
    n_first = min(max(math.floor(fraction * n + 0.5), 1), n - 1)
    perm = np.random.default_rng(seed).permutation(n)
    return perm[:n_first], perm[n_first:]


def ball_coordinates(xs, means, stddevs, selected) -> np.ndarray:
    """Standardize with stored column statistics, then keep the selected columns."""
    stddevs = np.asarray(stddevs)
    z = (np.asarray(xs, dtype=float) - means) / np.where(stddevs > 0, stddevs, 1.0)
    z[:, stddevs == 0] = 0.0
    return z if selected is None else z[:, list(selected)]


def ball_quantiles(points, values, bandwidth, min_neighbors, queries, levels, got):
    """Left quantiles of the values inside each query's ball, widened to the
    ``min_neighbors`` nearest when short, must equal ``got`` exactly.

    Returns (message or None, number of queries left out because a stored
    point lies within rounding of the ball's edge).
    """
    k = min(min_neighbors, points.shape[0])
    excluded = 0
    for i, z in enumerate(queries):
        diff = points - z
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        near_edge = np.abs(dist - bandwidth) <= EDGE_RTOL * bandwidth
        inside = dist <= bandwidth
        if np.count_nonzero(inside) < k:
            radius = np.partition(dist, k - 1)[k - 1]
            near_edge |= (np.abs(dist - radius) <= EDGE_RTOL * radius) & (dist != radius)
            inside = dist <= radius
        if near_edge.any():
            excluded += 1
            continue
        members = values[inside].tolist()
        for j, tau in enumerate(levels):
            want = sorted_left_quantile(members, tau)
            if got[i, j] != want:
                return (
                    f"ball quantile of query {i} at level {tau}: program {float(got[i, j])!r}, "
                    f"recomputed {want!r}",
                    excluded,
                )
    return None, excluded


def knn_predictions(train_x, train_y, k, queries, got, atol=1e-12):
    """Mean target of the k nearest training rows, ordered by (distance, index)."""
    index = np.arange(train_x.shape[0])
    for i, q in enumerate(queries):
        dist = np.sqrt(((train_x - q) ** 2).sum(axis=1))
        want = train_y[np.lexsort((index, dist))[:k]].mean()
        if not abs(got[i] - want) <= atol:
            return f"kNN prediction {i}: program {float(got[i])!r}, brute force {float(want)!r}"
    return None


def knn_means(train_x, train_y, k, queries, block=256) -> np.ndarray:
    """kNN means by partial sort, for the baseline only: a tie at the k-th
    distance may resolve either way."""
    out = np.empty(queries.shape[0])
    for start in range(0, queries.shape[0], block):
        chunk = queries[start : start + block]
        d2 = ((chunk[:, None, :] - train_x[None, :, :]) ** 2).sum(axis=2)
        nearest = np.argpartition(d2, k - 1, axis=1)[:, :k]
        out[start : start + chunk.shape[0]] = train_y[nearest].mean(axis=1)
    return out


def lstsq_coefficients(fit_x, fit_y) -> np.ndarray:
    """Intercept-first least-squares coefficients."""
    design = np.column_stack([np.ones(fit_y.shape[0]), fit_x])
    return np.linalg.lstsq(design, fit_y, rcond=None)[0]


def ols_coefficients(fit_x, fit_y, got, atol=1e-8):
    """Stored OLS coefficients must match ``np.linalg.lstsq`` on the fit rows."""
    want = lstsq_coefficients(fit_x, fit_y)
    got = np.asarray(got, dtype=float)
    if got.shape != want.shape:
        return f"OLS coefficients: program has {got.shape[0]}, expected {want.shape[0]}"
    worst = int(np.argmax(np.abs(got - want)))
    if not abs(got[worst] - want[worst]) <= atol:
        return f"OLS coefficient {worst}: program {float(got[worst])!r}, lstsq {float(want[worst])!r}"
    return None


def nondecreasing_rows(preds):
    """Every prediction row is finite and nondecreasing in tau."""
    preds = np.asarray(preds, dtype=float)
    if not np.isfinite(preds).all():
        return "prediction matrix holds a non-finite value"
    bad = np.argwhere(np.diff(preds, axis=1) < 0)
    if bad.size:
        row, col = bad[0]
        return f"prediction row {row} decreases between levels {col} and {col + 1}"
    return None


def intervals_match(intervals, rows, batch_lo, batch_hi, atol=0.0):
    """Each (lo, hi) from a single predict_interval call equals the batch
    output for its row, exactly or with ``atol`` > 0 to within ``atol``;
    failed calls (None) are skipped.

    Returns (message or None, number of calls that differ in any bit).
    """
    differ = 0
    for i, (row, interval) in enumerate(zip(rows, intervals)):
        if interval is None:
            continue
        gaps = (abs(interval[0] - batch_lo[row]), abs(interval[1] - batch_hi[row]))
        if max(gaps) == 0.0:
            continue
        differ += 1
        if max(gaps) > atol:
            return (
                f"interval call {i} (row {row}): {tuple(float(v) for v in interval)!r} vs batch "
                f"({float(batch_lo[row])!r}, {float(batch_hi[row])!r})",
                differ,
            )
    return None, differ


def bit_identical(a, b, what: str):
    """Two prediction arrays agree in every bit."""
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    if a.shape != b.shape:
        return f"{what}: shapes {a.shape} and {b.shape}"
    if a.tobytes() != b.tobytes():
        first = np.argwhere(a.view(np.uint64) != b.view(np.uint64))[0]
        return f"{what}: first difference at {tuple(int(i) for i in first)}"
    return None


def within(a, b, atol: float, what: str):
    """Two arrays of equal shape agree to within ``atol``.

    Returns (message or None, number of entries that differ in any bit).
    """
    gap = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    differ = int(np.count_nonzero(gap))
    if not gap.max(initial=0.0) <= atol:
        return f"{what}: differ by up to {float(gap.max())!r}", differ
    return None, differ


def recomputed_metrics(preds, targets, levels) -> tuple[float, float]:
    """(MACE, CheckScore) recomputed from the prediction matrix."""
    targets = np.asarray(targets, dtype=float)[:, None]
    mace = float(np.mean(np.abs((targets <= preds).mean(axis=0) - levels)))
    err = targets - preds
    check = float(np.mean(np.maximum(levels * err, (levels - 1.0) * err)))
    return mace, check


def metrics_agree(preds, targets, levels, mace_got, check_got, atol=1e-12):
    """Reported MACE and CheckScore match a recomputation to ``atol``."""
    mace, check = recomputed_metrics(preds, targets, levels)
    if not abs(mace - mace_got) <= atol:
        return f"MACE: program {mace_got!r}, recomputed {mace!r}"
    if not abs(check - check_got) <= atol:
        return f"CheckScore: program {check_got!r}, recomputed {check!r}"
    return None


def marginal_check_score(base, residuals, targets, levels) -> float:
    """CheckScore of the marginal baseline: base prediction plus the left
    quantile of all stored residuals."""
    values = np.asarray(residuals, dtype=float).tolist()
    shift = np.array([sorted_left_quantile(values, tau) for tau in levels])
    return recomputed_metrics(np.asarray(base)[:, None] + shift[None, :], targets, levels)[1]


def beats_marginal(check_score, marginal, slack=0.0):
    """The calibrated CheckScore lies below the marginal baseline's, or with
    ``slack`` > 0 exceeds it by less than that share."""
    if check_score < marginal * (1.0 + slack):
        return None
    limit = "below" if slack == 0 else f"within {slack:.0%} of"
    return f"CheckScore {check_score!r} is not {limit} the marginal baseline's {marginal!r}"
