"""Scoring and calibration diagnostics for quantile predictions.

Most functions take an (n, M) matrix of predicted quantiles whose columns
follow a strictly increasing grid of levels, plus the n observed targets.
Coverage is inclusive: a target exactly equal to its predicted quantile
counts as covered.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass

import numpy as np

__all__ = [
    "AgceConfig",
    "GroupCoverageTable",
    "MetricReport",
    "TauGrid",
    "agce",
    "check_score",
    "default_tau_grid",
    "evaluate_predictions",
    "group_coverage",
    "mace",
    "observed_level",
    "observed_levels",
    "pinball_loss",
    "report_to_dict",
    "subsample_indices",
    "write_tau_curve_csv",
]


@dataclass(frozen=True)
class TauGrid:
    """Strictly increasing quantile levels, all inside the open unit interval."""

    levels: np.ndarray

    def __post_init__(self) -> None:
        levels = np.array(self.levels, dtype=float, copy=True).ravel()
        # plain Python checks: grids are short, and a one- or two-level grid
        # is built on every single-query call
        values = levels.tolist()
        if not values:
            raise ValueError("tau grid is empty")
        if not all(0.0 < v < 1.0 for v in values):
            raise ValueError("quantile levels must lie strictly inside (0, 1)")
        if not all(a < b for a, b in zip(values, values[1:])):
            raise ValueError("quantile levels must be strictly increasing")
        levels.setflags(write=False)
        object.__setattr__(self, "levels", levels)

    def __len__(self) -> int:
        return int(self.levels.size)


def _interval_levels(alpha: float) -> TauGrid:
    """The levels alpha/2 and 1 - alpha/2 of a central (1 - alpha) interval."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    return TauGrid([alpha / 2.0, 1.0 - alpha / 2.0])


def default_tau_grid() -> TauGrid:
    """The standard evaluation grid: 99 levels 0.01, 0.02, ..., 0.99."""
    return TauGrid(np.arange(1, 100) / 100.0)


def pinball_loss(predicted, observed, tau):
    """Asymmetric quantile loss, zero only when prediction equals outcome.

    Underprediction is charged ``tau`` per unit of shortfall, overprediction
    ``1 - tau`` per unit of excess. Broadcasts over array inputs; scalars in,
    scalar out.
    """
    tau_arr = np.asarray(tau, dtype=float)
    if not ((tau_arr > 0.0).all() and (tau_arr < 1.0).all()):
        raise ValueError("tau must lie strictly inside (0, 1)")
    diff = np.asarray(predicted, dtype=float) - np.asarray(observed, dtype=float)
    loss = np.where(diff > 0.0, (1.0 - tau_arr) * diff, tau_arr * (-diff))
    if loss.ndim == 0:
        return float(loss)
    return loss


def observed_level(predictions, targets) -> float:
    """Fraction of targets at or below their predicted quantile."""
    preds = np.asarray(predictions, dtype=float).ravel()
    tgts = np.asarray(targets, dtype=float).ravel()
    if preds.size == 0:
        raise ValueError("empty prediction vector")
    if preds.shape != tgts.shape:
        raise ValueError(f"{preds.size} predictions vs {tgts.size} targets")
    return float(np.mean(tgts <= preds))


def _check_matrix(pred_matrix, targets, grid: TauGrid) -> tuple[np.ndarray, np.ndarray]:
    preds = np.asarray(pred_matrix, dtype=float)
    if preds.ndim == 1:
        preds = preds[:, None]
    tgts = np.asarray(targets, dtype=float).ravel()
    if preds.ndim != 2 or preds.shape[0] != tgts.shape[0] or preds.shape[0] == 0:
        raise ValueError("prediction matrix rows must align with targets")
    if preds.shape[1] != len(grid):
        raise ValueError(
            f"prediction matrix has {preds.shape[1]} columns, grid has {len(grid)} levels"
        )
    return preds, tgts


def observed_levels(pred_matrix, targets, grid: TauGrid) -> np.ndarray:
    """Observed coverage per grid level: column means of the indicator y <= q."""
    preds, tgts = _check_matrix(pred_matrix, targets, grid)
    return (tgts[:, None] <= preds).mean(axis=0)


def mace(pred_matrix, targets, grid: TauGrid) -> float:
    """Mean absolute calibration error over the level grid."""
    obs = observed_levels(pred_matrix, targets, grid)
    return float(np.mean(np.abs(grid.levels - obs)))


def check_score(pred_matrix, targets, grid: TauGrid) -> float:
    """Grid mean of the per-level average pinball loss."""
    preds, tgts = _check_matrix(pred_matrix, targets, grid)
    loss = pinball_loss(preds, tgts[:, None], grid.levels[None, :])
    return float(loss.mean())


@dataclass(frozen=True)
class AgceConfig:
    """Subsampling plan for the adversarial group calibration error."""

    groups: int = 20
    group_fraction: float = 0.1
    with_replacement: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.groups < 1:
            raise ValueError("need at least one group")
        if not 0.0 < self.group_fraction <= 1.0:
            raise ValueError("group_fraction must lie in (0, 1]")


def subsample_indices(n: int, cfg: AgceConfig) -> tuple[np.ndarray, ...]:
    """The seeded row subsets AGCE maximizes over; size floor(fraction * n),
    never below 50 rows (or n when the data is smaller than that)."""
    if n < 1:
        raise ValueError("empty sample")
    size = min(n, max(50, int(math.floor(cfg.group_fraction * n))))
    rng = np.random.default_rng(cfg.seed)
    groups = []
    for _ in range(cfg.groups):
        if cfg.with_replacement:
            idx = rng.integers(0, n, size=size)
        else:
            idx = rng.permutation(n)[:size]
        groups.append(idx)
    return tuple(groups)


def agce(pred_matrix, targets, grid: TauGrid, cfg: AgceConfig | None = None) -> float:
    """Adversarial group calibration error: worst MACE over seeded subsamples."""
    cfg = cfg or AgceConfig()
    preds, tgts = _check_matrix(pred_matrix, targets, grid)
    groups = subsample_indices(tgts.shape[0], cfg)
    return max(mace(preds[g], tgts[g], grid) for g in groups)


@dataclass(frozen=True)
class GroupCoverageTable:
    """Observed coverage per bin per level; one row per bin label."""

    bins: tuple
    sizes: tuple[int, ...]
    levels: np.ndarray  # (n_bins, M)


def group_coverage(pred_matrix, targets, grouping, grid: TauGrid) -> GroupCoverageTable:
    """Coverage broken out by a per-row bin assignment.

    ``grouping`` assigns every row a bin label; the table carries one row per
    distinct label (sorted), so every bin is non-empty by construction.
    """
    preds, tgts = _check_matrix(pred_matrix, targets, grid)
    labels = np.asarray(grouping).ravel()
    if labels.shape[0] != tgts.shape[0]:
        raise ValueError(f"{labels.shape[0]} bin labels for {tgts.shape[0]} rows")
    uniq = np.unique(labels)
    rows = []
    sizes = []
    for b in uniq:
        mask = labels == b
        sizes.append(int(mask.sum()))
        rows.append(observed_levels(preds[mask], tgts[mask], grid))
    return GroupCoverageTable(tuple(uniq.tolist()), tuple(sizes), np.vstack(rows))


@dataclass(frozen=True)
class MetricReport:
    """Bundle of calibration metrics plus the settings needed to rerun them."""

    mace: float
    agce: float
    check_score: float
    tau_levels: np.ndarray
    per_tau_observed: np.ndarray
    group_coverage: GroupCoverageTable | None
    agce_groups: tuple[tuple[int, ...], ...]
    config: dict


def evaluate_predictions(
    pred_matrix,
    targets,
    grid: TauGrid | None = None,
    agce_cfg: AgceConfig | None = None,
    grouping=None,
) -> MetricReport:
    """Compute MACE, AGCE, and check score in one pass and record how."""
    grid = grid or default_tau_grid()
    agce_cfg = agce_cfg or AgceConfig()
    preds, tgts = _check_matrix(pred_matrix, targets, grid)
    obs = observed_levels(preds, tgts, grid)
    mace_val = float(np.mean(np.abs(grid.levels - obs)))
    groups = subsample_indices(tgts.shape[0], agce_cfg)
    agce_val = max(mace(preds[g], tgts[g], grid) for g in groups)
    cs = check_score(preds, tgts, grid)
    table = group_coverage(preds, tgts, grouping, grid) if grouping is not None else None
    return MetricReport(
        mace=mace_val,
        agce=agce_val,
        check_score=cs,
        tau_levels=grid.levels,
        per_tau_observed=obs,
        group_coverage=table,
        agce_groups=tuple(tuple(int(i) for i in g) for g in groups),
        config={"agce": asdict(agce_cfg), "n_rows": int(tgts.shape[0])},
    )


def report_to_dict(report: MetricReport) -> dict:
    """JSON-ready view of a report; numpy arrays become lists."""
    out = {
        "mace": report.mace,
        "agce": report.agce,
        "check_score": report.check_score,
        "tau_levels": [float(t) for t in report.tau_levels],
        "per_tau_observed": [float(v) for v in report.per_tau_observed],
        "agce_groups": [list(g) for g in report.agce_groups],
        "config": report.config,
    }
    if report.group_coverage is not None:
        gc = report.group_coverage
        out["group_coverage"] = {
            "bins": [b if isinstance(b, str) else float(b) for b in gc.bins],
            "sizes": list(gc.sizes),
            "levels": [[float(v) for v in row] for row in gc.levels],
        }
    else:
        out["group_coverage"] = None
    return out


def write_tau_curve_csv(report: MetricReport, path) -> None:
    """Per-level curve (tau, observed, gap) as CSV for plotting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tau", "observed", "gap"])
        for t, o in zip(report.tau_levels, report.per_tau_observed):
            writer.writerow([repr(float(t)), repr(float(o)), repr(float(o - t))])
