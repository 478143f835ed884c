"""Conditional quantile estimation from stored samples.

A fitted estimator keeps its calibration points and values verbatim. For a
query x it collects the points whose Euclidean distance to x is at most the
configured bandwidth (inclusive), widening the radius to the nearest
``min_neighbors`` points when the ball holds fewer, and returns the left
quantile of the values attached to those points: the smallest stored value
whose empirical CDF weight reaches the requested level. That element is also
the smallest minimizer of the neighborhood's average pinball loss, which is
what makes the closed form valid.

Distance blocks from :mod:`qcalib.neighbors` run over the points in value
order (sorted once, at construction); one step turns a block into quantiles:
balls, then ranks, then values. Single-query methods are batches of one.

Bandwidth selection is K-fold cross-validation of the pinball loss over a
candidate grid drawn from the quantiles of pairwise inter-point distances,
computed by the kernel's pair pass. Each fold makes one distance pass from
its held-out rows to its kept points, and every candidate takes its
quantiles from the same blocks, through the estimator's own step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import neighbors
from .data import _query_rows, _sample
from .metrics import TauGrid, default_tau_grid, pinball_loss

__all__ = [
    "BandwidthSearch",
    "KernelConfig",
    "LocalNeighborhood",
    "QuantileEstimator",
    "bandwidth_cv_scores",
    "select_bandwidth",
]


def _left_quantile_ranks(counts: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """(len(counts), len(levels)) 0-based ranks of the left quantiles.

    For m sorted values: the smallest k with (k + 1) / m >= tau in floating
    point, as a search of the cumulative fractions finds it. c = ceil(tau * m)
    can be one off either way (0.14 * 50 rounds past 7), so the 1-based rank
    is c - 1 plus one for each of (c - 1) / m and c / m still short of tau.
    """
    m = counts.astype(float)[:, None]
    c = np.ceil(levels * m)
    return (c - 2.0 + ((c - 1.0) / m < levels) + (c / m < levels)).astype(np.intp)


def _ball_quantiles(
    dists: np.ndarray, values: np.ndarray, kernel: KernelConfig, levels: np.ndarray
) -> np.ndarray:
    """(rows, len(levels)) left quantiles over one distance block's balls, for
    points and ``values`` in value order, so a quantile is a rank lookup."""
    counts, _, members = neighbors.block_balls(dists, kernel.bandwidth, kernel.min_neighbors)
    first = counts.cumsum() - counts
    return values[members[_left_quantile_ranks(counts, levels) + first[:, None]]]


def _by_value(points: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points and values in stable value order, the points column-major so the
    kernel reads their coordinate rows without a copy."""
    order = np.argsort(values, kind="stable")
    return np.asfortranarray(points[order]), values[order]


@dataclass(frozen=True)
class KernelConfig:
    """Hard-threshold distance kernel: weight 1 within ``bandwidth``, else 0.

    ``bandwidth`` may be ``math.inf``, which turns the estimator into the
    marginal quantile of all stored values. When a query's ball holds fewer
    than ``min_neighbors`` points, the radius widens to the distance of the
    ``min_neighbors``-th nearest point.
    """

    bandwidth: float
    min_neighbors: int = 1

    def __post_init__(self) -> None:
        if math.isnan(self.bandwidth) or self.bandwidth < 0:
            raise ValueError(f"bandwidth must be nonnegative, got {self.bandwidth}")
        if self.min_neighbors < 1:
            raise ValueError(f"min_neighbors must be at least 1, got {self.min_neighbors}")


@dataclass(frozen=True)
class LocalNeighborhood:
    """Stored-point indices within ``effective_h`` of a query."""

    indices: np.ndarray
    effective_h: float


@dataclass(frozen=True)
class QuantileEstimator:
    """Stored calibration sample plus its kernel; see the module docstring.

    ``points`` and ``values`` stay verbatim; a private copy of both in stable
    value order, never serialized, is what the kernel scans for quantiles.
    Both keep their points column-major.
    """

    points: np.ndarray  # (n, d)
    values: np.ndarray  # (n,)
    kernel: KernelConfig

    def __post_init__(self) -> None:
        points, values = _sample(
            np.array(self.points, dtype=float, order="F"), np.array(self.values, dtype=float)
        )
        points.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "values", values)
        points_by_value, values_by_value = _by_value(points, values)
        object.__setattr__(self, "_points_by_value", points_by_value)
        object.__setattr__(self, "_values_by_value", values_by_value)

    @classmethod
    def fit(cls, points, values, kernel: KernelConfig) -> "QuantileEstimator":
        """Store the sample verbatim; the only precomputation is the value order."""
        return cls(points, values, kernel)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def neighborhood(self, x) -> LocalNeighborhood:
        """Indices of stored points within the bandwidth of x (boundary included).

        If fewer than ``min_neighbors`` qualify, the radius grows to the
        ``min_neighbors``-th nearest distance, so the result is never empty.
        Indices ascend.
        """
        xs = _query_rows(np.asarray(x, dtype=float).reshape(1, -1), self.dim)
        kernel = self.kernel
        _, dists = next(neighbors._distance_blocks(xs, self.points))
        _, radii, members = neighbors.block_balls(dists, kernel.bandwidth, kernel.min_neighbors)
        return LocalNeighborhood(members, float(radii[0]))

    def predict_quantile(self, x, tau: float) -> float:
        """Left tau-quantile of the values in x's neighborhood."""
        row = np.asarray(x, dtype=float).reshape(1, -1)
        return float(self.predict_quantile_batch(row, [tau])[0, 0])

    def predict_quantile_batch(self, xs, taus) -> np.ndarray:
        """Quantiles for many queries over an increasing level grid.

        Returns an (n_queries, n_levels) matrix; each row is nondecreasing
        left to right and agrees elementwise with ``predict_quantile``.
        A :class:`TauGrid` is taken as already validated.
        """
        levels = taus.levels if isinstance(taus, TauGrid) else TauGrid(taus).levels
        xs = _query_rows(xs, self.dim)
        out = np.empty((xs.shape[0], levels.shape[0]))
        for start, dists in neighbors._distance_blocks(xs, self._points_by_value):
            quantiles = _ball_quantiles(dists, self._values_by_value, self.kernel, levels)
            out[start : start + dists.shape[0]] = quantiles
            del dists  # before the next block is built
        return out


@dataclass(frozen=True)
class BandwidthSearch:
    """Cross-validation plan for choosing the kernel bandwidth.

    With no explicit candidates the grid is the {0.05, 0.1, 0.2, 0.4, 0.6,
    0.8} quantiles of pairwise inter-point distances (a seeded 2000-row
    subsample stands in when the data is larger). A positive
    ``lipschitz_hint`` L appends the rate-rule candidate
    ``L**(2/(d+2)) * n**(-1/(d+2))`` with unit constant; cross-validation
    still makes the final call.
    """

    candidates: tuple[float, ...] | None = None
    folds: int = 5
    tau_grid: TauGrid | None = None
    seed: int = 0
    lipschitz_hint: float | None = None

    def __post_init__(self) -> None:
        if self.folds < 2:
            raise ValueError(f"need at least 2 folds, got {self.folds}")
        if self.candidates is not None:
            cand = tuple(float(c) for c in self.candidates)
            if len(cand) == 0:
                raise ValueError("empty candidate grid")
            if any(c <= 0 or not math.isfinite(c) for c in cand):
                raise ValueError("candidates must be positive and finite")
            if any(b <= a for a, b in zip(cand, cand[1:])):
                raise ValueError("candidates must be strictly increasing")
            object.__setattr__(self, "candidates", cand)
        if self.lipschitz_hint is not None and self.lipschitz_hint < 0:
            raise ValueError("lipschitz_hint must be nonnegative")


_DISTANCE_QUANTILES = (0.05, 0.1, 0.2, 0.4, 0.6, 0.8)
_PAIRWISE_CAP = 2000


def _pairwise_distance_candidates(points: np.ndarray, seed: int) -> np.ndarray:
    n = points.shape[0]
    if n > _PAIRWISE_CAP:
        points = points[np.random.default_rng([seed, 1]).choice(n, _PAIRWISE_CAP, replace=False)]
    dists = neighbors.pair_distances(points)
    dists = dists[dists > 0]
    if dists.size == 0:
        raise ValueError("all pairwise distances are zero; candidate grid undefined")
    return np.unique(np.quantile(dists, _DISTANCE_QUANTILES))


def _resolve_candidates(points: np.ndarray, search: BandwidthSearch) -> np.ndarray:
    if search.candidates is not None:
        cand = np.asarray(search.candidates, dtype=float)
    else:
        cand = _pairwise_distance_candidates(points, search.seed)
    if search.lipschitz_hint is not None and search.lipschitz_hint > 0:
        n, d = points.shape
        rate = search.lipschitz_hint ** (2.0 / (d + 2)) * n ** (-1.0 / (d + 2))
        cand = np.unique(np.append(cand, rate))
    return cand


def _cv_folds(n: int, folds: int, seed: int) -> list[np.ndarray]:
    perm = np.random.default_rng(seed).permutation(n)
    return np.array_split(perm, folds)


def bandwidth_cv_scores(points, values, search: BandwidthSearch) -> tuple[np.ndarray, np.ndarray]:
    """Candidate bandwidths and their fold-averaged pinball losses.

    Folds come from ``array_split`` of a ``default_rng(seed)`` permutation.
    Each fold is predicted from the remaining points as an estimator with
    ``min_neighbors=1`` would predict it (an empty ball widens to the nearest
    point), scored by the mean pinball loss over the fold's rows and the level
    grid, and the candidate score is the unweighted mean over folds. A fold
    makes one pass of distance blocks, shared by all candidates, and holds
    only its candidates × rows × levels predictions.
    """
    points, values = _sample(points, values)
    n = values.shape[0]
    if n < search.folds:
        raise ValueError(f"{n} points cannot fill {search.folds} folds")
    levels = (search.tau_grid or default_tau_grid()).levels
    candidates = _resolve_candidates(points, search)
    kernels = [KernelConfig(float(h)) for h in candidates]

    fold_losses = np.empty((candidates.shape[0], search.folds))
    for fi, held_out in enumerate(_cv_folds(n, search.folds, search.seed)):
        mask = np.ones(n, dtype=bool)
        mask[held_out] = False
        kept_points, kept_values = _by_value(points[mask], values[mask])
        preds = np.empty((candidates.shape[0], held_out.shape[0], levels.shape[0]))
        for start, dists in neighbors._distance_blocks(points[held_out], kept_points):
            rows = slice(start, start + dists.shape[0])
            for ci, kernel in enumerate(kernels):
                preds[ci, rows] = _ball_quantiles(dists, kept_values, kernel, levels)
            del dists  # before the next block is built
        observed = values[held_out][:, None]
        for ci, fold_preds in enumerate(preds):
            fold_losses[ci, fi] = pinball_loss(fold_preds, observed, levels[None, :]).mean()
    return candidates, fold_losses.mean(axis=1)


def _cv_winner(candidates: np.ndarray, scores: np.ndarray) -> float:
    """The candidate of lowest score; candidates ascend, so ties go to the larger."""
    return float(candidates[scores.shape[0] - 1 - np.argmin(scores[::-1])])


def select_bandwidth(points, values, search: BandwidthSearch | None = None) -> float:
    """Cross-validated bandwidth; ties go to the larger candidate."""
    return _cv_winner(*bandwidth_cv_scores(points, values, search or BandwidthSearch()))
