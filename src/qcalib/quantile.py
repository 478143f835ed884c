"""Conditional quantile estimation from stored samples.

A fitted estimator keeps its calibration points and values verbatim. For a
query x it collects the points whose Euclidean distance to x is at most the
configured bandwidth (inclusive), widening the radius to the nearest
``min_neighbors`` points when the ball holds fewer, and returns the left
quantile of the values attached to those points: the smallest stored value
whose empirical CDF weight reaches the requested level. That element is also
the smallest minimizer of the neighborhood's average pinball loss, which is
what makes the closed form valid.

Balls come from :mod:`qcalib.neighbors`, run over the points in value order
(sorted once, at construction), so members arrive sorted and a quantile is a
vectorized rank lookup. The single-query methods are batches of one.

Bandwidth selection is K-fold cross-validation of the pinball loss over a
candidate grid drawn from the quantiles of pairwise inter-point distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import TauGrid, default_tau_grid, pinball_loss
from .neighbors import ball_members

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
    value order, never serialized, is what the kernel scans.
    """

    points: np.ndarray  # (n, d)
    values: np.ndarray  # (n,)
    kernel: KernelConfig

    def __post_init__(self) -> None:
        points = np.array(self.points, dtype=float, copy=True)
        if points.ndim == 1:
            points = points.reshape(-1, 1)
        values = np.array(self.values, dtype=float, copy=True).ravel()
        if points.ndim != 2 or points.shape[0] < 1:
            raise ValueError("points must form a non-empty 2-d matrix")
        if values.shape[0] != points.shape[0]:
            raise ValueError(
                f"{values.shape[0]} values for {points.shape[0]} points"
            )
        if not (np.isfinite(points).all() and np.isfinite(values).all()):
            raise ValueError("points and values must be finite")
        points.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "values", values)
        order = np.argsort(values, kind="stable")
        object.__setattr__(self, "_points_by_value", points[order])
        object.__setattr__(self, "_values_by_value", values[order])

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

    def _check_queries(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim == 1:
            xs = xs.reshape(-1, 1) if self.dim == 1 else xs.reshape(1, -1)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise ValueError(f"queries must be (n, {self.dim})")
        if not np.isfinite(xs).all():
            raise ValueError("queries must be finite")
        return xs

    def neighborhood(self, x) -> LocalNeighborhood:
        """Indices of stored points within the bandwidth of x (boundary included).

        If fewer than ``min_neighbors`` qualify, the radius grows to the
        ``min_neighbors``-th nearest distance, so the result is never empty.
        Indices ascend.
        """
        xs = self._check_queries(np.asarray(x, dtype=float).reshape(1, -1))
        kernel = self.kernel
        _, _, radii, members = next(
            ball_members(xs, self.points, kernel.bandwidth, kernel.min_neighbors)
        )
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
        xs = self._check_queries(xs)
        kernel = self.kernel
        out = np.empty((xs.shape[0], levels.shape[0]))
        for start, counts, _, members in ball_members(
            xs, self._points_by_value, kernel.bandwidth, kernel.min_neighbors
        ):
            first = counts.cumsum() - counts
            picks = members[_left_quantile_ranks(counts, levels) + first[:, None]]
            out[start : start + counts.shape[0]] = self._values_by_value[picks]
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
        rows = np.random.default_rng([seed, 1]).choice(n, _PAIRWISE_CAP, replace=False)
        sub = points[rows]
    else:
        sub = points
    sq = (sub**2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (sub @ sub.T)
    iu = np.triu_indices(sub.shape[0], k=1)
    dists = np.sqrt(np.clip(d2[iu], 0.0, None))
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
    Each fold is predicted by an estimator fitted on the remaining points
    (``min_neighbors=1`` so every query resolves), scored by the mean
    pinball loss over the fold's rows and the level grid, and the candidate
    score is the unweighted mean over folds.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    values = np.asarray(values, dtype=float).ravel()
    n = values.shape[0]
    if points.shape[0] != n:
        raise ValueError(f"{n} values for {points.shape[0]} points")
    if n < search.folds:
        raise ValueError(f"{n} points cannot fill {search.folds} folds")
    grid = search.tau_grid or default_tau_grid()
    candidates = _resolve_candidates(points, search)
    folds = _cv_folds(n, search.folds, search.seed)

    scores = np.empty(candidates.shape[0])
    for ci, h in enumerate(candidates):
        fold_losses = []
        for held_out in folds:
            mask = np.ones(n, dtype=bool)
            mask[held_out] = False
            est = QuantileEstimator.fit(
                points[mask], values[mask], KernelConfig(float(h), 1)
            )
            preds = est.predict_quantile_batch(points[held_out], grid)
            loss = pinball_loss(preds, values[held_out][:, None], grid.levels[None, :])
            fold_losses.append(float(loss.mean()))
        scores[ci] = float(np.mean(fold_losses))
    return candidates, scores


def select_bandwidth(points, values, search: BandwidthSearch | None = None) -> float:
    """Cross-validated bandwidth; ties go to the larger candidate."""
    search = search or BandwidthSearch()
    candidates, scores = bandwidth_cv_scores(points, values, search)
    best_h = float(candidates[0])
    best_score = float(scores[0])
    for h, score in zip(candidates[1:], scores[1:]):
        if score <= best_score:  # candidates ascend, so <= prefers the larger
            best_h, best_score = float(h), float(score)
    return best_h
