"""Conditional quantile estimation from stored samples.

A fitted estimator keeps its calibration points and values verbatim. For a
query x it collects the points whose Euclidean distance to x is at most the
configured bandwidth (inclusive), widening the radius to the nearest
``min_neighbors`` points when the ball holds fewer, and returns the left
quantile of the values attached to those points: the smallest stored value
whose empirical CDF weight reaches the requested level. That element is also
the smallest minimizer of the neighborhood's average pinball loss, which is
what makes the closed form valid.

Balls come from one step of :mod:`qcalib.neighbors`,
:func:`~qcalib.neighbors.ball_blocks`, over the points in value order,
sorted once at construction into the estimator's one store; a block's balls
become quantiles as ranks, then values. Single-query methods are batches of
one, and a neighborhood is a ball of that same store, mapped back to file
order. From ``neighbors._GRAM_MIN_DIM`` (5) coordinates on, in blocks of
three or more rows (of any size from 8 coordinates on), the step decides
most pairs from a matrix product, ``|q|² + |p|² - 2 q·p``, and a rounding
band around h² that holds for any summation order; the pairs inside the band
and the rows that widen take the kernel's own distances, and a store whose
last block mostly widened takes them for its next block. So every ball, and
every quantile, is the full scan's bit for bit (the argument is in
:mod:`qcalib.neighbors`).

Bandwidth selection is K-fold cross-validation of the pinball loss over a
candidate grid drawn from the quantiles of pairwise inter-point distances.
:func:`~qcalib.neighbors.pair_sum_order` gives the number of pairs, how
many are 0 apart, and the kernel's squared distances at the ranks the grid
reads: from ``neighbors._GRAM_MIN_DIM`` coordinates on, by sorting the
pairs' Gram estimates in place and letting the kernel sum only the pairs
within two bands of each rank's estimate, which the band proves hold the
exact order statistic; below that, and past the Gram norm limit, by the
kernel's pair pass sorted in place. Zero pairs are skipped, and each level
is interpolated, as ``np.quantile`` does by default, between the square
roots of the two order statistics around it, so the grid equals
``np.quantile`` of the positive distances bit for bit. The sample is sorted
by value once; each fold keeps its points in that order (a stable sort's
subset is the stable sort of the subset), builds one store of them and makes
one pass of the ball step from its held-out rows with every candidate
radius, so all candidates read the same distance or Gram blocks, and the
kernel measures a held-out row at most once per fold.
The folds pass on their store's memory of widened blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import neighbors
from .data import _index, _query_rows, _sample
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


def _ball_quantiles(balls: tuple, values: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """(rows, len(levels)) left quantiles over one block's balls, for points
    and ``values`` in value order, so a quantile is a rank lookup."""
    counts, _, members = balls
    first = counts.cumsum() - counts
    return values[members[_left_quantile_ranks(counts, levels) + first[:, None]]]


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
        object.__setattr__(self, "min_neighbors", _index(self.min_neighbors, "min_neighbors"))
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

    ``points`` and ``values`` stay verbatim. A private store of the points
    in stable value order, the values in that order and the permutation back
    to file order, none of them serialized, are what the kernel scans.
    """

    points: np.ndarray  # (n, d)
    values: np.ndarray  # (n,)
    kernel: KernelConfig

    def __post_init__(self) -> None:
        points, values = _sample(self.points, self.values)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_order", np.argsort(values, kind="stable"))
        object.__setattr__(self, "_store", neighbors.KeySortedPoints(points[self._order]))
        object.__setattr__(self, "_values_by_value", values[self._order])

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
        balls = neighbors.ball_blocks(xs, self._store, (kernel.bandwidth,), kernel.min_neighbors)
        _, _, (_, radii, members) = next(balls)
        return LocalNeighborhood(np.sort(self._order[members]), float(radii[0]))

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
        kernel = self.kernel
        out = np.empty((xs.shape[0], levels.shape[0]))
        for rows, _, balls in neighbors.ball_blocks(
            xs, self._store, (kernel.bandwidth,), kernel.min_neighbors
        ):
            out[rows] = _ball_quantiles(balls, self._values_by_value, levels)
            del balls  # before the next block is built
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


def _grid_sample(points: np.ndarray, seed: int) -> np.ndarray:
    """The rows whose pairwise distances make the default grid: all of them,
    or a seeded ``_PAIRWISE_CAP``-row subsample of a larger sample."""
    n = points.shape[0]
    if n <= _PAIRWISE_CAP:
        return points
    return points[np.random.default_rng([seed, 1]).choice(n, _PAIRWISE_CAP, replace=False)]


def _pairwise_distance_candidates(points: np.ndarray, seed: int) -> np.ndarray:
    pairs, zeros, at = neighbors.pair_sum_order(_grid_sample(points, seed))
    n = pairs - zeros
    if n == 0:
        raise ValueError("all pairwise distances are zero; candidate grid undefined")
    # np.quantile's "linear" method over the n positive distances, whose
    # order statistics are the square roots of the sums' (sqrt is monotone)
    virtual = (n - 1) * np.asarray(_DISTANCE_QUANTILES)
    below = np.floor(virtual)
    gamma = virtual - below
    lo = zeros + below.astype(np.intp)
    roots = np.sqrt(at(np.concatenate((lo, np.minimum(lo + 1, pairs - 1)))))
    a, b = roots[: lo.shape[0]], roots[lo.shape[0] :]
    diff = b - a
    grid = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=grid, where=gamma >= 0.5)
    return np.unique(grid)


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
    radii = [KernelConfig(float(h)).bandwidth for h in candidates]  # each a valid bandwidth
    order = np.argsort(values, kind="stable")
    points_by_value, values_by_value = points[order], values[order]

    fold_losses = np.empty((candidates.shape[0], search.folds))
    widening = False
    for fi, held_out in enumerate(_cv_folds(n, search.folds, search.seed)):
        keep = np.isin(order, held_out, invert=True)  # the kept points, in value order
        kept_values = values_by_value[keep]
        preds = np.empty((candidates.shape[0], held_out.shape[0], levels.shape[0]))
        kept = neighbors.KeySortedPoints(points_by_value[keep])
        kept.widening = widening  # the folds share their traffic
        for rows, ci, balls in neighbors.ball_blocks(points[held_out], kept, radii, 1):
            preds[ci, rows] = _ball_quantiles(balls, kept_values, levels)
            del balls  # before the next block or candidate is built
        widening = kept.widening
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
