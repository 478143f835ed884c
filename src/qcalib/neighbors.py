"""Blocked Euclidean neighbor queries: many queries against stored points.

Every distance the package uses is computed here, one way: difference,
square, sum over coordinates, square root. Balls, kNN order and the pairwise
distances of the bandwidth grid (:func:`pair_distances`) all round alike.

Queries go in row blocks of at most ``_BLOCK_BUDGET`` query-coordinate-point
entries (rows × n × d), a size that keeps a block's work in cache. A block
never holds a ``(rows, n, d)`` difference array: each coordinate's squared
differences are added into ``(rows, n)`` accumulators, read from the points'
coordinate rows. Points stored column-major make those rows a view, so the
estimator, the kNN regressor and cross-validation keep theirs that way. The
additions follow numpy's own pairwise order for a sum over a contiguous last
axis, so every distance equals ``sqrt(((q - p) ** 2).sum(axis=-1))`` bit for
bit; ``tests/test_neighbors.py`` checks this, so a numpy that changes that
order fails there. Each block's arrays are dropped before the next is built,
and per-pair distances do not depend on the block size.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

__all__ = ["block_balls", "k_nearest", "pair_distances"]

# rows × n × d entries per block; 125 k to 1 M ran alike, 8 M up to 1.8x slower
_BLOCK_BUDGET = 500_000
# numpy's pairwise summation: 8 accumulators up to this many terms, halves above
_PAIRWISE_BLOCK = 128


def _squares(queries: np.ndarray, cols: np.ndarray, j: int, out=None) -> np.ndarray:
    """(rows, n) squared differences along coordinate ``j``."""
    out = np.subtract(queries[:, j, None], cols[j], out=out)
    return np.square(out, out=out)


def _square_sum(queries: np.ndarray, cols: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Sum of the squared differences along coordinates ``lo:hi``, added in
    the order of numpy's ``pairwise_sum`` over a contiguous axis."""
    count = hi - lo
    if count > _PAIRWISE_BLOCK:
        half = count // 2 - count // 2 % 8
        acc = _square_sum(queries, cols, lo, lo + half)
        acc += _square_sum(queries, cols, lo + half, hi)
        return acc
    if count == 0:  # zero-width points: every distance is 0
        return np.zeros((queries.shape[0], cols.shape[1]))
    tmp = None
    if count < 8:
        acc, rest = _squares(queries, cols, lo), range(lo + 1, hi)
    else:
        r = [_squares(queries, cols, j) for j in range(lo, lo + 8)]
        tail = hi - count % 8
        for j in range(lo + 8, tail):
            tmp = _squares(queries, cols, j, tmp)
            r[(j - lo) % 8] += tmp
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
            r[a] += r[b]
        acc, rest = r[0], range(tail, hi)
        del r
    for j in rest:
        tmp = _squares(queries, cols, j, tmp)
        acc += tmp
    return acc


def _distance_blocks(queries: np.ndarray, points: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    n, d = points.shape
    rows = max(1, _BLOCK_BUDGET // max(1, n * d))
    cols = np.ascontiguousarray(points.T)  # a view of column-major points
    for start in range(0, queries.shape[0], rows):
        dists = _square_sum(queries[start : start + rows], cols, 0, d)
        yield start, np.sqrt(dists, out=dists)
        del dists


def pair_distances(points: np.ndarray) -> np.ndarray:
    """Distances of all row pairs i < j, ordered by i then j, each equal to
    ``sqrt(((points[i] - points[j]) ** 2).sum())`` bit for bit; a row block
    is summed against the points after its first row, in the same budget."""
    m, d = points.shape
    rows = max(1, _BLOCK_BUDGET // max(1, m * d))
    cols = np.ascontiguousarray(points.T)
    out = np.empty(m * (m - 1) // 2)
    filled = 0
    for start in range(0, m, rows):
        block = _square_sum(points[start : start + rows], cols[:, start + 1 :], 0, d)
        # row start + r keeps its pairs with the points after it: columns r on
        upper = block[np.arange(block.shape[1]) >= np.arange(block.shape[0])[:, None]]
        del block
        np.sqrt(upper, out=out[filled : filled + upper.shape[0]])
        filled += upper.shape[0]
    return out


def _k_smallest(dists: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k smallest entries, ordered by (value, index)."""
    part = np.argpartition(dists, k - 1, axis=1)[:, :k]
    kth = np.take_along_axis(dists, part[:, k - 1 :], axis=1)
    # where more than k entries lie at or below the k-th value, argpartition
    # keeps an arbitrary subset of the ties; such rows (and rows of NaN
    # distances, where none do) take the stable sort's choice instead
    redo = np.flatnonzero(np.count_nonzero(dists <= kth, axis=1) != k)
    if redo.size:
        part[redo] = np.argsort(dists[redo], axis=1, kind="stable")[:, :k]
    near = np.take_along_axis(dists, part, axis=1)
    return np.take_along_axis(part, np.lexsort((part, near), axis=1), axis=1)


def k_nearest(queries: np.ndarray, points: np.ndarray, k: int) -> np.ndarray:
    """(n_queries, k) indices of the k nearest stored points, the first k
    columns of a stable argsort of each distance row."""
    out = np.empty((queries.shape[0], k), dtype=np.intp)
    for start, dists in _distance_blocks(queries, points):
        out[start : start + dists.shape[0]] = _k_smallest(dists, k)
        del dists
    return out


def block_balls(dists: np.ndarray, radius: float, min_count: int) -> tuple[np.ndarray, ...]:
    """``(counts, radii, members)`` of one distance block's balls: each row's
    points within ``radius``, boundary included, or within its ``min_count``-th
    (capped at n) nearest distance where fewer; members row after row, ascending."""
    k = min(min_count, dists.shape[1])
    inside = dists <= radius
    counts = inside.sum(axis=1)
    radii = np.empty(counts.shape[0])
    radii.fill(radius)
    short = (counts < k).nonzero()[0]
    if short.size:
        near = dists[short]
        radii[short] = np.partition(near, k - 1, axis=1)[:, k - 1]
        inside[short] = near <= radii[short, None]
        counts[short] = inside[short].sum(axis=1)
        del near
    # flat positions, then point indices; cheaper than a 2-d nonzero
    members = inside.ravel().nonzero()[0]
    members %= dists.shape[1]
    return counts, radii, members
