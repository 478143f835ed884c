"""Blocked Euclidean neighbor queries: many queries against stored points.

Every distance the package uses is computed here, one way: difference,
square, sum over coordinates, square root. Balls, kNN order and the pairwise
distances of the bandwidth grid (:func:`pair_distances`) all round alike.

Queries go in row blocks of at most ``_BLOCK_BUDGET`` query-coordinate-point
entries (rows × n × d), a size that keeps a block's work in cache. A block
never holds a ``(rows, n, d)`` difference array: each coordinate's squared
differences are added into ``(rows, n)`` accumulators, read from the points'
coordinate rows, which the store below holds. The additions follow numpy's
own pairwise order for a sum over a contiguous last axis, so every distance
equals ``sqrt(((q - p) ** 2).sum(axis=-1))`` bit for bit;
``tests/test_neighbors.py`` checks this, so a numpy that changes that order
fails there. Each block's arrays are dropped before the next is built,
and per-pair distances do not depend on the block size.

The store. A :class:`KeySortedPoints` is the one layout of a sample's points
that the kernel reads: it copies any (n, d) matrix, once, into its own
contiguous (d, n) coordinate rows, so callers keep their points in any order
and layout. The kNN regressor builds one over its training rows, the
quantile estimator one over its points in value order, and each CV fold one
over its kept points. Its key is the coordinate of largest range; the points'
stable order along it and their sorted key values are built by the first
scan that takes slabs. Nothing in a store is serialized.

Slabs. One coordinate's gap ``sqrt((q_a - p_a) ** 2)``, rounded as the kernel
rounds it, never exceeds the kernel's distance: each rounded addition of
nonnegative terms is at least each term, and the square root is monotone. So
every point within r of a query has its key within r of the query's key, and
those keys are one contiguous run of the sorted keys: the query's slab. For
kNN, r is the k-th smallest kernel distance to the query's 2k nearest points
along the key (any k points bound the k-th nearest distance from above).
:func:`_distance_blocks` sorts the queries on the key and scans each block
only against the union of its queries' slabs. The candidates keep index
order, so distance ties still go to the lower index and the k nearest come
out as from the full scan, bit for bit. The slab ends come from
``searchsorted`` on the key widened by a slack that provably covers the
rounding (see :func:`_slab_ends`); extra candidates change nothing, a
missing one would.

The full scan is the slab of every stored point, through the same code. A
block takes it when the union of its slabs holds more than
``_FULL_SCAN_SHARE`` of the store, and a call takes it when its queries fit
in one block: the sort, the bounds and the slab ends cost about 25 small
numpy calls, more than a slab saves on one block of queries (one kNN query
against 2 500 points in 5-d: 64-110 µs in a full scan, 115-180 µs through a
slab). Only calibrate's residual pass asks for slabs so far. Batch
prediction and the estimator's balls keep the full scan, because the
benchmark's serving loop cannot yet time a ``knn_d5_fixed`` sequence much
shorter than today's (see ROADMAP.md).
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property

import numpy as np

__all__ = ["KeySortedPoints", "block_balls", "k_nearest", "pair_distances"]

# rows × n × d entries per block; 125 k to 1 M ran alike, 8 M up to 1.8x slower
_BLOCK_BUDGET = 500_000
# a block scans every stored point once its slabs hold more than this share;
# a slab over half the store took 0.45-0.85 of the full block's time, one over
# 0.6-0.8 of it about the same (kNN k = 20 over 2 500 points in 5-d)
_FULL_SCAN_SHARE = 0.5
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


class KeySortedPoints:
    """Stored points for neighbor queries: ``cols``, a C-ordered (d, n) copy
    of any (n, d) matrix, so each coordinate row is contiguous. The key
    coordinate and the points' stable order along it are built when a scan
    first takes slabs, so a model that answers one query at a time never sorts."""

    def __init__(self, points: np.ndarray) -> None:
        self.cols = np.array(points.T, order="C")

    @cached_property
    def key(self) -> int:
        """The coordinate of largest range."""
        with np.errstate(over="ignore"):  # an infinite range is the largest
            return int(np.argmax(np.ptp(self.cols, axis=1)))

    @cached_property
    def order(self) -> np.ndarray:
        return np.argsort(self.cols[self.key], kind="stable")

    @cached_property
    def keys(self) -> np.ndarray:
        return self.cols[self.key, self.order]


def _kth_bounds(
    queries: np.ndarray, keys: np.ndarray, store: KeySortedPoints, k: int
) -> np.ndarray:
    """Per query, the k-th smallest distance to a window of its 2k nearest
    stored points along the key (all n when fewer): the k-th smallest
    distance to any k points is at least the k-th nearest distance."""
    d, n = store.cols.shape
    width = min(2 * k, n)
    # the window's first position, its key position less k, kept in [0, n - width]
    first = store.keys[k : n - width + k].searchsorted(keys)
    window = np.arange(width)
    out = np.empty(queries.shape[0])
    # the gathered (d, rows, width) windows hold no more entries than one
    # (rows, n) accumulator of a scan block, _BLOCK_BUDGET / d
    rows = max(1, _BLOCK_BUDGET // (width * d * d))
    for start in range(0, queries.shape[0], rows):
        near = store.order[first[start : start + rows, None] + window]
        # each query row against its own window of columns
        squares = _square_sum(queries[start : start + rows], store.cols[:, near], 0, d)
        squares.partition(k - 1, axis=1)
        out[start : start + rows] = squares[:, k - 1]
        del squares
    return np.sqrt(out, out=out)  # sqrt is monotone: the k-th root is the root of the k-th


def _slab_ends(
    keys: np.ndarray, centers: np.ndarray, half: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``[lo, hi)`` of the sorted ``keys`` holding every key whose gap to its
    center, rounded as the kernel rounds it, is at most ``half``.

    Such a key lies within ``half * (1 + 4u)`` of its center (u = 2**-53), or
    within 2**-510 where the gap's square underflows. The ends are the center
    less and plus ``half + (half + |center|) * 2**-40 + 2**-500``, a slack far
    above both that also covers the rounding of the operations forming them.
    """
    reach = np.abs(centers)
    reach += half
    reach *= 2.0**-40
    reach += 2.0**-500
    reach += half
    return keys.searchsorted(centers - reach), keys.searchsorted(centers + reach, side="right")


def _distance_blocks(
    queries: np.ndarray, store: KeySortedPoints, k: int = 0
) -> Iterator[tuple[slice | np.ndarray, np.ndarray, np.ndarray | None]]:
    """Blocks ``(rows, dists, members)`` that cover the queries once each:
    ``dists`` are the distances from ``queries[rows]`` to the stored points
    ``members`` (ascending indices, None for all of them). With ``k`` >= 1
    the members include every point within each row's k-th nearest
    distance, and a block may read only its slabs; see the module docstring."""
    d, n = store.cols.shape
    rows = max(1, _BLOCK_BUDGET // max(1, n * d))
    starts = range(0, queries.shape[0], rows)
    order = None
    if k and d and queries.shape[0] > rows:
        keys = queries[:, store.key]
        order = keys.argsort(kind="stable")
        queries, keys = queries[order], keys[order]
        with np.errstate(over="ignore"):  # an infinite end only widens a slab
            lo, hi = _slab_ends(store.keys, keys, _kth_bounds(queries, keys, store, k))
        firsts = np.minimum.reduceat(lo, starts)
        lasts = np.maximum.reduceat(hi, starts)
    for i, start in enumerate(starts):
        block = slice(start, start + rows)
        members = None
        if order is not None and lasts[i] - firsts[i] <= _FULL_SCAN_SHARE * n:
            members = np.sort(store.order[firsts[i] : lasts[i]])
        cols = store.cols if members is None else store.cols[:, members]
        dists = _square_sum(queries[block], cols, 0, d)
        yield block if order is None else order[block], np.sqrt(dists, out=dists), members
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
    rows = np.arange(dists.shape[0])[:, None]
    part = np.argpartition(dists, k - 1, axis=1)[:, :k]
    kth = dists[rows, part[:, k - 1 :]]
    # where more than k entries lie at or below the k-th value, argpartition
    # keeps an arbitrary subset of the ties; such rows (and rows of NaN
    # distances, where none do) take the stable sort's choice instead; sum
    # and nonzero are methods, so a lone query pays no Python wrapper
    redo = ((dists <= kth).sum(axis=1) != k).nonzero()[0]
    if redo.size:
        part[redo] = np.argsort(dists[redo], axis=1, kind="stable")[:, :k]
    near = dists[rows, part]
    return part[rows, np.lexsort((part, near), axis=1)]


def k_nearest(
    queries: np.ndarray, store: KeySortedPoints, k: int, slabs: bool = False
) -> np.ndarray:
    """(n_queries, k) indices of the k nearest stored points, the first k
    columns of a stable argsort of each distance row; ``slabs`` lets the
    scan read key slabs, with the same result."""
    out = np.empty((queries.shape[0], k), dtype=np.intp)
    for rows, dists, members in _distance_blocks(queries, store, k if slabs else 0):
        near = _k_smallest(dists, k)
        out[rows] = near if members is None else members[near]
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
