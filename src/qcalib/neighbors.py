"""Blocked Euclidean neighbor queries: many queries against stored points.

Every membership and nearness decision uses distances computed here, one way:
difference, square, sum over coordinates, square root (the Gram shortcut
rounds differently and moves points across a ``<=`` boundary). Queries go in
row blocks whose ``(rows, n, d)`` difference temporary holds at most
``_BLOCK_BUDGET`` entries, and each block's arrays are dropped before the
next is built. Per-pair distances do not depend on the block size.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

__all__ = ["ball_members", "k_nearest"]

_BLOCK_BUDGET = 8_000_000


def _distance_blocks(queries: np.ndarray, points: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    n, d = points.shape
    rows = max(1, _BLOCK_BUDGET // max(1, n * d))
    for start in range(0, queries.shape[0], rows):
        sq = queries[start : start + rows, None, :] - points[None, :, :]
        np.square(sq, out=sq)
        # a sum over a single coordinate is that coordinate, bit for bit
        sq = sq.reshape(sq.shape[:2]) if d == 1 else sq.sum(axis=2)
        yield start, np.sqrt(sq, out=sq)
        del sq


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


def ball_members(
    queries: np.ndarray, points: np.ndarray, radius: float, min_count: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Stored points within ``radius`` of each query, boundary included.

    A query with fewer than ``min_count`` members (capped at n) takes its
    ``min_count``-th nearest distance as radius instead. Yields per block
    ``(start, counts, radii, members)``: the block's first query row, each
    query's member count and radius, and all members' point indices, query
    after query, each query's ascending.
    """
    k = min(min_count, points.shape[0])
    for start, dists in _distance_blocks(queries, points):
        inside = dists <= radius
        counts = inside.sum(axis=1)
        radii = np.full(counts.shape[0], float(radius))
        short = counts < k
        if short.any():
            near = dists[short]
            radii[short] = np.partition(near, k - 1, axis=1)[:, k - 1]
            inside[short] = near <= radii[short, None]
            counts[short] = inside[short].sum(axis=1)
            del near
        # flat positions, then point indices; cheaper than a 2-d nonzero
        members = inside.ravel().nonzero()[0]
        members %= points.shape[0]
        del dists, inside
        yield start, counts, radii, members
