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
slab). Only calibrate's residual pass asks for slabs so far. Batch kNN
prediction and the estimator's balls read every stored point, because the
benchmark's serving loop cannot yet time a ``knn_d5_fixed`` sequence much
shorter than today's (see ROADMAP.md).

Balls from a Gram block. A ball needs to know only which stored points have
``dist <= h``. :func:`ball_blocks` gives the estimator, its neighborhoods and
bandwidth CV their balls, block by block and radius by radius. Over stores
of fewer than ``_GRAM_MIN_DIM`` = 5 coordinates it compares the kernel's
distances, as above. From there on, in blocks of at least ``_GRAM_MIN_ROWS``
= 3 rows, and in any block from ``_GRAM_FEW_DIM`` = 8 coordinates on (below
that one or two rows do not repay the Gram block's fixed cost), it takes,
for the block's queries q and every stored point p,
``s = |q|² + |p|² - 2 q·p`` from one matrix product
``(-2 q) @ cols`` and the squared norms (the store caches its own), and with
``band = 4 (d + 8) u (max |q|² + max |p|² + 2**-960 + h²)`` over the block,
u = 2**-53, a pair with

- ``s <= h² - band`` is in the ball,
- ``s > h² + band`` is out,
- anything else gets the kernel's own distance, ``sqrt`` of its squared
  sum, compared with h.

Rows that widen to ``min_neighbors`` take the kernel's distances to every
stored point, each row once per block whatever the radii. So counts, radii
and members are the full scan's, bit for bit. An infinite radius holds every
pair of a Gram block, whose kernel distances are all finite. A block whose
squared norms are not all below ``_GRAM_NORM_LIMIT`` = 2**1000, and a call
with a finite radius above ``_GRAM_MAX_RADIUS`` = 2**499, take the kernel's
distances throughout: it raises or warns on overflow exactly as the full
scan does. Below the limit every coordinate is under 2**500.01, so no
product, norm, kernel square or sum overflows (d < 2**21), h² + band stays
below the limit, and the Gram arithmetic itself runs with floating-point
errors ignored.

The Gram block saves the kernel's work on the rows that do not widen; a row
that widens pays for both. So a store remembers whether most rows of its
last block widened at the block's first radius (h = 0, or a small h, with
``min_neighbors`` above 1 widens nearly every row), and its next block then
takes the kernel's distances; a block whose rows mostly do not widen sends
the next one back to the Gram block. The CV folds share that memory. The
path never changes a result. In a run of the benchmark's ``ols_auto_d20``
none of 24 717 prediction rows widened, and 4 of 6 300 CV rows did, at the
smallest candidate.

Why the band holds. Write Q = |q|², P = |p|², S = Σ (q_i - p_i)², all
exact, K for the kernel's squared sum, γ_k = k u / (1 - k u) and η = 2**-1074
for the absolute error an underflow can add to one product.

1. Dot products and norms. A d-term dot product, summed in any order (BLAS
   blocking and FMA included), is within γ_d Σ |a_i b_i| + d η of the exact
   one (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002, §3.1),
   and Σ |q_i p_i| <= (Q + P) / 2. With the norms' own errors and the two
   additions that form s, |s - S| <= (2d + 5) u (Q + P) + 4 d η for d < 2**25.
2. The kernel. Each term fl(fl(q_i - p_i)²) is (q_i - p_i)² (1 + δ)² (1 + δ')
   plus at most η, and a sum of nonnegative terms in any order keeps each
   term within γ_(d-1) relatively, so |K - S| <= γ_(d+2) S + 2 d η.
3. sqrt and h². Rounding and sqrt are monotone and h is a float, so
   K <= h² gives fl(sqrt K) <= h; and K > h² (1 + u)² + η puts sqrt K past
   the midpoint between h and the next float, so fl(sqrt K) > h. The
   computed h² is within u h² + η of h², and h² ± band within u of its
   value.

Chaining the three, s <= h² - band gives K <= h², and s > h² + band gives
K > h² (1 + u)² + η, whenever band >= (2d + 5) u (Q + P) + (d + 7) u h² + 8 d η
up to factors 1 + O(d u). The band above is twice that for the pair's own
norms, and its floor, (d + 8) 2**-1011, is far above 8 d η.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property

import numpy as np

__all__ = ["KeySortedPoints", "ball_blocks", "block_balls", "k_nearest", "pair_distances"]

# rows × n × d entries per block; 125 k to 1 M ran alike, 8 M up to 1.8x slower
_BLOCK_BUDGET = 500_000
# a block scans every stored point once its slabs hold more than this share;
# a slab over half the store took 0.45-0.85 of the full block's time, one over
# 0.6-0.8 of it about the same (kNN k = 20 over 2 500 points in 5-d)
_FULL_SCAN_SHARE = 0.5
# numpy's pairwise summation: 8 accumulators up to this many terms, halves above
_PAIRWISE_BLOCK = 128
# ball blocks over stores of at least _GRAM_MIN_DIM coordinates start from a
# Gram block, except blocks of fewer than _GRAM_MIN_ROWS rows below
# _GRAM_FEW_DIM coordinates. 2 000 queries x 2 000 points, 3 levels, balls of
# a fifth of the points: direct 24 / 32 / 49 / 57 / 151 ms at d = 1 / 2 / 4 /
# 5 / 20, Gram 30 / 20 / 19 / 20 / 22 ms. Rows of a block against 1 500
# points, direct / Gram µs: d = 5, 1 row 53 / 60, 2 rows 81 / 83, 3 rows
# 113 / 91; d = 6, 60 / 63, 66 / 64, 99 / 68; d = 7, 86 / 82; one row at d =
# 8 / 10 / 20, 101 / 95, 73 / 61, 95 / 58. Against 400 points: d = 5, 3 rows
# 80 / 83, 5 rows 85 / 84; d = 6, 3 rows 87 / 84; d = 7, 2 rows 56 / 58, 3
# rows 63 / 56; one row at d = 8, 50 / 48.
_GRAM_MIN_DIM = 5
_GRAM_MIN_ROWS = 3
_GRAM_FEW_DIM = 8
_UNIT_ROUNDOFF = 2.0**-53
# squared norms below this keep every Gram product, band and kernel sum finite
_GRAM_NORM_LIMIT = 2.0**1000
# finite radii up to this keep h² + band below the norm limit
_GRAM_MAX_RADIUS = 2.0**499
# added to the band's scale, far above any error from underflow
_BAND_FLOOR = 2.0**-960


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


def _distances(queries: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The kernel's distances from each query row to each stored column of
    ``cols`` (d, ...), which may be gathered per row."""
    dists = _square_sum(queries, cols, 0, cols.shape[0])
    return np.sqrt(dists, out=dists)


class KeySortedPoints:
    """Stored points for neighbor queries: ``cols``, a C-ordered (d, n) copy
    of any (n, d) matrix, so each coordinate row is contiguous. The key
    coordinate and the points' stable order along it are built when a scan
    first takes slabs, so a model that answers one query at a time never
    sorts; the squared norms, when a ball step first takes a Gram block.
    ``widening`` tells whether most rows of the last ball block widened, so
    the next skips the Gram block (see :func:`ball_blocks`)."""

    def __init__(self, points: np.ndarray) -> None:
        self.cols = np.array(points.T, order="C")
        self.widening = False

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

    @cached_property
    def norms(self) -> np.ndarray:
        """Squared norms of the points, summed in any order; an overflow is inf."""
        with np.errstate(all="ignore"):
            return np.einsum("ij,ij->j", self.cols, self.cols)


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
        dists = _distances(queries[block], cols)
        yield block if order is None else order[block], dists, members
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
    return _balls(dists <= radius, radius, min_count, dists.__getitem__)


def _balls(inside: np.ndarray, radius: float, min_count: int, near) -> tuple[np.ndarray, ...]:
    """:func:`block_balls` from the block's ``dists <= radius``; ``near(rows)``
    gives those rows' distances to every stored point, for the rows that widen."""
    k = min(min_count, inside.shape[1])
    counts = inside.sum(axis=1)
    radii = np.empty(counts.shape[0])
    radii.fill(radius)
    short = (counts < k).nonzero()[0]
    if short.size:
        dists = near(short)
        radii[short] = np.partition(dists, k - 1, axis=1)[:, k - 1]
        inside[short] = dists <= radii[short, None]
        counts[short] = inside[short].sum(axis=1)
        del dists
    # flat positions, then point indices; cheaper than a 2-d nonzero
    members = inside.ravel().nonzero()[0]
    members %= inside.shape[1]
    return counts, radii, members


def _gram_block(queries: np.ndarray, store: KeySortedPoints) -> tuple[np.ndarray, float] | None:
    """``(s, scale)``: the Gram estimates ``|q|² + |p|² - 2 q·p`` of the
    block's squared distances, and the block's ``max |q|² + max |p|²`` plus
    the band's floor; None when a squared norm is not below
    ``_GRAM_NORM_LIMIT`` (or is NaN), so the kernel must decide."""
    with np.errstate(all="ignore"):  # an overflow or NaN only sends the block to the kernel
        norms = np.einsum("ij,ij->i", queries, queries)
        top_q, top_p = norms.max(), store.norms.max()
        if not (top_q < _GRAM_NORM_LIMIT and top_p < _GRAM_NORM_LIMIT):
            return None
        s = (queries * -2.0) @ store.cols  # scaling by -2 is exact
        s += norms[:, None]
        s += store.norms
    return s, float(top_q) + float(top_p) + _BAND_FLOOR


def _gram_inside(
    gram: tuple[np.ndarray, float], queries: np.ndarray, store: KeySortedPoints, radius: float
) -> np.ndarray:
    """The block's ``dists <= radius`` over the kernel's distances, decided
    from the Gram block where the band allows and by the kernel elsewhere;
    see the module docstring."""
    s, scale = gram
    if radius == np.inf:  # below the norm limit every kernel distance is finite
        return np.ones(s.shape, dtype=bool)
    h2 = float(radius) * float(radius)
    band = 4.0 * (queries.shape[1] + 8) * _UNIT_ROUNDOFF * (scale + h2)
    inside = s <= h2 - band
    unsure = s <= h2 + band  # s is finite below the norm limit
    unsure ^= inside
    flat = unsure.ravel().nonzero()[0]
    if flat.size:
        # each pair's query row against its own stored point, through the kernel
        at, point = np.divmod(flat, s.shape[1])
        near = _distances(queries[at], store.cols[:, point, None])
        inside.ravel()[flat] = near[:, 0] <= radius
        del near
    return inside


def _gram_near(queries: np.ndarray, store: KeySortedPoints):
    """``near(rows)`` for :func:`_balls` on the Gram path: the rows' kernel
    distances to every stored point, each row measured once per block,
    whatever the radii."""
    slot = np.full(queries.shape[0], -1)  # each row's place in ``known``, once measured
    known = np.empty((0, store.cols.shape[1]))

    def near(rows: np.ndarray) -> np.ndarray:
        nonlocal known
        new = rows[slot[rows] < 0]
        if new.size:
            slot[new] = np.arange(new.size) + known.shape[0]
            known = np.concatenate((known, _distances(queries[new], store.cols)))
        return known[slot[rows]]

    return near


def ball_blocks(
    queries: np.ndarray, store: KeySortedPoints, radii, min_count: int
) -> Iterator[tuple[slice, int, tuple[np.ndarray, ...]]]:
    """``(rows, i, balls)`` for each block of queries and each ``radii[i]``:
    ``balls`` is ``block_balls(dists, radii[i], min_count)`` over the rows'
    kernel distances to every stored point, bit for bit. From
    ``_GRAM_MIN_DIM`` coordinates on, a Gram block decides most pairs without
    them, in blocks of enough rows and unless most rows of the store's last
    block widened (see the module docstring)."""
    d, n = store.cols.shape
    step = max(1, _BLOCK_BUDGET // max(1, n * d))
    # h² + band stays below the norm limit; past it the kernel decides
    gram_path = d >= _GRAM_MIN_DIM and all(
        r == np.inf or 0.0 <= r <= _GRAM_MAX_RADIUS for r in radii
    )
    # below _GRAM_FEW_DIM coordinates a block of few rows does not repay a Gram block
    min_rows = 1 if d >= _GRAM_FEW_DIM else _GRAM_MIN_ROWS
    for start in range(0, queries.shape[0], step):
        rows = slice(start, start + step)
        block = queries[rows]
        eligible = gram_path and block.shape[0] >= min_rows
        gram = _gram_block(block, store) if eligible and not store.widening else None
        if gram is None:
            # outside the Gram path's range the kernel raises or warns as it always has
            dists, near = _distances(block, store.cols), None
        else:
            dists, near = None, _gram_near(block, store)
        for i, radius in enumerate(radii):
            if gram is None:
                balls = block_balls(dists, radius, min_count)
            else:
                balls = _balls(_gram_inside(gram, block, store, radius), radius, min_count, near)
            if eligible and not i:
                # a widened row gains nothing from the Gram block; where most of
                # this block's rows widen, the store's next block skips it
                store.widening = 2 * np.count_nonzero(balls[1] != radius) > balls[1].shape[0]
            yield rows, i, balls
            del balls
        del gram, dists, near  # before the next block is built
