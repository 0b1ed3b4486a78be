"""Subsequence similarity: z-normalized distance profiles and MPdist.

MPdist between two equal-length windows A and B is the k-th smallest
element of the pooled cross profile
``P_ABBA = [min-dist of each A-window to B] ++ [min-dist of each B-window to A]``
with inner window length ``ell`` and ``k = ceil(0.05 * (|A| + |B|))``
(1-based; clamped to the pool size). It is small whenever the two windows
share at least one common local shape and is symmetric by construction.

All distances are Euclidean between z-normalized windows. A window with
zero standard deviation z-normalizes to the all-zero vector, which keeps
constant regions comparable instead of producing NaN.

Inputs are plain 1-D float arrays; a NaN anywhere in an input is a gap
and is rejected ("gap in MPdist input") because z-normalization is
undefined across gaps. Callers filter gap windows beforehand.

The pairwise functions take explicit differences; the whole-coordinate
profile matrix uses the matrix-product form ``|a|^2 + |b|^2 - 2 a.b``
(as MASS, MPdist and Time Series Snippets do) with exact recomputation
near zero, so identical windows still score exactly 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core_ts import MIN_SEGMENT_LEN

__all__ = [
    "ProfileMatrix",
    "default_inner_window",
    "znorm_windows",
    "znorm_dist_profile",
    "mpdist",
    "mpdist_profile_matrix",
]


# The product form's absolute error is a few ulp of 2 * ell, so squared
# distances below this are recomputed by explicit differences.
_EXACT_SQ_DIST = 1e-6
# Entries per segment chunk of the product. Its row count fixes the GEMM's
# bits: another value changes ProfileMatrix.dist and the snippet JSON.
_CHUNK_ENTRIES = 1 << 19


def default_inner_window(m: int) -> int:
    """Default inner window length: half the outer window, rounded up."""
    return (m + 1) // 2


def _inner_window(ell: int | None, m: int) -> int:
    """``ell``, or the default for ``m``; a window below 2 z-normalizes to 0."""
    ell = default_inner_window(m) if ell is None else ell
    if ell < 2:
        raise ValueError(f"inner window ell={ell} is below 2")
    if ell > m:
        raise ValueError(f"inner window ell={ell} exceeds window length m={m}")
    return ell


@dataclass(frozen=True)
class ProfileMatrix:
    """MPdist of every retained subsequence against every retained segment.

    ``dist[r, j]`` is the MPdist between subsequence ``subseq_starts[j]``
    and segment ``segment_indices[r]`` (both 1-based). Subsequences or
    segments containing missing points are left out of both lists.
    """

    dist: np.ndarray
    segment_indices: np.ndarray
    subseq_starts: np.ndarray
    m: int
    ell: int


def _check_clean(arr: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be 1-D")
    if np.isnan(arr).any():
        raise ValueError(f"gap in MPdist input: {what} contains missing points")
    return arr


def znorm_windows(series: np.ndarray, ell: int) -> np.ndarray:
    """Matrix of all z-normalized length-``ell`` windows of ``series``.

    Row ``k`` is window ``series[k:k+ell]`` standardized by its own mean
    and population standard deviation; zero-variance windows become rows
    of zeros. Windows touching a NaN come out as NaN rows.
    """
    series = np.asarray(series, dtype=float)
    if ell > series.shape[0]:
        raise ValueError(f"inner window ell={ell} exceeds series length")
    win = sliding_window_view(series, ell)
    mean = win.mean(axis=1, keepdims=True)
    std = win.std(axis=1, keepdims=True)
    centered = win - mean
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(std == 0.0, 0.0, centered / std)
    # NaN windows: std is NaN, where() above picked the division branch -> NaN. Keep.
    return out


def znorm_dist_profile(query: np.ndarray, target: np.ndarray, ell: int) -> np.ndarray:
    """Distance profile of one length-``ell`` query against a target series.

    Entry ``k`` is the Euclidean distance between the z-normalized query
    and the z-normalized target window starting at ``k`` (0-based).
    """
    query = _check_clean(query, "query")
    target = _check_clean(target, "target")
    if query.shape[0] != ell:
        raise ValueError(f"query length {query.shape[0]} != ell={ell}")
    if ell > target.shape[0]:
        raise ValueError("inner window exceeds target length")
    diff = znorm_windows(target, ell) - znorm_windows(query, ell)
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def mpdist(a: np.ndarray, b: np.ndarray, ell: int | None = None) -> float:
    """MPdist between two equal-length gap-free windows."""
    a = _check_clean(a, "first window")
    b = _check_clean(b, "second window")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"window lengths differ: {a.shape[0]} != {b.shape[0]}")
    ell = _inner_window(ell, a.shape[0])
    za = znorm_windows(a, ell)
    zb = znorm_windows(b, ell)
    # Full cross-distance table; differencing (not the dot-product identity)
    # so identical windows give exact zeros.
    diff = za[:, None, :] - zb[None, :, :]
    table = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    pool = np.concatenate([table.min(axis=1), table.min(axis=0)])
    k = min(math.ceil(0.05 * (a.shape[0] + b.shape[0])), pool.shape[0])  # 1-based
    return float(np.partition(pool, k - 1)[k - 1])


def _sliding_min(rows: np.ndarray, width: int) -> np.ndarray:
    """Valid-mode sliding minimum of ``width`` along the last axis.

    Doubling: after the pass with shift ``span``, entry i holds the
    minimum of ``rows[..., i:i + 2 * span]``; one last pass with shift
    ``width - span`` joins two overlapping spans into the full width.
    """
    out, span = rows, 1
    while 2 * span <= width:
        out = np.minimum(out[..., :-span], out[..., span:])
        span *= 2
    rest = width - span
    if rest:
        out = np.minimum(out[..., :-rest], out[..., rest:])
    return out


def _smallest(a: list, b: list, t: int) -> list:
    """The t smallest of sorted ``a`` and ``b``: ``min(a[i], b[t-1-i])``, +inf if missing."""
    return [a[i] if t - 1 - i >= len(b) else b[t - 1 - i] if i >= len(a)
            else np.minimum(a[i], b[t - 1 - i]) for i in range(t)]


def _merge(a: list, b: list, k: int) -> list:
    """Sorted k smallest of sorted lists ``a`` and ``b``: a bitonic merger of the
    rising-then-falling t smallest, padded with -inf (None) slots that cost no
    call. It overwrites only arrays it made."""
    t = min(len(a) + len(b), k)
    size = 1 << (t - 1).bit_length()
    low = _smallest(a, b, t) + [None] * (size - t)
    made, spare = [i < len(a) and t - 1 - i < len(b) for i in range(size)], None
    for half in [size >> s for s in range(1, size.bit_length())]:
        for i in (i for i in range(size) if not i & half):
            x, y = low[i], low[i + half]
            if x is None or y is None:  # against -inf the other value moves up
                low[i], low[i + half] = None, y if x is None else x
            elif made[i] and made[i + half]:  # the max into y, the min into a spare
                low[i], spare = np.minimum(x, y, out=spare), x
                np.maximum(x, y, out=y)
            else:
                low[i], low[i + half] = np.minimum(x, y), np.maximum(x, y)
                made[i] = made[i + half] = True
    return low[size - t:]


def _pooled_kth(d2: np.ndarray, k: int) -> np.ndarray:
    """1-based k-th smallest of the pooled profiles of a ``(R, width, n_win)`` chunk.

    The pool at start i holds ``min_j d2[:, j, i + w]`` for each w and
    ``min(d2[:, j, i:i + width])`` for each j. Both halves start with the
    block minimum, the k-th smallest for k <= 2, else the (k-2)-th of both
    halves past it; so each half is kept as its sorted k-1 smallest: row j's
    sliding minima are inserted a row at a time, and lists of the column
    minima over 1, 2, 4, ... positions join along width's bits.
    """
    width = d2.shape[1]
    n_sub = d2.shape[2] - width + 1
    keep = max(k - 1, 1)
    seg = [_sliding_min(d2[:, 0], width).copy()]
    hi = np.empty_like(seg[0])
    for j in range(1, width):
        v = _sliding_min(d2[:, j], width)
        held = len(seg)
        if held < keep:  # the list grows by its new largest value
            seg.append(np.maximum(seg[-1], v))
        for i in range(held - 1, 0, -1):  # top down, in place: min(l_i, max(l_{i-1}, v))
            np.minimum(seg[i], np.maximum(seg[i - 1], v, out=hi), out=seg[i])
        np.minimum(seg[0], v, out=seg[0])
    level, offset, sub = [d2.min(axis=1)], 0, []
    for span in [1 << b for b in range(width.bit_length())]:
        if width & span:
            piece = [x[:, offset:offset + n_sub] for x in level]
            sub = _merge(sub, piece, keep) if sub else piece
            offset += span
        if 2 * span <= width:
            level = _merge([x[:, :-span] for x in level], [x[:, span:] for x in level], keep)
    return seg[0] if k <= 2 else functools.reduce(np.maximum, _smallest(sub[1:], seg[1:], k - 2))


def mpdist_profile_matrix(values: np.ndarray, m: int, ell: int | None = None) -> ProfileMatrix:
    """MPdist of every subsequence against every segment of one coordinate.

    Segments are the floor(n/m) disjoint length-m pieces; subsequences are
    all n-m+1 sliding length-m windows. Windows containing missing points
    (NaN) cannot be z-normalized and are excluded on both axes; the
    exclusions are reported in the result.

    Squared distances from a chunk of segments' inner windows to every
    inner window of the coordinate come from one matrix product,
    ``|a|^2 + |b|^2 - 2 a.b`` over the z-normalized windows, with the
    chunk bounded to ``_CHUNK_ENTRIES`` entries: rows ``[a, |a|^2, 1]`` by
    columns ``[-2 b, 1, |b|^2]``, which add the norms after the ell products
    with the bits of two separate additions. That form cancels near
    zero, so every entry with a squared distance below 1e-6 is recomputed
    by explicit differences: a subsequence aligned with a segment, and any
    bit-identical pair of windows, is at distance exactly zero. Identical
    windows share one column of every product and one row of each
    chunk's product (``np.unique`` ids), and identical segments share one
    result row, so bit-identical segments get bit-identical rows.

    Per segment, ``_pooled_kth`` takes the k-th smallest of the pooled cross
    profile of every subsequence start. All reductions run on squared
    distances; the square root, being monotone, is taken once per entry.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if m < MIN_SEGMENT_LEN:
        raise ValueError(f"segment too short: m={m} < {MIN_SEGMENT_LEN}")
    if m > n:
        raise ValueError(f"m={m} exceeds series length n={n}")
    ell = _inner_window(ell, m)

    n_seg = n // m
    width = m - ell + 1  # inner windows per length-m window
    k = min(math.ceil(0.05 * (2 * m)), 2 * width)

    finite = ~np.isnan(values)
    sub_ok = sliding_window_view(finite, m).all(axis=1)
    seg_ok = finite[:n_seg * m].reshape(n_seg, m).all(axis=1)
    gap = ~sliding_window_view(finite, ell).all(axis=1)
    kept_segments = np.flatnonzero(seg_ok)
    kept_subs = np.flatnonzero(sub_ok)

    zt = znorm_windows(values, ell)
    # Gap windows reach only excluded subsequences; zeros keep NaN out of
    # the product and the sliding minima.
    zt[gap] = 0.0
    n_win = zt.shape[0]
    # Every window is computed as its first bit-identical occurrence:
    # column col_of[p] of the product. Without repeats all ids below are
    # the identity and nothing needs gathering.
    _, first, inverse = np.unique(zt, axis=0, return_index=True, return_inverse=True)
    cols = np.sort(first)
    col_of = np.searchsorted(cols, first[inverse.reshape(-1)])
    repeats = cols.shape[0] < n_win
    zc = zt[cols]
    sq, ones = np.einsum("ij,ij->i", zc, zc)[:, None], np.ones((zc.shape[0], 1))
    za, zb = np.hstack([zc, sq, ones]), np.hstack([-2.0 * zc, ones, sq])  # -2 b is exact

    # Segments made of the same window columns share one result row.
    seg_cols = col_of[kept_segments[:, None] * m + np.arange(width)]
    uniq_segs, seg_of = np.unique(seg_cols, axis=0, return_inverse=True)
    dist = np.empty((uniq_segs.shape[0], kept_subs.shape[0]))
    chunk = max(1, _CHUNK_ENTRIES // (width * n_win))
    for lo in range(0, uniq_segs.shape[0], chunk):
        rows, row_of = np.unique(uniq_segs[lo:lo + chunk], return_inverse=True)
        d2 = za[rows] @ zb.T
        near_r, near_c = np.divmod(np.flatnonzero(d2 < _EXACT_SQ_DIST), d2.shape[1])
        diff = zc[rows[near_r]] - zc[near_c]
        d2[near_r, near_c] = np.einsum("ij,ij->i", diff, diff)
        if repeats:
            d2 = d2[np.ix_(row_of.reshape(-1), col_of)]

        kth = _pooled_kth(d2.reshape(-1, width, n_win), k)
        dist[lo:lo + chunk] = np.sqrt(kth[:, kept_subs])

    if repeats:
        dist = dist[seg_of.reshape(-1)]
    return ProfileMatrix(
        dist=dist,
        segment_indices=kept_segments + 1,
        subseq_starts=kept_subs + 1,
        m=m,
        ell=ell,
    )
