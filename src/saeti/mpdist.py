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
# Entries per segment chunk of the product (4 MB; small keeps it in cache).
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
    segments containing missing points are excluded and reported.
    """

    dist: np.ndarray
    segment_indices: np.ndarray
    subseq_starts: np.ndarray
    excluded_segments: np.ndarray
    excluded_starts: np.ndarray
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


def _kth_smallest(pool: np.ndarray, k: int) -> float:
    """1-based k-th smallest, clamped to the maximum when k exceeds the pool."""
    k = min(k, pool.shape[0])
    return float(np.partition(pool, k - 1)[k - 1])


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
    k = math.ceil(0.05 * (a.shape[0] + b.shape[0]))
    return _kth_smallest(pool, k)


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


def _kth_smallest_of(vectors, k: int, shape: tuple[int, ...]) -> np.ndarray:
    """Elementwise 1-based k-th smallest over at least k arrays of ``shape``.

    Keeps the k smallest values seen so far, sorted, and inserts each
    array with one min/max pair per level: exactly the element a full
    sort of the pooled values would put at position k.
    """
    low = [np.full(shape, np.inf) for _ in range(k)]
    for v in vectors:
        for level in low[:-1]:
            hi = np.maximum(level, v)
            np.minimum(level, v, out=level)
            v = hi
        np.minimum(low[-1], v, out=low[-1])
    return low[-1]


def mpdist_profile_matrix(values: np.ndarray, m: int, ell: int | None = None) -> ProfileMatrix:
    """MPdist of every subsequence against every segment of one coordinate.

    Segments are the floor(n/m) disjoint length-m pieces; subsequences are
    all n-m+1 sliding length-m windows. Windows containing missing points
    (NaN) cannot be z-normalized and are excluded on both axes; the
    exclusions are reported in the result.

    Squared distances from a chunk of segments' inner windows to every
    inner window of the coordinate come from one matrix product,
    ``|a|^2 + |b|^2 - 2 a.b`` over the z-normalized windows, with the
    chunk bounded to ``_CHUNK_ENTRIES`` entries. That form cancels near
    zero, so every entry with a squared distance below 1e-6 is recomputed
    by explicit differences: a subsequence aligned with a segment, and any
    bit-identical pair of windows, is at distance exactly zero. Identical
    windows share one column of every product and one row of each
    chunk's product (``np.unique`` ids), and identical segments share one
    result row, so bit-identical segments get bit-identical rows.

    Per segment, the pooled cross profile for every subsequence start is
    assembled from column minima (subsequence windows against the segment)
    and per-row sliding minima (segment windows against the subsequence),
    then reduced to its k-th smallest element by min/max insertion. All
    reductions run on squared distances; the square root, being monotone,
    is taken once per result entry.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if m < MIN_SEGMENT_LEN:
        raise ValueError(f"segment too short: m={m} < {MIN_SEGMENT_LEN}")
    if m > n:
        raise ValueError(f"m={m} exceeds series length n={n}")
    ell = _inner_window(ell, m)

    n_seg = n // m
    n_sub = n - m + 1
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
    sq = np.einsum("ij,ij->i", zc, zc)

    # Segments made of the same window columns share one result row.
    seg_cols = col_of[kept_segments[:, None] * m + np.arange(width)]
    uniq_segs, seg_of = np.unique(seg_cols, axis=0, return_inverse=True)
    dist = np.empty((uniq_segs.shape[0], kept_subs.shape[0]))
    chunk = max(1, _CHUNK_ENTRIES // (width * n_win))
    for lo in range(0, uniq_segs.shape[0], chunk):
        rows, row_of = np.unique(uniq_segs[lo:lo + chunk], return_inverse=True)
        d2 = zc[rows] @ zc.T
        d2 *= -2.0
        d2 += sq[rows, None]
        d2 += sq
        near_r, near_c = np.divmod(np.flatnonzero(d2 < _EXACT_SQ_DIST), d2.shape[1])
        diff = zc[rows[near_r]] - zc[near_c]
        d2[near_r, near_c] = np.einsum("ij,ij->i", diff, diff)
        if repeats:
            d2 = d2[np.ix_(row_of.reshape(-1), col_of)]

        d2 = d2.reshape(-1, width, n_win)
        col_min = d2.min(axis=1)  # best segment window per position
        pool = [col_min[:, j:j + n_sub] for j in range(width)]
        pool += list(_sliding_min(d2, width).transpose(1, 0, 2))
        kth = _kth_smallest_of(pool, k, (col_min.shape[0], n_sub))
        dist[lo:lo + chunk] = np.sqrt(kth[:, kept_subs])

    if repeats:
        dist = dist[seg_of.reshape(-1)]
    return ProfileMatrix(
        dist=dist,
        segment_indices=kept_segments + 1,
        subseq_starts=kept_subs + 1,
        excluded_segments=np.flatnonzero(~seg_ok) + 1,
        excluded_starts=np.flatnonzero(~sub_ok) + 1,
        m=m,
        ell=ell,
    )
