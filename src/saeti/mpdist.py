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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import minimum_filter1d

from .core_ts import MIN_SEGMENT_LEN

__all__ = [
    "ProfileMatrix",
    "default_inner_window",
    "znorm_windows",
    "znorm_dist_profile",
    "mpdist",
    "mpdist_profile_matrix",
]


def default_inner_window(m: int) -> int:
    """Default inner window length: half the outer window, rounded up."""
    return (m + 1) // 2


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


def _profile_from_znormed(zq: np.ndarray, zt: np.ndarray) -> np.ndarray:
    """Euclidean distances between one z-normed query row and many rows."""
    diff = zt - zq[None, :]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


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
    zq = znorm_windows(query, ell)[0]
    zt = znorm_windows(target, ell)
    return _profile_from_znormed(zq, zt)


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
    m = a.shape[0]
    if ell is None:
        ell = default_inner_window(m)
    if ell > m:
        raise ValueError(f"inner window ell={ell} exceeds window length m={m}")
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
    """Valid-mode sliding minimum of ``width`` along the last axis."""
    full = minimum_filter1d(rows, size=width, axis=-1, mode="constant", cval=np.inf)
    lo = width // 2
    out_len = rows.shape[-1] - width + 1
    return full[..., lo:lo + out_len]


def mpdist_profile_matrix(values: np.ndarray, m: int, ell: int | None = None) -> ProfileMatrix:
    """MPdist of every subsequence against every segment of one coordinate.

    Segments are the floor(n/m) disjoint length-m pieces; subsequences are
    all n-m+1 sliding length-m windows. Windows containing missing points
    (NaN) cannot be z-normalized and are excluded on both axes; the
    exclusions are reported in the result.

    The computation shares one z-normalized window matrix for the whole
    coordinate, so a subsequence aligned with a segment is at distance
    exactly zero. Per segment, the pooled cross profile for every
    subsequence start is assembled from column minima (subsequence windows
    against the segment) and per-row sliding minima (segment windows
    against the subsequence), then reduced to its k-th smallest element.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if m < MIN_SEGMENT_LEN:
        raise ValueError(f"segment too short: m={m} < {MIN_SEGMENT_LEN}")
    if m > n:
        raise ValueError(f"m={m} exceeds series length n={n}")
    if ell is None:
        ell = default_inner_window(m)
    if ell > m:
        raise ValueError(f"inner window ell={ell} exceeds m={m}")

    n_seg = n // m
    n_sub = n - m + 1
    width = m - ell + 1  # inner windows per length-m window
    k = math.ceil(0.05 * (2 * m))

    finite = ~np.isnan(values)
    sub_ok = (
        sliding_window_view(finite, m).all(axis=1)
        if n_sub > 0
        else np.zeros(0, dtype=bool)
    )
    seg_ok = np.array([finite[r * m:(r + 1) * m].all() for r in range(n_seg)])

    zt = znorm_windows(values, ell)

    kept_segments = np.flatnonzero(seg_ok)
    kept_subs = np.flatnonzero(sub_ok)
    dist = np.empty((kept_segments.shape[0], kept_subs.shape[0]))

    for row, r in enumerate(kept_segments):
        seg_rows = zt[r * m:r * m + width]
        # profiles of each segment inner window against the whole coordinate
        prof = np.empty((width, zt.shape[0]))
        for w in range(width):
            prof[w] = _profile_from_znormed(seg_rows[w], zt)
        prof[np.isnan(prof)] = np.inf  # gap windows never win a minimum

        col_min = prof.min(axis=0)                      # best segment window per position
        ab = sliding_window_view(col_min, width)        # (n_sub, width)
        ba = _sliding_min(prof, width)                  # (width, n_sub)
        pool = np.concatenate([ab[kept_subs], ba[:, kept_subs].T], axis=1)
        kk = min(k, pool.shape[1])
        dist[row] = np.partition(pool, kk - 1, axis=1)[:, kk - 1]

    return ProfileMatrix(
        dist=dist,
        segment_indices=kept_segments + 1,
        subseq_starts=kept_subs + 1,
        excluded_segments=np.flatnonzero(~seg_ok) + 1,
        excluded_starts=np.flatnonzero(~sub_ok) + 1,
        m=m,
        ell=ell,
    )
