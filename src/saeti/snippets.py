"""Behavioral-pattern (snippet) discovery over one coordinate at a time.

A snippet is one of the disjoint length-m segments of a coordinate,
chosen because many subsequences are closer to it (in MPdist) than to
any other segment. Each subsequence belongs to exactly one snippet: a
snippet set keeps that partition as one array, ``ranks``, holding the
0-based snippet rank of every subsequence start (-1 where the
subsequence has a gap). Each snippet carries its segment index and its
significance ``frac`` = share of retained subsequences it holds; its
neighbors are the starts of its rank. Snippets are ordered by
non-increasing frac.

Assignment is computed literally from the full segment-by-subsequence
MPdist matrix, which keeps it brute-force verifiable; ties in both the
per-column argmin and the top-K selection break toward the smaller
segment index so discovery is deterministic.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .core_ts import TimeSeries
from .mpdist import default_inner_window, mpdist_profile_matrix

__all__ = [
    "Snippet",
    "SnippetSet",
    "find_snippets",
    "find_all_snippets",
    "label_subsequence",
    "snippet_values",
    "snippet_sets_to_json",
    "write_snippets_json",
]


@dataclass(frozen=True)
class Snippet:
    """One chosen segment with its significance."""

    index: int                 # 1-based segment number
    values: np.ndarray         # the segment's own length-m values
    frac: float


@dataclass(frozen=True)
class SnippetSet:
    """The K most significant snippets of one coordinate, frac-ordered.

    ``ranks[s]`` is the 0-based rank (into ``items``) of the snippet that
    holds the subsequence at 0-based start ``s``, or -1 where that
    subsequence has a gap; shape (n - m + 1,).
    """

    coord: int
    m: int
    k: int
    ell: int
    items: tuple[Snippet, ...]
    ranks: np.ndarray


def find_snippets(values: np.ndarray, m: int, k: int,
                  ell: int | None = None, coord: int = 0) -> SnippetSet:
    """Discover the ``k`` most significant snippets of one coordinate.

    Parameters
    ----------
    values : 1-D array
        Coordinate values, NaN at missing points.
    m : int
        Segment/snippet length.
    k : int
        Number of snippets to keep; must not exceed the retained segment
        count. ``k == 1`` is accepted with a warning (a single behavioral
        class makes the downstream classifier degenerate).
    ell : int, optional
        Inner similarity window, default ``ceil(m/2)``.
    coord : int
        Coordinate index recorded on the result (0-based).
    """
    values = np.asarray(values, dtype=float)
    ell = default_inner_window(m) if ell is None else ell
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        warnings.warn("k=1 yields a single class; the classifier is degenerate",
                      stacklevel=2)
    profile = mpdist_profile_matrix(values, m, ell)
    n_retained = profile.subseq_starts.shape[0]
    if n_retained == 0:
        raise ValueError("insufficient clean data: every subsequence has gaps")
    n_segments = profile.dist.shape[0]
    if n_segments == 0:
        raise ValueError("insufficient clean data: every segment has gaps")
    if k > n_segments:
        raise ValueError(f"k={k} exceeds the {n_segments} retained segments")

    # Most-attracting segments first. Rows are in ascending segment order,
    # and argmin and the stable sorts keep the first of equals, so every
    # tie goes to the smaller index. argmin over axis 0 would copy all of
    # dist to reduce it; 1024 columns at a time copy one block.
    closest = [np.argmin(profile.dist[:, lo:lo + 1024], axis=0)
               for lo in range(0, profile.dist.shape[1], 1024)]
    counts = np.bincount(np.concatenate(closest), minlength=n_segments)
    chosen = np.argsort(-counts, kind="stable")[:k]
    # Every subsequence then belongs to its nearest chosen segment, so
    # the ranks partition the retained subsequences and the fracs sum to
    # exactly 1. Ties go to the stronger candidate.
    nearest = np.argmin(profile.dist[chosen], axis=0)
    sizes = np.bincount(nearest, minlength=k)
    order = np.lexsort((chosen, -sizes))
    ranks = np.full(values.shape[0] - m + 1, -1)
    ranks[profile.subseq_starts - 1] = np.argsort(order)[nearest]

    items = tuple(
        Snippet(index=int(idx), values=values[(idx - 1) * m:idx * m].copy(),
                frac=int(size) / n_retained)
        for idx, size in zip(profile.segment_indices[chosen[order]], sizes[order]))
    return SnippetSet(coord=coord, m=m, k=k, ell=ell, items=items, ranks=ranks)


def find_all_snippets(ts: TimeSeries, m: int, k: int,
                      ell: int | None = None) -> list[SnippetSet]:
    """Run snippet discovery on every coordinate independently."""
    return [find_snippets(ts.coord(j), m, k, ell=ell, coord=j) for j in range(ts.d)]


def label_subsequence(starts, sset: SnippetSet) -> np.ndarray:
    """1-based snippet rank of each subsequence at 1-based ``starts``.

    A subsequence takes the rank of the snippet that holds its start in
    ``sset.ranks``. A start outside the series the set was found on, or
    one whose subsequence had a gap there, raises ``ValueError``.
    """
    starts = np.asarray(starts)
    n_starts = sset.ranks.shape[0]
    outside = (starts < 1) | (starts > n_starts)
    if outside.any():
        raise ValueError(f"subsequence start {starts[outside].flat[0]} is outside 1..{n_starts}")
    ranks = sset.ranks[starts - 1]
    unranked = ranks < 0
    if unranked.any():
        raise ValueError(f"subsequence at start {starts[unranked].flat[0]} has a gap")
    return ranks + 1


def snippet_values(sets: list[SnippetSet]) -> np.ndarray:
    """(d, K, m) array of every coordinate's snippet values, rank order."""
    return np.stack([[s.values for s in sset.items] for sset in sets])


def snippet_sets_to_json(sets: list[SnippetSet]) -> str:
    payload = [
        {
            "coord": s.coord,
            "m": s.m,
            "k": s.k,
            "ell": s.ell,
            "items": [
                {
                    "index": item.index,
                    "frac": item.frac,
                    "values": [float(v) for v in item.values],
                    "neighbors": (np.flatnonzero(s.ranks == r) + 1).tolist(),
                }
                for r, item in enumerate(s.items)
            ],
        }
        for s in sets
    ]
    return json.dumps(payload, indent=2, sort_keys=True)


def write_snippets_json(sets: list[SnippetSet], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(snippet_sets_to_json(sets))
        fh.write("\n")

