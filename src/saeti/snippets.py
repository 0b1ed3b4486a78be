"""Behavioral-pattern (snippet) discovery over one coordinate at a time.

A snippet is one of the disjoint length-m segments of a coordinate,
chosen because many subsequences are closer to it (in MPdist) than to
any other segment. Each snippet carries the segment index, the set of
subsequence start positions assigned to it (its neighbors) and its
significance ``frac`` = share of retained subsequences in the neighbor
set. Snippets are ordered by non-increasing frac.

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
from .mpdist import ProfileMatrix, default_inner_window, mpdist, mpdist_profile_matrix

__all__ = [
    "Snippet",
    "SnippetSet",
    "assign_neighbors",
    "find_snippets",
    "find_all_snippets",
    "label_subsequence",
    "snippet_values",
    "snippet_sets_to_json",
    "write_snippets_json",
]


@dataclass(frozen=True)
class Snippet:
    """One chosen segment with its neighbor set and significance."""

    coord: int
    index: int                 # 1-based segment number
    values: np.ndarray         # the segment's own length-m values
    neighbors: frozenset[int]  # 1-based subsequence start positions
    frac: float


@dataclass(frozen=True)
class SnippetSet:
    """The K most significant snippets of one coordinate, frac-ordered."""

    coord: int
    m: int
    k: int
    ell: int
    items: tuple[Snippet, ...]


def assign_neighbors(profile: ProfileMatrix) -> dict[int, int]:
    """Map each retained subsequence start to its closest segment index.

    Per-column argmin of the MPdist matrix; ties break toward the smaller
    segment index (rows are in ascending segment order, argmin returns the
    first minimum).
    """
    if profile.dist.shape[0] == 0:
        raise ValueError("profile matrix has no retained segments")
    rows = np.argmin(profile.dist, axis=0)
    return {
        int(start): int(profile.segment_indices[row])
        for start, row in zip(profile.subseq_starts, rows)
    }


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
    if ell is None:
        ell = default_inner_window(m)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        warnings.warn("k=1 yields a single class; the classifier is degenerate",
                      stacklevel=2)
    profile = mpdist_profile_matrix(values, m, ell)
    if profile.subseq_starts.shape[0] == 0:
        raise ValueError("insufficient clean data: every subsequence has gaps")
    n_segments = profile.dist.shape[0]
    if n_segments == 0:
        raise ValueError("insufficient clean data: every segment has gaps")
    if k > n_segments:
        raise ValueError(
            f"k={k} exceeds the {n_segments} retained segments"
        )

    assignment = assign_neighbors(profile)
    n_retained = profile.subseq_starts.shape[0]

    counts: dict[int, int] = {int(idx): 0 for idx in profile.segment_indices}
    for seg in assignment.values():
        counts[seg] += 1

    # Most-attracting segments first, ties toward the smaller index.
    ranking = sorted(counts, key=lambda idx: (-counts[idx], idx))
    chosen = ranking[:k]

    # Every subsequence then belongs to its nearest chosen segment, so
    # the k neighbor sets partition the retained subsequences and the
    # fracs sum to exactly 1. Ties go to the stronger candidate.
    row_of = {int(idx): r for r, idx in enumerate(profile.segment_indices)}
    sub_rows = profile.dist[[row_of[idx] for idx in chosen]]
    nearest = np.argmin(sub_rows, axis=0)
    neighbor_sets: dict[int, set[int]] = {idx: set() for idx in chosen}
    for start, which in zip(profile.subseq_starts, nearest):
        neighbor_sets[chosen[which]].add(int(start))

    order = sorted(chosen, key=lambda idx: (-len(neighbor_sets[idx]), idx))
    items = []
    for idx in order:
        start0 = (idx - 1) * m
        items.append(Snippet(
            coord=coord,
            index=idx,
            values=values[start0:start0 + m].copy(),
            neighbors=frozenset(neighbor_sets[idx]),
            frac=len(neighbor_sets[idx]) / n_retained,
        ))
    return SnippetSet(coord=coord, m=m, k=k, ell=ell, items=tuple(items))


def find_all_snippets(ts: TimeSeries, m: int, k: int,
                      ell: int | None = None) -> list[SnippetSet]:
    """Run snippet discovery on every coordinate independently."""
    return [
        find_snippets(ts.coord(j), m, k, ell=ell, coord=j) for j in range(ts.d)
    ]


def label_subsequence(values: np.ndarray, start: int, sset: SnippetSet) -> int:
    """Class (1..K) of a gap-free window of one coordinate under a snippet set.

    ``values`` are the window's length-m values and ``start`` its 1-based
    position. A start recorded in some snippet's neighbor set gets that
    snippet's rank directly. Anything else (a neighbor of a non-selected
    segment, or a window from another series) is labeled by the
    MPdist-nearest snippet, ties toward the better rank.
    """
    if np.isnan(values).any():
        raise ValueError("cannot label a subsequence containing gaps")
    if not sset.items:
        raise ValueError("empty snippet set")
    for rank, snippet in enumerate(sset.items, start=1):
        if start in snippet.neighbors:
            return rank
    dists = [mpdist(values, s.values, sset.ell) for s in sset.items]
    return int(np.argmin(dists)) + 1


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
                    "neighbors": sorted(item.neighbors),
                }
                for item in s.items
            ],
        }
        for s in sets
    ]
    return json.dumps(payload, indent=2, sort_keys=True)


def write_snippets_json(sets: list[SnippetSet], path) -> None:
    with open(path, "w") as fh:
        fh.write(snippet_sets_to_json(sets))
        fh.write("\n")

