import json
import tracemalloc

import numpy as np
import pytest

from conftest import two_regime_series
from saeti.core_ts import minmax_normalize
from saeti.mpdist import mpdist_profile_matrix
from saeti.snippets import (
    find_all_snippets,
    find_snippets,
    label_subsequence,
    snippet_sets_to_json,
    write_snippets_json,
)


def test_neighbor_sets_partition_random_series():
    rng = np.random.default_rng(77)
    for trial in range(15):
        n = int(rng.integers(120, 300))
        m = int(rng.integers(8, 20))
        x = rng.normal(size=n)
        k = min(2 + trial % 3, n // m)
        sset = find_snippets(x, m, k)
        assert sset.ranks.shape == (n - m + 1,)
        assert ((sset.ranks >= 0) & (sset.ranks < k)).all()  # every start, one set
        for r, s in enumerate(sset.items):
            assert s.frac == np.count_nonzero(sset.ranks == r) / (n - m + 1)
        assert abs(sum(s.frac for s in sset.items) - 1.0) <= 1e-12


def test_fracs_ordered_non_increasing():
    rng = np.random.default_rng(123)
    x = rng.normal(size=240)
    sset = find_snippets(x, 12, 4)
    fracs = [s.frac for s in sset.items]
    assert fracs == sorted(fracs, reverse=True)


def test_two_regime_series_splits_evenly():
    ts = two_regime_series(n=2000, block=400)
    norm, _ = minmax_normalize(ts)
    sset = find_snippets(norm.values[:, 0], 40, 2)
    # one snippet per regime, both claiming near half of the windows
    assert 0.4 <= sset.items[0].frac <= 0.6
    assert 0.4 <= sset.items[1].frac <= 0.6
    seg_starts = [(s.index - 1) * 40 for s in sset.items]
    regimes = {(st // 400) % 2 for st in seg_starts}
    assert regimes == {0, 1}


def test_snippet_values_are_the_segment_values():
    rng = np.random.default_rng(2)
    x = rng.normal(size=120)
    sset = find_snippets(x, 12, 2)
    for s in sset.items:
        st = (s.index - 1) * 12
        assert np.array_equal(s.values, x[st:st + 12])


def test_find_snippets_tie_goes_to_earlier_segment():
    # identical halves: every window ties between segments, segment 1 wins
    x = np.tile(np.sin(np.arange(8.0)), 4)
    assert (mpdist_profile_matrix(x, 8).dist == 0.0).all()
    sset = find_snippets(x, 8, 2)
    assert sset.items[0].index == 1 and sset.items[0].frac == 1.0
    assert (sset.ranks == 0).all()


def test_ties_go_to_the_earlier_segment_across_column_blocks():
    # 2 393 columns: the argmin runs over three column blocks
    x = np.tile(np.sin(np.arange(8.0)), 300)
    assert (mpdist_profile_matrix(x, 8).dist == 0.0).all()
    sset = find_snippets(x, 8, 3)
    assert [s.index for s in sset.items] == [1, 2, 3] and sset.items[0].frac == 1.0
    assert (sset.ranks == 0).all()


def test_find_snippets_reduces_the_distance_matrix_without_copying_it():
    """The traced peak of find_snippets stays below 1.8 x ``dist.nbytes``.

    Calibrated at n = 10 000, m = 32 (a 312 x 9 969 matrix, 24.9 MB): the
    matrix build peaks at 1.60 x, and an argmin over axis 0 of the whole
    matrix, which copies it, took the peak to 2.01 x.
    """
    rng = np.random.default_rng(5)
    t = np.arange(10_000)
    x = np.sin(2 * np.pi * t / (17 + 10 * ((t // 500) % 3))) + 0.1 * rng.normal(size=t.size)
    dist = mpdist_profile_matrix(x, 32).dist
    closest = np.argmin(dist, axis=0)
    tracemalloc.start()
    try:
        sset = find_snippets(x, 32, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.8 * dist.nbytes, (peak, dist.nbytes)
    chosen = np.argsort(-np.bincount(closest, minlength=dist.shape[0]), kind="stable")[:3]
    assert sorted(s.index for s in sset.items) == sorted(chosen + 1)


def test_k_validation():
    rng = np.random.default_rng(0)
    x = rng.normal(size=60)
    with pytest.raises(ValueError, match="exceeds the"):
        find_snippets(x, 12, 6)
    with pytest.raises(ValueError):
        find_snippets(x, 12, 0)
    with pytest.warns(UserWarning, match="degenerate"):
        find_snippets(x, 12, 1)


def test_all_gaps_is_an_error():
    x = np.full(80, np.nan)
    x[::9] = 1.0  # no clean window of length 8 anywhere
    with pytest.raises(ValueError, match="insufficient clean data"):
        find_snippets(x, 8, 2)


def test_label_by_neighbor_membership():
    rng = np.random.default_rng(31)
    x = rng.normal(size=160)
    sset = find_snippets(x, 16, 3)
    items = json.loads(snippet_sets_to_json([sset]))[0]["items"]
    for rank, starts in enumerate((item["neighbors"] for item in items), start=1):
        assert label_subsequence(starts[0], sset) == rank
        assert (label_subsequence(starts, sset) == rank).all()
    every = np.arange(1, 146)
    assert np.array_equal(label_subsequence(every, sset), sset.ranks + 1)


def test_label_rejects_gaps():
    x = np.random.default_rng(1).normal(size=80)
    x[40] = np.nan
    sset = find_snippets(x, 8, 2)
    assert label_subsequence(33, sset) >= 1 and label_subsequence(42, sset) >= 1
    for start in (34, 41):  # first and last window holding row 40 (1-based 41)
        with pytest.raises(ValueError, match=f"start {start} has a gap"):
            label_subsequence([1, start], sset)
    for start in (0, -1, 74):  # 80 - 8 + 1 = 73 starts
        with pytest.raises(ValueError, match=f"start {start} is outside 1..73"):
            label_subsequence(np.array([1, start]), sset)


def test_find_all_snippets_covers_each_coordinate():
    ts = two_regime_series(n=800, block=200)
    norm, _ = minmax_normalize(ts)
    sets = find_all_snippets(norm, 16, 2)
    assert [s.coord for s in sets] == [0, 1]


def test_json_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(55)
    ts = two_regime_series(n=800, block=200)
    norm, _ = minmax_normalize(ts)
    sets = find_all_snippets(norm, 16, 2)
    path = tmp_path / "snips.json"
    write_snippets_json(sets, path)
    assert path.read_text() == snippet_sets_to_json(sets) + "\n"
    back = json.loads(path.read_text())
    for a, b in zip(sets, back, strict=True):
        assert (a.coord, a.m, a.k, a.ell) == (b["coord"], b["m"], b["k"], b["ell"])
        for r, (sa, sb) in enumerate(zip(a.items, b["items"], strict=True)):
            assert sa.index == sb["index"]
            assert sa.frac == sb["frac"]
            assert np.array_equal(np.flatnonzero(a.ranks == r) + 1, sb["neighbors"])
            assert np.array_equal(sa.values, sb["values"])
