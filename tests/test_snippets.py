import json

import numpy as np
import pytest

from conftest import two_regime_series
from saeti.core_ts import minmax_normalize
from saeti.mpdist import mpdist, mpdist_profile_matrix
from saeti.snippets import (
    assign_neighbors,
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
        starts = [set(s.neighbors) for s in sset.items]
        union = set().union(*starts)
        assert sum(len(s) for s in starts) == len(union)  # disjoint
        assert union == set(range(1, n - m + 2))          # full coverage
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
    sset = find_snippets(norm.coord(0), 40, 2)
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


def test_assign_neighbors_tie_goes_to_earlier_segment():
    # identical halves: every window ties between segments, argmin row 0 wins
    x = np.tile(np.sin(np.arange(8.0)), 4)
    pm = mpdist_profile_matrix(x, 8)
    assignment = assign_neighbors(pm)
    assert set(assignment.values()) == {1}


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
    for rank, snip in enumerate(sset.items, start=1):
        start = sorted(snip.neighbors)[0]
        assert label_subsequence(x[start - 1:start + 15], start, sset) == rank


def test_label_foreign_window_by_nearest_snippet():
    rng = np.random.default_rng(8)
    x = rng.normal(size=160)
    sset = find_snippets(x, 16, 2)
    q = rng.normal(size=16)
    got = label_subsequence(q, 999, sset)
    dists = [mpdist(q, s.values, sset.ell) for s in sset.items]
    assert got == int(np.argmin(dists)) + 1


def test_label_rejects_gaps():
    sset = find_snippets(np.random.default_rng(1).normal(size=80), 8, 2)
    vals = np.ones(8)
    vals[3] = np.nan
    with pytest.raises(ValueError):
        label_subsequence(vals, 1, sset)


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
        for sa, sb in zip(a.items, b["items"], strict=True):
            assert sa.index == sb["index"]
            assert sa.frac == sb["frac"]
            assert sa.neighbors == frozenset(sb["neighbors"])
            assert np.array_equal(sa.values, sb["values"])
