import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import minimum_filter1d

from conftest import three_regime_series, two_regime_series
from saeti.core_ts import TimeSeries
from saeti.mpdist import (
    ProfileMatrix,
    default_inner_window,
    mpdist,
    mpdist_profile_matrix,
    znorm_dist_profile,
    znorm_windows,
)
from saeti.snippets import find_all_snippets, snippet_sets_to_json

MPDIST = importlib.import_module("saeti.mpdist")
SNIPPETS = importlib.import_module("saeti.snippets")


def brute_mpdist(a, b, ell):
    """Straight-from-the-definition oracle, loops and all."""
    def znorm_all(x):
        out = []
        for i in range(len(x) - ell + 1):
            w = x[i:i + ell]
            sd = w.std()
            out.append(np.zeros(ell) if sd == 0 else (w - w.mean()) / sd)
        return np.array(out)

    za, zb = znorm_all(np.asarray(a, float)), znorm_all(np.asarray(b, float))
    table = np.sqrt(((za[:, None, :] - zb[None, :, :]) ** 2).sum(axis=-1))
    pool = np.concatenate([table.min(axis=1), table.min(axis=0)])
    k = int(np.ceil(0.05 * (len(a) + len(b))))
    k = min(k, pool.shape[0])
    return float(np.sort(pool)[k - 1])


def test_matches_brute_force_on_random_pairs():
    rng = np.random.default_rng(42)
    for _ in range(60):
        m = int(rng.integers(8, 50))
        a = rng.normal(size=m) * rng.uniform(0.5, 20)
        b = rng.normal(size=m) * rng.uniform(0.5, 20)
        ell = default_inner_window(m)
        assert abs(mpdist(a, b) - brute_mpdist(a, b, ell)) <= 1e-9


def test_self_distance_is_exactly_zero():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.normal(size=24)
        assert mpdist(a, a) == 0.0


def test_symmetry_is_exact():
    rng = np.random.default_rng(9)
    a, b = rng.normal(size=30), rng.normal(size=30)
    assert mpdist(a, b) == mpdist(b, a)


def test_offset_and_scale_invariance():
    rng = np.random.default_rng(14)
    a = rng.normal(size=32)
    b = 100.0 + 7.0 * a
    assert mpdist(a, b) <= 1e-9


def test_constant_window_znorms_to_zeros():
    z = znorm_windows(np.array([2.0, 2.0, 2.0, 2.0, 5.0]), 3)
    assert np.all(z[0] == 0.0)
    assert not np.isnan(z).any()


def test_constant_inputs_agree_with_oracle():
    a = np.full(16, 3.3)
    b = np.sin(np.arange(16.0))
    ell = default_inner_window(16)
    assert abs(mpdist(a, b) - brute_mpdist(a, b, ell)) <= 1e-12
    assert mpdist(a, a) == 0.0


def test_custom_inner_window_and_default():
    assert default_inner_window(4) == 2
    assert default_inner_window(5) == 3
    rng = np.random.default_rng(8)
    a, b = rng.normal(size=20), rng.normal(size=20)
    assert abs(mpdist(a, b, ell=7) - brute_mpdist(a, b, 7)) <= 1e-9


def test_unequal_lengths_rejected():
    with pytest.raises(ValueError):
        mpdist(np.zeros(10), np.zeros(12))


def test_profile_matrix_rejects_bad_segment_length():
    with pytest.raises(ValueError, match="segment too short: m=3"):
        mpdist_profile_matrix(np.arange(10.0), 3)
    with pytest.raises(ValueError, match="m=6 exceeds series length n=5"):
        mpdist_profile_matrix(np.arange(5.0), 6)
    for ell in (1, 0, -3):
        with pytest.raises(ValueError, match=f"inner window ell={ell} is below 2"):
            mpdist_profile_matrix(np.arange(40.0), 8, ell)
        with pytest.raises(ValueError, match=f"inner window ell={ell} is below 2"):
            mpdist(np.arange(8.0), np.arange(8.0), ell)
    with pytest.raises(ValueError, match="ell=9 exceeds window length m=8"):
        mpdist_profile_matrix(np.arange(40.0), 8, 9)


def test_gap_input_rejected():
    a = np.arange(12.0)
    a[4] = np.nan
    with pytest.raises(ValueError, match="gap in MPdist input"):
        mpdist(a, np.arange(12.0))


def test_distance_profile_shape_and_minimum():
    rng = np.random.default_rng(21)
    target = rng.normal(size=50)
    query = target[17:25].copy()
    prof = znorm_dist_profile(query, target, 8)
    assert prof.shape == (43,)
    assert prof[17] <= 1e-9
    assert np.argmin(prof) == 17


def test_profile_matrix_matches_direct_calls():
    rng = np.random.default_rng(33)
    x = rng.normal(size=160)
    m = 16
    pm = mpdist_profile_matrix(x, m)
    ell = default_inner_window(m)
    assert pm.dist.shape == (10, 145)
    for row, seg in enumerate(pm.segment_indices):
        seg_vals = x[(seg - 1) * m:seg * m]
        for col in range(0, pm.dist.shape[1], 29):
            st = pm.subseq_starts[col]
            direct = mpdist(seg_vals, x[st - 1:st - 1 + m], ell)
            assert abs(direct - pm.dist[row, col]) <= 1e-9


def test_profile_matrix_self_column_is_zero():
    rng = np.random.default_rng(4)
    x = rng.normal(size=120)
    pm = mpdist_profile_matrix(x, 12)
    for row, seg in enumerate(pm.segment_indices):
        col = np.where(pm.subseq_starts == (seg - 1) * 12 + 1)[0][0]
        assert pm.dist[row, col] == 0.0


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 20), st.integers(1, 3), st.integers(1, 12),
       st.sampled_from([0.0, 0.2, 0.6]), st.integers(0, 2**32 - 1))
def test_pooled_kth_equals_partition_of_the_explicit_pool(width, rows, n_sub, inf_share, seed):
    """Every k from 1 to 2 * width, on few distinct values (many ties) and +inf."""
    rng = np.random.default_rng(seed)
    d2 = rng.choice([0.0, 0.25, 1.0, 2.0, 3.5], size=(rows, width, n_sub + width - 1))
    d2[rng.random(d2.shape) < inf_share] = np.inf
    subseq_half = sliding_window_view(d2.min(axis=1), width, axis=1)
    segment_half = sliding_window_view(d2, width, axis=2).min(axis=3).transpose(0, 2, 1)
    pool = np.concatenate([subseq_half, segment_half], axis=2)
    assert pool.shape == (rows, n_sub, 2 * width)
    for k in range(1, 2 * width + 1):
        want = np.partition(pool, k - 1, axis=2)[..., k - 1]
        assert np.array_equal(MPDIST._pooled_kth(d2, k), want), k


def test_profile_matrix_excludes_gapped_rows_and_columns():
    rng = np.random.default_rng(6)
    x = rng.normal(size=120)
    x[30] = np.nan  # inside segment 3 for m=12
    pm = mpdist_profile_matrix(x, 12)
    # segment 3 is the only one left out, and so are exactly the 12
    # subsequences that touch index 30 (1-based point 31)
    assert np.setdiff1d(np.arange(1, 11), pm.segment_indices).tolist() == [3]
    assert np.setdiff1d(np.arange(1, 110), pm.subseq_starts).tolist() == list(range(20, 32))
    assert not np.isnan(pm.dist).any()
    assert np.isfinite(pm.dist).all()


def reference_profile_matrix(values, m, ell=None):
    """The explicit-difference loop the matrix-product form replaced.

    For every segment and every one of its inner windows, a full
    difference array against all windows of the coordinate.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if ell is None:
        ell = default_inner_window(m)
    n_seg, width = n // m, m - ell + 1
    k = math.ceil(0.05 * (2 * m))
    finite = ~np.isnan(values)
    sub_ok = sliding_window_view(finite, m).all(axis=1)
    seg_ok = np.array([finite[r * m:(r + 1) * m].all() for r in range(n_seg)])
    zt = znorm_windows(values, ell)
    kept_segments, kept_subs = np.flatnonzero(seg_ok), np.flatnonzero(sub_ok)
    dist = np.empty((kept_segments.shape[0], kept_subs.shape[0]))
    for row, r in enumerate(kept_segments):
        prof = np.empty((width, zt.shape[0]))
        for w in range(width):
            diff = zt - zt[r * m + w][None, :]
            prof[w] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        prof[np.isnan(prof)] = np.inf
        ab = sliding_window_view(prof.min(axis=0), width)
        full = minimum_filter1d(prof, size=width, axis=-1, mode="constant", cval=np.inf)
        ba = full[:, width // 2:width // 2 + n - m + 1]
        pool = np.concatenate([ab[kept_subs], ba[:, kept_subs].T], axis=1)
        kk = min(k, pool.shape[1])
        dist[row] = np.partition(pool, kk - 1, axis=1)[:, kk - 1]
    return ProfileMatrix(
        dist=dist,
        segment_indices=kept_segments + 1,
        subseq_starts=kept_subs + 1,
        m=m,
        ell=ell,
    )


def _walks_with_gaps():
    """Random walks with NaN gaps, constant stretches and copied blocks.

    The copies land off the segment grid, so later segments reuse earlier
    windows out of order.
    """
    rng = np.random.default_rng(17)
    cols = np.cumsum(rng.normal(size=(900, 2)), axis=0)
    cols[100:150, 0] = 2.5
    cols[400:413, 1] = -1.0
    cols[rng.integers(0, 900, 6), 0] = np.nan
    cols[rng.integers(0, 900, 3), 1] = np.nan
    for src, dst, length in ((37, 605, 70), (5, 243, 40), (300, 770, 50), (130, 460, 30)):
        cols[dst:dst + length] = cols[src:src + length]
    return TimeSeries.from_values(cols), 12, 3


def _planted_blocks():
    """Bit-exact blocks of lengths off the segment grid, tiled in runs."""
    rng = np.random.default_rng(23)
    alphabet = [np.round(rng.normal(size=size), 2) for size in (7, 11, 20)]
    cols = []
    for _ in range(2):
        parts = [np.tile(alphabet[i], reps)
                 for i, reps in zip(rng.integers(0, 3, 40), rng.integers(1, 5, 40))]
        cols.append(np.concatenate(parts)[:1200])
    return TimeSeries.from_values(np.stack(cols, axis=1)), 16, 4


REFERENCE_FIXTURES = {
    "three_regime": lambda: (three_regime_series(n=2400), 32, 3),
    "two_regime": lambda: (two_regime_series(), 16, 2),
    "walks_with_gaps": _walks_with_gaps,
    "planted_blocks": _planted_blocks,
}


@pytest.mark.parametrize("per_chunk", [None, 1, 3], ids=["default", "1seg", "3seg"])
@pytest.mark.parametrize("name", sorted(REFERENCE_FIXTURES))
def test_profile_matrix_matches_explicit_differences(name, per_chunk, monkeypatch):
    """Same zeros, same nearest segments and the same snippet JSON as the loop."""
    ts, m, k = REFERENCE_FIXTURES[name]()
    if per_chunk is not None:  # segments per chunk of the matrix product
        ell = default_inner_window(m)
        monkeypatch.setattr(MPDIST, "_CHUNK_ENTRIES",
                            per_chunk * (m - ell + 1) * (ts.n - ell + 1))
    for j in range(ts.d):
        got = mpdist_profile_matrix(ts.values[:, j], m)
        ref = reference_profile_matrix(ts.values[:, j], m)
        for field in ("segment_indices", "subseq_starts"):
            assert np.array_equal(getattr(got, field), getattr(ref, field)), field
        assert np.array_equal(got.dist == 0.0, ref.dist == 0.0)
        assert np.abs(got.dist - ref.dist).max() <= 1e-12
        assert np.array_equal(got.dist.argmin(axis=0), ref.dist.argmin(axis=0))
    got_json = snippet_sets_to_json(find_all_snippets(ts, m, k))
    monkeypatch.setattr(SNIPPETS, "mpdist_profile_matrix", reference_profile_matrix)
    assert got_json == snippet_sets_to_json(find_all_snippets(ts, m, k))


def _three_step_chunks(values, m):
    """Each chunk's squared distances as ``zc @ (-2 zc).T + |a|^2 + |b|^2``.

    The formulation with two separate additions, chunked, deduplicated,
    recomputed near zero and gathered back to every window as
    ``mpdist_profile_matrix`` does, for a gap-free coordinate.
    """
    ell = default_inner_window(m)
    width = m - ell + 1
    zt = znorm_windows(values, ell)
    n_win = zt.shape[0]
    _, first, inverse = np.unique(zt, axis=0, return_index=True, return_inverse=True)
    cols = np.sort(first)
    col_of = np.searchsorted(cols, first[inverse.reshape(-1)])
    zc = zt[cols]
    sq = np.einsum("ij,ij->i", zc, zc)
    zm2 = -2.0 * zc
    seg_cols = col_of[np.arange(values.shape[0] // m)[:, None] * m + np.arange(width)]
    uniq_segs = np.unique(seg_cols, axis=0)
    chunk = max(1, MPDIST._CHUNK_ENTRIES // (width * n_win))
    for lo in range(0, uniq_segs.shape[0], chunk):
        rows, row_of = np.unique(uniq_segs[lo:lo + chunk], return_inverse=True)
        d2 = zc[rows] @ zm2.T
        d2 += sq[rows, None]
        d2 += sq
        near_r, near_c = np.divmod(np.flatnonzero(d2 < MPDIST._EXACT_SQ_DIST), d2.shape[1])
        diff = zc[rows[near_r]] - zc[near_c]
        d2[near_r, near_c] = np.einsum("ij,ij->i", diff, diff)
        yield d2[np.ix_(row_of.reshape(-1), col_of)].reshape(-1, width, n_win)


FOLDED_FIXTURES = {
    "noisy": lambda: (three_regime_series(n=10000).values[:, 0]
                      + np.random.default_rng(5).normal(0.0, 0.02, 10000), 32),
    "planted_regimes": lambda: (three_regime_series(n=10000).values[:, 1], 32),
    "planted_blocks": lambda: (_planted_blocks()[0].values[:, 0], 16),
}


@pytest.mark.parametrize("name", sorted(FOLDED_FIXTURES))
def test_folded_norms_keep_the_bits_of_the_three_step_product(name, monkeypatch):
    """The norms inside the GEMM give every chunk the bits of two separate adds."""
    values, m = FOLDED_FIXTURES[name]()
    seen = []
    pooled_kth = MPDIST._pooled_kth
    monkeypatch.setattr(MPDIST, "_pooled_kth",
                        lambda d2, k: seen.append(d2.copy()) or pooled_kth(d2, k))
    mpdist_profile_matrix(values, m)
    want = list(_three_step_chunks(values, m))
    assert len(seen) == len(want) >= 1
    for got, ref in zip(seen, want):
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
