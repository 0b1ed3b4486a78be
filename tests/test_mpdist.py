import numpy as np
import pytest

from saeti.mpdist import (
    default_inner_window,
    mpdist,
    mpdist_profile_matrix,
    znorm_dist_profile,
    znorm_windows,
)


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


def test_profile_matrix_excludes_gapped_rows_and_columns():
    rng = np.random.default_rng(6)
    x = rng.normal(size=120)
    x[30] = np.nan  # inside segment 3 for m=12
    pm = mpdist_profile_matrix(x, 12)
    assert 3 in pm.excluded_segments
    assert 3 not in pm.segment_indices
    # every subsequence window touching index 30 is gone
    for st in pm.subseq_starts:
        assert not (st <= 31 <= st + 11)
    assert not np.isnan(pm.dist).any()
    assert np.isfinite(pm.dist).all()
