import numpy as np
import pytest

from saeti.core_ts import TimeSeries
from saeti.scenarios import (
    baseline_linear,
    baseline_mean,
    gen_blackout,
    gen_mcar,
    gen_ts_nbr,
    rmse,
)


def full_series(n=200, d=3, seed=0):
    vals = np.random.default_rng(seed).normal(size=(n, d))
    return TimeSeries.from_values(vals)


def test_blackout_hides_one_aligned_block():
    ts = full_series()
    gapped, hidden = gen_blackout(ts, 15, 3)
    rows = np.flatnonzero(hidden.any(axis=1))
    assert len(rows) == 15
    assert np.array_equal(rows, np.arange(rows[0], rows[0] + 15))
    assert hidden[rows].all()  # every coordinate in the block
    assert int(hidden.sum()) == 15 * ts.d
    assert gapped.mask.sum() == ts.mask.sum() - hidden.sum()


def test_blackout_never_overlaps_existing_gaps():
    vals = np.random.default_rng(1).normal(size=(60, 2))
    vals[10:40, 0] = np.nan
    ts = TimeSeries.from_values(vals)
    for seed in range(10):
        _, hidden = gen_blackout(ts, 8, seed)
        assert not (hidden & ~ts.mask).any()
        s = np.flatnonzero(hidden.any(axis=1))[0]
        assert s + 8 <= 10 or s >= 40


def test_blackout_impossible_when_no_clean_stretch():
    vals = np.random.default_rng(2).normal(size=(40, 2))
    vals[::5, 0] = np.nan
    ts = TimeSeries.from_values(vals)
    with pytest.raises(ValueError, match="no fully observed stretch"):
        gen_blackout(ts, 10, 0)
    with pytest.raises(ValueError, match="out of range"):
        gen_blackout(full_series(), 500, 0)


def test_blackout_seeded_determinism():
    ts = full_series()
    _, h1 = gen_blackout(ts, 12, 42)
    _, h2 = gen_blackout(ts, 12, 42)
    _, h3 = gen_blackout(ts, 12, 43)
    assert np.array_equal(h1, h2)
    assert not np.array_equal(h1, h3)


def test_mcar_reaches_requested_rate():
    ts = full_series(n=400)
    gapped, hidden = gen_mcar(ts, 0.25, 7)
    frac = (~gapped.mask).sum() / gapped.mask.size
    assert frac >= 0.25
    assert frac < 0.35  # block granularity keeps the overshoot small
    assert not (hidden & ~ts.mask).any()


def test_mcar_counts_existing_gaps_toward_rate():
    vals = np.random.default_rng(3).normal(size=(100, 2))
    vals[:30, :] = np.nan  # 30% already missing
    ts = TimeSeries.from_values(vals)
    gapped, hidden = gen_mcar(ts, 0.25, 1)
    assert hidden.sum() == 0  # already past the target


def _mcar_hidden_reference(ts, rate, seed, block_len=10):
    """The full-mask loop gen_mcar replaced: re-sums every draw."""
    rng = np.random.default_rng(seed)
    hidden = np.zeros_like(ts.mask)
    already = ts.mask.size - int(ts.mask.sum())
    while already + hidden.sum() < rate * ts.mask.size:
        j = int(rng.integers(ts.d))
        s = int(rng.integers(ts.n - block_len + 1))
        block = np.zeros_like(ts.mask)
        block[s:s + block_len, j] = True
        hidden |= block & ts.mask
    return hidden


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
@pytest.mark.parametrize("rate", [0.05, 0.25, 0.6])
def test_mcar_matches_full_mask_loop(seed, rate):
    vals = np.random.default_rng(seed).normal(size=(300, 3))
    vals[40:70, 1] = np.nan  # existing gaps count toward the rate
    vals[::17, 2] = np.nan
    for ts in (full_series(n=300), TimeSeries.from_values(vals)):
        _, hidden = gen_mcar(ts, rate, seed)
        assert np.array_equal(hidden, _mcar_hidden_reference(ts, rate, seed))


def test_mcar_rate_validation():
    ts = full_series()
    with pytest.raises(ValueError):
        gen_mcar(ts, 0.0, 0)
    with pytest.raises(ValueError):
        gen_mcar(ts, 1.0, 0)
    with pytest.raises(ValueError, match="block length 10 exceeds n=9"):
        gen_mcar(full_series(n=9), 0.2, 0)


def test_ts_nbr_single_coordinate_block():
    ts = full_series(n=300)
    gapped, hidden = gen_ts_nbr(ts, rng=11)
    cols = np.flatnonzero(hidden.any(axis=0))
    assert len(cols) == 1
    rows = np.flatnonzero(hidden[:, cols[0]])
    assert len(rows) == 30  # default: a tenth of the series
    assert np.array_equal(rows, np.arange(rows[0], rows[0] + 30))


def test_ts_nbr_length_and_coord_overrides():
    ts = full_series(n=100)
    _, hidden = gen_ts_nbr(ts, length=7, rng=5, coord=2)
    assert hidden[:, 2].sum() == 7
    assert hidden[:, :2].sum() == 0
    with pytest.raises(ValueError, match="coordinate"):
        gen_ts_nbr(ts, length=5, rng=0, coord=9)


def test_rmse_hand_values():
    a = TimeSeries.from_values(np.array([[0.0], [0.0]]))
    b = TimeSeries.from_values(np.array([[3.0], [4.0]]))
    pos = np.ones((2, 1), dtype=bool)
    assert rmse(a, b, pos) == np.sqrt(12.5)


def test_rmse_requires_positions():
    a = full_series(n=10)
    with pytest.raises(ValueError, match="nothing to score"):
        rmse(a, a, np.zeros((10, 3), dtype=bool))


def test_rmse_rejects_other_coordinate_names():
    truth = TimeSeries.from_values(np.arange(6.0).reshape(3, 2), names=("a", "b"))
    imputed = TimeSeries.from_values(truth.values[:, ::-1], names=("b", "a"))
    with pytest.raises(ValueError, match=r"imputed has coordinates \['b', 'a'\], "
                                         r"truth has \['a', 'b'\]"):
        rmse(imputed, truth, np.ones((3, 2), dtype=bool))


def test_rmse_requires_observed_truth():
    vals = np.ones((4, 1))
    truth = TimeSeries.from_values(np.array([[1.0], [np.nan], [1.0], [1.0]]))
    imputed = TimeSeries.from_values(vals)
    pos = np.zeros((4, 1), dtype=bool)
    pos[1, 0] = True
    with pytest.raises(ValueError, match="missing"):
        rmse(imputed, truth, pos)


def test_rmse_rejects_gaps_left_in_the_imputed_series():
    truth = TimeSeries.from_values(np.ones((4, 2)))
    imputed = TimeSeries.from_values(np.array([[1.0, np.nan], [np.nan, 1.0],
                                               [np.nan, 1.0], [1.0, 1.0]]))
    pos = np.ones((4, 2), dtype=bool)
    with pytest.raises(ValueError, match="still missing 3 flagged positions"):
        rmse(imputed, truth, pos)
    pos[1:3, 0] = False
    with pytest.raises(ValueError, match="still missing 1 flagged positions"):
        rmse(imputed, truth, pos)
    pos[0, 1] = False
    assert rmse(imputed, truth, pos) == 0.0


def test_baseline_mean_oracle():
    vals = np.array([[1.0, 10.0], [np.nan, 20.0], [3.0, np.nan]])
    ts = TimeSeries.from_values(vals)
    out = baseline_mean(ts)
    assert out.values[1, 0] == 2.0
    assert out.values[2, 1] == 15.0
    assert out.values[0, 0] == 1.0


def test_baseline_linear_oracle():
    vals = np.array([np.nan, 1.0, np.nan, np.nan, 4.0, np.nan]).reshape(-1, 1)
    out = baseline_linear(TimeSeries.from_values(vals))
    assert out.values[:, 0].tolist() == [1.0, 1.0, 2.0, 3.0, 4.0, 4.0]


def test_baselines_reject_empty_coordinate():
    ts = TimeSeries.from_values(np.full((5, 1), np.nan), names=("v",))
    with pytest.raises(ValueError, match="empty coordinate"):
        baseline_mean(ts)
    with pytest.raises(ValueError, match="empty coordinate"):
        baseline_linear(ts)
