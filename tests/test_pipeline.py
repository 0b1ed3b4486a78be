import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import two_regime_series
from saeti import models, pipeline
from saeti.core_ts import TimeSeries, apply_normalization, split_nonoverlapping
from saeti.models import MISSING_FILL
from saeti.pipeline import impute, impute_report
from saeti.scenarios import gen_blackout, gen_mcar


def reference_window_predictions(ts, bundle):
    """Batch-1 recognizer and reconstructor pass per gap window.

    Returns ``{0-based start: (m, d) prediction in the series' units}``
    and the (d, k) snippet usage, from a plain loop over windows.
    """
    norm = apply_normalization(ts, bundle.norm)
    clamped = np.clip(norm.values, 0.0, 1.0)
    span = bundle.norm.maxs - bundle.norm.mins
    preds, usage = {}, np.zeros((bundle.d, bundle.k), dtype=int)
    for s0, window in zip(*split_nonoverlapping(norm, bundle.m)):
        mask = ~np.isnan(window)
        if mask.all():
            continue
        inp = np.where(mask, clamped[s0:s0 + bundle.m].T, MISSING_FILL)
        labels = bundle.recognizer.predict(inp[None])[0]
        pair = np.empty((1, bundle.d, 2, bundle.m))
        pair[0, :, 0, :] = inp
        for j in range(bundle.d):
            pair[0, j, 1, :] = bundle.snippets[j, labels[j]]
            usage[j, labels[j]] += 1
        pred = bundle.reconstructor.forward(pair).data[0].T
        preds[s0] = pred * span + bundle.norm.mins
    return preds, usage


def reference_impute(ts, bundle):
    """First writer wins: windows in order, each fills what is still open."""
    preds, usage = reference_window_predictions(ts, bundle)
    out = ts.values.copy()
    open_ = ~ts.mask
    for s0, pred in preds.items():
        slot = open_[s0:s0 + bundle.m]
        out[s0:s0 + bundle.m][slot] = pred[slot]
        slot[:] = False
    return out, usage


def test_observed_points_pass_through_bit_identical(small_series, small_bundle):
    gapped, hidden = gen_blackout(small_series, 12, 5)
    out = impute(gapped, small_bundle)
    obs = gapped.mask
    assert np.array_equal(out.values[obs], gapped.values[obs])


def test_every_gap_gets_filled(small_series, small_bundle):
    gapped, _ = gen_mcar(small_series, 0.15, 9)
    out = impute(gapped, small_bundle)
    assert not np.isnan(out.values).any()
    assert out.mask.all()
    assert out.names == gapped.names


def test_imputation_is_idempotent(small_series, small_bundle):
    gapped, _ = gen_blackout(small_series, 10, 2)
    once = impute(gapped, small_bundle)
    twice = impute(once, small_bundle)
    assert np.array_equal(once.values, twice.values)


def test_complete_series_unchanged(small_series, small_bundle):
    out = impute(small_series, small_bundle)
    assert np.array_equal(out.values, small_series.values)


def test_series_length_not_multiple_of_window(small_series, small_bundle):
    vals = small_series.values[:1593].copy()
    vals[1585:1591, 0] = np.nan  # gap inside the overlapped tail window
    ts = TimeSeries.from_values(vals, names=small_series.names)
    out = impute(ts, small_bundle)
    assert not np.isnan(out.values).any()
    obs = ts.mask
    assert np.array_equal(out.values[obs], ts.values[obs])


def test_dimension_mismatch_rejected(small_bundle):
    ts = TimeSeries.from_values(np.zeros((64, 3)))
    with pytest.raises(ValueError, match="d=3"):
        impute(ts, small_bundle)


@pytest.mark.parametrize("truth_rows, message", [
    (slice(1, None), "truth has n=1599 steps, series has n=1600"),
    (slice(None), "nothing to score: truth is missing at every gap"),
])
def test_truth_is_checked_before_any_model_runs(small_series, small_bundle, monkeypatch,
                                                truth_rows, message):
    gapped, _ = gen_blackout(small_series, 10, 4)
    monkeypatch.setattr(pipeline, "infer", lambda *a, **k: pytest.fail("a model ran"))
    truth = TimeSeries(gapped.values[truth_rows], gapped.names)
    with pytest.raises(ValueError, match=message):
        impute_report(gapped, small_bundle, truth=truth)


def test_report_counters(small_series, small_bundle):
    gapped, hidden = gen_blackout(small_series, 10, 4)
    out, report = impute_report(gapped, small_bundle, truth=small_series)
    assert report["imputed_points"] == int(hidden.sum())
    assert report["windows"]["total"] == 100
    assert 1 <= report["windows"]["with_gaps"] <= 2
    assert report["clamped_points"] == 0  # same series the bundle saw
    usage = report["snippet_usage"]
    for name in gapped.names:
        assert sum(usage[name].values()) == report["windows"]["with_gaps"]
    assert report["rmse"]["overall"] >= 0
    assert set(report["rmse"]["per_coordinate"]) == set(gapped.names)


def test_out_of_range_values_are_counted(small_series, small_bundle):
    vals = small_series.values.copy()
    vals[0, 0] = 99.0   # far above the training maximum
    vals[33:40, 1] = np.nan
    ts = TimeSeries.from_values(vals, names=small_series.names)
    out, report = impute_report(ts, small_bundle)
    assert report["clamped_points"] == 1
    # the offending observed value still passes through untouched
    assert out.values[0, 0] == 99.0


def test_report_without_truth_has_no_rmse(small_series, small_bundle):
    gapped, _ = gen_blackout(small_series, 10, 4)
    _, report = impute_report(gapped, small_bundle)
    assert "rmse" not in report


def test_nothing_to_score_error(small_series, small_bundle):
    gapped, hidden = gen_blackout(small_series, 10, 4)
    blind_vals = np.where(hidden, np.nan, small_series.values)
    blind = TimeSeries.from_values(blind_vals, names=small_series.names)
    with pytest.raises(ValueError, match="nothing to score"):
        impute_report(gapped, small_bundle, truth=blind)


def test_imputation_tracks_the_right_regime(small_series, small_bundle):
    # hide a stretch inside the second regime block; predictions should
    # stay near that regime's level, far from the other regime's
    vals = small_series.values.copy()
    vals[600:610, 0] = np.nan
    ts = TimeSeries.from_values(vals, names=small_series.names)
    out = impute(ts, small_bundle)
    filled = out.values[600:610, 0]
    regime_mean = small_series.values[400:800, 0].mean()
    other_mean = small_series.values[0:400, 0].mean()
    assert np.all(np.abs(filled - regime_mean) < np.abs(filled - other_mean))


def test_batched_matches_per_window_reference(small_series, small_bundle):
    gapped, _ = gen_mcar(small_series, 0.25, 3)
    out, report = impute_report(gapped, small_bundle)
    expected, usage = reference_impute(gapped, small_bundle)
    obs = gapped.mask
    assert np.array_equal(out.values[obs], gapped.values[obs])
    assert np.max(np.abs(out.values - expected)) <= 1e-12
    got = np.array([[report["snippet_usage"][name][str(r + 1)]
                     for r in range(small_bundle.k)] for name in gapped.names])
    assert np.array_equal(got, usage)


def test_tail_overlap_written_once_by_earlier_window(small_series, small_bundle):
    m = small_bundle.m
    vals = small_series.values[:1593].copy()   # 1593 % 16 != 0
    vals[1580:1590, 0] = np.nan                # straddles the overlap 1577..1583
    ts = TimeSeries.from_values(vals, names=small_series.names)
    out = impute(ts, small_bundle)
    preds, _ = reference_window_predictions(ts, small_bundle)
    earlier, tail = 1568, 1593 - m
    assert set(preds) == {earlier, tail}
    shared = slice(1580, earlier + m)          # in both windows
    own = slice(earlier + m, 1590)             # tail window only

    def pred(start, rows):
        return preds[start][rows.start - start:rows.stop - start, 0]

    assert np.allclose(out.values[shared, 0], pred(earlier, shared), rtol=0, atol=1e-12)
    assert not np.allclose(out.values[shared, 0], pred(tail, shared))
    assert np.allclose(out.values[own, 0], pred(tail, own), rtol=0, atol=1e-12)


def test_chunked_equals_single_chunk(small_series, small_bundle, monkeypatch):
    gapped, _ = gen_mcar(small_series, 0.25, 11)
    calls = []
    forward = small_bundle.reconstructor.forward
    monkeypatch.setattr(small_bundle.reconstructor, "forward",
                        lambda x, mask: calls.append(len(x)) or forward(x, mask))
    chunked, report = impute_report(gapped, small_bundle)
    gaps = report["windows"]["with_gaps"]
    full, rest = divmod(gaps, models.GAP_CHUNK)
    assert full >= 2 and rest > 0
    assert calls == [models.GAP_CHUNK] * full + [rest]
    calls.clear()
    monkeypatch.setattr(models, "GAP_CHUNK", 10 * gaps)
    whole, report_whole = impute_report(gapped, small_bundle)
    assert calls == [gaps]
    assert np.max(np.abs(chunked.values - whole.values)) <= 1e-12
    assert report["snippet_usage"] == report_whole["snippet_usage"]


def gap_layout(layout, n, m, d, rng):
    """Missing-cell matrix (n, d) of one named layout, drawn with ``rng``."""
    missing = np.zeros((n, d), dtype=bool)
    if layout == "one coordinate":
        missing[:, rng.integers(d)] = rng.random(n) < 0.3
    elif layout == "every coordinate":
        missing[:] = rng.random((n, d)) < 0.3
    elif layout == "blackout":
        lo = rng.integers(n - 5)
        missing[lo:lo + rng.integers(1, 6)] = True
    elif layout == "covered tail":
        # Only the overlap of the last two windows: the tail window has
        # gaps, but the window before it writes every one of them.
        lo, hi = n - m, n // m * m
        missing[rng.integers(lo, hi), rng.integers(d)] = True
    return missing


@settings(max_examples=25, deadline=None)
@given(layout=st.sampled_from(["one coordinate", "every coordinate", "blackout",
                               "covered tail", "no gap"]),
       extra=st.integers(1, 15), windows=st.integers(2, 5), seed=st.integers(0, 2**16))
def test_masked_decode_matches_full_decode_for_random_gap_layouts(
        small_series, small_bundle, layout, extra, windows, seed):
    m = small_bundle.m
    n = windows * m + extra   # not a multiple of m: the tail window overlaps
    truth = small_series.values[:n]
    missing = gap_layout(layout, n, m, truth.shape[1], np.random.default_rng(seed))
    ts = TimeSeries.from_values(np.where(missing, np.nan, truth), names=small_series.names)
    out = impute(ts, small_bundle)
    expected, _ = reference_impute(ts, small_bundle)
    assert np.array_equal(out.values[~missing], truth[~missing])
    assert np.max(np.abs(out.values - expected)) <= 1e-12


def test_decoders_see_only_the_rows_that_write(small_series, small_bundle, monkeypatch):
    m, chunk = small_bundle.m, 3
    n = 10 * m + 7
    vals = small_series.values[:n].copy()
    vals[[5, 40, 70, 100], 0] = np.nan      # windows 0, 2, 4, 6: coordinate 0
    vals[[20, 70, 130], 1] = np.nan         # windows 1, 4, 8: coordinate 1
    vals[n - m + 2, 0] = np.nan             # tail overlap: window 9 writes it
    vals[n - 3, 1] = np.nan                 # the tail window's own cell
    ts = TimeSeries.from_values(vals, names=small_series.names)
    # Gap windows in order: 0, 1, 2, 4, 6, 8, 9, tail.
    writes = np.array([[1, 0], [0, 1], [1, 0], [1, 1], [1, 0], [0, 1], [1, 0], [0, 1]], bool)
    firsts = {id(stack[0].weight): j for j, stack in enumerate(small_bundle.reconstructor.decoders)}
    seen = {0: [], 1: []}
    conv1d = models.conv1d

    def counting(x, weight, bias):
        if id(weight) in firsts:
            seen[firsts[id(weight)]].append(x.shape[0])
        return conv1d(x, weight, bias)

    monkeypatch.setattr(models, "conv1d", counting)
    monkeypatch.setattr(models, "GAP_CHUNK", chunk)
    impute(ts, small_bundle)
    for j in (0, 1):
        want = [int(writes[lo:lo + chunk, j].sum()) for lo in range(0, len(writes), chunk)]
        assert seen[j] == want, j


def test_a_prediction_left_missing_raises(small_series, small_bundle, monkeypatch):
    gapped, hidden = gen_blackout(small_series, 10, 2)
    i, j = np.argwhere(hidden)[0]
    real_infer = pipeline.infer

    def nan_at_first_written_cell(forward, x, *per_row):
        out = real_infer(forward, x, *per_row)
        if getattr(forward, "__self__", None) is small_bundle.reconstructor:
            out[0, j, i % small_bundle.m] = np.nan  # the first gap window writes (i, j)
        return out

    monkeypatch.setattr(pipeline, "infer", nan_at_first_written_cell)
    with pytest.raises(ValueError, match=r"cells still missing after imputation: 1$"):
        impute_report(gapped, small_bundle)


@pytest.mark.parametrize("pick", [0, 33, 64, -1])
def test_a_gap_window_gets_the_same_bytes_alone_and_among_many(small_series, small_bundle, pick):
    """Imputed alone (a 1-row batch) or as one of ~90 gap windows, same bytes."""
    m = small_bundle.m
    many, _ = gen_mcar(small_series, 0.25, 13)
    gap_windows = np.flatnonzero(np.isnan(many.values.reshape(-1, m, many.d)).any(axis=(1, 2)))
    rows = slice(gap_windows[pick] * m, (gap_windows[pick] + 1) * m)
    alone = small_series.values.copy()
    alone[rows] = many.values[rows]
    out_many, report = impute_report(many, small_bundle)
    out_alone, report_alone = impute_report(TimeSeries(alone, small_series.names), small_bundle)
    assert report["windows"]["with_gaps"] > 2 * models.GAP_CHUNK
    assert report_alone["windows"]["with_gaps"] == 1
    assert out_many.values[rows].tobytes() == out_alone.values[rows].tobytes()
