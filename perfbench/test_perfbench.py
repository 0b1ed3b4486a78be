"""Tests of the benchmark's own machinery: generators, spans, wrappers.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import csv
import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gen
import layers
import run
import speed
from spans import Hooks, Recorder, Span, roots_of, self_times

import saeti
from saeti import autograd, cli, core_ts, models, scenarios


def _csv_bytes(values, tmp_path, name):
    path = tmp_path / name
    gen.write_csv(values, path)
    return path.read_bytes()


def test_generators_are_deterministic_per_seed(tmp_path):
    first = _csv_bytes(gen.noisy_series(2000, 7, stream=1), tmp_path, "a.csv")
    again = _csv_bytes(gen.noisy_series(2000, 7, stream=1), tmp_path, "b.csv")
    other = _csv_bytes(gen.noisy_series(2000, 8, stream=1), tmp_path, "c.csv")
    assert first == again
    assert first != other
    planted = _csv_bytes(gen.planted_series(2000, stream=1), tmp_path, "d.csv")
    assert planted == _csv_bytes(gen.planted_series(2000, stream=1), tmp_path, "e.csv")
    assert planted != _csv_bytes(gen.planted_series(2000, stream=0), tmp_path, "f.csv")


def test_csv_writer_matches_the_csv_module(tmp_path):
    truth = gen.noisy_series(300, 4, stream=1)
    gapped, _ = gen.gap_request(scenarios, core_ts.TimeSeries, truth, "mcar", 4, 0)
    gen.CsvWriter(truth).write(gapped, tmp_path / "fast.csv")
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(gen.names())
        writer.writerows(["" if np.isnan(v) else repr(float(v)) for v in row] for row in gapped)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert core_ts.read_csv(tmp_path / "fast.csv").mask.tolist() == (~np.isnan(gapped)).tolist()


def test_noise_keeps_the_planted_layout():
    planted = gen.planted_series(2000, stream=1)
    noisy = gen.noisy_series(2000, 7, stream=1)
    assert np.abs(noisy - planted).max() < 10 * gen.NOISE_SD


@pytest.mark.parametrize("kind", ["mcar", "blackout"])
def test_gap_requests_are_deterministic_per_seed(kind, tmp_path):
    truth = gen.planted_series(2000, stream=1)
    a, hidden_a = gen.gap_request(scenarios, core_ts.TimeSeries, truth, kind, 3, 0)
    b, hidden_b = gen.gap_request(scenarios, core_ts.TimeSeries, truth, kind, 3, 0)
    assert _csv_bytes(a, tmp_path, "a.csv") == _csv_bytes(b, tmp_path, "b.csv")
    assert np.array_equal(hidden_a, hidden_b)
    assert np.array_equal(np.isnan(a), hidden_a)
    assert np.array_equal(a[~hidden_a], truth[~hidden_a])


def test_repeated_window_share_separates_planted_from_noisy():
    assert gen.repeated_window_share(gen.planted_series(3840), 32) == 1.0
    assert gen.repeated_window_share(gen.noisy_series(3840, 1), 32) == 0.0


def test_every_regime_appears_early():
    for stream in range(20):
        blocks = gen.regime_blocks(3840, gen.rng_for(gen.LAYOUT_SEED, stream, gen.TAG_BLOCKS))
        assert {regime for regime, _ in blocks[:3]} == {0, 1, 2}
        assert sum(length for _, length in blocks) == 3840
        assert all(a[0] != b[0] for a, b in zip(blocks, blocks[1:]))


def test_gap_windows_matches_the_pipeline(small_bundle):
    truth = gen.planted_series(200)
    names = gen.names(truth.shape[1])
    hidden = np.zeros(truth.shape, dtype=bool)
    hidden[[3, 70, 195], [0, 1, 2]] = True   # 195 lies in the tail window only
    gapped = core_ts.TimeSeries.from_values(np.where(hidden, np.nan, truth), names=names)
    _, report = saeti.impute_report(gapped, small_bundle)
    assert run.gap_windows(hidden, small_bundle.m) == report["windows"]["with_gaps"] == 3


@pytest.fixture(scope="module")
def small_bundle():
    ts = core_ts.TimeSeries.from_values(gen.planted_series(480), names=gen.names())
    ts_norm, norm = core_ts.minmax_normalize(ts)
    config = saeti.TrainConfig(m=32, k=3, seed=1, max_epochs=1)
    sets = saeti.find_all_snippets(ts_norm, config.m, config.k)
    bundle, _, _ = saeti.train_bundle(ts_norm, norm, sets, config)
    return bundle


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_times_on_a_hand_built_tree():
    #  root [0, 10]
    #    a [1, 4]
    #      a1 [2, 3]
    #    b [5, 9]
    rec = Recorder(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    root = rec.begin("bench.request", "impute-0")
    a = rec.begin("x.a")
    a1 = rec.begin("y.a1")
    rec.end(a1)
    rec.end(a)
    b = rec.begin("x.b")
    rec.end(b)
    rec.end(root)
    assert self_times(rec.spans) == [3.0, 2.0, 1.0, 4.0]
    assert roots_of(rec.spans) == [0, 0, 0, 0]
    assert [s.request for s in rec.spans] == ["impute-0"] * 4
    table = layers.SpanTable(rec.spans)
    assert table.layer_self("x") == 6.0
    assert table.root_sum_errors() == [0.0]


def test_self_times_merge_overlapping_children_and_clip_to_parent():
    spans = [Span("p.root", 0.0, 10.0),
             Span("c.one", 2.0, 6.0, parent=0),
             Span("c.two", 4.0, 12.0, parent=0)]
    assert self_times(spans) == [2.0, 4.0, 8.0]


def test_per_unit_weights_divide_by_the_phase_count():
    spans = [Span("bench.setup", 0.0, 4.0, request="setup-0"),
             Span("bench.impute", 4.0, 5.0, request="impute-0"),
             Span("bench.impute", 5.0, 8.0, request="impute-1")]
    table = layers.SpanTable(spans)
    assert table.layer_self("bench") == 4.0 + (1.0 + 3.0) / 2


def _bindings():
    """Identity of every attribute of every saeti module and wrapped class."""
    owners = [m for name, m in sys.modules.items()
              if m is not None and (name == "saeti" or name.startswith("saeti."))]
    owners += [models.RecognizerModel, models.ReconstructorModel, autograd.Tensor, autograd.Adam]
    return {(id(o), k): id(v) for o in owners for k, v in list(vars(o).items())}


def test_wrappers_restore_every_attribute():
    before = _bindings()
    original_conv = autograd.conv1d
    rec = Recorder()
    with layers.install(rec):
        assert models.conv1d is not original_conv
        assert autograd.conv1d is models.conv1d
        assert models.RecognizerModel.forward.__wrapped__ is not None
    assert _bindings() == before
    assert models.conv1d is original_conv


def test_wrapped_calls_record_spans_and_computed_counts(small_bundle):
    rec = Recorder()
    x = np.zeros((3, small_bundle.d, small_bundle.m))
    with layers.install(rec), rec.root("bench.impute", "impute-0"):
        small_bundle.recognizer.forward(x)
    names = [s.name for s in rec.spans]
    assert names[:2] == ["bench.impute", "models.RecognizerModel.forward"]
    assert rec.spans[1].counts == {"rows": 3}
    conv = [s for s in rec.spans if s.name == "autograd.conv1d"]
    assert len(conv) == 3
    c_out, c_in, kw = small_bundle.recognizer.conv1.weight.shape
    assert conv[0].counts["flop"] == 2 * 3 * small_bundle.m * c_out * c_in * kw
    assert all(s.parent == 1 for s in conv)
    assert layers.SpanTable(rec.spans).root_sum_errors()[0] < 1e-9


def test_hooks_catch_a_function_bound_in_several_modules():
    rec = Recorder()
    hooks = Hooks(rec, "saeti")
    original = core_ts.read_csv
    hooks.add_function(core_ts, "read_csv", "core_ts.read_csv")
    try:
        assert cli.read_csv is core_ts.read_csv is saeti.read_csv
        assert cli.read_csv is not original
    finally:
        hooks.restore()
    assert cli.read_csv is original and saeti.read_csv is original


@pytest.mark.parametrize("n, percentile, rank", [(30, 100 * 20 / 30, 19), (100, 90.0, 89),
                                                  (20, 50.0, 9)])
def test_tail_latency_leaves_ten_samples_beyond(n, percentile, rank):
    samples = list(np.random.default_rng(0).permutation(n).astype(float))
    value, pct = run.tail_latency(samples)
    assert pct == pytest.approx(percentile)
    assert value == rank
    assert sum(s > value for s in samples) == 10


def test_tail_latency_falls_back_to_the_median_below_twenty_samples():
    assert run.tail_latency([1.0, 2.0, 3.0, 4.0]) == (2.5, 50.0)


def test_history_number_reads_plain_and_wrapped_cells():
    assert run.history_number("0.25") == (0.25, True)
    assert run.history_number("np.float64(0.125)") == (0.125, False)
    with pytest.raises(ValueError):
        run.history_number("")


def test_benchmark_json_lists_every_metric_the_runs_print():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    printed = layers.layer_metrics([Span("bench.setup", 0.0, 1.0, request="setup-0")], 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in printed.items()}


def test_output_checks_catch_changed_observed_cells_and_gaps(tmp_path):
    truth = gen.planted_series(200, stream=1)
    gapped, hidden = gen.gap_request(scenarios, core_ts.TimeSeries, truth, "mcar", 1, 0)
    req = {"gapped": gapped, "hidden": hidden, "truth": truth}
    assert run.check_imputed(truth.copy(), req).shape == (int(hidden.sum()),)
    moved = truth.copy()
    row, col = np.argwhere(~hidden)[0]
    moved[row, col] += 1e-12
    with pytest.raises(run.OpFailed, match="observed cells changed"):
        run.check_imputed(moved, req)
    gen.write_csv(gapped, tmp_path / "gapped.csv")
    with pytest.raises(run.OpFailed, match="not a complete numeric table"):
        run.read_output(tmp_path / "gapped.csv")


def _busy(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_speed_probe_samples_nested_regions_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe(period=0.005)

    def inner():
        _busy(0.03)
        return "inner"

    def outer():
        _busy(0.03)
        return probe.measure(inner, time.process_time, "array")

    (result, inner_region, inner_cpu), outer_region, outer_cpu = probe.measure(
        outer, time.process_time, "array")
    assert result == "inner"
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # Every sample of the inner region, the one after it included, is the
    # outer region's too, and its cost is charged to the outer region only.
    assert len(inner_region.samples) >= 2
    assert len(outer_region.samples) > len(inner_region.samples)
    # The busy loops count sampling time as their own, so the CPU time net
    # of sampling plus the samples' cost is what they ran for.
    assert inner_cpu + inner_region.spent == pytest.approx(0.03, abs=0.01)
    assert outer_cpu + outer_region.spent == pytest.approx(0.06, abs=0.01)
    assert outer_region.spent > inner_region.spent
    assert all(s > 0 for s in outer_region.samples)
    assert inner_region.scale() == pytest.approx(
        speed.REF_KERNEL_S["array"] / (sum(inner_region.samples) / len(inner_region.samples)))


def test_speed_probe_restores_the_alarm_when_the_region_raises():
    previous = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe(period=0.005)

    def fail():
        _busy(0.01)
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        probe.measure(fail, time.process_time, "interpreted")
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_speed_probe_refuses_to_nest_regions_of_different_kernels():
    probe = speed.SpeedProbe(period=0.005)

    def outer():
        return probe.measure(lambda: None, time.process_time, "interpreted")

    with pytest.raises(ValueError, match="nested"):
        probe.measure(outer, time.process_time, "array")
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_every_timed_region_names_a_probe_kernel():
    assert set(run.KERNEL.values()) <= set(speed.KERNELS)
    assert set(run.KERNEL) == {"impute", "train", "setup"}
