import dataclasses
import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import two_regime_series
from saeti import autograd, models, training
from saeti.autograd import no_grad
from saeti.core_ts import NormParams, TimeSeries, minmax_normalize, split_nonoverlapping
from saeti.models import MISSING_FILL, RecognizerModel, ReconstructorModel, model_inputs
from saeti.scenarios import gen_mcar
from saeti.snippets import find_all_snippets, snippet_values
from saeti.training import (
    BUNDLE_MAGIC,
    MASK_FRACTION,
    VAL_FRACTION,
    ModelBundle,
    TrainConfig,
    build_reconstructor_dataset,
    build_recognizer_dataset,
    label_windows,
    load_bundle,
    mask_random_points,
    occlude,
    save_bundle,
    snippet_pairs,
    split_train_val,
    train_bundle,
    train_recognizer,
)


def window_labels(start, window, sets, recognizer=None):
    """Per-window reference: one (d, m) window, gap windows predicted batch-1."""
    mask = ~np.isnan(window)
    if mask.all():
        return np.array([sset.ranks[start] for sset in sets])
    if recognizer is None:
        raise ValueError("window has gaps and no classifier was provided")
    with no_grad():
        return recognizer.predict(np.where(mask, window, MISSING_FILL)[None])[0]


@pytest.fixture(scope="module")
def norm_and_sets():
    ts = two_regime_series(n=1600, block=400)
    ts_norm, norm = minmax_normalize(ts)
    sets = find_all_snippets(ts_norm, 16, 2)
    return ts_norm, norm, sets


def test_mask_random_points_exact_count():
    rng = np.random.default_rng(0)
    observed = np.ones((4, 16), dtype=bool)
    hide = mask_random_points(observed, 0.25, rng)
    assert hide.sum() == 16  # floor(0.25 * 64)
    assert hide.shape == (4, 16)


def test_mask_random_points_only_hides_observed():
    rng = np.random.default_rng(1)
    observed = np.zeros((3, 10), dtype=bool)
    observed[0, :4] = True
    hide = mask_random_points(observed, 0.5, rng)
    assert not (hide & ~observed).any()
    # floor(0.5*30)=15 wanted but only 4 available
    assert hide.sum() == 4


def test_mask_random_points_deterministic_per_seed():
    obs = np.ones((5, 8), dtype=bool)
    a = mask_random_points(obs, 0.25, np.random.default_rng(7))
    b = mask_random_points(obs, 0.25, np.random.default_rng(7))
    assert np.array_equal(a, b)


def per_sample_occlusion(windows, rng, spread):
    """Reference: the per-sample loops that set gaps and picks to the fill value.

    Returns the inputs and, per window, its share and the points it hid.
    """
    inputs = np.where(np.isnan(windows), MISSING_FILL, windows)
    shares, hides = [], np.zeros(windows.shape, dtype=bool)
    for i in range(windows.shape[0]):
        shares.append(rng.uniform(0.0, 2.0 * MASK_FRACTION) if spread else MASK_FRACTION)
        hides[i] = mask_random_points(~np.isnan(windows[i]), shares[-1], rng)
        inputs[i][hides[i]] = MISSING_FILL
    return inputs, shares, hides


@pytest.mark.parametrize("spread", [False, True], ids=["fixed-share", "spread-share"])
def test_occlude_matches_the_per_sample_loop(spread):
    rng = np.random.default_rng(4)
    windows = rng.random((40, 2, 16))
    windows[rng.random(windows.shape) < 0.3] = np.nan
    windows[0] = np.nan              # nothing to hide
    windows[1, :, 3:] = np.nan       # 6 observed points, fewer than a quarter of 32
    before = windows.copy()
    got_rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    got = occlude(windows, got_rng, spread=spread)
    expected, shares, hides = per_sample_occlusion(windows, ref_rng, spread)
    assert windows.tobytes() == before.tobytes()
    assert got.tobytes() == expected.tobytes()
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    gaps = np.isnan(windows)
    observed = (~gaps).sum(axis=(1, 2))
    assert hides.sum(axis=(1, 2)).tolist() == [
        min(int(share * 32), int(n)) for share, n in zip(shares, observed)]
    assert not (hides & gaps).any()
    assert np.array_equal(got == MISSING_FILL, gaps | hides)
    assert np.array_equal(got[~(gaps | hides)], windows[~(gaps | hides)])


def test_split_train_val_partition():
    tr, va = split_train_val(100, 0.25, np.random.default_rng(3))
    assert len(tr) == 75 and len(va) == 25
    assert sorted(np.concatenate([tr, va]).tolist()) == list(range(100))
    with pytest.raises(ValueError):
        split_train_val(1, 0.25, np.random.default_rng(0))


def test_split_always_leaves_validation():
    tr, va = split_train_val(3, 0.01, np.random.default_rng(0))
    assert len(va) == 1 and len(tr) == 2


def test_recognizer_dataset_only_clean_windows(norm_and_sets):
    ts_norm, _, sets = norm_and_sets
    vals = ts_norm.values.copy()
    vals[100:110, 0] = np.nan
    gappy = TimeSeries.from_values(vals, names=ts_norm.names)
    x, y = build_recognizer_dataset(gappy, sets, 16)
    n_windows = split_nonoverlapping(gappy, 16)[0].shape[0]
    assert x.shape[0] == y.shape[0] == n_windows - 1
    assert x.shape[1:] == (2, 16)
    assert set(np.unique(y)) <= {0, 1}
    assert not np.isnan(x).any()


def test_recognizer_dataset_labels_follow_regimes(norm_and_sets):
    ts_norm, _, sets = norm_and_sets
    x, y = build_recognizer_dataset(ts_norm, sets, 16)
    # windows 0..24 sit in the first regime block, 25..49 in the second
    assert len(set(y[:25, 0])) == 1
    assert len(set(y[25:50, 0])) == 1
    assert y[0, 0] != y[25, 0]


def test_recognizer_dataset_requires_clean_data():
    vals = np.full((160, 1), np.nan)
    vals[::3, 0] = 1.0
    ts = TimeSeries.from_values(vals)
    sets = None
    with pytest.raises(ValueError, match="insufficient clean data"):
        build_recognizer_dataset(ts, sets, 16)


def test_reconstructor_dataset_channels(norm_and_sets):
    ts_norm, _, sets = norm_and_sets
    vals = ts_norm.values.copy()
    vals[40:48, 1] = np.nan
    gappy = TimeSeries.from_values(vals, names=ts_norm.names)
    rec = RecognizerModel(2, 16, 2, seed=0)
    x, y = build_reconstructor_dataset(gappy, sets, 16, rec)
    starts, windows = split_nonoverlapping(gappy, 16)
    assert x.shape == windows.shape == (100, 2, 16)
    assert y.shape == (100, 2)
    # the gap stays NaN, and the NaN cells are the loss's unobserved
    # points: rows 40..47 are positions 8..15 of the window starting at row 32
    assert np.isnan(x[2, 1, 8:16]).all()
    assert not np.isnan(x[2, 1, 0:8]).any()
    assert np.isnan(x).sum() == 8
    assert x.tobytes() == windows.tobytes()
    # the pairs built from the dataset hold the window with the fill value
    # at its gap in channel 0 and its matched snippet in channel 1, and
    # reproduce a per-window construction exactly
    pairs = snippet_pairs(model_inputs(x), y, snippet_values(sets))
    assert np.any(pairs[2, 1, 0, :] == MISSING_FILL)
    assert not np.isnan(pairs).any()
    for i, (start, window) in enumerate(zip(starts, windows)):
        labels = window_labels(start, window, sets, rec)
        assert np.array_equal(y[i], labels)
        pair = np.empty((2, 2, 16))
        pair[:, 0, :] = np.where(np.isnan(window), MISSING_FILL, window)
        for j in range(2):
            pair[j, 1, :] = sets[j].items[labels[j]].values
        assert np.array_equal(pairs[i], pair)


@pytest.mark.parametrize("chunk", [5, 64])
def test_label_windows_matches_per_window_reference(norm_and_sets, monkeypatch, chunk):
    ts_norm, _, sets = norm_and_sets
    gappy, _ = gen_mcar(ts_norm, 0.2, 2)
    rec = RecognizerModel(2, 16, 2, seed=3)
    starts, windows = split_nonoverlapping(gappy, 16)
    n_gap = int(np.isnan(windows).any(axis=(1, 2)).sum())
    assert 64 < n_gap < starts.shape[0]
    calls = []
    predict = rec.predict
    monkeypatch.setattr(rec, "predict", lambda x: calls.append(len(x)) or predict(x))
    monkeypatch.setattr(models, "GAP_CHUNK", chunk)
    labels = label_windows(starts, windows, sets, rec)
    assert calls == [min(chunk, n_gap - lo) for lo in range(0, n_gap, chunk)]
    expected = np.stack([window_labels(s, w, sets, rec) for s, w in zip(starts, windows)])
    assert labels.dtype == expected.dtype
    assert np.array_equal(labels, expected)
    with pytest.raises(ValueError, match="no classifier"):
        label_windows(starts, windows, sets)


def test_train_recognizer_learns_separable_data(norm_and_sets):
    ts_norm, _, sets = norm_and_sets
    x, y = build_recognizer_dataset(ts_norm, sets, 16)
    model = RecognizerModel(2, 16, 2, seed=42)
    history = train_recognizer(model, x, y, TrainConfig(m=16, k=2, max_epochs=8))
    assert history[-1].val_accuracy >= 0.9
    assert history[0].epoch == 1
    assert all(h.val_accuracy is not None for h in history)


def test_early_stopping_restores_best(norm_and_sets):
    ts_norm, _, sets = norm_and_sets
    x, y = build_recognizer_dataset(ts_norm, sets, 16)
    model = RecognizerModel(2, 16, 2, seed=1)
    config = TrainConfig(m=16, k=2, max_epochs=40, patience=2)
    history = train_recognizer(model, x, y, config)
    assert len(history) <= 40
    best = min(h.val_loss for h in history)
    # restored parameters reproduce the best validation loss on the same
    # fixed occluded validation inputs the trainer scored
    from saeti.autograd import cross_entropy
    from saeti.training import mask_random_points
    rng = np.random.default_rng(config.seed)
    _, val_idx = split_train_val(x.shape[0], VAL_FRACTION, rng)
    val_x = x[val_idx].copy()
    for i in range(val_x.shape[0]):
        hide = mask_random_points(np.ones_like(val_x[i], dtype=bool),
                                  MASK_FRACTION, rng)
        val_x[i][hide] = MISSING_FILL
    logits = model.forward(val_x)
    val = cross_entropy(logits, y[val_idx]).item() / val_idx.shape[0]
    assert abs(val - best) <= 1e-12


def test_train_bundle_and_roundtrip(tmp_path, norm_and_sets):
    ts_norm, norm, sets = norm_and_sets
    config = TrainConfig(m=16, k=2, seed=42, max_epochs=2)
    bundle, rh, ah = train_bundle(ts_norm, norm, sets, config)
    assert len(rh) >= 1 and len(ah) >= 1

    path = tmp_path / "model.bundle"
    save_bundle(bundle, path)
    back = load_bundle(path)
    assert back.names == bundle.names
    assert np.array_equal(back.norm.mins, bundle.norm.mins)
    assert back.snippets.tobytes() == snippet_values(sets).tobytes()
    assert back.snippets.shape == (2, 2, 16) and back.ell == sets[0].ell == 8
    for (na, pa), (nb, pb) in zip(bundle.recognizer.parameters(),
                                  back.recognizer.parameters()):
        assert na == nb
        assert np.array_equal(pa.data, pb.data)
    # save(load(x)) is byte-identical
    path2 = tmp_path / "again.bundle"
    save_bundle(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def _no_training(*args, **kwargs):
    raise AssertionError("training started")


@pytest.mark.parametrize("edit, config", [
    (lambda ts, sets: sets, TrainConfig(m=16, k=3)),
    (lambda ts, sets: sets, TrainConfig(m=32, k=2)),
    (lambda ts, sets: sets[:1], TrainConfig(m=16, k=2)),
    (lambda ts, sets: [sets[0], dataclasses.replace(sets[1], ell=7)], TrainConfig(m=16, k=2)),
    (lambda ts, sets: find_all_snippets(
        TimeSeries.from_values(ts.values[:-8], names=ts.names), 16, 2), TrainConfig(m=16, k=2)),
], ids=["k", "m", "one-set-short", "two-ells", "other-length"])
def test_train_bundle_rejects_sets_that_differ_from_the_config(norm_and_sets, monkeypatch,
                                                               edit, config):
    ts_norm, norm, sets = norm_and_sets
    monkeypatch.setattr(training, "train_recognizer", _no_training)
    with pytest.raises(ValueError, match="do not match the config"):
        train_bundle(ts_norm, norm, edit(ts_norm, sets), config)


def test_train_bundle_rejects_sets_found_with_gaps_elsewhere(norm_and_sets, monkeypatch):
    ts_norm, norm, _ = norm_and_sets
    # The same series with a gap in row 20 of coordinate 1: its sets rank
    # no subsequence holding that row, yet the window at row 16 is clean
    # in the series trained on.
    vals = ts_norm.values.copy()
    vals[20, 1] = np.nan
    other = find_all_snippets(TimeSeries.from_values(vals, names=ts_norm.names), 16, 2)
    assert other[1].ranks.shape == (ts_norm.n - 15,) and other[1].ranks[16] == -1
    monkeypatch.setattr(training, "train_recognizer", _no_training)
    with pytest.raises(ValueError, match="start 17 has a gap"):
        train_bundle(ts_norm, norm, other, TrainConfig(m=16, k=2))


def test_untrained_bundle_bytes_are_pinned(tmp_path):
    """A reordered, renamed or reshaped parameter, or a reordered draw, changes the file."""
    bundle = ModelBundle(names=("a", "b"), norm=NormParams(mins=np.zeros(2), maxs=np.ones(2)),
                         snippets=np.arange(64.0).reshape(2, 2, 16) / 64, ell=8,
                         recognizer=RecognizerModel(2, 16, 2, seed=11),
                         reconstructor=ReconstructorModel(2, 16, seed=11), seed=11)
    save_bundle(bundle, tmp_path / "untrained.bundle")
    digest = hashlib.sha256((tmp_path / "untrained.bundle").read_bytes()).hexdigest()
    assert digest == "2d1beb532512fcd46ea9a838478129a9491dc762bee8069d7e2518e873ac0deb"


def test_load_bundle_draws_no_initial_values(tmp_path, norm_and_sets, monkeypatch):
    ts_norm, norm, sets = norm_and_sets
    bundle, _, _ = train_bundle(ts_norm, norm, sets, TrainConfig(m=16, k=2, seed=3, max_epochs=1))
    path, again = tmp_path / "model.bundle", tmp_path / "again.bundle"
    save_bundle(bundle, path)

    def refuse(*args, **kwargs):
        raise AssertionError("load_bundle drew an initial value it then overwrites")

    monkeypatch.setattr(autograd, "glorot_uniform", refuse)
    loaded = load_bundle(path)
    save_bundle(loaded, again)
    assert path.read_bytes() == again.read_bytes()
    # Every block is a fresh array of its own, not a placeholder or a view of the file.
    arrays = [loaded.snippets] + [p.data for model in (loaded.recognizer, loaded.reconstructor)
                                  for _, p in model.parameters()]
    assert all(a.flags.writeable and a.flags.owndata for a in arrays)


def test_fit_holds_one_graph_at_a_time():
    """Three steps of ``_fit`` peak below 1.5 x one forward plus backward.

    Calibrated on a chain of three 32-wide tanh layers over 256 rows
    (tracemalloc, numpy's allocations): one forward plus backward peaks at
    0.66 MB and the three steps at 1.17 x that. When each step's graph
    stayed alive into the next forward and backward freed nothing, the
    ratio was 1.69 (1.01 MB for the single step).
    """
    rng = np.random.default_rng(3)
    rows, width = 256, 32
    x = rng.normal(size=(3 * rows, width))
    target = rng.normal(size=(rows, width))
    everywhere = np.ones((rows, width))

    class Chain:
        def __init__(self):
            self.weights = [autograd.init_weight((width, width), rng) for _ in range(3)]

        def parameters(self):
            return [(f"w{i}", w) for i, w in enumerate(self.weights)]

        def forward(self, inputs):
            h = autograd.Tensor(inputs)
            for w in self.weights:
                h = autograd.tanh(h @ w)
            return h

    model = Chain()

    def batch_loss(batch):
        return autograd.masked_mse(model.forward(x[batch]), target, everywhere), 1.0

    def validate():
        return autograd.masked_mse(model.forward(x[:rows]), target, everywhere).item(), None

    def traced_peak(run):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start

    config = TrainConfig(m=16, k=2, batch_size=rows, max_epochs=1)
    tracemalloc.start()
    try:
        one = traced_peak(lambda: batch_loss(np.arange(rows))[0].backward())
        autograd.zero_grads([w for _, w in model.parameters()])
        fit = traced_peak(lambda: training._fit(model, config, np.random.default_rng(0),
                                                np.arange(3 * rows), batch_loss, validate))
    finally:
        tracemalloc.stop()
    assert fit < 1.5 * one, (fit, one)


def test_validation_runs_in_infer_batches_that_change_no_byte(tmp_path, monkeypatch):
    """Each model's validation is ``models.infer``'s graph-free batches.

    104 clean windows hold out 26 for validation. At ``GAP_CHUNK = 5`` each
    epoch runs them as six forwards, the last of one row; the history rows
    and the bundle bytes equal those of one forward over all 26.
    """
    ts_norm, norm = minmax_normalize(two_regime_series(n=1664, block=416))
    sets = find_all_snippets(ts_norm, 16, 2)
    config = TrainConfig(m=16, k=2, seed=5, max_epochs=2)
    forwards = {cls: cls.forward for cls in (RecognizerModel, ReconstructorModel)}

    def counted(forward, rows):
        def wrapper(self, x, *rest):
            out = forward(self, x, *rest)
            if not out.requires_grad:
                rows.append(len(x))
            return out
        return wrapper

    runs = {}
    for chunk in (5, 10_000):
        monkeypatch.setattr(models, "GAP_CHUNK", chunk)
        rows = {cls: [] for cls in forwards}
        for cls, forward in forwards.items():
            monkeypatch.setattr(cls, "forward", counted(forward, rows[cls]))
        bundle, rec_history, con_history = train_bundle(ts_norm, norm, sets, config)
        save_bundle(bundle, tmp_path / "model.bundle")
        runs[chunk] = (rec_history, con_history, (tmp_path / "model.bundle").read_bytes())
        batches = [5, 5, 5, 5, 5, 1] if chunk == 5 else [26]
        assert rows[RecognizerModel] == batches * len(rec_history)
        assert rows[ReconstructorModel] == batches * len(con_history)
    assert runs[5] == runs[10_000]


def test_training_determinism(norm_and_sets):
    ts_norm, norm, sets = norm_and_sets
    config = TrainConfig(m=16, k=2, seed=7, max_epochs=2)
    b1, _, _ = train_bundle(ts_norm, norm, sets, config)
    b2, _, _ = train_bundle(ts_norm, norm, sets, config)
    for (_, p1), (_, p2) in zip(b1.reconstructor.parameters(),
                                b2.reconstructor.parameters()):
        assert np.array_equal(p1.data, p2.data)


def old_formulation_calls(x, pairs, target, weight, config):
    """Reference: each model's forward inputs (and the reconstructor's loss
    targets and weights) from the per-sample occlusion loops of the -1-filled
    formulation, in call order, replaying the training RNG of ``config.seed``."""
    def epochs(n, batch_input, validation):
        rng = np.random.default_rng(config.seed)
        train_idx, val_idx = split_train_val(n, VAL_FRACTION, rng)
        calls, val = [], validation(val_idx, rng)
        for _ in range(config.max_epochs):
            order = rng.permutation(train_idx)
            for lo in range(0, order.shape[0], config.batch_size):
                calls.append(batch_input(order[lo:lo + config.batch_size], rng))
            calls.append(val)
        return calls

    def recognizer_validation(val_idx, rng):
        val_x = x[val_idx].copy()
        for i in range(val_x.shape[0]):
            val_x[i][mask_random_points(np.ones_like(val_x[i], dtype=bool),
                                        MASK_FRACTION, rng)] = MISSING_FILL
        return val_x

    def recognizer_batch(batch, rng):
        xb = x[batch].copy()
        for i in range(batch.shape[0]):
            frac = rng.uniform(0.0, 2.0 * MASK_FRACTION)
            xb[i][mask_random_points(np.ones_like(xb[i], dtype=bool), frac, rng)] = MISSING_FILL
        return xb

    def reconstructor_batch(batch, rng):
        xb = pairs[batch].copy()
        for i in range(batch.shape[0]):
            hide = mask_random_points(weight[batch[i]] > 0, MASK_FRACTION, rng)
            xb[i, :, 0, :][hide] = MISSING_FILL
        return xb, target[batch], weight[batch]

    return (epochs(x.shape[0], recognizer_batch, recognizer_validation),
            epochs(pairs.shape[0], reconstructor_batch,
                   lambda rows, rng: (pairs[rows], target[rows], weight[rows])))


def test_training_feeds_the_models_what_the_filled_formulation_fed_them(monkeypatch):
    """Every forward input and loss target/weight of a 2-epoch ``train_bundle``.

    The reference rebuilds the -1-filled pairs, zero-filled targets and
    float weights, and occludes them with per-sample loops.
    """
    gapped, _ = gen_mcar(two_regime_series(n=1600, block=400), 0.1, 7)
    ts_norm, norm = minmax_normalize(gapped)
    sets = find_all_snippets(ts_norm, 16, 2)
    config = TrainConfig(m=16, k=2, seed=5, batch_size=13, max_epochs=2)
    seen = {RecognizerModel: [], ReconstructorModel: [], "loss": []}
    for cls in (RecognizerModel, ReconstructorModel):
        def spy(self, x, *rest, _forward=cls.forward, _calls=seen[cls]):
            _calls.append(np.array(x))
            return _forward(self, x, *rest)
        monkeypatch.setattr(cls, "forward", spy)
    mse = training.masked_mse
    monkeypatch.setattr(training, "masked_mse", lambda pred, target, weight: (
        seen["loss"].append((np.array(target), np.asarray(weight, dtype=float)))
        or mse(pred, target, weight)))
    bundle, _, _ = train_bundle(ts_norm, norm, sets, config)
    monkeypatch.undo()

    starts, windows = split_nonoverlapping(ts_norm, 16)
    mask = ~np.isnan(windows)
    filled = np.where(mask, np.clip(windows, 0.0, 1.0), MISSING_FILL)
    clean, keep = mask.all(axis=(1, 2)), mask.any(axis=(1, 2))
    assert 0 < clean.sum() < keep.sum()
    labels = np.array([window_labels(s, w, sets, bundle.recognizer)
                       for s, w in zip(starts[keep], windows[keep])])
    pairs = np.stack((filled[keep], bundle.snippets[np.arange(2), labels]), axis=2)
    recognizer_calls, reconstructor_calls = old_formulation_calls(
        windows[clean], pairs, np.where(mask, windows, 0.0)[keep],
        mask[keep].astype(float), config)

    # The recognizer's training calls, then its labeling of the gap windows.
    n_fit = len(recognizer_calls)
    assert [a.tobytes() for a in seen[RecognizerModel][:n_fit]] == [
        a.tobytes() for a in recognizer_calls]
    labeled = np.concatenate(seen[RecognizerModel][n_fit:])[:(keep & ~clean).sum()]
    assert labeled.tobytes() == filled[keep & ~clean].tobytes()
    assert [a.tobytes() for a in seen[ReconstructorModel]] == [
        xb.tobytes() for xb, _, _ in reconstructor_calls]
    assert len(seen["loss"]) == len(reconstructor_calls)
    for (target, weight), (_, old_target, old_weight) in zip(seen["loss"], reconstructor_calls):
        assert weight.tobytes() == old_weight.tobytes()
        assert np.array_equal(np.isnan(target), weight == 0)
        assert np.where(weight > 0, target, 0.0).tobytes() == old_target.tobytes()


def test_bundle_rejects_bad_files(tmp_path):
    p = tmp_path / "junk.bundle"
    p.write_bytes(b"NOTMAGIC" + b"\x00" * 20)
    with pytest.raises(ValueError, match="bad magic"):
        load_bundle(p)
    p.write_bytes(BUNDLE_MAGIC[:4])
    with pytest.raises(ValueError, match="bad magic"):
        load_bundle(p)


def test_bundle_rejects_truncation(tmp_path, norm_and_sets):
    ts_norm, norm, sets = norm_and_sets
    config = TrainConfig(m=16, k=2, seed=0, max_epochs=1)
    bundle, _, _ = train_bundle(ts_norm, norm, sets, config)
    path = tmp_path / "model.bundle"
    save_bundle(bundle, path)
    blob = path.read_bytes()
    cut = tmp_path / "cut.bundle"
    cut.write_bytes(blob[:len(blob) - 1000])
    with pytest.raises(ValueError, match="truncated bundle"):
        load_bundle(cut)
    grown = tmp_path / "grown.bundle"
    grown.write_bytes(blob + b"\x00" * 8)
    with pytest.raises(ValueError, match="trailing bytes"):
        load_bundle(grown)


def _edit_header(path, edit):
    blob = path.read_bytes()
    (n,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + n])
    edit(header)
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(BUNDLE_MAGIC + struct.pack("<Q", len(raw)) + raw + blob[16 + n:])


@pytest.mark.parametrize("edit, message", [
    (lambda h: h.update(format=1), "unsupported bundle format 1"),
    (lambda h: h["config"].pop("latent"), "missing key 'latent'"),
    (lambda h: h.pop("arrays"), "missing key 'arrays'"),
    (lambda h: h["config"].update(names=["s1"]), "1 names but its config has d=2"),
])
def test_bundle_rejects_bad_headers(tmp_path, norm_and_sets, edit, message):
    _, norm, sets = norm_and_sets
    path = tmp_path / "model.bundle"
    save_bundle(ModelBundle(names=("s1", "s2"), norm=norm, snippets=snippet_values(sets),
                            ell=8, recognizer=RecognizerModel(2, 16, 2, seed=0),
                            reconstructor=ReconstructorModel(2, 16, seed=0)), path)
    assert load_bundle(path).names == ("s1", "s2")
    _edit_header(path, edit)
    with pytest.raises(ValueError, match=message):
        load_bundle(path)
