"""Property tests: the imputation and MPdist guarantees hold for random inputs.

Bundles here hold untrained models with a fixed seed and snippet sets
found on a random series: the guarantees under test are about the
windowing and write-back plumbing, which must hold whatever the models
predict. The MPdist properties run on random walks with bit-identical
repeated blocks, constant stretches and gaps. Saved bundles are mutated
at random: the loader must reject them with ``ValueError`` or load a
bundle that imputes deterministically. The fused cross-entropy matches
scipy's log-sum-exp and ``softmax - onehot`` for random logits.
"""

import functools
import json
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, softmax

from conftest import two_regime_series
from saeti.autograd import Tensor, cross_entropy
from saeti.core_ts import (
    NormParams,
    TimeSeries,
    minmax_normalize,
    split_nonoverlapping,
    window_starts,
)
from saeti.models import RecognizerModel, ReconstructorModel
from saeti.mpdist import default_inner_window, mpdist, mpdist_profile_matrix
from saeti.pipeline import impute
from saeti.scenarios import gen_mcar
from saeti.snippets import find_all_snippets, find_snippets, snippet_values
from saeti.training import (
    BUNDLE_MAGIC,
    ModelBundle,
    TrainConfig,
    load_bundle,
    save_bundle,
    train_bundle,
)

K = 2


@functools.lru_cache(maxsize=None)
def untrained_bundle(d: int, m: int) -> ModelBundle:
    rng = np.random.default_rng(100 * d + m)
    history = TimeSeries.from_values(rng.normal(size=(8 * m, d)))
    sets = find_all_snippets(history, m, K)
    return ModelBundle(
        names=history.names,
        norm=NormParams(mins=np.full(d, -2.0), maxs=np.full(d, 2.0)),
        snippets=snippet_values(sets),
        ell=sets[0].ell,
        recognizer=RecognizerModel(d, m, K, seed=3),
        reconstructor=ReconstructorModel(d, m, seed=3),
    )


@st.composite
def gapped_series(draw):
    """A random (n, d) series with gap layouts that stress the windowing.

    Layouts: a coordinate dark for a whole window, gaps in the first and
    in the last window, gaps where the tail window overlaps its
    predecessor, and scattered cells, in any combination.
    """
    d = draw(st.integers(1, 3))
    m = draw(st.sampled_from([8, 16]))
    n = draw(st.integers(m, 6 * m + 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=(n, d)) * 1.5  # some cells fall outside the bundle range
    mask = rng.random((n, d)) >= draw(st.sampled_from([0.0, 0.05, 0.3]))
    starts = window_starts(n, m)
    if draw(st.booleans()):  # one coordinate dark for a whole window
        s = starts[draw(st.integers(0, starts.shape[0] - 1))]
        mask[s:s + m, draw(st.integers(0, d - 1))] = False
    if draw(st.booleans()):  # gap in the first window
        mask[draw(st.integers(0, m - 1)), draw(st.integers(0, d - 1))] = False
    if draw(st.booleans()):  # gap in the last window
        mask[draw(st.integers(n - m, n - 1)), draw(st.integers(0, d - 1))] = False
    if starts.shape[0] > 1 and starts[-1] < starts[-2] + m and draw(st.booleans()):
        # gap inside the rows the tail window shares with its predecessor
        mask[draw(st.integers(starts[-1], starts[-2] + m - 1)),
             draw(st.integers(0, d - 1))] = False
    return TimeSeries(np.where(mask, values, np.nan)), m


@settings(deadline=None, max_examples=200)
@given(gapped_series())
def test_impute_keeps_observed_fills_every_gap_and_is_idempotent(case):
    ts, m = case
    bundle = untrained_bundle(ts.d, m)
    out = impute(ts, bundle)
    assert out.mask.all()
    assert np.isfinite(out.values).all()
    assert out.values[ts.mask].tobytes() == ts.values[ts.mask].tobytes()
    again = impute(out, bundle)
    assert again.values.tobytes() == out.values.tobytes()


@settings(deadline=None, max_examples=200)
@given(gapped_series())
def test_split_nonoverlapping_covers_every_step(case):
    ts, m = case
    starts, windows = split_nonoverlapping(ts, m)
    assert np.array_equal(starts, window_starts(ts.n, m))
    assert windows.shape == (starts.shape[0], ts.d, m)
    covered = np.zeros(ts.n, dtype=bool)
    for s, window in zip(starts, windows):
        covered[s:s + m] = True
        assert np.array_equal(~np.isnan(window), ts.mask[s:s + m].T)
        assert np.array_equal(window, ts.values[s:s + m].T, equal_nan=True)
    assert covered.all()


@st.composite
def repeated_block_series(draw):
    """A random walk with repeated blocks, a constant stretch and gaps.

    Returns ``(values, m)``. One repeat may copy a whole segment onto
    another (bit-identical segments); the others land anywhere.
    """
    m = draw(st.sampled_from([8, 12, 16]))
    n = draw(st.integers(2 * m, 8 * m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.cumsum(rng.normal(size=n))
    n_seg = n // m
    if draw(st.booleans()):
        a = draw(st.integers(0, n_seg - 1))
        b = (a + draw(st.integers(1, n_seg - 1))) % n_seg
        x[b * m:(b + 1) * m] = x[a * m:(a + 1) * m].copy()
    for _ in range(draw(st.integers(0, 2))):
        length = draw(st.integers(m // 2, 2 * m))
        src, dst = draw(st.integers(0, n - length)), draw(st.integers(0, n - length))
        x[dst:dst + length] = x[src:src + length].copy()
    if draw(st.booleans()):
        s = draw(st.integers(0, n - m))
        x[s:s + draw(st.integers(1, m))] = x[s]
    for _ in range(draw(st.integers(0, 2))):
        x[draw(st.integers(0, n - 1))] = np.nan
    return x, m


@settings(deadline=None, max_examples=80)
@given(repeated_block_series())
def test_profile_matrix_matches_direct_mpdist_and_repeats(case):
    x, m = case
    pm = mpdist_profile_matrix(x, m)
    ell = default_inner_window(m)
    assert (pm.dist >= 0.0).all()
    for row, seg in enumerate(pm.segment_indices):
        seg_vals = x[(seg - 1) * m:seg * m]
        for col, start in enumerate(pm.subseq_starts):
            direct = mpdist(seg_vals, x[start - 1:start - 1 + m], ell)
            assert abs(pm.dist[row, col] - direct) <= 1e-9
        aligned = np.flatnonzero(pm.subseq_starts == (seg - 1) * m + 1)[0]
        assert pm.dist[row, aligned] == 0.0
    seg_bytes = [x[(seg - 1) * m:seg * m].tobytes() for seg in pm.segment_indices]
    for r1 in range(len(seg_bytes)):
        for r2 in range(r1):
            if seg_bytes[r1] == seg_bytes[r2]:
                assert pm.dist[r1].tobytes() == pm.dist[r2].tobytes()


@st.composite
def odd_rank_series(draw):
    """A random walk with one repeated block, for selection ranks k = 1..5.

    Returns ``(values, m, ell)``. m in {24, 30, 48} gives k = 3, 3, 5 at
    the default ell; an ell near m leaves width = m - ell + 1 below k
    (m=8, ell=8 is width 1).
    """
    m = draw(st.sampled_from([8, 24, 30, 48]))
    ell = draw(st.sampled_from([None, m - 2, m - 1, m]))
    n = draw(st.integers(2 * m, 5 * m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.cumsum(rng.normal(size=n))
    length = draw(st.integers(m // 2, 2 * m))
    src, dst = draw(st.integers(0, n - length)), draw(st.integers(0, n - length))
    x[dst:dst + length] = x[src:src + length].copy()
    return x, m, ell


@settings(deadline=None, max_examples=60)
@given(odd_rank_series())
def test_profile_matrix_matches_direct_mpdist_at_odd_ranks_and_narrow_widths(case):
    x, m, ell = case
    pm = mpdist_profile_matrix(x, m, ell)
    for row, seg in enumerate(pm.segment_indices):
        seg_vals = x[(seg - 1) * m:seg * m]
        for col, start in enumerate(pm.subseq_starts):
            direct = mpdist(seg_vals, x[start - 1:start - 1 + m], pm.ell)
            assert abs(pm.dist[row, col] - direct) <= 1e-9
        aligned = np.flatnonzero(pm.subseq_starts == (seg - 1) * m + 1)[0]
        assert pm.dist[row, aligned] == 0.0


@settings(deadline=None, max_examples=200)
@given(repeated_block_series(), st.integers(0, 2**32 - 1))
def test_mpdist_is_symmetric_and_zero_on_self(case, seed):
    x, m = case
    rng = np.random.default_rng(seed)
    clean = np.nan_to_num(x, nan=0.5)
    a0, b0 = rng.integers(0, x.shape[0] - m + 1, 2)
    a, b = clean[a0:a0 + m], clean[b0:b0 + m]
    assert mpdist(a, b) == mpdist(b, a)
    assert mpdist(a, a) == 0.0


@settings(deadline=None, max_examples=80)
@given(repeated_block_series(), st.integers(1, 4))
def test_snippet_fracs_partition_retained_subsequences(case, k):
    x, m = case
    pm = mpdist_profile_matrix(x, m)
    assume(pm.subseq_starts.shape[0] > 0 and k <= pm.segment_indices.shape[0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # k=1 warns about a degenerate classifier
        sset = find_snippets(x, m, k)
    assert sset.ranks.shape == (x.shape[0] - m + 1,)
    assert np.array_equal(np.flatnonzero(sset.ranks >= 0) + 1, pm.subseq_starts)
    assert ((sset.ranks >= -1) & (sset.ranks < k)).all()
    for r, item in enumerate(sset.items):
        assert item.frac == np.count_nonzero(sset.ranks == r) / pm.subseq_starts.shape[0]
    assert abs(sum(item.frac for item in sset.items) - 1.0) <= 1e-12


@functools.lru_cache(maxsize=None)
def saved_bundle() -> tuple[bytes, TimeSeries]:
    """A 1-epoch m=16 bundle's file bytes and a gapped series it can fill."""
    ts = two_regime_series(n=1600, block=400)
    ts_norm, norm = minmax_normalize(ts)
    config = TrainConfig(m=16, k=2, seed=0, max_epochs=1)
    bundle, _, _ = train_bundle(ts_norm, norm, find_all_snippets(ts_norm, 16, 2), config)
    with tempfile.TemporaryDirectory() as tmp:
        save_bundle(bundle, Path(tmp) / "model.bundle")
        blob = (Path(tmp) / "model.bundle").read_bytes()
    return blob, gen_mcar(ts, 0.1, 3)[0]


ODD_VALUES = st.sampled_from([None, True, 2.0, "2", [2], {}, -1])


@st.composite
def mutated_bundle(draw):
    """The saved bundle's bytes under one random mutation.

    Header keys are dropped or given values of other types; format,
    names, d, k and ell change (m and latent only shrink, so no mutation
    asks for a model larger than the trained one); ``arrays`` entries are
    swapped or reshaped; a non-finite value lands in a data block; or the
    file is cut short.
    """
    blob, _ = saved_bundle()
    (n,) = struct.unpack("<Q", blob[8:16])
    header, body = json.loads(blob[16:16 + n]), blob[16 + n:]
    cfg = header["config"]
    kind = draw(st.sampled_from(["drop", "retype", "config", "arrays", "non_finite",
                                 "truncate"]))
    if kind == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if kind in ("drop", "retype"):
        owner = draw(st.sampled_from([header, cfg]))
        key = draw(st.sampled_from(sorted(owner)))
        if kind == "drop":
            del owner[key]
        else:
            owner[key] = draw(ODD_VALUES)
    elif kind == "config":
        key = draw(st.sampled_from(["format", "names", "d", "k", "ell", "m", "latent"]))
        if key == "names":
            cfg["names"] = cfg["names"][:draw(st.integers(0, 3))] * draw(st.integers(1, 2))
        elif key == "format":
            header["format"] = draw(st.integers(-1, 4))
        elif key in ("m", "latent"):
            cfg[key] = draw(st.integers(-1, cfg[key]))
        else:
            cfg[key] = cfg[key] + draw(st.integers(-3, 3))
    elif kind == "arrays":
        arrays = header["arrays"]
        i = draw(st.integers(0, len(arrays) - 1))
        if draw(st.booleans()):
            j = draw(st.integers(0, len(arrays) - 1))
            arrays[i], arrays[j] = arrays[j], arrays[i]
        else:
            shape = arrays[i][1]
            axis = draw(st.integers(0, len(shape)))
            if axis == len(shape):
                shape.append(1)
            else:
                shape[axis] += draw(st.sampled_from([-1, 1]))
    else:
        i = draw(st.integers(0, len(header["arrays"]) - 1))
        offset = 8 * sum(int(np.prod(shape)) for _, shape in header["arrays"][:i])
        offset += 8 * draw(st.integers(0, int(np.prod(header["arrays"][i][1])) - 1))
        value = np.array([draw(st.sampled_from([np.nan, np.inf, -np.inf]))], dtype="<f8")
        body = body[:offset] + value.tobytes() + body[offset + 8:]
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    return BUNDLE_MAGIC + struct.pack("<Q", len(raw)) + raw + body


@settings(deadline=None, max_examples=300)
@given(mutated_bundle())
def test_bundle_mutations_are_rejected_or_impute_deterministically(blob):
    _, gapped = saved_bundle()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.bundle"
        path.write_bytes(blob)
        try:
            bundle = load_bundle(path)
        except ValueError:
            return
    first = impute(gapped, bundle)
    assert first.mask.all() and np.isfinite(first.values).all()
    assert impute(gapped, bundle).values.tobytes() == first.values.tobytes()


@settings(deadline=None, max_examples=300)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.integers(2, 6),
       st.floats(0.0, 1e3), st.integers(0, 2**32 - 1))
def test_cross_entropy_matches_logsumexp_and_softmax_gradient(lead, k, scale, seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(*lead, k)) * scale
    target = rng.integers(0, k, size=lead)
    x = Tensor(logits, requires_grad=True)
    loss = cross_entropy(x, target)
    loss.backward()
    assert np.isfinite(loss.item()) and np.isfinite(x.grad).all()
    picked = np.take_along_axis(logits, target[..., None], axis=-1)[..., 0]
    # The oracle subtracts the picked logit from a log-sum-exp near the largest
    # one, so near-zero rows carry its rounding of a few ulps of that logit.
    ulps = 8 * np.finfo(float).eps * np.abs(logits).max() * target.size
    np.testing.assert_allclose(loss.item(), (logsumexp(logits, axis=-1) - picked).sum(),
                               rtol=1e-9, atol=ulps)
    np.testing.assert_allclose(x.grad, softmax(logits, axis=-1) - np.eye(k)[target],
                               rtol=0, atol=1e-12)
