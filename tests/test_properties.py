"""Property tests: the imputation guarantees hold for random shapes and gaps.

Bundles here hold untrained models with a fixed seed and snippet sets
found on a random series: the guarantees under test are about the
windowing and write-back plumbing, which must hold whatever the models
predict.
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from saeti.core_ts import NormParams, TimeSeries, split_nonoverlapping, window_starts
from saeti.models import RecognizerModel, ReconstructorModel
from saeti.pipeline import impute
from saeti.snippets import find_all_snippets
from saeti.training import ModelBundle

K = 2


@functools.lru_cache(maxsize=None)
def untrained_bundle(d: int, m: int) -> ModelBundle:
    rng = np.random.default_rng(100 * d + m)
    history = TimeSeries.from_values(rng.normal(size=(8 * m, d)))
    return ModelBundle(
        names=history.names,
        norm=NormParams(mins=np.full(d, -2.0), maxs=np.full(d, 2.0)),
        snippet_sets=find_all_snippets(history, m, K),
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
    return TimeSeries(values=values, mask=mask), m


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
    starts, values, mask = split_nonoverlapping(ts, m)
    assert np.array_equal(starts, window_starts(ts.n, m))
    assert values.shape == mask.shape == (starts.shape[0], ts.d, m)
    covered = np.zeros(ts.n, dtype=bool)
    for s, window, window_mask in zip(starts, values, mask):
        covered[s:s + m] = True
        assert np.array_equal(window_mask, ts.mask[s:s + m].T)
        assert np.array_equal(window, ts.values[s:s + m].T, equal_nan=True)
    assert covered.all()
