import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saeti.models import (
    GAP_CHUNK,
    MISSING_FILL,
    RecognizerModel,
    ReconstructorModel,
    default_latent,
    infer,
)


def test_recognizer_output_shape_and_rows():
    model = RecognizerModel(d=3, m=16, k=4, seed=1)
    x = np.random.default_rng(0).random((5, 3, 16))
    logits = model.forward(x)
    assert logits.shape == (5, 3, 4)
    assert np.all(np.isfinite(logits.data))
    labels = model.predict(x)
    assert labels.shape == (5, 3)
    assert labels.min() >= 0 and labels.max() <= 3
    assert np.array_equal(labels, np.argmax(logits.data, axis=-1))


def test_recognizer_window_length_floor():
    with pytest.raises(ValueError, match="window too short for three pools"):
        RecognizerModel(d=1, m=7, k=2)
    RecognizerModel(d=1, m=8, k=2)  # smallest legal window


def test_recognizer_input_validation():
    model = RecognizerModel(d=2, m=8, k=2)
    with pytest.raises(ValueError, match="expected"):
        model.forward(np.zeros((4, 3, 8)))
    with pytest.raises(ValueError):
        model.forward(np.zeros((2, 8)))


def test_recognizer_seed_determinism():
    x = np.random.default_rng(3).random((2, 2, 16))
    a = RecognizerModel(2, 16, 2, seed=9).forward(x).data
    b = RecognizerModel(2, 16, 2, seed=9).forward(x).data
    c = RecognizerModel(2, 16, 2, seed=10).forward(x).data
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_recognizer_handles_fill_values():
    model = RecognizerModel(d=2, m=16, k=2)
    x = np.full((1, 2, 16), MISSING_FILL)
    probs = model.forward(x)
    assert np.isfinite(probs.data).all()


def test_parameter_names_unique_and_stable():
    m1 = RecognizerModel(2, 16, 3, seed=0)
    m2 = RecognizerModel(2, 16, 3, seed=4)
    names1 = [n for n, _ in m1.parameters()]
    names2 = [n for n, _ in m2.parameters()]
    assert names1 == names2
    assert len(names1) == len(set(names1))
    r1 = ReconstructorModel(3, 8, seed=0)
    rnames = [n for n, _ in r1.parameters()]
    assert len(rnames) == len(set(rnames))


def test_default_latent_quarter():
    assert default_latent(4, 32) == 32
    assert default_latent(2, 16) == 8
    assert default_latent(1, 5) == 2


def test_reconstructor_latent_validation():
    with pytest.raises(ValueError, match="latent not compressive"):
        ReconstructorModel(2, 8, latent=16)
    with pytest.raises(ValueError):
        ReconstructorModel(2, 8, latent=0)
    model = ReconstructorModel(2, 8, latent=15)
    assert model.latent == 15


def test_reconstructor_shapes_and_range():
    model = ReconstructorModel(d=2, m=12, seed=2)
    x = np.random.default_rng(1).random((3, 2, 2, 12))
    out = model.forward(x)
    assert out.shape == (3, 2, 12)
    assert np.all((out.data > 0) & (out.data < 1))  # sigmoid output


def test_forward_is_exactly_decode_of_encode():
    model = ReconstructorModel(d=2, m=10, seed=5)
    x = np.random.default_rng(2).random((2, 2, 2, 10))
    z = model.encode(x)
    assert z.shape == (2, model.latent)
    assert np.array_equal(model.decode(z).data, model.forward(x).data)


def test_all_true_mask_gives_the_unmasked_bits():
    model = ReconstructorModel(d=3, m=10, seed=6)
    x = np.random.default_rng(4).random((5, 3, 2, 10))
    full = model.forward(x).data
    assert np.array_equal(model.forward(x, np.ones((5, 3), dtype=bool)).data.view(np.uint64),
                          full.view(np.uint64))
    mask = np.array([[1, 0, 0], [0, 0, 0], [1, 1, 0], [0, 1, 0], [1, 1, 0]], dtype=bool)
    part = model.forward(x, mask).data
    assert np.max(np.abs(part - full)[mask]) <= 1e-12
    assert np.all(part[~mask] == 0.0)
    with pytest.raises(ValueError, match="mask"):
        model.forward(x, mask[:, :2])


def test_reconstructor_input_validation():
    model = ReconstructorModel(d=2, m=10)
    with pytest.raises(ValueError, match="expected"):
        model.encode(np.zeros((1, 2, 10)))
    with pytest.raises(ValueError):
        model.decode(model.encode(np.zeros((1, 2, 2, 10)))[:, :2])


def test_gradients_reach_every_parameter():
    from saeti.autograd import cross_entropy, masked_mse, zero_grads

    # m=16 pools down to two steps, so even recurrent weights see signal
    rec = RecognizerModel(2, 16, 2, seed=0)
    x = np.random.default_rng(0).random((3, 2, 16))
    loss = cross_entropy(rec.forward(x), np.zeros((3, 2), dtype=int))
    params = [p for _, p in rec.parameters()]
    zero_grads(params)
    loss.backward()
    for name, p in rec.parameters():
        assert p.grad is not None and np.any(p.grad != 0), name

    recon = ReconstructorModel(1, 8, seed=0)
    xx = np.random.default_rng(1).random((2, 1, 2, 8))
    loss = masked_mse(recon.forward(xx), np.zeros((2, 1, 8)), np.ones((2, 1, 8)))
    params = [p for _, p in recon.parameters()]
    zero_grads(params)
    loss.backward()
    for name, p in recon.parameters():
        assert p.grad is not None, name
        assert np.any(p.grad != 0), name


def test_unseeded_models_are_free_zero_placeholders():
    tracemalloc.start()
    try:
        recog = RecognizerModel(4, 1000, 3, seed=None)
        recon = ReconstructorModel(4, 1000, seed=None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20   # seeded, from_latent alone would hold 8 GB
    for _, p in recog.parameters() + recon.parameters():
        assert not p.data.any() and not p.data.flags.writeable


@pytest.mark.parametrize("d, m, k, latent", [(1, 8, 1, 1), (2, 16, 2, None), (3, 9, 5, 7),
                                             (4, 32, 3, None)])
def test_unseeded_models_list_the_seeded_names_and_shapes(d, m, k, latent):
    def layout(model):
        return [(name, p.shape) for name, p in model.parameters()]

    assert layout(RecognizerModel(d, m, k, seed=None)) == layout(RecognizerModel(d, m, k))
    assert (layout(ReconstructorModel(d, m, latent=latent, seed=None))
            == layout(ReconstructorModel(d, m, latent=latent)))


class _TwoRowReference:
    """A pool of rows for the A5 shape (d=4, m=32, k=3) and each row's output
    in a fixed 2-row batch: the row twice, with its decode mask twice."""

    def __init__(self, rows: int = 139):
        rng = np.random.default_rng(31)
        self.recognizer = RecognizerModel(4, 32, 3, seed=2)
        self.reconstructor = ReconstructorModel(4, 32, seed=3)
        self.x = np.where(rng.random((rows, 4, 32)) < 0.2, MISSING_FILL, rng.random((rows, 4, 32)))
        self.pairs = rng.random((rows, 4, 2, 32))
        self._cache = {}

    def logits(self, i):
        if i not in self._cache:
            self._cache[i] = self.recognizer.forward(self.x[[i, i]]).data[0]
        return self._cache[i]

    def decoded(self, i, mask):
        key = (i, mask.tobytes())
        if key not in self._cache:
            pair = self.reconstructor.forward(self.pairs[[i, i]], np.stack([mask, mask]))
            self._cache[key] = pair.data[0]
        return self._cache[key]


@pytest.fixture(scope="module")
def two_row():
    return _TwoRowReference()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 139), seed=st.integers(0, 2**32 - 1))
@example(n=1, seed=0)
@example(n=97, seed=1)      # the last batch of these holds one row
@example(n=129, seed=2)
def test_infer_gives_every_row_the_bits_of_a_fixed_two_row_batch(two_row, n, seed):
    """A row's output does not depend on how many rows share the call or its batch."""
    rng = np.random.default_rng(seed)
    rows = rng.permutation(two_row.x.shape[0])[:n]
    masks = rng.random((n, 4)) < rng.uniform(0.2, 1.0)
    logits = infer(two_row.recognizer.forward, two_row.x[rows])
    decoded = infer(two_row.reconstructor.forward, two_row.pairs[rows], masks)
    assert logits.shape == (n, 4, 3) and decoded.shape == (n, 4, 32)
    for got_logits, got_decoded, i, mask in zip(logits, decoded, rows, masks):
        assert np.array_equal(got_logits.view(np.uint64), two_row.logits(i).view(np.uint64))
        assert np.array_equal(got_decoded.view(np.uint64), two_row.decoded(i, mask).view(np.uint64))


def test_infer_hands_a_one_row_batch_to_forward_as_it_is():
    calls = []

    def forward(x):
        calls.append(x.copy())
        return x * 2.0

    x = np.arange(GAP_CHUNK + 1, dtype=float)[:, None]
    assert np.array_equal(infer(forward, x), 2.0 * x)
    assert [len(c) for c in calls] == [GAP_CHUNK, 1]
    calls.clear()
    assert np.array_equal(infer(forward, x[-1:]), 2.0 * x[-1:])
    assert len(calls) == 1 and np.array_equal(calls[0], x[-1:])


def test_a_one_window_training_batch_has_the_forward_bits_of_row_0_of_two_copies(two_row):
    """Training runs the same guarded products with the gradient graph on, so a
    batch or validation set of one window gets the bits of a two-row batch."""
    for i in range(3):
        logits = two_row.recognizer.forward(two_row.x[[i]])
        assert logits.requires_grad
        assert np.array_equal(logits.data[0].view(np.uint64), two_row.logits(i).view(np.uint64))
        decoded = two_row.reconstructor.forward(two_row.pairs[[i]])
        assert decoded.requires_grad
        pair = two_row.reconstructor.forward(two_row.pairs[[i, i]]).data[0]
        assert np.array_equal(decoded.data[0].view(np.uint64), pair.view(np.uint64))
