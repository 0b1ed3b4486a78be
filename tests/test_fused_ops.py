"""The one-node conv1d and GRU against the graph-level oracles they replace.

``conv1d_im2col`` is the im2col convolution: ``np.pad``, a
``sliding_window_view`` of the padded input, one matmul, and a backward
that adds every kernel tap into the padded gradient. ``gru_graph`` builds
the GRU step by step from elementwise and matmul nodes. Both must give
the same values and gradients as ``autograd.conv1d`` and
``autograd.gru_forward`` for random shapes, including empty batches,
kernels wider than the input and non-contiguous inputs.

``conv1d_padded`` is the item-major formulation ``conv1d`` replaced: one
accumulating GEMM per tap over zero-padded item-major rows, with weight
and bias gradients summed over those padded rows. At every layer shape
of the models ``conv1d`` must give its output and input gradient bit for
bit. Its weight and bias gradients are sums over step-major rows with no
padding: they must match ``step_major_param_grads`` bit for bit and
``conv1d_padded`` to within rounding, with a lower peak in the backward.

Further tests check that ``Tensor._accumulate`` never lets two tensors
share a gradient buffer, that a second conv backward adds into the
parameter gradients, that ``conv1d`` hands BLAS its operands without
a copy, that its step-major output reaches the next conv and a GRU
without a copy, and that ``conv1d`` and ``leaky_relu`` hold only their
output for the backward.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.blas import dgemm

from saeti import autograd as ag
from saeti.autograd import Tensor, sigmoid, tanh


def conv1d_im2col(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    c_out, c_in, kw = weight.data.shape
    b, _, length = x.data.shape
    pad = kw // 2
    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad)))
    patches = sliding_window_view(xp, kw, axis=2)          # (B, C_in, L, kw)
    cols = patches.transpose(0, 2, 1, 3).reshape(b * length, c_in * kw)
    w2 = weight.data.reshape(c_out, c_in * kw)
    y = (cols @ w2.T).reshape(b, length, c_out).transpose(0, 2, 1)
    y = y + bias.data[None, :, None]

    def _bwd(g):
        g2 = g.transpose(0, 2, 1).reshape(b * length, c_out)
        if weight.requires_grad:
            weight._accumulate((g2.T @ cols).reshape(c_out, c_in, kw))
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2)))
        if x.requires_grad:
            gcols = (g2 @ w2).reshape(b, length, c_in, kw)
            gxp = np.zeros_like(xp)
            for t in range(kw):
                gxp[:, :, t:t + length] += gcols[:, :, :, t].transpose(0, 2, 1)
            x._accumulate(gxp[:, :, pad:pad + length])
    return ag._node(y, (x, weight, bias), _bwd)


def _pad_rows(xt, pad):
    xp = np.zeros((xt.shape[0], xt.shape[1] + 2 * pad, xt.shape[2]))
    xp[:, pad:pad + xt.shape[1]] = xt
    return xp.reshape(-1, xt.shape[2])


def _conv_padded_rows(xt, weight):
    """``(B, L, C_in)`` ``xt`` convolved item-major: one GEMM per tap over padded rows."""
    b, length, _ = xt.shape
    c_out, _, kw = weight.shape
    xp = _pad_rows(xt, kw // 2)
    y = np.empty((len(xp), c_out))
    taps = weight.transpose(2, 1, 0).copy()
    rows = len(xp) - kw + 1
    for t in range(kw if rows > 0 else 0):
        dgemm(1.0, taps[t].T, xp[t:t + rows].T, beta=float(t > 0), c=y[:rows].T, overwrite_c=1)
    return y.reshape(b, length + kw - 1, c_out)[:, :length], xp


def conv1d_padded(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    kw = weight.data.shape[2]
    y, xp = _conv_padded_rows(x.data.transpose(0, 2, 1), weight.data)
    y += bias.data

    def _bwd(g):
        gt = g.transpose(0, 2, 1)
        if x.requires_grad:
            gx, gp = _conv_padded_rows(gt, weight.data.transpose(1, 0, 2)[:, :, ::-1])
            x._accumulate(gx.transpose(0, 2, 1))
        else:
            gp = _pad_rows(gt, kw // 2)
        if weight.requires_grad:
            rows, pad = len(gp) - kw + 1, kw // 2
            gw = np.stack([xp[t:t + rows].T @ gp[pad:pad + rows] for t in range(kw)])
            weight._accumulate(gw.transpose(2, 1, 0))
        if bias.requires_grad:
            bias._accumulate(gp.sum(axis=0))
    return ag._node(y.transpose(0, 2, 1), (x, weight, bias), _bwd)


def step_major_param_grads(x: np.ndarray, g: np.ndarray, kw: int):
    """Weight and bias gradients of a same-padded conv from ``(B, C, L)`` ``x`` and ``g``.

    Step-major rows, in the layout numpy's reshape gives them: tap ``t``
    pairs every gradient row with the input row ``(t - kw//2)·B`` rows away,
    where that row exists; the bias gradient is the sum of the rows.
    """
    b, c_in, length = x.shape
    c_out, n = g.shape[1], length * b
    x_rows = x.transpose(2, 0, 1).reshape(n, c_in)
    g_rows = g.transpose(2, 0, 1).reshape(n, c_out)
    gw = np.empty((c_out, c_in, kw))
    for t in range(kw):
        shift = (t - kw // 2) * b
        first, stop = max(0, -shift), min(n, n - shift)
        gw[:, :, t] = g_rows[first:stop].T @ x_rows[first + shift:stop + shift]
    return gw, g_rows.sum(axis=0)


def gru_graph(xs: list[Tensor], params: ag.GRUParams) -> tuple[list[Tensor], Tensor]:
    h = Tensor(np.zeros((xs[0].data.shape[0], params.hidden_size)))
    states = []
    for x in xs:
        z = sigmoid(x @ params.w_z + h @ params.u_z + params.b_z)
        r = sigmoid(x @ params.w_r + h @ params.u_r + params.b_r)
        cand = tanh(x @ params.w_h + (r * h) @ params.u_h + params.b_h)
        h = (1.0 - z) * h + z * cand
        states.append(h)
    return states, h


def _close(a, b):
    np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)


def _grads(tensors):
    return [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in tensors]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3), st.integers(1, 4), st.integers(1, 4),
       st.sampled_from([1, 3, 5, 7]), st.integers(1, 9),
       st.sampled_from(["item-major", "transposed", "step-major", "channel-slice"]),
       st.integers(0, 2**32 - 1))
def test_conv1d_matches_im2col_oracle(batch, c_in, c_out, kw, length, layout, seed):
    rng = np.random.default_rng(seed)
    shape = (batch, c_in, length)
    if layout == "transposed":  # a (B, L, C_in) array read through a transposed view
        data = rng.normal(size=(batch, length, c_in)).transpose(0, 2, 1)
    elif layout == "step-major":  # an (L, B, C_in) array, as conv1d returns it
        data = rng.normal(size=(length, batch, c_in)).transpose(1, 2, 0)
    elif layout == "channel-slice":  # some channels of (L, B, C), as the decoder reads them
        data = rng.normal(size=(length, batch, c_in + 3))[:, :, 1:1 + c_in].transpose(1, 2, 0)
    else:
        data = rng.normal(size=shape)
    x = Tensor(data, requires_grad=True)
    w = Tensor(rng.normal(size=(c_out, c_in, kw)), requires_grad=True)
    b = Tensor(rng.normal(size=c_out), requires_grad=True)
    probe = rng.normal(size=(batch, c_out, length))

    results = []
    for op in (ag.conv1d, conv1d_im2col):
        ag.zero_grads([x, w, b])
        y = op(x, w, b)
        (y * probe).sum().backward()
        results.append((y.data.copy(), _grads([x, w, b])))
    (y_new, g_new), (y_old, g_old) = results
    assert y_new.shape == y_old.shape == probe.shape
    _close(y_new, y_old)
    for a, o in zip(g_new, g_old):
        _close(a, o)


# (C_in, C_out, L) of every conv layer of the models at d=4, m=32. The
# recognizer's first layer and each encoder's read window data, which
# carries no gradient.
MODEL_CONV_SHAPES = [(4, 256, 32), (256, 128, 16), (128, 64, 8),
                     (2, 128, 32), (128, 64, 32), (64, 32, 32),
                     (32, 64, 32), (64, 128, 32), (128, 1, 32)]
DATA_LAYERS = {(4, 256, 32), (2, 128, 32)}


@pytest.mark.parametrize("layout", ["item-major", "step-major"])
@pytest.mark.parametrize("batch", [1, 2, 30, 32])
@pytest.mark.parametrize("shape", MODEL_CONV_SHAPES, ids=lambda s: "%d-%d-%d" % s)
def test_conv1d_keeps_the_bits_of_the_padded_formulation(shape, batch, layout):
    c_in, c_out, length = shape
    rng = np.random.default_rng(c_in * 1000 + c_out + length + batch)
    if layout == "step-major":
        data = rng.normal(size=(length, batch, c_in)).transpose(1, 2, 0)
    else:
        data = rng.normal(size=(batch, c_in, length))
    x = Tensor(data, requires_grad=shape not in DATA_LAYERS)
    w = Tensor(rng.normal(size=(c_out, c_in, 5)) * 0.1, requires_grad=True)
    b = Tensor(rng.normal(size=c_out), requires_grad=True)
    probe = rng.normal(size=(length, batch, c_out)).transpose(1, 2, 0)

    results = []
    for op in (ag.conv1d, conv1d_padded):
        ag.zero_grads([x, w, b])
        y = op(x, w, b)
        (y * probe).sum().backward()
        results.append([y.data] + [t.grad for t in (x, w, b) if t.requires_grad])
    (*new, new_gw, new_gb), (*old, old_gw, old_gb) = results
    for a, o in zip(new, old, strict=True):      # the output and the input gradient
        assert a.tobytes() == np.ascontiguousarray(o).tobytes()
    ref_gw, ref_gb = step_major_param_grads(data, probe, 5)
    for a, ref, o in ((new_gw, ref_gw, old_gw), (new_gb, ref_gb, old_gb)):
        assert a.shape == ref.shape and a.tobytes() == ref.tobytes()
        assert np.abs(a - o).max() <= 1e-12 * np.abs(o).max()


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.integers(0, 3), st.integers(1, 4), st.integers(1, 4),
       st.sampled_from(["stacked", "time-major", "transposed"]),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_gru_matches_per_step_graph(steps, batch, n_in, hidden, layout, every_state, seed):
    rng = np.random.default_rng(seed)
    params = ag.GRUParams(n_in, hidden, rng)
    for _, t in params.tensors():  # nonzero biases exercise their gradients
        if t.data.ndim == 1:
            t.data[:] = rng.normal(size=hidden)
    seq = rng.normal(size=(steps, batch, n_in))
    xs = [Tensor(s, requires_grad=True) for s in seq]
    if layout == "stacked":  # the steps joined into one tensor, gradients reach each step
        new_input = ag.concat([x.reshape(1, batch, n_in) for x in xs], axis=0)
    elif layout == "time-major":
        new_input = Tensor(seq.copy(), requires_grad=True)
    else:  # a (B, T, F) array read time-major through a transposed view
        new_input = Tensor(seq.transpose(1, 0, 2).copy().transpose(1, 0, 2), requires_grad=True)
    probe = rng.normal(size=(steps, batch, hidden))
    gates = [t for _, t in params.tensors()]

    def loss_of(states, last):
        if every_state:
            return (states * probe).sum()
        return (last * probe[-1]).sum()

    ag.zero_grads(gates + xs)
    states = ag.gru_forward(new_input, params)
    last = states[-1]
    assert states.shape == (steps, batch, hidden) and last.shape == (batch, hidden)
    loss_of(states, last).backward()
    new_gates = _grads(gates)
    new_x = np.stack(_grads(xs)) if layout == "stacked" else _grads([new_input])[0]

    ag.zero_grads(gates + xs)
    old_states, old_last = gru_graph(xs, params)
    stacked = ag.concat([s.reshape(1, batch, hidden) for s in old_states], axis=0)
    loss_of(stacked, old_last).backward()

    _close(states.data, stacked.data)
    _close(last.data, old_last.data)
    for a, o in zip(new_gates, _grads(gates)):
        _close(a, o)
    _close(new_x, np.stack(_grads(xs)))


def test_empty_batch_runs_through_both_ops():
    rng = np.random.default_rng(0)
    x = Tensor(np.zeros((0, 3, 6)), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=2), requires_grad=True)
    y = ag.conv1d(x, w, b)
    assert y.shape == (0, 2, 6)
    params = ag.GRUParams(2, 4, rng)
    states = ag.gru_forward(y.transpose(2, 0, 1), params)
    last = states[-1]
    assert states.shape == (6, 0, 4) and last.shape == (0, 4)
    (last * 1.0).sum().backward()
    assert np.array_equal(w.grad, np.zeros_like(w.data))
    assert x.grad.shape == (0, 3, 6)


def _numeric(f, arrays, h=1e-6):
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        for i in np.ndindex(a.shape):
            keep = a[i]
            a[i] = keep + h
            fp = f()
            a[i] = keep - h
            fm = f()
            a[i] = keep
            g[i] = (fp - fm) / (2 * h)
        grads.append(g)
    return grads


def test_first_gradient_write_owns_its_buffer():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    y = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    double = x + x                 # one gradient array reaches x twice
    square = x * x
    shared = x + y                 # one gradient array reaches two parents
    loss = ((double * square) + (shared * y) * 3.0).sum()
    loss.backward()

    nodes = [x, y, double, square, shared]
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            assert not np.shares_memory(a.grad, b.grad)
    # Upstream gradients are left as they were after their parents used them.
    assert np.array_equal(double.grad, square.data)
    assert np.array_equal(shared.grad, 3.0 * y.data)

    def value():
        return float((((x.data + x.data) * (x.data * x.data))
                      + (x.data + y.data) * y.data * 3.0).sum())
    num_x, num_y = _numeric(value, [x.data, y.data])
    np.testing.assert_allclose(x.grad, num_x, rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(y.grad, num_y, rtol=1e-6, atol=1e-6)


def test_second_backward_adds_without_touching_the_first_source():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    s = x + x
    loss = (s * 2.0).sum()
    loss.backward()
    first = x.grad
    assert not np.shares_memory(first, s.grad)
    np.testing.assert_array_equal(first, [4.0, 4.0, 4.0])
    np.testing.assert_array_equal(s.grad, [2.0, 2.0, 2.0])
    (x * 5.0).sum().backward()
    assert x.grad is first
    np.testing.assert_array_equal(x.grad, [9.0, 9.0, 9.0])
    np.testing.assert_array_equal(s.grad, [2.0, 2.0, 2.0])


def test_second_conv_backward_adds_into_the_parameter_gradients():
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(3, 4, 7)), requires_grad=True)
    w = Tensor(rng.normal(size=(5, 4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=5), requires_grad=True)
    probes = [rng.normal(size=(3, 5, 7)) for _ in range(2)]

    def run(probe):
        y = ag.conv1d(x, w, b)
        (y * probe).sum().backward()
        return y

    alone = []
    for probe in probes:
        ag.zero_grads([x, w, b])
        run(probe)
        alone.append((w.grad, b.grad))
    ag.zero_grads([x, w, b])
    outputs = [run(probes[0])]
    first_w, first_b = w.grad, b.grad
    outputs.append(run(probes[1]))
    assert w.grad is first_w and b.grad is first_b
    (w1, b1), (w2, b2) = alone
    assert np.array_equal(w.grad, w1 + w2) and np.array_equal(b.grad, b1 + b2)
    others = [x.data, x.grad, w.data, b.data, w1, b1, w2, b2, *probes]
    others += [a for y in outputs for a in (y.data, y.grad) if a is not None]
    for grad in (w.grad, b.grad):
        assert not any(np.shares_memory(grad, a) for a in others)
    assert not np.shares_memory(w.grad, b.grad)


def test_conv1d_passes_every_dgemm_operand_without_a_copy(monkeypatch):
    """f2py copies a non-Fortran-ordered operand without a warning.

    A copied ``c`` would also lose the accumulation, so each call must get
    Fortran-ordered views and write its product into ``c`` itself.
    """
    calls = []

    def checked(alpha, a, b, beta, c, overwrite_c):
        assert a.flags.f_contiguous and b.flags.f_contiguous and c.flags.f_contiguous
        result = dgemm(alpha, a, b, beta=beta, c=c, overwrite_c=overwrite_c)
        assert result.ctypes.data == c.ctypes.data
        calls.append(a.shape)
        return result

    monkeypatch.setattr(ag, "dgemm", checked)
    rng = np.random.default_rng(2)
    for data, kw in ((rng.normal(size=(3, 4, 7)), 5),
                     (rng.normal(size=(2, 7, 4)).transpose(0, 2, 1), 3),
                     (rng.normal(size=(1, 4, 7)), 1),
                     (rng.normal(size=(7, 2, 4)).transpose(1, 2, 0), 5),
                     (rng.normal(size=(3, 4, 2)), 5)):
        x = Tensor(data, requires_grad=True)
        w = Tensor(rng.normal(size=(6, 4, kw)), requires_grad=True)
        b = Tensor(rng.normal(size=6), requires_grad=True)
        (ag.conv1d(x, w, b) ** 2).sum().backward()
    # One call per tap whose shifted rows overlap the input, forward and
    # input gradient: at L=2 and kw=5 the two outer taps make none.
    assert len(calls) == 2 * (5 + 3 + 1 + 5 + 3)


def test_conv_activations_reach_the_next_conv_and_the_gru_without_a_copy(monkeypatch):
    sources = []

    def recording(alpha, a, b, beta, c, overwrite_c):
        sources.append(b)
        return dgemm(alpha, a, b, beta=beta, c=c, overwrite_c=overwrite_c)

    monkeypatch.setattr(ag, "dgemm", recording)
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(3, 2, 8)))
    w1, w2 = Tensor(rng.normal(size=(6, 2, 5))), Tensor(rng.normal(size=(4, 6, 5)))
    h = ag.leaky_relu(ag.conv1d(x, w1, Tensor(np.zeros(6))))
    sources.clear()
    y = ag.conv1d(h, w2, Tensor(np.zeros(4)))
    assert len(sources) == 5
    assert all(np.shares_memory(src, h.data) for src in sources)
    # gru_forward reads its (T, B, F) input as (T·B, F) rows.
    steps = ag.maxpool1d(ag.relu(y)).transpose(2, 0, 1)
    assert np.shares_memory(steps.data.reshape(-1, 4), steps.data)
    states = ag.gru_forward(steps, ag.GRUParams(4, 3, rng))
    assert states.shape == (4, 3, 3)


def _conv_memory(op):
    """Bytes held after a forward, and the backward's peak, at B=32, L=32, 128 -> 64, kw=5."""
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(32, 128, 32)), requires_grad=True)
    w = Tensor(rng.normal(size=(64, 128, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=64), requires_grad=True)
    probe = Tensor(rng.normal(size=(32, 64, 32)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = op(x, w, b)
        held = tracemalloc.get_traced_memory()[0] - before
        loss = (y * probe).sum()
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return held / x.data.nbytes, peak


def test_conv1d_holds_only_its_output():
    held, peak = _conv_memory(ag.conv1d)
    im2col_held, im2col_peak = _conv_memory(conv1d_im2col)
    # The (32, 64, 32) output is half the input's bytes.
    assert held < 0.51, held
    assert im2col_held > 5.0
    assert peak < im2col_peak, (peak, im2col_peak)


def test_conv1d_backward_pads_nothing():
    peak = _conv_memory(ag.conv1d)[1]
    padded_peak = _conv_memory(conv1d_padded)[1]
    assert peak < 0.8 * padded_peak, (peak, padded_peak)


def test_leaky_relu_holds_only_its_output_with_the_same_gradient_bits():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(16, 64, 32)), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = ag.leaky_relu(x)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # The output alone; a boolean mask would be one byte more per element.
    assert held < y.data.nbytes + 4096, held
    g = rng.normal(size=x.shape)
    (y * g).sum().backward()
    assert np.array_equal(x.grad, g * np.where(x.data > 0, 1.0, ag.LEAKY_SLOPE))
