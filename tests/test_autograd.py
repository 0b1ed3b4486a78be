import warnings
import weakref

import numpy as np
import pytest
from scipy.special import expit

from saeti import autograd as ag


def numgrad(f, x, h=1e-6):
    """Central finite differences, one coordinate at a time."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        keep = x[i]
        x[i] = keep + h
        fp = f()
        x[i] = keep - h
        fm = f()
        x[i] = keep
        g[i] = (fp - fm) / (2 * h)
        it.iternext()
    return g


def relerr(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-7)))


def check_grads(build, arrays, tol=1e-5):
    tensors = [ag.Tensor(a, requires_grad=True) for a in arrays]
    loss = build(*tensors)
    ag.zero_grads(tensors)
    loss.backward()
    for t, a in zip(tensors, arrays):
        num = numgrad(lambda: build(*tensors).item(), a)
        assert relerr(t.grad, num) <= tol


def test_polynomial_grad_matches_closed_form():
    rng = np.random.default_rng(7)
    a0, b0 = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    a = ag.Tensor(a0, requires_grad=True)
    b = ag.Tensor(b0, requires_grad=True)
    ((a * b + a) ** 2).sum().backward()
    assert np.allclose(a.grad, 2 * (a0 * b0 + a0) * (b0 + 1), atol=1e-12)
    assert np.allclose(b.grad, 2 * (a0 * b0 + a0) * a0, atol=1e-12)


def test_elementwise_and_shape_ops():
    rng = np.random.default_rng(1)
    check_grads(lambda a, b: ((a - b) * a).sum(),
                [rng.normal(size=(3, 3)), rng.normal(size=(3, 3))])
    check_grads(lambda a: (a.reshape(2, 6).transpose(1, 0) ** 3).sum(),
                [rng.normal(size=(3, 4))])
    check_grads(lambda a: a.sum(axis=1, keepdims=True).sum(),
                [rng.normal(size=(4, 5))])
    check_grads(lambda a: (a[1:3, ::2] ** 2).sum(), [rng.normal(size=(4, 6))])
    check_grads(lambda a: (a.exp() + (a * a + 1.0).log()).sum(),
                [rng.normal(size=(3, 3))])


def test_broadcast_bias_gradient():
    rng = np.random.default_rng(2)
    check_grads(lambda x, b: ((x + b) ** 2).sum(),
                [rng.normal(size=(6, 3)), rng.normal(size=3)])


def test_matmul_grad_and_2d_requirement():
    rng = np.random.default_rng(3)
    check_grads(lambda a, b: (a @ b).sum(),
                [rng.normal(size=(4, 3)), rng.normal(size=(3, 5))])
    with pytest.raises(ValueError, match="2-D"):
        ag.Tensor(np.zeros((2, 2, 2))) @ ag.Tensor(np.zeros((2, 2)))


def test_nonlinearities():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(4, 4))
    check_grads(lambda a: (ag.tanh(a) * ag.sigmoid(a)).sum(), [x.copy()])
    check_grads(lambda a: ag.relu(a).sum(), [x.copy() + 0.05])
    check_grads(lambda a: ag.leaky_relu(a).sum(), [x.copy() + 0.05])
    y = ag.leaky_relu(ag.Tensor(np.array([-2.0, 3.0])))
    assert np.allclose(y.data, [-0.02, 3.0])


def test_logistic_is_close_to_expit_bounded_and_silent():
    x = np.concatenate([np.linspace(-40.0, 40.0, 200001),
                        np.random.default_rng(8).uniform(-40.0, 40.0, 100000)])
    y = ag.sigmoid(ag.Tensor(x)).data
    assert np.max(np.abs(y - expit(x))) <= 2.3e-16
    assert np.all((y >= 0.0) & (y <= 1.0))
    extremes = np.array([-np.inf, -1e308, -710.0, 0.0, 710.0, 1e308, np.inf, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = ag.sigmoid(ag.Tensor(extremes)).data
        inplace = extremes.copy()
        assert ag._logistic(inplace, out=inplace) is inplace
    assert np.array_equal(y[:-1], [0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0])
    assert np.isnan(y[-1])
    assert np.array_equal(inplace, y, equal_nan=True)


def test_softmax_rows_sum_to_one_and_grad():
    # The softmax inside the fused loss: its gradient plus the one-hot target.
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 6))
    t = rng.integers(0, 6, size=3)
    a = ag.Tensor(x, requires_grad=True)
    ag.cross_entropy(a, t).backward()
    y = a.grad + np.eye(6)[t]
    assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(y > 0)
    check_grads(lambda a: (ag.cross_entropy(a, t) * 2.0) ** 2, [x])


def test_conv1d_grad_batched_and_unbatched():
    rng = np.random.default_rng(6)
    w = rng.normal(size=(3, 2, 5)) * 0.4
    b = rng.normal(size=3) * 0.1
    check_grads(lambda x, ww, bb: (ag.conv1d(x, ww, bb) ** 2).sum(),
                [rng.normal(size=(2, 2, 9)), w.copy(), b.copy()])
    # A single window is a batch of one.
    check_grads(lambda x, ww, bb: (ag.conv1d(x, ww, bb) ** 2).sum(),
                [rng.normal(size=(1, 2, 9)), w.copy(), b.copy()])


def test_conv1d_same_length_output_and_errors():
    x = ag.Tensor(np.zeros((1, 2, 13)))
    w = ag.Tensor(np.zeros((4, 2, 5)))
    b = ag.Tensor(np.zeros(4))
    assert ag.conv1d(x, w, b).shape == (1, 4, 13)
    with pytest.raises(ValueError, match="odd"):
        ag.conv1d(x, ag.Tensor(np.zeros((4, 2, 4))), ag.Tensor(np.zeros(4)))
    with pytest.raises(ValueError, match="channel mismatch"):
        ag.conv1d(x, ag.Tensor(np.zeros((4, 3, 5))), ag.Tensor(np.zeros(4)))
    with pytest.raises(ValueError, match=r"must be \(B, C_in, L\)"):
        ag.conv1d(ag.Tensor(np.zeros((2, 13))), w, b)


@pytest.mark.parametrize("batch, c_in, c_out, length, kw", [
    (1, 1, 1, 3, 3), (2, 2, 3, 9, 5), (3, 4, 256, 32, 5), (32, 128, 64, 8, 5), (5, 64, 32, 16, 3),
])
def test_conv1d_gives_the_same_bits_for_c_and_tap_major_kernels(batch, c_in, c_out, length, kw):
    rng = np.random.default_rng(batch * 1000 + c_out)
    x = rng.normal(size=(batch, c_in, length))
    w = rng.normal(size=(c_out, c_in, kw))
    b = rng.normal(size=c_out)
    g = rng.normal(size=(batch, c_out, length))
    results = []
    for kernel in (np.ascontiguousarray(w), np.asfortranarray(w)):
        xt, wt, bt = ag.Tensor(x, True), ag.Tensor(kernel, True), ag.Tensor(b, True)
        y = ag.conv1d(xt, wt, bt)
        (y * g).sum().backward()
        assert wt.grad.flags.f_contiguous   # the weight gradient lies tap-major
        results.append([y.data, xt.grad, wt.grad, bt.grad])
    for c_order, tap_major in zip(*results):
        assert c_order.tobytes() == tap_major.tobytes()


def test_conv1d_hand_case():
    # single channel, kernel [1, 2, 3], zero padding at both ends
    x = ag.Tensor(np.array([[[1.0, 2.0, 3.0]]]))
    w = ag.Tensor(np.array([[[1.0, 2.0, 3.0]]]))
    b = ag.Tensor(np.array([0.5]))
    out = ag.conv1d(x, w, b).data[0, 0]
    assert np.allclose(out, [0*1 + 1*2 + 2*3 + 0.5,
                             1*1 + 2*2 + 3*3 + 0.5,
                             2*1 + 3*2 + 0*3 + 0.5])


def test_maxpool_even_odd_and_tie():
    x = ag.Tensor(np.array([[1.0, 4.0, 2.0, 2.0, 7.0]]), requires_grad=True)
    out = ag.maxpool1d(x)
    assert out.data.tolist() == [[4.0, 2.0, 7.0]]
    out.sum().backward()
    # tie in the second window routes gradient to the first element
    assert x.grad.tolist() == [[0.0, 1.0, 1.0, 0.0, 1.0]]
    rng = np.random.default_rng(8)
    check_grads(lambda a: (ag.maxpool1d(a) ** 2).sum(), [rng.normal(size=(2, 3, 8))])
    check_grads(lambda a: (ag.maxpool1d(a) ** 2).sum(), [rng.normal(size=(2, 3, 7))])



def test_maxpool_matches_the_argmax_formulation_bit_for_bit():
    rng = np.random.default_rng(21)
    for shape in [(3, 8), (3, 7), (2, 3, 8), (2, 3, 9), (4, 1), (2, 5, 2)]:
        x = rng.normal(size=shape)
        tie = rng.random(x[..., 1::2].shape) < 0.3
        x[..., 1::2][tie] = x[..., 0::2][..., :tie.shape[-1]][tie]
        half = shape[-1] // 2
        main = x[..., :2 * half].reshape(shape[:-1] + (half, 2))
        idx = np.argmax(main, axis=-1)
        want = np.take_along_axis(main, idx[..., None], axis=-1)[..., 0]
        if shape[-1] % 2:
            want = np.concatenate([want, x[..., -1:]], axis=-1)
        g = rng.normal(size=want.shape)
        gmain = np.zeros(main.shape)
        np.put_along_axis(gmain, idx[..., None], g[..., :half, None], axis=-1)
        want_grad = np.zeros(shape)
        want_grad[..., :2 * half] = gmain.reshape(shape[:-1] + (2 * half,))
        if shape[-1] % 2:
            want_grad[..., -1] = g[..., -1]
        t = ag.Tensor(x, requires_grad=True)
        out = ag.maxpool1d(t)
        (out * ag.Tensor(g)).sum().backward()
        assert np.array_equal(out.data.view(np.uint64), want.view(np.uint64)), shape
        assert np.array_equal(t.grad.view(np.uint64), want_grad.view(np.uint64)), shape

def test_cross_entropy_hand_value_and_grad():
    logits = ag.Tensor(np.array([[3.0, 3.0]]))
    assert abs(ag.cross_entropy(logits, [0]).item() - np.log(2.0)) <= 1e-15
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 3, 4))
    t = rng.integers(0, 4, size=(2, 3))
    check_grads(lambda a: ag.cross_entropy(a, t), [x])
    with pytest.raises(ValueError, match="target shape"):
        ag.cross_entropy(ag.Tensor(np.zeros(3)), 0)


def test_cross_entropy_saturated_logits_keep_a_bounded_gradient():
    # Confidently wrong: softmax underflows to an exact 0 at the target.
    logits = ag.Tensor(np.array([[800.0, 0.0, 0.0]]), requires_grad=True)
    loss = ag.cross_entropy(logits, [1])
    assert abs(loss.item() - 800.0) <= 1e-9
    loss.backward()
    assert np.array_equal(logits.grad, [[1.0, -1.0, 0.0]])


def test_masked_mse_value_grad_and_empty_mask():
    pred = ag.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    tgt = np.array([[1.0, 0.0], [0.0, 4.0]])
    w = np.array([[1.0, 1.0], [0.0, 1.0]])
    loss = ag.masked_mse(pred, tgt, w)
    assert abs(loss.item() - (0.0 + 4.0 + 0.0) / 3) <= 1e-15
    loss.backward()
    assert pred.grad[1, 0] == 0.0  # unweighted cell gets no gradient
    rng = np.random.default_rng(10)
    x = rng.normal(size=(2, 2))
    check_grads(lambda a: ag.masked_mse(ag.sigmoid(a), tgt, w), [x])
    with pytest.warns(UserWarning, match="empty weight mask"):
        z = ag.masked_mse(ag.Tensor(np.ones((2, 2)), requires_grad=True),
                          np.zeros((2, 2)), np.zeros((2, 2)))
    assert z.item() == 0.0


def test_gru_grads_and_empty_sequence():
    rng = np.random.default_rng(11)
    p = ag.GRUParams(3, 4, rng)
    xs_data = [rng.normal(size=(2, 3)) for _ in range(5)]

    def loss_value():
        h = ag.gru_forward(ag.Tensor(np.stack(xs_data)), p)[-1]
        return (h ** 2).sum()

    loss = loss_value()
    params = [t for _, t in p.tensors()]
    ag.zero_grads(params)
    loss.backward()
    for name, t in p.tensors():
        num = numgrad(lambda: loss_value().item(), t.data)
        assert relerr(t.grad, num) <= 1e-4, name
    with pytest.raises(ValueError, match="empty sequence"):
        ag.gru_forward(ag.Tensor(np.zeros((0, 2, 3))), p)


def test_gru_takes_only_a_time_major_tensor():
    p = ag.GRUParams(3, 4, np.random.default_rng(0))
    steps = [ag.Tensor(np.ones((2, 3))) for _ in range(4)]
    with pytest.raises(ValueError, match=r"one \(T, B, F\) tensor, got list"):
        ag.gru_forward(steps, p)
    with pytest.raises(ValueError, match=r"one \(T, B, F\) tensor, got \(2, 3\)"):
        ag.gru_forward(steps[0], p)
    states = ag.gru_forward(ag.Tensor(np.ones((4, 2, 3))), p)
    assert states.shape == (4, 2, 4)


def test_a_one_row_product_has_the_bits_of_row_0_of_two_rows():
    """OpenBLAS takes other kernels for one row; the products over batch rows
    (dense layers and the GRU's) must not."""
    rng = np.random.default_rng(26)
    for n_in, n_out in ((128, 12), (32, 1024), (32, 32)):      # the models' dense layers
        a, w = ag.Tensor(rng.normal(size=(2, n_in))), ag.Tensor(rng.normal(size=(n_in, n_out)))
        assert (a[:1] @ w).data.tobytes() == (a @ w).data[:1].tobytes()
    p = ag.GRUParams(64, 128, rng)
    for _, t in p.tensors():
        if t.data.ndim == 1:
            t.data[:] = rng.normal(size=128)
    for steps in (1, 4):
        xs = rng.normal(size=(steps, 2, 64))
        one = ag.gru_forward(ag.Tensor(np.ascontiguousarray(xs[:, :1])), p)
        assert one.data.tobytes() == ag.gru_forward(ag.Tensor(xs), p).data[:, :1].tobytes()


def test_backward_requires_scalar():
    t = ag.Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        (t * 2.0).backward()


def test_gradients_accumulate_until_zeroed():
    t = ag.Tensor(np.array(2.0), requires_grad=True)
    (t * 3.0).backward()
    (t * 3.0).backward()
    assert t.grad == 6.0
    ag.zero_grads([t])
    assert t.grad is None


def test_backward_frees_the_activations_the_caller_does_not_hold():
    x = ag.Tensor(np.linspace(-1.0, 1.0, 12).reshape(4, 3), requires_grad=True)
    w = ag.Tensor(np.full((3, 2), 0.5), requires_grad=True)

    def forward():
        hidden = ag.tanh(x @ w)
        return weakref.ref(hidden.data), (hidden * hidden).sum()

    activation, loss = forward()
    assert activation() is not None          # the graph holds it until backward
    loss.backward()
    assert activation() is None
    assert x.grad is not None and w.grad is not None


def test_second_backward_through_a_freed_graph_raises():
    x = ag.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    h = x * 3.0
    loss = (h * h).sum()
    loss.backward()
    np.testing.assert_array_equal(x.grad, [18.0, 36.0])
    np.testing.assert_array_equal(h.grad, [6.0, 12.0])   # held, so it keeps its gradient
    with pytest.raises(RuntimeError, match="freed graph"):
        loss.backward()
    with pytest.raises(RuntimeError, match="freed graph"):
        (h * 2.0).sum().backward()           # a new graph on a node of the freed one
    np.testing.assert_array_equal(x.grad, [18.0, 36.0])
    (x * 2.0).sum().backward()               # a leaf still accumulates across graphs
    np.testing.assert_array_equal(x.grad, [20.0, 38.0])


def test_slices_write_into_the_parent_gradient():
    x = ag.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    s = x * 1.0
    loss = (s[:, :2] * 2.0).sum() + (s[:, 1:] * 3.0).sum() + s[1].sum() + s[-1][0]
    loss.backward()
    np.testing.assert_array_equal(s.grad, [[2.0, 5.0, 3.0], [4.0, 6.0, 4.0]])
    np.testing.assert_array_equal(x.grad, s.grad)


def test_a_repeated_index_adds_every_share_of_the_gradient():
    t = ag.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    ag.masked_mse(t[np.array([0, 0, 2])], np.zeros(3), np.ones(3)).backward()
    np.testing.assert_allclose(t.grad, [4.0 / 3.0, 0.0, 2.0])
    rng = np.random.default_rng(8)
    rows = np.array([2, 0, 2, 2, 1])
    weight = rng.normal(size=(5, 2))
    check_grads(lambda x: ((x[rows, 1:] * weight) ** 2).sum() + x[rows][:, 0].sum(),
                [rng.normal(size=(3, 3))])


def test_adam_first_step_oracle():
    # with bias correction the very first step is lr * g / (|g| + eps)
    p = ag.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.array([0.5, -0.25])
    opt = ag.Adam([p], lr=1e-3)
    opt.step()
    expect = np.array([1.0, -2.0]) - 1e-3 * np.array([0.5, -0.25]) / (
        np.abs([0.5, -0.25]) + 1e-8)
    assert np.allclose(p.data, expect, atol=1e-12)
    assert opt.t == 1


def test_adam_matches_the_textbook_update_and_skips_missing_grads():
    rng = np.random.default_rng(21)
    shapes = [(3, 4), (5,), (2, 3, 2)]
    params = [ag.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    idle = ag.Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    before = idle.data.copy()
    want = [p.data.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    lr, b1, b2, eps = 0.01, ag.ADAM_BETA1, ag.ADAM_BETA2, ag.ADAM_EPS
    opt = ag.Adam(params + [idle], lr=lr)
    for t in range(1, 6):
        for i, p in enumerate(params):
            g = rng.normal(size=p.shape) * 10.0 ** rng.integers(-3, 3)
            p.grad = g
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            m_hat, v_hat = m[i] / (1 - b1 ** t), v[i] / (1 - b2 ** t)
            want[i] = want[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
        opt.step()
        for p, w in zip(params, want):
            np.testing.assert_allclose(p.data, w, rtol=1e-12, atol=0)
    assert idle.grad is None
    assert np.array_equal(idle.data, before)
    assert opt.t == 5


def test_adam_optimizes_a_quadratic():
    rng = np.random.default_rng(12)
    target = rng.normal(size=5)
    p = ag.Tensor(np.zeros(5), requires_grad=True)
    opt = ag.Adam([p], lr=0.05)
    for _ in range(400):
        loss = ((p - target) ** 2).sum()
        ag.zero_grads([p])
        loss.backward()
        opt.step()
    assert np.allclose(p.data, target, atol=1e-3)


def test_glorot_bounds_and_determinism():
    a = ag.glorot_uniform((20, 30), np.random.default_rng(5))
    b = ag.glorot_uniform((20, 30), np.random.default_rng(5))
    limit = np.sqrt(6.0 / 50)
    assert np.all(np.abs(a.data) <= limit)
    assert np.array_equal(a.data, b.data)
    c = ag.glorot_uniform((4, 2, 3), np.random.default_rng(1))
    assert np.all(np.abs(c.data) <= np.sqrt(6.0 / (2 * 3 + 4 * 3)))
    # A conv kernel takes the same draws and lies tap-major, in its own array.
    kernel = ag.init_weight((4, 2, 3), np.random.default_rng(1)).data
    assert kernel.flags.f_contiguous and kernel.flags.owndata
    assert kernel.tobytes() == c.data.tobytes()


def test_no_grad_records_no_graph_and_restores_state():
    rng = np.random.default_rng(3)
    x = ag.Tensor(rng.normal(size=(2, 3, 8)))
    w = ag.Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
    b = ag.Tensor(np.zeros(4), requires_grad=True)

    def build():
        return ag.leaky_relu(ag.maxpool1d(ag.relu(ag.conv1d(x, w, b)))).sum()

    with_graph = build()
    with ag.no_grad():
        free = build()
        assert not free.requires_grad
        assert free._prev == () and free._backward is None
    assert free.item() == with_graph.item()

    with pytest.raises(RuntimeError, match="boom"):
        with ag.no_grad():
            raise RuntimeError("boom")
    again = build()
    assert again.requires_grad and again._prev and again._backward is not None
    again.backward()
    assert w.grad is not None
