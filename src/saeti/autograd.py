"""Dense float64 tensors with reverse-mode autodiff and the layer kit.

A :class:`Tensor` wraps a numpy array and, when gradients are required,
records a backward closure plus its parents so that ``backward()`` on a
scalar loss can replay the chain rule over a topological ordering. Each
op takes one input form and returns ``_node(result, parents, backward)``,
which records the graph only when a gradient flows; values that only the
backward reads are computed inside it. Ops are deliberately coarse so
graphs stay small and the heavy lifting runs inside BLAS. A convolution
is one node that works step-major: activations lie ``(L, B, C)`` in memory
behind their ``(B, C, L)`` shape, so each tap is one GEMM over contiguous
rows and the next conv or a GRU reads the output without a copy. Its
input gradient is the same routine run with the flipped, transposed kernel.
A GRU over a whole sequence is one node: it takes one time-major
``(T, B, F)`` tensor and returns every hidden state as one ``(T, B, H)``
tensor. One GEMM projects every step, z and r share one recurrent
product, each step writes in place, and a hand-written backward through
time fills the nine gate gradients; sigmoids are one numpy logistic. The
classification loss is one node on logits: a max-shifted log-sum-exp
forward and a ``softmax - onehot`` backward, finite for any finite logits.

Conventions baked in here:

* ``backward()`` frees the graph as it sweeps: a second backward through
  it raises ``RuntimeError``, a non-leaf gradient stays only on a tensor
  the caller holds, and leaf gradients accumulate across graphs until
  :func:`zero_grads` resets them to exact zeros;
* convolutions take batched ``(B, C_in, L)`` input, use same-padding
  with zeros and odd kernel widths; their ``(C_out, C_in, kw)`` kernels
  are stored tap-major (Fortran order, see :func:`is_conv_kernel`);
* max-pooling takes pairs, keeps a trailing singleton window for odd
  lengths and routes gradient to the first maximal element on ties;
* leaky ReLU slope is ``LEAKY_SLOPE`` (0.01);
* the GRU recurrence is ``h_t = h_{t-1} + z_t * (h_cand - h_{t-1})`` with
  sigmoid update/reset gates, a tanh candidate and a zero initial state;
* parameters initialize uniform(-a, a) with ``a = sqrt(6 / (fan_in +
  fan_out))``, biases at zero, from a caller-supplied seeded generator;
  with none, every parameter is a read-only zero placeholder;
* Adam uses ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import warnings

import numpy as np
from scipy.linalg.blas import dgemm

__all__ = [
    "Tensor",
    "no_grad",
    "concat",
    "conv1d",
    "is_conv_kernel",
    "maxpool1d",
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "cross_entropy",
    "masked_mse",
    "gru_forward",
    "GRUParams",
    "zero_grads",
    "Adam",
    "glorot_uniform",
    "init_weight",
]

LEAKY_SLOPE = 0.01
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_GRAD_ENABLED = contextvars.ContextVar("saeti_grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block.

    Ops return tensors with ``requires_grad=False``, so no backward
    closure, parent link or backward-only array is kept. Forward values
    are the same as with gradients on. The previous state comes back on
    exit, also when the block raises.
    """
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A numpy array with an optional gradient and a backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=float)
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._prev = ()

    # -- bookkeeping -------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __len__(self) -> int:
        # The first axis, as for arrays: the time-major (T, B, F) input of
        # gru_forward has T steps.
        return len(self.data)

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, grad: np.ndarray, fresh: bool = False):
        # The first write keeps a ``fresh`` array, built by the backward for
        # this parent alone, and copies any other: it may be handed to two
        # parents, or still be read by the closure that made it. The copy
        # takes the layout of ``data``, which Adam reads alongside it.
        if self.grad is not None:
            self.grad += grad
        elif fresh:
            self.grad = grad
        else:
            self.grad = np.empty_like(self.data)
            self.grad[...] = grad

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph construction ------------------------------------------------

    def backward(self):
        """Reverse-mode sweep from a scalar; grads accumulate into ``.grad``.

        Each node drops its closure and parents once the closure has run.
        """
        if self.data.size != 1:
            raise ValueError("backward requires a scalar tensor")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(np.ones_like(self.data))
        while topo:
            node = topo.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._prev:
                node._backward, node._prev = _freed, ()

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other)
        def _bwd(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.data.shape))
        return _node(self.data + other.data, (self, other), _bwd)

    __radd__ = __add__

    def __mul__(self, other):
        other = _as_tensor(other)
        def _bwd(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))
        return _node(self.data * other.data, (self, other), _bwd)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-_as_tensor(other))

    def __rsub__(self, other):
        return _as_tensor(other) + (-self)

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise TypeError("only scalar exponents are supported")
        def _bwd(g):
            self._accumulate(g * p * self.data ** (p - 1))
        return _node(self.data ** p, (self,), _bwd)

    def __matmul__(self, other):
        other = _as_tensor(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ValueError("matmul expects 2-D operands; reshape first")
        def _bwd(g):
            if self.requires_grad:
                self._accumulate(g @ other.data.T, fresh=True)
            if other.requires_grad:
                other._accumulate(self.data.T @ g, fresh=True)
        return _node(_rows_matmul(self.data, other.data), (self, other), _bwd)

    # -- shape ops ---------------------------------------------------------

    def reshape(self, *shape):
        def _bwd(g):
            self._accumulate(g.reshape(self.data.shape))
        return _node(self.data.reshape(shape), (self,), _bwd)

    def transpose(self, *axes):
        def _bwd(g):
            self._accumulate(g.transpose(np.argsort(axes)))
        return _node(self.data.transpose(axes), (self,), _bwd)

    def __getitem__(self, idx):
        out = self.data[idx]
        view = np.may_share_memory(out, self.data)   # basic indexing: no repeats
        def _bwd(g):     # writes into the parent's gradient, not a full-size copy
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            if view:
                self.grad[idx] += g
            else:        # an index array may repeat a position: add every share
                np.add.at(self.grad, idx, g)
        return _node(out, (self,), _bwd)

    def sum(self, axis=None, keepdims: bool = False):
        def _bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))
        return _node(self.data.sum(axis=axis, keepdims=keepdims), (self,), _bwd)

    # -- pointwise nonlinearities -------------------------------------------

    def exp(self):
        y = np.exp(self.data)
        def _bwd(g):
            self._accumulate(g * y)
        return _node(y, (self,), _bwd)

    def log(self):
        def _bwd(g):
            self._accumulate(g / self.data)
        return _node(np.log(self.data), (self,), _bwd)


def _freed(_g):
    raise RuntimeError("backward() through a freed graph; run the forward again")


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _rows_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` for a product whose rows are batch rows, into ``out``.

    A one-row ``a`` runs as two copies and keeps the first, because
    OpenBLAS takes other kernels for one row; from two rows up a row's
    product has the same bits in any batch.
    """
    if a.shape[0] != 1:
        return np.matmul(a, b, out=out)
    first = np.matmul(np.concatenate([a, a]), b)[:1]
    if out is None:
        return first
    out[...] = first
    return out


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    """An op's result; it records ``parents`` and ``backward`` only when a gradient flows."""
    out = Tensor(data)
    out.requires_grad = _GRAD_ENABLED.get() and any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._prev = parents
        out._backward = backward
    return out


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    def _bwd(g):
        offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])
    return _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), _bwd)


def relu(x: Tensor) -> Tensor:
    def _bwd(g):
        x._accumulate(g * (x.data > 0), fresh=True)
    return _node(np.maximum(x.data, 0.0), (x,), _bwd)


def leaky_relu(x: Tensor) -> Tensor:
    # max(x, slope·x) is x·(1 or slope) on the bits, as 0 < slope < 1; the
    # backward's arithmetic on the mask runs several times faster than np.where.
    def _bwd(g):
        keep = x.data > 0
        x._accumulate(g * (keep + LEAKY_SLOPE * ~keep), fresh=True)
    return _node(np.maximum(x.data, LEAKY_SLOPE * x.data), (x,), _bwd)


def _logistic(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sigmoid as ``(1 + tanh(x/2)) / 2`` into ``out``: within 2.3e-16, silent for ±inf."""
    y = np.tanh(np.multiply(x, 0.5, out=out), out=out)
    return np.multiply(np.add(y, 1.0, out=y), 0.5, out=y)


def sigmoid(x: Tensor) -> Tensor:
    y = _logistic(x.data)
    def _bwd(g):
        x._accumulate(g * y * (1.0 - y), fresh=True)
    return _node(y, (x,), _bwd)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    def _bwd(g):
        x._accumulate(g * (1.0 - y * y), fresh=True)
    return _node(y, (x,), _bwd)


def is_conv_kernel(name: str, shape: tuple[int, ...]) -> bool:
    """Whether the parameter ``name`` of ``shape`` is a conv kernel: a 3-D weight.

    Kernels lie tap-major, in the Fortran order of their ``(C_out, C_in,
    kw)`` shape, from init through training to the bundle file.
    """
    return name.rsplit(".", 1)[-1] == "weight" and len(shape) == 3


def _conv_steps(xs: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Same-padded convolution of step-major ``(L, B, C_in)`` ``xs``; ``(L, B, C_out)`` out.

    Step ``l`` is the row block ``[l·B, (l+1)·B)``, so tap ``t`` (shift ``s =
    t - kw//2`` steps) is one GEMM from rows ``[lo + s·B, hi + s·B)`` into
    output rows ``[lo, hi)``, for every step whose source exists: the kn2row
    form of a convolution. Each GEMM reads ``W[:, :, t]`` in Fortran order,
    so a tap-major kernel is read as it lies and any other is copied once.
    OpenBLAS sums the last (columns mod 4) of a GEMM with one or two output
    rows in another order, so each call spans a multiple of 4 rows: the rows
    it adds land in 3 spare rows at either end of the output.
    """
    length, b, c_in = xs.shape
    c_out, _, kw = weight.shape
    n = length * b
    rows = np.ascontiguousarray(xs).reshape(n, c_in)
    y = np.empty((n + 6, c_out))
    y[n + 3:] = 0.0
    taps = np.ascontiguousarray(weight.transpose(2, 1, 0))  # taps[t].T is W[:, :, t]
    for t in range(kw):
        s = (t - kw // 2) * b
        lo, hi = max(0, -s), min(n, n - s)
        if t == 0:                              # s <= 0, so hi is every row
            y[:lo + 3] = 0.0
        if lo < hi:
            e = min(-(hi - lo) % 4, abs(s))
            lo, hi = (lo - e, hi) if s > 0 else (lo, hi + e)
            dgemm(1.0, taps[t].T, rows[lo + s:hi + s].T, beta=float(t > 0),
                  c=y[lo + 3:hi + 3].T, overwrite_c=1)
    return y[3:n + 3].reshape(length, b, c_out)


def conv1d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Same-padded 1-D convolution.

    ``x`` is batched ``(B, C_in, L)``; ``weight`` is ``(C_out, C_in, kw)``
    with odd ``kw``; output length equals input length. One node that reads
    ``x`` as step-major ``(L·B, C_in)`` rows (a view when ``x`` lies ``(L,
    B, C_in)`` in memory, else one copy) and holds only its output, a
    ``(B, C_out, L)`` view of an ``(L, B, C_out)`` buffer. The kernel is
    read without a copy when it lies tap-major (Fortran order, as every
    model kernel does, see :func:`is_conv_kernel`); any other order gives
    the same bits. The backward sums weight and bias gradients over the
    same rows, one GEMM per tap, into a tap-major weight gradient.
    """
    if x.data.ndim != 3:
        raise ValueError(f"conv1d input must be (B, C_in, L), got shape {x.data.shape}")
    c_out, c_in, kw = weight.data.shape
    if kw % 2 == 0:
        raise ValueError(f"kernel width must be odd, got {kw}")
    batch, channels, length = x.data.shape
    if channels != c_in:
        raise ValueError(f"channel mismatch: input has {channels}, kernel expects {c_in}")
    y = _conv_steps(x.data.transpose(2, 0, 1), weight.data)
    y += bias.data
    def _bwd(g):
        if x.requires_grad:
            # Transposed convolution: the input gradient is the same-padded
            # convolution of g with the flipped kernel, C_in and C_out swapped.
            gx = _conv_steps(g.transpose(2, 0, 1), weight.data.transpose(1, 0, 2)[:, :, ::-1])
            x._accumulate(gx.transpose(1, 2, 0), fresh=True)
        n = length * batch    # tap t: gradient rows [lo, hi) by input rows [lo + s, hi + s)
        g_rows = g.transpose(2, 0, 1).reshape(n, c_out)
        if weight.requires_grad:
            x_rows = x.data.transpose(2, 0, 1).reshape(n, c_in)
            gw = np.zeros((c_out, c_in, kw), order="F")
            for t in range(kw):
                s = (t - kw // 2) * batch
                lo, hi = max(0, -s), min(n, n - s)
                if lo < hi:
                    gw[:, :, t] = g_rows[lo:hi].T @ x_rows[lo + s:hi + s]
            weight._accumulate(gw, fresh=True)
        if bias.requires_grad:
            bias._accumulate(g_rows.sum(axis=0), fresh=True)
    return _node(y.transpose(1, 2, 0), (x, weight, bias), _bwd)


def maxpool1d(x: Tensor) -> Tensor:
    """Max-pool pairs along the last axis; odd lengths keep a final singleton."""
    length = x.data.shape[-1]
    if length < 1:
        raise ValueError("cannot pool an empty axis")
    half = length // 2
    a, b = x.data[..., 0:2 * half:2], x.data[..., 1:2 * half:2]
    first = a >= b                            # a tie sends the gradient to a
    pooled = np.maximum(a, b)
    if length % 2:
        pooled = np.concatenate([pooled, x.data[..., -1:]], axis=-1)
    def _bwd(g):
        # Each half is written once, on the bits: a pair's gradient goes to
        # the side ``first`` picks and +0.0 (all bits clear) to the other,
        # so a = g * first and b = g ^ a in integer arithmetic.
        gx = np.empty_like(x.data)
        bits = g[..., :half].view(np.uint64)
        even = gx[..., 0:2 * half:2].view(np.uint64)
        np.multiply(bits, first, out=even)
        np.bitwise_xor(bits, even, out=gx[..., 1:2 * half:2].view(np.uint64))
        if length % 2:
            np.add(g[..., -1], 0.0, out=gx[..., -1])
        x._accumulate(gx, fresh=True)
    return _node(pooled, (x,), _bwd)


def cross_entropy(logits: Tensor, target) -> Tensor:
    """Summed negative log-likelihood of integer classes under ``softmax(logits)``.

    ``logits`` is ``(..., k)`` with at least one leading axis; ``target``
    is an integer array of the leading shape. The result is the sum over
    all target positions; divide by the batch size at the call site when
    a mean is wanted. One node: the forward is a max-shifted log-sum-exp,
    the backward ``g * (softmax - onehot)``, both finite for any finite
    logits, however confident or wrong.
    """
    target = np.asarray(target)
    lead = logits.data.shape[:-1]
    if not lead or target.shape != lead:
        raise ValueError(f"target shape {target.shape} != leading logits shape {lead}")
    shifted = logits.data.reshape(-1, logits.data.shape[-1])
    shifted = shifted - shifted.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1)
    index = (np.arange(len(shifted)), target.reshape(-1))
    def _bwd(g):
        grad = e / total[:, None]
        grad[index] -= 1.0
        grad *= g
        logits._accumulate(grad.reshape(logits.data.shape), fresh=True)
    return _node(np.array((np.log(total) - shifted[index]).sum()), (logits,), _bwd)


def masked_mse(pred: Tensor, target, weight_mask) -> Tensor:
    """Mean squared error restricted to positions with weight 1.

    ``target`` may hold anything, NaN included, where the weight is 0.
    An all-zero mask yields 0 with a warning (nothing to score, but the
    graph stays differentiable).
    """
    target = np.asarray(target, dtype=float)
    weight = np.asarray(weight_mask, dtype=float)
    if weight.shape != pred.data.shape:
        raise ValueError("weight mask shape differs from prediction shape")
    count = weight.sum()
    if count == 0:
        warnings.warn("masked_mse: empty weight mask, returning 0", stacklevel=2)
        return (pred * 0.0).sum()
    diff = np.where(weight > 0, pred.data - target, 0.0)
    def _bwd(g):
        pred._accumulate(g * 2.0 * weight * diff / count, fresh=True)
    return _node(np.array((weight * diff * diff).sum() / count), (pred,), _bwd)


class GRUParams:
    """Gate matrices and biases for one GRU layer.

    Holds ``w_*`` (input_size, hidden), ``u_*`` (hidden, hidden) and
    ``b_*`` (hidden,) for the update (z), reset (r) and candidate (h)
    transforms.
    """

    GATES = ("z", "r", "h")

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator | None):
        self.input_size = input_size
        self.hidden_size = hidden_size
        for gate in self.GATES:
            setattr(self, f"w_{gate}", init_weight((input_size, hidden_size), rng))
            setattr(self, f"u_{gate}", init_weight((hidden_size, hidden_size), rng))
            setattr(self, f"b_{gate}", init_weight(hidden_size, rng, glorot=False))

    def tensors(self) -> list[tuple[str, Tensor]]:
        return [
            (f"{kind}_{gate}", getattr(self, f"{kind}_{gate}"))
            for gate in self.GATES
            for kind in ("w", "u", "b")
        ]


def gru_forward(xs: Tensor, params: GRUParams) -> Tensor:
    """Run a GRU over a time-major (T, B, input_size) tensor from a zero state.

    Returns every hidden state as one (T, B, hidden) tensor; the final
    state is its step ``[-1]``. Recurrence:
    ``z = sigm(x W_z + h U_z + b_z)``, ``r = sigm(x W_r + h U_r + b_r)``,
    ``cand = tanh(x W_h + (r*h) U_h + b_h)``, ``h' = h + z * (cand - h)``.

    The sequence is one node: one GEMM projects every step, z and r share
    one ``(H, 2H)`` recurrent product per step, each step writes in place
    into its own slots, and the backward runs through time by hand.
    """
    if not isinstance(xs, Tensor) or xs.data.ndim != 3:
        got = xs.shape if isinstance(xs, Tensor) else type(xs).__name__
        raise ValueError(f"gru_forward input must be one (T, B, F) tensor, got {got}")
    if len(xs) == 0:
        raise ValueError("empty sequence")
    x = xs.data
    steps, batch, n_in = x.shape
    hid = params.hidden_size
    w = np.concatenate([params.w_z.data, params.w_r.data, params.w_h.data], axis=1)
    u_zr = np.concatenate([params.u_z.data, params.u_r.data], axis=1)
    u_h = params.u_h.data
    x2 = x.reshape(steps * batch, n_in)
    proj = _rows_matmul(x2, w)
    proj += np.concatenate([params.b_z.data, params.b_r.data, params.b_h.data])
    proj = proj.reshape(steps, batch, 3 * hid)
    hs = np.zeros((steps + 1, batch, hid))     # hs[t] is the state before step t
    zr = np.empty((steps, batch, 2 * hid))
    rh = np.empty((steps, batch, hid))
    cand = np.empty((steps, batch, hid))
    for t, (h, a, c, nxt) in enumerate(zip(hs, zr, cand, hs[1:])):
        _logistic(np.add(_rows_matmul(h, u_zr, out=a), proj[t, :, :2 * hid], out=a), out=a)
        np.multiply(a[:, hid:], h, out=rh[t])
        np.tanh(np.add(_rows_matmul(rh[t], u_h, out=c), proj[t, :, 2 * hid:], out=c), out=c)
        np.multiply(a[:, :hid], np.subtract(c, h, out=nxt), out=nxt)   # h' = h + z (c - h)
        nxt += h
    gate_tensors = [t for _, t in params.tensors()]
    def _bwd(g):
        dproj = np.empty((steps, batch, 3 * hid))
        dh = np.zeros((batch, hid))
        for t in reversed(range(steps)):
            dh += g[t]
            h, c = hs[t], cand[t]
            z, r = zr[t, :, :hid], zr[t, :, hid:]
            da_zr, da_h = dproj[t, :, :2 * hid], dproj[t, :, 2 * hid:]
            np.multiply(dh * z, 1.0 - c * c, out=da_h)
            drh = da_h @ u_h.T
            np.multiply(dh * (c - h), z * (1.0 - z), out=da_zr[:, :hid])
            np.multiply(drh * h, r * (1.0 - r), out=da_zr[:, hid:])
            dh = dh * (1.0 - z) + drh * r + da_zr @ u_zr.T
        flat = dproj.reshape(steps * batch, 3 * hid)
        gw = np.split(x2.T @ flat, 3, axis=1)
        gu = np.split(hs[:-1].reshape(steps * batch, hid).T @ flat[:, :2 * hid], 2, axis=1)
        gu.append(rh.reshape(steps * batch, hid).T @ flat[:, 2 * hid:])
        gb = np.split(flat.sum(axis=0), 3)
        # params.tensors() lists w, u, b per gate.
        grads = [grad for trio in zip(gw, gu, gb) for grad in trio]
        for tensor, grad in zip(gate_tensors, grads):
            if tensor.requires_grad:
                tensor._accumulate(grad)
        if xs.requires_grad:
            xs._accumulate((flat @ w.T).reshape(steps, batch, n_in), fresh=True)
    return _node(hs[1:], (xs, *gate_tensors), _bwd)


def zero_grads(params: list[Tensor]) -> None:
    for p in params:
        p.grad = None


def glorot_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> Tensor:
    """Uniform(-a, a) init with ``a = sqrt(6 / (fan_in + fan_out))``.

    ``shape`` is a dense ``(fan_in, fan_out)`` weight or a ``(C_out, C_in,
    kw)`` conv kernel, whose fans are ``C_in * kw`` and ``C_out * kw``.
    """
    if len(shape) == 3:
        c_out, c_in, kw = shape
        fan_in, fan_out = c_in * kw, c_out * kw
    else:
        fan_in, fan_out = shape
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-a, a, size=shape), requires_grad=True)


def init_weight(shape, rng: np.random.Generator | None, glorot: bool = True) -> Tensor:
    """A glorot-uniform weight, or zeros (a bias) without ``glorot``. A conv
    kernel takes the same draws and is stored tap-major. With no ``rng`` it is
    a read-only zero placeholder that draws nothing and takes no memory, for a
    loader to replace with its own array."""
    if rng is None:
        return Tensor(np.broadcast_to(0.0, shape), requires_grad=True)
    if not glorot:
        return Tensor(np.zeros(shape), requires_grad=True)
    weight = glorot_uniform(shape, rng)
    if is_conv_kernel("weight", weight.shape):
        weight.data = np.asfortranarray(weight.data)
    return weight


class Adam:
    """Adam with bias correction over a fixed parameter list."""

    def __init__(self, params: list[Tensor], lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def step(self):
        """Update each parameter with a gradient in place. ``m`` and ``v`` are kept
        divided by ``1 - beta``; lr and eps take that and the bias corrections."""
        self.t += 1
        root = math.sqrt((1.0 - ADAM_BETA2 ** self.t) / (1.0 - ADAM_BETA2))
        step = self.lr * root * (1.0 - ADAM_BETA1) / (1.0 - ADAM_BETA1 ** self.t)
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g, s = p.grad, np.empty_like(m)     # s: the one scratch array
            m *= ADAM_BETA1
            m += g
            v *= ADAM_BETA2
            v += np.square(g, out=s)
            np.divide(m, np.add(np.sqrt(v, out=s), ADAM_EPS * root, out=s), out=s)
            p.data -= np.multiply(s, step, out=s)
