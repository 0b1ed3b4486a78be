"""The two networks: a window classifier and a masked autoencoder.

Both operate on fixed-length windows cut from a min-max normalized
series. A window's gaps are NaN up to :func:`model_inputs`, the one
place that sets them to -1, outside the observed [0, 1] range. Shapes
follow the (batch, coordinate, time) convention throughout; conv
activations lie (time, batch, channel) in memory behind it, so the
hand-offs to and from the GRUs need no transposing copy. Every inference prepares windows with
:func:`model_inputs` and runs through :func:`infer`, except validation:
it stays one forward over all its windows, as batches would change its bits.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .autograd import (
    GRUParams,
    Tensor,
    concat,
    conv1d,
    gru_forward,
    init_weight,
    leaky_relu,
    maxpool1d,
    no_grad,
    relu,
    sigmoid,
)

__all__ = ["RecognizerModel", "ReconstructorModel", "MISSING_FILL", "model_inputs", "infer"]

MISSING_FILL = -1.0
# Windows per graph-free forward in :func:`infer`. At 64 one 128-channel
# reconstructor activation (64 x 128 x m=32 floats) alone fills a 2 MB L2
# cache, and an impute-mcar request spent a median 3.8 ms of system time on
# fresh pages, against 0.03 ms at 32 (one BLAS thread, 2-core Xeon).
GAP_CHUNK = 32

KERNEL = 5
RECOGNIZER_FILTERS = (256, 128, 64)
RECOGNIZER_HIDDEN = 128
ENCODER_FILTERS = (128, 64, 32)
DECODER_FILTERS = (64, 128)


# One weight/bias pair: a same-padded convolution or a dense layer.
_Layer = namedtuple("_Layer", "weight bias")


class _Registry:
    """Builds layers by name and records their tensors in creation order.

    The record is a model's parameter list: the names and order of its
    bundle blocks and the order of its glorot draws from ``seed`` (biases
    draw nothing). With ``seed=None`` every tensor is a read-only zero
    placeholder that draws nothing and takes no memory.
    """

    def __init__(self, seed: int | None):
        self.rng = None if seed is None else np.random.default_rng(seed)
        self.named: list[tuple[str, Tensor]] = []

    def _pair(self, name: str, shape: tuple[int, ...], width: int) -> _Layer:
        layer = _Layer(init_weight(shape, self.rng), init_weight(width, self.rng, glorot=False))
        self.named += [(f"{name}.weight", layer.weight), (f"{name}.bias", layer.bias)]
        return layer

    def conv(self, name: str, c_in: int, c_out: int) -> _Layer:
        return self._pair(name, (c_out, c_in, KERNEL), c_out)

    def convs(self, prefix: str, chans: tuple[int, ...]) -> tuple[_Layer, ...]:
        """A stack ``{prefix}conv1``, ``conv2``, ... between successive channel counts."""
        return tuple(self.conv(f"{prefix}conv{j}", c_in, c_out)
                     for j, (c_in, c_out) in enumerate(zip(chans, chans[1:]), start=1))

    def dense(self, name: str, n_in: int, n_out: int) -> _Layer:
        return self._pair(name, (n_in, n_out), n_out)

    def gru(self, name: str, n_in: int, hidden: int) -> GRUParams:
        gru = GRUParams(n_in, hidden, self.rng)
        self.named += [(f"{name}.{n}", t) for n, t in gru.tensors()]
        return gru


class _Model:
    def parameters(self) -> list[tuple[str, Tensor]]:
        """Every ``(name, tensor)``, in the order the constructor made them."""
        return list(self._named)


def model_inputs(windows: np.ndarray) -> np.ndarray:
    """Windows as both models read them: values clamped to [0, 1], NaN gaps set to -1."""
    return np.where(np.isnan(windows), MISSING_FILL, np.clip(windows, 0.0, 1.0))


def infer(forward, x: np.ndarray, *per_row: np.ndarray) -> np.ndarray:
    """``forward`` over the rows of ``x`` in ``GAP_CHUNK`` batches, graph-free.

    Each array of ``per_row`` is cut into the same batches as ``x`` and
    passed after it. Chunk outputs (arrays or tensors) are joined along
    the first axis. An empty ``x`` still makes one call, so the result
    has the right shape. Every batch goes to ``forward`` as it is, a
    one-row batch included: the products whose rows are batch rows run a
    lone row as two copies (``autograd._rows_matmul``), so at one BLAS
    thread a row's output has the same bits in any batch.
    """
    with no_grad():
        outs = [forward(*(a[lo:lo + GAP_CHUNK] for a in (x, *per_row)))
                for lo in range(0, max(x.shape[0], 1), GAP_CHUNK)]
    return np.concatenate([o.data if isinstance(o, Tensor) else o for o in outs])


class RecognizerModel(_Model):
    """Classify each coordinate of a window into one of k snippet ranks.

    Three convolution/pool stages shrink the window, a GRU reads what is
    left of the sequence, and a dense head emits per-coordinate class
    logits, which :func:`autograd.cross_entropy` scores directly. With
    ``seed=None`` every parameter is a read-only zero placeholder that
    draws nothing, for a loader to replace.
    """

    def __init__(self, d: int, m: int, k: int, seed: int | None = 0):
        self.check_sizes(d, m, k)
        self.d = d
        self.m = m
        self.k = k
        reg = _Registry(seed)
        self.conv1, self.conv2, self.conv3 = reg.convs("", (d,) + RECOGNIZER_FILTERS)
        self.gru = reg.gru("gru", RECOGNIZER_FILTERS[-1], RECOGNIZER_HIDDEN)
        self.head = reg.dense("head", RECOGNIZER_HIDDEN, d * k)
        self._named = reg.named

    @staticmethod
    def check_sizes(d: int, m: int, k: int) -> None:
        """Raise ``ValueError`` unless a model of these sizes can be built."""
        if m < 8:
            raise ValueError(f"window too short for three pools: m={m} < 8")
        if d < 1 or k < 1:
            raise ValueError("d and k must be positive")

    def forward(self, x: np.ndarray) -> Tensor:
        """Map (B, d, m) windows to (B, d, k) class logits."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 3 or x.shape[1] != self.d or x.shape[2] != self.m:
            raise ValueError(f"expected (B, {self.d}, {self.m}) input, got {x.shape}")
        h = Tensor(x)
        for conv in (self.conv1, self.conv2, self.conv3):
            h = maxpool1d(relu(conv1d(h, conv.weight, conv.bias)))
        last = gru_forward(h.transpose(2, 0, 1), self.gru)[-1]
        feats = leaky_relu(last)
        logits = feats @ self.head.weight + self.head.bias
        return logits.reshape(x.shape[0], self.d, self.k)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Most likely class per coordinate (the largest logit), 0-based, shape (B, d)."""
        return np.argmax(self.forward(x).data, axis=-1)


def default_latent(d: int, m: int) -> int:
    return math.ceil(d * m / 4)


class ReconstructorModel(_Model):
    """Autoencode windows paired with their matched snippet.

    The input carries two channels per coordinate (window values with
    -1 at gaps, and the snippet suggested for that window); the output
    is a sigmoid reconstruction of the window itself. Encoding funnels
    per-coordinate conv stacks into a GRU and a dense bottleneck;
    decoding mirrors it back. With ``seed=None`` every parameter is a
    read-only zero placeholder that draws nothing.
    """

    def __init__(self, d: int, m: int, latent: int | None = None, seed: int | None = 0):
        z = self.latent_size(d, m, latent)
        self.d = d
        self.m = m
        self.latent = z
        reg = _Registry(seed)
        self.encoders = [reg.convs(f"enc{i}.", (2,) + ENCODER_FILTERS) for i in range(d)]
        width = ENCODER_FILTERS[-1] * d
        self.enc_gru = reg.gru("enc_gru", width, m)
        self.to_latent = reg.dense("to_latent", m, z)
        self.from_latent = reg.dense("from_latent", z, m * m)
        self.dec_gru = reg.gru("dec_gru", m, width)
        dec = ENCODER_FILTERS[-1:] + DECODER_FILTERS + (1,)
        self.decoders = [reg.convs(f"dec{i}.", dec) for i in range(d)]
        self._named = reg.named

    @staticmethod
    def latent_size(d: int, m: int, latent: int | None = None) -> int:
        """The bottleneck size; ``ValueError`` unless the model can be built."""
        if d < 1 or m < 1:
            raise ValueError("d and m must be positive")
        z = default_latent(d, m) if latent is None else int(latent)
        if z >= d * m:
            raise ValueError(f"latent not compressive: z={z} >= d*m={d * m}")
        if z < 1:
            raise ValueError("latent size must be positive")
        return z

    def encode(self, x: np.ndarray) -> Tensor:
        """Compress (B, d, 2, m) window/snippet pairs to (B, latent)."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 4 or x.shape[1:] != (self.d, 2, self.m):
            raise ValueError(
                f"expected (B, {self.d}, 2, {self.m}) input, got {x.shape}")
        branches = []
        for i, stack in enumerate(self.encoders):
            h = Tensor(x[:, i])            # (B, 2, m)
            for conv in stack:
                h = leaky_relu(conv1d(h, conv.weight, conv.bias))
            branches.append(h.transpose(2, 0, 1))    # (m, B, 32), contiguous
        last = gru_forward(concat(branches, axis=2), self.enc_gru)[-1]
        return last @ self.to_latent.weight + self.to_latent.bias

    def decode(self, z: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Expand (B, latent) codes back to (B, d, m) reconstructions.

        The dense layer and the decoder GRU run on every row. With a
        (B, d) boolean ``mask``, coordinate j's conv stack runs only on
        the rows whose bit j is set, and the other rows of coordinate j
        come back as zeros (with a zero gradient). Without one, every
        row of every coordinate is decoded.
        """
        if z.ndim != 2 or z.shape[1] != self.latent:
            raise ValueError(f"expected (B, {self.latent}) latent, got {z.shape}")
        batch = z.shape[0]
        if mask is not None and np.shape(mask) != (batch, self.d):
            raise ValueError(f"expected ({batch}, {self.d}) mask, got {np.shape(mask)}")
        seed = z @ self.from_latent.weight + self.from_latent.bias
        steps_in = seed.reshape(batch, self.m, self.m)   # m steps of m features
        states = gru_forward(steps_in.transpose(1, 0, 2), self.dec_gru)
        width = ENCODER_FILTERS[-1]
        outputs = []
        for i, stack in enumerate(self.decoders):
            keep = None if mask is None or mask[:, i].all() else mask[:, i]
            rows = slice(None) if keep is None else np.flatnonzero(keep)
            # Coordinate i's channels of the (m, B, 32*d) states, as (rows, 32, m).
            h = states[:, rows, i * width:(i + 1) * width].transpose(1, 2, 0)
            for conv in stack[:-1]:
                h = leaky_relu(conv1d(h, conv.weight, conv.bias))
            final = stack[-1]
            h = sigmoid(conv1d(h, final.weight, final.bias))  # (rows, 1, m)
            if keep is not None:
                # Back to B rows: a row left out reads the appended zero row.
                back = np.where(keep, np.cumsum(keep) - 1, len(rows))
                h = concat([h, Tensor(np.zeros((1, 1, self.m)))])[back]
            outputs.append(h)
        return concat(outputs, axis=1)

    def forward(self, x: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
        """Encode then decode; exactly the composition of the two."""
        return self.decode(self.encode(x), mask)
