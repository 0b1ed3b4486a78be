"""Dataset assembly, the training loop, and bundle persistence.

Training always happens in the normalized [0, 1] frame. Windows are cut
at stride ``m`` (the final window backs up to cover the tail), the
classifier trains on gap-free windows against snippet-derived labels,
and the autoencoder trains on every window that has at least one
observed point, with random masking of observed positions as
augmentation so it learns to fill holes it has never seen. Windows
stay NaN at their gaps until :func:`occlude` or ``models.model_inputs``.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .autograd import Adam, Tensor, cross_entropy, is_conv_kernel, masked_mse, zero_grads
from .core_ts import NormParams, TimeSeries, split_nonoverlapping
from .models import RecognizerModel, ReconstructorModel, infer, model_inputs
from .mpdist import _inner_window
from .snippets import SnippetSet, label_subsequence, snippet_values

__all__ = [
    "TrainConfig",
    "EpochStats",
    "ModelBundle",
    "build_recognizer_dataset",
    "build_reconstructor_dataset",
    "label_windows",
    "snippet_pairs",
    "mask_random_points",
    "occlude",
    "split_train_val",
    "train_recognizer",
    "train_reconstructor",
    "train_bundle",
    "save_bundle",
    "load_bundle",
    "BUNDLE_MAGIC",
]

BUNDLE_MAGIC = b"SAETIMB1"
BUNDLE_FORMAT = 3
# Share of windows held out for validation, and of points occluded.
VAL_FRACTION = 0.25
MASK_FRACTION = 0.25


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters shared by both training loops."""

    m: int
    k: int
    latent: int | None = None
    seed: int = 42
    lr: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 200
    patience: int = 10

    def __post_init__(self):
        for name in ("batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")


@dataclass(frozen=True)
class EpochStats:
    """One line of training history."""

    epoch: int
    train_loss: float
    val_loss: float
    val_accuracy: float | None = None


@dataclass
class ModelBundle:
    """Everything imputation needs, in one serializable object.

    ``snippets`` holds each coordinate's snippet values in rank order,
    shape (d, k, m); ``ell`` is the inner window discovery used.
    """

    names: tuple[str, ...]
    norm: NormParams
    snippets: np.ndarray
    ell: int
    recognizer: RecognizerModel
    reconstructor: ReconstructorModel
    seed: int = 42

    @property
    def d(self) -> int:
        return self.recognizer.d

    @property
    def m(self) -> int:
        return self.recognizer.m

    @property
    def k(self) -> int:
        return self.recognizer.k


def label_windows(starts: np.ndarray, windows: np.ndarray, sets: list[SnippetSet],
                  recognizer: RecognizerModel | None = None) -> np.ndarray:
    """0-based snippet rank per coordinate of (N, d, m) windows, shape (N, d).

    ``starts`` are the windows' 0-based positions. A window without NaN
    takes, per coordinate, the rank of the snippet whose set holds its
    start (one :func:`label_subsequence` gather per coordinate); windows
    with gaps are routed through the classifier with :func:`models.infer`.
    """
    clean = ~np.isnan(windows).any(axis=(1, 2))
    labels = np.empty(windows.shape[:2], dtype=int)
    for j, sset in enumerate(sets):
        labels[clean, j] = label_subsequence(starts[clean] + 1, sset) - 1
    if not clean.all():
        if recognizer is None:
            raise ValueError("window has gaps and no classifier was provided")
        labels[~clean] = infer(recognizer.predict, model_inputs(windows[~clean]))
    return labels


def build_recognizer_dataset(ts_norm: TimeSeries, sets: list[SnippetSet],
                             m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gap-free stride-m windows and their per-coordinate labels.

    Returns ``(X, y)`` with ``X`` shaped (N, d, m) and ``y`` (N, d),
    labels 0-based.
    """
    starts, windows = split_nonoverlapping(ts_norm, m)
    clean = ~np.isnan(windows).any(axis=(1, 2))
    if not clean.any():
        raise ValueError("insufficient clean data: no gap-free windows")
    x = windows[clean]
    return x, label_windows(starts[clean], x, sets)


def build_reconstructor_dataset(ts_norm: TimeSeries, sets: list[SnippetSet], m: int,
                                recognizer: RecognizerModel) -> tuple[np.ndarray, np.ndarray]:
    """``(X, y)`` of every window with an observed point, NaN at its gaps.

    Labeled as by :func:`build_recognizer_dataset`, gap windows by ``recognizer``.
    """
    starts, windows = split_nonoverlapping(ts_norm, m)
    keep = ~np.isnan(windows).all(axis=(1, 2))
    if not keep.any():
        raise ValueError("insufficient clean data: no observed points in any window")
    x = windows[keep]
    return x, label_windows(starts[keep], x, sets, recognizer)


def snippet_pairs(inputs: np.ndarray, labels: np.ndarray,
                  snippets: np.ndarray) -> np.ndarray:
    """Pair each filled window with its matched snippets.

    ``inputs`` is (N, d, m) with gaps already filled, ``labels`` (N, d)
    holds 0-based snippet ranks and ``snippets`` is (d, k, m). Returns
    (N, d, 2, m): the window in channel 0 and snippet ``labels[i, j]`` of
    coordinate ``j`` in channel 1, the reconstructor's input layout.
    """
    matched = snippets[np.arange(snippets.shape[0]), labels]
    return np.stack((inputs, matched), axis=2)


def mask_random_points(observed: np.ndarray, fraction: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Pick exactly ``floor(fraction * size)`` observed positions to hide.

    Capped at the number of observed positions. Returns a boolean array
    shaped like ``observed``, True at the points to blank out.
    """
    n_pick = min(int(fraction * observed.size), int(observed.sum()))
    hide = np.zeros(observed.shape, dtype=bool)
    if n_pick > 0:
        hide.ravel()[rng.choice(np.flatnonzero(observed), size=n_pick, replace=False)] = True
    return hide


def occlude(windows: np.ndarray, rng: np.random.Generator, spread: bool = False) -> np.ndarray:
    """``model_inputs`` of (N, d, m) windows with some observed points hidden.

    Per window, :func:`mask_random_points` picks ``MASK_FRACTION`` of its
    points, or with ``spread`` a share drawn uniformly from 0 to twice
    that, among its observed ones; ``windows`` itself is left unchanged.
    """
    hidden = windows.copy()
    for window in hidden:
        share = rng.uniform(0.0, 2.0 * MASK_FRACTION) if spread else MASK_FRACTION
        window[mask_random_points(~np.isnan(window), share, rng)] = np.nan
    return model_inputs(hidden)


def split_train_val(n: int, val_fraction: float,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Shuffled index split; validation gets at least one sample."""
    if n < 2:
        raise ValueError("need at least 2 windows to split")
    order = rng.permutation(n)
    n_val = min(max(1, int(round(val_fraction * n))), n - 1)
    return order[n_val:], order[:n_val]


def _check_finite(value: float, what: str, epoch: int) -> None:
    if not math.isfinite(value):
        raise RuntimeError(
            f"{what} became non-finite at epoch {epoch}; "
            "lower the learning rate or check the input scaling")


def _fit(model, config: TrainConfig, rng: np.random.Generator,
         train_idx: np.ndarray, batch_loss, validate) -> list[EpochStats]:
    """Adam + early stopping on validation loss; restores the best epoch.

    Each epoch visits ``train_idx`` in a fresh ``rng`` permutation, in
    batches of ``config.batch_size``. ``batch_loss(batch)`` returns the
    batch's loss tensor and its weight; the epoch's training loss is the
    weighted mean of the batch losses. ``validate()`` returns ``(val_loss,
    val_accuracy or None)``; its forwards run graph-free in ``models.infer``.
    """
    params = [p for _, p in model.parameters()]
    opt = Adam(params, lr=config.lr)
    history: list[EpochStats] = []
    best_val = math.inf
    best_snap = []  # epoch 1's finite validation loss always replaces it
    stale = 0
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(train_idx)
        total = 0.0
        count = 0.0
        for lo in range(0, order.shape[0], config.batch_size):
            loss, weight = batch_loss(order[lo:lo + config.batch_size])
            zero_grads(params)
            loss.backward()
            opt.step()
            total += loss.item() * weight
            count += weight
            del loss    # so the next batch's forward runs with no graph alive
        train_loss = total / count
        _check_finite(train_loss, "training loss", epoch)

        val_loss, val_acc = validate()
        _check_finite(val_loss, "validation loss", epoch)
        history.append(EpochStats(epoch, train_loss, val_loss, val_acc))

        if val_loss < best_val:
            best_val = val_loss
            best_snap = [p.data.copy(order="K") for p in params]   # kernels stay tap-major
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    for p, data in zip(params, best_snap):
        np.copyto(p.data, data)
    return history


def train_recognizer(model: RecognizerModel, x: np.ndarray, y: np.ndarray,
                     config: TrainConfig) -> list[EpochStats]:
    """Train the classifier with :func:`_fit`.

    The loss is the fused cross-entropy of the logits, summed over
    coordinates and averaged over the batch. Input windows are occluded
    with :func:`occlude`: per sample, a share of points drawn uniformly
    between 0 and twice the configured fraction (mean = the configured
    fraction) is hidden. At use the classifier sees anything from
    untouched windows to mostly-hidden ones, so training has to cover
    that whole range; a fixed share would let it key on the occlusion
    pattern itself. Validation inputs get one fixed occlusion at the
    nominal fraction drawn up front and run through :func:`models.infer`;
    the history rows' loss and accuracy are measured on those.
    """
    rng = np.random.default_rng(config.seed)
    train_idx, val_idx = split_train_val(x.shape[0], VAL_FRACTION, rng)
    val_x = occlude(x[val_idx], rng)

    def batch_loss(batch):
        xb = occlude(x[batch], rng, spread=True)
        loss = cross_entropy(model.forward(xb), y[batch]) * (1.0 / batch.shape[0])
        return loss, batch.shape[0]

    def validate():
        logits = infer(model.forward, val_x)
        val_loss = cross_entropy(Tensor(logits), y[val_idx]).item() / val_idx.shape[0]
        return val_loss, float(np.mean(np.argmax(logits, axis=-1) == y[val_idx]))

    return _fit(model, config, rng, train_idx, batch_loss, validate)


def train_reconstructor(model: ReconstructorModel, x: np.ndarray, y: np.ndarray,
                        snippets: np.ndarray, config: TrainConfig) -> list[EpochStats]:
    """Masked-MSE training of windows ``x`` paired with ``snippets[y]``.

    Each batch re-rolls which observed points :func:`occlude` blanks out
    of the input channel; the loss, over the window's non-NaN points,
    still sees them, which is what teaches the model to fill gaps.
    Validation runs unoccluded through :func:`models.infer`.
    """
    rng = np.random.default_rng(config.seed)
    train_idx, val_idx = split_train_val(x.shape[0], VAL_FRACTION, rng)

    def loss_of(pred, rows):
        target = x[rows]
        observed = ~np.isnan(target)
        return masked_mse(pred, target, observed), float(observed.sum())

    def batch_loss(batch):
        pairs = snippet_pairs(occlude(x[batch], rng), y[batch], snippets)
        return loss_of(model.forward(pairs), batch)

    val_pairs = snippet_pairs(model_inputs(x[val_idx]), y[val_idx], snippets)

    def validate():
        return loss_of(Tensor(infer(model.forward, val_pairs)), val_idx)[0].item(), None

    return _fit(model, config, rng, train_idx, batch_loss, validate)


def train_bundle(
    ts_norm: TimeSeries, norm: NormParams, sets: list[SnippetSet],
    config: TrainConfig,
) -> tuple[ModelBundle, list[EpochStats], list[EpochStats]]:
    """Train both models on an already normalized series.

    Returns the bundle plus the two training histories (classifier
    first). Pass the snippet sets discovered on the same series: one per
    coordinate, each with the config's m and k and a rank for each of the
    series' subsequence starts, all with one ell (the bundle's), else
    ``ValueError`` before any training.
    """
    d, m = ts_norm.d, config.m
    shapes = [(s.m, s.k, s.ell, s.ranks.shape[0]) for s in sets]
    if len(sets) != d or any(shape != (m, config.k, sets[0].ell, ts_norm.n - m + 1)
                             for shape in shapes):
        raise ValueError(f"snippet sets (m, k, ell, starts) {shapes} do not match the "
                         f"config: need {d} sets with m={m}, k={config.k}, one ell and "
                         f"{ts_norm.n - m + 1} subsequence starts")
    bundle = ModelBundle(
        names=ts_norm.names, norm=norm, snippets=snippet_values(sets), ell=sets[0].ell,
        recognizer=RecognizerModel(d, m, config.k, seed=config.seed),
        reconstructor=ReconstructorModel(d, m, latent=config.latent, seed=config.seed),
        seed=config.seed)
    rx, ry = build_recognizer_dataset(ts_norm, sets, m)
    recog_history = train_recognizer(bundle.recognizer, rx, ry, config)
    ax, ay = build_reconstructor_dataset(ts_norm, sets, m, bundle.recognizer)
    recon_history = train_reconstructor(bundle.reconstructor, ax, ay, bundle.snippets, config)
    return bundle, recog_history, recon_history


# -- persistence -------------------------------------------------------------


def _arrays(bundle: ModelBundle) -> list[tuple[str, np.ndarray]]:
    """Every stored array, named, in file order."""
    return ([("norm.mins", bundle.norm.mins), ("norm.maxs", bundle.norm.maxs),
             ("snippets", bundle.snippets)]
            + [(f"recognizer.{n}", p.data) for n, p in bundle.recognizer.parameters()]
            + [(f"reconstructor.{n}", p.data) for n, p in bundle.reconstructor.parameters()])


def save_bundle(bundle: ModelBundle, path) -> None:
    """Write a bundle: magic, header length, JSON header, raw float64 blocks.

    The header holds the config and the ``[name, shape]`` of every array;
    the arrays follow as little-endian float64 in that order (norm,
    snippets, classifier, then autoencoder parameters), a conv kernel's
    block tap-major (the Fortran order of its shape, as it lies in memory)
    and every other block in C order, so a load followed by a save
    reproduces the file byte for byte.
    """
    arrays = _arrays(bundle)
    header = {
        "format": BUNDLE_FORMAT,
        "config": {
            "d": bundle.d,
            "m": bundle.m,
            "k": bundle.k,
            "ell": bundle.ell,
            "latent": bundle.reconstructor.latent,
            "seed": bundle.seed,
            "names": list(bundle.names),
        },
        "arrays": [[name, list(a.shape)] for name, a in arrays],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(BUNDLE_MAGIC)
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for name, a in arrays:
            # A Fortran-ordered array's transpose lies in C order: no copy.
            fh.write(np.ascontiguousarray(a.T if is_conv_kernel(name, a.shape) else a,
                                          dtype="<f8"))


def load_bundle(path) -> ModelBundle:
    """Read a bundle back; anything malformed raises ``ValueError``.

    The config must name ``d`` distinct coordinates, the arrays the header
    lists must be exactly those of a bundle built from its config, every
    value must be finite, and the file must end with the last block. The
    file's size is checked against the config before any block is
    allocated; each block is then read straight into its own array.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(16)
        if len(head) < 16 or head[:8] != BUNDLE_MAGIC:
            raise ValueError("not a model bundle: bad magic")
        (header_len,) = struct.unpack("<Q", head[8:])
        if 16 + header_len > size:
            raise ValueError("truncated bundle: header extends past end of file")
        header = json.loads(fh.read(header_len).decode("utf-8"))
        if not isinstance(header, dict):
            raise ValueError(f"{path}: bundle header is not a JSON object")
        try:
            return _bundle_from_header(header, fh, size - 16 - header_len)
        except KeyError as exc:
            raise ValueError(f"bundle header is missing key {exc}") from None
        except TypeError as exc:
            raise ValueError(
                f"{path}: bundle header has a field of the wrong type: {exc}") from None


def _bundle_from_header(header: dict, fh, available: int) -> ModelBundle:
    """The bundle whose blocks follow in ``fh``, which holds ``available`` bytes more."""
    if header["format"] != BUNDLE_FORMAT:
        raise ValueError(
            f"unsupported bundle format {header['format']!r}; "
            f"this version reads format {BUNDLE_FORMAT}")
    cfg = header["config"]
    for key in ("d", "m", "k", "ell", "latent", "seed"):
        if type(cfg[key]) is not int:
            raise TypeError(f"config {key} must be an integer, got {cfg[key]!r}")
    d, m, k, seed = cfg["d"], cfg["m"], cfg["k"], cfg["seed"]
    names = cfg["names"]
    if type(names) is not list or not all(type(name) is str for name in names):
        raise TypeError(f"config names must be a list of strings, got {names!r}")
    if len(names) != d:
        raise ValueError(f"bundle lists {len(names)} names but its config has d={d}")
    if len(set(names)) != d:
        raise ValueError(f"bundle names repeat a coordinate: {names!r}")
    names = tuple(names)
    ell = _inner_window(cfg["ell"], m)
    RecognizerModel.check_sizes(d, m, k)
    latent = ReconstructorModel.latent_size(d, m, cfg["latent"])
    # A bundle of zero placeholders built from the config fixes the byte
    # count and the header, so a small file cannot ask for a huge model.
    bundle = ModelBundle(
        names=names, norm=NormParams(mins=np.zeros(d), maxs=np.zeros(d)),
        snippets=np.broadcast_to(0.0, (d, k, m)), ell=ell,
        recognizer=RecognizerModel(d, m, k, seed=None),
        reconstructor=ReconstructorModel(d, m, latent=latent, seed=None),
        seed=seed)
    arrays = _arrays(bundle)
    expected = 8 * sum(a.size for _, a in arrays)
    if available < expected:
        raise ValueError(f"truncated bundle: {available} bytes of arrays, "
                         f"its config implies {expected}")
    if available > expected:
        raise ValueError("bundle has trailing bytes")
    if header["arrays"] != [[name, list(a.shape)] for name, a in arrays]:
        raise ValueError("bundle arrays do not match its config")
    blocks = []
    for name, a in arrays:
        kernel = is_conv_kernel(name, a.shape)
        block = np.empty(a.shape, dtype="<f8", order="F" if kernel else "C")
        got = fh.readinto(block.T if kernel else block)
        if got != block.nbytes:
            raise ValueError(f"truncated bundle: block {name} has {got} of {block.nbytes} bytes")
        if not np.isfinite(block).all():
            raise ValueError(f"bundle block {name} holds non-finite values")
        blocks.append(block)
    mins, maxs, bundle.snippets, *weights = blocks
    tensors = bundle.recognizer.parameters() + bundle.reconstructor.parameters()
    for (_, p), data in zip(tensors, weights):
        p.data = data
    bundle.norm = NormParams(mins=mins, maxs=maxs)   # checks min <= max
    return bundle
