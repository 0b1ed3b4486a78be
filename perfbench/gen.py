"""Seeded input generators for the benchmark.

Everything here is a pure function of its arguments: the same seed gives
the same arrays, and :func:`write_csv` turns them into the same bytes.
Gap requests are made through ``saeti.scenarios`` (looked up on the
module at call time, so a traced run sees them), but the CSV writer is
the benchmark's own, so a change to the program's writer cannot change
the benchmark's inputs.

Three regimes of period-8 waveforms are tiled in blocks whose lengths are
multiples of 32. Without noise every stride-32 window of a regime is
bit-identical to every other one ("planted"); with noise no two windows
are equal.

The block layout of a series depends only on its ``stream`` (history,
request series, ...), not on the seed: the seed draws the noise and the
gaps. Every seed then poses a problem of the same difficulty, so quality
and timing figures compare across seeds.
"""

from __future__ import annotations

import numpy as np

D = 4
BLOCK_UNIT = 32
BLOCK_UNITS = (10, 30)        # block length range, in units of 32 steps
OFFSETS = (0.25, 0.55, 0.85)  # regime levels
AMPLITUDE = 0.10
NOISE_SD = 0.01

_PHASE = np.arange(8) / 8.0
SHAPES = (
    np.sin(2 * np.pi * _PHASE),
    2 * np.abs(2 * ((_PHASE + 0.25) % 1.0) - 1) - 1,  # triangle
    0.7 * np.sin(2 * np.pi * _PHASE) + 0.55 * np.sin(4 * np.pi * _PHASE),
)

LAYOUT_SEED = 20231211
# Stream tags keep independent draws independent of each other's use.
TAG_BLOCKS, TAG_NOISE, TAG_GAPS = 1, 2, 3


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def regime_blocks(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """(regime, length) blocks covering ``n`` steps.

    Regimes come in shuffled rounds of all three, so the first three
    blocks hold every regime, and no regime follows itself.
    """
    blocks: list[tuple[int, int]] = []
    covered = 0
    last = -1
    while covered < n:
        order = [int(r) for r in rng.permutation(3)]
        if order[0] == last:
            order = order[1:] + order[:1]
        for regime in order:
            length = BLOCK_UNIT * int(rng.integers(BLOCK_UNITS[0], BLOCK_UNITS[1] + 1))
            blocks.append((regime, min(length, n - covered)))
            covered += blocks[-1][1]
            last = regime
            if covered >= n:
                break
    return blocks


def regime_series(n: int, stream: int, noise_seed: int | None = None) -> np.ndarray:
    """An (n, D) matrix of tiled regime waveforms, noisy if seeded.

    ``stream`` picks the block layout (a training history and a request
    series differ). Coordinate ``j`` rolls the waveform by ``j`` steps and
    lifts it by ``0.06 * j``.
    """
    values = np.empty((n, D))
    start = 0
    for regime, length in regime_blocks(n, rng_for(LAYOUT_SEED, stream, TAG_BLOCKS)):
        reps = length // 8 + 1
        for j in range(D):
            wave = OFFSETS[regime] + 0.06 * j + AMPLITUDE * np.roll(SHAPES[regime], j)
            values[start:start + length, j] = np.tile(wave, reps)[:length]
        start += length
    if noise_seed is not None:
        noise = rng_for(noise_seed, stream, TAG_NOISE).normal(0.0, NOISE_SD, size=values.shape)
        values += noise
    return values


def planted_series(n: int, stream: int = 0) -> np.ndarray:
    """Exact-repeat regimes: aligned windows of a regime are bit-identical."""
    return regime_series(n, stream)


def noisy_series(n: int, seed: int, stream: int = 0) -> np.ndarray:
    """The planted regimes plus seeded Gaussian noise: no two windows are equal."""
    return regime_series(n, stream, noise_seed=seed)


def names(d: int = D) -> tuple[str, ...]:
    return tuple(f"ch{j + 1}" for j in range(d))


def gap_request(scenarios, timeseries_cls, truth: np.ndarray, kind: str,
                seed: int, index: int) -> tuple[np.ndarray, np.ndarray]:
    """One gapped copy of ``truth`` made by ``saeti.scenarios``.

    ``kind`` is ``"mcar"`` (25 % of points, in blocks of 10) or
    ``"blackout"`` (one 10-step stretch of every coordinate). Returns the
    gapped values (NaN at gaps) and the boolean matrix of hidden points.
    """
    ts = timeseries_cls.from_values(truth, names=names(truth.shape[1]))
    rng = rng_for(seed, TAG_GAPS, index)
    if kind == "mcar":
        gapped, hidden = scenarios.gen_mcar(ts, 0.25, rng)
    elif kind == "blackout":
        gapped, hidden = scenarios.gen_blackout(ts, 10, rng)
    else:
        raise ValueError(f"unknown gap kind {kind!r}")
    return gapped.values, hidden


def _row(values: list[float]) -> str:
    return ",".join("" if v != v else repr(v) for v in values)  # v != v: NaN


class CsvWriter:
    """Writes CSVs of one series and of gapped copies of it.

    Header of channel names, one row per step, empty cells at NaN; names
    and ``repr`` floats hold no comma or quote, so no cell needs quoting.
    The series' rows are formatted once and a gapped copy re-formats only
    the rows its gaps touch, which keeps large request pools cheap.
    """

    def __init__(self, truth: np.ndarray):
        self.header = ",".join(names(truth.shape[1]))
        self.lines = [_row(r) for r in truth.tolist()]

    def write(self, values: np.ndarray, path) -> None:
        lines = list(self.lines)
        for i in np.flatnonzero(np.isnan(values).any(axis=1)):
            lines[i] = _row(values[i].tolist())
        with open(path, "w") as fh:
            fh.write(self.header + "\n" + "\n".join(lines) + "\n")


def write_csv(values: np.ndarray, path) -> None:
    CsvWriter(values).write(values, path)


def repeated_window_share(values: np.ndarray, m: int) -> float:
    """Share of stride-m segments that equal another segment bit for bit.

    Counted per coordinate over the floor(n/m) disjoint segments, the
    pieces snippet discovery compares.
    """
    n, d = values.shape
    n_seg = n // m
    repeated = 0
    for j in range(d):
        segs = np.ascontiguousarray(values[:n_seg * m, j].reshape(n_seg, m))
        _, inverse, counts = np.unique(segs, axis=0, return_inverse=True,
                                       return_counts=True)
        repeated += int((counts[inverse.ravel()] > 1).sum())
    return repeated / (n_seg * d)
