"""Synthetic gap scenarios, the RMSE score, and two naive baselines.

Every generator takes a fully- or partially-observed series, hides some
currently observed points, and returns the gapped series together with
the boolean matrix of exactly the points it hid. Scoring then compares
imputed values against the original series at those points.
"""

from __future__ import annotations

import numpy as np

from .core_ts import TimeSeries

__all__ = [
    "gen_blackout",
    "gen_mcar",
    "gen_ts_nbr",
    "rmse",
    "baseline_mean",
    "baseline_linear",
]

MCAR_BLOCK_LEN = 10


def _with_hidden(ts: TimeSeries, hidden: np.ndarray) -> TimeSeries:
    return TimeSeries(np.where(hidden, np.nan, ts.values), ts.names)


def _uniform_start(rows_ok: np.ndarray, length: int, rng: np.random.Generator,
                   error: str) -> int:
    """Uniform start of a stretch of ``length`` rows all ``rows_ok``, else ValueError."""
    starts = np.flatnonzero(
        np.lib.stride_tricks.sliding_window_view(rows_ok, length).all(axis=1))
    if starts.size == 0:
        raise ValueError(error)
    return int(rng.choice(starts))


def gen_blackout(ts: TimeSeries, length: int,
                 rng: np.random.Generator | int | None = None,
                 ) -> tuple[TimeSeries, np.ndarray]:
    """Hide one aligned block of ``length`` steps across all coordinates.

    The start is drawn uniformly among positions where the whole block is
    currently observed in every coordinate, so the hidden set never
    overlaps existing gaps.
    """
    rng = np.random.default_rng(rng)
    if not 1 <= length <= ts.n:
        raise ValueError(f"block length {length} out of range for n={ts.n}")
    s = _uniform_start(ts.mask.all(axis=1), length, rng,
                       f"no fully observed stretch of {length} steps")
    hidden = np.zeros_like(ts.mask)
    hidden[s:s + length, :] = True
    return _with_hidden(ts, hidden), hidden


def gen_mcar(ts: TimeSeries, rate: float, rng: np.random.Generator | int | None = None,
             ) -> tuple[TimeSeries, np.ndarray]:
    """Scatter short single-coordinate blocks until ``rate`` is reached.

    Each draw picks a coordinate and a start uniformly and hides the
    observed points of one ``MCAR_BLOCK_LEN`` stretch there; draws repeat
    until the total missing fraction (old gaps plus new) is at least
    ``rate``.
    """
    rng = np.random.default_rng(rng)
    if not 0.0 < rate < 1.0:
        raise ValueError("rate must be in (0, 1)")
    if MCAR_BLOCK_LEN > ts.n:
        raise ValueError(f"block length {MCAR_BLOCK_LEN} exceeds n={ts.n}")
    hidden = np.zeros_like(ts.mask)
    budget = int(ts.mask.sum())
    already = ts.mask.size - budget
    target = rate * ts.mask.size
    n_hidden = 0
    while already + n_hidden < target:
        if n_hidden >= budget:
            raise ValueError(f"cannot reach missing rate {rate}: no observed points left")
        j = int(rng.integers(ts.d))
        s = int(rng.integers(ts.n - MCAR_BLOCK_LEN + 1))
        fresh = ts.mask[s:s + MCAR_BLOCK_LEN, j] & ~hidden[s:s + MCAR_BLOCK_LEN, j]
        hidden[s:s + MCAR_BLOCK_LEN, j] |= fresh
        n_hidden += int(fresh.sum())
    return _with_hidden(ts, hidden), hidden


def gen_ts_nbr(ts: TimeSeries, length: int | None = None,
               rng: np.random.Generator | int | None = None,
               coord: int | None = None) -> tuple[TimeSeries, np.ndarray]:
    """Hide one contiguous block in a single coordinate.

    Default length is ``floor(0.1 * n)``; the coordinate is drawn
    uniformly unless given. The start is uniform among positions where
    that coordinate is observed for the whole block.
    """
    rng = np.random.default_rng(rng)
    if length is None:
        length = ts.n // 10
    if not 1 <= length <= ts.n:
        raise ValueError(f"block length {length} out of range for n={ts.n}")
    if coord is None:
        coord = int(rng.integers(ts.d))
    if not 0 <= coord < ts.d:
        raise ValueError(f"coordinate {coord} out of range")
    s = _uniform_start(ts.mask[:, coord], length, rng,
                       f"no fully observed stretch of {length} steps in coordinate {coord}")
    hidden = np.zeros_like(ts.mask)
    hidden[s:s + length, coord] = True
    return _with_hidden(ts, hidden), hidden


def rmse(imputed: TimeSeries, truth: TimeSeries, positions: np.ndarray) -> float:
    """Root mean squared error over the flagged positions of same-named series."""
    positions = np.asarray(positions, dtype=bool)
    if positions.shape != truth.values.shape:
        raise ValueError("positions shape differs from series shape")
    if imputed.values.shape != truth.values.shape:
        raise ValueError("imputed shape differs from truth shape")
    if imputed.names != truth.names:
        raise ValueError(f"imputed has coordinates {list(imputed.names)}, "
                         f"truth has {list(truth.names)}")
    if not positions.any():
        raise ValueError("nothing to score: no positions flagged")
    if not truth.mask[positions].all():
        raise ValueError("truth is missing at some flagged positions")
    gaps = int((~imputed.mask[positions]).sum())
    if gaps:
        raise ValueError(f"imputed series is still missing {gaps} flagged positions")
    diff = imputed.values[positions] - truth.values[positions]
    return float(np.sqrt(np.mean(diff * diff)))


def baseline_mean(ts: TimeSeries) -> TimeSeries:
    """Fill each coordinate's gaps with its observed mean."""
    out = ts.values.copy()
    for j in range(ts.d):
        col = ts.mask[:, j]
        if not col.any():
            raise ValueError(f"empty coordinate: {ts.names[j]} has no observed points")
        out[~col, j] = ts.values[col, j].mean()
    return TimeSeries(out, ts.names)


def baseline_linear(ts: TimeSeries) -> TimeSeries:
    """Linearly interpolate gaps; edge gaps extend the nearest value."""
    out = ts.values.copy()
    idx = np.arange(ts.n)
    for j in range(ts.d):
        col = ts.mask[:, j]
        if not col.any():
            raise ValueError(f"empty coordinate: {ts.names[j]} has no observed points")
        out[~col, j] = np.interp(idx[~col], idx[col], ts.values[col, j])
    return TimeSeries(out, ts.names)
