"""End-to-end gap filling with a trained bundle.

The series is brought into the bundle's normalized frame and cut into
stride-m windows (the last window backs up over the tail when the
length is not a multiple of m). The windows containing gaps are
gathered into one array and run through each model in fixed-size
batches: one recognizer pass labels every window, one snippet lookup
pairs it with its matched snippets, and one reconstructor pass predicts
it, all without recording a gradient graph. Model predictions land only
in missing cells; observed cells of the output are the input values,
bit for bit. Predictions are written in window order and overlapping
tail coverage follows first-writer-wins, so each missing cell is
predicted exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import no_grad
from .core_ts import TimeSeries, apply_normalization, denormalize, split_nonoverlapping
from .models import MISSING_FILL
from .training import ModelBundle, snippet_pairs

__all__ = ["impute", "impute_report", "ImputeStats"]

# Gap windows per batched forward; bounds model memory on long series.
GAP_CHUNK = 64


@dataclass(frozen=True)
class ImputeStats:
    """Counters collected during one imputation pass."""

    n_windows: int
    n_gap_windows: int
    imputed_points: int
    clamped_points: int
    snippet_usage: np.ndarray  # (d, k) int, rank usage of gap windows


def _impute_core(ts: TimeSeries, bundle: ModelBundle) -> tuple[TimeSeries, ImputeStats]:
    if ts.d != bundle.d:
        raise ValueError(f"series has d={ts.d}, bundle expects d={bundle.d}")
    m = bundle.m
    norm = apply_normalization(ts, bundle.norm)
    obs = ts.mask
    out_of_range = obs & ((norm.values < 0.0) | (norm.values > 1.0))

    filled = norm.values.copy()
    written = np.zeros_like(obs)
    usage = np.zeros((bundle.d, bundle.k), dtype=int)
    starts, windows, window_mask = split_nonoverlapping(norm, m)
    gap = ~window_mask.all(axis=(1, 2))
    gap_starts, gap_values, gap_mask = starts[gap], windows[gap], window_mask[gap]
    for lo in range(0, gap_starts.shape[0], GAP_CHUNK):
        chunk = slice(lo, lo + GAP_CHUNK)
        # Model inputs are clamped to the training range; output plumbing
        # keeps the unclamped normalized values.
        clamped = np.clip(gap_values[chunk], 0.0, 1.0)
        inp = np.where(gap_mask[chunk], clamped, MISSING_FILL)  # (G, d, m)
        with no_grad():
            labels = bundle.recognizer.predict(inp)       # (G, d)
            pairs = snippet_pairs(inp, labels, bundle.snippet_sets)
            pred = bundle.reconstructor.forward(pairs).data  # (G, d, m) in [0, 1]
        for j in range(bundle.d):
            usage[j] += np.bincount(labels[:, j], minlength=bundle.k)
        for s0, window in zip(gap_starts[chunk], pred):
            slot = (~obs[s0:s0 + m]) & (~written[s0:s0 + m])   # (m, d)
            filled[s0:s0 + m][slot] = window.T[slot]
            written[s0:s0 + m][slot] = True

    denormed = denormalize(
        TimeSeries(values=filled, mask=np.ones_like(obs), names=ts.names),
        bundle.norm,
    )
    final = np.where(obs, ts.values, denormed.values)
    out = TimeSeries(values=final, mask=np.ones_like(obs), names=ts.names)
    stats = ImputeStats(
        n_windows=starts.shape[0],
        n_gap_windows=gap_starts.shape[0],
        imputed_points=int((~obs).sum()),
        clamped_points=int(out_of_range.sum()),
        snippet_usage=usage,
    )
    return out, stats


def impute(ts: TimeSeries, bundle: ModelBundle) -> TimeSeries:
    """Fill every missing point of ``ts``; observed points pass through."""
    series, _ = _impute_core(ts, bundle)
    return series


def impute_report(
    ts: TimeSeries, bundle: ModelBundle, truth: TimeSeries | None = None,
) -> tuple[TimeSeries, dict]:
    """Impute and summarize the pass as a JSON-friendly report.

    With ``truth`` given (a series observed at the points ``ts`` is
    missing), the report adds RMSE over the imputed positions, overall
    and per coordinate.
    """
    series, stats = _impute_core(ts, bundle)
    report = {
        "n": ts.n,
        "d": ts.d,
        "m": bundle.m,
        "k": bundle.k,
        "windows": {"total": stats.n_windows, "with_gaps": stats.n_gap_windows},
        "imputed_points": stats.imputed_points,
        "clamped_points": stats.clamped_points,
        "snippet_usage": {
            name: {str(rank + 1): int(stats.snippet_usage[j, rank])
                   for rank in range(bundle.k)}
            for j, name in enumerate(ts.names)
        },
    }
    if truth is not None:
        if truth.values.shape != ts.values.shape:
            raise ValueError("truth shape differs from input shape")
        holes = ~ts.mask
        scored = holes & truth.mask
        if not scored.any():
            raise ValueError("nothing to score: truth is missing at every gap")
        diff = series.values[scored] - truth.values[scored]
        per = {}
        for j, name in enumerate(ts.names):
            col = scored[:, j]
            if col.any():
                dj = series.values[col, j] - truth.values[col, j]
                per[name] = float(np.sqrt(np.mean(dj * dj)))
        report["rmse"] = {
            "overall": float(np.sqrt(np.mean(diff * diff))),
            "per_coordinate": per,
        }
    return series, report
