"""End-to-end gap filling with a trained bundle.

The series is brought into the bundle's normalized frame and cut into
stride-m windows (the last window backs up over the tail when the
length is not a multiple of m). The windows holding a NaN gap are
gathered into one array of model inputs, labeled by the recognizer,
paired with their matched snippets and predicted by the reconstructor;
both models run through ``models.infer`` in fixed-size batches without
a gradient graph. Model predictions land only in missing cells;
observed cells of the output are the input values, bit for bit.
Predictions are written in window order and overlapping tail coverage
follows first-writer-wins, so each missing cell is predicted exactly
once. The cells each window will write are known before the models
run, and the reconstructor decodes a window's coordinate only where
that window writes a cell of it. The same input gives the same bytes;
at one BLAS thread so does each gap window, alone or among any others.
"""

from __future__ import annotations

import numpy as np

from .core_ts import TimeSeries, apply_normalization, denormalize, split_nonoverlapping
from .models import infer, model_inputs
from .scenarios import rmse
from .training import ModelBundle, snippet_pairs

__all__ = ["impute", "impute_report"]


def impute(ts: TimeSeries, bundle: ModelBundle) -> TimeSeries:
    """Fill every missing point of ``ts``; observed points pass through."""
    return impute_report(ts, bundle)[0]


def impute_report(
    ts: TimeSeries, bundle: ModelBundle, truth: TimeSeries | None = None,
) -> tuple[TimeSeries, dict]:
    """Impute and summarize the pass as a JSON-friendly report.

    With ``truth`` given (a series observed at the points ``ts`` is
    missing), the report adds RMSE over the imputed positions, overall
    and per coordinate. ``ts`` and ``truth`` must name the bundle's
    coordinates in its order; every check runs before any model does.
    """
    for what, series in (("series", ts), ("truth", truth)):
        if series is not None and series.names != bundle.names:
            raise ValueError(f"{what} has d={series.d} coordinates {list(series.names)}, "
                             f"bundle expects d={bundle.d} {list(bundle.names)}")
    obs = ts.mask
    if truth is not None:
        if truth.n != ts.n:
            raise ValueError(f"truth has n={truth.n} steps, series has n={ts.n}")
        scored = ~obs & truth.mask
        if not scored.any():
            raise ValueError("nothing to score: truth is missing at every gap")
    m = bundle.m
    norm = apply_normalization(ts, bundle.norm)
    starts, windows = split_nonoverlapping(norm, m)
    gap = np.isnan(windows).any(axis=(1, 2))
    gap_starts = starts[gap]
    # Model inputs are clamped to the training range; output plumbing
    # keeps the unclamped normalized values.
    x = model_inputs(windows[gap])
    # The (m, d) cells each gap window writes: still missing and unwritten.
    writes = np.empty((gap_starts.shape[0], m, ts.d), dtype=bool)
    open_ = ~obs
    for g, s0 in enumerate(gap_starts):
        writes[g] = open_[s0:s0 + m]
        open_[s0:s0 + m] = False
    labels = infer(bundle.recognizer.predict, x)
    pred = infer(bundle.reconstructor.forward, snippet_pairs(x, labels, bundle.snippets),
                 writes.any(axis=1))
    filled = norm.values.copy()
    for s0, window, slot in zip(gap_starts, pred, writes):
        filled[s0:s0 + m][slot] = window.T[slot]

    denormed = denormalize(TimeSeries(filled, ts.names), bundle.norm)
    series = TimeSeries(np.where(obs, ts.values, denormed.values), ts.names)
    if series.n_missing:
        raise ValueError(f"cells still missing after imputation: {series.n_missing}")
    report = {
        "n": ts.n,
        "d": ts.d,
        "m": m,
        "k": bundle.k,
        "windows": {"total": starts.shape[0], "with_gaps": gap_starts.shape[0]},
        "imputed_points": int((~obs).sum()),
        "clamped_points": int((obs & ((norm.values < 0.0) | (norm.values > 1.0))).sum()),
        "snippet_usage": {
            name: {str(rank + 1): int(count)
                   for rank, count in enumerate(np.bincount(labels[:, j], minlength=bundle.k))}
            for j, name in enumerate(ts.names)
        },
    }
    if truth is not None:
        columns = {name: scored & (np.arange(ts.d) == j) for j, name in enumerate(ts.names)}
        per = {name: rmse(series, truth, c) for name, c in columns.items() if c.any()}
        report["rmse"] = {"overall": rmse(series, truth, scored), "per_coordinate": per}
    return series, report
