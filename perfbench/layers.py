"""Which program functions the traced run wraps, and the per-layer metrics.

Every wrapped function gets a span named ``<layer>.<function>``, where the
layer is the ``saeti`` module that defines it. Work counts marked
"computed" are derived from argument shapes, not measured.

Per-layer values are normalised per unit of work so that runs of
different length compare: a span's contribution is divided by the number
of root spans of its phase (``setup``, ``train`` or ``impute``), and the
phases are summed. A value therefore reads "per set-up, plus per train
request, plus per impute request", for the phases the workload has.
Shares and rates are ratios of sums over the whole traced run.
"""

from __future__ import annotations

import importlib
import os
from collections import defaultdict

import numpy as np

from spans import Hooks, Recorder, Span, roots_of, self_times

LAYERS = ("bench", "cli", "core_ts", "mpdist", "snippets", "training",
          "models", "autograd", "pipeline", "scenarios")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _distance_evals(args, kwargs, result):
    """Computed: segment inner windows x positions x ell per call."""
    n = len(_arg(args, kwargs, 0, "values"))
    ell, m = result.ell, result.m
    seg_windows = len(result.segment_indices) * (m - ell + 1)
    return {"distance_evals": seg_windows * (n - ell + 1) * ell}


def _conv_flop(args, kwargs, result):
    """Computed: 2 * B * L * C_out * C_in * kw for the forward product."""
    x = _arg(args, kwargs, 0, "x").data
    c_out, c_in, kw = _arg(args, kwargs, 1, "weight").data.shape
    batch = x.shape[0] if x.ndim == 3 else 1
    return {"flop": 2 * batch * x.shape[-1] * c_out * c_in * kw}


def _gru_work(args, kwargs, result):
    """Computed: the six gate matmuls per step, 2 * B * 3h * (in + h)."""
    xs = _arg(args, kwargs, 0, "xs")
    params = _arg(args, kwargs, 1, "params")
    batch, h = xs[0].data.shape[0], params.hidden_size
    per_step = 2 * batch * 3 * h * (params.input_size + h)
    return {"steps": len(xs), "flop": len(xs) * per_step}


def _rows(args, kwargs, result):
    return {"rows": np.shape(_arg(args, kwargs, 1, "x"))[0]}


def _history(args, kwargs, result):
    losses = [row.val_loss for row in result]
    return {"epochs": len(result), "best_epoch": int(np.argmin(losses)) + 1}


def _impute_work(args, kwargs, result):
    report = result[1]
    gap = report["windows"]["with_gaps"]
    return {"windows": report["windows"]["total"], "gap_windows": gap,
            "missing_cells": report["imputed_points"],
            "predicted_cells": gap * report["d"] * report["m"]}


def _bundle_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


# (module, function, counter) wrapped wherever a saeti module binds them.
FUNCTIONS = (
    ("cli", "main", None),
    ("core_ts", "read_csv", None),
    ("core_ts", "write_csv", None),
    ("core_ts", "minmax_normalize", None),
    ("core_ts", "apply_normalization", None),
    ("core_ts", "denormalize", None),
    ("core_ts", "split_nonoverlapping", None),
    ("mpdist", "mpdist_profile_matrix", _distance_evals),
    ("mpdist", "mpdist", None),
    ("snippets", "find_all_snippets", None),
    ("snippets", "find_snippets", None),
    ("snippets", "label_subsequence", None),
    ("training", "build_recognizer_dataset", None),
    ("training", "build_reconstructor_dataset", None),
    ("training", "mask_random_points", None),
    ("training", "train_recognizer", _history),
    ("training", "train_reconstructor", _history),
    ("training", "train_bundle", None),
    ("training", "save_bundle", _bundle_bytes),
    ("training", "load_bundle", None),
    ("autograd", "conv1d", _conv_flop),
    ("autograd", "maxpool1d", None),
    ("autograd", "gru_forward", _gru_work),
    ("autograd", "cross_entropy", None),
    ("autograd", "masked_mse", None),
    ("pipeline", "impute_report", _impute_work),
    ("scenarios", "gen_blackout", None),
    ("scenarios", "gen_mcar", None),
)

# (module, class, method, counter)
METHODS = (
    ("models", "RecognizerModel", "forward", _rows),
    ("models", "ReconstructorModel", "forward", _rows),
    ("autograd", "Tensor", "backward", None),
    ("autograd", "Adam", "step", None),
)


def install(recorder: Recorder) -> Hooks:
    """Wrap every entry of FUNCTIONS and METHODS; restore via the result."""
    hooks = Hooks(recorder, "saeti")
    for module, name, counter in FUNCTIONS:
        mod = importlib.import_module(f"saeti.{module}")
        hooks.add_function(mod, name, f"{module}.{name}", counter)
    for module, cls, name, counter in METHODS:
        owner = getattr(importlib.import_module(f"saeti.{module}"), cls)
        hooks.add_method(owner, name, f"{module}.{cls}.{name}", counter)
    return hooks


NORMALIZE = {"core_ts.minmax_normalize", "core_ts.apply_normalization",
             "core_ts.denormalize"}
LOSSES = {"autograd.cross_entropy", "autograd.masked_mse"}
GEN_GAPS = {"scenarios.gen_blackout", "scenarios.gen_mcar"}
DATASETS = {"training.build_recognizer_dataset", "training.build_reconstructor_dataset"}
TRAINING_PARENTS = DATASETS | {"training.train_recognizer", "training.train_reconstructor"}
MODELS = {"recognizer": "models.RecognizerModel.forward",
          "reconstructor": "models.ReconstructorModel.forward"}


def phase_of(request: str) -> str:
    return request.split("-", 1)[0]


class SpanTable:
    """Per-unit sums over a list of spans, as described in the module doc."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.selfs = self_times(spans)
        self.roots = roots_of(spans)
        units: dict[str, int] = defaultdict(int)
        for s in spans:
            if s.parent is None:
                units[phase_of(s.request)] += 1
        self.weight = [1.0 / units[phase_of(spans[r].request)] for r in self.roots]
        under = []
        for s in spans:
            p = s.parent
            under.append(p is not None and (under[p] or spans[p].name in TRAINING_PARENTS))
        self.under_training = under

    def outermost(self, names: set[str]) -> list[int]:
        """Spans named in ``names`` with no ancestor also named there."""
        inside: list[bool] = []
        out = []
        for i, s in enumerate(self.spans):
            p = s.parent
            inside.append(p is not None and (inside[p] or self.spans[p].name in names))
            if s.name in names and not inside[i]:
                out.append(i)
        return out

    def time(self, names: set[str], raw: bool = False) -> float:
        idx = self.outermost(names)
        return sum(self.spans[i].duration * (1.0 if raw else self.weight[i]) for i in idx)

    def calls(self, names: set[str]) -> float:
        return sum(self.weight[i] for i, s in enumerate(self.spans) if s.name in names)

    def count(self, names: set[str], key: str, raw: bool = False) -> float:
        return sum(s.counts.get(key, 0) * (1.0 if raw else self.weight[i])
                   for i, s in enumerate(self.spans) if s.name in names)

    def layer_self(self, layer: str) -> float:
        return sum(t * w for s, t, w in zip(self.spans, self.selfs, self.weight)
                   if s.layer == layer)

    def model_forward(self, name: str, training: bool) -> tuple[float, float, float]:
        """(seconds, calls, rows) of one model's forwards, split by parent."""
        secs = calls = rows = 0.0
        for i, s in enumerate(self.spans):
            if s.name == name and self.under_training[i] == training:
                secs += s.duration * self.weight[i]
                calls += self.weight[i]
                rows += s.counts["rows"] * self.weight[i]
        return secs, calls, rows

    def root_sum_errors(self) -> list[float]:
        """Per root: |sum of self times in its tree - root duration|."""
        sums: dict[int, float] = defaultdict(float)
        for r, t in zip(self.roots, self.selfs):
            sums[r] += t
        return [abs(sums[r] - self.spans[r].duration) for r in sums]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span], overhead: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a traced run, as ``name -> (value, unit)``."""
    t = SpanTable(spans)
    one = lambda name: {name}  # noqa: E731
    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (t.layer_self(layer), "s")

    pm = one("mpdist.mpdist_profile_matrix")
    m["mpdist.profile_matrix_s"] = (t.time(pm), "s")
    m["mpdist.profile_matrix_calls"] = (t.calls(pm), "count")
    m["mpdist.distance_evals"] = (t.count(pm, "distance_evals"), "count")
    m["mpdist.distance_evals_per_s"] = (
        _ratio(t.count(pm, "distance_evals", raw=True), t.time(pm, raw=True)), "1/s")
    m["mpdist.mpdist_calls"] = (t.calls(one("mpdist.mpdist")), "count")

    for key, names in (("conv1d", one("autograd.conv1d")),
                       ("maxpool1d", one("autograd.maxpool1d")),
                       ("gru", one("autograd.gru_forward")),
                       ("loss", LOSSES),
                       ("backward", one("autograd.Tensor.backward")),
                       ("adam", one("autograd.Adam.step"))):
        m[f"autograd.{key}_s"] = (t.time(names), "s")
        m[f"autograd.{key}_calls"] = (t.calls(names), "count")
    for key, names in (("conv1d", one("autograd.conv1d")),
                       ("gru", one("autograd.gru_forward"))):
        m[f"autograd.{key}_gflop"] = (t.count(names, "flop") / 1e9, "GFLOP")
        m[f"autograd.{key}_gflop_per_s"] = (
            _ratio(t.count(names, "flop", raw=True) / 1e9, t.time(names, raw=True)),
            "GFLOP/s")
    m["autograd.gru_steps"] = (t.count(one("autograd.gru_forward"), "steps"), "count")

    for model in ("recognizer", "reconstructor"):
        fit = one(f"training.train_{model}")
        m[f"training.{model}_epoch_s"] = (
            _ratio(t.time(fit, raw=True), t.count(fit, "epochs", raw=True)), "s")
        m[f"training.best_epoch_{model}"] = (t.count(fit, "best_epoch"), "count")
    fits = {"training.train_recognizer", "training.train_reconstructor"}
    m["training.epochs"] = (t.count(fits, "epochs"), "count")
    m["training.dataset_s"] = (t.time(DATASETS), "s")
    mask = one("training.mask_random_points")
    m["training.mask_s"] = (t.time(mask), "s")
    m["training.mask_calls"] = (t.calls(mask), "count")
    m["training.load_bundle_s"] = (t.time(one("training.load_bundle")), "s")
    m["training.save_bundle_s"] = (t.time(one("training.save_bundle")), "s")
    m["training.bundle_bytes"] = (t.count(one("training.save_bundle"), "bytes"), "bytes")

    for model, name in MODELS.items():
        for mode, training in (("train", True), ("infer", False)):
            secs, calls, rows = t.model_forward(name, training)
            base = f"models.{model}_forward_{mode}"
            m[f"{base}_s"] = (secs, "s")
            m[f"{base}_calls"] = (calls, "count")
            m[f"{base}_rows"] = (rows, "count")

    imp = one("pipeline.impute_report")
    m["pipeline.gap_windows"] = (t.count(imp, "gap_windows"), "count")
    m["pipeline.gap_window_share"] = (
        _ratio(t.count(imp, "gap_windows", raw=True), t.count(imp, "windows", raw=True)),
        "share")
    m["pipeline.cells_used_share"] = (
        _ratio(t.count(imp, "missing_cells", raw=True),
               t.count(imp, "predicted_cells", raw=True)), "share")

    m["core_ts.read_csv_s"] = (t.time(one("core_ts.read_csv")), "s")
    m["core_ts.write_csv_s"] = (t.time(one("core_ts.write_csv")), "s")
    m["core_ts.normalize_s"] = (t.time(NORMALIZE), "s")
    m["core_ts.split_windows_s"] = (t.time(one("core_ts.split_nonoverlapping")), "s")

    m["scenarios.gen_gaps_s"] = (t.time(GEN_GAPS), "s")
    m["scenarios.gen_gaps_calls"] = (t.calls(GEN_GAPS), "count")

    m["trace.overhead"] = (overhead, "share")
    m["trace.spans"] = (sum(t.weight), "count")
    return m
