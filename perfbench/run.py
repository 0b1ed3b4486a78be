"""saeti benchmark: train and impute workloads timed from outside the program.

Run from the repository root::

    python3 perfbench/run.py --workload train --seed 1 --seconds 15 --trace 0

Workloads (all d=4, m=32, k=3):

* ``train``: in-process ``saeti train`` on an n=10 000 noisy regime series
  with a fixed 4-epoch budget. Six imputations of n=2 000 noisy series
  with 25 % MCAR gaps follow, to check the trained bundle and score it.
* ``impute-mcar``: in-process ``saeti impute`` on n=2 000 series with 25 %
  MCAR gaps, so almost every window has a gap.
* ``impute-blackout``: the same on n=10 000 series with one 10-step
  blackout, so only one or two windows have gaps.

Each workload is one closed-loop client issuing one request at a time,
with one BLAS thread. Every time reported is the CPU time the request
took, scaled to a fixed machine speed by a probe sampled while it ran
(``speed.py``); raw CPU and wall times go to the run record. Set-up
generates every input and, for the impute workloads, trains their bundle
on a planted n=3 840 history for 2 epochs. It runs three times and its
median is ``setup_s``; an impute workload spends a third of ``--seconds``
of wall time on requests after each set-up. The
training histories are fixtures; ``--seed`` draws the request series and
their gaps. Every operation's output is checked, and a failed check
counts against ``success_share``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` wraps the
program's public functions (see ``layers.py``), runs every request once
untraced and once traced on the same input, and prints the per-layer
metrics, tracing overhead included. A JSON record of the run's context is
printed before the result line and written under ``.bench_work/records``;
a traced run's spans go to ``.bench_work/spans``.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
if __name__ == "__main__":
    # BLAS reads its thread count when numpy is first imported.
    for _var in THREAD_VARS:
        os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gen  # noqa: E402
import layers  # noqa: E402
from spans import Recorder  # noqa: E402
from speed import SpeedProbe  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

M, K = 32, 3
PROGRAM_SEED = 42
# Training histories are fixtures, the same for every --seed, so every run
# trains the same model; --seed draws the request series and their gaps.
FIXTURE_SEED = 0
SETUP_REPS = 3
TRAIN_N, TRAIN_EPOCHS = 10_000, 4
HISTORY_N, HISTORY_EPOCHS = 3_840, 2
# The train workload checks its bundle on MCAR requests: each hides ~2 000
# points, so the pooled RMSE hardly depends on where the gaps fall.
CHECK_N, CHECK_REQUESTS = 2_000, 6
# workload -> (gap kind, series length, distinct requests made in set-up)
IMPUTE = {"impute-mcar": ("mcar", 2_000, 8), "impute-blackout": ("blackout", 10_000, 128)}
WORKLOADS = ("train", *IMPUTE)

# Speed-probe kernel per timed region (speed.py): imputation runs the
# models one window at a time, training and set-up work on whole batches.
KERNEL = {"impute": "interpreted", "train": "array", "setup": "array"}

END_TO_END_UNITS = {
    "setup_s": "s", "train_s": "s", "impute_p50_s": "s", "impute_tail_s": "s",
    "gap_windows_per_s": "1/s", "rmse": "value", "recognizer_val_accuracy": "share",
    "reconstructor_val_loss": "value", "success_share": "share", "peak_rss_mb": "MB",
}


class OpFailed(Exception):
    """An operation's output failed a check."""


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def cpu_seconds() -> float:
    """CPU time of this process and of the child processes it waited for.

    The program runs on one thread, so this agrees with wall time when it
    has a core to itself; wall time also counts the time other processes,
    or the host, held the core.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def gap_windows(hidden: np.ndarray, m: int) -> int:
    """Windows with a gap, windowed as the pipeline does (tail backs up)."""
    n = hidden.shape[0]
    starts = list(range(0, n - m + 1, m)) + ([n - m] if n % m else [])
    return sum(bool(hidden[s:s + m].any()) for s in starts)


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and which.

    Below 20 samples that percentile would fall under the median, so the
    median is reported (as percentile 50).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 20:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return statistics.median(ordered), 50.0


def read_output(path) -> np.ndarray:
    """The data cells of an imputed CSV; an empty or non-numeric cell fails."""
    try:
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise OpFailed(f"output is not a complete numeric table: {exc}") from exc


def history_number(cell: str) -> tuple[float, bool]:
    """A loss cell of the history CSV, and whether it was a plain number.

    Under numpy 2 the program writes some cells as ``np.float64(x)``; the
    number inside is used and the cell is reported in the run record.
    """
    match = re.fullmatch(r"np\.float64\((.*)\)", cell)
    if match:
        return float(match.group(1)), False
    return float(cell), True


def check_imputed(got: np.ndarray, req: dict) -> np.ndarray:
    """Check one imputed output; returns its errors at the hidden points.

    ``req["gapped"]`` holds exactly the values written to the input CSV
    (``repr`` round-trips), so observed cells are compared bit for bit
    against it.
    """
    given = req["gapped"]
    if got.shape != given.shape:
        raise OpFailed(f"output shape {got.shape} != input shape {given.shape}")
    if not np.isfinite(got).all():
        raise OpFailed("output has non-finite cells")
    observed = ~np.isnan(given)
    if not np.array_equal(got[observed].view(np.uint64), given[observed].view(np.uint64)):
        raise OpFailed("observed cells changed")
    err = got[req["hidden"]] - req["truth"][req["hidden"]]
    if not np.isfinite(np.sqrt(np.mean(err * err))):
        raise OpFailed("rmse is not finite")
    return err


def best_epoch(rows: list[dict]) -> dict:
    """History row with the lowest validation loss, first on ties."""
    return min(rows, key=lambda r: history_number(r["val_loss"])[0])


class Bench:
    """One benchmark run: operations, their checks and their timings."""

    def __init__(self, saeti, workdir: Path, seed: int, trace: bool):
        self.saeti = saeti
        self.load_bundle = saeti.training.load_bundle  # unwrapped: checks stay untraced
        self.workdir = workdir
        self.seed = seed
        self.recorder = Recorder() if trace else None
        # Traced runs compare traced and untraced CPU time and need no probe.
        self.probe = None if trace else SpeedProbe()
        self.attempted = 0
        self.failures: list[str] = []
        self.overhead_pairs: list[tuple[float, float]] = []
        self.history_cells_not_plain: set[str] = set()

    # -- running one program request ------------------------------------

    def timed(self, fn, kernel: str):
        """Run ``fn()``; returns its result and its clocks.

        ``seconds`` is the figure reported: CPU time scaled to the probe's
        reference speed with ``kernel``, or plain CPU time in a traced run.
        """
        wall0 = time.perf_counter()
        if self.probe is None:
            cpu0 = cpu_seconds()
            result = fn()
            cpu = seconds = cpu_seconds() - cpu0
            scale = 1.0
        else:
            result, region, cpu = self.probe.measure(fn, cpu_seconds, kernel)
            scale = region.scale()
            seconds = cpu * scale
        return result, {"seconds": seconds, "cpu_seconds": cpu, "speed_scale": scale,
                        "wall_seconds": time.perf_counter() - wall0}

    def _invoke(self, argv: list[str], root: str | None, request: str) -> tuple[int, dict]:
        """``saeti <argv>`` in-process; returns exit code and clocks.

        With ``root`` set, the program's functions are wrapped for the
        call and a root span of that name encloses it.
        """
        buf = io.StringIO()
        hooks = layers.install(self.recorder) if root else contextlib.nullcontext()
        span = self.recorder.root(root, request) if root else contextlib.nullcontext()
        with hooks, span, contextlib.redirect_stdout(buf):
            return self.timed(lambda: self._main(argv), KERNEL[argv[0]])

    def _main(self, argv: list[str]) -> int:
        try:
            return self.saeti.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            return exc.code if isinstance(exc.code, int) else 2

    def request(self, argv: list[str], phase: str, index: int, output: Path) -> dict:
        """One timed request; ``output`` is the file it writes.

        In a traced run a request runs untraced first and then traced on
        the same input (writing ``output`` with a ``.traced`` suffix); the
        two outputs must be identical, and the pair feeds the overhead.
        A request inside a traced set-up is already traced and runs once.
        Returns the untraced run's clocks.
        """
        request = f"{phase}-{index}"
        code, clocks = self._invoke(argv, None, request)
        if code != 0:
            raise OpFailed(f"{request}: exit code {code}")
        if self.recorder is not None and not self.recorder.depth:
            twin = output.with_name(output.name + ".traced")
            traced_argv = [str(twin) if a == str(output) else a for a in argv]
            code, traced = self._invoke(traced_argv, f"bench.{phase}", request)
            if code != 0:
                raise OpFailed(f"{request}: traced exit code {code}")
            if sha256(twin) != sha256(output):
                raise OpFailed(f"{request}: traced output differs from untraced")
            self.overhead_pairs.append((clocks["seconds"], traced["seconds"]))
        return clocks

    def attempt(self, what: str, fn, *args):
        """Run one operation; a raised OpFailed counts it as failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except OpFailed as exc:
            self.failures.append(f"{what}: {exc}")
            return None

    def check(self, ok: bool, failure: str) -> None:
        """A run-level check (determinism, span arithmetic), counted like an operation."""
        self.attempted += 1
        if not ok:
            self.failures.append(failure)

    # -- operations -------------------------------------------------------

    def train(self, csv_path: Path, out: Path, epochs: int, phase: str, index: int) -> dict:
        """``saeti train`` with a fixed epoch budget, then its checks."""
        history = out.with_suffix(".history.csv")
        argv = ["train", "--input", str(csv_path), "--output", str(out),
                "--m", str(M), "--k", str(K), "--seed", str(PROGRAM_SEED),
                "--max-epochs", str(epochs), "--patience", str(epochs),
                "--history", str(history)]
        clocks = self.request(argv, phase, index, out)
        with open(history, newline="") as fh:
            rows = list(csv.DictReader(fh))
        by_model = {name: [r for r in rows if r["model"] == name]
                    for name in ("recognizer", "reconstructor")}
        for name, model_rows in by_model.items():
            if len(model_rows) != epochs:
                raise OpFailed(f"{name} ran {len(model_rows)} epochs, budget {epochs}")
            for r in model_rows:
                for key in ("train_loss", "val_loss"):
                    try:
                        value, plain = history_number(r[key])
                    except ValueError as exc:
                        raise OpFailed(f"{name} epoch {r['epoch']}: {key} unreadable") from exc
                    if not plain:
                        self.history_cells_not_plain.add(f"{name}.{key}")
                    if not math.isfinite(value):
                        raise OpFailed(f"{name} epoch {r['epoch']}: {key} not finite")
        try:
            self.load_bundle(out)
        except ValueError as exc:
            raise OpFailed(f"bundle does not load back: {exc}") from exc
        rec, con = best_epoch(by_model["recognizer"]), best_epoch(by_model["reconstructor"])
        return {**clocks, "sha256": sha256(out),
                "recognizer_val_accuracy": float(rec["val_accuracy"]),
                "reconstructor_val_loss": history_number(con["val_loss"])[0]}

    def impute(self, req: dict, bundle: Path, phase: str, index: int) -> dict:
        """``saeti impute`` on one gapped CSV, then its checks.

        Output bytes already checked against the same request are not
        parsed again: identical bytes pass identical checks.
        """
        out = self.workdir / f"{phase}-{index}.imputed.csv"
        argv = ["impute", "--input", str(req["path"]), "--bundle", str(bundle),
                "--output", str(out)]
        clocks = self.request(argv, phase, index, out)
        out_sha = sha256(out)
        if out_sha not in req["checked"]:
            req["checked"][out_sha] = check_imputed(read_output(out), req)
        return {**clocks, "sha256": out_sha, "errors": req["checked"][out_sha],
                "gap_windows": req["gap_windows"]}

    def impute_for(self, seconds: float, requests: list[dict], bundle: Path,
                   results: list[dict]) -> None:
        """Closed loop over the request pool for ``seconds`` of request wall time.

        At least one request runs; the loop stops at the first failure.
        """
        gc.collect()  # leave set-up's garbage out of the timed requests
        spent, first = 0.0, len(results)
        while len(results) == first or spent < seconds:
            i = len(results)
            r = self.attempt(f"impute-{i}", self.impute, requests[i % len(requests)],
                             bundle, "impute", i)
            if r is None:
                return
            r["pool_index"] = i % len(requests)
            results.append(r)
            spent += r["wall_seconds"]

    # -- set-up -----------------------------------------------------------

    def make_requests(self, truth: np.ndarray, kind: str, count: int, folder: Path) -> list[dict]:
        reqs = []
        writer = gen.CsvWriter(truth)
        for i in range(count):
            gapped, hidden = gen.gap_request(self.saeti.scenarios, self.saeti.core_ts.TimeSeries,
                                             truth, kind, self.seed, i)
            path = folder / f"request-{i}.csv"
            writer.write(gapped, path)
            reqs.append({"path": path, "truth": truth, "hidden": hidden, "gapped": gapped,
                         "gap_windows": gap_windows(hidden, M), "checked": {}})
        return reqs

    def setup(self, workload: str, rep: int) -> dict:
        """Generate every input (and, for impute workloads, the bundle)."""
        folder = self.workdir / f"setup-{rep}"
        folder.mkdir()
        out: dict = {"folder": folder}
        if workload == "train":
            history = gen.noisy_series(TRAIN_N, FIXTURE_SEED, stream=0)
            check_truth = gen.noisy_series(CHECK_N, self.seed, stream=1)
            out["requests"] = self.make_requests(check_truth, "mcar", CHECK_REQUESTS, folder)
        else:
            kind, n, pool = IMPUTE[workload]
            history = gen.planted_series(HISTORY_N, stream=0)
            out["requests"] = self.make_requests(gen.planted_series(n, stream=1),
                                                 kind, pool, folder)
        out["history"] = history
        out["history_path"] = folder / "history.csv"
        gen.write_csv(history, out["history_path"])
        if workload != "train":
            out["train"] = self.attempt(
                f"setup-{rep} train", self.train, out["history_path"], folder / "model.bundle",
                HISTORY_EPOCHS, "setup", rep)
        return out

    def timed_setup(self, workload: str, rep: int) -> tuple[dict, dict]:
        """One set-up; returns it with its clocks."""
        if self.recorder is None:
            return self.timed(lambda: self.setup(workload, rep), KERNEL["setup"])
        with layers.install(self.recorder), self.recorder.root("bench.setup", f"setup-{rep}"):
            return self.timed(lambda: self.setup(workload, rep), KERNEL["setup"])


def digest(setup: dict) -> list[str]:
    """Hashes of everything a set-up wrote, to compare repetitions."""
    return [sha256(p) for p in sorted(setup["folder"].iterdir())]


def run(saeti, workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, dict]:
    """Set up three times and run the workload's requests.

    An impute workload measures a third of its request time after each
    set-up, so its samples spread over the whole run rather than one
    stretch of it: on a shared machine slow and fast spells last seconds.
    """
    bench = Bench(saeti, workdir, seed, trace)
    setups, setup_clocks = [], []
    impute_results: list[dict] = []
    for rep in range(SETUP_REPS):
        s, clocks = bench.timed_setup(workload, rep)
        setups.append(s)
        setup_clocks.append(clocks)
        if workload != "train" and s["train"] is not None:
            bench.impute_for(seconds / SETUP_REPS, s["requests"],
                             s["folder"] / "model.bundle", impute_results)
    setup_digests = [digest(s) for s in setups]
    bench.check(all(d == setup_digests[0] for d in setup_digests),
                "set-up repetitions wrote different bytes")
    final = setups[-1]

    if workload == "train":
        bundle = final["folder"] / "trained.bundle"
        fitted: list[dict] = []
        spent = 0.0
        gc.collect()
        while not fitted or spent < seconds:
            result = bench.attempt(f"train-{len(fitted)}", bench.train, final["history_path"],
                                   bundle, TRAIN_EPOCHS, "train", len(fitted))
            if result is None:
                break
            fitted.append(result)
            spent += result["wall_seconds"]
        bench.check(len({t["sha256"] for t in fitted}) <= 1,
                    "repeated train requests wrote different bundles")
        if fitted:
            gc.collect()  # leave training's garbage out of the timed requests
            for i, req in enumerate(final["requests"]):
                r = bench.attempt(f"impute-{i}", bench.impute, req, bundle, "impute", i)
                if r is not None:
                    r["pool_index"] = i
                    impute_results.append(r)
    else:
        fitted = [s["train"] for s in setups if s["train"] is not None]
        by_item: dict[int, set] = {}
        for r in impute_results:
            by_item.setdefault(r["pool_index"], set()).add(r["sha256"])
        bench.check(all(len(v) == 1 for v in by_item.values()),
                    "repeated imputation of one request wrote different bytes")

    if trace:
        worst = max(layers.SpanTable(bench.recorder.spans).root_sum_errors(), default=0.0)
        bench.check(worst <= 1e-6,
                    f"self times do not sum to their request span (off by {worst:.3g} s)")

    failed = len(bench.failures)
    correct = failed == 0 and bool(impute_results) and bool(fitted)
    setup_times = [c["seconds"] for c in setup_clocks]
    record = context_record(saeti, workload, seed, trace, final, setup_digests, setup_clocks,
                            fitted, impute_results, bench)
    if trace:
        untraced = sum(a for a, _ in bench.overhead_pairs)
        traced = sum(b for _, b in bench.overhead_pairs)
        overhead = traced / untraced - 1.0 if untraced > 0 else 0.0
        record["trace_overhead"] = overhead
        metrics = layers.layer_metrics(bench.recorder.spans, overhead)
        write_spans(bench.recorder, workload, seed)
    else:
        metrics = end_to_end(setup_times, fitted, impute_results, bench)
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, record


def end_to_end(setup_times: list[float], fitted: list[dict], impute_results: list[dict],
               bench: Bench) -> dict[str, tuple[float, str]]:
    lat = [r["seconds"] for r in impute_results]
    errors = np.concatenate([r["errors"] for r in impute_results]) if impute_results else np.zeros(1)
    values = {
        "setup_s": statistics.median(setup_times),
        "train_s": statistics.median(t["seconds"] for t in fitted) if fitted else math.nan,
        "impute_p50_s": statistics.median(lat) if lat else math.nan,
        "impute_tail_s": tail_latency(lat)[0] if lat else math.nan,
        "gap_windows_per_s": sum(r["gap_windows"] for r in impute_results) / sum(lat) if lat else math.nan,
        "rmse": float(np.sqrt(np.mean(errors * errors))),
        "recognizer_val_accuracy": fitted[-1]["recognizer_val_accuracy"] if fitted else math.nan,
        "reconstructor_val_loss": fitted[-1]["reconstructor_val_loss"] if fitted else math.nan,
        "success_share": 1.0 - len(bench.failures) / max(bench.attempted, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


# -- context ----------------------------------------------------------------


def _git_commit() -> str | None:
    """HEAD of the repository at ROOT, or None when ROOT is not one."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")}
                for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError):
        return {}


def _src_stats() -> tuple[int, str]:
    lines, h = 0, hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
    return lines, h.hexdigest()


def _baselines(saeti, requests: list[dict]) -> dict:
    """Mean and linear fills, scored over the same pooled hidden points."""
    sc, ts_cls = saeti.scenarios, saeti.core_ts.TimeSeries
    out = {}
    for name, fill in (("mean", sc.baseline_mean), ("linear", sc.baseline_linear)):
        errs = []
        for req in requests:
            filled = fill(ts_cls.from_values(req["gapped"]))
            errs.append(filled.values[req["hidden"]] - req["truth"][req["hidden"]])
        e = np.concatenate(errs)
        out[name] = float(np.sqrt(np.mean(e * e)))
    return out


def context_record(saeti, workload, seed, trace, final, setup_digests, setup_clocks, fitted,
                   impute_results, bench) -> dict:
    lines, src_hash = _src_stats()
    lat = [r["seconds"] for r in impute_results]
    tail, pct = tail_latency(lat) if lat else (math.nan, math.nan)
    requests = final["requests"]
    used = [requests[r["pool_index"]] for r in impute_results]
    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "commit": _git_commit(), "src_sha256": src_hash, "src_lines": lines,
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "blas": _blas(), "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": importlib.import_module("scipy").__version__,
        "repeated_window_share": {
            "history": gen.repeated_window_share(final["history"], M),
            "requests": gen.repeated_window_share(requests[0]["truth"], M),
        },
        "rmse_baselines": _baselines(saeti, used) if used else {},
        "clocks": {
            "seconds": "CPU seconds at the probe's reference speed (plain CPU when traced)",
            "cpu_seconds": "process CPU time, waited-for children included",
            "speed_scale": "reference kernel time over its mean time during the region",
            "kernels": KERNEL,
        },
        **{f"{phase}_{clock}": [c[clock] for c in timings]
           for phase, timings in (("setup", setup_clocks), ("train", fitted),
                                  ("impute", impute_results))
           for clock in ("seconds", "cpu_seconds", "speed_scale", "wall_seconds")},
        "impute_requests": len(lat),
        "impute_tail_percentile": pct,
        "impute_tail_s": tail,
        "bundle_sha256": fitted[-1]["sha256"] if fitted else None,
        "first_imputed_sha256": impute_results[0]["sha256"] if impute_results else None,
        "setup_digests": setup_digests,
        "failed_share": len(bench.failures) / max(bench.attempted, 1),
        "failures": bench.failures,
        "history_cells_not_plain_numbers": sorted(bench.history_cells_not_plain),
    }


def write_spans(recorder: Recorder, workload: str, seed: int) -> None:
    path = WORK / "spans" / f"{workload}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(recorder.to_json()))


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="request time to measure (at least one request runs)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "saeti" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'saeti'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    saeti = importlib.import_module("saeti")
    for module in ("cli", "core_ts", "scenarios", "training"):
        importlib.import_module(f"saeti.{module}")
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result, record = run(saeti, args.workload, args.seed, args.seconds,
                             bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    records = WORK / "records"
    records.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (records / name).write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps(record, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
