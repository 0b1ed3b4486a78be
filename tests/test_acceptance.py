"""Acceptance gate: one test per criterion A1..A8.

Every test funnels its verdict through ``_record``, which appends a
"A# PASS/FAIL: detail" line to RESULTS; the hook in conftest echoes the
collected lines after the run, so the per-criterion outcome is visible
even when pytest captures stdout. Oracles here are written from the
definitions, independently of the library internals they check.
"""

import json
import math
import time
import warnings

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from conftest import three_regime_series, two_regime_series
from saeti.autograd import (
    GRUParams,
    Tensor,
    concat,
    conv1d,
    cross_entropy,
    glorot_uniform,
    gru_forward,
    leaky_relu,
    masked_mse,
    maxpool1d,
    relu,
    sigmoid,
    tanh,
    zero_grads,
)
from saeti.cli import main
from saeti.core_ts import TimeSeries, denormalize, minmax_normalize, write_csv
from saeti.models import RecognizerModel, ReconstructorModel
from saeti.mpdist import mpdist, mpdist_profile_matrix
from saeti.pipeline import impute
from saeti.scenarios import (
    baseline_linear,
    baseline_mean,
    gen_blackout,
    gen_mcar,
    rmse,
)
from saeti.snippets import find_all_snippets, find_snippets
from saeti.training import (
    TrainConfig,
    build_recognizer_dataset,
    train_bundle,
    train_recognizer,
)

RESULTS: list[str] = []


def _record(name: str, ok: bool, detail: str) -> None:
    line = f"{name} {'PASS' if ok else 'FAIL'}: {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


# -- A1: optimized distance equals a brute-force oracle ----------------------


def _znorm_rows(w: np.ndarray) -> np.ndarray:
    mu = w.mean(axis=1, keepdims=True)
    sd = w.std(axis=1, keepdims=True)
    out = np.zeros_like(w)
    np.divide(w - mu, sd, out=out, where=sd > 0)
    return out


def oracle_mpdist(a: np.ndarray, b: np.ndarray) -> float:
    """Pooled cross-profile k-th smallest, built the obvious way."""
    ell = (a.size + 1) // 2
    wa = _znorm_rows(sliding_window_view(a, ell))
    wb = _znorm_rows(sliding_window_view(b, ell))
    d2 = ((wa[:, None, :] - wb[None, :, :]) ** 2).sum(axis=2)
    dist = np.sqrt(np.maximum(d2, 0.0))
    pooled = np.concatenate([dist.min(axis=1), dist.min(axis=0)])
    k = int(np.ceil(0.05 * (a.size + b.size)))
    k = min(max(k, 1), pooled.size)
    return float(np.sort(pooled)[k - 1])


def test_a1_mpdist_matches_oracle():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(4, 257))
        a = rng.normal(size=m)
        b = rng.normal(size=m)
        if rng.random() < 0.1:
            b = 3.0 * a - 1.0  # affine copies should score near zero
        worst = max(worst, abs(mpdist(a, b) - oracle_mpdist(a, b)))
    elapsed = time.monotonic() - t0
    _record("A1", worst <= 1e-9 and elapsed < 60,
            f"max |mpdist - brute force| {worst:.2e} over 200 random pairs "
            f"(tol 1e-09) in {elapsed:.1f}s")


# -- A2: neighbor sets partition the subsequences, fracs sum to one ----------


def test_a2_snippet_partition():
    rng = np.random.default_rng(202)
    worst_sum_err = 0.0
    for _ in range(50):
        n = int(rng.integers(300, 2001))
        m = int(rng.integers(8, 51))
        k = int(rng.integers(1, min(5, n // m) + 1))
        values = np.cumsum(rng.normal(size=n)) + 0.1 * rng.normal(size=n)
        with warnings.catch_warnings():
            # k=1 draws trip the degenerate-classifier warning by design
            warnings.simplefilter("ignore", UserWarning)
            sset = find_snippets(values, m, k)
        profile = mpdist_profile_matrix(values, m)
        n_retained = profile.subseq_starts.shape[0]
        ranked = np.flatnonzero(sset.ranks >= 0) + 1
        assert np.array_equal(ranked, profile.subseq_starts), "ranks miss some subsequences"
        assert ((sset.ranks >= -1) & (sset.ranks < k)).all(), "rank out of range"
        for r, item in enumerate(sset.items):
            assert item.frac == np.count_nonzero(sset.ranks == r) / n_retained
        worst_sum_err = max(worst_sum_err,
                            abs(sum(it.frac for it in sset.items) - 1.0))

    ts = two_regime_series(n=2000, block=500)
    sset = find_snippets(ts.values[:, 0], 40, 2)
    fracs = [it.frac for it in sset.items]
    regimes = set()
    for it in sset.items:
        first = (it.index - 1) * 40
        assert first // 500 == (first + 39) // 500, "snippet straddles regimes"
        regimes.add((first // 500) % 2)
    two_ok = all(0.4 <= f <= 0.6 for f in fracs) and regimes == {0, 1}
    _record("A2", worst_sum_err <= 1e-12 and two_ok,
            f"50 random series partition cleanly, max |sum(frac) - 1| "
            f"{worst_sum_err:.2e}; two-pattern fracs "
            f"{fracs[0]:.3f}/{fracs[1]:.3f}, one snippet per regime")


# -- A3: finite differences confirm every gradient ---------------------------


def _grad_err(build_loss, tensors) -> float:
    """Worst relative error between autograd and central differences."""
    zero_grads(tensors)
    build_loss().backward()
    worst = 0.0
    for t in tensors:
        grad = t.grad.reshape(-1)
        for i in range(t.data.size):
            index = np.unravel_index(i, t.data.shape)  # in place, whatever the memory order
            old = t.data[index]
            h = 1e-5 * max(1.0, abs(old))
            t.data[index] = old + h
            fp = float(build_loss().data)
            t.data[index] = old - h
            fm = float(build_loss().data)
            t.data[index] = old
            num = (fp - fm) / (2 * h)
            err = abs(num - grad[i]) / max(abs(num) + abs(grad[i]), 1e-6)
            worst = max(worst, err)
    return worst


def _sampled_grad_err(build_loss, named, rng, per_tensor: int = 3) -> float:
    """Same check, but on a seeded sample of coordinates per parameter.

    Uses a smaller step than the primitive checks: perturbing a bias
    shifts a whole channel, and a wide step can straddle an activation
    kink somewhere in it, corrupting the difference quotient.
    """
    tensors = [t for _, t in named]
    zero_grads(tensors)
    build_loss().backward()
    worst = 0.0
    for _, t in named:
        grad = t.grad.reshape(-1)
        picks = rng.choice(t.data.size, size=min(per_tensor, t.data.size),
                           replace=False)
        for i in picks:
            index = np.unravel_index(i, t.data.shape)  # in place, whatever the memory order
            old = t.data[index]
            h = 1e-6 * max(1.0, abs(old))
            t.data[index] = old + h
            fp = float(build_loss().data)
            t.data[index] = old - h
            fm = float(build_loss().data)
            t.data[index] = old
            num = (fp - fm) / (2 * h)
            err = abs(num - grad[i]) / max(abs(num) + abs(grad[i]), 1e-6)
            worst = max(worst, err)
    return worst


def test_a3_gradient_suite():
    rng = np.random.default_rng(303)
    t0 = time.monotonic()

    def t(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    def away(*shape):  # keep clear of relu/pool kinks
        data = rng.uniform(0.2, 1.5, size=shape) * rng.choice([-1.0, 1.0], shape)
        return Tensor(data, requires_grad=True)

    checks = []
    x, y = t(3, 4), t(3, 4)
    checks.append(("arithmetic", 1e-4, [x, y],
                   lambda: ((x * y - x + 2.0) ** 3).sum()))
    a, b = t(3, 4), t(4, 2)
    checks.append(("matmul", 1e-4, [a, b], lambda: (a @ b).sum()))
    c = t(2, 6)
    checks.append(("shape ops", 1e-4, [c],
                   lambda: (c.reshape(3, 4).transpose(1, 0)[1:3] * 2.0).sum()))
    e = Tensor(rng.uniform(0.5, 2.0, size=(3, 3)), requires_grad=True)
    checks.append(("exp/log/pow", 1e-4, [e],
                   lambda: (e.log() + (e * 0.3).exp() + e ** 1.5).sum()))
    r = away(4, 5)
    checks.append(("relu", 1e-4, [r], lambda: relu(r).sum()))
    lk = away(4, 5)
    checks.append(("leaky_relu", 1e-4, [lk], lambda: leaky_relu(lk).sum()))
    s = t(4, 5)
    checks.append(("sigmoid", 1e-4, [s], lambda: (sigmoid(s) ** 2).sum()))
    th = t(4, 5)
    checks.append(("tanh", 1e-4, [th], lambda: (tanh(th) * 3.0).sum()))
    c1, c2 = t(2, 3), t(2, 3)
    checks.append(("concat", 1e-4, [c1, c2],
                   lambda: (concat([c1, c2], axis=1) ** 2).sum()))
    dx, dw, db = t(4, 6), t(6, 3), t(3)
    checks.append(("dense", 1e-4, [dx, dw, db],
                   lambda: ((dx @ dw + db) ** 2).sum()))
    vx, vw, vb = t(2, 3, 7), t(4, 3, 5), t(4)
    checks.append(("conv1d", 1e-4, [vx, vw, vb],
                   lambda: (conv1d(vx, vw, vb) ** 2).sum()))
    perm = rng.permutation(2 * 2 * 8).astype(float).reshape(2, 2, 8)
    px = Tensor(perm * 0.1, requires_grad=True)
    checks.append(("maxpool1d", 1e-4, [px],
                   lambda: (maxpool1d(px) ** 2).sum()))
    sm = t(3, 5)
    tgt = np.array([0, 3, 1])
    checks.append(("cross_entropy", 1e-3, [sm],
                   lambda: cross_entropy(sm, tgt)))
    mp = t(3, 4)
    mt = rng.normal(size=(3, 4))
    mw = (rng.random((3, 4)) < 0.6).astype(float)
    checks.append(("masked_mse", 1e-4, [mp],
                   lambda: masked_mse(mp, mt, mw)))
    gru = GRUParams(3, 4, rng)
    seq = [Tensor(rng.normal(size=(2, 3))) for _ in range(5)]
    gru_tensors = [p for _, p in gru.tensors()]

    def steps(*xs):  # time-major (T, 2, 3) from (2, 3) steps
        return concat([x.reshape(1, 2, 3) for x in xs], axis=0)
    checks.append(("gru", 1e-3, gru_tensors,
                   lambda: (gru_forward(steps(*seq), gru)[-1] ** 2).sum()))
    gi = t(2, 3)
    checks.append(("gru input", 1e-3, [gi],
                   lambda: (gru_forward(steps(seq[0], gi), gru)[-1] ** 2).sum()))

    failures = []
    worst_all = 0.0
    for name, tol, tensors, build in checks:
        err = _grad_err(build, tensors)
        worst_all = max(worst_all, err)
        if err > tol:
            failures.append(f"{name} {err:.2e}")

    recog = RecognizerModel(d=1, m=8, k=2, seed=7)
    rx = rng.random((4, 1, 8))
    ry = rng.integers(0, 2, size=(4, 1))
    recog_err = _sampled_grad_err(
        lambda: cross_entropy(recog.forward(rx), ry) * 0.25,
        recog.parameters(), np.random.default_rng(1))
    recon = ReconstructorModel(d=1, m=8, latent=4, seed=7)
    ax = rng.random((2, 1, 2, 8))
    at = rng.random((2, 1, 8))
    aw = np.ones((2, 1, 8))
    aw[0, 0, :3] = 0.0
    recon_err = _sampled_grad_err(
        lambda: masked_mse(recon.forward(ax), at, aw),
        recon.parameters(), np.random.default_rng(2))
    if recog_err > 1e-3:
        failures.append(f"recognizer {recog_err:.2e}")
    if recon_err > 1e-3:
        failures.append(f"reconstructor {recon_err:.2e}")

    elapsed = time.monotonic() - t0
    _record("A3", not failures and elapsed < 120,
            f"{len(checks)} primitive checks worst rel err {worst_all:.2e}, "
            f"full models {max(recog_err, recon_err):.2e} in {elapsed:.1f}s"
            + (f"; failures: {', '.join(failures)}" if failures else ""))


# -- A4: the classifier separates two regimes --------------------------------


def test_a4_recognizer_sanity():
    t0 = time.monotonic()
    ts = two_regime_series(n=8000, block=800)
    ts_norm, _ = minmax_normalize(ts)
    config = TrainConfig(m=16, k=2, seed=42, max_epochs=100)
    sets = find_all_snippets(ts_norm, config.m, config.k)
    x, y = build_recognizer_dataset(ts_norm, sets, config.m)
    model = RecognizerModel(ts.d, config.m, config.k, seed=config.seed)
    history = train_recognizer(model, x, y, config)
    best = max(h.val_accuracy for h in history)
    elapsed = time.monotonic() - t0
    _record("A4", best >= 0.95 and len(history) <= 100 and elapsed < 300,
            f"validation accuracy {best:.3f} after {len(history)} epochs "
            f"(d=2, n=8000, m=16) in {elapsed:.0f}s")


# -- A5: imputation beats the trivial baselines ------------------------------


def test_a5_end_to_end_quality():
    t0 = time.monotonic()
    truth = three_regime_series(n=10000, d=4)
    ts_norm, norm = minmax_normalize(truth)
    config = TrainConfig(m=32, k=3, seed=42, max_epochs=60)
    sets = find_all_snippets(ts_norm, config.m, config.k)
    bundle, _, _ = train_bundle(ts_norm, norm, sets, config)

    scores = {}
    for name, (gapped, hidden) in {
        "blackout": gen_blackout(truth, 10, rng=11),
        "mcar": gen_mcar(truth, 0.25, rng=12),
    }.items():
        scores[name] = {
            "model": rmse(impute(gapped, bundle), truth, hidden),
            "mean": rmse(baseline_mean(gapped), truth, hidden),
            "linear": rmse(baseline_linear(gapped), truth, hidden),
        }
    elapsed = time.monotonic() - t0
    bo, mc = scores["blackout"], scores["mcar"]
    ok = (bo["model"] < bo["mean"] and bo["model"] < bo["linear"]
          and mc["model"] < mc["mean"] and elapsed < 1200)
    _record("A5", ok,
            f"blackout rmse {bo['model']:.4f} vs mean {bo['mean']:.4f} / "
            f"linear {bo['linear']:.4f}; mcar {mc['model']:.4f} vs mean "
            f"{mc['mean']:.4f} (d=4, n=10000, m=32, K=3) in {elapsed:.0f}s")


# -- A6: imputation invariants ------------------------------------------------


def test_a6_pipeline_invariants(small_series, small_bundle):
    gapped, _ = gen_blackout(small_series, 12, rng=5)
    once = impute(gapped, small_bundle)
    obs = gapped.mask
    preserved = np.array_equal(once.values[obs], gapped.values[obs])
    gap_free = once.n_missing == 0
    twice = impute(once, small_bundle)
    idempotent = np.array_equal(twice.values, once.values)

    ts_norm, norm = minmax_normalize(small_series)
    back = denormalize(ts_norm, norm)
    round_trip = float(np.max(np.abs(back.values - small_series.values)))

    _record("A6", preserved and gap_free and idempotent and round_trip <= 1e-9,
            f"observed points bit-exact: {preserved}; output gap-free: "
            f"{gap_free}; idempotent: {idempotent}; normalize round trip "
            f"max err {round_trip:.2e}")


# -- A7: training and imputation are deterministic ----------------------------


def test_a7_determinism(tmp_path):
    ts = two_regime_series(n=1600, block=400)
    write_csv(ts, tmp_path / "full.csv")
    for tag in ("1", "2"):
        assert main(["train", "--input", str(tmp_path / "full.csv"),
                     "--output", str(tmp_path / f"model{tag}.bundle"),
                     "--m", "16", "--k", "2", "--max-epochs", "3",
                     "--seed", "42"]) == 0
    bundles_equal = ((tmp_path / "model1.bundle").read_bytes()
                     == (tmp_path / "model2.bundle").read_bytes())
    history_equal = ((tmp_path / "model1.bundle.history.csv").read_bytes()
                     == (tmp_path / "model2.bundle.history.csv").read_bytes())

    assert main(["generate-gaps", "--input", str(tmp_path / "full.csv"),
                 "--output", str(tmp_path / "gapped.csv"),
                 "--scenario", "mcar", "--rate", "0.15", "--seed", "9"]) == 0
    for tag in ("1", "2"):
        assert main(["impute", "--input", str(tmp_path / "gapped.csv"),
                     "--bundle", str(tmp_path / "model1.bundle"),
                     "--output", str(tmp_path / f"imputed{tag}.csv")]) == 0
    outputs_equal = ((tmp_path / "imputed1.csv").read_bytes()
                     == (tmp_path / "imputed2.csv").read_bytes())

    _record("A7", bundles_equal and history_equal and outputs_equal,
            f"rerun bundle byte-identical: {bundles_equal}; history: "
            f"{history_equal}; imputed csv: {outputs_equal}")


# -- A8: the error metric matches hand-computed values ------------------------


def _series(cols) -> TimeSeries:
    return TimeSeries.from_values(np.asarray(cols, dtype=float))


def test_a8_rmse_fixtures():
    fixtures = []

    truth = _series([[0.0], [0.0]])
    pred = _series([[3.0], [4.0]])
    flag = np.ones((2, 1), dtype=bool)
    fixtures.append(("truth (0,0) vs (3,4)", rmse(pred, truth, flag),
                     math.sqrt(12.5)))

    same = _series([[1.5], [-2.0], [7.25]])
    flag = np.ones((3, 1), dtype=bool)
    fixtures.append(("identical series", rmse(same, same, flag), 0.0))

    truth = _series([[2.0], [5.0]])
    pred = _series([[2.0], [8.0]])
    flag = np.array([[False], [True]])
    fixtures.append(("single point off by 3", rmse(pred, truth, flag), 3.0))

    truth = _series([[0.0, 0.0], [0.0, 0.0]])
    pred = _series([[1.0, -1.0], [1.0, -1.0]])
    flag = np.ones((2, 2), dtype=bool)
    fixtures.append(("all points off by 1", rmse(pred, truth, flag), 1.0))

    truth = _series([[0.0, 0.0], [0.0, 0.0]])
    pred = _series([[5.0, 0.0], [0.0, 0.0]])
    flag = np.ones((2, 2), dtype=bool)
    fixtures.append(("one of four off by 5", rmse(pred, truth, flag), 2.5))

    truth = _series([[0.0], [0.0], [0.0], [4.0]])
    pred = _series([[1.0], [2.0], [2.0], [9.0]])
    flag = np.array([[True], [True], [True], [False]])
    fixtures.append(("mixed errors, one unflagged",
                     rmse(pred, truth, flag), math.sqrt(3.0)))

    bad = [f"{name}: {got!r} != {want!r}"
           for name, got, want in fixtures if got != want]
    _record("A8", not bad,
            f"{len(fixtures)} hand-computed fixtures match exactly"
            + (f"; mismatches: {'; '.join(bad)}" if bad else ""))
