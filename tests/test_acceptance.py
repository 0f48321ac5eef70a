"""Acceptance gate: one test per release criterion, pinned probes and tolerances.

Each test computes its measurements first, then records a single
"criterion N (...): PASS/FAIL" verdict line (echoed in the terminal summary)
before asserting. Probes are fixed — data seeds, schedules, and tolerances are
pinned to configurations verified against independent oracles.

Criterion 5 asserts the vanishing-error property exactly as stated and is
expected to FAIL: under the stated decay condition the error norm contracts
by at most a constant factor after its peak, not to below 1% of it.

The analysis. Criterion 5's probe is full-batch gradient descent without
momentum, with lr_t = lr_1 * c^(t-1) and weight decay lam. Exact tracking
steps nabla_t = (1 - lr_t*lam) nabla_{t-1} - lr_t * (H_t nabla_{t-1} + g_t),
and the approximation drops the H_t term, so their difference obeys

    e_t = (1 - lr_t*lam) e_{t-1} - lr_t * H_t nabla_{t-1}.

The forcing term lr_t * H_t nabla_{t-1} is what builds the error up, and it
shrinks with lr_t. After the peak at step s the homogeneous part only
rescales e by Prod_{t>s} (1 - lr_t*lam), so the error contracts by at most
that product (unless the forcing turns against e, which the corrected test
below checks on the probe). With x_t = lr_t*lam and log(1 - x) >= -x/(1 - x),

    Prod_{t>s} (1 - x_t) >= exp(-sum_{t>s} x_t / (1 - x_{s+1}))
                         >= exp(-lr_1*lam * c^s / ((1 - c)(1 - lr_1*lam*c)))
                         >= exp(-lr_1*lam / (1 - c))       for s >= 1,

because the decay condition c < 1 - lr_1*lam gives c <= 1 - lr_1*lam*c.
On the probe (lr_1 = 0.5, lam = 0.01, c = 0.99) the floor is e^-0.5 = 0.607:
the final error stays above 60% of its peak, and 1% is out of reach. The
decay condition keeps every step contracting; it does not make the sum of
the contraction rates diverge, which vanishing would need.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

import datatrace as dt
from datatrace import cli
from datatrace.models import per_sample_loss
from datatrace.reports import oracle_results_to_report

from conftest import ACCEPTANCE_VERDICTS


def _verdict(number, name, ok, detail):
    line = f"criterion {number:2d} ({name}): {'PASS' if ok else 'FAIL'} — {detail}"
    ACCEPTANCE_VERDICTS.append(line)
    print(line)
    assert ok, line


def test_criterion_01_per_sample_gradient_correctness():
    t0 = time.time()
    kinds = [
        (dt.ModelSpec("logistic_regression", (3, 2)), 3),
        (dt.ModelSpec("mlp", (3, 4, 2)), 3),
    ]
    rng = np.random.default_rng(0)
    worst = 0.0
    for spec, dim in kinds:
        base = dt.as_flat(dt.init_params(spec, 0))
        P = base.size
        for _ in range(100):
            w = base + 0.1 * rng.standard_normal(P)
            x = rng.standard_normal(dim)
            y = int(rng.integers(0, 2))
            g = dt.per_sample_gradient(spec, w, x, y)
            fd = np.empty(P)
            for k in range(P):
                h = 1e-6 * max(1.0, abs(w[k]))
                wp, wm = w.copy(), w.copy()
                wp[k] += h
                wm[k] -= h
                fd[k] = (
                    per_sample_loss(spec, wp, x, y)
                    - per_sample_loss(spec, wm, x, y)
                ) / (2 * h)
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-300)
            worst = max(worst, rel)
    elapsed = time.time() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    _verdict(1, "per-sample gradients vs central differences", ok,
             f"max rel err {worst:.3e} over 200 draws, {elapsed:.1f}s")


def test_criterion_02_hvp_correctness():
    t0 = time.time()
    specs = [
        (dt.ModelSpec("logistic_regression", (5, 2)), 5),
        (dt.ModelSpec("mlp", (8, 12, 4)), 8),  # 160 parameters
    ]
    worst_exact, worst_fd = 0.0, 0.0
    for spec, dim in specs:
        train = dt.synth_gaussian(spec.layer_widths[-1], 6, dim, 3.0, 1)
        base = dt.as_flat(dt.init_params(spec, 0))
        P = base.size
        assert P <= 200
        rng = np.random.default_rng(3)
        w = base + 0.1 * rng.standard_normal(P)
        weights = np.full(len(train), 1.0 / len(train))
        # independent oracle: dense Hessian from central differences of the
        # batch gradient, column by column
        h = 1e-5
        H_fd = np.empty((P, P))
        for k in range(P):
            wp, wm = w.copy(), w.copy()
            wp[k] += h
            wm[k] -= h
            H_fd[:, k] = (
                dt.batch_gradient(spec, wp, train, weights)
                - dt.batch_gradient(spec, wm, train, weights)
            ) / (2 * h)
        for _ in range(5):
            v = rng.standard_normal(P)
            ref = H_fd @ v
            hv = dt.hessian_vector_product(spec, w, train, weights, v, mode="exact")
            hv_fd = dt.hessian_vector_product(
                spec, w, train, weights, v, mode="finite_difference"
            )
            denom = max(np.linalg.norm(ref), 1e-300)
            worst_exact = max(worst_exact, np.linalg.norm(hv - ref) / denom)
            worst_fd = max(worst_fd, np.linalg.norm(hv_fd - ref) / denom)
    elapsed = time.time() - t0
    ok = worst_exact < 1e-8 and worst_fd < 1e-4 and elapsed < 30.0
    _verdict(2, "Hessian-vector products vs dense oracle", ok,
             f"exact rel {worst_exact:.3e} (<1e-8), fd rel {worst_fd:.3e} (<1e-4), "
             f"{elapsed:.1f}s")


def _convex_probe(lr=0.1, schedule=None, epochs=500, test_seed=101):
    spec = dt.ModelSpec("logistic_regression", (5, 2))
    train = dt.synth_gaussian(2, 25, 5, 3.0, 1)
    test = dt.synth_gaussian(2, 25, 5, 3.0, test_seed, "test")
    cfg = dt.TrainingConfig(epochs=epochs, batch_size=0, initial_lr=lr,
                            schedule=schedule, weight_decay=0.01, seed=7)
    rec = dt.train(spec, train, cfg)
    return spec, train, test, cfg, rec


def test_criterion_03_exact_tracking_matches_retraining_oracle():
    t0 = time.time()
    spec, train, test, cfg, rec = _convex_probe()
    idx = list(range(50))
    rep = dt.contribution(rec, dt.track_exact(rec, train, idx), test)
    results = [
        dt.finite_difference_hypergradient(spec, train, cfg, i, test, nominal=rec)
        for i in idx
    ]
    orc = oracle_results_to_report(results, 50)
    worst = max(
        abs(rep.values[i] - orc.values[i]) / max(abs(orc.values[i]), 1e-300)
        for i in idx
    )
    elapsed = time.time() - t0
    ok = worst < 1e-3 and elapsed < 120.0
    _verdict(3, "exact hypergradients vs retraining oracle", ok,
             f"max rel err {worst:.3e} over 50 samples (<1e-3), {elapsed:.1f}s")


def test_criterion_04_error_bound_holds_at_every_recorded_step():
    t0 = time.time()
    spec, train, test, cfg, rec = _convex_probe()
    trace = dt.error_trace(rec, train, [0], record_stride=1)[0]
    margin = float(np.max(trace.error_norms - trace.bounds))
    elapsed = time.time() - t0
    ok = bool(np.all(trace.error_norms <= trace.bounds)) and elapsed < 60.0
    _verdict(4, "analytic error bound holds along trajectory", ok,
             f"max(error - bound) = {margin:.3e} over {trace.steps.size} steps, "
             f"{elapsed:.1f}s")


def test_criterion_05_error_vanishes_under_exponential_decay():
    # Stated property: with decay factor c = 0.99 < 1 - lr_1 * weight_decay,
    # the exact-vs-approx error norm at T = 2000 drops below 1% of its peak.
    # Expected to FAIL: the post-peak contraction product Prod(1 - lr_t * wd)
    # is bounded below by exp(-lr_1 * wd / (1 - c)) = e^-0.5 here, so the
    # final error cannot fall two orders of magnitude below the peak.
    t0 = time.time()
    lr1, lam, c = 0.5, 0.01, 0.99
    assert c < 1.0 - lr1 * lam
    spec, train, test, cfg, rec = _convex_probe(
        lr=lr1, schedule=dt.ExponentialSchedule(c), epochs=2000
    )
    trace = dt.error_trace(rec, train, [0], record_stride=10)[0]
    peak = float(np.max(trace.error_norms))
    final = float(trace.error_norms[-1])
    ratio = final / peak
    elapsed = time.time() - t0
    ok = ratio < 0.01 and elapsed < 60.0
    _verdict(5, "error norm vanishes under exponential decay", ok,
             f"final/peak = {ratio:.3f} (required < 0.01), {elapsed:.1f}s")


def test_criterion_05_probe_error_keeps_the_contraction_floor():
    # The corrected statement of criterion 5 (module docstring), on its probe:
    # final/peak >= exp(-lr_1 * lam / (1 - c)).
    lr1, lam, c = 0.5, 0.01, 0.99
    spec, train, test, cfg, rec = _convex_probe(
        lr=lr1, schedule=dt.ExponentialSchedule(c), epochs=2000
    )
    trace = dt.error_trace(rec, train, [0], record_stride=10)[0]
    ratio = float(trace.error_norms[-1]) / float(np.max(trace.error_norms))
    floor = float(np.exp(-lr1 * lam / (1.0 - c)))
    assert ratio >= floor, (ratio, floor)


def test_criterion_06_approximation_quality():
    t0 = time.time()
    # convex probe with decaying steps keeps the recurrence near first order
    spec, train, test, cfg, rec = _convex_probe(
        lr=0.01, schedule=dt.ExponentialSchedule(0.98)
    )
    idx = list(range(50))
    exact = dt.contribution(rec, dt.track_exact(rec, train, idx), test)
    approx = dt.contribution(rec, dt.track_approx(rec, train, idx), test)
    convex_cmp = dt.compare_methods(exact, approx)

    mlp = dt.ModelSpec("mlp", (5, 8, 2))
    mtrain = dt.synth_gaussian(2, 100, 5, 3.0, 2)
    mtest = dt.synth_gaussian(2, 50, 5, 3.0, 102, "test")
    mcfg = dt.TrainingConfig(epochs=40, batch_size=16, initial_lr=0.0005,
                             schedule=dt.ExponentialSchedule(0.99), momentum=0.9,
                             weight_decay=0.01, seed=7)
    mrec = dt.train(mlp, mtrain, mcfg)
    midx = list(range(200))
    mexact = dt.contribution(mrec, dt.track_exact(mrec, mtrain, midx), mtest)
    mapprox = dt.contribution(mrec, dt.track_approx(mrec, mtrain, midx), mtest)
    mlp_cmp = dt.compare_methods(mexact, mapprox)

    elapsed = time.time() - t0
    ok = (
        convex_cmp.sign_error_rate <= 0.05 and convex_cmp.spearman_rho >= 0.95
        and mlp_cmp.sign_error_rate <= 0.05 and mlp_cmp.spearman_rho >= 0.95
        and elapsed < 300.0
    )
    _verdict(6, "fast approximation matches exact mode", ok,
             f"convex sign {convex_cmp.sign_error_rate:.3f}/rho "
             f"{convex_cmp.spearman_rho:.4f}, mlp sign {mlp_cmp.sign_error_rate:.3f}"
             f"/rho {mlp_cmp.spearman_rho:.4f}, {elapsed:.1f}s")


def _ridge_sign_probe():
    spec = dt.ModelSpec("logistic_regression", (1, 1), loss="squared_error")
    rng = np.random.default_rng(0)
    n = 20
    x = np.tile([1.0, -1.0], n // 2).reshape(n, 1)
    y = (0.7 * x[:, 0] + 0.3 + 0.2 * rng.standard_normal(n)).reshape(n, 1)
    train = dt.LabeledDataset(x, y, 1, "train")
    xt = np.tile([1.0, -1.0], 5).reshape(10, 1)
    yt = (0.7 * xt[:, 0] + 0.3 + 0.2 * rng.standard_normal(10)).reshape(10, 1)
    test = dt.LabeledDataset(xt, yt, 1, "test")
    cfg = dt.TrainingConfig(epochs=2000, batch_size=0, initial_lr=0.1,
                            weight_decay=0.01, seed=7)
    rec = dt.train(spec, train, cfg)
    return spec, train, test, rec


def test_criterion_07_influence_baseline_consistency():
    t0 = time.time()
    # conjugate gradient vs dense solve on a 51-parameter model
    spec = dt.ModelSpec("mlp", (4, 6, 3))
    train = dt.synth_gaussian(3, 10, 4, 3.0, 1)
    cfg = dt.TrainingConfig(epochs=50, batch_size=0, initial_lr=0.05,
                            weight_decay=0.01, seed=1)
    rec = dt.train(spec, train, cfg)
    assert rec.final_params.size <= 200
    v = np.random.default_rng(2).standard_normal(rec.final_params.size)
    xd, _ = dt.inverse_hvp(spec, rec.final_params, train, v,
                           dt.InverseHvpConfig(method="dense"), weight_decay=0.01)
    xc, _ = dt.inverse_hvp(spec, rec.final_params, train, v,
                           dt.InverseHvpConfig(method="conjugate_gradient"),
                           weight_decay=0.01)
    cg_rel = float(np.linalg.norm(xc - xd) / np.linalg.norm(xd))

    # stochastic Neumann series, depth 500 / repeats 4, on a probe with
    # unit-norm features so the per-sample Hessian spectra are uniform
    base = dt.synth_gaussian(2, 25, 5, 3.0, 1)
    Xn = base.inputs / np.linalg.norm(base.inputs, axis=1, keepdims=True)
    ntrain = dt.LabeledDataset(Xn, base.labels, 2, "train")
    nspec = dt.ModelSpec("logistic_regression", (5, 2))
    ncfg = dt.TrainingConfig(epochs=200, batch_size=0, initial_lr=0.1,
                             weight_decay=0.01, seed=7)
    nrec = dt.train(nspec, ntrain, ncfg)
    nv = np.random.default_rng(1).standard_normal(nrec.final_params.size)
    nd, _ = dt.inverse_hvp(nspec, nrec.final_params, ntrain, nv,
                           dt.InverseHvpConfig(method="dense", damping=0.1),
                           weight_decay=0.01)
    nn, _ = dt.inverse_hvp(
        nspec, nrec.final_params, ntrain, nv,
        dt.InverseHvpConfig(method="neumann", damping=0.1, neumann_depth=500,
                            neumann_repeats=4, seed=5),
        weight_decay=0.01,
    )
    neumann_rel = float(np.linalg.norm(nn - nd) / np.linalg.norm(nd))

    # sign agreement with exact tracking on the 1-D ridge probe
    rspec, rtrain, rtest, rrec = _ridge_sign_probe()
    exact = dt.contribution(
        rrec, dt.track_exact(rrec, rtrain, list(range(len(rtrain)))), rtest
    )
    inf = dt.influence(rspec, rrec.final_params, rtrain, rtest,
                       list(range(len(rtrain))), weight_decay=0.01)
    signs_agree = all(
        np.sign(exact.values[i]) == np.sign(inf.values[i])
        for i in range(len(rtrain))
    )
    elapsed = time.time() - t0
    ok = cg_rel < 1e-6 and neumann_rel < 5e-2 and signs_agree and elapsed < 120.0
    _verdict(7, "influence-baseline solvers and sign agreement", ok,
             f"cg rel {cg_rel:.3e} (<1e-6), neumann rel {neumann_rel:.3e} (<5e-2), "
             f"ridge signs agree: {signs_agree}, {elapsed:.1f}s")


def test_criterion_08_trajectory_methods_beat_influence_ranking():
    t0 = time.time()
    # long mini-batch trajectory with momentum and slow exponential decay:
    # the final-parameter influence baseline ignores the trajectory and
    # should rank strictly worse against exact tracking than the fast
    # approximation does
    spec = dt.ModelSpec("logistic_regression", (5, 2))
    train = dt.synth_gaussian(2, 25, 5, 3.0, 1)
    test = dt.synth_gaussian(2, 25, 5, 3.0, 101, "test")
    cfg = dt.TrainingConfig(epochs=300, batch_size=8, initial_lr=0.0005,
                            schedule=dt.ExponentialSchedule(0.999), momentum=0.9,
                            weight_decay=0.01, seed=7)
    rec = dt.train(spec, train, cfg)
    idx = list(range(50))
    exact = dt.contribution(rec, dt.track_exact(rec, train, idx), test)
    approx = dt.contribution(rec, dt.track_approx(rec, train, idx), test)
    inf = dt.influence(spec, rec.final_params, train, test, idx, weight_decay=0.01)
    rho_approx = dt.compare_methods(exact, approx).spearman_rho
    rho_inf = dt.compare_methods(exact, inf).spearman_rho
    elapsed = time.time() - t0
    ok = rho_approx > rho_inf and elapsed < 300.0
    _verdict(8, "approximation outranks influence baseline", ok,
             f"approx rho {rho_approx:.4f} vs influence rho {rho_inf:.4f}, "
             f"{elapsed:.1f}s")


def test_criterion_09_noisy_label_cleaning():
    t0 = time.time()
    spec = dt.ModelSpec("logistic_regression", (5, 2))
    outcomes = []
    for seed in (1, 2, 3):
        clean = dt.synth_gaussian(2, 50, 5, 3.0, seed)
        test = dt.synth_gaussian(2, 100, 5, 3.0, seed + 100, "test")
        noisy, noise = dt.inject_noise(clean, 0.3, seed)
        cfg = dt.TrainingConfig(epochs=300, batch_size=0, initial_lr=0.05,
                                weight_decay=0.01, seed=7)
        rec = dt.train(spec, noisy, cfg)
        rep = dt.contribution(
            rec, dt.track_approx(rec, noisy, list(range(100))), test
        )
        retained = dt.clean_dataset(rep, 0.3)
        discarded = set(range(100)) - {int(i) for i in retained}
        flipped = {int(i) for i in noise.flipped_indices}
        recovery = len(flipped & discarded) / len(flipped)
        acc_before = dt.accuracy(spec, rec.final_params, test)
        rec2 = dt.train(spec, noisy.subset(retained), cfg)
        acc_after = dt.accuracy(spec, rec2.final_params, test)
        outcomes.append((recovery, acc_before, acc_after))
    elapsed = time.time() - t0
    ok = (
        all(r >= 0.8 and a1 > a0 for r, a0, a1 in outcomes) and elapsed < 300.0
    )
    detail = ", ".join(
        f"seed gives recovery {r:.2f} acc {a0:.3f}->{a1:.3f}" for r, a0, a1 in outcomes
    )
    _verdict(9, "noisy-label cleaning recovers flips and improves accuracy", ok,
             f"{detail}, {elapsed:.1f}s")


def test_criterion_10_clustering_and_comparison_plumbing():
    t0 = time.time()
    # perfectly separated sign-vector fixture must score Jaccard 1.0
    n_per, probes = 10, 6
    rows, flips = [], []
    for _ in range(2):
        for k in range(n_per):
            flipped = k < 3
            rows.append(-np.ones(probes) if flipped else np.ones(probes))
            flips.append(flipped)
    labels = [0] * n_per + [1] * n_per
    ev = dt.sign_cluster(np.array(rows), labels, np.array(flips), seed=0)
    jaccard_ok = ev.mean_correct == 1.0 and ev.mean_flipped == 1.0

    # textbook rank arithmetic: one adjacent transposition in 5 ranks
    def _rep(vals, method):
        return dt.ContributionReport(method=method, values=dict(enumerate(vals)),
                                     pair_values=None)

    ref = _rep([1.0, 2.0, 3.0, 4.0, 5.0], "exact")
    swapped = dt.compare_methods(ref, _rep([1.0, 3.0, 2.0, 4.0, 5.0], "approx"))
    negated = dt.compare_methods(ref, _rep([-1.0, -2.0, -3.0, -4.0, -5.0], "approx"))
    textbook_ok = (
        abs(swapped.spearman_rho - 0.9) < 1e-12
        and swapped.sign_error_rate == 0.0
        and negated.sign_error_rate == 1.0
        and abs(negated.spearman_rho + 1.0) < 1e-12
    )
    elapsed = time.time() - t0
    ok = jaccard_ok and textbook_ok and elapsed < 5.0
    _verdict(10, "clustering and rank-comparison plumbing", ok,
             f"jaccard {ev.mean_correct:.1f}/{ev.mean_flipped:.1f}, swapped rho "
             f"{swapped.spearman_rho:.3f}, negated rho {negated.spearman_rho:.3f}, "
             f"{elapsed:.1f}s")


_DETERMINISM_CONFIG = """
[dataset]
source = synthetic
classes = 2
per_class = 10
dim = 4
separation = 3.0
seed = 1
test_per_class = 8
test_seed = 2

[model]
kind = logistic_regression
layer_widths = 4,2

[training]
epochs = 20
batch_size = 4
initial_lr = 0.05
weight_decay = 0.01
seed = 7

[tracking]
selection = all

[methods]
methods = exact,approx,influence_cg
"""


def test_criterion_11_experiment_outputs_are_deterministic(tmp_path):
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(_DETERMINISM_CONFIG)
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert cli.main(["run", "--config", str(cfg_path), "--output", out1]) == 0
    assert cli.main(["run", "--config", str(cfg_path), "--output", out2]) == 0
    diffs = []
    for root, _, files in os.walk(out1):
        for name in files:
            p1 = os.path.join(root, name)
            p2 = os.path.join(out2, os.path.relpath(p1, out1))
            if Path(p1).read_bytes() != Path(p2).read_bytes():
                diffs.append(os.path.relpath(p1, out1))
    manifest = json.loads(Path(out1, "manifest.json").read_text())
    ok = not diffs and "contrib_exact.csv" in manifest["files"]
    _verdict(11, "repeated runs are byte-identical", ok,
             f"{'no differing files' if not diffs else 'differs: ' + ', '.join(diffs)}")


def test_criterion_12_contribution_distribution_centers_near_zero():
    # balanced two-class probe in a non-interpolating but weakly regularized
    # regime; the mean contribution should be small against the spread
    t0 = time.time()
    spec = dt.ModelSpec("logistic_regression", (5, 2))
    train = dt.synth_gaussian(2, 25, 5, 5.0, 4)
    test = dt.synth_gaussian(2, 50, 5, 5.0, 104, "test")
    cfg = dt.TrainingConfig(epochs=2000, batch_size=0, initial_lr=0.1,
                            weight_decay=1e-3, seed=7)
    rec = dt.train(spec, train, cfg)
    rep = dt.contribution(
        rec, dt.track_exact(rec, train, list(range(len(train)))), test
    )
    vals = np.array(list(rep.values.values()))
    ratio = abs(vals.mean()) / vals.std()
    elapsed = time.time() - t0
    ok = ratio < 0.1
    _verdict(12, "balanced-probe contributions center near zero", ok,
             f"|mean|/std = {ratio:.3f} (required < 0.1), {elapsed:.1f}s")
