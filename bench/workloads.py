"""Benchmark workloads, the attribution pipeline they drive, and its output checks.

Each workload turns a seed into experiment configs and synthetic datasets and
hands only those to the library. A pass runs the stages through the public
pipeline the CLI uses (``trainer.train``, ``cli.compute_report`` per method,
``reports.write_report_csv``, ``attribution.write_stats_json``) and times each
stage call. Checks run after the pass, outside the timed region; a stage that
raised or failed a check is an operation failed and its time is dropped.
"""

from __future__ import annotations

import math
import os
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

from datatrace import attribution, cli, models, oracle, reports, trainer
from datatrace.influence import InverseHvpConfig

# Tolerances of acceptance criteria 3 (exact vs retraining oracle) and 7
# (conjugate gradient vs dense solve).
EXACT_ORACLE_RTOL = 1e-3
CG_DENSE_RTOL = 1e-6


@dataclass(frozen=True)
class Stage:
    """One method run over a set of training indices."""

    method: str
    indices: np.ndarray


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object  # seed -> (ExperimentConfig, [(method, "tracked" | index count)])


@dataclass
class Inputs:
    cfg: object
    train: object
    test: object
    stages: list


def _seeded_indices(seed, n, k, tag):
    return np.sort(np.random.default_rng([seed, tag]).choice(n, size=k, replace=False))


def _experiment(seed, dataset, model, training, tracking, damping=0.01):
    return cli.ExperimentConfig(
        dataset=replace(dataset, seed=seed, test_seed=seed + 1),
        model=model,
        training=replace(training, seed=seed),
        tracking=replace(tracking, seed=seed),
        methods=(),
        noise=cli.NoiseConfig(),
        inverse_hvp=InverseHvpConfig(damping=damping, seed=seed),
        oracle_delta=1e-3,
        output_dir="",
    )


def _convex_all(seed):
    cfg = _experiment(
        seed,
        cli.DatasetConfig(classes=2, per_class=200, dim=5, test_per_class=50),
        models.ModelSpec("logistic_regression", (5, 2)),
        trainer.TrainingConfig(epochs=100, batch_size=0, initial_lr=0.1, weight_decay=0.01),
        cli.TrackingConfig(selection="all"),
    )
    return cfg, [("approx", "tracked"), ("exact", "tracked"), ("oracle_fd", 4)]


def _mlp_minibatch(seed):
    # Damping 0.1: with the default 0.01 the final Hessian is indefinite
    # (smallest eigenvalue about -0.03 against a shift of 0.02) and CG
    # raises ConvergenceError.
    cfg = _experiment(
        seed,
        cli.DatasetConfig(classes=10, per_class=50, dim=20, test_per_class=10),
        models.ModelSpec("mlp", (20, 64, 10)),
        trainer.TrainingConfig(
            epochs=20,
            batch_size=16,
            initial_lr=0.01,
            momentum=0.9,
            schedule=trainer.StepDecaySchedule(factor=0.5, epoch=10),
            weight_decay=0.01,
        ),
        cli.TrackingConfig(selection="random_k", k=16),
        damping=0.1,
    )
    return cfg, [("approx", "tracked"), ("exact", "tracked"), ("influence_cg", "tracked")]


def _influence_mlp(seed):
    # Damping 0.1 for the same reason as mlp-minibatch (smallest Hessian
    # eigenvalue down to -0.037 over seeds 0-9).
    cfg = _experiment(
        seed,
        cli.DatasetConfig(classes=2, per_class=100, dim=5, test_per_class=50),
        models.ModelSpec("mlp", (5, 8, 2)),
        trainer.TrainingConfig(epochs=200, batch_size=0, initial_lr=0.1, weight_decay=0.01),
        cli.TrackingConfig(selection="all"),
        damping=0.1,
    )
    return cfg, [
        ("influence_dense", "tracked"),
        ("influence_cg", "tracked"),
        ("influence_neumann", 16),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "convex-all",
            "logistic regression n=400 with every sample tracked: tracker bookkeeping "
            "and 400-vector HVPs on 12 parameters dominate approx and exact",
            _convex_all,
        ),
        Workload(
            "mlp-minibatch",
            "MLP 20-64-10 (P=1994), batch 16, momentum, k=16: the models HVP "
            "contraction dominates, tracker bookkeeping is small",
            _mlp_minibatch,
        ),
        Workload(
            "influence-mlp",
            "MLP 5-8-2 influence baselines, one inverse-HVP solve per sample; "
            "hypergrad is never called",
            _influence_mlp,
        ),
    )
}

# The tag mixed into the seed for each method's own index draw.
_INDEX_TAGS = {"oracle_fd": 0x0AC1, "influence_neumann": 0x4E55}


def setup(workload, seed):
    """Configs, datasets and per-stage indices for one seed (the timed set-up)."""
    cfg, plan = workload.build(seed)
    train, test, _ = cli.build_datasets(cfg)
    tracked = cli.select_tracked(cfg, train)
    stages = []
    for method, which in plan:
        if which == "tracked":
            idx = tracked
        else:
            idx = _seeded_indices(seed, len(train), which, _INDEX_TAGS[method])
        stages.append(Stage(method, np.asarray(idx, dtype=np.int64)))
    return Inputs(cfg, train, test, stages)


def compute(inputs, method, record, indices):
    """One contribution report, through the CLI's own per-method entry point.

    The CLI's oracle_fd path refuses n > 200 (``oracle.MAX_ORACLE_SAMPLES``),
    so the oracle is called directly with ``force=True``; everything else
    goes through ``cli.compute_report``.
    """
    cfg, train, test = inputs.cfg, inputs.train, inputs.test
    if method == "oracle_fd":
        results = [
            oracle.finite_difference_hypergradient(
                cfg.model, train, cfg.training, int(i), test,
                delta=cfg.oracle_delta, nominal=record, force=True,
            )
            for i in indices
        ]
        return reports.oracle_results_to_report(results, len(train), "oracle_fd")
    return cli.compute_report(cfg, method, record, train, test, indices)


@dataclass
class Op:
    """One timed stage call inside a pass."""

    seconds: float | None = None
    error: str | None = None
    csv: bytes | None = None

    @property
    def failed(self):
        return self.error is not None


@dataclass
class Pass:
    ops: dict  # "train" or method -> Op
    reports: dict  # method -> ContributionReport
    run_s: float
    write_s: float

    @property
    def failed(self):
        return any(op.failed for op in self.ops.values())


def _attempt(op, fn, *args):
    """Call fn; on an exception mark op failed and return None."""
    try:
        return fn(*args)
    except Exception:  # a stage that raises is a failed operation
        op.error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        return None


def _write(report, out_dir):
    path = os.path.join(out_dir, f"contrib_{report.method}.csv")
    reports.write_report_csv(report, path)
    stats = attribution.distribution_stats(report)
    attribution.write_stats_json(stats, os.path.join(out_dir, f"stats_{report.method}.json"))
    return path


def run_pass(inputs, out_dir):
    """Train, run every stage and write its reports, timing each call.

    ``run_s`` covers the whole pipeline including the writes; each stage's
    ``seconds`` covers its ``compute`` call alone.
    """
    os.makedirs(out_dir, exist_ok=True)
    ops = {"train": Op(), **{stage.method: Op() for stage in inputs.stages}}
    reps, paths, write_s = {}, {}, 0.0
    t_run = t0 = time.perf_counter()
    record = _attempt(ops["train"], trainer.train, inputs.cfg.model, inputs.train, inputs.cfg.training)
    ops["train"].seconds = time.perf_counter() - t0
    for stage in inputs.stages:
        op = ops[stage.method]
        if record is None:
            op.error = "not run: training failed"
            continue
        t0 = time.perf_counter()
        rep = _attempt(op, compute, inputs, stage.method, record, stage.indices)
        op.seconds = time.perf_counter() - t0
        if rep is None:
            continue
        t0 = time.perf_counter()
        path = _attempt(op, _write, rep, out_dir)
        write_s += time.perf_counter() - t0
        if path is not None:
            reps[stage.method], paths[stage.method] = rep, path
    run_s = time.perf_counter() - t_run
    for method, path in paths.items():
        with open(path, "rb") as fh:
            ops[method].csv = fh.read()
    return Pass(ops, reps, run_s, write_s)


# ---------------------------------------------------------------------------
# Output checks. Each returns None when the check holds, else a reason.


def check_coverage(report, indices):
    """The report covers exactly the requested indices, with finite values."""
    want = sorted(int(i) for i in indices)
    if sorted(report.values) != want:
        return f"{report.method}: covers {len(report.values)} indices, {len(want)} requested"
    bad = [i for i, v in report.values.items() if not math.isfinite(v)]
    if bad:
        return f"{report.method}: non-finite C(i) at {bad[:5]}"
    return None


def _values(report, indices):
    return np.array([report.values[int(i)] for i in indices])


def rel_err_max(candidate, reference, indices):
    """Worst per-index relative error of candidate against reference."""
    c, r = _values(candidate, indices), _values(reference, indices)
    return float(np.max(np.abs(c - r) / np.maximum(np.abs(r), 1e-300)))


def rel_err_norm(candidate, reference, indices):
    """Relative error of the C(i) vector over the given indices."""
    c, r = _values(candidate, indices), _values(reference, indices)
    return float(np.linalg.norm(c - r) / max(np.linalg.norm(r), 1e-300))


def check_pass(inputs, this, reference):
    """Apply every check to one pass; mark failing operations in place.

    ``reference`` is the first pass of the run (None for the first pass
    itself); each later pass must write byte-identical CSVs.
    """
    for stage in inputs.stages:
        op = this.ops[stage.method]
        if op.failed:
            continue
        reason = check_coverage(this.reports[stage.method], stage.indices)
        if reason is None and reference is not None:
            ref = reference.ops[stage.method]
            if ref.csv is not None and ref.csv != op.csv:
                reason = f"{stage.method}: rerun wrote a different CSV"
        if reason is not None:
            op.error = reason
    if _both_ok(this, "exact", "oracle_fd"):
        idx = sorted(this.reports["oracle_fd"].values)
        err = rel_err_max(this.reports["exact"], this.reports["oracle_fd"], idx)
        if not err < EXACT_ORACLE_RTOL:
            this.ops["exact"].error = f"exact vs oracle_fd rel err {err:.3e} >= {EXACT_ORACLE_RTOL}"
    if _both_ok(this, "influence_cg", "influence_dense"):
        idx = sorted(this.reports["influence_cg"].values)
        err = rel_err_norm(this.reports["influence_cg"], this.reports["influence_dense"], idx)
        if not err < CG_DENSE_RTOL:
            this.ops["influence_cg"].error = (
                f"influence_cg vs influence_dense rel err {err:.3e} >= {CG_DENSE_RTOL}"
            )


def _both_ok(this, a, b):
    return all(m in this.reports and not this.ops[m].failed for m in (a, b))


def quality(reps):
    """Deterministic fidelity numbers, with how many indices each compares.

    ``check_pass`` gates the first and third; no tolerance exists for
    ``approx_exact_rho`` or ``neumann_dense_rel_err``, so they are only reported.
    """
    out = {}
    if "exact" in reps and "oracle_fd" in reps:
        idx = sorted(reps["oracle_fd"].values)
        out["exact_oracle_rel_err"] = (rel_err_max(reps["exact"], reps["oracle_fd"], idx), len(idx))
    if "exact" in reps and "approx" in reps:
        cmp_ = attribution.compare_methods(reps["exact"], reps["approx"])
        out["approx_exact_rho"] = (cmp_.spearman_rho, cmp_.n_compared)
    if "influence_dense" in reps:
        dense = reps["influence_dense"]
        for method, name in (("influence_cg", "cg_dense_rel_err"), ("influence_neumann", "neumann_dense_rel_err")):
            if method in reps:
                idx = sorted(reps[method].values)
                out[name] = (rel_err_norm(reps[method], dense, idx), len(idx))
    return out
