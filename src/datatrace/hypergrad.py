"""Per-sample hypergradients and contributions through the training trajectory.

The contribution of training sample i is C(i) = -(1/n) g_test(w_T)^T nabla_{T,i},
with nabla_{t,i} = d w_t / d eps_i carried by a recurrence over the steps, in
two modes: exact (with the batch Hessian term) and approx (without it). Both
ride trajectory replays through the trainer's step hook, so they see the
identical batch order and learning rates as the original run.

- Reverse mode (``contribution_exact``, ``contribution_approx``): the
  recurrence is linear in its state and C(i) is one linear functional of
  it, so one backward (adjoint) pass gives C(i) for every requested sample
  with one HVP per step, whatever their number (none in approx mode). The
  pass keeps (w, velocity) checkpoints every ceil(sqrt(T)) steps and re-runs
  one segment at a time, so its parameter memory is O(sqrt(T) * P).
- Forward mode (``track_exact``, ``track_approx``, ``error_trace``): carries
  the full vectors nabla_{t,i}, one HVP vector per tracked sample per step,
  for callers that need the vectors themselves (the error bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import data, models, trainer
from .exceptions import ConfigError, DivergenceError, ReplayDivergenceError


@dataclass
class HypergradState:
    """Tracked state for one sample at one step."""

    sample_index: int
    mode: str  # "exact" | "approx"
    nabla: np.ndarray  # d w_t / d eps_i
    mom_deriv: np.ndarray  # d v_t / d eps_i
    step: int


@dataclass
class ApproxErrorTrace:
    """Exact-vs-approx error norms alongside the analytic bound.

    bound_t = L * M_w * lr_1 / (lr_t * weight_decay), with L estimated by
    power iteration on the final empirical-risk Hessian and M_w the measured
    running max of ||nabla_t|| over the exact run.
    """

    sample_index: int
    steps: np.ndarray
    error_norms: np.ndarray
    bounds: np.ndarray
    lipschitz_estimate: float
    nabla_max: float


@dataclass
class ContributionReport:
    """Per-sample contribution values with method provenance."""

    method: str
    values: dict  # train index -> C(i)
    pair_values: dict | None  # (train index, test index) -> C(i, j)
    test_tag: str
    n_train: int


class _Tracker:
    """Step hook carrying d w_t / d eps_i for every tracked sample.

    Per step, with momentum p, weight decay lam and batch size b:
        mom   <- p * mom [+ H_batch nabla] + lam * nabla + (n / b) * g_i [i in batch]
        nabla <- nabla - lr * mom
    The Hessian term is kept when ``use_hessian`` (exact) and dropped
    otherwise (approx).
    """

    def __init__(self, record, tracked, use_hessian):
        self.record = record
        self.use_hessian = use_hessian
        self.index = data.training_indices(tracked, record.n_train)
        P = record.final_params.size
        self.nabla = np.zeros((self.index.size, P))
        self.mom = np.zeros((self.index.size, P))
        self.hvp_calls = 0

    def source(self, ctx):
        """(n / b) * g_i on the rows of tracked samples in the step's batch, zero elsewhere."""
        hit = np.isin(self.index, ctx.batch)
        source = np.zeros_like(self.nabla)
        if hit.any():
            G = ctx.per_sample_gradients(self.index[hit])
            source[hit] = (self.record.n_train / len(ctx.batch)) * G
        return source

    def advance(self, ctx, source):
        cfg = self.record.config
        mom = cfg.momentum * self.mom
        if self.use_hessian:
            mom = mom + ctx.batch_hvp(self.nabla)
            self.hvp_calls += 1
        self.mom = mom + cfg.weight_decay * self.nabla + source
        self.nabla = self.nabla - ctx.lr * self.mom
        if not np.all(np.isfinite(self.nabla)):
            raise DivergenceError(ctx.step, f"hypergradient diverged at step {ctx.step}")

    def __call__(self, ctx):
        self.advance(ctx, self.source(ctx))

    def states(self):
        mode = "exact" if self.use_hessian else "approx"
        step = self.record.steps
        return {
            i: HypergradState(i, mode, self.nabla[r].copy(), self.mom[r].copy(), step)
            for r, i in enumerate(self.index.tolist())
        }


def _track(record, dataset, tracked_indices, use_hessian):
    tracker = _Tracker(record, tracked_indices, use_hessian)
    trainer.replay(record, dataset, step_hook=tracker)
    assert use_hessian or tracker.hvp_calls == 0
    return tracker.states()


def track_exact(record, dataset, tracked_indices):
    """Hessian-aware hypergradients at the final step, per tracked sample."""
    return _track(record, dataset, tracked_indices, use_hessian=True)


def track_approx(record, dataset, tracked_indices):
    """Hessian-free hypergradients (the fast recurrence). No HVPs occur."""
    return _track(record, dataset, tracked_indices, use_hessian=False)


def error_trace(record, dataset, indices, record_stride=1):
    """Step both modes over every index through one replay; error norms against the bound.

    Returns ``{index: ApproxErrorTrace}`` over the distinct indices in
    first-seen order. Both trackers step on the same per-sample gradients,
    computed once per step. M_w is each index's own running max of ||nabla||;
    L does not depend on the index, so its power iteration runs once.
    """
    if record.config.weight_decay <= 0.0:
        raise ConfigError("the approximation-error bound requires weight_decay > 0")
    exact = _Tracker(record, indices, use_hessian=True)
    approx = _Tracker(record, indices, use_hessian=False)
    steps, errors = [], []
    m_w = np.zeros(exact.index.size)

    def step(ctx):
        nonlocal m_w
        source = exact.source(ctx)
        exact.advance(ctx, source)
        approx.advance(ctx, source)
        m_w = np.maximum(m_w, np.linalg.norm(exact.nabla, axis=1))
        if ctx.step % record_stride == 0 or ctx.step == record.steps:
            steps.append(ctx.step)
            # The 1-D norm of each row: norm(axis=1) differs from it in the last ulp.
            errors.append([float(np.linalg.norm(d)) for d in exact.nabla - approx.nabla])

    trainer.replay(record, dataset, step_hook=step)

    n = record.n_train
    w_T = record.final_params
    uniform = np.full(n, 1.0 / n)
    L = models.power_iteration_max_eig(
        lambda v: models.hessian_vector_product(record.model, w_T, dataset, uniform, v),
        dim=w_T.size,
        seed=record.config.seed,
    )
    lam = record.config.weight_decay
    lr1 = record.lrs[0]
    steps, errors, m_w = np.asarray(steps), np.asarray(errors), m_w.tolist()
    return {
        i: ApproxErrorTrace(
            sample_index=i,
            steps=steps,
            error_norms=errors[:, r],
            bounds=L * m_w[r] * lr1 / (record.lrs[steps - 1] * lam),
            lipschitz_estimate=L,
            nabla_max=m_w[r],
        )
        for r, i in enumerate(exact.index.tolist())
    }


def _report(record, test_dataset, index, acc, method, per_test):
    """Report from ``acc = models.test_gradients(...) @ nabla_{T,i}``, one column per index i.

    C = -acc / n: row 0 holds C(i), and with ``per_test`` row 1 + j holds C(i, j).
    """
    C = -acc / record.n_train
    pair_values = None
    if per_test:
        pair_values = {
            (i, j): cij for r, i in enumerate(index) for j, cij in enumerate(C[1:, r].tolist())
        }
    return ContributionReport(
        method=method,
        values=dict(zip(index, C[0].tolist())),
        pair_values=pair_values,
        test_tag=getattr(test_dataset, "split_tag", "test"),
        n_train=record.n_train,
    )


def contribution(record, states, test_dataset, per_test=False):
    """Contribution report from final-step hypergradient states.

    C(i) = -(1/N) * grad L_test(w_T)^T nabla_{T,i}; with ``per_test`` the
    per-pair values C(i, j) over individual test samples are included, and
    C(i) is their mean by linearity. ``contribution_exact`` and
    ``contribution_approx`` give the same report without the states, at a
    cost that does not grow with their number.
    """
    rows = models.test_gradients(record.model, record.final_params, test_dataset, per_test)
    if not states:
        raise ValueError("no hypergradient states given")
    modes = {s.mode for s in states.values()}
    tag = modes.pop() if len(modes) == 1 else "mixed"
    nabla = np.stack([s.nabla for s in states.values()])
    return _report(record, test_dataset, list(states), rows @ nabla.T, tag, per_test)


class _Steps:
    """Step hook keeping the context of every ``stride``-th step, from the first.

    A context holds read-only views of that step's pre-update parameters and
    momentum buffer, which ``train`` never writes again, so keeping it costs
    those two arrays and no copy.
    """

    def __init__(self, stride=1):
        self.stride = stride
        self.kept = []

    def __call__(self, ctx):
        if (ctx.step - 1) % self.stride == 0:
            self.kept.append(ctx)


def _adjoint(record, dataset, indices, rows, use_hessian):
    """``rows @ nabla_{T,i}`` for each distinct index i, by one backward pass.

    Returns ``(index, acc)``: the distinct indices in first-seen order and an
    array of shape ``(len(rows), len(index))``. Walking the steps backwards
    from alpha = rows, beta = 0, with momentum p, weight decay lam and batch
    size b:
        beta~  = beta - lr * alpha
        acc[:, i in batch] += (n / b) * beta~ @ g_i
        alpha <- alpha + lam * beta~ [+ H_batch beta~]
        beta  <- p * beta~
    The Hessian term is kept when ``use_hessian`` (exact) and dropped
    otherwise (approx). One checked replay keeps (w, velocity) every
    S = ceil(sqrt(T)) steps; each segment is then re-run from its checkpoint,
    last first, against the replay's divergence reference (its first loss),
    and must end bit-identical to the next checkpoint.
    """
    index = data.training_indices(indices, record.n_train)
    if index.size == 0:
        raise ValueError("no training indices given")
    cfg = record.config
    n, T = record.n_train, record.steps
    stride = math.isqrt(T - 1) + 1
    position = np.full(n, -1)
    position[index] = np.arange(index.size)

    checkpoints = _Steps(stride)
    replayed = trainer.replay(record, dataset, step_hook=checkpoints)
    ends = [ctx.params for ctx in checkpoints.kept[1:]] + [record.final_params]

    alpha = np.array(rows, dtype=np.float64, ndmin=2)
    beta = np.zeros_like(alpha)
    acc = np.zeros((alpha.shape[0], index.size))
    for start, end in reversed(list(zip(checkpoints.kept, ends))):
        first = start.step - 1
        segment = _Steps()
        try:
            rerun = trainer.train(
                record.model,
                dataset,
                cfg,
                data_weights=record.data_weights,
                step_hook=segment,
                init=start.params,
                velocity=start.velocity,
                batches=record.batches[first : first + stride],
                lrs=record.lrs[first : first + stride],
                reference_loss=replayed.losses[0],
            )
        except DivergenceError as err:
            # The checked replay passed these steps against the same reference.
            raise ReplayDivergenceError(first + err.step) from err
        if not np.array_equal(rerun.final_params, end):
            raise ReplayDivergenceError(first + rerun.steps)
        for ctx in reversed(segment.kept):
            beta = beta - ctx.lr * alpha
            rank = position[ctx.batch]
            hit = rank >= 0
            if hit.any():
                G = ctx.per_sample_gradients(ctx.batch[hit])
                acc[:, rank[hit]] += (n / len(ctx.batch)) * (beta @ G.T)
            alpha = alpha + cfg.weight_decay * beta
            if use_hessian:
                alpha = alpha + ctx.batch_hvp(beta)
            if not np.all(np.isfinite(alpha)):
                step = first + ctx.step
                raise DivergenceError(step, f"adjoint diverged at step {step}")
            beta = cfg.momentum * beta
    return index, acc


def _contribution(record, dataset, indices, test_dataset, per_test, use_hessian):
    rows = models.test_gradients(record.model, record.final_params, test_dataset, per_test)
    index, acc = _adjoint(record, dataset, indices, rows, use_hessian)
    method = "exact" if use_hessian else "approx"
    return _report(record, test_dataset, index.tolist(), acc, method, per_test)


def contribution_exact(record, dataset, indices, test_dataset, per_test=False):
    """C(i) of the Hessian-aware recurrence for each index, by one backward pass.

    Equals ``contribution(record, track_exact(record, dataset, indices),
    test_dataset, per_test)`` to rounding, at a cost of one HVP per step
    whatever the number of indices; ``per_test`` adds C(i, j) per test sample.
    """
    return _contribution(record, dataset, indices, test_dataset, per_test, use_hessian=True)


def contribution_approx(record, dataset, indices, test_dataset, per_test=False):
    """C(i) of the Hessian-free recurrence for each index; no HVPs occur.

    Equals ``contribution(record, track_approx(record, dataset, indices),
    test_dataset, per_test)`` to rounding.
    """
    return _contribution(record, dataset, indices, test_dataset, per_test, use_hessian=False)
