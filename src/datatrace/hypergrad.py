"""Per-sample hypergradients carried through the training trajectory.

For each tracked training sample i this module maintains d(params)/d(eps_i)
across every optimization step, in two modes: the exact Hessian-aware
recurrence, and the fast approximation that deletes the Hessian term. Both
ride a trajectory replay through the trainer's step hook, so they see the
identical batch order and learning rates as the original run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data, models, trainer
from .exceptions import ConfigError, DivergenceError


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


def contribution(record, states, test_dataset, per_test=False):
    """Contribution report from final-step hypergradient states.

    C(i) = -(1/N) * grad L_test(w_T)^T nabla_{T,i}; with ``per_test`` the
    per-pair values C(i, j) over individual test samples are included, and
    C(i) is their mean by linearity.
    """
    if len(test_dataset) == 0:
        raise ValueError("empty test subset")
    if not states:
        raise ValueError("no hypergradient states given")
    n = record.n_train
    modes = {s.mode for s in states.values()}
    tag = modes.pop() if len(modes) == 1 else "mixed"
    g_test = models.test_loss_gradient(record.model, record.final_params, test_dataset)
    values = {}
    pair_values = {} if per_test else None
    if per_test:
        G = models.per_sample_gradients(record.model, record.final_params, test_dataset)
    for i, state in states.items():
        values[i] = float(-(1.0 / n) * (g_test @ state.nabla))
        if per_test:
            pairs = -(1.0 / n) * (G @ state.nabla)
            for j, cij in enumerate(pairs):
                pair_values[(i, j)] = float(cij)
    return ContributionReport(
        method=tag,
        values=values,
        pair_values=pair_values,
        test_tag=getattr(test_dataset, "split_tag", "test"),
        n_train=n,
    )


def save_states(states, path):
    """Serialize final hypergradient states to one little-endian blob + index."""
    with open(path, "wb") as blob, open(path + ".idx", "w") as idx:
        offset = 0
        for i in sorted(states):
            s = states[i]
            arr = np.concatenate([s.nabla, s.mom_deriv]).astype("<f8")
            blob.write(arr.tobytes())
            idx.write(f"{i} {s.mode} {s.step} {offset} {s.nabla.size}\n")
            offset += arr.size
    return path


def load_states(path):
    blob = np.fromfile(path, dtype="<f8")
    states = {}
    with open(path + ".idx") as idx:
        for line in idx:
            i, mode, step, offset, size = line.split()
            i, step, offset, size = int(i), int(step), int(offset), int(size)
            states[i] = HypergradState(
                i,
                mode,
                blob[offset : offset + size].copy(),
                blob[offset + size : offset + 2 * size].copy(),
                step,
            )
    return states
