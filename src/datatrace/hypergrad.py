"""Per-sample hypergradients and contributions through the training trajectory.

The contribution of training sample i is C(i) = -(1/n) g_test(w_T)^T nabla_{T,i},
with nabla_{t,i} = d w_t / d eps_i carried by a recurrence over the steps, in
two modes: exact (with the batch Hessian term) and approx (without it). The
steps come from re-runs of the record's intervals: the snapshots, with the
momentum buffer beside each (in memory and on disk alike), are the
checkpoints. ``train`` places one at every epoch's end and, in an epoch
longer than 4 * ceil(sqrt(T)) steps, every ceil(sqrt(T)) steps. The
intervals between them are re-run in lockstep groups with the original
batches and learning rates, one paired model evaluation per step, which is
the only evaluation of the model a walked step makes.

- Exact reverse mode (``contribution_exact``): the recurrence is linear in
  its state and C(i) is one linear functional of it, so one backward
  (adjoint) pass over ``_walk`` gives C(i) for every requested sample with
  one HVP per step, whatever their number. Its re-run groups keep at most
  4 * ceil(sqrt(T)) steps' states: the batch weights, hidden outputs,
  output delta, softmax and W_1 .. W_{L-1} of a step (``models.keep``),
  never its parameters or rows. Each HVP is of the loss under the weights
  the step trained with (1/b + n * eps_i / b), and it and each C(i) term (a
  directional derivative) read the kept state.
- Approx (``contribution_approx``): forward and closed-form, with no
  backward walk. Without the Hessian the adjoint stays a scalar multiple of
  the test rows, so C(i) is a sum over the steps whose batch holds i of a
  step weight c_t (one O(T) scalar pass) times rows . g_i(w_t). The sum does
  not depend on step order, so intervals of equal length and batch-size
  pattern re-run together wherever they lie, and each term is read from its
  step's own linearization as the step is made; nothing is kept.
- Forward mode (``track_exact``, ``track_approx``, ``error_trace``): carries
  the full vectors nabla_{t,i} over ``_walk``, one HVP vector per tracked
  sample per step, for callers that need the vectors themselves (the error
  bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import data, models, reports, trainer
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
    power iteration on the final Hessian of the run's empirical risk (sample
    weights 1/n + eps_i) and M_w the measured running max of ||nabla_t||
    over the exact run.
    """

    sample_index: int
    steps: np.ndarray
    error_norms: np.ndarray
    bounds: np.ndarray
    lipschitz_estimate: float
    nabla_max: float


class _Tracker:
    """d w_t / d eps_i for every tracked sample, advanced one walked step at a time.

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
        self.position = _positions(self.index, record.n_train)
        P = record.final_params.size
        self.nabla = np.zeros((self.index.size, P))
        self.mom = np.zeros((self.index.size, P))
        self.hvp_calls = 0

    def source(self, ctx):
        """(n / b) * g_i on the rows of tracked samples in the step's batch, zero elsewhere."""
        rank = self.position[ctx.batch]
        hit = rank >= 0
        source = np.zeros_like(self.nabla)
        if hit.any():
            G = ctx.sample_gradients(hit)
            source[rank[hit]] = (self.record.n_train / len(ctx.batch)) * G
        return source

    def advance(self, ctx, source):
        cfg = self.record.config
        mom = cfg.momentum * self.mom
        if self.use_hessian:
            mom = mom + ctx.batch_hvp(self.nabla)
            self.hvp_calls += 1
        self.mom = mom + cfg.weight_decay * self.nabla + source
        self.nabla = self.nabla - ctx.lr * self.mom
        if not np.isfinite(self.nabla).all():
            raise DivergenceError(ctx.step, f"hypergradient diverged at step {ctx.step}")

    def states(self):
        mode = "exact" if self.use_hessian else "approx"
        step = self.record.steps
        return {
            i: HypergradState(i, mode, self.nabla[r].copy(), self.mom[r].copy(), step)
            for r, i in enumerate(self.index.tolist())
        }


def _positions(index, n):
    """An (n,) lookup: the rank of each sample in ``index``, -1 for the others."""
    position = np.full(n, -1)
    position[index] = np.arange(index.size)
    return position


def _track(record, dataset, tracked_indices, use_hessian):
    trainer.check_one_run(record, "tracking")
    tracker = _Tracker(record, tracked_indices, use_hessian)
    for ctx in _walk(record, dataset):
        tracker.advance(ctx, tracker.source(ctx))
    assert use_hessian or tracker.hvp_calls == 0
    return tracker.states()


def track_exact(record, dataset, tracked_indices):
    """Hessian-aware hypergradients at the final step, per tracked sample."""
    return _track(record, dataset, tracked_indices, use_hessian=True)


def track_approx(record, dataset, tracked_indices):
    """Hessian-free hypergradients (the fast recurrence). No HVPs occur."""
    return _track(record, dataset, tracked_indices, use_hessian=False)


def error_trace(record, dataset, indices, record_stride=1):
    """Step both modes over every index in one walk; error norms against the bound.

    Returns ``{index: ApproxErrorTrace}`` over the distinct indices in
    first-seen order. Both trackers step on the same per-sample gradients,
    read once per step from the walk's kept state. M_w is each index's own
    running max of ||nabla||; L does not depend on the index, so its power
    iteration runs once.
    """
    trainer.check_one_run(record, "tracking")
    if record.config.weight_decay <= 0.0:
        raise ConfigError("the approximation-error bound requires weight_decay > 0")
    if record_stride < 1:
        raise ConfigError(f"record_stride = {record_stride} must be >= 1")
    exact = _Tracker(record, indices, use_hessian=True)
    approx = _Tracker(record, indices, use_hessian=False)
    steps, errors = [], []
    m_w = np.zeros(exact.index.size)
    for ctx in _walk(record, dataset):
        source = exact.source(ctx)
        exact.advance(ctx, source)
        approx.advance(ctx, source)
        m_w = np.maximum(m_w, np.linalg.norm(exact.nabla, axis=1))
        if ctx.step % record_stride == 0 or ctx.step == record.steps:
            steps.append(ctx.step)
            errors.append(models.row_norms(exact.nabla - approx.nabla))

    w_T = record.final_params
    weights = 1.0 / record.n_train + record.data_weights  # the run's, as the plateau monitor's
    lin = models.linearize(record.model, w_T, dataset)
    hvp = models._HvpOperator(record.model, w_T, lin, weights)  # checked once for every step
    L = models.power_iteration_max_eig(
        lambda v: hvp(v[None])[0],
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
    C(i) is their mean by linearity. ``contribution_exact`` and
    ``contribution_approx`` give the same report without the states, at a
    cost that does not grow with their number.
    """
    rows = models.test_gradients(record.model, record.final_params, test_dataset, per_test)
    if not states:
        raise ValueError("no hypergradient states given")
    modes = {s.mode for s in states.values()}
    tag = modes.pop() if len(modes) == 1 else "mixed"
    dloss = models.row_dots(rows, np.stack([s.nabla for s in states.values()]))
    return reports.from_loss_derivatives(tag, list(states), dloss, record.n_train)


def _groups(record):
    """The intervals between snapshots as lockstep groups ``(starts, length)``, in step order.

    A group is G consecutive intervals of one length L whose batches have
    equal sizes step for step, with
        G = max(1, min(ceil(sqrt(T)), floor(4 * ceil(sqrt(T)) / L))).
    The re-run of a group keeps G * L <= 4 * ceil(sqrt(T)) steps' states
    (see ``trainer.rerun``), as many as ceil(sqrt(T)) checkpoints plus one
    ceil(sqrt(T))-step segment would hold, so memory stays O(sqrt(T))
    states, while a full-batch record (L = 1) re-runs in ceil(sqrt(T))
    groups. Larger groups cut little more time and cost measurable peak
    memory. ``train`` records no interval longer than 4 * ceil(sqrt(T))
    steps; a record with one raises ConfigError naming it.
    """
    root = math.isqrt(record.steps - 1) + 1
    sizes = [len(batch) for batch in record.batches]
    marks = sorted(record.snapshots)
    groups = []
    for start, end in zip(marks, marks[1:]):
        if end - start > 4 * root:
            raise ConfigError(
                f"snapshots at steps {start} and {end} lie {end - start} steps apart, "
                f"more than the walk's 4 * ceil(sqrt(T)) = {4 * root}"
            )
        if groups:
            starts, length = groups[-1]
            if (
                end - start == length
                and len(starts) < max(1, min(root, 4 * root // length))
                and sizes[start:end] == sizes[starts[0] : starts[0] + length]
            ):
                starts.append(start)
                continue
        groups.append(([start], end - start))
    return groups


def _pattern_groups(record):
    """The intervals between snapshots as forward lockstep groups ``(starts, length)``.

    Intervals of equal length whose batches have equal sizes step for step
    group together, adjacent or not, into ceil(count / W) groups of sizes
    that differ by at most one, with W = max(1, ceil(sqrt(T)) // 2), in the
    step order of each group's last interval. Such a group keeps no step,
    but each of its steps holds about eight parameter vectors per row at
    once (w, velocity, the gradient, the update's temporaries and the step's
    linearization), so W rows stay within the 4 * ceil(sqrt(T)) vectors that
    a group of ``_groups`` keeps.
    """
    width = max(1, (math.isqrt(record.steps - 1) + 1) // 2)
    sizes = [len(batch) for batch in record.batches]
    marks = sorted(record.snapshots)
    patterns = {}
    for start, end in zip(marks, marks[1:]):
        patterns.setdefault((end - start, *sizes[start:end]), []).append(start)
    groups = [
        (part.tolist(), key[0])
        for key, starts in patterns.items()
        for part in np.array_split(starts, -(-len(starts) // width))
    ]
    return sorted(groups, key=lambda group: group[0][-1])


def _walk(record, dataset, backward=False):
    """The context of every step of the record, in step order or (``backward``) reversed.

    The groups of ``_groups`` (which refuse a snapshot gap over
    4 * ceil(sqrt(T)) steps before any re-run) re-run in lockstep from the
    record's own snapshots and momentum buffers (``trainer.rerun``). Each
    re-run must end bit-identical to the next snapshot and recompute the
    recorded losses before its contexts are yielded, so the walk is the
    replay's check, and a group's contexts are released before the next one.
    """
    order = reversed if backward else iter
    for starts, length in order(_groups(record)):
        yield from order(trainer.rerun(record, dataset, starts, length))


def _adjoint(record, dataset, indices, rows):
    """``rows @ nabla_{T,i}`` of the exact recurrence for each distinct index i, by one backward pass.

    Returns ``(index, acc)``: the distinct indices in first-seen order and an
    array of shape ``(len(rows), len(index))``. Walking the steps backwards
    from alpha = rows, beta = 0, with momentum p, weight decay lam and batch
    size b:
        beta~  = beta - lr * alpha
        acc[:, i in batch] += (n / b) * beta~ @ g_i
        alpha <- alpha + lam * beta~ + H_batch beta~
        beta  <- p * beta~
    The steps come from ``_walk``, last first; each beta~ @ g_i is a
    directional derivative and each HVP reads the step's kept state.
    """
    index = data.training_indices(indices, record.n_train)
    cfg = record.config
    n = record.n_train
    position = _positions(index, n)

    alpha = np.array(rows, dtype=np.float64, ndmin=2)
    beta = np.zeros_like(alpha)
    acc = np.zeros((alpha.shape[0], index.size))
    for ctx in _walk(record, dataset, backward=True):
        beta = beta - ctx.lr * alpha
        rank = position[ctx.batch]
        hit = rank >= 0
        if hit.any():
            acc[:, rank[hit]] += (n / len(ctx.batch)) * ctx.gradient_dots(hit, beta)
        alpha = alpha + cfg.weight_decay * beta + ctx.batch_hvp(beta)
        if not np.isfinite(alpha).all():
            raise DivergenceError(ctx.step, f"adjoint diverged at step {ctx.step}")
        beta = cfg.momentum * beta
    return index, acc


def _step_weights(record):
    """The approx recurrence's weight c_t of each step t (index t - 1), by one scalar pass.

    Without the Hessian term the adjoint's alpha and beta stay a * rows and
    b * rows. From a = 1, b = 0, walking t = T .. 1 with momentum p, weight
    decay lam and batch size b_t:
        b~  = b - lr_t * a
        c_t = (n / b_t) * b~
        a  <- a + lam * b~
        b  <- p * b~
    """
    cfg = record.config
    n = record.n_train
    weights = np.empty(record.steps)
    a, b = 1.0, 0.0
    for t in reversed(range(record.steps)):
        b = b - record.lrs[t] * a
        weights[t] = n / len(record.batches[t]) * b
        a = a + cfg.weight_decay * b
        b = cfg.momentum * b
    return weights


def _approx(record, dataset, indices, rows):
    """``rows @ nabla_{T,i}`` of the approx recurrence for each distinct index i, as ``_adjoint``.

    acc[:, i] = sum over the steps t whose batch holds i of
    c_t * rows @ g_i(w_t) (``_step_weights``), in no particular step order:
    the groups of ``_pattern_groups`` re-run (``trainer.lockstep``), last
    group first as in ``_adjoint``, so a damaged record fails at the step
    that the exact walk names, and each step's terms are directional
    derivatives read from its own paired linearization as it is made,
    before the re-run's checks. A sample can sit in the batches of several
    rows of one step, so the terms add with ``np.add.at``.
    """
    index = data.training_indices(indices, record.n_train)
    position = _positions(index, record.n_train)
    step_weights = _step_weights(record)
    rows = np.array(rows, dtype=np.float64, ndmin=2)
    acc = np.zeros((rows.shape[0], index.size))

    def visit(steps, batch, weights, lin):
        rank = position[batch]
        hit = rank >= 0
        if hit.any():
            c = np.broadcast_to(step_weights[steps - 1, None], hit.shape)[hit]
            np.add.at(acc, (slice(None), rank[hit]), c * models.gradient_dots(lin, rows, hit))

    for starts, length in reversed(_pattern_groups(record)):
        trainer.lockstep(record, dataset, starts, length, visit)
    return index, acc


def _contribution(record, dataset, indices, test_dataset, per_test, method):
    trainer.check_one_run(record, "tracking")
    rows = models.test_gradients(record.model, record.final_params, test_dataset, per_test)
    walk = _adjoint if method == "exact" else _approx
    index, acc = walk(record, dataset, indices, rows)
    return reports.from_loss_derivatives(method, index.tolist(), acc, record.n_train)


def contribution_exact(record, dataset, indices, test_dataset, per_test=False):
    """C(i) of the Hessian-aware recurrence for each index, by one backward pass.

    Equals ``contribution(record, track_exact(record, dataset, indices),
    test_dataset, per_test)`` to rounding, at a cost of one HVP per step
    whatever the number of indices; ``per_test`` adds C(i, j) per test sample.
    """
    return _contribution(record, dataset, indices, test_dataset, per_test, "exact")


def contribution_approx(record, dataset, indices, test_dataset, per_test=False):
    """C(i) of the Hessian-free recurrence for each index, forward, with no HVPs.

    Equals ``contribution(record, track_approx(record, dataset, indices),
    test_dataset, per_test)`` to rounding. The re-run groups intervals of
    equal batch-size pattern wherever they lie, and nothing is kept per step.
    """
    return _contribution(record, dataset, indices, test_dataset, per_test, "approx")
