"""Deterministic gradient-descent training with exact trajectory replay.

Supports full-batch GD, GD with momentum, and mini-batch SGD with seeded
shuffling. Every run is reproducible bit-for-bit from its config: batch
orders come from (seed, epoch) streams, never global RNG state.
"""

from __future__ import annotations

import hashlib
import math
import os
import tokenize
from dataclasses import dataclass, field

import numpy as np

from . import configtext, models
from .exceptions import ConfigError, DivergenceError, ReplayDivergenceError, ShapeError
from .models import ModelSpec

DIVERGENCE_FACTOR = 1e6
_FLOAT_MAX = np.finfo(np.float64).max


# ---------------------------------------------------------------------------
# Learning-rate schedules. All built-in schedules are non-increasing. Their
# text form is the config schema's ``name(key=value,...)`` (see configtext).


class _Schedule:
    def describe(self):
        """The config text form, read back by ``schedule_from_string``."""
        return configtext.format_choice(self, SCHEDULES)


@dataclass(frozen=True)
class ConstantSchedule(_Schedule):
    pass


@dataclass(frozen=True)
class StepDecaySchedule(_Schedule):
    """Multiply the rate by ``factor`` once, at the start of (1-based) ``epoch``."""

    factor: float
    epoch: int

    def __post_init__(self):
        configtext.check_ints(self)
        if not 0.0 < self.factor <= 1.0:
            raise ConfigError("step_decay factor must lie in (0, 1]")
        if self.epoch < 1:
            raise ConfigError("step_decay epoch must be >= 1")


@dataclass(frozen=True)
class ExponentialSchedule(_Schedule):
    """Per-step decay: lr_{t+1} = c * lr_t exactly."""

    c: float

    def __post_init__(self):
        if not 0.0 < self.c <= 1.0:
            raise ConfigError("exponential rate c must lie in (0, 1]")


@dataclass(frozen=True)
class ReduceOnPlateauSchedule(_Schedule):
    """Multiply by ``factor`` when the training loss stops improving.

    A plateau is declared when the full-dataset training loss (with the ridge
    term) fails to improve on the best value by more than ``rel_threshold``
    (relative) within ``patience`` epochs.
    """

    factor: float
    patience: int = 2
    rel_threshold: float = 1e-4

    def __post_init__(self):
        configtext.check_ints(self)
        if not 0.0 < self.factor <= 1.0:
            raise ConfigError("plateau factor must lie in (0, 1]")
        if self.patience < 1:
            raise ConfigError("plateau patience must be >= 1")
        if not 0.0 <= self.rel_threshold < 1.0:
            raise ConfigError("plateau rel_threshold must lie in [0, 1)")


SCHEDULES = {
    "constant": ConstantSchedule,
    "step_decay": StepDecaySchedule,
    "exponential": ExponentialSchedule,
    "reduce_on_plateau": ReduceOnPlateauSchedule,
}


def schedule_from_string(text):
    """Parse the textual schedule form produced by ``describe``."""
    return configtext.read_choice("schedule", text, SCHEDULES)


@dataclass(frozen=True)
class TrainingConfig:
    epochs: int
    batch_size: int  # 0 means full batch
    initial_lr: float
    schedule: object = field(default=ConstantSchedule(), metadata={"choices": SCHEDULES})
    momentum: float = 0.0
    weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.schedule is None:
            object.__setattr__(self, "schedule", ConstantSchedule())
        if type(self.schedule) not in SCHEDULES.values():
            raise ConfigError(f"unknown schedule {self.schedule!r}")
        configtext.check_ints(self)
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 0:
            raise ConfigError("batch_size must be >= 0 (0 = full batch)")
        if not (math.isfinite(self.initial_lr) and self.initial_lr > 0.0):
            raise ConfigError(f"initial_lr = {self.initial_lr!r} must be finite and > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0.0):
            raise ConfigError(f"weight_decay = {self.weight_decay!r} must be finite and >= 0")
        # Schedules are non-increasing, so checking the initial product
        # covers every step.
        if self.weight_decay > 0.0 and self.initial_lr * self.weight_decay >= 1.0:
            raise ConfigError("initial_lr * weight_decay must be < 1")


def check_training_set(dataset):
    """The row count of a training set; ConfigError for none, which gives no batch to step on."""
    n = len(dataset)
    if n == 0:
        raise ConfigError("empty training set: no samples to train on")
    return n


def check_one_run(record, what):
    """ConfigError, naming ``what``, for a stacked record (one run per row of its data weights)."""
    if record.data_weights.ndim != 1:
        raise ConfigError(
            f"{what} takes one run, not a stack of data weights of shape "
            f"{record.data_weights.shape}"
        )


def batch_starts(n, batch_size):
    """Offsets of one epoch's batches; ``batch_size <= 0`` or ``>= n`` is one full batch."""
    if batch_size <= 0 or batch_size >= n:
        batch_size = n
    return range(0, n, batch_size)


def build_batch_schedule(n, batch_size, epochs, seed):
    """Seeded shuffled partition per epoch; the last batch may be short."""
    starts = batch_starts(n, batch_size)
    batches = []
    for epoch in range(epochs):
        rng = np.random.default_rng([int(seed), epoch])
        perm = rng.permutation(n).astype(np.int32)
        for start in starts:
            batches.append(perm[start : start + starts.step])
    return batches


# The dtype of each array of a record's on-disk form (see ``TrajectoryRecord._arrays``).
_DTYPES = dict(steps="<i8", snapshots="<f8", velocities="<f8", lrs="<f8", losses="<f8",
               weights="<f8", batch_sizes="<i8", batches="<i4")


@dataclass
class TrajectoryRecord:
    """Everything needed to replay a run deterministically; ``save_trajectory`` writes
    all of it, and ``load_trajectory`` reads it back field for field."""

    model: ModelSpec
    config: TrainingConfig
    n_train: int
    data_weights: np.ndarray
    batches: list
    lrs: np.ndarray  # per step, 1-based step t -> lrs[t-1]
    losses: np.ndarray  # regularized batch loss at w_{t-1}
    snapshots: dict  # step -> flat params (0 and T always present)
    final_params: np.ndarray
    velocities: dict  # step -> momentum buffer after that step, beside each snapshot

    @property
    def steps(self):
        return len(self.batches)

    def _text(self):
        """The [model] and [training] sections of ``config.txt``."""
        return "\n".join([
            configtext.write_section("model", self.model),
            configtext.write_section("training", self.config),
        ])

    def _arrays(self):
        """``{name: array}`` of the on-disk form: snapshots and buffers stacked in
        step order, the batches flat beside their sizes."""
        steps = sorted(self.snapshots)
        arrays = {
            "steps": steps,
            "snapshots": [self.snapshots[t] for t in steps],
            "velocities": [self.velocities[t] for t in steps],
            "lrs": self.lrs,
            "losses": self.losses,
            "weights": self.data_weights,
            "batch_sizes": [len(batch) for batch in self.batches],
            "batches": np.concatenate(self.batches),
        }
        return {name: np.asarray(a, dtype=_DTYPES[name]) for name, a in arrays.items()}

    def checksum(self):
        """SHA-256 of the config text and of every array with its dtype and shape."""
        h = hashlib.sha256(self._text().encode())
        for name, array in self._arrays().items():
            h.update(f"{name} {array.dtype.str} {array.shape}\n".encode())
            h.update(array.tobytes())
        return h.hexdigest()


class StepContext:
    """One re-run training step (see ``rerun``): its step, rate, batch and batch weights.

    It gives the per-sample gradients, their dot products with vectors and
    the HVPs of the step's weighted batch loss at its pre-update parameters,
    from what the re-run kept of the step's linearization (``models.keep``)
    and the batch's rows of ``features`` (``models.restore``); none of them
    evaluates the model again.
    """

    def __init__(self, step, lr, batch, weights, kept, features):
        self.step = step
        self.lr = lr
        self.batch = batch
        self.weights = weights
        self.kept = kept
        self.features = features

    def _restore(self, hit=None):
        rows = self.batch if hit is None else self.batch[hit]
        return models.restore(self.kept, self.features[rows], hit)

    def sample_gradients(self, hit):
        """(h, P) gradients of the batch members that the mask or index ``hit`` picks."""
        return models._sample_gradients(self._restore(hit))

    def gradient_dots(self, hit, V):
        """(k, h): each row of V (k, P) dotted with the gradient of each member ``hit`` picks."""
        return models.gradient_dots(self._restore(hit), V)

    def batch_hvp(self, V):
        """H^er of the regularizer-free batch loss, under the step's weights, times V (k, P)."""
        return models._hvp_exact(self._restore(), self.weights, V)


def _recorded_loss(weights, batch_losses, w, lam):
    """The regularized objective of one run at w: weighted losses plus 0.5 * lam * ||w||^2.

    A step records it on its batch; the plateau monitor reads it on the full
    dataset. An (R, P) stack gives each row's value, with the bits of the row
    alone: a row-by-row matmul takes the summation of ``np.dot``.
    """
    if w.ndim == 1:
        return float(np.dot(weights, batch_losses)) + 0.5 * lam * float(w @ w)
    dots = weights[:, None, :] @ batch_losses[:, :, None]
    return dots[:, 0, 0] + 0.5 * lam * (w[:, None, :] @ w[:, :, None])[:, 0, 0]


def _divergence_limit(reference):
    """The largest |loss| that does not diverge against a reference loss (per row of a stack)."""
    return np.minimum(DIVERGENCE_FACTOR * (np.abs(reference) + 1e-12), _FLOAT_MAX)


def _first(values, flags):
    """The value (one per row, or one for all rows) of the first flagged row."""
    flags = np.ravel(flags)
    return np.broadcast_to(np.ravel(values), flags.shape)[flags][0]


def _step(model, rows, eps, batch, w, velocity, lr, step, config, limit):
    """One (momentum) gradient step; returns ``(w, velocity, loss, limit, weights, lin)`` after it.

    ``w`` and ``velocity`` hold one run's vectors or an (R, P) stack. A stack
    either runs R rows of data weights ``eps`` (R, n) on one shared batch, or
    pairs row r with its own ``batch[r]`` of an (R, b) batch, rate ``lr[r]``
    of an (R, 1) column and ``step[r]`` over one (n,) ``eps``. A batch member weighs
    1/b + n * eps_i / b, the ridge term ``weight_decay * w`` joins the
    gradient, and each row records its regularized batch loss on its own.
    ``limit`` is the largest |loss| that does not diverge (None: set from this
    step's loss). Raises ConfigError when lr * weight_decay leaves (0, 1) and
    DivergenceError past the limit, naming the first such row's step.
    ``weights`` are the batch members' weights and ``lin`` the step's
    linearization at the pre-update parameters. ``rows`` are the dataset's
    ``(X, targets)`` in ``models._xy``'s form: its run checks the labels once.
    """
    lam = config.weight_decay
    rate = lr * lam
    outside = (rate <= 0.0) | (rate >= 1.0)  # a bool for one rate, an array for a column
    if lam > 0.0 and (outside.any() if isinstance(outside, np.ndarray) else outside):
        raise ConfigError(
            f"lr*weight_decay = {_first(rate, outside)} outside (0, 1) "
            f"at step {_first(step, outside)}"
        )
    X, targets = rows
    b = np.shape(batch)[-1]
    # take keeps each row contiguous (``eps[..., batch]`` would not), so
    # a row's dot product below runs on the strides of a single run.
    weights = 1.0 / b + len(X) * eps.take(batch, axis=-1) / b
    lin = models._linearize(model, w, X.take(batch, axis=0), targets.take(batch, axis=0))
    batch_losses, g = models._loss_and_gradient(lin, weights)
    if lam > 0.0:
        g += lam * w  # g is this step's own array; w is not written (lin holds views of it)

    loss = _recorded_loss(weights, batch_losses, w, lam)
    if limit is None:
        limit = _divergence_limit(loss)
    # The limit is finite, so a NaN or infinite loss fails the comparison too.
    within = abs(loss) <= limit
    if not within.all():
        raise DivergenceError(int(_first(step, ~within)))

    velocity = config.momentum * velocity
    velocity += g
    update = lr * velocity
    w = np.subtract(w, update, out=update)  # w - lr * velocity, in the product's array
    return w, velocity, loss, limit, weights, lin


def train(model, dataset, config, data_weights=None, init=None, batches=None, lrs=None):
    """Run (momentum) gradient descent and record the trajectory.

    ``data_weights`` are the per-sample offsets to the 1/N coefficients;
    a sample in a batch of size b contributes with weight 1/b + N*eps_i/b,
    the ridge term ``weight_decay * w`` is added on top. ``init`` is the
    starting parameters (default: seeded initialization; a wrong length
    raises ShapeError), and the momentum buffer starts at zero. The record
    keeps a snapshot, with the momentum buffer beside it (``velocities``),
    at step 0, at the end of every epoch and at step T; an epoch longer
    than 4 * ceil(sqrt(T)) steps also gets one every ceil(sqrt(T)) steps
    from its start. These are the checkpoints of the hypergradient walk,
    which keeps the states of at most 4 * ceil(sqrt(T)) steps at once.
    ``batches``/``lrs`` override the derived schedule (used by replay). The
    run diverges when a batch loss exceeds ``DIVERGENCE_FACTOR`` times the
    first step's loss.

    An ``(R, n)`` stack of data weights runs R trajectories in lockstep on
    the shared batches and rates: the parameters, momentum buffer, snapshots,
    velocities and final parameters gain a leading R axis, the losses are
    ``(R, T)``, and row r is bit-identical to the run with weights row r alone (each row
    diverges against its own first loss). Under ``ReduceOnPlateauSchedule`` a
    stack needs recorded ``lrs``, because that rate follows each run's own
    loss; ConfigError otherwise. An empty training set raises ConfigError.
    """
    n = check_training_set(dataset)
    eps = np.zeros(n) if data_weights is None else np.asarray(data_weights, dtype=np.float64)
    if eps.ndim not in (1, 2) or eps.shape[-1] != n:
        raise ConfigError(f"data weights of shape {eps.shape} for {n} samples")
    lead = eps.shape[:-1]  # (R,) for a stack of R runs, () for one run
    if lead and lrs is None and isinstance(config.schedule, ReduceOnPlateauSchedule):
        raise ConfigError(
            "reduce_on_plateau follows each run's own loss: a stack of data weights needs lrs"
        )

    if batches is None:
        batches = build_batch_schedule(n, config.batch_size, config.epochs, config.seed)
    steps_per_epoch = max(1, len(batches) // config.epochs)
    total_steps = len(batches)
    root = math.isqrt(total_steps - 1) + 1
    stride = root if steps_per_epoch > 4 * root else steps_per_epoch

    w = models.init_params(model, config.seed) if init is None else models.as_flat(init)
    P = models.param_count(model)
    if w.shape[-1:] != (P,):
        raise ShapeError(f"init of shape {w.shape} for {P} parameters")
    w = np.broadcast_to(w, lead + w.shape[-1:]).copy()
    lam = config.weight_decay
    velocity = np.zeros_like(w)

    # One running rate, which each schedule updates at its own event.
    sched = config.schedule
    rate = config.initial_lr
    best_monitor = np.inf
    stale_epochs = 0

    out_lrs = np.empty(total_steps)
    out_losses = np.empty(lead + (total_steps,))
    snapshots = {0: w.copy()}
    velocities = {0: velocity.copy()}
    limit = None

    rows = models._xy(model, dataset)  # the labels are checked once, for every step
    for t in range(1, total_steps + 1):
        batch = batches[t - 1]
        if isinstance(sched, StepDecaySchedule) and sched.epoch <= config.epochs:
            if t == (sched.epoch - 1) * steps_per_epoch + 1:  # start of epoch sched.epoch
                rate *= sched.factor
        lr = rate if lrs is None else float(lrs[t - 1])
        # (the step's linearization is released at once: only re-runs read it)
        w, velocity, out_losses[..., t - 1], limit = _step(
            model, rows, eps, batch, w, velocity, lr, t, config, limit
        )[:4]
        out_lrs[t - 1] = lr

        if t % steps_per_epoch % stride == 0 or t == total_steps:
            snapshots[t] = w.copy()
            velocities[t] = velocity.copy()

        if isinstance(sched, ExponentialSchedule):
            rate *= sched.c  # a running product keeps lr_{t+1} = c * lr_t exact
        elif isinstance(sched, ReduceOnPlateauSchedule) and (
            lrs is None and t % steps_per_epoch == 0
        ):
            full_losses = models.sample_losses(model, w, dataset)
            monitor = _recorded_loss(1.0 / n + eps, full_losses, w, lam)
            if monitor < best_monitor * (1.0 - sched.rel_threshold):
                best_monitor = monitor
                stale_epochs = 0
            else:
                stale_epochs += 1
                if stale_epochs >= sched.patience:
                    rate *= sched.factor
                    stale_epochs = 0

    return TrajectoryRecord(
        model=model,
        config=config,
        n_train=n,
        data_weights=eps,
        batches=batches,
        lrs=out_lrs,
        losses=out_losses,
        snapshots=snapshots,
        final_params=w.copy(),
        velocities=velocities,
    )


def _check_losses(record, steps, losses):
    """ReplayDivergenceError at the first of ``steps`` whose loss differs from the recorded one."""
    differs = losses != record.losses[steps - 1]  # a NaN differs from itself too
    if differs.any():
        raise ReplayDivergenceError(int(steps[differs].min()))


def replay(record, dataset, data_weights=None):
    """Re-run a recorded trajectory with the identical batch order and rates.

    With unchanged weights the replay must be bit-identical, so every
    recorded snapshot, then every recorded loss, is checked and
    ReplayDivergenceError names the first bad step; a recorded snapshot at a
    step the replay does not snapshot is a bad step too. Perturbed weights (the
    oracle's case) skip the check; an ``(R, n)`` stack of them replays R runs
    in lockstep (see ``train``).
    """
    weights = record.data_weights if data_weights is None else np.asarray(data_weights)
    perturbed = not np.array_equal(weights, record.data_weights)
    new = train(
        record.model,
        dataset,
        record.config,
        data_weights=weights,
        init=record.snapshots[0],
        batches=record.batches,
        lrs=record.lrs,
    )
    if not perturbed:
        for step in sorted(record.snapshots):
            if step not in new.snapshots:
                raise ReplayDivergenceError(
                    step, f"recorded snapshot at step {step}, where the replay takes none"
                )
            if not np.array_equal(record.snapshots[step], new.snapshots[step]):
                raise ReplayDivergenceError(step)
        _check_losses(record, np.arange(1, record.steps + 1), new.losses)
    return new


def lockstep(record, dataset, starts, length, visit):
    """Re-run ``length`` recorded steps from each snapshot step in ``starts``, in lockstep.

    Row r starts from the snapshot at s_r = ``starts[r]`` and the momentum
    buffer beside it (``record.velocities``), and takes the recorded batches
    and rates of steps s_r + 1 .. s_r + length; their batches must have equal
    sizes step for step. Each step of all rows is one paired model
    evaluation (``_step``, as in ``train``), and every row diverges against
    the run's reference loss ``losses[0]``. As each step is made, with its
    losses within the limit, ``visit(steps, batch, weights, lin)`` receives
    the rows' (G,) step numbers, their (G, b) batches, the (G, b) weights of
    their members and the paired linearization at the pre-step parameters;
    nothing else of the step is kept.

    Then every row must end bit-identical to the snapshot at s_r + length
    (rows checked last first), and every recomputed loss must equal the
    recorded one. Otherwise ReplayDivergenceError names that snapshot's
    step, or the first step whose loss differs or where a row diverged; a
    non-finite ``losses[0]`` names step 1 before any step is made.
    """
    if not np.isfinite(record.losses[0]):
        raise ReplayDivergenceError(1, f"the recorded loss of step 1 is {record.losses[0]}")
    starts = np.asarray(starts)
    w = np.stack([record.snapshots[s] for s in starts])
    velocity = np.stack([record.velocities[s] for s in starts])
    limit = _divergence_limit(record.losses[0])
    steps = starts[:, None] + np.arange(1, length + 1)  # (rows, length)
    losses = np.empty(steps.shape)
    rows = models._xy(record.model, dataset)  # the labels are checked once, for every step
    for j in range(length):
        batch = np.stack([record.batches[t - 1] for t in steps[:, j]])
        try:
            w, velocity, losses[:, j], _, weights, lin = _step(
                record.model, rows, record.data_weights, batch, w, velocity,
                record.lrs[steps[:, j, None] - 1], steps[:, j], record.config, limit,
            )
        except DivergenceError as err:
            raise ReplayDivergenceError(err.step) from err
        visit(steps[:, j], batch, weights, lin)
        del lin  # before the next step builds its own
    for r in reversed(range(len(starts))):
        if not np.array_equal(w[r], record.snapshots[steps[r, -1]]):
            raise ReplayDivergenceError(int(steps[r, -1]))
    _check_losses(record, steps, losses)


def rerun(record, dataset, starts, length):
    """``lockstep``, keeping each step's weights and ``models.keep``; the context of every
    step, in step order.

    Per row and step only what the batch's rows cannot give back is kept:
    the members' weights, the hidden layers' outputs, the output delta, the
    softmax and W_1 .. W_{L-1}, never the parameter vector or the rows
    themselves. The contexts are returned only once every check of
    ``lockstep`` has passed.
    """
    kept = []
    lockstep(
        record, dataset, starts, length,
        lambda steps, batch, weights, lin: kept.append((steps, batch, weights, models.keep(lin))),
    )
    features = dataset.features
    return [
        StepContext(int(steps[r]), float(record.lrs[steps[r] - 1]), batch[r], weights[r],
                    state.take(r), features)
        for r in range(len(starts))
        for steps, batch, weights, state in kept
    ]


# ---------------------------------------------------------------------------
# On-disk form: ``config.txt`` holds the [model] and [training] sections and
# the record's checksum, and each array of the record is one ``name.npy``
# file, whose header carries its dtype and shape.


def save_trajectory(record, directory):
    """Write the record as ``config.txt`` and one ``.npy`` file per array (see ``_DTYPES``)."""
    check_one_run(record, "the on-disk form")
    os.makedirs(directory, exist_ok=True)
    meta = configtext.write_section("meta", {"checksum": record.checksum()})
    with open(os.path.join(directory, "config.txt"), "w") as fh:
        fh.write(record._text() + "\n" + meta)
    for name, array in record._arrays().items():
        np.save(os.path.join(directory, f"{name}.npy"), array, allow_pickle=False)


def _load(directory, name, shape):
    """The array of ``name.npy``; ConfigError for a missing or unreadable file, or another
    dtype or ``shape`` (where None takes any length)."""
    dtype = _DTYPES[name]
    try:
        array = np.load(os.path.join(directory, f"{name}.npy"), allow_pickle=False)
    except (OSError, ValueError, TypeError, SyntaxError, tokenize.TokenError) as exc:
        # (a damaged header fails numpy's parser with any of these)
        raise ConfigError(f"{name}.npy: {exc!r}") from exc
    if array.dtype != dtype or array.ndim != len(shape) or any(
        want not in (None, got) for want, got in zip(shape, array.shape)
    ):
        raise ConfigError(f"{name}.npy holds {array.dtype} {array.shape}, expected {dtype} {shape}")
    return array


def load_trajectory(directory):
    """Read back a ``save_trajectory`` directory as the record that was saved.

    Raises ConfigError, naming the file, for a missing or unreadable file, an
    array of another dtype or shape (a truncated or mismatched file), an
    empty batch, a batch index outside [0, n) (n from the data weights) or
    snapshot steps repeated, outside [0, T] or without 0 and T. Then
    ReplayDivergenceError when the record does not match the stored checksum.
    """
    try:
        with open(os.path.join(directory, "config.txt")) as fh:
            sections = configtext.parse_sections(fh.read())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"config.txt: {exc}") from exc
    model = configtext.read_section("model", sections.get("model", {}), ModelSpec)
    config = configtext.read_section("training", sections.get("training", {}), TrainingConfig)
    stored = sections.get("meta", {}).get("checksum")
    if stored is None:
        raise ConfigError("config.txt: missing config key meta.checksum")

    sizes, flat, weights, steps = (
        _load(directory, name, (None,)) for name in ("batch_sizes", "batches", "weights", "steps")
    )
    T, n = sizes.size, weights.size
    if T == 0 or sizes.min() < 1:
        raise ConfigError("batch_sizes.npy: no batches, or an empty one")
    if flat.size != sizes.sum():
        raise ConfigError(f"batches.npy holds {flat.size} indices; the sizes sum to {sizes.sum()}")
    if flat.min() < 0 or flat.max() >= n:
        raise ConfigError(f"batches.npy: an index outside [0, {n})")
    lrs, losses = (_load(directory, name, (T,)) for name in ("lrs", "losses"))
    steps = steps.tolist()
    if not {0, T} <= set(steps):
        raise ConfigError("steps.npy lacks step 0 or the final step")
    if len(set(steps)) < len(steps):
        raise ConfigError("steps.npy repeats a step")
    if min(steps) < 0 or max(steps) > T:
        raise ConfigError(f"steps.npy: a step outside [0, {T}]")
    shape = (len(steps), models.param_count(model))
    snapshots, velocities = (_load(directory, name, shape) for name in ("snapshots", "velocities"))
    snapshots = dict(zip(steps, snapshots))
    record = TrajectoryRecord(
        model=model,
        config=config,
        n_train=n,
        data_weights=weights,
        batches=np.split(flat, np.cumsum(sizes)[:-1]),
        lrs=lrs,
        losses=losses,
        snapshots=snapshots,
        final_params=snapshots[T].copy(),
        velocities=dict(zip(steps, velocities)),
    )
    if record.checksum() != stored:
        raise ReplayDivergenceError(-1, "stored trajectory checksum mismatch")
    return record
