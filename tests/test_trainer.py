"""Trainer: trajectories, schedules, replay, on-disk round trips."""

import functools
import hashlib
import math
import os
import re
import struct
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import datatrace as dt
from datatrace import configtext, models, trainer
from datatrace.exceptions import ConfigError, DivergenceError, ReplayDivergenceError
from conftest import bias_only_probe, gaussian_pair, ridge_probe


def test_an_empty_training_set_is_refused_before_any_work(monkeypatch):
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    train, _ = gaussian_pair(dim=4, per_class=10)

    def no_work(*args, **kwargs):
        raise AssertionError("work done for an empty training set")

    monkeypatch.setattr(trainer, "build_batch_schedule", no_work)
    monkeypatch.setattr(models, "init_params", no_work)
    cfg = dt.TrainingConfig(epochs=2, batch_size=4, initial_lr=0.1, seed=0)
    with pytest.raises(ConfigError, match="empty training set"):
        dt.train(spec, train.subset([]), cfg)


def test_geometric_contraction_on_pure_quadratic():
    # loss 0.5*b^2 (zero inputs, zero target): b_t = 0.9^t from b_0 = 1
    spec, data = bias_only_probe([0.0])
    cfg = dt.TrainingConfig(epochs=10, batch_size=0, initial_lr=0.1, seed=0)
    rec = dt.train(spec, data, cfg, init=np.array([0.0, 1.0]))
    assert abs(rec.final_params[1] - 0.9**10) <= 1e-12
    assert abs(rec.final_params[1] - 0.348678) <= 1e-6
    assert rec.final_params[0] == 0.0


def test_full_batch_equals_batch_size_n():
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    ds = dt.synth_gaussian(2, 10, 4, 2.0, 1)
    base = dict(epochs=20, initial_lr=0.05, momentum=0.5, weight_decay=0.01, seed=3)
    rec_full = dt.train(spec, ds, dt.TrainingConfig(batch_size=0, **base))
    rec_n = dt.train(spec, ds, dt.TrainingConfig(batch_size=len(ds), **base))
    assert np.allclose(rec_full.final_params, rec_n.final_params, atol=1e-12)


def test_ridge_probe_converges_to_regularized_minimizer():
    # output c = W + b with x = 1; minimizer c* = mean(a) / (1 + lambda/2)
    spec, train, _ = ridge_probe(targets=(0.0, 2.0))
    cfg = dt.TrainingConfig(epochs=200, batch_size=0, initial_lr=0.1, weight_decay=0.1, seed=0)
    rec = dt.train(spec, train, cfg, init=np.zeros(2))
    c = rec.final_params.sum()
    assert abs(c - 1.0 / 1.05) <= 1e-6


def test_training_is_deterministic():
    spec = dt.ModelSpec("mlp", (4, 5, 2))
    ds = dt.synth_gaussian(2, 12, 4, 2.0, 2)
    cfg = dt.TrainingConfig(epochs=15, batch_size=4, initial_lr=0.05,
                            momentum=0.9, weight_decay=0.01, seed=11)
    a = dt.train(spec, ds, cfg)
    b = dt.train(spec, ds, cfg)
    assert np.array_equal(a.final_params, b.final_params)
    assert a.checksum() == b.checksum()


def test_replay_is_bit_identical_and_detects_tampering():
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    ds = dt.synth_gaussian(2, 10, 4, 2.0, 1)
    cfg = dt.TrainingConfig(epochs=10, batch_size=4, initial_lr=0.05, seed=5)
    rec = dt.train(spec, ds, cfg)
    again = dt.replay(rec, ds)
    assert np.array_equal(rec.final_params, again.final_params)
    rec.snapshots[max(rec.snapshots)] = rec.snapshots[max(rec.snapshots)] + 1.0
    with pytest.raises(ReplayDivergenceError):
        dt.replay(rec, ds)


def test_replay_refuses_a_recorded_snapshot_at_a_step_it_does_not_snapshot():
    # a snapshot off the run's own grid cannot be checked, so it is a bad step
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    ds = dt.synth_gaussian(2, 10, 4, 2.0, 1)
    cfg = dt.TrainingConfig(epochs=3, batch_size=5, initial_lr=0.05, seed=5)
    rec = dt.train(spec, ds, cfg)
    assert sorted(rec.snapshots) == [0, 4, 8, 12]
    extra = replace(rec, snapshots={**rec.snapshots, 2: np.full_like(rec.snapshots[0], 7.0)})
    with pytest.raises(ReplayDivergenceError, match="step 2") as err:
        dt.replay(extra, ds)
    assert err.value.step == 2


def test_replay_with_perturbed_weights_skips_check():
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    ds = dt.synth_gaussian(2, 10, 4, 2.0, 1)
    cfg = dt.TrainingConfig(epochs=10, batch_size=0, initial_lr=0.05, seed=5)
    rec = dt.train(spec, ds, cfg)
    w = np.zeros(len(ds))
    w[0] = 1e-3
    out = dt.replay(rec, ds, data_weights=w)
    assert not np.array_equal(out.final_params, rec.final_params)


SCHEDULES = pytest.mark.parametrize("schedule", [
    dt.ConstantSchedule(),
    dt.StepDecaySchedule(0.5, 3),
    dt.ExponentialSchedule(0.9),
    dt.ReduceOnPlateauSchedule(0.5, patience=1, rel_threshold=0.05),
], ids=["constant", "step_decay", "exponential", "plateau"])


@pytest.mark.parametrize("kind,widths", [("logistic_regression", (4, 2)), ("mlp", (4, 5, 2))])
@pytest.mark.parametrize("batch_size", [0, 5])
@pytest.mark.parametrize("momentum", [0.0, 0.9])
@SCHEDULES
def test_stacked_replay_rows_are_bit_identical_to_single_replays(
    kind, widths, batch_size, momentum, schedule
):
    spec = dt.ModelSpec(kind, widths)
    ds = dt.synth_gaussian(2, 10, 4, 2.0, 1)
    cfg = dt.TrainingConfig(epochs=6, batch_size=batch_size, initial_lr=0.1,
                            schedule=schedule, momentum=momentum, weight_decay=0.01,
                            seed=5)
    rec = dt.train(spec, ds, cfg)
    stack = np.random.default_rng(0).uniform(-0.02, 0.02, (3, len(ds)))
    run = dt.replay(rec, ds, data_weights=stack)  # plateau: the recorded rates
    assert run.final_params.shape == (3, models.param_count(spec))
    assert run.losses.shape == (3, rec.steps)
    assert np.array_equal(run.lrs, rec.lrs)
    for r, weights in enumerate(stack):
        one = dt.replay(rec, ds, data_weights=weights)
        assert np.array_equal(run.final_params[r], one.final_params)
        assert np.array_equal(run.losses[r], one.losses)
        assert run.snapshots.keys() == one.snapshots.keys()
        assert all(np.array_equal(run.snapshots[t][r], one.snapshots[t]) for t in one.snapshots)


def test_weight_stack_refusals():
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    ds = dt.synth_gaussian(2, 10, 4, 2.0, 1)
    cfg = dt.TrainingConfig(epochs=3, batch_size=5, initial_lr=0.1, seed=5)
    stack = np.zeros((2, len(ds)))
    plateau = dt.TrainingConfig(epochs=3, batch_size=5, initial_lr=0.1, seed=5,
                                schedule=dt.ReduceOnPlateauSchedule(0.5))
    with pytest.raises(ConfigError, match="lrs"):
        dt.train(spec, ds, plateau, data_weights=stack)
    rec = dt.train(spec, ds, plateau)
    stacked = dt.replay(rec, ds, data_weights=stack)
    assert stacked.final_params.shape == (2, 10)
    with pytest.raises(ConfigError, match="one run"), tempfile.TemporaryDirectory() as d:
        dt.save_trajectory(stacked, d)
    for bad in (np.zeros((2, len(ds) + 1)), np.zeros((1, 2, len(ds)))):
        with pytest.raises(ConfigError, match="data weights of shape"):
            dt.train(spec, ds, cfg, data_weights=bad)


def test_stack_diverges_at_its_diverging_rows_step():
    # Bias-only quadratic, full batch of 2: b <- (1 - lr * (1 + eps_0 + eps_1)) b.
    # Row 0 contracts by 0.85 from a first loss of 0.05; row 1 grows by -2
    # from a first loss of 1, so it diverges later against its own first loss
    # than it would against row 0's.
    spec, data = bias_only_probe([0.0, 0.0])
    cfg = dt.TrainingConfig(epochs=40, batch_size=0, initial_lr=1.5, seed=0)
    stack = np.array([[-0.45, -0.45], [0.0, 1.0]])
    init = np.array([0.0, 1.0])
    dt.train(spec, data, cfg, data_weights=stack[0], init=init)
    with pytest.raises(DivergenceError) as alone:
        dt.train(spec, data, cfg, data_weights=stack[1], init=init)
    with pytest.raises(DivergenceError) as stacked:
        dt.train(spec, data, cfg, data_weights=stack, init=init)
    assert stacked.value.step == alone.value.step == 11


def test_exponential_schedule_is_exactly_geometric_per_step():
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    ds = dt.synth_gaussian(2, 10, 4, 2.0, 1)
    cfg = dt.TrainingConfig(epochs=5, batch_size=5, initial_lr=0.2,
                            schedule=dt.ExponentialSchedule(0.9), seed=0)
    rec = dt.train(spec, ds, cfg)
    assert np.all(rec.lrs[1:] == rec.lrs[:-1] * 0.9)


def test_step_decay_schedule():
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    ds = dt.synth_gaussian(2, 10, 4, 2.0, 1)
    cfg = dt.TrainingConfig(epochs=4, batch_size=0, initial_lr=0.1,
                            schedule=dt.StepDecaySchedule(0.5, 3), seed=0)
    rec = dt.train(spec, ds, cfg)
    assert np.allclose(rec.lrs, [0.1, 0.1, 0.05, 0.05])


def test_plateau_schedule_reduces_lr_when_stuck():
    # zero-input probe with b already at the minimum: loss never improves
    spec, data = bias_only_probe([0.0, 0.0])
    cfg = dt.TrainingConfig(
        epochs=8, batch_size=0, initial_lr=0.1,
        schedule=dt.ReduceOnPlateauSchedule(0.5, patience=2), seed=0,
    )
    rec = dt.train(spec, data, cfg, init=np.zeros(2))
    assert rec.lrs[-1] < rec.lrs[0]


def test_schedule_string_round_trip():
    for sched in (
        dt.ConstantSchedule(),
        dt.StepDecaySchedule(0.5, 3),
        dt.ExponentialSchedule(0.99),
        dt.ReduceOnPlateauSchedule(0.1, patience=3, rel_threshold=1e-3),
    ):
        assert dt.schedule_from_string(sched.describe()) == sched
    with pytest.raises(ConfigError, match="epoch"):
        dt.schedule_from_string("step_decay(factor=0.5)")


def test_config_invariants():
    with pytest.raises(ConfigError):
        dt.TrainingConfig(epochs=0, batch_size=0, initial_lr=0.1)
    with pytest.raises(ConfigError):
        dt.TrainingConfig(epochs=1, batch_size=0, initial_lr=2.0, weight_decay=0.5)
    with pytest.raises(ConfigError):
        dt.TrainingConfig(epochs=1, batch_size=0, initial_lr=0.1, momentum=1.0)
    with pytest.raises(ConfigError, match="unknown schedule"):
        dt.TrainingConfig(epochs=1, batch_size=0, initial_lr=0.1, schedule="constant")
    # a rate or decay that cannot train fails when the config is built
    for lr in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="initial_lr"):
            dt.TrainingConfig(epochs=1, batch_size=0, initial_lr=lr)
    with pytest.raises(ConfigError, match="weight_decay"):
        dt.TrainingConfig(epochs=1, batch_size=0, initial_lr=0.1, weight_decay=float("nan"))


@pytest.mark.parametrize("make", [
    lambda: dt.StepDecaySchedule(0.5, 3.0),
    lambda: dt.ReduceOnPlateauSchedule(0.5, patience=2.0),
    lambda: dt.ReduceOnPlateauSchedule(0.5, patience=True),
    lambda: dt.TrainingConfig(epochs=2.0, batch_size=0, initial_lr=0.1),
    lambda: dt.TrainingConfig(epochs=2, batch_size=5.0, initial_lr=0.1),
    lambda: dt.TrainingConfig(epochs=2, batch_size=0, initial_lr=0.1, seed="7"),
], ids=["epoch", "patience", "patience_bool", "epochs", "batch_size", "seed"])
def test_integer_fields_reject_other_types(make):
    with pytest.raises(ConfigError, match="must be an integer"):
        make()


def test_every_constructible_config_saves_and_loads(tmp_path):
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    ds = dt.synth_gaussian(2, 6, 4, 2.0, 1)
    for schedule in (
        dt.StepDecaySchedule(0.5, np.int64(2)),
        dt.ReduceOnPlateauSchedule(0.5, patience=np.int32(1), rel_threshold=0.0),
    ):
        cfg = dt.TrainingConfig(epochs=np.int64(3), batch_size=4, initial_lr=0.1,
                                schedule=schedule, seed=np.int64(7))
        d = str(tmp_path / type(schedule).__name__)
        dt.save_trajectory(dt.train(spec, ds, cfg), d)
        assert dt.load_trajectory(d).config == cfg


def test_a_trajectory_with_the_removed_snapshot_stride_key_is_refused(tmp_path):
    # train places the snapshots itself, so the key is unknown: no shim reads it.
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    ds = dt.synth_gaussian(2, 6, 4, 2.0, 1)
    cfg = dt.TrainingConfig(epochs=3, batch_size=4, initial_lr=0.1)
    dt.save_trajectory(dt.train(spec, ds, cfg), str(tmp_path))
    path = tmp_path / "config.txt"
    path.write_text(path.read_text().replace("seed = 0\n", "seed = 0\nsnapshot_stride = 0\n"))
    with pytest.raises(ConfigError, match=r"unknown config key training\.snapshot_stride"):
        dt.load_trajectory(str(tmp_path))


@pytest.mark.parametrize("rel_threshold", [float("nan"), -3.0, 1.0])
def test_plateau_threshold_must_lie_in_unit_interval(rel_threshold):
    with pytest.raises(ConfigError, match="rel_threshold"):
        dt.ReduceOnPlateauSchedule(0.5, rel_threshold=rel_threshold)
    with pytest.raises(ConfigError, match="rel_threshold"):
        dt.schedule_from_string(f"reduce_on_plateau(factor=0.5,rel_threshold={rel_threshold!r})")


def test_divergence_aborts_with_step_index():
    spec, data = bias_only_probe([0.0])
    cfg = dt.TrainingConfig(epochs=200, batch_size=0, initial_lr=3.0, seed=0)
    with pytest.raises(DivergenceError) as err:
        dt.train(spec, data, cfg, init=np.array([0.0, 1.0]))
    assert err.value.step > 0


def test_batch_schedule_partitions_each_epoch():
    batches = dt.build_batch_schedule(10, 3, 2, seed=4)
    assert len(batches) == 8  # ceil(10/3) = 4 per epoch
    for epoch in range(2):
        seen = np.concatenate(batches[epoch * 4 : (epoch + 1) * 4])
        assert sorted(seen) == list(range(10))
    # batch_starts, which the oracle's step guard counts, matches every schedule.
    for n, batch_size in [(10, 3), (10, 5), (10, 0), (10, 10), (10, 12), (7, 1)]:
        batches = dt.build_batch_schedule(n, batch_size, 3, seed=4)
        assert len(batches) == 3 * len(trainer.batch_starts(n, batch_size))


def test_trajectory_save_load_round_trip(tmp_path):
    spec = dt.ModelSpec("mlp", (4, 5, 2))
    ds = dt.synth_gaussian(2, 12, 4, 2.0, 2)
    cfg = dt.TrainingConfig(epochs=6, batch_size=5, initial_lr=0.05,
                            schedule=dt.ExponentialSchedule(0.98),
                            momentum=0.9, weight_decay=0.01, seed=11)
    rec = dt.train(spec, ds, cfg)
    d = str(tmp_path / "traj")
    dt.save_trajectory(rec, d)
    back = dt.load_trajectory(d)
    assert back.checksum() == rec.checksum()
    _assert_same_record(back, rec)
    # every [model] and [training] key is required, and no other is accepted
    path = Path(d, "config.txt")
    text = path.read_text()
    for bad, key in (
        (text.replace("momentum = 0.9\n", ""), "training.momentum"),
        (text.replace("[model]\n", "[model]\nwidth = 3\n"), "model.width"),
    ):
        path.write_text(bad)
        with pytest.raises(ConfigError, match=re.escape(key)):
            dt.load_trajectory(d)
    path.write_text(text)
    # a None schedule is the constant one, and saves and loads as such
    none_cfg = dt.TrainingConfig(epochs=2, batch_size=5, initial_lr=0.05, schedule=None)
    assert none_cfg.schedule == dt.ConstantSchedule()
    const_dir = str(tmp_path / "const")
    dt.save_trajectory(dt.train(spec, ds, none_cfg), const_dir)
    assert dt.load_trajectory(const_dir).config == none_cfg
    # corrupting a snapshot value is caught by the stored checksum
    blob = Path(d, "snapshots.npy")
    raw = bytearray(blob.read_bytes())
    raw[-8] ^= 0xFF
    blob.write_bytes(bytes(raw))
    with pytest.raises(ReplayDivergenceError):
        dt.load_trajectory(d)


@st.composite
def _trajectory_runs(draw):
    """A small model, training config and data weights; n = 10 samples."""
    schedule = draw(st.one_of(
        st.just(dt.ConstantSchedule()),
        st.builds(dt.StepDecaySchedule, st.floats(0.05, 1.0), st.integers(1, 4)),
        st.builds(dt.ExponentialSchedule, st.floats(0.5, 1.0)),
        st.builds(dt.ReduceOnPlateauSchedule, st.floats(0.05, 1.0), st.integers(1, 3),
                  st.floats(0.0, 0.5)),
    ))
    cfg = dt.TrainingConfig(
        epochs=draw(st.integers(1, 4)),
        batch_size=draw(st.integers(0, 12)),
        initial_lr=draw(st.floats(0.001, 0.3)),
        schedule=schedule,
        momentum=draw(st.sampled_from([0.0, 0.5, 0.9])),
        weight_decay=draw(st.sampled_from([0.0, 0.01])),
        seed=draw(st.integers(0, 2**16)),
    )
    spec = draw(st.sampled_from([dt.ModelSpec("logistic_regression", (4, 2)),
                                 dt.ModelSpec("mlp", (4, 3, 2))]))
    weights = np.array(draw(st.lists(st.floats(-0.05, 0.05), min_size=10, max_size=10)))
    return spec, cfg, weights


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_trajectory_runs())
def test_trajectory_save_load_round_trips_and_replays(run):
    spec, cfg, weights = run
    ds = dt.synth_gaussian(2, 5, 4, 2.0, 1)
    rec = dt.train(spec, ds, cfg, data_weights=weights)
    with tempfile.TemporaryDirectory() as d:
        dt.save_trajectory(rec, d)
        back = dt.load_trajectory(d)
    _assert_same_record(back, rec)
    again = dt.replay(back, ds)  # checks every snapshot bit for bit
    assert np.array_equal(again.final_params, rec.final_params)
    assert np.array_equal(again.losses, rec.losses)


def _same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_record(got, want):
    """Field for field and bit for bit, momentum buffers included."""
    assert (got.model, got.config, got.n_train) == (want.model, want.config, want.n_train)
    for field in ("data_weights", "lrs", "losses", "final_params"):
        assert _same_array(getattr(got, field), getattr(want, field)), field
    assert len(got.batches) == len(want.batches)
    assert all(map(_same_array, got.batches, want.batches))
    for field in ("snapshots", "velocities"):
        g, w = getattr(got, field), getattr(want, field)
        assert list(g) == list(w) and all(_same_array(g[t], w[t]) for t in w), field


def _damage_probe(momentum=0.0):
    """A 12-step record: logistic, 20 samples, batches 6, 6, 6, 2, snapshots at 0, 4, 8, 12."""
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    ds = dt.synth_gaussian(2, 10, 4, 2.0, 1)
    cfg = dt.TrainingConfig(epochs=3, batch_size=6, initial_lr=0.05, momentum=momentum, seed=0)
    return dt.train(spec, ds, cfg)


def _replaced(array, index, value):
    array = array.copy()
    array[index] = value
    return array


# One damaged file of the ``_damage_probe`` record per case: an int cuts that
# many bytes off the end, None deletes the file, and a function re-saves the
# array it returns. The first nine ids name the same damage to the raw files
# the on-disk form held before its ``.npy`` arrays.
DAMAGES = {
    "schedule.bin-2": ("batches.npy", 2),  # inside the last index
    "schedule.bin-4": ("batches.npy", lambda a: a[:-1]),  # one whole index short
    "lrs.bin-8": ("lrs.npy", lambda a: a[:-1]),
    "losses.bin-8": ("losses.npy", lambda a: a[:-1]),
    "weights.bin-8": ("weights.npy", 8),
    "snapshots.bin-8": ("snapshots.npy", 8),
    "snapshots.idx-9": ("steps.npy", lambda a: a[:-1]),  # without the final step
    "snapshots.idx-beyond-T": ("steps.npy", lambda a: _replaced(a, 2, 19)),
    "snapshots.idx-repeated": ("steps.npy", lambda a: _replaced(a, 1, 8)),
    "empty-batch": ("batch_sizes.npy", lambda a: _replaced(a, 3, 0)),
    "index-outside-n": ("batches.npy", lambda a: _replaced(a, 0, 20)),
    "float32-rates": ("lrs.npy", lambda a: a.astype(np.float32)),
    "short-velocities": ("velocities.npy", lambda a: a[:, :-1]),
    "no-velocities": ("velocities.npy", None),
    "no-config": ("config.txt", None),
}


@pytest.mark.parametrize("case", DAMAGES)
def test_damaged_trajectory_file_raises_config_error(tmp_path, case):
    name, damage = DAMAGES[case]
    d = tmp_path / "traj"
    dt.save_trajectory(_damage_probe(), str(d))
    assert np.load(d / "steps.npy").tolist() == [0, 4, 8, 12]
    path = d / name
    if damage is None:
        path.unlink()
    elif isinstance(damage, int):
        path.write_bytes(path.read_bytes()[:-damage])
    else:
        np.save(path, damage(np.load(path)))
    with pytest.raises(ConfigError, match=re.escape(name)):
        dt.load_trajectory(str(d))


def _trajectory_files(directory):
    return {name: Path(directory, name).read_bytes() for name in sorted(os.listdir(directory))}


def _save_parent_format(rec, directory):
    """The raw form that held no momentum buffers: float64 blobs, a snapshot index,
    length-prefixed batches and a checksum over the snapshots alone."""
    os.makedirs(directory)
    steps, P = sorted(rec.snapshots), rec.final_params.size
    digest = hashlib.sha256()
    for t in steps:
        digest.update(struct.pack("<q", t) + rec.snapshots[t].tobytes())
    meta = {"n_train": rec.n_train, "param_count": P, "checksum": digest.hexdigest()}
    Path(directory, "config.txt").write_text(
        rec._text() + "\n" + configtext.write_section("meta", meta))
    np.concatenate([rec.snapshots[t] for t in steps]).tofile(Path(directory, "snapshots.bin"))
    Path(directory, "snapshots.idx").write_text(
        "".join(f"{t} {k * P} {P}\n" for k, t in enumerate(steps)))
    for name, array in (("lrs", rec.lrs), ("losses", rec.losses), ("weights", rec.data_weights)):
        array.tofile(Path(directory, f"{name}.bin"))
    Path(directory, "schedule.bin").write_bytes(b"".join(
        struct.pack("<I", len(b)) + b.astype("<i4").tobytes() for b in rec.batches))


@functools.cache
def _saved_probe():
    """A momentum-0.9 ``_damage_probe`` record and its saved files, ``{name: bytes}``."""
    rec = _damage_probe(momentum=0.9)
    with tempfile.TemporaryDirectory() as d:
        dt.save_trajectory(rec, d)
        return rec, _trajectory_files(d)


def _changed_file_loads_or_is_refused(directory, name, changed):
    """Load ``directory`` with file ``name`` holding ``changed``, then restore it. Either
    the record loads bit for bit as it was saved, or a typed error refuses it."""
    rec, files = _saved_probe()
    path = Path(directory, name)
    path.write_bytes(changed)
    try:
        _assert_same_record(dt.load_trajectory(directory), rec)
    except (ConfigError, ReplayDivergenceError):
        pass
    finally:
        path.write_bytes(files[name])


def test_every_text_byte_change_loads_the_record_or_is_refused(tmp_path):
    # Each byte of config.txt and of each .npy header with its lowest bit
    # flipped (a neighbouring digit or letter, a space into "!"). The array
    # data behind the headers is left to the random changes below.
    rec, files = _saved_probe()
    dt.save_trajectory(rec, str(tmp_path))
    assert _trajectory_files(tmp_path) == files
    for name, raw in files.items():
        text = len(raw) if name == "config.txt" else 10 + int.from_bytes(raw[8:10], "little")
        for at in range(text):
            changed = bytearray(raw)
            changed[at] ^= 0x01
            _changed_file_loads_or_is_refused(str(tmp_path), name, bytes(changed))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_any_single_byte_change_loads_the_record_or_is_refused(data):
    rec, files = _saved_probe()
    name = data.draw(st.sampled_from(sorted(files)))
    at = data.draw(st.integers(0, len(files[name]) - 1))
    changed = bytearray(files[name])
    changed[at] = data.draw(st.integers(0, 255).filter(lambda v: v != changed[at]))
    with tempfile.TemporaryDirectory() as d:
        dt.save_trajectory(rec, d)
        _changed_file_loads_or_is_refused(d, name, bytes(changed))


def test_doubled_rate_and_parent_format_are_refused(tmp_path):
    rec = _damage_probe(momentum=0.9)
    d = tmp_path / "traj"
    dt.save_trajectory(rec, str(d))
    lrs = np.load(d / "lrs.npy")
    np.save(d / "lrs.npy", _replaced(lrs, 3, 2 * lrs[3]))
    with pytest.raises(ReplayDivergenceError, match="checksum"):
        dt.load_trajectory(str(d))
    _save_parent_format(rec, tmp_path / "parent")
    with pytest.raises(ConfigError, match=r"\.npy"):
        dt.load_trajectory(str(tmp_path / "parent"))


def test_saving_a_loaded_record_writes_the_same_bytes(tmp_path):
    rec = _damage_probe(momentum=0.9)
    dt.save_trajectory(rec, str(tmp_path / "a"))
    dt.save_trajectory(dt.load_trajectory(str(tmp_path / "a")), str(tmp_path / "b"))
    first, second = _trajectory_files(tmp_path / "a"), _trajectory_files(tmp_path / "b")
    assert list(first) == ["batch_sizes.npy", "batches.npy", "config.txt", "losses.npy",
                           "lrs.npy", "snapshots.npy", "steps.npy", "velocities.npy",
                           "weights.npy"]
    assert first == second


@pytest.mark.parametrize("n, epochs, snapshots", [
    # 5 steps per epoch: the epoch ends alone
    (20, 4, [0, 4, 8, 12, 16]),
    # one epoch of 40 steps, longer than 4 * ceil(sqrt(40)) = 28: every 7 steps
    (40, 1, [0, 7, 14, 21, 28, 35, 40]),
    # two epochs of 60 steps, T = 120: every 11 steps from each epoch's start
    (60, 2, [0, 11, 22, 33, 44, 55, 60, 71, 82, 93, 104, 115, 120]),
], ids=["per-epoch", "one-long-epoch", "two-long-epochs"])
def test_snapshots_end_every_epoch_and_split_long_ones(n, epochs, snapshots):
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    ds = dt.synth_gaussian(2, n // 2, 4, 2.0, 1)
    batch_size = 5 if n == 20 else 1
    cfg = dt.TrainingConfig(epochs=epochs, batch_size=batch_size, initial_lr=0.05, seed=0)
    rec = dt.train(spec, ds, cfg)
    assert sorted(rec.snapshots) == sorted(rec.velocities) == snapshots


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 80),
    epochs=st.integers(1, 3),
    batch_size=st.sampled_from([0, 1, 2, 3, 7]),
    momentum=st.sampled_from([0.0, 0.9]),
)
def test_every_record_snapshots_on_the_walks_grid(n, epochs, batch_size, momentum):
    # Step 0, every epoch's end and step T, no two snapshots more than
    # 4 * ceil(sqrt(T)) steps apart, and a replay that checks them all.
    spec = dt.ModelSpec("logistic_regression", (3, 2))
    ds = dt.LabeledDataset(np.random.default_rng(n).standard_normal((n, 3)),
                           np.arange(n) % 2, 2)
    cfg = dt.TrainingConfig(epochs=epochs, batch_size=batch_size, initial_lr=0.05,
                            momentum=momentum, weight_decay=0.01, seed=n)
    rec = dt.train(spec, ds, cfg)
    T, per_epoch = rec.steps, rec.steps // epochs
    steps = sorted(rec.snapshots)
    assert steps == sorted(rec.velocities)
    assert {0, T} | set(range(per_epoch, T + 1, per_epoch)) <= set(steps)
    assert max(np.diff(steps)) <= 4 * (math.isqrt(T - 1) + 1)
    again = dt.replay(rec, ds)
    assert sorted(again.snapshots) == steps
    assert all(np.array_equal(again.velocities[t], rec.velocities[t]) for t in steps)


@pytest.mark.parametrize("loss, C", [("squared_error", 1), ("cross_entropy", 2)])
def test_stacked_and_paired_steps_above_the_by_columns_rule_keep_a_solo_runs_bits(loss, C):
    # A solo step of b < 32 C rows stays below models._by_columns' rule; the
    # oracle's stacked replay (3 runs on each batch) and the walk's lockstep
    # re-run (one row set per snapshot) reach it, and must still give the
    # bits of each run alone.
    b = 24 * C
    rng = np.random.default_rng(C)
    X = rng.standard_normal((2 * b, 2))
    Y = rng.integers(C, size=2 * b) if C > 1 else rng.standard_normal((2 * b, 1))
    ds = dt.LabeledDataset(X, Y, C)
    spec = dt.ModelSpec("logistic_regression", (2, C), loss=loss)
    cfg = dt.TrainingConfig(epochs=8, batch_size=b, initial_lr=0.1, momentum=0.5,
                            weight_decay=0.01, seed=3)
    rec = dt.train(spec, ds, cfg)
    dt.replay(rec, ds)
    eps = np.tile(rec.data_weights, (3, 1))
    eps[:, 5] += [1e-3, -1e-3, 0.0]
    stacked = dt.replay(rec, ds, data_weights=eps)
    for r in range(3):
        alone = dt.replay(rec, ds, data_weights=eps[r])
        assert stacked.final_params[r].tobytes() == alone.final_params.tobytes()
        assert stacked.losses[r].tobytes() == alone.losses.tobytes()
    starts = sorted(rec.snapshots)[:-1]
    assert len(starts) * b >= 32 * C > b
    trainer.lockstep(rec, ds, starts, 2, lambda *step: None)  # checks every row's bits


def test_a_solo_step_below_the_broadcast_rule_and_a_stack_above_it_keep_the_same_bits():
    # convex-all's shape: a solo full-batch step of 400 rows of 2 classes stays
    # below models._class_broadcast's rule (200 C^2 = 800 rows), so numpy
    # broadcasts; the oracle's stacked replay of 4 runs (1600 rows) goes by
    # class columns. Each row must keep the bits of its run alone.
    n, C = 400, 2
    rng = np.random.default_rng(4)
    ds = dt.LabeledDataset(rng.standard_normal((n, 5)), rng.integers(C, size=n), C)
    spec = dt.ModelSpec("logistic_regression", (5, C))
    cfg = dt.TrainingConfig(epochs=6, batch_size=0, initial_lr=0.1, momentum=0.5,
                            weight_decay=0.01, seed=3)
    rec = dt.train(spec, ds, cfg)
    rule = models._BROADCAST_ROWS_PER_CLASS_SQUARED * C
    assert not models._by_columns(np.empty((n, C)), rule)
    assert models._by_columns(np.empty((4, n, C)), rule)
    eps = np.tile(rec.data_weights, (4, 1))
    eps[:, 7] += [1e-3, -1e-3, 2e-3, 0.0]
    stacked = dt.replay(rec, ds, data_weights=eps)
    for r in range(4):
        alone = dt.replay(rec, ds, data_weights=eps[r])
        assert stacked.final_params[r].tobytes() == alone.final_params.tobytes()
        assert stacked.losses[r].tobytes() == alone.losses.tobytes()
    assert stacked.final_params[3].tobytes() == rec.final_params.tobytes()


def test_lockstep_rerun_matches_the_run_step_for_step():
    spec = dt.ModelSpec("mlp", (4, 5, 2))
    ds = dt.synth_gaussian(2, 10, 4, 2.0, 1)
    cfg = dt.TrainingConfig(epochs=4, batch_size=6, initial_lr=0.05, momentum=0.9,
                            schedule=dt.ExponentialSchedule(0.95), weight_decay=0.01, seed=5)
    rec = dt.train(spec, ds, cfg)

    def prefix(steps):  # the run's first ``steps`` steps, run again from w_0
        return dt.train(spec, ds, cfg, init=rec.snapshots[0],
                        batches=rec.batches[:steps], lrs=rec.lrs[:steps])

    # the momentum buffer beside each snapshot is the one the run holds there
    assert sorted(rec.velocities) == sorted(rec.snapshots) == [0, 4, 8, 12, 16]
    for step in (4, 8, 12):
        assert np.array_equal(rec.velocities[step], prefix(step).velocities[step])
    contexts = trainer.rerun(rec, ds, [4, 8, 12], 4)
    assert [ctx.step for ctx in contexts] == list(range(5, 17))
    v = np.random.default_rng(0).standard_normal((2, rec.final_params.size))
    for ctx in contexts:
        t = ctx.step
        assert ctx.lr == rec.lrs[t - 1]
        assert np.array_equal(ctx.batch, rec.batches[t - 1])
        # the kept state is the linearization of the batch at the run's w_{t-1}
        w = prefix(t - 1).final_params
        rows = (ds.features[ctx.batch], ds.labels[ctx.batch])
        lin = models.linearize(spec, w, rows)
        assert np.array_equal(ctx.kept.inputs[1], lin.inputs[1])
        assert np.array_equal(ctx.kept.matrices[1], lin.matrices[1])
        assert np.array_equal(ctx.kept.deltas[-1], lin.deltas[-1])
        assert np.array_equal(ctx.kept.soft, lin.soft)
        # and the weights are those the step trained with (here eps = 0)
        weights = np.full(len(ctx.batch), 1.0 / len(ctx.batch))
        assert ctx.weights.tobytes() == weights.tobytes()
        want = dt.hessian_vector_product(spec, w, rows, weights, v)
        assert ctx.batch_hvp(v).tobytes() == want.tobytes()
        assert np.allclose(ctx.sample_gradients([1, 0]),
                           dt.per_sample_gradients(spec, w, (rows[0][[1, 0]], rows[1][[1, 0]])),
                           rtol=1e-12, atol=1e-15)
    with pytest.raises(dt.ShapeError, match="init"):
        dt.train(spec, ds, cfg, init=np.zeros(3))


def test_each_training_step_evaluates_the_model_once(monkeypatch):
    spec = dt.ModelSpec("mlp", (4, 5, 2))
    train_ds, test_ds = gaussian_pair(per_class=10, dim=4, test_per_class=5)
    cfg = dt.TrainingConfig(epochs=3, batch_size=6, initial_lr=0.05, momentum=0.9,
                            weight_decay=0.01, seed=2)
    calls = dict.fromkeys(("subset", "forward", "sample_losses"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dt.LabeledDataset, "subset", counted("subset", dt.LabeledDataset.subset))
    monkeypatch.setattr(models, "_forward", counted("forward", models._forward))
    monkeypatch.setattr(models, "sample_losses", counted("sample_losses", models.sample_losses))
    rec = dt.train(spec, train_ds, cfg)
    T = rec.steps
    assert calls == {"subset": 0, "forward": T, "sample_losses": 0}
    dt.replay(rec, train_ds)
    assert calls == {"subset": 0, "forward": 2 * T, "sample_losses": 0}

    indices = [0, 3, 7]
    hit_steps = sum(bool(np.isin(indices, batch).any()) for batch in rec.batches)
    assert sorted(rec.snapshots) == [0, 4, 8, 12] and hit_steps == 7
    # The three 4-step intervals between snapshots re-run as one lockstep
    # group, one forward per step for all three, and the contributions add
    # one for g_test. Each HVP (one per step) and each read of the
    # gradients of the indices in a step's batch (one per such step) comes
    # from that step's linearization, with no forward of its own. approx
    # re-runs its own groups (here 4 + 4 steps) and reads the hits of all
    # rows of a lockstep step at once.
    from datatrace.hypergrad import _pattern_groups

    kernels = ("_hvp_exact", "_sample_gradients", "gradient_dots")
    for name in kernels:
        monkeypatch.setattr(models, name, counted(name, getattr(models, name)))
    groups = _pattern_groups(rec)
    assert groups == [([0, 4], 4), ([8], 4)]
    lockstep_hits = sum(
        bool(np.isin(indices, np.concatenate([rec.batches[s + j] for s in starts])).any())
        for starts, length in groups
        for j in range(length)
    )
    for run, counts in (
        (lambda: dt.contribution_exact(rec, train_ds, indices, test_ds), (4 + 1, T, 0, hit_steps)),
        (lambda: dt.contribution_approx(rec, train_ds, indices, test_ds),
         (8 + 1, 0, 0, lockstep_hits)),
        (lambda: dt.track_exact(rec, train_ds, indices), (4, T, hit_steps, 0)),
        (lambda: dt.track_approx(rec, train_ds, indices), (4, 0, hit_steps, 0)),
    ):
        calls.update(dict.fromkeys(("forward", *kernels), 0))
        run()
        forward, *reads = counts
        assert calls == {"subset": 0, "forward": forward, "sample_losses": 0,
                         **dict(zip(kernels, reads))}
