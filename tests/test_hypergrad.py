"""Hypergradient tracking: recurrences, contributions, error traces."""

import math
from dataclasses import replace

import numpy as np
import pytest

import datatrace as dt
from datatrace.exceptions import ConfigError, DivergenceError, ReplayDivergenceError
from datatrace.hypergrad import HypergradState
from conftest import bias_only_probe, gaussian_pair


def _scalar_reference(targets, index, lr, lam, steps, mode):
    """Hand-rolled scalar recurrence for the bias-only ridge probe.

    With zero inputs only the bias b moves: per-sample gradient (b - a_i),
    batch-mean Hessian 1, ridge term lam * b. The hypergradient recurrence
    in the bias coordinate (full batch, no momentum) is
        dv = (H + lam) * nabla + g_i        (exact; H = 1)
        dv = lam * nabla + g_i              (approx)
        nabla <- nabla - lr * dv
    alongside the parameter recursion b <- b - lr * (mean(b - a) + lam * b).
    """
    a = np.asarray(targets, dtype=np.float64)
    b = 0.0
    nabla = 0.0
    h = 1.0 if mode == "exact" else 0.0
    for _ in range(steps):
        g_i = b - a[index]
        nabla = nabla - lr * ((h + lam) * nabla + g_i)
        b = b - lr * ((b - a.mean()) + lam * b)
    return nabla


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_recurrence_matches_scalar_reference(mode):
    targets = [0.0, 2.0, -1.0]
    spec, data = bias_only_probe(targets)
    lr, lam, steps = 0.1, 0.05, 40
    cfg = dt.TrainingConfig(epochs=steps, batch_size=0, initial_lr=lr,
                            weight_decay=lam, seed=0)
    rec = dt.train(spec, data, cfg, init=np.zeros(2))
    track = dt.track_exact if mode == "exact" else dt.track_approx
    states = track(rec, data, [1])
    expected = _scalar_reference(targets, 1, lr, lam, steps, mode)
    assert states[1].nabla[0] == 0.0  # weight coordinate never moves (x = 0)
    assert abs(states[1].nabla[1] - expected) <= 1e-12


def test_zero_hypergradient_gives_zero_contribution():
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    train, test = gaussian_pair(dim=4)
    cfg = dt.TrainingConfig(epochs=5, batch_size=0, initial_lr=0.05, seed=0)
    rec = dt.train(spec, train, cfg)
    P = rec.final_params.size
    states = {0: HypergradState(0, "exact", np.zeros(P), np.zeros(P), rec.steps)}
    rep = dt.contribution(rec, states, test)
    assert rep.values[0] == 0.0


def test_contribution_equals_mean_of_pairs():
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    train, test = gaussian_pair(dim=4, test_per_class=7)
    cfg = dt.TrainingConfig(epochs=20, batch_size=5, initial_lr=0.05,
                            weight_decay=0.01, seed=1)
    rec = dt.train(spec, train, cfg)
    states = dt.track_exact(rec, train, [0, 3])
    rep = dt.contribution(rec, states, test, per_test=True)
    for i in (0, 3):
        pairs = [rep.pair_values[(i, j)] for j in range(len(test))]
        assert abs(rep.values[i] - np.mean(pairs)) <= 1e-10


def test_joint_tracking_equals_individual_tracking():
    spec = dt.ModelSpec("mlp", (4, 5, 2))
    train, _ = gaussian_pair(dim=4, per_class=10)
    cfg = dt.TrainingConfig(epochs=15, batch_size=4, initial_lr=0.02,
                            momentum=0.9, weight_decay=0.01, seed=2)
    rec = dt.train(spec, train, cfg)
    for tracked in ([2, 7, 11], [11, 2, 7]):
        joint = dt.track_exact(rec, train, tracked)
        for i in tracked:
            solo = dt.track_exact(rec, train, [i])
            # batched HVPs change the summation order, so equality is to rounding
            assert np.allclose(joint[i].nabla, solo[i].nabla, atol=1e-12, rtol=1e-10)


def test_full_batch_equals_batch_size_n_tracking():
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    train, _ = gaussian_pair(dim=4, per_class=8)
    base = dict(epochs=12, initial_lr=0.05, weight_decay=0.01, seed=3)
    rec_full = dt.train(spec, train, dt.TrainingConfig(batch_size=0, **base))
    rec_n = dt.train(spec, train, dt.TrainingConfig(batch_size=len(train), **base))
    a = dt.track_exact(rec_full, train, [0])[0].nabla
    b = dt.track_exact(rec_n, train, [0])[0].nabla
    assert np.allclose(a, b, atol=1e-12)


def test_approx_mode_never_calls_hvp(count_calls):
    from datatrace import models as models_mod
    from datatrace.hypergrad import _Tracker, _walk

    spec = dt.ModelSpec("logistic_regression", (4, 2))
    train, test = gaussian_pair(dim=4, per_class=8)
    cfg = dt.TrainingConfig(epochs=5, batch_size=4, initial_lr=0.05, seed=4)
    rec = dt.train(spec, train, cfg)
    calls = count_calls((models_mod, "hessian_vector_product"), (models_mod, "_hvp_exact"))
    tracker = _Tracker(rec, [0], use_hessian=False)
    for ctx in _walk(rec, train):
        tracker.advance(ctx, tracker.source(ctx))
    assert tracker.hvp_calls == 0
    dt.track_approx(rec, train, [0])
    dt.contribution_approx(rec, train, [0], test)
    assert calls == {"hessian_vector_product": 0, "_hvp_exact": 0}


def test_ridge_probe_contribution_signs():
    # training target matching the test target helps (C > 0); the opposite hurts
    spec, data = bias_only_probe([0.0, 2.0])
    test = dt.LabeledDataset(np.zeros((1, 1)), np.array([[2.0]]), 1, "test")
    cfg = dt.TrainingConfig(epochs=100, batch_size=0, initial_lr=0.1,
                            weight_decay=0.01, seed=0)
    rec = dt.train(spec, data, cfg, init=np.zeros(2))
    rep = dt.contribution(rec, dt.track_exact(rec, data, [0, 1]), test)
    assert rep.values[1] > 0.0  # pulls b toward the test target 2
    assert rep.values[0] < 0.0  # pulls b away


def test_error_trace_requires_weight_decay():
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    train, _ = gaussian_pair(dim=4, per_class=8)
    cfg = dt.TrainingConfig(epochs=5, batch_size=0, initial_lr=0.05, seed=0)
    rec = dt.train(spec, train, cfg)
    with pytest.raises(ConfigError):
        dt.error_trace(rec, train, [0])


@pytest.mark.parametrize("stride", [0, -1])
def test_error_trace_refuses_a_record_stride_below_one(stride):
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    train, _ = gaussian_pair(dim=4, per_class=8)
    cfg = dt.TrainingConfig(epochs=5, batch_size=0, initial_lr=0.05,
                            weight_decay=0.01, seed=0)
    rec = dt.train(spec, train, cfg)
    with pytest.raises(ConfigError, match="record_stride"):
        dt.error_trace(rec, train, [0], record_stride=stride)


def test_error_trace_bound_holds_on_constant_lr():
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    train, _ = gaussian_pair(dim=4, per_class=10)
    cfg = dt.TrainingConfig(epochs=100, batch_size=0, initial_lr=0.1,
                            weight_decay=0.01, seed=0)
    rec = dt.train(spec, train, cfg)
    trace = dt.error_trace(rec, train, [0], record_stride=5)[0]
    assert np.all(trace.error_norms <= trace.bounds)
    assert trace.lipschitz_estimate > 0.0
    assert trace.nabla_max > 0.0


def test_error_trace_power_iteration_builds_its_hvp_operator_once(monkeypatch, count_calls):
    from datatrace import models as models_mod

    spec = dt.ModelSpec("mlp", (4, 5, 2))
    train, _ = gaussian_pair(dim=4, per_class=10)
    cfg = dt.TrainingConfig(epochs=3, batch_size=0, initial_lr=0.05, weight_decay=0.01, seed=2)
    rec = dt.train(spec, train, cfg)
    calls = count_calls((models_mod, "_HvpOperator"))
    dt.error_trace(rec, train, [1])
    assert calls["_HvpOperator"] == 1  # 200 power-iteration steps, one operator
    # one made at other parameters is refused when the operator is built
    linearize = models_mod.linearize
    monkeypatch.setattr(
        models_mod, "linearize", lambda spec, params, rows: linearize(spec, params + 1e-3, rows)
    )
    with pytest.raises(dt.ShapeError, match="other parameters"):
        dt.error_trace(rec, train, [1])


def test_error_trace_final_error_equals_exact_minus_approx():
    spec = dt.ModelSpec("mlp", (4, 5, 2))
    train, _ = gaussian_pair(dim=4, per_class=10)
    cfg = dt.TrainingConfig(epochs=15, batch_size=4, initial_lr=0.02,
                            momentum=0.9, weight_decay=0.01, seed=2)
    rec = dt.train(spec, train, cfg)
    trace = dt.error_trace(rec, train, [7], record_stride=4)[7]
    exact = dt.track_exact(rec, train, [7])[7].nabla
    approx = dt.track_approx(rec, train, [7])[7].nabla
    assert trace.steps[-1] == rec.steps
    assert trace.error_norms[-1] == np.linalg.norm(exact - approx)


def test_error_trace_over_several_indices_matches_single_traces(count_calls):
    from datatrace import models as models_mod
    from datatrace import trainer as trainer_mod
    from datatrace.hypergrad import _groups

    spec = dt.ModelSpec("mlp", (4, 5, 2))
    train, _ = gaussian_pair(dim=4, per_class=10)
    cfg = dt.TrainingConfig(epochs=15, batch_size=4, initial_lr=0.02,
                            momentum=0.9, weight_decay=0.01, seed=2)
    rec = dt.train(spec, train, cfg)
    solo = {i: dt.error_trace(rec, train, [i], record_stride=4)[i] for i in (2, 7, 11)}

    calls = count_calls(
        (trainer_mod, "replay"),
        (trainer_mod, "rerun"),
        (models_mod, "power_iteration_max_eig"),
        (models_mod, "linearize"),
    )
    joint = dt.error_trace(rec, train, [2, 7, 11], record_stride=4)
    # one walk: one re-run per lockstep group; the power iteration applies H
    # at w_T from one linearization
    assert calls == {
        "replay": 0, "rerun": len(_groups(rec)), "power_iteration_max_eig": 1, "linearize": 1
    }

    assert list(joint) == [2, 7, 11]
    assert len({trace.lipschitz_estimate for trace in joint.values()}) == 1
    for i, trace in joint.items():
        assert trace.sample_index == i
        assert np.array_equal(trace.steps, solo[i].steps)
        assert trace.lipschitz_estimate == solo[i].lipschitz_estimate
        # batched HVPs change the summation order, so equality is to rounding
        for field in ("error_norms", "bounds", "nabla_max"):
            assert np.allclose(getattr(trace, field), getattr(solo[i], field),
                               rtol=1e-10, atol=1e-12)


def test_error_trace_computes_per_sample_gradients_once_per_step(count_calls):
    from datatrace import models as models_mod

    spec = dt.ModelSpec("mlp", (4, 5, 2))
    train, _ = gaussian_pair(dim=4, per_class=10)
    cfg = dt.TrainingConfig(epochs=6, batch_size=4, initial_lr=0.02,
                            momentum=0.9, weight_decay=0.01, seed=2)
    rec = dt.train(spec, train, cfg)
    tracked = [2, 7, 11]
    hit_steps = sum(bool(np.isin(tracked, batch).any()) for batch in rec.batches)
    assert 0 < hit_steps < rec.steps

    # from the walk's kept state: the model is not evaluated again
    calls = count_calls((models_mod, "per_sample_gradients"), (models_mod, "_sample_gradients"))
    dt.error_trace(rec, train, tracked)
    assert calls == {"per_sample_gradients": 0, "_sample_gradients": hit_steps}


@pytest.mark.parametrize("track", ["track_exact", "track_approx"])
def test_repeated_index_is_tracked_once(track):
    spec = dt.ModelSpec("mlp", (4, 5, 2))
    train, test = gaussian_pair(dim=4, per_class=10)
    cfg = dt.TrainingConfig(epochs=10, batch_size=4, initial_lr=0.02,
                            momentum=0.9, weight_decay=0.01, seed=2)
    rec = dt.train(spec, train, cfg)
    repeated = getattr(dt, track)(rec, train, [7, 2, 7, 7])
    distinct = getattr(dt, track)(rec, train, [7, 2])
    assert list(repeated) == [7, 2]
    for i in (7, 2):
        assert np.array_equal(repeated[i].nabla, distinct[i].nabla)
        assert np.array_equal(repeated[i].mom_deriv, distinct[i].mom_deriv)
    assert dt.contribution(rec, repeated, test).values == \
        dt.contribution(rec, distinct, test).values


@pytest.mark.parametrize("entry", [
    "track_exact", "track_approx", "error_trace", "contribution_exact", "contribution_approx",
])
def test_tracking_rejects_a_dataset_other_than_the_trained_one(entry):
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    train, test = gaussian_pair(dim=4, per_class=8)
    other, _ = gaussian_pair(dim=4, per_class=8, seed=2)
    cfg = dt.TrainingConfig(epochs=5, batch_size=4, initial_lr=0.05,
                            weight_decay=0.01, seed=0)
    rec = dt.train(spec, train, cfg)
    extra = (test,) if entry.startswith("contribution") else ()
    track = getattr(dt, entry)
    track(rec, train, [0], *extra)
    with pytest.raises(ReplayDivergenceError):
        track(rec, other, [0], *extra)


def test_tracked_index_validated(monkeypatch):
    from datatrace import trainer as trainer_mod

    spec = dt.ModelSpec("logistic_regression", (4, 2))
    train, test = gaussian_pair(dim=4, per_class=5)
    # (weight decay, so that error_trace reaches its index check)
    cfg = dt.TrainingConfig(epochs=3, batch_size=0, initial_lr=0.05, weight_decay=0.01, seed=0)
    rec = dt.train(spec, train, cfg)
    with pytest.raises(ConfigError):
        dt.track_exact(rec, train, [len(train)])
    with pytest.raises(ConfigError):
        dt.contribution_exact(rec, train, [len(train)], test)
    # an empty list is refused before any re-run, by every entry that walks
    def no_rerun(*args):
        raise AssertionError("re-run before the index check")

    monkeypatch.setattr(trainer_mod, "lockstep", no_rerun)
    for walk in (
        lambda: dt.contribution_approx(rec, train, [], test),
        lambda: dt.contribution_exact(rec, train, [], test),
        lambda: dt.track_exact(rec, train, []),
        lambda: dt.track_approx(rec, train, []),
        lambda: dt.error_trace(rec, train, []),
    ):
        with pytest.raises(ValueError, match="no training indices"):
            walk()


# ---------------------------------------------------------------------------
# Reverse mode: contribution_exact / contribution_approx against forward mode.

SCHEDULES = [
    dt.ConstantSchedule(),
    dt.StepDecaySchedule(0.5, 3),
    dt.ExponentialSchedule(0.97),
    dt.ReduceOnPlateauSchedule(0.5, patience=1, rel_threshold=0.2),  # cuts the rate 3-4 times
]


def _adjoint_probe(batch_size, momentum, schedule=dt.ConstantSchedule(), test_per_class=3,
                   spec=dt.ModelSpec("mlp", (4, 5, 2)), per_class=10, **config):
    train, test = gaussian_pair(dim=4, per_class=per_class, test_per_class=test_per_class)
    cfg = dt.TrainingConfig(**{
        "epochs": 6, "batch_size": batch_size, "initial_lr": 0.05, "schedule": schedule,
        "momentum": momentum, "weight_decay": 0.01, "seed": 3, **config,
    })
    return train, test, dt.train(spec, train, cfg)


@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: type(s).__name__)
@pytest.mark.parametrize("momentum", [0.0, 0.9])
@pytest.mark.parametrize("batch_size", [0, 5])
def test_adjoint_matches_forward_tracking(batch_size, momentum, schedule):
    train, test, rec = _adjoint_probe(batch_size, momentum, schedule)
    # 6 full-batch steps run as segments of 3; 24 mini-batch steps as 5+5+5+5+4
    indices = [17, 3, 0, 17, 12]
    for track, adjoint in ((dt.track_exact, dt.contribution_exact),
                           (dt.track_approx, dt.contribution_approx)):
        forward = dt.contribution(rec, track(rec, train, indices), test, per_test=True)
        reverse = adjoint(rec, train, indices, test, per_test=True)
        assert reverse.method == forward.method
        assert list(reverse.values) == list(forward.values) == [17, 3, 0, 12]
        assert list(reverse.pair_values) == list(forward.pair_values)
        for got, want in ((reverse.values, forward.values),
                          (reverse.pair_values, forward.pair_values)):
            assert np.allclose(list(got.values()), list(want.values()), rtol=1e-10, atol=0.0)


def test_adjoint_keeps_the_runs_divergence_reference():
    # Separable data, no weight decay, batch size 1: late batch losses reach
    # 0 while others in the same interval stay near 0.2, so the re-run of an
    # interval must not measure divergence against its own first loss.
    x = np.array([[8.0], [-8.0], [0.2], [-0.2], [9.0], [-9.0]])
    train = dt.LabeledDataset(x, np.array([1, 0, 1, 0, 1, 0]), 2, "train")
    test = dt.LabeledDataset(np.array([[1.0], [-1.0]]), np.array([1, 0]), 2, "test")
    spec = dt.ModelSpec("logistic_regression", (1, 2))
    cfg = dt.TrainingConfig(epochs=8, batch_size=1, initial_lr=0.5, seed=0)
    rec = dt.train(spec, train, cfg)
    S = 6  # steps between the per-epoch snapshots
    assert any(
        rec.losses[k : k + S].max() > 1e6 * (rec.losses[k] + 1e-12)
        for k in range(0, rec.steps, S)
    )
    for track, adjoint in ((dt.track_exact, dt.contribution_exact),
                           (dt.track_approx, dt.contribution_approx)):
        forward = dt.contribution(rec, track(rec, train, range(6)), test, per_test=True)
        reverse = adjoint(rec, train, range(6), test, per_test=True)
        for got, want in ((reverse.values, forward.values),
                          (reverse.pair_values, forward.pair_values)):
            assert np.allclose(list(got.values()), list(want.values()), rtol=1e-10, atol=0.0)


def test_exact_walk_on_a_weighted_record_matches_the_oracle():
    # A record trained with data weights eps: each step's Hessian term is of
    # the loss under its members' weights 1/b + n * eps_i / b, as trained.
    # With the uniform 1/b instead, C(i) here is 27-53 % off the oracle.
    train = dt.synth_gaussian(2, 15, 3, 1.5, 1)
    test = dt.synth_gaussian(2, 5, 3, 1.5, 2)
    spec = dt.ModelSpec("mlp", (3, 6, 2), "identity")
    cfg = dt.TrainingConfig(epochs=20, batch_size=0, initial_lr=0.1, weight_decay=0.01,
                            momentum=0.5)
    eps = np.random.default_rng(0).uniform(-1 / 30, 1 / 30, 30) * 0.9
    rec = dt.train(spec, train, cfg, data_weights=eps)
    indices = [0, 5, 9]
    oracle = dt.oracle_results_to_report(
        [dt.finite_difference_hypergradient(spec, train, cfg, i, test, delta=1e-5, nominal=rec)
         for i in indices],
        len(train),
    ).values
    reverse = dt.contribution_exact(rec, train, indices, test).values
    forward = dt.contribution(rec, dt.track_exact(rec, train, indices), test).values
    for i in indices:
        assert reverse[i] == pytest.approx(oracle[i], rel=1e-6, abs=0.0)
        assert forward[i] == pytest.approx(oracle[i], rel=1e-6, abs=0.0)
    # the bound's power iteration weights H with the run's 1/n + eps_i too
    weights = 1.0 / len(train) + eps
    L = dt.power_iteration_max_eig(
        lambda v: dt.hessian_vector_product(spec, rec.final_params, train, weights, v),
        dim=rec.final_params.size, seed=cfg.seed,
    )
    assert dt.error_trace(rec, train, [0])[0].lipschitz_estimate == L


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_adjoint_makes_one_hvp_per_step_whatever_the_index_count(mode, count_calls):
    from datatrace import models as models_mod

    train, test, rec = _adjoint_probe(5, 0.9)
    adjoint = getattr(dt, f"contribution_{mode}")
    # each HVP reads the re-run's kept state: the R-operator alone, no raw-row call
    calls = count_calls((models_mod, "hessian_vector_product"), (models_mod, "_hvp_exact"))
    hvps = rec.steps if mode == "exact" else 0
    for indices, per_test in (([4], False), (list(range(len(train))), True)):
        calls.update(hessian_vector_product=0, _hvp_exact=0)
        report = adjoint(rec, train, indices, test, per_test=per_test)
        assert calls == {"hessian_vector_product": 0, "_hvp_exact": hvps}
        assert (report.pair_values is None) == (not per_test)
    # forward mode: one HVP per step for all tracked samples, none in approx mode
    calls.update(hessian_vector_product=0, _hvp_exact=0)
    getattr(dt, f"track_{mode}")(rec, train, [4, 9])
    assert calls == {"hessian_vector_product": 0, "_hvp_exact": hvps}


@pytest.mark.parametrize("config, snapshots, kept", [
    # intervals of L = 4 steps in groups of G = min(5, 4 * 5 // 4) = 5, last
    # group first: 4 * ceil(sqrt(24)) = 20 vectors at most
    (dict(batch_size=5), [0, 4, 8, 12, 16, 20, 24], [4, 20]),
    # one epoch of 40 steps is longer than 4 * ceil(sqrt(40)) = 28: train
    # snapshots it every 7 steps, grouped as 7 * 4 | 7 | 5
    (dict(batch_size=1, epochs=1, per_class=20), [0, 7, 14, 21, 28, 35, 40], [5, 7, 28]),
    # full batch, L = 1: 6 steps in groups of min(3, 4 * 3) = 3
    (dict(batch_size=0, spec=dt.ModelSpec("logistic_regression", (4, 2))),
     [0, 1, 2, 3, 4, 5, 6], [3, 3]),
], ids=["per-epoch-snapshots", "one-long-epoch", "logistic-full-batch"])
def test_adjoint_group_keeps_at_most_4_ceil_sqrt_t_parameter_vectors(
    config, snapshots, kept, monkeypatch
):
    from datatrace import trainer as trainer_mod

    original = trainer_mod.rerun
    made = []

    def counted(record, dataset, starts, length):
        contexts = original(record, dataset, starts, length)
        made.append(len(contexts))  # one kept step state per context
        # Each state, with the step's batch weights, keeps no more floats than
        # a parameter vector plus a copy of the step's rows (inputs and
        # labels), which the walk kept before.
        P = record.final_params.size
        for ctx in contexts:
            state = ctx.kept
            assert state.params is state.losses is state.act_grads is None
            kept = [ctx.weights, *state.inputs, *state.matrices, *state.deltas, state.soft]
            rows = dataset.features[ctx.batch].size + dataset.labels[ctx.batch].size
            assert sum(a.size for a in kept if a is not None) <= P + rows
        return contexts

    train, test, rec = _adjoint_probe(momentum=0.9, **config)
    assert sorted(rec.snapshots) == snapshots
    forward = dt.contribution(rec, dt.track_exact(rec, train, [1, 2]), test, per_test=True)
    monkeypatch.setattr(trainer_mod, "rerun", counted)
    reverse = dt.contribution_exact(rec, train, [1, 2], test, per_test=True)
    assert made == kept
    for got, want in ((reverse.values, forward.values),
                      (reverse.pair_values, forward.pair_values)):
        assert np.allclose(list(got.values()), list(want.values()), rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("field, step", [
    ("snapshots", 20),  # the interval 16..20 starts off its snapshot
    ("velocities", 20),
])
def test_perturbed_snapshot_or_velocity_fails_its_interval_rerun(field, step):
    # Forward mode walks the same intervals, so it names the same step, and
    # so does approx, which reads each re-run step before the re-run's checks
    # and walks its own groups last first.
    train, test, rec = _adjoint_probe(5, 0.9)
    runs = [
        lambda: dt.contribution_exact(rec, train, [1], test),
        lambda: dt.contribution_approx(rec, train, [1], test),
        lambda: dt.track_exact(rec, train, [1]),
        lambda: dt.track_approx(rec, train, [1]),
        lambda: dt.error_trace(rec, train, [1]),
    ]
    for run in runs:
        run()
    getattr(rec, field)[16] = getattr(rec, field)[16] + 1e-9
    for run in runs:
        with pytest.raises(ReplayDivergenceError) as err:
            run()
        assert err.value.step == step


@pytest.mark.parametrize("source", ["memory", "disk"])
@pytest.mark.parametrize("estimator", [
    "replay", "contribution_exact", "contribution_approx", "track_exact", "track_approx",
    "error_trace",
])
@pytest.mark.parametrize("step, value", [(1, np.nan), (11, 0.5)])
def test_damaged_recorded_loss_is_caught(step, value, estimator, source, tmp_path):
    train, test, rec = _adjoint_probe(5, 0.9)
    losses = rec.losses.copy()
    assert losses[step - 1] != value
    losses[step - 1] = value
    if source == "disk":  # refused at load, before any estimator runs
        dt.save_trajectory(rec, str(tmp_path))
        np.save(tmp_path / "losses.npy", losses)
        with pytest.raises(ReplayDivergenceError, match="checksum"):
            dt.load_trajectory(str(tmp_path))
        return
    rec = replace(rec, losses=losses)
    with pytest.raises(ReplayDivergenceError) as err:
        if estimator == "replay":
            dt.replay(rec, train)
        else:
            extra = (test,) if estimator.startswith("contribution") else ()
            getattr(dt, estimator)(rec, train, [1, 2], *extra)
    assert err.value.step == step


@pytest.mark.parametrize("entry", [
    "track_exact", "track_approx", "error_trace", "contribution_exact", "contribution_approx",
])
def test_tracking_refuses_a_stacked_record(entry, count_calls):
    from datatrace import models as models_mod

    train, test, rec = _adjoint_probe(5, 0.9)
    stacked = dt.replay(rec, train, data_weights=np.zeros((3, len(train))))
    extra = (test,) if entry.startswith("contribution") else ()
    calls = count_calls((models_mod, "loss_and_gradient"), (models_mod, "per_sample_gradients"))
    with pytest.raises(ConfigError, match="stack of data weights"):
        getattr(dt, entry)(stacked, train, [1], *extra)
    assert calls == {"loss_and_gradient": 0, "per_sample_gradients": 0}


# Probes whose snapshot intervals group in several ways (20 samples, 24
# steps unless noted), with their groups as (intervals, length) per group.
GROUPING_PROBES = {
    # one epoch of 40 steps, snapshotted every 7, with a short last interval:
    # 7, 7, 7, 7 | 7 | 5
    "long_epoch": (dict(batch_size=1, epochs=1, per_class=20), [(4, 7), (1, 7), (1, 5)]),
    # a short last batch (6, 6, 6, 2) in every interval
    "short_batch": (dict(batch_size=6), [(5, 4), (1, 4)]),
    # L = 1, so every snapshot is checked: 30 steps in groups of ceil(sqrt(30))
    "full_batch": (dict(batch_size=0, epochs=30), [(6, 1)] * 5),
    "plateau": (dict(batch_size=5, schedule=dt.ReduceOnPlateauSchedule(
        0.5, patience=1, rel_threshold=0.2)), [(5, 4), (1, 4)]),
    "exponential": (dict(batch_size=5, schedule=dt.ExponentialSchedule(0.97)),
                    [(5, 4), (1, 4)]),
}

# C(17), C(3), then C(i, j) in key order over two test samples, as float.hex,
# with each row of the adjoint's state contracted on its own, so C(17) and
# C(3) are the bits of the run without ``per_test``. Recorded when each C(i)
# term became a directional derivative read from the re-run and approx a
# forward walk on closed-form step weights (within 2.8e-14 relative of the
# values before).
# The long_epoch pins were recorded when the walk re-snapshotted a record
# with one snapshot per epoch by a replay, on the same grid.
ADJOINT_PINS = {
    ("long_epoch", "exact"): (
        "0x1.3101b8f8ad8c0p-4", "-0x1.bf0f75fb3c37ap-2", "-0x1.cd6fe4c18e57bp-1",
        "0x1.cc0dd8ca440c6p-6", "0x1.34056c3db9039p-3", "-0x1.81d9a285bbf10p-10",
    ),
    ("long_epoch", "approx"): (
        "0x1.981b2a4587685p-4", "0x1.df6cd82f06d2bp-4", "0x1.2d1246e977d5ap-2",
        "-0x1.eaded68fa3628p-5", "0x1.cd8f4ea882702p-3", "-0x1.aba12317d83e8p-6",
    ),
    ("short_batch", "exact"): (
        "0x1.9d50037a1f72dp-8", "-0x1.363789768f50dp-7", "-0x1.2d0fbf3203235p-6",
        "-0x1.24f9489185b56p-11", "-0x1.aa873b7d4060ep-8", "0x1.3949d09c5fd1ap-6",
    ),
    ("short_batch", "approx"): (
        "0x1.3adc21c0620b6p-8", "0x1.38212a79eb53ep-6", "0x1.fbb36d052bf42p-5",
        "-0x1.8724851681408p-6", "-0x1.ff6dfa476a415p-6", "0x1.4e6e0593cda38p-5",
    ),
    ("full_batch", "exact"): (
        "0x1.3bfc733f4609ep-8", "-0x1.918d2b25c3ed4p-7", "-0x1.84d4824ba7546p-6",
        "-0x1.97151b4393178p-11", "-0x1.5feabb3c28d38p-7", "0x1.4df3973db76ecp-6",
    ),
    ("full_batch", "approx"): (
        "0x1.b70a3e6b386e6p-9", "0x1.da78120bf4388p-6", "0x1.5573ce4fb2ee6p-4",
        "-0x1.a0df1526e3486p-6", "-0x1.7e310b4ffe076p-5", "0x1.b512531d65155p-5",
    ),
    ("plateau", "exact"): (
        "0x1.9f28fa100674ep-7", "-0x1.43aa4c2629ddap-8", "-0x1.abc4758329133p-14",
        "-0x1.4052c33b238b6p-7", "-0x1.e8c0a74589545p-7", "0x1.49c4a6d9658f6p-5",
    ),
    ("plateau", "approx"): (
        "0x1.f446e9846753ap-7", "-0x1.949746addb7c6p-13", "0x1.6159fd97b16aap-5",
        "-0x1.64832c250d21ap-5", "-0x1.e5a3b2bda19b6p-6", "0x1.ecf54e210477ap-5",
    ),
    ("exponential", "exact"): (
        "0x1.a442fbf68decap-7", "-0x1.bea6903cc4e52p-8", "-0x1.34779b06e88e5p-7",
        "-0x1.145dea6bb8adfp-8", "-0x1.6f1af1a1f7fc2p-7", "0x1.2de83a63c4f53p-5",
    ),
    ("exponential", "approx"): (
        "0x1.d961d12dac90bp-7", "0x1.661196d2ae290p-7", "0x1.fb1949d497263p-5",
        "-0x1.48107e6b4011ap-5", "-0x1.1a3d9636141a7p-5", "0x1.03773f6675316p-4",
    ),
}


@pytest.mark.parametrize("mode", ["exact", "approx"])
@pytest.mark.parametrize("probe", [*GROUPING_PROBES, "loaded"])
def test_adjoint_values_are_pinned_bit_for_bit(probe, mode, tmp_path):
    from datatrace.hypergrad import _groups

    config, groups = GROUPING_PROBES["short_batch" if probe == "loaded" else probe]
    train, test, rec = _adjoint_probe(momentum=0.9, test_per_class=1, **config)
    assert [(len(starts), length) for starts, length in _groups(rec)] == groups
    if probe == "loaded":  # momentum 0.9, buffers read from disk: equal to the record in memory
        dt.save_trajectory(rec, str(tmp_path))
        loaded = dt.load_trajectory(str(tmp_path))
        assert loaded.velocities.keys() == rec.velocities.keys()
        assert all(np.array_equal(loaded.velocities[t], rec.velocities[t]) for t in rec.velocities)
        rec, probe = loaded, "short_batch"
    report = getattr(dt, f"contribution_{mode}")(rec, train, [17, 3], test, per_test=True)
    pairs = report.pair_values
    got = [*report.values.values(), *(pairs[key] for key in sorted(pairs))]
    assert [value.hex() for value in got] == list(ADJOINT_PINS[probe, mode])


@pytest.mark.parametrize("batch_size", [0, 6])
def test_loaded_record_without_momentum_gives_the_in_memory_values(batch_size, tmp_path):
    train, test, rec = _adjoint_probe(batch_size, 0.0)
    dt.save_trajectory(rec, str(tmp_path))
    loaded = dt.load_trajectory(str(tmp_path))
    for adjoint in (dt.contribution_exact, dt.contribution_approx):
        want = adjoint(rec, train, range(len(train)), test, per_test=True)
        got = adjoint(loaded, train, range(len(train)), test, per_test=True)
        assert got.values == want.values and got.pair_values == want.pair_values


def test_loaded_record_with_momentum_walks_without_training(tmp_path, count_calls):
    # The buffers are on disk, so no estimator replays the run to fill them.
    from datatrace import trainer as trainer_mod

    train, test, rec = _adjoint_probe(5, 0.9)
    dt.save_trajectory(rec, str(tmp_path))
    loaded = dt.load_trajectory(str(tmp_path))
    calls = count_calls((trainer_mod, "train"))
    for adjoint in (dt.contribution_exact, dt.contribution_approx):
        want = adjoint(rec, train, [1, 7, 19], test, per_test=True)
        got = adjoint(loaded, train, [1, 7, 19], test, per_test=True)
        assert got.values == want.values and got.pair_values == want.pair_values
    for track in (dt.track_exact, dt.track_approx):
        want, got = track(rec, train, [1, 7]), track(loaded, train, [1, 7])
        assert all(np.array_equal(got[i].nabla, want[i].nabla) for i in (1, 7))
    want, got = dt.error_trace(rec, train, [1, 7]), dt.error_trace(loaded, train, [1, 7])
    for i in (1, 7):
        assert np.array_equal(got[i].error_norms, want[i].error_norms)
        assert np.array_equal(got[i].bounds, want[i].bounds)
    assert calls == {"train": 0}


@pytest.mark.parametrize("batch_size", [0, 5])
def test_contribution_does_not_depend_on_per_test(batch_size):
    # Each row of the test side is contracted on its own, so asking for the
    # pairs leaves C(i) bit for bit as it is.
    train, test, rec = _adjoint_probe(batch_size, 0.9)
    index = list(range(len(train)))
    runs = {
        "exact": lambda per_test: dt.contribution_exact(rec, train, index, test, per_test),
        "approx": lambda per_test: dt.contribution_approx(rec, train, index, test, per_test),
    }
    for track in (dt.track_exact, dt.track_approx):
        states = track(rec, train, index)
        runs[track.__name__] = lambda per_test, s=states: dt.contribution(rec, s, test, per_test)
    for name, run in runs.items():
        plain, paired = run(False), run(True)
        assert plain.pair_values is None and paired.pair_values, name
        assert [v.hex() for v in paired.values.values()] == [
            v.hex() for v in plain.values.values()
        ], name


def test_non_finite_adjoint_raises_divergence():
    from datatrace.hypergrad import _adjoint

    train, _, rec = _adjoint_probe(0, 0.0)
    rows = np.full((1, rec.final_params.size), np.inf)
    with pytest.raises(DivergenceError) as err, np.errstate(invalid="ignore"):
        _adjoint(rec, train, [0], rows)
    assert err.value.step == rec.steps


def test_approx_groups_equal_pattern_intervals_that_are_not_adjacent(count_calls):
    # Two epochs of 40 steps at batch 1 (T = 80), snapshotted every 9 steps
    # from each epoch's start: intervals 9, 9, 9, 9, 4 per epoch, so the two
    # short end-of-epoch intervals are equal and not adjacent.
    from datatrace import trainer as trainer_mod
    from datatrace.hypergrad import _groups, _pattern_groups

    train, test, rec = _adjoint_probe(1, 0.9, per_class=20, epochs=2)
    T = rec.steps
    assert T == 80 and sorted(rec.snapshots) == [0, 9, 18, 27, 36, 40, 49, 58, 67, 76, 80]
    # exact: only adjacent intervals group, so each short one re-runs alone
    assert _groups(rec) == [([0, 9, 18, 27], 9), ([36], 4), ([40, 49, 58, 67], 9), ([76], 4)]
    # approx: the short intervals, one epoch apart, pair up
    assert _pattern_groups(rec) == [([0, 9, 18, 27], 9), ([40, 49, 58, 67], 9), ([36, 76], 4)]

    calls = count_calls((trainer_mod, "_step"))
    reverse = dt.contribution_approx(rec, train, range(len(train)), test, per_test=True)
    assert calls["_step"] == 9 + 9 + 4
    calls["_step"] = 0
    dt.contribution_exact(rec, train, [0], test)
    assert calls["_step"] == 9 + 4 + 9 + 4

    forward = dt.contribution(rec, dt.track_approx(rec, train, range(len(train))), test,
                              per_test=True)
    for got, want in ((reverse.values, forward.values),
                      (reverse.pair_values, forward.pair_values)):
        assert list(got) == list(want)
        assert np.allclose(list(got.values()), list(want.values()), rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("entry", [
    "track_exact", "track_approx", "error_trace", "contribution_exact",
])
def test_walk_refuses_a_snapshot_gap_longer_than_4_ceil_sqrt_t(entry, count_calls):
    # A hand-built record with snapshots at 0 and T only: the walk would keep
    # all 40 steps, over 4 * ceil(sqrt(40)) = 28, so it refuses before any re-run.
    from datatrace import trainer as trainer_mod

    train, test, rec = _adjoint_probe(1, 0.9, per_class=20, epochs=1)
    T = rec.steps
    sparse = replace(rec, snapshots={t: rec.snapshots[t] for t in (0, T)},
                     velocities={t: rec.velocities[t] for t in (0, T)})
    extra = (test,) if entry.startswith("contribution") else ()
    calls = count_calls((trainer_mod, "lockstep"), (trainer_mod, "train"))
    with pytest.raises(ConfigError, match=r"steps 0 and 40 lie 40 steps apart.* = 28"):
        getattr(dt, entry)(sparse, train, [1, 2], *extra)
    assert calls == {"lockstep": 0, "train": 0}


# Exact C(17), C(3), C(150) of long-epoch records of the MLP 20-64-10 (n = 200,
# momentum 0.9), as float.hex, recorded when the walk re-snapshotted such a
# record by a replay every ceil(sqrt(T)) steps from step 0: the new grid of
# the two-epoch record differs (its epoch end, step 100, is a snapshot), and
# the values may not.
LONG_EPOCH_PINS = {
    (1, 4, 0.05): ("-0x1.2662116ccd57ep-5", "-0x1.3e24ab1859332p-6", "-0x1.1da42be5cd0a4p-4"),
    (2, 2, 0.01): ("-0x1.3cafae5750e1dp-7", "-0x1.e596ff3cb6834p-7", "0x1.3ddea9b4cf368p-10"),
}


@pytest.mark.parametrize("epochs, batch_size, lr", LONG_EPOCH_PINS)
def test_long_epoch_exact_values_are_pinned_bit_for_bit(epochs, batch_size, lr):
    train = dt.synth_gaussian(10, 20, 20, 3.0, 4, "train")
    test = dt.synth_gaussian(10, 1, 20, 3.0, 5, "test")
    cfg = dt.TrainingConfig(epochs=epochs, batch_size=batch_size, initial_lr=lr, momentum=0.9,
                            weight_decay=0.01, seed=3)
    rec = dt.train(dt.ModelSpec("mlp", (20, 64, 10)), train, cfg)
    assert rec.steps // epochs > 4 * math.ceil(math.sqrt(rec.steps))
    report = dt.contribution_exact(rec, train, [17, 3, 150], test)
    assert [value.hex() for value in report.values.values()] == list(
        LONG_EPOCH_PINS[epochs, batch_size, lr]
    )
