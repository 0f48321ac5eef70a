"""Hypergradient tracking: recurrences, contributions, error traces."""

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


def test_approx_mode_never_calls_hvp():
    from datatrace.hypergrad import _Tracker
    from datatrace import trainer as trainer_mod

    spec = dt.ModelSpec("logistic_regression", (4, 2))
    train, _ = gaussian_pair(dim=4, per_class=8)
    cfg = dt.TrainingConfig(epochs=5, batch_size=4, initial_lr=0.05, seed=4)
    rec = dt.train(spec, train, cfg)
    tracker = _Tracker(rec, [0], use_hessian=False)
    trainer_mod.replay(rec, train, step_hook=tracker)
    assert tracker.hvp_calls == 0


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

    spec = dt.ModelSpec("mlp", (4, 5, 2))
    train, _ = gaussian_pair(dim=4, per_class=10)
    cfg = dt.TrainingConfig(epochs=15, batch_size=4, initial_lr=0.02,
                            momentum=0.9, weight_decay=0.01, seed=2)
    rec = dt.train(spec, train, cfg)
    solo = {i: dt.error_trace(rec, train, [i], record_stride=4)[i] for i in (2, 7, 11)}

    calls = count_calls((trainer_mod, "replay"), (models_mod, "power_iteration_max_eig"))
    joint = dt.error_trace(rec, train, [2, 7, 11], record_stride=4)
    assert calls == {"replay": 1, "power_iteration_max_eig": 1}

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

    calls = count_calls((models_mod, "per_sample_gradients"))
    dt.error_trace(rec, train, tracked)
    assert calls == {"per_sample_gradients": hit_steps}


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


def test_tracked_index_validated():
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    train, test = gaussian_pair(dim=4, per_class=5)
    cfg = dt.TrainingConfig(epochs=3, batch_size=0, initial_lr=0.05, seed=0)
    rec = dt.train(spec, train, cfg)
    with pytest.raises(ConfigError):
        dt.track_exact(rec, train, [len(train)])
    with pytest.raises(ConfigError):
        dt.contribution_exact(rec, train, [len(train)], test)
    with pytest.raises(ValueError, match="no training indices"):
        dt.contribution_approx(rec, train, [], test)


# ---------------------------------------------------------------------------
# Reverse mode: contribution_exact / contribution_approx against forward mode.

SCHEDULES = [
    dt.ConstantSchedule(),
    dt.StepDecaySchedule(0.5, 3),
    dt.ExponentialSchedule(0.97),
    dt.ReduceOnPlateauSchedule(0.5, patience=1, rel_threshold=0.2),  # cuts the rate 3-4 times
]


def _adjoint_probe(batch_size, momentum, schedule=dt.ConstantSchedule()):
    spec = dt.ModelSpec("mlp", (4, 5, 2))
    train, test = gaussian_pair(dim=4, per_class=10, test_per_class=3)
    cfg = dt.TrainingConfig(epochs=6, batch_size=batch_size, initial_lr=0.05,
                            schedule=schedule, momentum=momentum, weight_decay=0.01, seed=3)
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
    # 0 while others in the same segment stay near 0.2, so a segment re-run
    # must not measure divergence against its own first loss.
    x = np.array([[8.0], [-8.0], [0.2], [-0.2], [9.0], [-9.0]])
    train = dt.LabeledDataset(x, np.array([1, 0, 1, 0, 1, 0]), 2, "train")
    test = dt.LabeledDataset(np.array([[1.0], [-1.0]]), np.array([1, 0]), 2, "test")
    spec = dt.ModelSpec("logistic_regression", (1, 2))
    cfg = dt.TrainingConfig(epochs=8, batch_size=1, initial_lr=0.5, seed=0)
    rec = dt.train(spec, train, cfg)
    S = 7  # ceil(sqrt(48)) steps per segment
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


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_adjoint_makes_one_hvp_per_step_whatever_the_index_count(mode, count_calls):
    from datatrace import models as models_mod

    train, test, rec = _adjoint_probe(5, 0.9)
    adjoint = getattr(dt, f"contribution_{mode}")
    calls = count_calls((models_mod, "hessian_vector_product"))
    for indices, per_test in (([4], False), (list(range(len(train))), True)):
        calls["hessian_vector_product"] = 0
        report = adjoint(rec, train, indices, test, per_test=per_test)
        assert calls["hessian_vector_product"] == (rec.steps if mode == "exact" else 0)
        assert (report.pair_values is None) == (not per_test)


def test_adjoint_keeps_at_most_sqrt_t_step_contexts(monkeypatch):
    from datatrace import hypergrad

    made = []

    class Counted(hypergrad._Steps):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(hypergrad, "_Steps", Counted)
    train, test, rec = _adjoint_probe(5, 0.9)
    assert rec.steps == 24
    dt.contribution_exact(rec, train, [1, 2], test)
    # one checkpoint pass, then five segments of at most ceil(sqrt(24)) = 5 steps
    assert [len(steps.kept) for steps in made] == [5, 4, 5, 5, 5, 5]


@pytest.mark.parametrize("field, step", [
    ("init", 20),  # the segment over steps 16..20 ends off its checkpoint
    ("velocity", 20),
    ("reference_loss", 16),  # its first step "diverges"; the step counts from step 1
])
def test_corrupted_checkpoint_fails_the_segment_rerun(field, step, monkeypatch):
    from datatrace import trainer as trainer_mod

    train, test, rec = _adjoint_probe(5, 0.9)
    original = trainer_mod.train
    reruns = 0

    def corrupting(*args, **kwargs):
        nonlocal reruns
        if kwargs.get("velocity") is not None:
            reruns += 1
            if reruns == 2:  # the second segment from the end
                kwargs[field] = 1e-30 if field == "reference_loss" else kwargs[field] + 1e-9
        return original(*args, **kwargs)

    dt.contribution_exact(rec, train, [1], test)
    monkeypatch.setattr(trainer_mod, "train", corrupting)
    with pytest.raises(ReplayDivergenceError) as err:
        dt.contribution_exact(rec, train, [1], test)
    assert err.value.step == step


def test_non_finite_adjoint_raises_divergence():
    from datatrace.hypergrad import _adjoint

    train, _, rec = _adjoint_probe(0, 0.0)
    rows = np.full((1, rec.final_params.size), np.inf)
    # (the exact mode's HVP raises NumericError on such input first)
    with pytest.raises(DivergenceError) as err, np.errstate(invalid="ignore"):
        _adjoint(rec, train, [0], rows, use_hessian=False)
    assert err.value.step == rec.steps
