"""Hypergradient tracking: recurrences, contributions, error traces."""

import numpy as np
import pytest

import datatrace as dt
from datatrace.exceptions import ConfigError, ReplayDivergenceError
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


@pytest.mark.parametrize("entry", ["track_exact", "track_approx", "error_trace"])
def test_tracking_rejects_a_dataset_other_than_the_trained_one(entry):
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    train, _ = gaussian_pair(dim=4, per_class=8)
    other, _ = gaussian_pair(dim=4, per_class=8, seed=2)
    cfg = dt.TrainingConfig(epochs=5, batch_size=4, initial_lr=0.05,
                            weight_decay=0.01, seed=0)
    rec = dt.train(spec, train, cfg)
    track = getattr(dt, entry)
    track(rec, train, [0])
    with pytest.raises(ReplayDivergenceError):
        track(rec, other, [0])


def test_tracked_index_validated():
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    train, _ = gaussian_pair(dim=4, per_class=5)
    cfg = dt.TrainingConfig(epochs=3, batch_size=0, initial_lr=0.05, seed=0)
    rec = dt.train(spec, train, cfg)
    with pytest.raises(ConfigError):
        dt.track_exact(rec, train, [len(train)])


def test_states_save_load_round_trip(tmp_path):
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    train, _ = gaussian_pair(dim=4, per_class=6)
    cfg = dt.TrainingConfig(epochs=8, batch_size=4, initial_lr=0.05,
                            weight_decay=0.01, seed=6)
    rec = dt.train(spec, train, cfg)
    states = dt.track_exact(rec, train, [1, 4])
    path = str(tmp_path / "states.bin")
    dt.save_states(states, path)
    back = dt.load_states(path)
    for i in (1, 4):
        assert np.array_equal(back[i].nabla, states[i].nabla)
        assert np.array_equal(back[i].mom_deriv, states[i].mom_deriv)
        assert back[i].mode == "exact" and back[i].step == rec.steps
