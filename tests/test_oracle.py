"""Retraining oracle: finite differences, leave-one-out, cost guards."""

import numpy as np
import pytest

import datatrace as dt
from datatrace import oracle as oracle_mod
from datatrace import trainer
from datatrace.exceptions import ConfigError
from conftest import gaussian_pair, ridge_probe


def test_duplicate_samples_get_equal_oracle_values():
    spec = dt.ModelSpec("logistic_regression", (3, 2))
    rng = np.random.default_rng(0)
    X = rng.standard_normal((6, 3))
    X[3] = X[1]  # exact duplicate
    y = np.array([0, 1, 0, 1, 1, 0])
    train = dt.LabeledDataset(X, y, 2, "train")
    test = dt.LabeledDataset(rng.standard_normal((4, 3)), np.array([0, 1, 0, 1]), 2, "test")
    cfg = dt.TrainingConfig(epochs=60, batch_size=0, initial_lr=0.1,
                            weight_decay=0.01, seed=1)
    a = dt.finite_difference_hypergradient(spec, train, cfg, 1, test)
    b = dt.finite_difference_hypergradient(spec, train, cfg, 3, test)
    assert abs(a.value - b.value) <= 1e-9


def test_ridge_probe_matches_closed_form_chain_rule():
    # converged minimizer c(eps) = sum(w_i a_i) / (sum w_i + lam/2);
    # dL_test/d eps_i = (c* - mean test target) * (a_i - c*) / (1 + lam/2)
    spec, train, test = ridge_probe(targets=(0.0, 2.0), test_targets=(2.0,))
    lam = 0.1
    cfg = dt.TrainingConfig(epochs=2000, batch_size=0, initial_lr=0.1,
                            weight_decay=lam, seed=0)
    rec = dt.train(spec, train, cfg, init=np.zeros(2))
    c_star = 1.0 / (1.0 + lam / 2.0)
    for i, a_i in enumerate((0.0, 2.0)):
        expected = (c_star - 2.0) * (a_i - c_star) / (1.0 + lam / 2.0)
        res = dt.finite_difference_hypergradient(spec, train, cfg, i, test, nominal=rec)
        assert abs(res.value - expected) <= 1e-6


def test_richardson_extrapolation_beats_plain_central_difference():
    spec, train, test = ridge_probe(targets=(0.0, 2.0), test_targets=(2.0,))
    lam = 0.1
    cfg = dt.TrainingConfig(epochs=2000, batch_size=0, initial_lr=0.1,
                            weight_decay=lam, seed=0)
    rec = dt.train(spec, train, cfg, init=np.zeros(2))
    c_star = 1.0 / (1.0 + lam / 2.0)
    expected = (c_star - 2.0) * (0.0 - c_star) / (1.0 + lam / 2.0)
    plain = dt.finite_difference_hypergradient(
        spec, train, cfg, 0, test, nominal=rec, delta=0.05, richardson=False
    )
    extrap = dt.finite_difference_hypergradient(
        spec, train, cfg, 0, test, nominal=rec, delta=0.05, richardson=True
    )
    assert abs(extrap.value - expected) < abs(plain.value - expected)


def test_loo_value_identity_and_checksums():
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    train, test = gaussian_pair(dim=4, per_class=8)
    cfg = dt.TrainingConfig(epochs=40, batch_size=0, initial_lr=0.1,
                            weight_decay=0.01, seed=2)
    res = dt.leave_one_out(spec, train, cfg, 3, test)
    assert res.value == -res.loo_delta * len(train)
    assert res.checksum_plus != res.checksum_minus  # retrained vs nominal params


def test_cost_guard_blocks_large_jobs_unless_forced():
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    train, test = gaussian_pair(dim=4, per_class=150)  # 300 samples
    cfg = dt.TrainingConfig(epochs=2, batch_size=0, initial_lr=0.05, seed=0)
    with pytest.raises(ValueError):
        dt.finite_difference_hypergradient(spec, train, cfg, 0, test)
    res = dt.finite_difference_hypergradient(spec, train, cfg, 0, test, force=True)
    assert np.isfinite(res.value)


@pytest.mark.parametrize("delta", [0.0, -1e-3, float("nan"), float("inf"), float("-inf")])
def test_step_out_of_range_is_refused_before_training(count_calls, delta):
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    train, test = gaussian_pair(dim=4, per_class=8)
    cfg = dt.TrainingConfig(epochs=40, batch_size=0, initial_lr=0.1,
                            weight_decay=0.01, seed=2)
    calls = count_calls((trainer, "train"))
    # ConfigError is a ValueError, the type the delta <= 0 contract names.
    with pytest.raises(ConfigError, match="delta"):
        dt.finite_difference_hypergradient(spec, train, cfg, 0, test, delta=delta)
    assert calls == {"train": 0}


def test_step_guard_counts_the_short_last_batch():
    # 150 samples in batches of 100 make 2 steps per epoch: 6000 steps in all.
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    train, test = gaussian_pair(dim=4, per_class=75)
    cfg = dt.TrainingConfig(epochs=3000, batch_size=100, initial_lr=0.05, seed=0)
    for oracle in (dt.finite_difference_hypergradient, dt.leave_one_out):
        with pytest.raises(ValueError, match="step budget"):
            oracle(spec, train, cfg, 0, test)


@pytest.mark.parametrize("richardson", [True, False])
def test_oracle_call_is_one_stacked_replay(count_calls, richardson):
    spec = dt.ModelSpec("mlp", (4, 5, 2))
    train, test = gaussian_pair(dim=4, per_class=10)
    cfg = dt.TrainingConfig(epochs=10, batch_size=5, initial_lr=0.05,
                            momentum=0.9, weight_decay=0.01, seed=3)
    rec = dt.train(spec, train, cfg)
    calls = count_calls((trainer, "train"))
    res = dt.finite_difference_hypergradient(spec, train, cfg, 4, test, nominal=rec,
                                             richardson=richardson)
    assert calls == {"train": 1}
    # the reported runs are the last pair, at the step actually used
    w = np.zeros(len(train))
    w[4] = res.delta
    plus = dt.replay(rec, train, data_weights=w)
    assert res.loss_plus == dt.test_loss(spec, plus.final_params, test)
    assert res.checksum_plus == oracle_mod._params_checksum(plus.final_params)
    dt.leave_one_out(spec, train, cfg, 4, test, nominal=rec)
    assert calls == {"train": 3}  # the replay above, then one for leave-one-out


def test_oracle_agrees_with_exact_tracking_on_momentum_minibatch():
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    train, test = gaussian_pair(dim=4, per_class=10)
    cfg = dt.TrainingConfig(epochs=30, batch_size=5, initial_lr=0.05,
                            momentum=0.9, weight_decay=0.01, seed=3)
    rec = dt.train(spec, train, cfg)
    idx = [0, 7, 15]
    rep = dt.contribution(rec, dt.track_exact(rec, train, idx), test)
    for i in idx:
        res = dt.finite_difference_hypergradient(spec, train, cfg, i, test, nominal=rec)
        c_oracle = -res.value / len(train)
        assert abs(rep.values[i] - c_oracle) <= 1e-4 * max(abs(c_oracle), 1e-8)


def test_guard_constants_are_sane():
    assert oracle_mod.MAX_ORACLE_SAMPLES == 200
    assert oracle_mod.MAX_ORACLE_STEPS == 5000


def test_a_nominal_record_of_another_model_or_config_is_refused_before_any_replay(count_calls):
    # The replays follow the record while the test loss reads the model given,
    # so a record trained with ReLU scored as an identity MLP would be wrong.
    spec = dt.ModelSpec("mlp", (4, 6, 2))
    train, test = gaussian_pair(dim=4, per_class=10)
    cfg = dt.TrainingConfig(epochs=10, batch_size=5, initial_lr=0.05,
                            momentum=0.9, weight_decay=0.01, seed=3)
    rec = dt.train(spec, train, cfg)
    calls = count_calls((trainer, "train"))
    mismatches = [
        (dt.ModelSpec("mlp", (4, 6, 2), activation="identity"), cfg, "model"),
        (spec, dt.TrainingConfig(epochs=20, batch_size=5, initial_lr=0.05,
                                 momentum=0.9, weight_decay=0.01, seed=3), "config"),
    ]
    for oracle in (dt.finite_difference_hypergradient, dt.leave_one_out):
        for model, config, field in mismatches:
            with pytest.raises(ConfigError, match=f"another {field}"):
                oracle(model, train, config, 4, test, nominal=rec)
    assert calls == {"train": 0}
    dt.leave_one_out(spec, train, cfg, 4, test, nominal=rec)
    assert calls == {"train": 1}


def test_a_stacked_nominal_record_is_refused_before_any_replay(count_calls):
    # A record of two runs (one per row of its data weights) has no one
    # nominal run to perturb: both oracles refuse it as the trackers do.
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    train, test = gaussian_pair(dim=4, per_class=4)
    cfg = dt.TrainingConfig(epochs=3, batch_size=4, initial_lr=0.05, seed=3)
    stacked = dt.replay(dt.train(spec, train, cfg), train, data_weights=np.zeros((2, len(train))))
    calls = count_calls((trainer, "train"))
    for oracle in (dt.finite_difference_hypergradient, dt.leave_one_out):
        with pytest.raises(ConfigError, match=r"oracle takes one run.*\(2, 8\)"):
            oracle(spec, train, cfg, 1, test, nominal=stacked)
    assert calls == {"train": 0}
