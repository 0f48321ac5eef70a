"""Influence baseline: inverse-HVP solvers and final-parameter influence."""

import sys

import numpy as np
import pytest
from scipy import stats as scipy_stats

import datatrace as dt
from datatrace import models
from datatrace.exceptions import ConfigError, ConvergenceError, ScalingError
from conftest import gaussian_pair, ridge_probe

# The package re-exports the function ``influence`` under the module's name.
influence_module = sys.modules["datatrace.influence"]


def _sign_flip_probe():
    """Converged ridge probe with x = +/-1 so the mean Hessian is the identity."""
    spec = dt.ModelSpec("logistic_regression", (1, 1), loss="squared_error")
    rng = np.random.default_rng(0)
    n = 20
    x = np.tile([1.0, -1.0], n // 2).reshape(n, 1)
    y = (0.7 * x[:, 0] + 0.3 + 0.2 * rng.standard_normal(n)).reshape(n, 1)
    train = dt.LabeledDataset(x, y, 1, "train")
    xt = np.tile([1.0, -1.0], 5).reshape(10, 1)
    yt = (0.7 * xt[:, 0] + 0.3 + 0.2 * rng.standard_normal(10)).reshape(10, 1)
    test = dt.LabeledDataset(xt, yt, 1, "test")
    cfg = dt.TrainingConfig(epochs=2000, batch_size=0, initial_lr=0.1,
                            weight_decay=0.01, seed=7)
    rec = dt.train(spec, train, cfg)
    return spec, train, test, rec


def test_closed_form_on_identity_hessian_probe():
    # H^er = I here, so IF = -g_test . g_i / (1 + lambda + damping) exactly,
    # and C(i) = -IF / n
    spec, train, test, rec = _sign_flip_probe()
    n = len(train)
    lam, damping = 0.01, 0.01
    g_test = models.test_gradients(spec, rec.final_params, test)[0]
    rep = dt.influence(
        spec, rec.final_params, train, test, list(range(len(train))),
        config=dt.InverseHvpConfig(method="dense", damping=damping),
        weight_decay=lam,
    )
    for i in range(len(train)):
        g_i = dt.per_sample_gradients(
            spec, rec.final_params, ([train.features[i]], [train.labels[i]])
        )[0]
        closed = -(g_test @ g_i) / (1.0 + lam + damping)
        assert abs(rep.values[i] - -closed / n) <= 1e-9 / n


def test_influence_signs_match_exact_contributions_on_ridge_probe():
    spec, train, test, rec = _sign_flip_probe()
    exact = dt.contribution(rec, dt.track_exact(rec, train, list(range(len(train)))), test)
    inf = dt.influence(spec, rec.final_params, train, test, list(range(len(train))),
                       weight_decay=0.01)
    for i in range(len(train)):
        assert np.sign(exact.values[i]) == np.sign(inf.values[i])


def test_zero_gradient_sample_has_zero_influence():
    spec, train, test = ridge_probe(targets=(0.0, 2.0))
    # a sample whose target equals the model output at w has zero gradient
    params = np.array([0.25, 0.25])  # output c = 0.5
    fitted = dt.LabeledDataset(np.ones((2, 1)), np.array([[0.5], [2.0]]), 1)
    rep = dt.influence(spec, params, fitted, test, [0], weight_decay=0.1)
    assert rep.values[0] == 0.0


def test_cg_matches_dense_solve():
    spec = dt.ModelSpec("mlp", (4, 6, 3))
    train, _ = gaussian_pair(classes=3, per_class=10, dim=4)
    cfg = dt.TrainingConfig(epochs=50, batch_size=0, initial_lr=0.05,
                            weight_decay=0.01, seed=1)
    rec = dt.train(spec, train, cfg)
    v = np.random.default_rng(2).standard_normal(rec.final_params.size)
    xd, _ = dt.inverse_hvp(spec, rec.final_params, train, v,
                           dt.InverseHvpConfig(method="dense"), weight_decay=0.01)
    xc, diag = dt.inverse_hvp(spec, rec.final_params, train, v,
                              dt.InverseHvpConfig(method="conjugate_gradient"),
                              weight_decay=0.01)
    assert np.linalg.norm(xc - xd) <= 1e-6 * np.linalg.norm(xd)
    assert diag["cg_iterations"] >= 1


def test_inverse_hvp_round_trip_recovers_v():
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    train, _ = gaussian_pair(dim=4, per_class=10)
    cfg = dt.TrainingConfig(epochs=50, batch_size=0, initial_lr=0.1,
                            weight_decay=0.01, seed=1)
    rec = dt.train(spec, train, cfg)
    v = np.random.default_rng(3).standard_normal(rec.final_params.size)
    config = dt.InverseHvpConfig(method="conjugate_gradient", damping=0.01)
    x, _ = dt.inverse_hvp(spec, rec.final_params, train, v, config, weight_decay=0.01)
    uniform = np.full(len(train), 1.0 / len(train))
    hx = dt.hessian_vector_product(spec, rec.final_params, train, uniform, x)
    hx += (0.01 + 0.01) * x  # damping + regularizer shift
    assert np.linalg.norm(hx - v) <= 1e-8 * np.linalg.norm(v)


def test_neumann_matches_dense_within_tolerance():
    # unit-norm features keep per-sample Hessian spectra uniform, which the
    # depth-500 stochastic iteration needs to stay within 5e-2
    base, _ = gaussian_pair(dim=5, per_class=25)
    Xn = base.inputs / np.linalg.norm(base.inputs, axis=1, keepdims=True)
    train = dt.LabeledDataset(Xn, base.labels, 2, "train")
    spec = dt.ModelSpec("logistic_regression", (5, 2))
    cfg = dt.TrainingConfig(epochs=200, batch_size=0, initial_lr=0.1,
                            weight_decay=0.01, seed=7)
    rec = dt.train(spec, train, cfg)
    v = np.random.default_rng(1).standard_normal(rec.final_params.size)
    xd, _ = dt.inverse_hvp(spec, rec.final_params, train, v,
                           dt.InverseHvpConfig(method="dense", damping=0.1),
                           weight_decay=0.01)
    xn, diag = dt.inverse_hvp(
        spec, rec.final_params, train, v,
        dt.InverseHvpConfig(method="neumann", damping=0.1, neumann_depth=500,
                            neumann_repeats=4, seed=5),
        weight_decay=0.01,
    )
    assert np.linalg.norm(xn - xd) <= 5e-2 * np.linalg.norm(xd)
    assert diag["neumann_scale"] > 0.0


def test_cg_raises_when_budget_too_small():
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    train, _ = gaussian_pair(dim=4, per_class=10)
    cfg = dt.TrainingConfig(epochs=20, batch_size=0, initial_lr=0.1,
                            weight_decay=0.01, seed=1)
    rec = dt.train(spec, train, cfg)
    v = np.random.default_rng(4).standard_normal(rec.final_params.size)
    config = dt.InverseHvpConfig(method="conjugate_gradient", cg_max_iters=1,
                                 cg_tolerance=1e-14)
    with pytest.raises(ConvergenceError):
        dt.inverse_hvp(spec, rec.final_params, train, v, config, weight_decay=0.01)


def test_config_validation():
    with pytest.raises(ValueError):
        dt.InverseHvpConfig(method="lu_decomposition")
    with pytest.raises(ValueError):
        dt.InverseHvpConfig(damping=-0.1)


@pytest.mark.parametrize("field, value", [
    ("damping", float("nan")),
    ("damping", float("inf")),
    ("cg_max_iters", 0),
    ("cg_tolerance", 0.0),
    ("cg_tolerance", float("nan")),
    ("neumann_depth", -1),
    ("neumann_depth", 0),
    ("neumann_repeats", 0),
    ("neumann_scale", 0.0),
    ("neumann_scale", -1.0),
    ("neumann_scale", float("inf")),
    ("neumann_scale", float("nan")),
])
def test_out_of_range_solver_settings_are_refused(field, value):
    with pytest.raises(ConfigError, match=field):
        dt.InverseHvpConfig(**{field: value})


def test_influence_ranking_correlates_with_leave_one_out():
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    train, test = gaussian_pair(dim=4, per_class=10)
    cfg = dt.TrainingConfig(epochs=300, batch_size=0, initial_lr=0.1,
                            weight_decay=0.01, seed=2)
    rec = dt.train(spec, train, cfg)
    idx = list(range(len(train)))
    inf = dt.influence(spec, rec.final_params, train, test, idx, weight_decay=0.01)
    loo = [dt.leave_one_out(spec, train, cfg, i, test, nominal=rec).loo_delta
           for i in idx]
    rho = scipy_stats.spearmanr([inf.values[i] for i in idx], loo).statistic
    assert rho >= 0.9


def test_regularizer_inclusion_flag_changes_result():
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    train, test = gaussian_pair(dim=4, per_class=8)
    cfg = dt.TrainingConfig(epochs=50, batch_size=0, initial_lr=0.1,
                            weight_decay=0.1, seed=1)
    rec = dt.train(spec, train, cfg)
    with_reg = dt.influence(
        spec, rec.final_params, train, test, [0],
        config=dt.InverseHvpConfig(method="dense", include_regularizer_in_hessian=True),
        weight_decay=0.1,
    )
    without = dt.influence(
        spec, rec.final_params, train, test, [0],
        config=dt.InverseHvpConfig(method="dense", include_regularizer_in_hessian=False),
        weight_decay=0.1,
    )
    assert with_reg.values[0] != without.values[0]


@pytest.fixture(scope="module")
def mlp_probe():
    spec = dt.ModelSpec("mlp", (4, 6, 3))
    train, test = gaussian_pair(classes=3, per_class=10, dim=4, test_per_class=4)
    cfg = dt.TrainingConfig(epochs=50, batch_size=0, initial_lr=0.05,
                            weight_decay=0.01, seed=1)
    return spec, train, test, dt.train(spec, train, cfg).final_params


@pytest.mark.parametrize("method, rtol", [("dense", 1e-10), ("conjugate_gradient", 1e-6)])
def test_test_side_solve_equals_per_sample_definition(mlp_probe, method, rtol):
    # C(i) = -IF_i / n with IF_i = -g_test^T H^-1 g_i, one solve per training
    # sample, is the definition; influence() solves once on the test side instead.
    spec, train, test, w = mlp_probe
    n = len(train)
    config = dt.InverseHvpConfig(method=method)
    idx = list(range(len(train)))
    rep = dt.influence(spec, w, train, test, idx, config=config,
                       weight_decay=0.01, per_test=True)
    g_test = models.test_gradients(spec, w, test)[0]
    G_test = models.per_sample_gradients(spec, w, test)
    for i in idx:
        g_i = dt.per_sample_gradients(spec, w, ([train.features[i]], [train.labels[i]]))[0]
        ihvp, _ = dt.inverse_hvp(spec, w, train, g_i, config, weight_decay=0.01)
        np.testing.assert_allclose(rep.values[i], (g_test @ ihvp) / n, rtol=rtol, atol=0)
        got = [rep.pair_values[(i, j)] for j in range(len(test))]
        np.testing.assert_allclose(got, (G_test @ ihvp) / n, rtol=rtol, atol=0)
    assert len(rep.pair_values) == len(train) * len(test)


@pytest.mark.parametrize("method", ["dense", "conjugate_gradient", "neumann"])
def test_one_solve_per_call_whatever_the_number_of_samples(mlp_probe, monkeypatch, method):
    spec, train, test, w = mlp_probe
    calls = {"inverse_hvp": 0, "power_iteration_max_eig": 0, "hessian_vector_product": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(influence_module, "inverse_hvp")
    counted(models, "power_iteration_max_eig")
    counted(models, "hessian_vector_product")
    config = dt.InverseHvpConfig(method=method, neumann_depth=20, neumann_repeats=2)
    rep = dt.influence(spec, w, train, test, list(range(20)), config=config,
                       weight_decay=0.01)
    assert len(rep.values) == 20
    assert calls["inverse_hvp"] == 1
    if method == "neumann":
        # One stacked power iteration of 50 steps for the 16 scale probes, then
        # one paired HVP per series step for all repeats.
        assert calls["power_iteration_max_eig"] == 1
        assert calls["hessian_vector_product"] == 50 + config.neumann_depth
    else:
        assert calls["power_iteration_max_eig"] == 0


@pytest.mark.parametrize("method, linearizations", [
    ("conjugate_gradient", {1}),
    ("neumann", {2}),  # the scale's probe sets, then the distinct drawn samples
    ("dense", {1}),
])
def test_each_solve_linearizes_its_rows_once(mlp_probe, count_calls, method, linearizations):
    spec, train, test, w = mlp_probe
    calls = count_calls((models, "linearize"), (models, "hessian_vector_product"))
    config = dt.InverseHvpConfig(method=method, neumann_depth=20, neumann_repeats=2)
    rhs = models.test_gradients(spec, w, test, per_test=True)
    _, diag = dt.inverse_hvp(spec, w, train, rhs, config, weight_decay=0.01)
    assert calls["linearize"] in linearizations
    if method == "conjugate_gradient":
        assert calls["hessian_vector_product"] == diag["cg_iterations"]
    if method == "neumann":  # a given scale needs no probes
        calls["linearize"] = 0
        fixed = dt.InverseHvpConfig(method="neumann", neumann_depth=20, neumann_scale=10.0)
        dt.inverse_hvp(spec, w, train, rhs, fixed, weight_decay=0.01)
        assert calls["linearize"] == 1


@pytest.mark.parametrize("depth, gathers", [(1, 1), (20, 4), (40, 6), (500, 22)])
def test_neumann_gathers_once_per_block_of_steps(mlp_probe, monkeypatch, depth, gathers):
    # ceil(depth / ceil(sqrt(depth))) gathers; each step takes a slice of its block
    spec, train, test, w = mlp_probe
    calls = {"gathers": 0, "hessian_vector_product": 0}
    take, hvp = models.Linearization.take, models.hessian_vector_product

    def counted_take(self, sets):
        calls["gathers"] += not isinstance(sets, slice)
        return take(self, sets)

    def counted_hvp(*args, **kwargs):
        calls["hessian_vector_product"] += 1
        return hvp(*args, **kwargs)

    monkeypatch.setattr(models.Linearization, "take", counted_take)
    monkeypatch.setattr(models, "hessian_vector_product", counted_hvp)
    config = dt.InverseHvpConfig(method="neumann", neumann_depth=depth, neumann_repeats=2)
    rhs = models.test_gradients(spec, w, test, per_test=True)
    dt.inverse_hvp(spec, w, train, rhs, config, weight_decay=0.01)
    assert calls == {"gathers": gathers, "hessian_vector_product": 50 + depth}


def _logistic_probe():
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    train, test = gaussian_pair(dim=4, per_class=10, test_per_class=3)
    cfg = dt.TrainingConfig(epochs=50, batch_size=0, initial_lr=0.1,
                            weight_decay=0.01, seed=1)
    return spec, train, test, dt.train(spec, train, cfg).final_params


# float.hex() of the Neumann solver's results as the one-chain-at-a-time
# solver computed them: the scale and the repeat spread of the per_test
# solve, C(i) for i = 0, 3, 11 (the same bits with and without per_test),
# and C(i, j) for (0, 0), (3, 1), (11, 2), each test row contracted on its
# own. The lockstep solver must give the same bits.
NEUMANN_PINS = {
    "mlp": (
        ("0x1.6ac699c30fa91p+3", "0x1.8be30d42e4815p+0"),
        ("0x1.f177e43316ba7p-7", "0x1.4295094e4a45ap-7", "-0x1.0cd2d23722481p-6"),
        ("0x1.10fdf00cb32cap-5", "0x1.66652c8ac658bp-5", "-0x1.75a60c7d67dcdp-5"),
    ),
    "logistic": (
        ("0x1.270782ed5249fp+1", "0x1.1a73b50a18bf3p+2"),
        ("0x1.e4f2ab7a432d5p-10", "0x1.7384e8fc0e486p-9", "0x1.4ba65b3c11edfp-4"),
        ("0x1.67952ff6d32b6p-9", "0x1.0bf330dcbdd45p-8", "-0x1.17721ecb767c5p-3"),
    ),
}


@pytest.mark.parametrize("probe", sorted(NEUMANN_PINS))
def test_neumann_results_are_pinned_bit_for_bit(mlp_probe, probe):
    spec, train, test, w = mlp_probe if probe == "mlp" else _logistic_probe()
    diag_pin, values_pin, pairs_pin = NEUMANN_PINS[probe]
    config = dt.InverseHvpConfig(method="neumann", neumann_depth=40, neumann_repeats=3, seed=5)
    idx = [0, 3, 11]
    rhs = models.test_gradients(spec, w, test, per_test=True)
    _, diag = dt.inverse_hvp(spec, w, train, rhs, config, weight_decay=0.01)
    assert (diag["neumann_scale"].hex(), diag["neumann_repeat_std"].hex()) == diag_pin
    plain = dt.influence(spec, w, train, test, idx, config=config, weight_decay=0.01)
    assert tuple(plain.values[i].hex() for i in idx) == values_pin
    rep = dt.influence(spec, w, train, test, idx, config=config, weight_decay=0.01,
                       per_test=True)
    assert tuple(rep.values[i].hex() for i in idx) == values_pin
    pairs = ((0, 0), (3, 1), (11, 2))
    assert tuple(rep.pair_values[pair].hex() for pair in pairs) == pairs_pin


@pytest.mark.parametrize("method", ["conjugate_gradient", "dense", "neumann"])
def test_influence_does_not_depend_on_per_test(mlp_probe, method):
    spec, train, test, w = mlp_probe
    config = dt.InverseHvpConfig(method=method, neumann_depth=40, neumann_repeats=3)
    runs = [
        dt.influence(spec, w, train, test, range(len(train)), config=config,
                     weight_decay=0.01, per_test=per_test)
        for per_test in (False, True)
    ]
    plain, paired = ([v.hex() for v in run.values.values()] for run in runs)
    assert runs[1].pair_values and paired == plain


@pytest.mark.parametrize("index", [-1, 20, 1.5])
def test_training_index_validated(index):
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    train, test = gaussian_pair(dim=4, per_class=10)
    assert len(train) == 20
    params = dt.init_params(spec, seed=0)
    with pytest.raises(ConfigError, match=r"outside \[0, n_train\)"):
        dt.influence(spec, params, train, test, [0, index])


def test_no_training_indices_are_refused_before_the_solve(mlp_probe, monkeypatch):
    spec, train, test, w = mlp_probe

    def no_work(*args, **kwargs):
        raise AssertionError("work done for no training index")

    monkeypatch.setattr(influence_module, "inverse_hvp", no_work)
    monkeypatch.setattr(models, "test_gradients", no_work)
    for per_test in (False, True):
        with pytest.raises(ValueError, match="no training indices"):
            dt.influence(spec, w, train, test, [], weight_decay=0.01, per_test=per_test)


def test_neumann_scale_too_small_raises_scaling_error(mlp_probe):
    spec, train, test, w = mlp_probe
    config = dt.InverseHvpConfig(method="neumann", neumann_scale=1e-3)
    with pytest.raises(ScalingError):
        dt.influence(spec, w, train, test, [0, 1], config=config, weight_decay=0.01)
