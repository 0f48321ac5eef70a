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


def test_cg_names_the_first_non_positive_curvature_when_it_fails(mlp_probe):
    # lambda_min(H) is about -0.21 here, under the 0.02 shift: CG meets a
    # non-positive curvature within a few iterations. It may still converge
    # (every full-budget solve on this probe does, to the dense solve), so
    # only a failed solve reports it, with the advice to raise the damping.
    spec, train, test, w = mlp_probe
    rhs = models.test_gradients(spec, w, test)[0]
    config = dt.InverseHvpConfig(method="conjugate_gradient", cg_max_iters=8)
    with pytest.raises(ConvergenceError, match="did not reach tolerance") as err:
        dt.inverse_hvp(spec, w, train, rhs, config, weight_decay=0.01)
    assert err.value.iterations == 8
    message = str(err.value)
    assert "<= 0 at iteration" in message and "raise the damping" in message
    first = int(message.split("<= 0 at iteration ")[1].split(":")[0])
    assert 1 <= first <= 8


def test_cg_raises_a_typed_error_at_zero_curvature():
    # zero inputs leave the weight undamped and flat: d.(H + 0)d = 0 exactly
    spec, train, _ = ridge_probe()
    zero = dt.LabeledDataset(np.zeros((2, 1)), train.labels, 1, "train")
    config = dt.InverseHvpConfig(method="conjugate_gradient", damping=0.0)
    with pytest.raises(ConvergenceError, match="broke down at iteration 1") as err:
        dt.inverse_hvp(spec, np.zeros(2), zero, np.array([1.0, 0.0]), config)
    assert err.value.iterations == 1 and "raise the damping" in str(err.value)


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


def test_weight_decay_joins_the_hessian_shift():
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    train, test = gaussian_pair(dim=4, per_class=8)
    cfg = dt.TrainingConfig(epochs=50, batch_size=0, initial_lr=0.1,
                            weight_decay=0.1, seed=1)
    rec = dt.train(spec, train, cfg)
    config = dt.InverseHvpConfig(method="dense")
    with_reg = dt.influence(spec, rec.final_params, train, test, [0], config=config,
                            weight_decay=0.1)
    without = dt.influence(spec, rec.final_params, train, test, [0], config=config,
                           weight_decay=0.0)
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
    calls = {"inverse_hvp": 0, "power_iteration_max_eig": 0, "__call__": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(influence_module, "inverse_hvp")
    counted(models, "power_iteration_max_eig")
    counted(models._HvpOperator, "__call__")  # each HVP a solve applies
    config = dt.InverseHvpConfig(method=method, neumann_depth=20, neumann_repeats=2)
    rep = dt.influence(spec, w, train, test, list(range(20)), config=config,
                       weight_decay=0.01)
    assert len(rep.values) == 20
    assert calls["inverse_hvp"] == 1
    if method == "neumann":
        # One stacked power iteration of 50 steps for the 16 scale probes, then
        # one paired HVP per series step for all repeats.
        assert calls["power_iteration_max_eig"] == 1
        assert calls["__call__"] == 50 + config.neumann_depth
    else:
        assert calls["power_iteration_max_eig"] == 0


@pytest.mark.parametrize("method, linearizations", [
    ("conjugate_gradient", {1}),
    ("neumann", {1}),  # the scale's probe sets and the series' draws gather from it
    ("dense", {1}),
])
def test_each_solve_linearizes_its_rows_once(mlp_probe, count_calls, method, linearizations):
    spec, train, test, w = mlp_probe
    calls = count_calls((models, "linearize"), (models._HvpOperator, "__call__"))
    config = dt.InverseHvpConfig(method=method, neumann_depth=20, neumann_repeats=2)
    rhs = models.test_gradients(spec, w, test, per_test=True)
    _, diag = dt.inverse_hvp(spec, w, train, rhs, config, weight_decay=0.01)
    assert calls["linearize"] in linearizations
    if method == "conjugate_gradient":
        assert calls["__call__"] == diag["cg_iterations"]
    if method == "neumann":  # a given scale needs no probes
        calls["linearize"] = 0
        fixed = dt.InverseHvpConfig(method="neumann", neumann_depth=20, neumann_scale=10.0)
        dt.inverse_hvp(spec, w, train, rhs, fixed, weight_decay=0.01)
        assert calls["linearize"] == 1


@pytest.mark.parametrize("depth, gathers", [(1, 1), (20, 4), (40, 6), (150, 12), (500, 22)])
def test_neumann_gathers_once_per_block_of_steps(mlp_probe, monkeypatch, depth, gathers):
    # ceil(depth / ceil(sqrt(depth))) gathers of the series, one more for the
    # scale's probe sets; each step takes a slice of its block. Damping 0.3
    # makes H + shift positive definite (lambda_min(H) is about -0.21 here),
    # so the long series converge instead of raising ScalingError.
    spec, train, test, w = mlp_probe
    calls = {"gathers": 0, "hvps": 0}
    take, hvp = models.Linearization.take, models._HvpOperator.__call__

    def counted_take(self, sets):
        calls["gathers"] += not isinstance(sets, slice)
        return take(self, sets)

    def counted_hvp(*args, **kwargs):  # each HVP applied, at the operator
        calls["hvps"] += 1
        return hvp(*args, **kwargs)

    monkeypatch.setattr(models.Linearization, "take", counted_take)
    monkeypatch.setattr(models._HvpOperator, "__call__", counted_hvp)
    config = dt.InverseHvpConfig(method="neumann", damping=0.3, neumann_depth=depth,
                                 neumann_repeats=2)
    rhs = models.test_gradients(spec, w, test, per_test=True)
    dt.inverse_hvp(spec, w, train, rhs, config, weight_decay=0.01)
    assert calls == {"gathers": 1 + gathers, "hvps": 50 + depth}


@pytest.mark.parametrize("method, scale", [
    ("conjugate_gradient", None),
    ("neumann", None),  # the scale's power iteration refuses it
    ("neumann", 10.0),  # the series refuses it
    ("dense", None),
])
def test_each_solver_refuses_a_linearization_at_other_parameters_before_its_first_step(
    mlp_probe, monkeypatch, count_calls, method, scale
):
    spec, train, test, w = mlp_probe
    linearize = models.linearize
    monkeypatch.setattr(
        models, "linearize", lambda spec, params, rows: linearize(spec, params + 1e-3, rows)
    )
    calls = count_calls((models._HvpOperator, "__call__"))
    config = dt.InverseHvpConfig(method=method, neumann_depth=20, neumann_scale=scale)
    rhs = models.test_gradients(spec, w, test)[0]
    with pytest.raises(dt.ShapeError, match="other parameters"):
        dt.inverse_hvp(spec, w, train, rhs, config, weight_decay=0.01)
    assert calls["__call__"] == 0


def _logistic_probe():
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    train, test = gaussian_pair(dim=4, per_class=10, test_per_class=3)
    cfg = dt.TrainingConfig(epochs=50, batch_size=0, initial_lr=0.1,
                            weight_decay=0.01, seed=1)
    return spec, train, test, dt.train(spec, train, cfg).final_params


def _neumann_one_chain_at_a_time(spec, w, train, V, config, shift):
    """The Neumann solve run as its definition, one chain at a time: the scale
    from one power iteration per probe set, then per repeat and per right-hand
    side the series over that repeat's drawn batches. The draws and the one
    gathered linearization are the solver's. Returns (X, scale, repeat spread)."""
    lin = models.linearize(spec, w, train)
    n = len(train)
    b = min(influence_module.NEUMANN_BATCH, n)
    ones = np.full((1, b), 1.0 / b)

    def shifted(rows):
        def matvec(v):
            hv = dt.hessian_vector_product(spec, w, lin.take(rows[None]), ones, v[None])[0]
            return hv + shift * v
        return matvec

    probes = np.random.default_rng([config.seed, 0x5CA1]).integers(
        n, size=(influence_module.NEUMANN_PROBES, b)
    )
    eigs = [models.power_iteration_max_eig(shifted(rows), w.size, 50, config.seed)
            for rows in probes]
    scale = 1.1 * max(max(eigs), 1e-12)
    estimates = np.empty((config.neumann_repeats, len(V), w.size))
    for rep in range(config.neumann_repeats):
        rng = np.random.default_rng([config.seed, rep])
        draws = rng.integers(n, size=(config.neumann_depth, b))
        for i, v in enumerate(V):
            x = v.copy()
            for rows in draws:
                x = v + x - shifted(rows)(x) / scale
            estimates[rep, i] = x / scale
    return estimates.mean(axis=0), scale, float(np.linalg.norm(estimates.std(axis=0)))


# float.hex() of the Neumann results that ``_neumann_one_chain_at_a_time``
# computes: the scale and the repeat spread of the per_test solve, C(i) for
# i = 0, 3, 11 (the same bits with and without per_test), and C(i, j) for
# (0, 0), (3, 1), (11, 2), each test row contracted on its own. The lockstep
# solver must give the same bits.
NEUMANN_PINS = {
    "mlp": (
        ("0x1.418cad7e4c2f6p+1", "0x1.055a57d3b3654p+3"),
        ("0x1.efcc5d28a655ap-7", "0x1.ce492456f4eddp-8", "0x1.9fea1476bba2cp-8"),
        ("-0x1.8da084819d712p-5", "0x1.d40b9bc7e7969p-4", "-0x1.1a37adc4dd162p-5"),
    ),
    "logistic": (
        ("0x1.02c9a09161000p-1", "0x1.8b86ccba78424p+1"),
        ("0x1.86efc14747e3ep-9", "0x1.0746455663fc6p-7", "0x1.886590c49a936p-4"),
        ("0x1.0646004c576f4p-8", "0x1.19566c9b42ea8p-7", "-0x1.615e4782a36bbp-3"),
    ),
}
PINNED_NEUMANN = dt.InverseHvpConfig(method="neumann", neumann_depth=40, neumann_repeats=3,
                                     seed=5)


def _pinned_probe(mlp_probe, probe):
    return mlp_probe if probe == "mlp" else _logistic_probe()


@pytest.mark.parametrize("probe", sorted(NEUMANN_PINS))
def test_neumann_results_are_pinned_bit_for_bit(mlp_probe, probe):
    spec, train, test, w = _pinned_probe(mlp_probe, probe)
    diag_pin, values_pin, pairs_pin = NEUMANN_PINS[probe]
    config = PINNED_NEUMANN
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


@pytest.mark.parametrize("probe", sorted(NEUMANN_PINS))
def test_neumann_lockstep_equals_one_chain_at_a_time(mlp_probe, probe):
    spec, train, test, w = _pinned_probe(mlp_probe, probe)
    config = PINNED_NEUMANN
    rhs = models.test_gradients(spec, w, test, per_test=True)
    X, diag = dt.inverse_hvp(spec, w, train, rhs, config, weight_decay=0.01)
    want, scale, spread = _neumann_one_chain_at_a_time(spec, w, train, rhs, config, 0.01 + 0.01)
    assert X.tobytes() == want.tobytes()
    assert (diag["neumann_scale"], diag["neumann_repeat_std"]) == (scale, spread)
    assert (scale.hex(), spread.hex()) == NEUMANN_PINS[probe][0]


def _criterion_7_neumann_probe():
    """Criterion 7's Neumann probe: logistic regression on unit-norm features,
    its right-hand side and the dense solve at damping 0.1."""
    base = dt.synth_gaussian(2, 25, 5, 3.0, 1)
    Xn = base.inputs / np.linalg.norm(base.inputs, axis=1, keepdims=True)
    train = dt.LabeledDataset(Xn, base.labels, 2, "train")
    spec = dt.ModelSpec("logistic_regression", (5, 2))
    cfg = dt.TrainingConfig(epochs=200, batch_size=0, initial_lr=0.1,
                            weight_decay=0.01, seed=7)
    w = dt.train(spec, train, cfg).final_params
    v = np.random.default_rng(1).standard_normal(w.size)
    xd, _ = dt.inverse_hvp(spec, w, train, v, dt.InverseHvpConfig(method="dense", damping=0.1),
                           weight_decay=0.01)
    return spec, train, w, v, xd


@pytest.mark.parametrize("depth", [500, dt.InverseHvpConfig().neumann_depth])
@pytest.mark.parametrize("seed", [5, 11, 12])
def test_neumann_matches_dense_on_several_seeds(depth, seed):
    # single-sample draws read 0.049, 0.069 and 0.066 here at depth 500; the
    # batch-mean draws keep every seed within criterion 7's 5e-2
    spec, train, w, v, xd = _criterion_7_neumann_probe()
    config = dt.InverseHvpConfig(method="neumann", damping=0.1, neumann_depth=depth,
                                 neumann_repeats=4, seed=seed)
    xn, _ = dt.inverse_hvp(spec, w, train, v, config, weight_decay=0.01)
    assert np.linalg.norm(xn - xd) <= 5e-2 * np.linalg.norm(xd)


@pytest.mark.parametrize("probe", ["mlp", "criterion_7"])
def test_default_depth_truncates_the_series_below_one_percent(mlp_probe, probe):
    # The series after depth steps leaves (1 - lambda_min / scale)^depth of the
    # slowest eigendirection of H + shift. The MLP probe's Hessian has
    # lambda_min about -0.21, so it is taken at damping 0.3, where H + shift
    # is positive definite and the series converges at all.
    if probe == "mlp":
        spec, train, _, w = mlp_probe
        damping = 0.3
    else:
        spec, train, w, _, _ = _criterion_7_neumann_probe()
        damping = 0.1
    shift = damping + 0.01
    config = dt.InverseHvpConfig(method="neumann", damping=damping)
    H = models.dense_hessian(spec, w, train, np.full(len(train), 1.0 / len(train)))
    lam_min = float(np.linalg.eigvalsh(H).min()) + shift
    assert lam_min > 0.0
    lin = models.linearize(spec, w, train)
    scale = influence_module._neumann_scale(spec, w, lin, shift, config)
    assert (1.0 - lam_min / scale) ** config.neumann_depth <= 1e-2


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
