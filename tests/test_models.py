"""Model numerics: losses, gradients, Hessian-vector products."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import datatrace as dt
from datatrace import models
from datatrace.exceptions import NumericError, ShapeError

from conftest import central_difference_hvp

ARCHITECTURES = pytest.mark.parametrize("kind,widths,loss", [
    ("logistic_regression", (4, 3), "cross_entropy"),
    ("mlp", (4, 6, 3), "cross_entropy"),
    ("mlp", (3, 5, 2), "squared_error"),
])


def _fd_gradient(spec, params, x, y):
    """Central finite differences with per-coordinate step h = 1e-6*max(1,|w_k|)."""
    flat = dt.as_flat(params).copy()
    g = np.empty_like(flat)
    for k in range(flat.size):
        h = 1e-6 * max(1.0, abs(flat[k]))
        e = np.zeros_like(flat)
        e[k] = h
        g[k] = (
            float(models.sample_losses(spec, flat + e, ([x], [y]))[0])
            - float(models.sample_losses(spec, flat - e, ([x], [y]))[0])
        ) / (2.0 * h)
    return g


def test_unpack_partitions_the_parameter_axis_in_layer_order():
    spec = dt.ModelSpec("mlp", (4, 5, 3, 2))
    P = models.param_count(spec)
    for flat in (np.arange(P), np.tile(np.arange(P), (3, 1))):
        Ws, bs = models._unpack(spec, flat)
        blocks = [b for pair in zip(Ws, bs) for b in pair]
        lead = flat.shape[:-1]
        packed = np.concatenate([b.reshape(*lead, -1) for b in blocks], axis=-1)
        assert np.array_equal(packed, flat)
        assert all(np.shares_memory(b, flat) for b in blocks)
        assert [W.shape[-2:] for W in Ws] == [(5, 4), (3, 5), (2, 3)]


def test_zero_model_zero_input_gives_zero_gradient():
    spec = dt.ModelSpec("logistic_regression", (3, 1), loss="squared_error")
    params = np.zeros(4)
    g = dt.per_sample_gradients(spec, params, ([np.zeros(3)], [np.zeros(1)]))[0]
    assert np.all(g == 0.0)


@ARCHITECTURES
def test_per_sample_gradient_matches_finite_differences(kind, widths, loss):
    spec = dt.ModelSpec(kind, widths, loss=loss)
    rng = np.random.default_rng(0)
    for draw in range(10):
        params = dt.as_flat(dt.init_params(spec, draw)) + 0.1 * rng.standard_normal(
            models.param_count(spec)
        )
        x = rng.standard_normal(widths[0])
        if loss == "cross_entropy":
            y = int(rng.integers(widths[-1]))
        else:
            y = rng.standard_normal(widths[-1])
        g = dt.per_sample_gradients(spec, params, ([x], [y]))[0]
        fd = _fd_gradient(spec, params, x, y)
        assert np.linalg.norm(g - fd) <= 1e-6 * max(np.linalg.norm(fd), 1e-12)


def test_logistic_gradient_closed_form():
    # grad = (softmax(Wx + b) - onehot(y)) outer x, bias part is the delta
    spec = dt.ModelSpec("logistic_regression", (3, 4))
    rng = np.random.default_rng(1)
    params = rng.standard_normal(models.param_count(spec))
    W = params[:12].reshape(4, 3)
    b = params[12:]
    x = rng.standard_normal(3)
    y = 2
    z = W @ x + b
    soft = np.exp(z - z.max())
    soft /= soft.sum()
    delta = soft.copy()
    delta[y] -= 1.0
    expected = np.concatenate([np.outer(delta, x).ravel(), delta])
    g = dt.per_sample_gradients(spec, params, ([x], [y]))[0]
    assert np.allclose(g, expected, atol=1e-12)


def test_batch_gradient_is_weighted_sum_of_per_sample():
    spec = dt.ModelSpec("mlp", (4, 5, 3))
    ds = dt.synth_gaussian(3, 7, 4, 2.0, 5)
    params = dt.init_params(spec, 2)
    weights = np.linspace(0.1, 1.0, len(ds))
    G = dt.per_sample_gradients(spec, params, ds)
    g = dt.batch_gradient(spec, params, ds, weights)
    assert np.allclose(g, weights @ G, atol=1e-12)


def _probe(kind, widths, loss, n, seed):
    """A model, perturbed parameters and an n-row dataset of matching targets."""
    spec = dt.ModelSpec(kind, widths, loss=loss)
    rng = np.random.default_rng(seed)
    params = dt.as_flat(dt.init_params(spec, seed)) + 0.1 * rng.standard_normal(
        models.param_count(spec)
    )
    X = rng.standard_normal((n, widths[0]))
    if loss == "cross_entropy":
        Y = rng.integers(widths[-1], size=n)
    else:
        Y = rng.standard_normal((n, widths[-1]))
    return spec, params, (X, Y)


def _step_lin(spec, params, rows, sets=None):
    """The linearization a training step builds (``models._linearize``) of shared rows at
    one vector or an (R, P) stack, or of the (R, b) row sets gathered by ``sets``
    paired with the stack, as ``trainer._step`` gathers a batch."""
    X, targets = models._xy(spec, rows)
    if sets is not None:
        X, targets = X.take(sets, axis=0), targets.take(sets, axis=0)
    return models._linearize(spec, dt.as_flat(params), X, targets)


@ARCHITECTURES
def test_loss_and_gradient_is_bit_equal_to_separate_calls(kind, widths, loss):
    spec, params, rows = _probe(kind, widths, loss, 7, 3)
    weights = np.linspace(0.1, 1.0, 7)
    losses, g = models.loss_and_gradient(spec, params, rows, weights)
    assert np.array_equal(losses, models.sample_losses(spec, params, rows))
    assert np.array_equal(g, models.batch_gradient(spec, params, rows, weights))
    assert np.allclose(g, weights @ models.per_sample_gradients(spec, params, rows), atol=1e-12)


@ARCHITECTURES
def test_loss_and_gradient_stack_rows_are_bit_equal_to_single_calls(kind, widths, loss):
    # a training step's (R, P) stack over shared rows, row r bit-equal to the
    # public call at row r alone
    spec, params, rows = _probe(kind, widths, loss, 7, 3)
    rng = np.random.default_rng(4)
    for R in (1, 3):
        stack = params + 0.1 * rng.standard_normal((R, params.size))
        weights = rng.uniform(0.1, 1.0, (R, 7))
        losses, g = models._loss_and_gradient(_step_lin(spec, stack, rows), weights)
        assert losses.shape == (R, 7) and g.shape == (R, params.size)
        for r in range(R):
            one_losses, one_g = models.loss_and_gradient(spec, stack[r], rows, weights[r])
            assert np.array_equal(losses[r], one_losses)
            assert np.array_equal(g[r], one_g)
    # the public call's weights have the rows' shape
    for bad in (weights[0, :6], weights[:1]):
        with pytest.raises(ShapeError, match="weights of shape"):
            models.loss_and_gradient(spec, params, rows, bad)
    # the loss-only entry points take one vector
    with pytest.raises(ShapeError, match="one vector"):
        dt.test_loss(spec, stack, rows)


@ARCHITECTURES
def test_loss_and_gradient_checks_the_gradient_before_the_loss(kind, widths, loss, monkeypatch):
    spec, params, rows = _probe(kind, widths, loss, 4, 5)
    weights = np.full(4, 0.25)
    # both non-finite: the gradient is named, as when it was computed first
    nan_params = np.full_like(params, np.nan)
    with np.errstate(invalid="ignore"):
        for call in (models.loss_and_gradient, models.batch_gradient):
            with pytest.raises(NumericError, match="gradient"):
                call(spec, nan_params, rows, weights)
        # an infinite weight leaves the (unweighted) losses finite
        with pytest.raises(NumericError, match="gradient"):
            models.loss_and_gradient(spec, params, rows, np.array([np.inf, 0.25, 0.25, 0.25]))
    # a non-finite loss beside a finite gradient
    original = models._losses_and_delta

    def infinite_loss(*args):
        losses, delta, soft = original(*args)
        return np.full_like(losses, np.inf), delta, soft

    monkeypatch.setattr(models, "_losses_and_delta", infinite_loss)
    with pytest.raises(NumericError, match="loss"):
        models.loss_and_gradient(spec, params, rows, weights)



def _class_axis_arrays(C, rng, edge=None):
    """(rows, C) and (4, rows / 4, C) arrays on both sides of a row-count edge, by
    default the fold threshold (the first row count that folds).

    Values span many binades and are sprinkled with signed zeros and
    infinities; some rows are all -0.0, which numpy's sum turns into +0.0.
    """
    edge = models._FOLD_ROWS_PER_CLASS * C if edge is None else edge
    shapes = [(rows, C) for rows in (1, edge - 1, edge, edge + 5)]
    shapes += [(4, rows, C) for rows in (1, edge // 4 - 1, edge // 4, edge // 4 + 3)]
    specials = np.array([0.0, -0.0, np.inf, -np.inf])
    for shape in shapes:
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        mask = rng.random(shape) < 0.2
        a[mask] = rng.choice(specials, mask.sum())
        a.reshape(-1, C)[::7] = -0.0
        yield a


@pytest.mark.parametrize("C", range(1, 41))
def test_class_reduce_has_the_bits_of_numpys_reduce(C):
    rng = np.random.default_rng(C)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf; huge sums
        for a in _class_axis_arrays(C, rng):
            assert models._class_reduce(np.maximum, a).tobytes() == a.max(-1).tobytes()
            assert models._class_reduce(np.add, a).tobytes() == a.sum(-1).tobytes()


@pytest.mark.parametrize("C", range(1, 10))
def test_class_broadcasts_and_row_sums_have_the_bits_of_numpy(C):
    rng = np.random.default_rng([C, 1])
    # the broadcasts' own rule: by columns from 200 C^2 rows, over all leading axes
    edge = models._BROADCAST_ROWS_PER_CLASS_SQUARED * C * C
    assert models._by_columns(np.empty((4, edge // 4, C)), edge // C) == (C <= 7)
    assert not models._by_columns(np.empty((edge - 1, C)), edge // C)
    arrays = itertools.chain(_class_axis_arrays(C, rng), _class_axis_arrays(C, rng, edge))
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for a in arrays:
            # a value per row, and one per class (shared by a stack's rows)
            for v in (a[..., ::-1].sum(-1)[..., None], a[..., ::-1].sum(-2)[..., None, :]):
                for ufunc in (np.add, np.subtract, np.multiply, np.divide):
                    want = ufunc(a, v).tobytes()
                    assert models._class_broadcast(ufunc, a, v).tobytes() == want
                    # in place, as the forward's bias add and the softmax run it
                    inplace = a.copy()
                    models._class_broadcast(ufunc, inplace, v, out=inplace)
                    assert inplace.tobytes() == want
            # numpy sums an all -0.0 column to +0.0
            a[..., 0] = -0.0
            assert models._row_sum(a).tobytes() == a.sum(axis=-2).tobytes()


def _plain_losses_and_delta(loss, logits, targets):
    """``_losses_and_delta`` in plain numpy: its reduce, broadcasts and fancy indexing."""
    if loss == "squared_error":
        resid = logits - targets
        return 0.5 * (resid**2).sum(-1), resid
    target = (..., np.arange(targets.shape[-1]), targets)
    if targets.ndim == 2:
        target = (np.arange(len(targets))[:, None],) + target[1:]
    zmax = logits.max(-1)
    ez = np.exp(logits - zmax[..., None])
    sez = ez.sum(-1)
    delta = ez / sez[..., None]
    delta[target] -= 1.0
    return np.log(sez) + zmax - logits[target], delta


@pytest.mark.parametrize("loss", models.LOSSES)
@pytest.mark.parametrize("C", [1, 2, 7, 8])
@pytest.mark.parametrize("layout", ["shared", "stacked", "paired"])
def test_the_step_kernels_have_the_bits_of_plain_numpy_on_both_sides_of_the_rule(layout, C, loss):
    # Logistic regression's linearization and weighted gradient against
    # plain numpy, on 32 C - 1 and 32 C rows of C classes: shared (n, C),
    # a training step's stack of 4 parameter vectors over shared rows
    # (4, n, C), and its 4 row sets paired with 4 vectors (4, b, C).
    spec = dt.ModelSpec("logistic_regression", (3, C), loss=loss)
    rng = np.random.default_rng([C, len(loss), len(layout)])
    R = 1 if layout == "shared" else 4
    lead = () if layout == "shared" else (R,)
    for rows in (32 * C - 1, 32 * C):
        n = -(-rows // R)  # the stacked rows reach 32 C exactly, or stay below it
        params = rng.standard_normal(lead + (models.param_count(spec),))
        W, b = (block[0] for block in models._unpack(spec, params))
        W[..., -1, :], b[..., -1] = W[..., 0, :], b[..., 0]  # tied logits
        X = rng.standard_normal(((R,) if layout == "paired" else ()) + (n, 3))
        X[..., ::5, :] = 0.0  # rows whose logits are the biases
        z = X @ W.swapaxes(-1, -2) + b[..., None, :]
        # The second targets make the delta's column 0 negative on every row
        # (all targets 0; targets above every logit), so zero weights give an
        # all -0.0 column for the bias gradient's sum over rows.
        if loss == "cross_entropy":
            targets = (rng.integers(C, size=X.shape[:-1]), np.zeros(X.shape[:-1], int))
        else:
            T = rng.standard_normal(X.shape[:-1] + (C,))
            targets = (T, T + np.abs(z).max() + 1.0)
        weights = (rng.uniform(0.0, 1.0, lead + (n,)), np.zeros(lead + (n,)))
        # the paired sets as a step gathers them from shared rows
        sets = np.arange(R * n).reshape(R, n) if layout == "paired" else None
        for Y, w in zip(targets, weights):
            losses, delta = _plain_losses_and_delta(loss, z, Y)
            wD = delta * w[..., None]
            g = np.concatenate([(wD.swapaxes(-1, -2) @ X).reshape(lead + (-1,)),
                                wD.sum(axis=-2)], axis=-1)
            # any integer labels index the logits
            dtypes = (np.uint8, np.uint64, np.int32) if loss == "cross_entropy" else ()
            for labels in [Y, *(Y.astype(t) for t in dtypes)]:
                rows = (X.reshape(-1, 3), labels.reshape((-1,) + Y.shape[X.ndim - 1 :]))
                lin = _step_lin(spec, params, rows, sets)
                assert lin.deltas[-1].tobytes() == delta.tobytes()
                got_losses, got_g = models._loss_and_gradient(lin, w)
                assert got_losses.tobytes() == losses.tobytes()
                assert got_g.tobytes() == g.tobytes()
                if layout == "shared":
                    got_losses, got_g = models.loss_and_gradient(spec, params, rows, w)
                    assert got_losses.tobytes() == losses.tobytes()
                    assert got_g.tobytes() == g.tobytes()
                    assert dt.sample_losses(spec, params, rows).tobytes() == losses.tobytes()


@ARCHITECTURES
def test_sample_losses_are_a_linearizations_losses_without_its_backward(kind, widths, loss,
                                                                      monkeypatch):
    def no_backward(*args):
        raise AssertionError("activation derivatives or deltas for losses alone")

    for n in (5, 300):
        spec, params, rows = _probe(kind, widths, loss, n, 2)
        want = models.linearize(spec, params, rows).losses
        with monkeypatch.context() as patch:
            patch.setattr(models, "_act_grad", no_backward)
            patch.setattr(models, "_deltas", no_backward)
            assert models.sample_losses(spec, params, rows).tobytes() == want.tobytes()


@pytest.mark.parametrize("loss", models.LOSSES)
@pytest.mark.parametrize("n", [8, 4 * models._FOLD_ROWS_PER_CLASS])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_row_raises_numeric_error_on_either_side_of_the_fold(loss, n, bad):
    spec, params, (X, Y) = _probe("logistic_regression", (3, 2), loss, n, 6)
    X = X.copy()
    X[n // 2] = bad
    weights = np.full(n, 1.0 / n)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(NumericError):
            models.loss_and_gradient(spec, params, (X, Y), weights)
        with pytest.raises(NumericError, match="loss"):
            dt.sample_losses(spec, params, (X, Y))
        with pytest.raises(NumericError, match="Hessian-vector"):
            dt.hessian_vector_product(spec, params, (X, Y), weights, np.ones(params.size))


def test_cross_entropy_stable_for_large_logits():
    spec = dt.ModelSpec("logistic_regression", (2, 2))
    params = np.array([500.0, 0.0, -500.0, 0.0, 0.0, 0.0])
    losses = dt.sample_losses(spec, params, ([[1.0, 0.0]], [0]))
    assert np.isfinite(losses[0]) and losses[0] >= 0.0


def _fd_dense_hessian(spec, params, ds, weights, h=1e-5):
    flat = dt.as_flat(params)
    P = flat.size
    H = np.empty((P, P))
    for k in range(P):
        e = np.zeros(P)
        e[k] = h
        gp = dt.batch_gradient(spec, flat + e, ds, weights)
        gm = dt.batch_gradient(spec, flat - e, ds, weights)
        H[:, k] = (gp - gm) / (2.0 * h)
    return H


@ARCHITECTURES
def test_exact_hvp_matches_fd_dense_hessian(kind, widths, loss):
    spec = dt.ModelSpec(kind, widths, loss=loss)
    ds_cls = dt.synth_gaussian(widths[-1] if loss == "cross_entropy" else 2, 6,
                               widths[0], 2.0, 3)
    if loss == "squared_error":
        rng = np.random.default_rng(4)
        ds = dt.LabeledDataset(
            ds_cls.inputs, rng.standard_normal((len(ds_cls), widths[-1])), widths[-1]
        )
    else:
        ds = ds_cls
    params = dt.init_params(spec, 9)
    weights = np.full(len(ds), 1.0 / len(ds))
    H = _fd_dense_hessian(spec, params, ds, weights)
    rng = np.random.default_rng(5)
    for _ in range(5):
        v = rng.standard_normal(dt.as_flat(params).size)
        hv = dt.hessian_vector_product(spec, params, ds, weights, v)
        assert np.linalg.norm(hv - H @ v) <= 1e-8 * max(np.linalg.norm(H @ v), 1e-12)


def test_hvp_batched_matches_single_vectors():
    spec = dt.ModelSpec("mlp", (4, 6, 3))
    ds = dt.synth_gaussian(3, 8, 4, 2.0, 1)
    params = dt.init_params(spec, 0)
    weights = np.full(len(ds), 1.0 / len(ds))
    rng = np.random.default_rng(2)
    V = rng.standard_normal((6, dt.as_flat(params).size))
    batched = dt.hessian_vector_product(spec, params, ds, weights, V)
    for i in range(6):
        single = dt.hessian_vector_product(spec, params, ds, weights, V[i])
        assert np.array_equal(batched[i], single)


def test_fd_hvp_matches_exact():
    spec = dt.ModelSpec("mlp", (4, 6, 3))
    ds = dt.synth_gaussian(3, 8, 4, 2.0, 1)
    params = dt.init_params(spec, 0)
    weights = np.full(len(ds), 1.0 / len(ds))
    v = np.random.default_rng(3).standard_normal(dt.as_flat(params).size)
    exact = dt.hessian_vector_product(spec, params, ds, weights, v)
    fd = central_difference_hvp(spec, params, ds, weights, v)
    assert np.linalg.norm(fd - exact) <= 1e-4 * np.linalg.norm(exact)


def test_dense_hessian_symmetric():
    spec = dt.ModelSpec("mlp", (4, 5, 2))
    ds = dt.synth_gaussian(2, 10, 4, 2.0, 8)
    params = dt.init_params(spec, 1)
    weights = np.full(len(ds), 1.0 / len(ds))
    H = dt.dense_hessian(spec, params, ds, weights)
    assert np.abs(H - H.T).max() <= 1e-12


@pytest.mark.parametrize("kind, widths", [
    ("logistic_regression", (4, 3)),  # P = 15: blocks of 4, the last of 3
    ("logistic_regression", (3, 4)),  # P = 16: four blocks of 4
    ("mlp", (5, 8, 2)),  # P = 66: seven blocks of 9 and one of 3
])
def test_blocked_dense_hessian_has_the_bits_of_one_stacked_call(kind, widths):
    spec, params, rows = _probe(kind, widths, "cross_entropy", 12, 4)
    weights = np.random.default_rng(4).uniform(0.5, 1.5, 12) / 12
    P = params.size
    want = dt.hessian_vector_product(spec, params, rows, weights, np.eye(P)).T
    assert dt.dense_hessian(spec, params, rows, weights).tobytes() == want.tobytes()


def test_dense_hessian_memory_is_bounded_by_its_blocks():
    # P = 1994 on 50 rows: one P-vector R-operator stack peaks near 230 MiB, the
    # ceil(sqrt(P))-vector blocks beside the 30 MiB result near 36 MiB.
    spec = dt.ModelSpec("mlp", (20, 64, 10))
    ds = dt.synth_gaussian(10, 5, 20, 2.0, 3)
    params = dt.init_params(spec, 3)
    weights = np.full(len(ds), 1.0 / len(ds))
    tracemalloc.start()
    try:
        H = dt.dense_hessian(spec, params, ds, weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert H.shape == (1994, 1994)
    assert peak < 64 * 2**20


@pytest.mark.parametrize("P", [*range(1, 41), 66, 1994, 5000])
def test_row_norms_have_the_bits_of_each_row_alone(P):
    rng = np.random.default_rng(P)
    for K in (1, 3, 16):
        for scale in 10.0 ** np.arange(-5, 6):
            A = scale * rng.standard_normal((K, P))
            want = [np.linalg.norm(row).hex() for row in A]
            assert [x.hex() for x in models.row_norms(A).tolist()] == want


def test_power_iteration_on_known_matrix():
    A = np.diag([3.0, -5.0, 1.0])
    lam = dt.power_iteration_max_eig(lambda v: A @ v, dim=3, iterations=300, seed=0)
    assert abs(lam - 5.0) <= 1e-8


def test_stacked_power_iteration_rows_equal_each_operator_alone():
    spec, params, (X, Y) = _probe("mlp", (4, 6, 3), "cross_entropy", 6, 2)
    lin = models.linearize(spec, params, (X, Y))

    def shifted(rows, weights):
        return lambda v: dt.hessian_vector_product(spec, params, rows, weights, v) + 0.1 * v

    stacked = shifted(lin.take(np.arange(6)[:, None]), np.ones((6, 1)))
    eigs = dt.power_iteration_max_eig(stacked, dim=(6, params.size), iterations=40, seed=3)
    assert eigs.shape == (6,)
    for j in range(6):
        alone = shifted(lin.take([[j]]), np.ones((1, 1)))
        assert eigs[j] == dt.power_iteration_max_eig(alone, dim=params.size, iterations=40, seed=3)
    # an operator that maps its iterate to zero reads 0.0 and leaves the others be
    D = np.array([[3.0, -5.0, 1.0], [0.0, 0.0, 0.0], [2.0, 1.0, 0.5]])
    eigs = dt.power_iteration_max_eig(lambda V: D * V, dim=(3, 3), iterations=300, seed=0)
    for d, eig in zip(D, eigs):
        assert eig == dt.power_iteration_max_eig(lambda v: d * v, dim=3, iterations=300, seed=0)
    assert eigs[1] == 0.0 and abs(eigs[0] - 5.0) <= 1e-8


def test_paired_row_sets_must_match_the_vectors():
    spec, params, rows = _probe("mlp", (4, 6, 3), "cross_entropy", 6, 2)
    sets = models.linearize(spec, params, rows).take(np.arange(6).reshape(3, 2))
    W = np.ones((3, 2))
    V = np.ones((3, params.size))
    with pytest.raises(ShapeError):
        dt.hessian_vector_product(spec, params, sets, W, V[:2])
    with pytest.raises(ShapeError):
        dt.hessian_vector_product(spec, params, sets, W[:, :1], V)


@pytest.mark.parametrize(
    "widths, loss", [((4, 6, 5, 3), "cross_entropy"), ((3, 2), "squared_error")]
)
def test_the_hvp_operator_gives_the_bytes_of_the_public_call(widths, loss):
    # built once, applied many times: on shared rows, on runs of row sets of
    # a gathered linearization (as the Neumann series applies it) and on a
    # (k, P) stack, each with the bytes of hessian_vector_product
    kind = "mlp" if len(widths) > 2 else "logistic_regression"
    spec, params, (X, Y) = _probe(kind, widths, loss, 12, 5)
    rng = np.random.default_rng(1)
    weights = rng.uniform(0.5, 1.5, 12) / 12
    V = rng.standard_normal((6, params.size))
    lin = models.linearize(spec, params, (X, Y))
    shared = models._HvpOperator(spec, params, lin, weights)
    want = dt.hessian_vector_product(spec, params, (X, Y), weights, V)
    assert shared(V).tobytes() == want.tobytes()
    for r in range(6):
        alone = dt.hessian_vector_product(spec, params, lin, weights, V[r])
        assert shared(V[r : r + 1])[0].tobytes() == alone.tobytes()

    sets = rng.integers(12, size=(6, 4))  # 3 steps of K = 2 sets of 4 rows
    W = rng.uniform(0.5, 1.5, (6, 4)) / 4  # each set's own weights, as a run must pair them
    gathered = lin.take(sets)
    paired = models._HvpOperator(spec, params, gathered, W)
    want = dt.hessian_vector_product(spec, params, gathered, W, V)
    assert paired(V).tobytes() == want.tobytes()
    for j in range(3):
        step = slice(2 * j, 2 * j + 2)
        got = paired(V[:2], step)
        view = dt.hessian_vector_product(spec, params, gathered.take(step), W[step], V[:2])
        alone = dt.hessian_vector_product(spec, params, lin.take(sets[step]), W[step], V[:2])
        assert got.tobytes() == view.tobytes() == alone.tobytes()


def test_shape_mismatch_raises():
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    params = dt.init_params(spec, 0)
    with pytest.raises(ShapeError):
        dt.per_sample_gradients(spec, params, ([np.zeros(3)], [0]))
    ds = dt.synth_gaussian(2, 4, 4, 2.0, 0)
    with pytest.raises(ShapeError):
        dt.batch_gradient(spec, params, ds, np.ones(3))
    with pytest.raises(ShapeError):
        dt.accuracy(spec, params, dt.synth_gaussian(2, 4, 3, 2.0, 0))
    se_spec = dt.ModelSpec("logistic_regression", (4, 2), loss="squared_error")
    with pytest.raises(ShapeError):
        dt.accuracy(se_spec, dt.init_params(se_spec, 0), (np.zeros((3, 4)), np.zeros((3, 2))))
    # a vector of the wrong length: the same typed error from the HVP and its inverse
    short = np.ones(params.size - 1)
    with pytest.raises(ShapeError, match="parameter count"):
        dt.hessian_vector_product(spec, params, ds, np.full(len(ds), 1.0 / len(ds)), short)
    with pytest.raises(ShapeError, match="parameter count"):
        dt.inverse_hvp(spec, params, ds, short, dt.InverseHvpConfig())


@pytest.mark.parametrize("kind, widths, loss, image", [
    ("mlp", (4, 6, 3), "cross_entropy", (2, 2)),
    ("mlp", (4, 6, 2), "squared_error", (2, 2)),
    ("logistic_regression", (4, 1), "squared_error", (1, 4)),
    ("mlp", (4, 3, 1), "squared_error", (1, 4)),
])
def test_image_rows_are_shared_rows_at_every_entry_point(kind, widths, loss, image):
    # 6 images of a 4-input model are 6 rows at every entry point, with the
    # bits of the same rows flattened to (6, 4), also where the squared-error
    # labels (6, out) lead with the images' first two axes: (6, 1, 4) rows
    # beside (6, 1) targets are not 6 one-row sets
    spec, params, (X, Y) = _probe(kind, widths, loss, 6, 5)
    images = (X.reshape(6, *image), Y)
    weights = np.linspace(0.5, 1.5, 6)
    V = np.random.default_rng(1).standard_normal((2, params.size))
    lin, flat = models.linearize(spec, params, images), models.linearize(spec, params, (X, Y))
    assert lin.samples == flat.samples == (6,)
    for got, want in ((lin.losses, flat.losses), *zip(lin.deltas, flat.deltas)):
        assert got.tobytes() == want.tobytes()
    assert (dt.sample_losses(spec, params, images).tobytes()
            == dt.sample_losses(spec, params, (X, Y)).tobytes())
    for v in (V, V[0]):
        want = dt.hessian_vector_product(spec, params, (X, Y), weights, v)
        for rows in (images, lin):
            assert dt.hessian_vector_product(spec, params, rows, weights, v).tobytes() == want.tobytes()
    assert np.array_equal(dt.per_sample_gradients(spec, params, images),
                          dt.per_sample_gradients(spec, params, (X, Y)))
    for got, want in zip(models.loss_and_gradient(spec, params, images, weights),
                         models.loss_and_gradient(spec, params, (X, Y), weights)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # and to a training step's stack of parameters over them
    stack = params + 0.1 * np.random.default_rng(2).standard_normal((3, params.size))
    W = weights * np.arange(1, 4)[:, None]
    for got, want in zip(models._loss_and_gradient(_step_lin(spec, stack, images), W),
                         models._loss_and_gradient(_step_lin(spec, stack, (X, Y)), W)):
        assert got.shape == want.shape and np.array_equal(got, want)


def test_each_entry_point_evaluates_the_model_once(count_calls):
    spec, params, rows = _probe("mlp", (4, 6, 3), "cross_entropy", 5, 1)
    weights = np.full(5, 0.2)
    stack = params + np.zeros((2, 1))
    calls = count_calls((models, "_forward"))
    reads = {
        "loss_and_gradient": lambda: models.loss_and_gradient(spec, params, rows, weights),
        "stacked step": lambda: models._loss_and_gradient(
            _step_lin(spec, stack, rows), np.tile(weights, (2, 1))
        ),
        "per_sample_gradients": lambda: models.per_sample_gradients(spec, params, rows),
        "sample_losses": lambda: models.sample_losses(spec, params, rows),
        "linearize": lambda: models.linearize(spec, params, rows),
        "test_gradients": lambda: models.test_gradients(spec, params, rows, per_test=True),
    }
    out = {}
    for name, read in reads.items():
        calls["_forward"] = 0
        out[name] = read()
        assert calls["_forward"] == 1, name
    # each reads the same evaluation
    losses, g = out["loss_and_gradient"]
    assert np.array_equal(out["sample_losses"], losses)
    assert np.array_equal(out["linearize"].losses, losses)
    assert np.array_equal(out["stacked step"][1], np.stack([g, g]))
    assert np.array_equal(out["test_gradients"][0], g)
    assert np.array_equal(out["test_gradients"][1:], out["per_sample_gradients"])


def test_a_parameter_stack_is_refused_where_one_vector_is_read(monkeypatch):
    spec = dt.ModelSpec("logistic_regression", (2, 2))
    ds = dt.LabeledDataset([[2.0, 0.0], [-2.0, 0.0]], [0, 1], 2)
    stack = np.tile([1.0, 0.0, -1.0, 0.0, 0.0, 0.0], (3, 1))

    def no_forward(*args):
        raise AssertionError("forward pass on a parameter stack")

    monkeypatch.setattr(models, "_forward", no_forward)
    weighted = [lambda spec, params, ds, f=f: f(spec, params, ds, np.full((len(params), 2), 0.5))
                for f in (dt.loss_and_gradient, dt.batch_gradient)]
    def hvp(spec, params, ds):
        return dt.hessian_vector_product(spec, params, ds, np.full(2, 0.5), np.ones(6))

    reads = (dt.accuracy, dt.per_sample_gradients, dt.sample_losses, dt.linearize, hvp, *weighted)
    # stacks are a training step's own, even of one row with its vector's bytes
    for params in (stack, stack[:1]):
        for read in reads:
            with pytest.raises(ShapeError, match=rf"shape \({len(params)}, 6\), expected one vector"):
                read(spec, params, ds)


def test_accuracy_and_test_loss():
    spec = dt.ModelSpec("logistic_regression", (2, 2))
    # weights that classify by the first coordinate's sign
    params = np.array([1.0, 0.0, -1.0, 0.0, 0.0, 0.0])
    ds = dt.LabeledDataset([[2.0, 0.0], [-2.0, 0.0]], [0, 1], 2)
    assert dt.accuracy(spec, params, ds) == 1.0
    assert dt.test_loss(spec, params, ds) > 0.0


@st.composite
def _hvp_cases(draw):
    kind = draw(st.sampled_from(models.KINDS))
    loss = draw(st.sampled_from(models.LOSSES))
    hidden = [] if kind == "logistic_regression" else draw(
        st.lists(st.integers(1, 6), min_size=1, max_size=2)
    )
    widths = (draw(st.integers(1, 5)), *hidden, draw(st.integers(1, 4)))
    spec = dt.ModelSpec(kind, widths, draw(st.sampled_from(models.ACTIVATIONS)), loss)
    _, params, rows = _probe(kind, widths, loss, draw(st.integers(1, 9)), draw(st.integers(0, 2**16)))
    return spec, params, rows, draw(st.integers(2, 5)), draw(st.integers(1, 4))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_hvp_cases())
def test_exact_hvp_properties_on_random_architectures(case):
    spec, params, rows, k, b = case  # k >= 2 vectors in the stack, b >= 1 rows per set
    n = len(rows[0])
    # A central difference across a ReLU kink measures a different slope.
    Zs, _ = models._forward(spec, *models._unpack(spec, params), rows[0])
    assume(spec.activation == "identity" or all(np.abs(z).min() > 1e-3 for z in Zs[:-1]))
    weights = np.random.default_rng(n).uniform(0.5, 1.5, n) / n
    V = np.random.default_rng(k).standard_normal((k, params.size))
    HV = dt.hessian_vector_product(spec, params, rows, weights, V)
    # symmetric: u^T H v = v^T H u
    u, v = V[0], V[1]
    scale = np.linalg.norm(u) * np.linalg.norm(HV[1]) + np.linalg.norm(v) * np.linalg.norm(HV[0])
    assert abs(u @ HV[1] - v @ HV[0]) <= 1e-12 * scale
    # a stack equals its rows done one by one
    for row, hv in zip(V, HV):
        assert np.array_equal(dt.hessian_vector_product(spec, params, rows, weights, row), hv)
    # k row sets as a step gathers them, paired with the k vectors: row j is
    # H(set j) v_j, bit-equal to set j alone
    X, Y = rows
    sets = np.random.default_rng(b).integers(n, size=(k, b))
    W = np.random.default_rng(b + 1).uniform(0.5, 1.5, (k, b)) / b
    paired = models._HvpOperator(spec, params, _step_lin(spec, params, rows, sets), W)(V)
    for j, (s, w) in enumerate(zip(sets, W)):
        assert np.array_equal(dt.hessian_vector_product(spec, params, (X[s], Y[s]), w, V[j]),
                              paired[j])
    # so does a step's stack of parameters with its weights
    stack = params + 0.1 * V
    W = weights * np.arange(1, k + 1)[:, None]
    losses, G = models._loss_and_gradient(_step_lin(spec, stack, rows), W)
    for p, w, l, g in zip(stack, W, losses, G):
        one_l, one_g = models.loss_and_gradient(spec, p, rows, w)
        assert np.array_equal(one_l, l) and np.array_equal(one_g, g)
    # agrees with the central-difference HVP
    fd = central_difference_hvp(spec, params, rows, weights, V)
    g = dt.batch_gradient(spec, params, rows, weights)
    for f, hv in zip(fd, HV):
        assert np.linalg.norm(f - hv) <= 1e-6 * np.linalg.norm(hv) + 1e-9 * np.linalg.norm(g) + 1e-12


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_hvp_cases(), st.integers(1, 5))
def test_loss_and_gradient_row_sets_are_bit_equal_to_each_set_alone(case, K):
    # a training step's K row sets of b >= 1 rows each, paired with a stack
    spec, params, (X, Y), _, b = case
    rng = np.random.default_rng([K, b, len(X)])
    stack = params + 0.1 * rng.standard_normal((K, params.size))
    sets = rng.integers(len(X), size=(K, b))
    W = rng.uniform(0.5, 1.5, (K, b)) / b
    losses, G = models._loss_and_gradient(_step_lin(spec, stack, (X, Y), sets), W)
    assert losses.shape == (K, b) and G.shape == (K, params.size)
    for p, s, w, loss, g in zip(stack, sets, W, losses, G):
        one_loss, one_g = models.loss_and_gradient(spec, p, (X[s], Y[s]), w)
        assert np.array_equal(one_loss, loss) and np.array_equal(one_g, g)


@pytest.mark.parametrize("activation", models.ACTIVATIONS)
@pytest.mark.parametrize("loss", models.LOSSES)
@pytest.mark.parametrize("kind, widths", [("mlp", (4, 6, 5, 3)), ("logistic_regression", (4, 3))])
def test_a_kept_state_gives_the_hvp_bits_of_its_raw_rows(kind, widths, loss, activation):
    # A walk keeps of each step's paired linearization only what its rows
    # cannot give back; restored from that and the rows' inputs, each HVP
    # runs the R-operator alone, with the bits of the raw rows at the step's
    # parameters under any weights.
    _, params, (X, Y) = _probe(kind, widths, loss, 9, 5)
    spec = dt.ModelSpec(kind, widths, activation, loss)
    rng = np.random.default_rng(1)
    K, b = 3, 4
    stack = params + 0.1 * rng.standard_normal((K, params.size))
    sets = rng.integers(len(X), size=(K, b))
    kept = models.keep(_step_lin(spec, stack, (X, Y), sets))
    assert kept.params is kept.losses is kept.act_grads is None
    V = rng.standard_normal((2, params.size))
    W = rng.uniform(0.5, 1.5, (K, b)) / b
    hit = np.array([True, False, True, True])
    for r in range(K):
        state, rows = kept.take(r), (X[sets[r]], Y[sets[r]])
        want = dt.hessian_vector_product(spec, stack[r], rows, W[r], V)
        got = models._hvp_exact(models.restore(state, X[sets[r]]), W[r], V)
        assert got.tobytes() == want.tobytes()
        G = dt.per_sample_gradients(spec, stack[r], rows)[hit]
        picked = models.restore(state, X[sets[r]][hit], hit)
        assert np.allclose(models._sample_gradients(picked), G, rtol=1e-12, atol=1e-14)
        dots = models.gradient_dots(picked, V)
        assert np.allclose(dots, V @ G.T, rtol=1e-12, atol=1e-14)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_hvp_cases())
def test_a_linearization_gives_the_bits_of_its_rows(case):
    spec, params, (X, Y), k, b = case  # k >= 2 vectors, b >= 1 rows per set
    n = len(X)
    rng = np.random.default_rng([n, k, b])
    V = rng.standard_normal((k, params.size))
    sets = rng.integers(n, size=(k, b))
    sets[-1] = sets[0]  # a take may repeat a set
    shared = models.linearize(spec, params, (X, Y))
    paired = shared.take(sets)
    weights = rng.uniform(0.5, 1.5, n) / n
    for v in (V, V[0]):
        want = dt.hessian_vector_product(spec, params, (X, Y), weights, v)
        got = dt.hessian_vector_product(spec, params, shared, weights, v)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # shared rows gathered into (k, b) sets: each set has the bits of its gather alone,
    # and the values of the set's rows alone (their forward pass may sum in another order)
    weights = rng.uniform(0.5, 1.5, (k, b)) / b
    gathered = dt.hessian_vector_product(spec, params, paired, weights, V)
    alone = [
        dt.hessian_vector_product(spec, params, shared.take(sets[j : j + 1]), weights[j : j + 1],
                                  V[j : j + 1])
        for j in range(k)
    ]
    assert gathered.tobytes() == np.concatenate(alone).tobytes()
    for j in range(k):
        want = dt.hessian_vector_product(spec, params, (X[sets[j]], Y[sets[j]]), weights[j], V[j])
        np.testing.assert_allclose(gathered[j], want, rtol=1e-12, atol=1e-12)
    # the views of one set or a slice of the sets have the bits of their sets gathered alone
    one = paired.take(1)
    assert one.samples == (b,)
    for v in (V[1], V):
        want = np.concatenate([
            dt.hessian_vector_product(spec, params, shared.take(sets[1:2]), weights[1:2], u[None])
            for u in np.atleast_2d(v)
        ])
        got = dt.hessian_vector_product(spec, params, one, weights[1], v)
        assert got.tobytes() == want.tobytes()
    tail = paired.take(slice(1, k))
    want = dt.hessian_vector_product(spec, params, shared.take(sets[1:]), weights[1:], V[1:])
    got = dt.hessian_vector_product(spec, params, tail, weights[1:], V[1:])
    assert got.tobytes() == want.tobytes()
    # a slice takes its sets as views
    assert all(np.shares_memory(x, y) for x, y in zip(tail.deltas, paired.deltas))

    # a linearization holds its own copy of the parameters, and serves no others
    weights = np.full(n, 1.0 / n)
    moved = params.copy()
    lin = models.linearize(spec, moved, (X, Y))
    moved[-1] = np.nextafter(moved[-1], np.inf)
    other = "identity" if spec.activation == "relu" else "relu"
    other_spec = dt.ModelSpec(spec.kind, spec.layer_widths, other, spec.loss)
    for call_spec, call_params in ((spec, moved), (other_spec, params)):
        with pytest.raises(ShapeError, match="linearization"):
            dt.hessian_vector_product(call_spec, call_params, lin, weights, V[0])
    with pytest.raises(ShapeError, match="weights of shape"):
        dt.hessian_vector_product(spec, params, lin, weights[None], V[0])
    for bad_take in (lambda: shared.take([0]), lambda: shared.take(0), lambda: paired.take(sets),
                     lambda: paired.take([1])):
        with pytest.raises(ShapeError, match="take"):
            bad_take()
    # one from keep or restore has no parameters to check against
    for bare in (models.keep(lin), models.restore(models.keep(lin), X)):
        with pytest.raises(ShapeError, match="linearization"):
            dt.hessian_vector_product(spec, params, bare, weights, V[0])
    bad = V[0].copy()
    bad[0] = np.nan
    with pytest.raises(NumericError, match="Hessian-vector"):
        dt.hessian_vector_product(spec, params, lin, weights, bad)
