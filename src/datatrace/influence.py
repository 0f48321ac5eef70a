"""Influence-functions baseline via inverse-Hessian-vector products.

The influence of a training point on a test point is evaluated at the final
parameters only: IF_i = -g_test^T (H_T + shift I)^{-1} g_i. H is symmetric, so
IF_i = -g_i^T s_test with s_test = (H_T + shift I)^{-1} g_test (Koh & Liang,
2017): one inverse HVP per call serves every training sample. It can be
computed by damped conjugate gradient, by the stochastic Neumann-series
iteration with single-sample Hessians (LiSSA; Agarwal et al., 2017), or (for
tiny models) by a dense solve.

The Neumann chains are independent, so they run in lockstep: the scale is one
stacked power iteration over the probes' single-sample Hessians, and every
repeat's r iterates advance together with one paired HVP per series step, each
repeat on its own drawn sample. A solve makes 50 + depth HVP calls, and every
value is bit-identical to running the chains one after another.

Every HVP of a solve is taken at the same final parameters, so each solve
linearizes its rows once (``models.linearize``: the forward pass, softmax and
deltas) and each HVP runs only the vector-dependent R-forward and R-backward:
CG on the training set, the Neumann scale on its probes, the series on the
distinct samples it draws, all drawn up front, and the dense solve on the
training set, whose basis vectors go through ceil(sqrt(P)) at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import data, models, reports
from .exceptions import ConfigError, ConvergenceError, ScalingError, ShapeError

NEUMANN_DIVERGENCE_FACTOR = 1e6
_METHOD_TAGS = {
    "conjugate_gradient": "influence_cg",
    "neumann": "influence_neumann",
    "dense": "influence_dense",
}


@dataclass(frozen=True)
class InverseHvpConfig:
    method: str = "conjugate_gradient"  # conjugate_gradient | neumann | dense
    damping: float = 0.01
    cg_max_iters: int = 1000
    cg_tolerance: float = 1e-10
    neumann_depth: int = 500
    neumann_repeats: int = 4
    neumann_scale: float | None = None  # None -> 1.1 * max |eig| by power iteration
    seed: int = 0
    include_regularizer_in_hessian: bool = True

    def __post_init__(self):
        if self.method not in _METHOD_TAGS:
            raise ConfigError(f"unknown inverse-HVP method {self.method!r}")
        if not (math.isfinite(self.damping) and self.damping >= 0.0):
            raise ConfigError(f"damping = {self.damping!r} must be finite and >= 0")
        if self.cg_max_iters < 1 or not self.cg_tolerance > 0.0:
            raise ConfigError("cg_max_iters must be >= 1 and cg_tolerance > 0")
        if self.neumann_depth < 1 or self.neumann_repeats < 1:
            raise ConfigError("neumann_depth and neumann_repeats must be >= 1")
        scale = self.neumann_scale
        if scale is not None and not (math.isfinite(scale) and scale > 0.0):
            raise ConfigError(f"neumann_scale = {scale!r} must be None or finite and > 0")


def _shifted(model, params, lin, weights, shift):
    """The operator v -> (H + shift I) v, H the weighted empirical-risk Hessian of the
    rows that ``lin`` linearizes at ``params``."""

    def matvec(v):
        return models.hessian_vector_product(model, params, lin, weights, v) + shift * v

    return matvec


def _cg(matvec, v, tol, max_iters):
    """Conjugate gradient for (H + shift I) x = v; residual-norm stopping."""
    vnorm = float(np.linalg.norm(v))
    if vnorm == 0.0:
        return np.zeros_like(v), 0.0, 0
    x = np.zeros_like(v)
    r = v.copy()
    d = r.copy()
    rs = float(r @ r)
    for it in range(1, max_iters + 1):
        hd = matvec(d)
        alpha = rs / float(d @ hd)
        x += alpha * d
        r -= alpha * hd
        rs_new = float(r @ r)
        resid = np.sqrt(rs_new)
        if resid <= tol * vnorm:
            return x, resid, it
        d = r + (rs_new / rs) * d
        rs = rs_new
    raise ConvergenceError(
        f"CG did not reach tolerance in {max_iters} iterations "
        f"(residual {np.sqrt(rs):.3e} vs target {tol * vnorm:.3e})",
        residual=float(np.sqrt(rs)),
        iterations=max_iters,
    )


def _sample_sets(model, params, dataset, samples):
    """Each sample as its own one-row set, linearized in the paired form that
    ``hessian_vector_product`` takes with (K, 1) weights."""
    X, Y = dataset.features, dataset.labels
    return models.linearize(model, params, (X[samples][:, None], Y[samples][:, None]))


def _neumann_scale(model, params, dataset, shift, config):
    if config.neumann_scale is not None:
        return float(config.neumann_scale)
    # The iteration applies single-sample Hessians, whose spectra can exceed
    # the mean Hessian's, so the scale must bound the largest per-sample
    # eigenvalue seen over a probe subset. One stacked power iteration runs
    # the probes' operators side by side.
    n = len(dataset)
    rng = np.random.default_rng([int(config.seed), 0x5CA1])
    probe = rng.choice(n, size=min(16, n), replace=False)
    lin = _sample_sets(model, params, dataset, probe)
    matvec = _shifted(model, params, lin, np.ones((probe.size, 1)), shift)
    eigs = models.power_iteration_max_eig(
        matvec, dim=(probe.size, np.size(params)), iterations=50, seed=config.seed
    )
    # 1.1 headroom so the scaled operator has spectral radius < 1.
    return 1.1 * max(float(eigs.max()), 1e-12)


def _neumann(model, params, dataset, V, shift, scale, config):
    """Neumann-series estimates of every row of V, shape (repeats, r, P).

    The repeats x r iterates advance in lockstep, one paired HVP per step:
    each repeat draws its own sample per step from ``Generator([seed, rep])``
    and applies that sample's Hessian to its r iterates. The draws are made
    up front and their distinct samples linearized once. The steps' sets are
    gathered from that linearization ceil(sqrt(depth)) steps at a time, and
    each step reads its K = repeats x r sets as a contiguous view of its
    block. After every step each iterate's norm (``models.row_norms``) is
    checked against the divergence limit.
    """
    n, depth = len(dataset), config.neumann_depth
    repeats, r = config.neumann_repeats, len(V)
    rngs = [np.random.default_rng([int(config.seed), rep]) for rep in range(repeats)]
    draws = np.stack([rng.integers(n, size=depth) for rng in rngs], axis=1)
    samples, sets = np.unique(draws, return_inverse=True)
    lin = _sample_sets(model, params, dataset, samples)
    # Step t's K sets, each repeat's drawn sample once per right-hand side.
    steps = np.repeat(sets.reshape(draws.shape), r, axis=1)
    K = repeats * r
    ones = np.ones((K, 1))
    V = np.tile(V, (repeats, 1))
    limit = NEUMANN_DIVERGENCE_FACTOR * np.maximum(models.row_norms(V), 1.0)
    R = V.copy()
    block = math.isqrt(depth - 1) + 1
    for start in range(0, depth, block):
        gathered = lin.take(steps[start : start + block].ravel())
        for j in range(min(block, depth - start)):
            step = gathered.take(slice(j * K, (j + 1) * K))
            hr = _shifted(model, params, step, ones, shift)(R)
            R = V + R - hr / scale
            if np.any(models.row_norms(R) > limit):
                raise ScalingError(
                    f"Neumann iterate diverged (scale {scale}); increase the scale"
                )
    return (R / scale).reshape(repeats, r, -1)


def inverse_hvp(model, params, dataset, v, config, weight_decay=0.0):
    """Approximate (H_T + shift I)^{-1} v. Returns (result, diagnostics).

    ``v`` may be a flat vector or an (r, P) stack; the result has the same
    shape. The solver is set up once per call (dense builds H once, Neumann
    estimates its scale once). CG and the dense solve take the rows one by
    one, so each row's result has the bits of its solve alone. For a stack,
    ``cg_residual`` is the largest row residual and ``cg_iterations`` the total.
    """
    V = np.asarray(v, dtype=np.float64)
    single = V.ndim == 1
    V = np.atleast_2d(V)
    if V.shape[1] != np.size(params):
        raise ShapeError(f"vector length {V.shape[1]} != parameter count {np.size(params)}")
    shift = config.damping
    if config.include_regularizer_in_hessian:
        shift += weight_decay
    uniform = np.full(len(dataset), 1.0 / len(dataset))
    if config.method == "conjugate_gradient":
        matvec = _shifted(model, params, models.linearize(model, params, dataset), uniform, shift)
        runs = [_cg(matvec, row, config.cg_tolerance, config.cg_max_iters) for row in V]
        X = np.array([x for x, _, _ in runs])
        diag = {
            "cg_residual": max(resid for _, resid, _ in runs),
            "cg_iterations": sum(iters for _, _, iters in runs),
        }
    elif config.method == "neumann":
        scale = _neumann_scale(model, params, dataset, shift, config)
        estimates = _neumann(model, params, dataset, V, shift, scale, config)
        X = estimates.mean(axis=0)
        spread = float(np.linalg.norm(estimates.std(axis=0)))
        diag = {"neumann_scale": scale, "neumann_repeat_std": spread}
    else:
        H = models.dense_hessian(model, params, dataset, uniform)
        H += 0.0  # the bits of H + shift * I, where -0.0 + 0.0 is +0.0 off the diagonal
        H[np.diag_indices(len(H))] += shift
        X = np.linalg.solve(H, V[:, :, None])[..., 0]
        diag = {}
    return (X[0] if single else X), diag


def influence(model, final_params, train_dataset, test_dataset, train_indices,
              config=InverseHvpConfig(), weight_decay=0.0, per_test=False):
    """Influence contributions on the C(i) scale for each requested training index.

    One inverse HVP gives s_test = (H + shift I)^{-1} g_test, and
    IF_i = -g_i^T s_test, which equals -g_test^T H^{-1} g_i because H is
    symmetric: the derivative of the test loss in the sample's upweighting.
    ``values[i]`` is C(i) = -IF_i / N, the first-order estimate of the
    test-loss change from removing the sample, comparable in scale and sign
    to trajectory contributions. With ``per_test`` the test-row gradients
    join the same solve, and ``pair_values[(i, j)]`` = g_i^T s_j / N. No
    index at all raises ValueError before the solve.
    """
    index = data.training_indices(train_indices, len(train_dataset), allow_empty=False)
    rhs = models.test_gradients(model, final_params, test_dataset, per_test)
    S, _ = inverse_hvp(model, final_params, train_dataset, rhs, config, weight_decay)
    rows = (train_dataset.features[index], train_dataset.labels[index])
    # Row 0 of the derivatives is against g_test, row 1 + j against test row j.
    G = models.per_sample_gradients(model, final_params, rows)
    return reports.from_loss_derivatives(
        _METHOD_TAGS[config.method], index.tolist(), -models.row_dots(S, G), len(train_dataset)
    )
