"""Influence-functions baseline via inverse-Hessian-vector products.

The influence of a training point on a test point is evaluated at the final
parameters only: IF_i = -g_test^T (H_T + shift I)^{-1} g_i. H is symmetric, so
IF_i = -g_i^T s_test with s_test = (H_T + shift I)^{-1} g_test (Koh & Liang,
2017): one inverse HVP per call serves every training sample. It can be
computed by damped conjugate gradient, by the stochastic Neumann-series
iteration with single-sample Hessians (LiSSA; Agarwal et al., 2017), or (for
tiny models) by a dense solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data, models
from .exceptions import ConvergenceError, ScalingError

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
            raise ValueError(f"unknown inverse-HVP method {self.method!r}")
        if self.damping < 0.0:
            raise ValueError("damping must be >= 0")


@dataclass
class InfluenceReport:
    method: str  # influence_cg | influence_neumann | influence_dense
    values: dict  # train index -> IF(z_i, test subset)
    scaled_values: dict  # train index -> -IF / N, comparable to C(i)
    pair_values: dict | None
    diagnostics: dict
    n_train: int


def _shifted(model, params, rows, weights, shift):
    """The operator v -> (H + shift I) v, H the weighted empirical-risk Hessian on ``rows``."""

    def matvec(v):
        return models.hessian_vector_product(model, params, rows, weights, v) + shift * v

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


def _neumann_scale(model, params, dataset, shift, config):
    if config.neumann_scale is not None:
        return float(config.neumann_scale)
    # The iteration applies single-sample Hessians, whose spectra can exceed
    # the mean Hessian's, so the scale must bound the largest per-sample
    # eigenvalue seen over a probe subset.
    n = len(dataset)
    rng = np.random.default_rng([int(config.seed), 0x5CA1])
    probe = rng.choice(n, size=min(16, n), replace=False)
    dim = np.size(params)
    X, Y = dataset.features, dataset.labels
    max_eig = 0.0
    for d in probe:
        matvec = _shifted(model, params, (X[d : d + 1], Y[d : d + 1]), np.array([1.0]), shift)
        eig = models.power_iteration_max_eig(matvec, dim=dim, iterations=50, seed=config.seed)
        max_eig = max(max_eig, eig)
    # 1.1 headroom so the scaled operator has spectral radius < 1.
    return 1.1 * max(max_eig, 1e-12)


def _neumann(model, params, dataset, V, shift, scale, config):
    """Neumann-series estimates of every row of V, shape (repeats, r, P)."""
    n = len(dataset)
    vnorm = np.maximum(np.linalg.norm(V, axis=1), 1.0)
    estimates = np.zeros((config.neumann_repeats,) + V.shape)
    X, Y = dataset.features, dataset.labels
    for rep in range(config.neumann_repeats):
        rng = np.random.default_rng([int(config.seed), rep])
        R = V.copy()
        for _ in range(config.neumann_depth):
            d = int(rng.integers(n))
            hr = _shifted(model, params, (X[d : d + 1], Y[d : d + 1]), np.array([1.0]), shift)(R)
            R = V + R - hr / scale
            if np.any(np.linalg.norm(R, axis=1) > NEUMANN_DIVERGENCE_FACTOR * vnorm):
                raise ScalingError(
                    f"Neumann iterate diverged (scale {scale}); increase the scale"
                )
        estimates[rep] = R / scale
    return estimates


def inverse_hvp(model, params, dataset, v, config, weight_decay=0.0):
    """Approximate (H_T + shift I)^{-1} v. Returns (result, diagnostics).

    ``v`` may be a flat vector or an (r, P) stack; the result has the same
    shape. The solver is set up once per call (dense builds H once, Neumann
    estimates its scale once) and CG solves the rows one by one. For a stack,
    ``cg_residual`` is the largest row residual and ``cg_iterations`` the total.
    """
    V = np.asarray(v, dtype=np.float64)
    single = V.ndim == 1
    V = np.atleast_2d(V)
    if V.shape[1] != np.size(params):
        raise ValueError("vector length does not match parameter count")
    shift = config.damping
    if config.include_regularizer_in_hessian:
        shift += weight_decay
    uniform = np.full(len(dataset), 1.0 / len(dataset))
    if config.method == "conjugate_gradient":
        matvec = _shifted(model, params, dataset, uniform, shift)
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
        H = H + shift * np.eye(H.shape[0])
        X = np.linalg.solve(H, V.T).T
        diag = {}
    return (X[0] if single else X), diag


def influence(model, final_params, train_dataset, test_dataset, train_indices,
              config=InverseHvpConfig(), weight_decay=0.0, per_test=False):
    """IF(z_i, test subset) for each requested training index.

    One inverse HVP gives s_test = (H + shift I)^{-1} g_test, and
    ``values[i]`` = -g_i^T s_test, which equals -g_test^T H^{-1} g_i because H
    is symmetric; its sign follows the upweighting direction. With
    ``per_test`` the test-row gradients join the same solve, and
    ``pair_values[(i, j)]`` = -g_i^T s_j. ``scaled_values`` holds -IF/N, the
    first-order estimate of the test-loss change from removing the sample,
    which is the quantity comparable (in scale and sign) to trajectory
    contributions C(i). ``diagnostics`` are those of the one solve.
    """
    n = len(train_dataset)
    index = data.training_indices(train_indices, n)
    rhs = models.test_gradients(model, final_params, test_dataset, per_test)
    S, diagnostics = inverse_hvp(model, final_params, train_dataset, rhs, config, weight_decay)
    rows = (train_dataset.features[index], train_dataset.labels[index])
    # per_sample_gradients needs at least one row. Column 0 of the scores is
    # against g_test, column 1 + j against test row j.
    G = models.per_sample_gradients(model, final_params, rows) if index.size else S[:0]
    scores = -(G @ S.T)
    keys = index.tolist()
    values = {i: float(row[0]) for i, row in zip(keys, scores)}
    scaled = {i: -v / n for i, v in values.items()}
    pairs = None
    if per_test:
        pairs = {(i, j): float(x) for i, row in zip(keys, scores)
                 for j, x in enumerate(row[1:])}
    return InfluenceReport(
        method=_METHOD_TAGS[config.method],
        values=values,
        scaled_values=scaled,
        pair_values=pairs,
        diagnostics=diagnostics,
        n_train=n,
    )


def as_contribution_report(report, test_tag="test"):
    """View an influence report on the C(i) scale (-IF / N) for comparisons."""
    from .hypergrad import ContributionReport

    pair = None
    if report.pair_values is not None:
        pair = {k: -v / report.n_train for k, v in report.pair_values.items()}
    return ContributionReport(
        method=report.method,
        values=dict(report.scaled_values),
        pair_values=pair,
        test_tag=test_tag,
        n_train=report.n_train,
    )
