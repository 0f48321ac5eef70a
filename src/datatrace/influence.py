"""Influence-functions baseline via inverse-Hessian-vector products.

The influence of a training point on a test point is evaluated at the final
parameters only: IF_i = -g_test^T (H_T + shift I)^{-1} g_i. H is symmetric, so
IF_i = -g_i^T s_test with s_test = (H_T + shift I)^{-1} g_test (Koh & Liang,
2017): one inverse HVP per call serves every training sample. It can be
computed by damped conjugate gradient, by the stochastic Neumann-series
iteration with batch-mean Hessians (LiSSA's inner averaging, Agarwal et al.,
2017; Koh & Liang's recursion batch), or (for tiny models) by a dense solve.

Each Neumann draw is a set of b = min(16, n) rows weighted 1/b. A batch-mean
Hessian's spectrum lies far closer to the mean Hessian's than a single
sample's, so the scale that bounds it is smaller and the series contracts
faster per step; the default depth is 150. The chains are independent, so
they run in lockstep: the scale is one stacked power iteration over 16 probe
sets, and every repeat's r iterates advance together with one paired HVP per
series step, each repeat on its own drawn set. A solve applies 50 + depth
HVPs, and every value is bit-identical to running the chains one after
another.

Every HVP of a solve is taken at the same final parameters, so each solve
linearizes its rows once (``models.linearize``: the forward pass, softmax and
deltas) and each HVP runs only the vector-dependent R-forward and R-backward.
CG and the Neumann solver linearize the training set; the Neumann probe sets
and series sets are gathered from that one linearization, the series in
blocks of ceil(sqrt(depth)) steps (12 gathers at depth 150). The dense solve
linearizes the training set and sends its basis vectors through
ceil(sqrt(P)) at a time.

Each solve checks its inputs once: CG, the scale's power iteration, the
dense blocks and each gathered block of the series build one HVP operator
(``models._HvpOperator``, which checks the spec, the parameter bytes and the
weights), so a linearization at other parameters is refused before the first
step, and each step applies only the R-operator and its finiteness check
(a series step on its run of the block's row sets). CG goes on past a
non-positive curvature d^T (H + shift I) d, since it may still converge on
an indefinite H + shift I, and names the first such curvature if it does
not; a zero curvature raises at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import data, models, reports
from .exceptions import ConfigError, ConvergenceError, ScalingError, ShapeError

NEUMANN_DIVERGENCE_FACTOR = 1e6
NEUMANN_BATCH = 16  # rows b per drawn set, or n when the training set is smaller
NEUMANN_PROBES = 16  # probe sets of the scale's power iteration
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
    neumann_depth: int = 150
    neumann_repeats: int = 4
    neumann_scale: float | None = None  # None -> 1.1 * max |eig| by power iteration
    seed: int = 0

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
    """The operator V -> (H + shift I) V on a (k, P) stack, H the weighted empirical-risk
    Hessian of the rows that ``lin`` linearizes at ``params``; ``sets`` (a slice)
    picks those row sets of a paired ``lin`` and rows of ``weights``.

    The HVP operator is built, and its inputs checked, once here; each
    application runs only the R-operator and its finiteness check.
    """
    hvp = models._HvpOperator(model, params, lin, weights)

    def matvec(V, sets=None):
        return hvp(V, sets) + shift * V

    return matvec


def _cg(matvec, v, tol, max_iters):
    """Conjugate gradient for (H + shift I) x = v; residual-norm stopping.

    ``matvec`` maps a (1, P) stack. A non-positive curvature d^T (H + shift I) d
    along a search direction d shows that H + shift I is not positive
    definite. CG may still converge then (H + shift I need only be
    nonsingular), so it goes on; if it does not converge, its
    ConvergenceError names the first such curvature and its iteration. A
    zero curvature breaks CG down and raises ConvergenceError at once.
    """
    vnorm = float(np.linalg.norm(v))
    if vnorm == 0.0:
        return np.zeros_like(v), 0.0, 0
    x = np.zeros_like(v)
    r = v.copy()
    d = r.copy()
    rs = float(r @ r)
    indefinite = ""
    for it in range(1, max_iters + 1):
        hd = matvec(d[None])[0]
        curvature = float(d @ hd)
        if curvature <= 0.0 and not indefinite:
            indefinite = (
                f"; curvature d.(H+shift)d = {curvature:.3e} <= 0 at iteration {it}: "
                "H + shift is not positive definite, raise the damping"
            )
        if curvature == 0.0:
            raise ConvergenceError(
                f"CG broke down at iteration {it}{indefinite}",
                residual=float(np.sqrt(rs)),
                iterations=it,
            )
        alpha = rs / curvature
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
        f"(residual {np.sqrt(rs):.3e} vs target {tol * vnorm:.3e}){indefinite}",
        residual=float(np.sqrt(rs)),
        iterations=max_iters,
    )


def _neumann_scale(model, params, lin, shift, config):
    """The series' scale: ``config.neumann_scale``, or 1.1 x the largest eigenvalue of
    H + shift over 16 probe sets of b rows gathered from the training set's
    linearization ``lin``.

    The series applies batch-mean Hessians, whose spectra can exceed the
    mean Hessian's, so the scale must bound the largest eigenvalue seen over
    sets of the same size. One stacked power iteration runs the probe sets'
    operators side by side.
    """
    if config.neumann_scale is not None:
        return float(config.neumann_scale)
    n = lin.samples[0]
    b = min(NEUMANN_BATCH, n)
    rng = np.random.default_rng([int(config.seed), 0x5CA1])
    probes = lin.take(rng.integers(n, size=(NEUMANN_PROBES, b)))
    matvec = _shifted(model, params, probes, np.full((NEUMANN_PROBES, b), 1.0 / b), shift)
    eigs = models.power_iteration_max_eig(
        matvec, dim=(NEUMANN_PROBES, np.size(params)), iterations=50, seed=config.seed
    )
    # 1.1 headroom so the scaled operator has spectral radius < 1.
    return 1.1 * max(float(eigs.max()), 1e-12)


def _neumann(model, params, lin, V, shift, scale, config):
    """Neumann-series estimates of every row of V, shape (repeats, r, P).

    The repeats x r iterates advance in lockstep, one paired HVP per step:
    each repeat draws its (depth, b) block of row indices in one call to
    ``Generator([seed, rep])`` and applies step t's batch-mean Hessian, over
    the b rows of its row t, to its r iterates. The sets are gathered from
    the training set's one linearization ``lin`` ceil(sqrt(depth)) steps at
    a time, and each step applies the operator of its block (one per
    gather) to its K = repeats x r sets, a contiguous run of the block's.
    After every step each iterate's norm (``models.row_norms``) is checked
    against the divergence limit.
    """
    n, depth = lin.samples[0], config.neumann_depth
    b = min(NEUMANN_BATCH, n)
    repeats, r = config.neumann_repeats, len(V)
    rngs = [np.random.default_rng([int(config.seed), rep]) for rep in range(repeats)]
    draws = np.stack([rng.integers(n, size=(depth, b)) for rng in rngs], axis=1)
    K = repeats * r
    V = np.tile(V, (repeats, 1))
    limit = NEUMANN_DIVERGENCE_FACTOR * np.maximum(models.row_norms(V), 1.0)
    R = V.copy()
    block = math.isqrt(depth - 1) + 1
    weights = np.full((block * K, b), 1.0 / b)
    for start in range(0, depth, block):
        # Step t's K sets: each repeat's drawn rows once per right-hand side.
        sets = np.repeat(draws[start : start + block], r, axis=1)
        gathered = lin.take(sets.reshape(-1, b))
        matvec = _shifted(model, params, gathered, weights[: len(sets) * K], shift)
        for j in range(len(sets)):
            hr = matvec(R, slice(j * K, (j + 1) * K))
            R = V + R - hr / scale
            if (models.row_norms(R) > limit).any():
                raise ScalingError(
                    f"Neumann iterate diverged (scale {scale}); increase the scale"
                )
        del gathered, matvec  # released before the next block is gathered
    return (R / scale).reshape(repeats, r, -1)


def inverse_hvp(model, params, dataset, v, config, weight_decay=0.0):
    """Approximately (H_T + shift I)^{-1} v, shift = damping + weight_decay: (result, diagnostics).

    ``v`` may be a flat vector or an (r, P) stack; the result has the same
    shape. The solver is set up once per call (dense builds H once, CG and
    Neumann linearize the training set once, Neumann estimates its scale
    once). CG and the dense solve take the rows one by one, so each row's
    result has the bits of its solve alone. For a stack,
    ``cg_residual`` is the largest row residual and ``cg_iterations`` the total.
    """
    V = np.asarray(v, dtype=np.float64)
    single = V.ndim == 1
    V = np.atleast_2d(V)
    if V.shape[1] != np.size(params):
        raise ShapeError(f"vector length {V.shape[1]} != parameter count {np.size(params)}")
    shift = config.damping + weight_decay
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
        lin = models.linearize(model, params, dataset)
        scale = _neumann_scale(model, params, lin, shift, config)
        estimates = _neumann(model, params, lin, V, shift, scale, config)
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
    index = data.training_indices(train_indices, len(train_dataset))
    rhs = models.test_gradients(model, final_params, test_dataset, per_test)
    S, _ = inverse_hvp(model, final_params, train_dataset, rhs, config, weight_decay)
    rows = (train_dataset.features[index], train_dataset.labels[index])
    # Row 0 of the derivatives is against g_test, row 1 + j against test row j.
    G = models.per_sample_gradients(model, final_params, rows)
    return reports.from_loss_derivatives(
        _METHOD_TAGS[config.method], index.tolist(), -models.row_dots(S, G), len(train_dataset)
    )
