"""Differentiable models: losses, per-sample gradients, Hessian-vector products.

Supported models are logistic regression and small ReLU MLPs, implemented
directly on float64 numpy arrays. Exact Hessian-vector products use the
R-operator (forward-over-reverse double differentiation); a central-difference
variant is kept for quantifying its truncation error. All operations are pure:
nothing mutates its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .exceptions import NumericError, ShapeError

KINDS = ("logistic_regression", "mlp")
ACTIVATIONS = ("relu", "identity")
LOSSES = ("cross_entropy", "squared_error")
DENSE_HESSIAN_CAP = 2000  # largest parameter count ``dense_hessian`` builds


def as_flat(params):
    """Parameters as a flat float64 array (no copy when already one)."""
    return np.asarray(params, dtype=np.float64)


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description. ``layer_widths`` runs input -> output."""

    kind: str
    layer_widths: tuple
    activation: str = "relu"
    loss: str = "cross_entropy"

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")
        if len(self.layer_widths) < 2 or any(w <= 0 for w in self.layer_widths):
            raise ValueError("layer_widths must be >= 2 positive integers")
        if self.kind == "logistic_regression" and len(self.layer_widths) != 2:
            raise ValueError("logistic regression has exactly one affine layer")

    @property
    def n_layers(self):
        return len(self.layer_widths) - 1

    @property
    def input_dim(self):
        return self.layer_widths[0]

    @property
    def output_dim(self):
        return self.layer_widths[-1]


def param_count(spec):
    widths = spec.layer_widths
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(widths, widths[1:]))


def init_params(spec, seed):
    """Glorot-uniform weights, zero biases, from a seeded generator."""
    rng = np.random.default_rng([int(seed), 0x1A17])
    flat = np.zeros(param_count(spec))
    for W in _unpack(spec, flat)[0]:
        fan_out, fan_in = W.shape
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        W[:] = rng.uniform(-bound, bound, size=(fan_out, fan_in))
    return flat


def _unpack(spec, flat):
    """Views (W_l, b_l) into the last axis of ``flat``, in layer order.

    The packing order is W0, b0, W1, b1, ...; a ``(..., P)`` stack gives
    ``(..., fan_out, fan_in)`` and ``(..., fan_out)`` views, so writing a
    block writes the stack.
    """
    lead = flat.shape[:-1]
    Ws, bs = [], []
    offset = 0
    for l in range(spec.n_layers):
        fan_in, fan_out = spec.layer_widths[l], spec.layer_widths[l + 1]
        Ws.append(flat[..., offset : offset + fan_out * fan_in].reshape(*lead, fan_out, fan_in))
        offset += fan_out * fan_in
        bs.append(flat[..., offset : offset + fan_out])
        offset += fan_out
    return Ws, bs


def _xy(dataset):
    if isinstance(dataset, LabeledDataset):
        return dataset.features, dataset.labels
    X, Y = dataset
    X = np.asarray(X, dtype=np.float64)
    # -1 cannot be inferred from zero rows.
    n = len(X)
    return X.reshape(n, -1 if n else int(np.prod(X.shape[1:], dtype=np.int64))), np.asarray(Y)


def _targets(spec, Y, n):
    """Canonicalize labels: int class indices for CE, (n, out) floats for SE."""
    if spec.loss == "cross_entropy":
        Y = np.asarray(Y)
        if not np.issubdtype(Y.dtype, np.integer):
            raise ShapeError("cross_entropy labels must be integer class indices")
        if Y.size and (Y.min() < 0 or Y.max() >= spec.output_dim):
            raise ShapeError("class index outside the output range")
        return Y.reshape(n)
    T = np.asarray(Y, dtype=np.float64).reshape(n, -1)
    if T.shape[1] != spec.output_dim:
        raise ShapeError(
            f"squared_error target width {T.shape[1]} != output {spec.output_dim}"
        )
    return T


def _check_inputs(spec, X):
    if X.shape[1] != spec.input_dim:
        raise ShapeError(f"input width {X.shape[1]} != model input {spec.input_dim}")


def _act(spec, z):
    if spec.activation == "relu":
        return np.maximum(z, 0.0)
    return z


def _act_grad(spec, z):
    if spec.activation == "relu":
        return (z > 0.0).astype(np.float64)
    return np.ones_like(z)


def _forward(spec, flat, X):
    """Returns (Zs, As): pre-activations per layer and inputs to each layer.

    A ``(..., P)`` stack of parameters gives ``(..., n, width)`` stacks over
    the shared input X, one ``np.matmul`` product per parameter vector.
    """
    Ws, bs = _unpack(spec, flat)
    As = [X]
    Zs = []
    for l in range(spec.n_layers):
        z = As[-1] @ Ws[l].swapaxes(-1, -2) + bs[l][..., None, :]
        Zs.append(z)
        if l < spec.n_layers - 1:
            As.append(_act(spec, z))
    return Zs, As


def _losses_and_delta(spec, logits, targets):
    """Per-sample losses plus the loss gradient w.r.t. the logits.

    ``logits`` may be a ``(..., n, out)`` stack over shared targets.
    """
    if spec.loss == "cross_entropy":
        rows = np.arange(logits.shape[-2])
        zmax = logits.max(axis=-1, keepdims=True)
        ez = np.exp(logits - zmax)
        sez = ez.sum(axis=-1, keepdims=True)
        lse = np.log(sez[..., 0]) + zmax[..., 0]
        losses = lse - logits[..., rows, targets]
        soft = ez / sez
        delta = soft.copy()
        delta[..., rows, targets] -= 1.0
        return losses, delta, soft
    resid = logits - targets
    losses = 0.5 * (resid**2).sum(axis=-1)
    return losses, resid, None


def sample_losses(spec, params, dataset):
    """Per-sample losses for every row of the dataset, at one parameter vector."""
    X, Y = _xy(dataset)
    _check_inputs(spec, X)
    flat = as_flat(params)
    if flat.ndim != 1:  # test_loss would average a stack's rows together
        raise ShapeError(f"parameters of shape {flat.shape}, expected one vector")
    Zs, _ = _forward(spec, flat, X)
    targets = _targets(spec, Y, len(X))
    losses, _, _ = _losses_and_delta(spec, Zs[-1], targets)
    if not np.all(np.isfinite(losses)):
        raise NumericError("non-finite loss value")
    return losses


def per_sample_loss(spec, params, x, y):
    return float(sample_losses(spec, params, ([x], [y]))[0])


def _backprop_pack(spec, flat, Zs, As, delta, weights=None, per_sample=False):
    """Reverse pass. Packs gradients into flat vectors in layout order.

    With ``per_sample`` returns an (n, P) matrix of per-sample gradients;
    otherwise the weighted sum (weights default to all ones), which for a
    ``(..., P)`` stack of parameters and ``(..., n)`` weights is a
    ``(..., P)`` stack.
    """
    Ws, _ = _unpack(spec, flat)
    n = delta.shape[-2]
    if per_sample:
        out = np.zeros((n, flat.size))
    else:
        out = np.zeros(flat.shape)
        w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    GWs, Gbs = _unpack(spec, out)
    D = delta
    for l in reversed(range(spec.n_layers)):
        if per_sample:
            GWs[l][:] = np.einsum("no,ni->noi", D, As[l])
            Gbs[l][:] = D
        else:
            wD = D * w[..., None]
            GWs[l][:] = wD.swapaxes(-1, -2) @ As[l]
            Gbs[l][:] = wD.sum(axis=-2)
        if l > 0:
            D = (D @ Ws[l]) * _act_grad(spec, Zs[l - 1])
    return out


def per_sample_gradients(spec, params, dataset):
    """(n, P) matrix of per-sample loss gradients."""
    X, Y = _xy(dataset)
    _check_inputs(spec, X)
    flat = as_flat(params)
    Zs, As = _forward(spec, flat, X)
    targets = _targets(spec, Y, len(X))
    _, delta, _ = _losses_and_delta(spec, Zs[-1], targets)
    G = _backprop_pack(spec, flat, Zs, As, delta, per_sample=True)
    if not np.all(np.isfinite(G)):
        raise NumericError("non-finite gradient")
    return G


def per_sample_gradient(spec, params, x, y):
    return per_sample_gradients(spec, params, ([x], [y]))[0]


def loss_and_gradient(spec, params, dataset, weights):
    """Per-sample losses and the weighted sum of their gradients, from one forward pass.

    Returns ``(losses, g)``; ``g`` is the empirical-risk part only. A
    ``(R, P)`` stack of parameters takes ``(R, n)`` weights and gives
    ``(R, n)`` losses and an ``(R, P)`` stack of gradients, row r bit-equal to
    the call with row r alone. Raises NumericError for a non-finite gradient,
    then for a non-finite loss.
    """
    X, Y = _xy(dataset)
    weights = np.asarray(weights, dtype=np.float64)
    flat = as_flat(params)
    if weights.shape != flat.shape[:-1] + (len(X),):
        raise ShapeError(
            f"weights of shape {weights.shape} for {len(X)} samples and "
            f"parameters of shape {flat.shape}"
        )
    _check_inputs(spec, X)
    Zs, As = _forward(spec, flat, X)
    targets = _targets(spec, Y, len(X))
    losses, delta, _ = _losses_and_delta(spec, Zs[-1], targets)
    g = _backprop_pack(spec, flat, Zs, As, delta, weights=weights)
    if not np.all(np.isfinite(g)):
        raise NumericError("non-finite gradient")
    if not np.all(np.isfinite(losses)):
        raise NumericError("non-finite loss value")
    return losses, g


def batch_gradient(spec, params, dataset, weights):
    """Weighted sum of per-sample gradients (empirical-risk part only)."""
    return loss_and_gradient(spec, params, dataset, weights)[1]


def _hvp_exact(spec, flat, X, targets, weights, V):
    """R-operator Hessian-vector products, batched over the rows of V (k, P).

    Directional derivatives are carried as (k, n, width) stacks and every
    contraction is an ``np.matmul`` over the stack, one product per vector,
    so a stack gives the same bits as its rows one at a time.
    """
    Ws, _ = _unpack(spec, flat)
    VWs, Vbs = _unpack(spec, V)

    Zs, As = _forward(spec, flat, X)
    # R-forward: directional derivatives of activations. RAs[l] pairs with
    # As[l]; the network input does not depend on the parameters.
    RAs = [None]
    RZ = None
    for l in range(spec.n_layers):
        RZ = As[l] @ VWs[l].swapaxes(1, 2) + Vbs[l][:, None, :]
        if RAs[l] is not None:
            RZ += RAs[l] @ Ws[l].T
        if l < spec.n_layers - 1:
            RAs.append(_act_grad(spec, Zs[l]) * RZ)

    _, delta, soft = _losses_and_delta(spec, Zs[-1], targets)
    if spec.loss == "cross_entropy":
        sRZ = soft * RZ
        RD = sRZ - soft * sRZ.sum(axis=2, keepdims=True)
    else:
        RD = RZ

    out = np.zeros(V.shape)
    HWs, Hbs = _unpack(spec, out)
    D = delta
    for l in reversed(range(spec.n_layers)):
        RDt = RD.swapaxes(1, 2)
        HWs[l][:] = RDt @ (weights[:, None] * As[l])
        if RAs[l] is not None:
            HWs[l] += (weights[:, None] * D).T @ RAs[l]
        Hbs[l][:] = RDt @ weights
        if l > 0:
            ag = _act_grad(spec, Zs[l - 1])
            RD = (RD @ Ws[l] + D @ VWs[l]) * ag
            D = (D @ Ws[l]) * ag
    return out


def hessian_vector_product(spec, params, dataset, weights, v, mode="exact"):
    """H^er v for the weighted empirical risk (no regularizer).

    ``v`` may be a single flat vector or a (k, P) stack; the result has the
    same shape. ``finite_difference`` mode uses a central difference of the
    batch gradient with step r = 1e-4 / max(1, ||v||).
    """
    X, Y = _xy(dataset)
    _check_inputs(spec, X)
    flat = as_flat(params)
    weights = np.asarray(weights, dtype=np.float64)
    if len(weights) != len(X):
        raise ShapeError(f"{len(weights)} weights for {len(X)} samples")
    V = as_flat(v)
    single = V.ndim == 1
    V = np.atleast_2d(V)
    if V.shape[1] != flat.size:
        raise ShapeError(f"vector length {V.shape[1]} != parameter count {flat.size}")

    if mode == "exact":
        targets = _targets(spec, Y, len(X))
        out = _hvp_exact(spec, flat, X, targets, weights, V)
        if not np.all(np.isfinite(out)):
            raise NumericError("non-finite Hessian-vector product")
    elif mode == "finite_difference":
        out = np.empty_like(V)
        for i, vec in enumerate(V):
            r = 1e-4 / max(1.0, float(np.linalg.norm(vec)))
            gp = batch_gradient(spec, flat + r * vec, dataset, weights)
            gm = batch_gradient(spec, flat - r * vec, dataset, weights)
            out[i] = (gp - gm) / (2.0 * r)
            if not np.all(np.isfinite(out[i])):
                raise NumericError(f"non-finite finite-difference HVP (step r={r})")
    else:
        raise ValueError(f"unknown HVP mode {mode!r}")
    return out[0] if single else out


def dense_hessian(spec, params, dataset, weights):
    """Full H^er matrix, assembled from exact HVPs with basis vectors."""
    P = as_flat(params).size
    if P > DENSE_HESSIAN_CAP:
        raise ValueError(f"parameter count {P} exceeds dense-Hessian cap {DENSE_HESSIAN_CAP}")
    basis = np.eye(P)
    H = hessian_vector_product(spec, params, dataset, weights, basis, mode="exact")
    return H.T


def power_iteration_max_eig(matvec, dim, iterations=200, seed=0):
    """Largest |eigenvalue| of a symmetric operator by power iteration."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    rng = np.random.default_rng([int(seed), 0xE16])
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iterations):
        hv = np.asarray(matvec(v))
        nrm = float(np.linalg.norm(hv))
        if nrm == 0.0:
            return 0.0
        lam = nrm
        v = hv / nrm
    return lam


def check_test_subset(dataset):
    """The row count of a test subset; ValueError for none, whose mean loss is undefined."""
    m = len(_xy(dataset)[0])
    if m == 0:
        raise ValueError("empty test subset")
    return m


def test_loss(spec, params, dataset):
    """Mean per-sample loss over a test subset (no regularizer)."""
    check_test_subset(dataset)
    return float(sample_losses(spec, params, dataset).mean())


def test_loss_gradient(spec, params, dataset):
    """g_test: the gradient of ``test_loss``."""
    m = check_test_subset(dataset)
    return batch_gradient(spec, params, dataset, np.full(m, 1.0 / m))


def test_gradients(spec, params, dataset, per_test=False):
    """g_test as row 0 of a stack, with the m per-sample test gradients under it when ``per_test``.

    The test side of trajectory contributions and influence functions (the
    retraining oracle reads ``test_loss``); all of them refuse an empty test
    subset through ``check_test_subset``.
    """
    rows = test_loss_gradient(spec, params, dataset)[None]
    if per_test:
        rows = np.concatenate([rows, per_sample_gradients(spec, params, dataset)])
    return rows


def accuracy(spec, params, dataset):
    """Fraction of samples whose largest output is their class index."""
    X, Y = _xy(dataset)
    _check_inputs(spec, X)
    if spec.loss != "cross_entropy":
        raise ShapeError(f"accuracy needs class-index targets, not {spec.loss} targets")
    targets = _targets(spec, Y, len(X))
    Zs, _ = _forward(spec, as_flat(params), X)
    return float((Zs[-1].argmax(axis=1) == targets).mean())
