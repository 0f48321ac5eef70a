"""Differentiable models: losses, per-sample gradients, Hessian-vector products.

Supported models are logistic regression and small ReLU MLPs, implemented
directly on float64 numpy arrays. Exact Hessian-vector products use the
R-operator (forward-over-reverse double differentiation); a central-difference
variant is kept for quantifying its truncation error. All operations are pure:
nothing mutates its arguments.

Every evaluation of the model on rows is one linearization (``linearize``):
the forward pass, the per-sample losses, the softmax, the activation
derivatives and the loss gradient w.r.t. every layer's output (its delta),
on rows whose labels ``_xy`` checked. ``sample_losses`` computes its losses
alone (the forward pass and ``_losses_and_delta``); the weighted batch
gradient and the per-sample gradients pack its deltas against the layers'
inputs. It is also the vector-independent half of the R-operator:
``hessian_vector_product`` runs only the R-forward and R-backward along each
vector on it, so a linearization built once serves every vector, with the
bits of the rows themselves. A trajectory walk keeps of each training
step's linearization (``keep``) only what the batch's rows cannot give back,
still as a ``Linearization``; ``restore`` rebuilds the rest from the rows'
inputs, so the step's HVPs (with the bits of the rows themselves), per-sample
gradients and gradient dot products (``gradient_dots``: each C(i) term as a
directional derivative, with no gradient matrix) need no second evaluation
of the model.

Rows are shared ``(X (n, ...), Y)`` rows, flattened past the first axis, or
K row sets ``(X (K, b, in), Y (K, b, ...))`` where an entry point pairs sets
with a stack (``_xy`` decides which).

On many rows of at most 7 classes (``_by_columns``) numpy's inner loop runs
once per row over a few classes, so there the kernel works per class column,
one array operation per column, with numpy's bits either way:
``_class_reduce`` for the reductions over the class axis (the softmax's max
and sum, the squared error's sum, the R-operator's sum over classes),
``_class_broadcast`` for the broadcasts of a row's value over its classes or
a class's value over the rows (the softmax's shift and scale, the forward's
bias, the weighted deltas), and ``_row_sum`` for the bias gradient's sum over
rows, from two classes on (numpy sums one contiguous class column in 8
lanes, not row after row, so one class keeps its sum). Each row's target
logit is picked and its delta scattered by flat index, at every shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .exceptions import NumericError, ShapeError

KINDS = ("logistic_regression", "mlp")
ACTIVATIONS = ("relu", "identity")
LOSSES = ("cross_entropy", "squared_error")
DENSE_HESSIAN_CAP = 2000  # largest parameter count ``dense_hessian`` builds
# The kernel works by class columns (``_by_columns``) once there are 32 * C
# rows of C classes: measured at C = 2..7, the fold then beats numpy's reduce
# for a max and a sum taken together (about 0.09 us per row for the reduce,
# one array operation per column for the fold). The same rule serves the
# broadcasts and the sum over rows, which win there too.
_FOLD_ROWS_PER_CLASS = 32
# numpy reduces fewer than 8 elements from left to right (a sum starting
# from +0.0); from 8 on it uses 8 lanes, which sum in another order and
# break signed-zero ties of the max otherwise, so wider rows keep its reduce.
_FOLD_MAX_CLASSES = 7


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


def _xy(spec, dataset, sets=False):
    """(X, targets): X flattened to ``(*samples, in)`` and the labels checked and
    canonicalized (``_targets``); ShapeError for another input width.

    Where ``sets`` allows them, ``(X, Y)`` are K row sets of b rows when X
    has three axes, the last the model's input width, and Y's leading axes
    are X's first two. Anything else is shared rows, each flattened past the
    first axis, so image rows ``(n, h, w)`` read as n rows of h * w inputs.
    """
    if isinstance(dataset, LabeledDataset):
        X, Y = dataset.features, dataset.labels
    else:
        X, Y = dataset
        X, Y = np.asarray(X, dtype=np.float64), np.asarray(Y)
        shape = X.shape
        paired = sets and len(shape) == 3 and shape[2] == spec.input_dim and Y.shape[:2] == shape[:2]
        axes = 1 + paired
        # An explicit width: -1 cannot be inferred from zero rows.
        X = X.reshape(shape[:axes] + (math.prod(shape[axes:]),))
    if X.shape[-1] != spec.input_dim:
        raise ShapeError(f"input width {X.shape[-1]} != model input {spec.input_dim}")
    return X, _targets(spec, Y, X.shape[:-1])


def _targets(spec, Y, samples):
    """Canonicalize labels of the ``samples``-shaped rows: ``intp`` class indices
    for CE, ``(*samples, out)`` floats for SE."""
    if spec.loss == "cross_entropy":
        Y = np.asarray(Y)
        if not np.issubdtype(Y.dtype, np.integer):
            raise ShapeError("cross_entropy labels must be integer class indices")
        if Y.size and (Y.min() < 0 or Y.max() >= spec.output_dim):
            raise ShapeError("class index outside the output range")
        return Y.astype(np.intp, copy=False).reshape(samples)
    T = np.asarray(Y, dtype=np.float64).reshape(*samples, -1)
    if T.shape[-1] != spec.output_dim:
        raise ShapeError(
            f"squared_error target width {T.shape[-1]} != output {spec.output_dim}"
        )
    return T


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
    the shared input X, one ``np.matmul`` product per parameter vector; a
    ``(K, b, in)`` stack of inputs gives ``(K, b, width)`` stacks the same way.
    """
    Ws, bs = _unpack(spec, flat)
    As = [X]
    Zs = []
    for l in range(spec.n_layers):
        z = _class_broadcast(np.add, As[-1] @ Ws[l].swapaxes(-1, -2), bs[l][..., None, :])
        Zs.append(z)
        if l < spec.n_layers - 1:
            As.append(_act(spec, z))
    return Zs, As


def _by_columns(a):
    """Whether the kernel works on ``a``'s class columns (its last axis) one at a time.

    numpy's reduce and broadcast run their inner loop once per row, which
    dominates on many rows of a few classes; so at most 7 classes and at
    least 32 rows per class, counted over all leading axes, go by columns.
    """
    C = a.shape[-1]
    return C <= _FOLD_MAX_CLASSES and a.size // C >= _FOLD_ROWS_PER_CLASS * C


def _class_reduce(ufunc, a):
    """``ufunc.reduce(a, axis=-1)`` for ``np.maximum`` or ``np.add``, with numpy's bits.

    By columns (``_by_columns``) the reduction is a fold over the C class
    columns, one array operation per column in numpy's own order.
    """
    if not _by_columns(a):
        return ufunc.reduce(a, axis=-1)
    # 0.0 + x is x except that it turns -0.0 into +0.0, as numpy's sum does.
    out = a[..., 0] + 0.0 if ufunc is np.add else a[..., 0].copy()
    for c in range(1, a.shape[-1]):
        ufunc(out, a[..., c], out=out)
    return out


def _class_broadcast(ufunc, a, v):
    """``ufunc(a, v)`` for a binary ``ufunc`` and v that broadcasts to a's shape: a value
    per row (``v[..., None]``) or per class (``v[..., None, :]``).

    By columns (``_by_columns``) it is one operation per class column; an
    elementwise ufunc gives numpy's bits either way.
    """
    if not _by_columns(a):
        return ufunc(a, v)
    out = np.empty(a.shape)
    for c in range(a.shape[-1]):
        ufunc(a[..., c], v[..., c % v.shape[-1]], out=out[..., c])
    return out


def _row_sum(a):
    """``a.sum(axis=-2)`` of a C-contiguous ``(..., n, C)`` array (as every
    weighted delta is), with numpy's bits.

    From two columns on, numpy's inner loop runs along the C columns, so it
    adds the rows one after another, from +0.0; by columns (``_by_columns``)
    a running sum over the rows has those bits once ``+ 0.0`` turns an all
    -0.0 column's -0.0 into numpy's +0.0. One column is contiguous, and numpy
    sums it in 8 lanes, in another order, so it keeps numpy's sum.
    """
    if a.shape[-1] < 2 or not _by_columns(a):
        return a.sum(axis=-2)
    return np.add.accumulate(a, axis=-2)[..., -1, :] + 0.0


def _losses_and_delta(spec, logits, targets):
    """Per-sample losses plus the loss gradient w.r.t. the logits.

    ``logits`` may be a ``(..., n, out)`` stack over shared ``(n,)`` targets,
    or a ``(K, n, out)`` stack paired with ``(K, n)`` targets.
    """
    if spec.loss == "cross_entropy":
        # Each row's flat position of its target logit, for one 1-D pick and scatter.
        C = logits.shape[-1]
        at = (np.arange(0, logits.size, C).reshape(logits.shape[:-1]) + targets).ravel()
        zmax = _class_reduce(np.maximum, logits)
        ez = np.exp(_class_broadcast(np.subtract, logits, zmax[..., None]))
        sez = _class_reduce(np.add, ez)
        losses = np.log(sez) + zmax - logits.take(at).reshape(zmax.shape)
        soft = _class_broadcast(np.divide, ez, sez[..., None])
        delta = soft.copy()
        delta.reshape(-1)[at] -= 1.0
        return losses, delta, soft
    resid = logits - targets
    losses = 0.5 * _class_reduce(np.add, resid**2)
    return losses, resid, None


def _one_vector(params):
    """Parameters as one flat float64 vector; ShapeError for a stack."""
    flat = as_flat(params)
    if flat.ndim != 1:
        raise ShapeError(f"parameters of shape {flat.shape}, expected one vector")
    return flat


def sample_losses(spec, params, dataset):
    """Per-sample losses for every row of the dataset, at one parameter vector.

    The forward pass and the losses only: the bits of the linearization's
    losses, without its activation derivatives and deltas.
    """
    X, targets = _xy(spec, dataset)
    flat = _one_vector(params)  # test_loss would average a stack's rows together
    losses = _losses_and_delta(spec, _forward(spec, flat, X)[0][-1], targets)[0]
    if not np.all(np.isfinite(losses)):
        raise NumericError("non-finite loss value")
    return losses


def _sample_gradients(lin):
    """(n, P) matrix of the per-sample gradients of a shared-rows linearization at one
    parameter vector; ShapeError for one of a parameter stack or of row sets."""
    P = param_count(lin.spec)
    if lin.stack or len(lin.samples) != 1:
        at = f"a parameter stack of shape {lin.stack + (P,)}" if lin.stack else "one vector"
        raise ShapeError(
            f"per-sample gradients take shared rows at one parameter vector, not samples "
            f"of shape {lin.samples} at {at}"
        )
    G = np.zeros((lin.samples[0], P))
    GWs, Gbs = _unpack(lin.spec, G)
    for GW, Gb, A, D in zip(GWs, Gbs, lin.inputs, lin.deltas):
        GW[:] = np.einsum("no,ni->noi", D, A)
        Gb[:] = D
    if not np.all(np.isfinite(G)):
        raise NumericError("non-finite gradient")
    return G


def per_sample_gradients(spec, params, dataset):
    """(n, P) matrix of per-sample loss gradients."""
    X, targets = _xy(spec, dataset)
    return _sample_gradients(_linearize(spec, _one_vector(params), X, targets))


def _loss_and_gradient(lin, weights):
    """A linearization's losses and the ``weights``-weighted sum of its per-sample gradients.

    Raises NumericError for a non-finite gradient, then for a non-finite loss.
    """
    g = np.zeros(lin.params.shape)
    GWs, Gbs = _unpack(lin.spec, g)
    for GW, Gb, A, D in zip(GWs, Gbs, lin.inputs, lin.deltas):
        wD = _class_broadcast(np.multiply, D, weights[..., None])
        GW[:] = wD.swapaxes(-1, -2) @ A
        Gb[:] = _row_sum(wD)
    if not np.all(np.isfinite(g)):
        raise NumericError("non-finite gradient")
    if not np.all(np.isfinite(lin.losses)):
        raise NumericError("non-finite loss value")
    return lin.losses, g


def loss_and_gradient(spec, params, dataset, weights):
    """Per-sample losses and the weighted sum of their gradients, from one linearization.

    Returns ``(losses, g)``; ``g`` is the empirical-risk part only. A
    ``(R, P)`` stack of parameters takes ``(R, n)`` weights over the shared
    rows and gives ``(R, n)`` losses and an ``(R, P)`` stack of gradients.
    K row sets ``(X (K, b, in), Y (K, b))`` with ``(K, b)`` weights pair row
    for row with a ``(K, P)`` stack and give ``(K, b)`` losses. Either way row
    r is bit-equal to the call with row r (and its row set) alone. Raises
    NumericError for a non-finite gradient, then for a non-finite loss.
    """
    weights = np.asarray(weights, dtype=np.float64)
    flat = as_flat(params)
    X, targets = _xy(spec, dataset, sets=True)
    runs = flat.shape[:-1]
    if weights.shape != runs + X.shape[-2:-1] or X.shape[:-2] not in ((), runs):
        raise ShapeError(
            f"weights of shape {weights.shape} for samples of shape {X.shape[:-1]} and "
            f"parameters of shape {flat.shape}"
        )
    return _loss_and_gradient(_linearize(spec, flat, X, targets), weights)


def batch_gradient(spec, params, dataset, weights):
    """Weighted sum of per-sample gradients (empirical-risk part only)."""
    return loss_and_gradient(spec, params, dataset, weights)[1]


@dataclass(frozen=True, eq=False)
class Linearization:
    """One evaluation of the model on some rows: everything but a vector's half of the R-operator.

    Built by ``linearize``. ``samples`` is ``(n,)`` for shared rows or
    ``(K, b)`` for K row sets, and ``losses`` the per-sample losses of that
    shape, led by ``stack`` for a parameter stack over shared rows. Per
    layer l it holds the layer's input ``inputs[l]``, its weight matrix
    ``matrices[l]`` (a view of the parameters), the loss gradient
    ``deltas[l]`` w.r.t. the layer's output and, for a hidden layer, the
    activation derivative ``act_grads[l]`` at its pre-activation. ``soft``
    is the softmax for cross-entropy, None for squared error. The losses,
    gradients and per-sample gradients are read off it, and
    ``hessian_vector_product`` takes it in place of its rows and runs only
    the R-forward and R-backward along each vector. One from ``keep`` or
    ``restore`` has no parameters or losses, and None for each array that
    its reader does not need.
    """

    spec: ModelSpec
    params: np.ndarray | None
    samples: tuple
    losses: np.ndarray | None
    inputs: list
    act_grads: list | None
    deltas: list
    soft: np.ndarray | None
    matrices: list

    @property
    def stack(self):
        """The leading shape of the parameter stack over shared rows, () for one vector
        or a stack paired with row sets (``samples`` does not hold it)."""
        D = self.deltas[-1]
        return D.shape[: D.ndim - 1 - len(self.samples)]

    def take(self, sets):
        """The linearization of the listed row sets of a paired one, in that order (repeats
        allowed), or, as views, of the one set ``sets`` (an int) or the sets a slice picks.
        Of shared rows (one parameter vector), a (K, b) index array gathers the
        rows into K paired sets of b rows each (repeats allowed).

        The parameters and weight matrices go with the sets when the matrices
        have the set axis (a stack paired with the sets) and are shared otherwise.
        """
        one = isinstance(sets, (int, np.integer))
        view = one or isinstance(sets, slice)
        sets = sets if view else np.asarray(sets, dtype=np.int64)
        if len(self.samples) == 2:
            ok = view or sets.ndim == 1
        else:
            ok = not view and sets.ndim == 2 and not self.stack
        if not ok:
            raise ShapeError(
                "take picks row sets of a paired linearization, or gathers shared rows "
                "into (K, b) sets"
            )

        def pick(a):
            return a if a is None else a[sets] if view else a.take(sets, axis=0)

        def picks(arrays):
            return None if arrays is None else [pick(a) for a in arrays]

        params, matrices = self.params, self.matrices
        if matrices[-1] is not None and matrices[-1].ndim == 3:
            params, matrices = pick(params), picks(matrices)
        deltas = picks(self.deltas)
        samples = deltas[-1].shape[: 1 if one else 2]
        return Linearization(
            self.spec, params, samples, pick(self.losses), picks(self.inputs),
            picks(self.act_grads), deltas, pick(self.soft), matrices,
        )


def linearize(spec, params, rows):
    """The losses, forward pass, softmax, activation derivatives and deltas of ``rows`` at ``params``.

    ``rows`` is a ``LabeledDataset`` or ``(X (n, ...), Y)`` of shared rows, or
    K row sets ``(X (K, b, in), Y (K, b))``. The labels are checked here. The
    result holds a copy of the parameters, so ``hessian_vector_product``
    refuses it at any other parameters.
    """
    X, targets = _xy(spec, rows, sets=True)
    return _linearize(spec, as_flat(params).copy(), X, targets)


def _linearize(spec, flat, X, targets):
    """``linearize`` on rows already in ``_xy``'s form (its checked and canonical
    targets), at parameters it keeps as given.

    An ``(R, P)`` stack of parameters gives ``(R, n)`` stacks over shared rows
    and pairs row for row with R row sets, as in ``loss_and_gradient``.
    """
    Zs, As = _forward(spec, flat, X)
    losses, delta, soft = _losses_and_delta(spec, Zs[-1], targets)
    Ws, _ = _unpack(spec, flat)
    act_grads = [_act_grad(spec, z) for z in Zs[:-1]]
    deltas = _deltas(Ws, act_grads, delta, 0)
    return Linearization(spec, flat, X.shape[:-1], losses, As, act_grads, deltas, soft, Ws)


def _deltas(Ws, act_grads, delta, last):
    """The loss gradient w.r.t. each layer's output, from the output delta down to layer
    ``last``; None below it."""
    deltas = [None] * len(act_grads) + [delta]
    for l in reversed(range(last + 1, len(deltas))):
        deltas[l - 1] = (deltas[l] @ Ws[l]) * act_grads[l - 1]
    return deltas


def _hvp_exact(lin, weights, V):
    """R-operator Hessian-vector products along the rows of V (k, P), on a linearization.

    Shared rows with weights (n,) serve every vector; K row sets with (K, b)
    weights pair with the K rows of V. Directional derivatives are carried as
    (k, b, width) stacks and every contraction is an ``np.matmul`` over the
    stack, one product per vector, so a stack gives the same bits as its rows
    (and their row sets) one at a time.
    """
    spec, As, ags, Ds, Ws = lin.spec, lin.inputs, lin.act_grads, lin.deltas, lin.matrices
    VWs, Vbs = _unpack(spec, V)

    # R-forward: directional derivatives of activations. RAs[l] pairs with
    # As[l]; the network input does not depend on the parameters.
    RAs = [None]
    RZ = None
    for l in range(spec.n_layers):
        RZ = As[l] @ VWs[l].swapaxes(-1, -2) + Vbs[l][:, None, :]
        if RAs[l] is not None:
            RZ += RAs[l] @ Ws[l].T
        if l < spec.n_layers - 1:
            RAs.append(ags[l] * RZ)

    if lin.soft is not None:
        sRZ = lin.soft * RZ
        RD = sRZ - lin.soft * _class_reduce(np.add, sRZ)[..., None]
    else:
        RD = RZ

    out = np.zeros(V.shape)
    HWs, Hbs = _unpack(spec, out)
    w = weights[..., None]
    for l in reversed(range(spec.n_layers)):
        RDt = RD.swapaxes(-1, -2)
        HWs[l][:] = RDt @ (w * As[l])
        if RAs[l] is not None:
            HWs[l] += (w * Ds[l]).swapaxes(-1, -2) @ RAs[l]
        Hbs[l][:] = (RDt @ w)[..., 0]
        if l > 0:
            RD = (RD @ Ws[l] + Ds[l] @ VWs[l]) * ags[l - 1]
    return out


def gradient_dots(lin, V, hit=None):
    """``V @ g_i`` for the per-sample gradients g_i of a linearization's samples, shape (k, h).

    The samples are all of a shared-rows linearization, or those the mask
    or index ``hit`` picks over ``lin.samples``, in that order. Each value
    is a directional derivative, sum_l rowdot(D_l, A_l V_Wl^T + V_bl) (the
    R-forward's first term against each layer's delta), so no (h, P)
    gradient matrix is built.
    """
    VWs, Vbs = _unpack(lin.spec, V)
    out = 0.0
    for A, D, VW, Vb in zip(lin.inputs, lin.deltas, VWs, Vbs):
        if hit is not None:
            A, D = A[hit], D[hit]
        RZ = A @ VW.swapaxes(-1, -2) + Vb[:, None, :]
        out = out + np.einsum("kho,ho->kh", RZ, D)
    return out


def keep(lin):
    """What a trajectory walk keeps of a linearization: only what its rows cannot give back.

    That is the hidden layers' outputs (``inputs[1:]``), copies of their
    weight matrices W_1 .. W_{L-1} (so the parameters can be released), the
    output delta and the softmax; every other field is None. ``restore``
    gives back the linearization with the inputs of its rows.
    """
    deltas = [None] * (lin.spec.n_layers - 1) + [lin.deltas[-1]]
    matrices = [None, *(W.copy() for W in lin.matrices[1:])]
    return Linearization(
        lin.spec, None, lin.samples, None, [None, *lin.inputs[1:]], None, deltas, lin.soft, matrices
    )


def restore(kept, X, hit=None):
    """The linearization that ``keep`` kept, on its rows' inputs X.

    An activation derivative comes from the layer's output (ReLU: a(z) > 0
    exactly where z > 0; identity: ones), the hidden deltas from the output
    delta. With ``hit`` (a mask or index over the kept rows; X then holds
    those rows' inputs only) it covers those rows, with every layer's delta;
    without, every row, without layer 0's delta, which the R-operator does
    not read.
    """
    spec = kept.spec
    hidden, delta, soft = kept.inputs[1:], kept.deltas[-1], kept.soft
    if hit is not None:
        hidden = [A[hit] for A in hidden]
        delta = delta[hit]
        soft = None if soft is None else soft[hit]
    act_grads = [_act_grad(spec, A) for A in hidden]
    deltas = _deltas(kept.matrices, act_grads, delta, 0 if hit is not None else 1)
    return Linearization(
        spec, None, X.shape[:-1], None, [X, *hidden], act_grads, deltas, soft, kept.matrices
    )


def hessian_vector_product(spec, params, dataset, weights, v, mode="exact"):
    """H^er v for the weighted empirical risk (no regularizer).

    ``v`` may be a single flat vector or a (k, P) stack; the result has the
    same shape. K row sets ``(X (K, b, in), Y (K, b))`` with ``(K, b)``
    weights pair row for row with a (K, P) ``v``: row k is H(set k) v_k,
    bit-equal to the call on set k alone. ``params`` is one vector. A
    ``Linearization`` of the rows at ``params`` (from ``linearize``) may
    stand in for them, with the same bits: only the R-forward and R-backward
    then run. One built for another spec, at other parameters or at a
    parameter stack raises ShapeError. ``finite_difference``
    mode (shared rows only) uses a central difference of the batch gradient
    with step r = 1e-4 / max(1, ||v||).
    """
    weights = np.asarray(weights, dtype=np.float64)
    flat = _one_vector(params)
    lin = dataset if isinstance(dataset, Linearization) else None
    if lin is not None:
        if lin.params is None:
            raise ShapeError("linearization without parameters (from keep or restore)")
        if lin.stack:
            raise ShapeError(f"linearization of a parameter stack of shape {lin.params.shape}")
        if lin.spec != spec or lin.params.tobytes() != flat.tobytes():
            raise ShapeError("linearization built for another model or at other parameters")
        samples = lin.samples
    else:
        X, targets = _xy(spec, dataset, sets=True)
        samples = X.shape[:-1]
    if weights.shape != samples:
        raise ShapeError(f"weights of shape {weights.shape} for samples of shape {samples}")
    V = as_flat(v)
    single = V.ndim == 1
    V = np.atleast_2d(V)
    if V.shape[1] != flat.size:
        raise ShapeError(f"vector length {V.shape[1]} != parameter count {flat.size}")
    paired = weights.ndim == 2
    if paired and V.shape != (len(weights), flat.size):
        raise ShapeError(f"{len(weights)} row sets for vectors of shape {V.shape}")

    if mode == "exact":
        if lin is None:
            lin = _linearize(spec, flat, X, targets)
        out = _hvp_exact(lin, weights, V)
        if not np.all(np.isfinite(out)):
            raise NumericError("non-finite Hessian-vector product")
    elif mode == "finite_difference":
        if paired or lin is not None:
            raise ValueError("finite_difference mode takes shared rows only")
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
    """Full H^er matrix, assembled from exact HVPs with basis vectors.

    The rows are linearized once, and the basis vectors go through the
    R-operator ceil(sqrt(P)) at a time, each block built for its call. Row k
    of a stacked HVP has the bits of basis vector k alone, so the matrix has
    the bits of one P-vector call, while the working memory beside the P x P
    result is that of ceil(sqrt(P)) vectors, not P.
    """
    P = as_flat(params).size
    if P > DENSE_HESSIAN_CAP:
        raise ValueError(f"parameter count {P} exceeds dense-Hessian cap {DENSE_HESSIAN_CAP}")
    lin = linearize(spec, params, dataset)
    block = math.isqrt(P - 1) + 1
    H = np.empty((P, P))
    for start in range(0, P, block):
        k = min(block, P - start)
        basis = np.zeros((k, P))
        basis[np.arange(k), start + np.arange(k)] = 1.0
        H[start : start + k] = hessian_vector_product(spec, params, lin, weights, basis)
    return H.T


def power_iteration_max_eig(matvec, dim, iterations=200, seed=0):
    """Largest |eigenvalue| of a symmetric operator by power iteration.

    ``dim`` is the operator's size, or ``(K, size)`` for a stack of K
    operators: ``matvec`` then maps a (K, size) stack row by row, and the
    result is an array of K eigenvalues, row k bit-equal to operator k run
    alone. Every row starts from the same seeded vector. An operator that
    maps its iterate to zero reads 0.0.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    stacked = np.ndim(dim) == 1
    K, size = dim if stacked else (1, dim)
    rng = np.random.default_rng([int(seed), 0xE16])
    v = rng.standard_normal(size)
    v /= np.linalg.norm(v)
    V = np.tile(v, (K, 1))
    for _ in range(iterations):
        HV = np.asarray(matvec(V if stacked else V[0])).reshape(K, size)
        lam = row_norms(HV)
        if not lam.any():
            break
        # A zero row stays zero, and so does its eigenvalue.
        V = HV / np.where(lam == 0.0, 1.0, lam)[:, None]
    return lam if stacked else float(lam[0])


def check_test_subset(dataset):
    """The row count of a test subset; ValueError for none, whose mean loss is undefined."""
    m = len(dataset) if isinstance(dataset, LabeledDataset) else len(dataset[0])
    if m == 0:
        raise ValueError("empty test subset")
    return m


def test_loss(spec, params, dataset):
    """Mean per-sample loss over a test subset (no regularizer)."""
    check_test_subset(dataset)
    return float(sample_losses(spec, params, dataset).mean())


def test_gradients(spec, params, dataset, per_test=False):
    """g_test as row 0 of a stack, with the m per-sample test gradients under it when ``per_test``.

    The test side of trajectory contributions and influence functions (the
    retraining oracle reads ``test_loss``); all of them refuse an empty test
    subset through ``check_test_subset``. Both come from one linearization.
    """
    m = check_test_subset(dataset)
    X, targets = _xy(spec, dataset)
    lin = _linearize(spec, _one_vector(params), X, targets)
    rows = _loss_and_gradient(lin, np.full(m, 1.0 / m))[1][None]
    if per_test:
        rows = np.concatenate([rows, _sample_gradients(lin)])
    return rows


def row_dots(rows, vectors):
    """``rows @ vectors.T`` row by row, so each row sums as it would alone (one product
    over all rows sums in another order, and C(i) would depend on ``per_test``)."""
    return (rows[:, None, :] @ vectors.T)[:, 0]


def row_norms(rows):
    """The Euclidean norm of each row of a 2-D array, with ``np.linalg.norm``'s bits for
    the row alone: sqrt of one row-by-row dot product, as its 1-D form takes
    (``norm(axis=1)`` sums the squares in another order and differs in the last ulp)."""
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


def accuracy(spec, params, dataset):
    """Fraction of samples whose largest output is their class index."""
    if spec.loss != "cross_entropy":
        raise ShapeError(f"accuracy needs class-index targets, not {spec.loss} targets")
    X, targets = _xy(spec, dataset)
    Zs, _ = _forward(spec, _one_vector(params), X)
    return float((Zs[-1].argmax(axis=1) == targets).mean())
