"""Differentiable models: losses, per-sample gradients, Hessian-vector products.

Supported models are logistic regression and small ReLU MLPs, implemented
directly on float64 numpy arrays. Hessian-vector products have one
implementation, the R-operator (Pearlmutter, 1994; forward-over-reverse
double differentiation) on a linearization, ``_hvp_exact``. All operations
are pure: nothing mutates its arguments.

Every evaluation of the model on rows is one linearization (``linearize``):
the forward pass, the per-sample losses, the softmax, the activation
derivatives and the loss gradient w.r.t. every layer's output (its delta),
on rows whose labels ``_xy`` checked. ``sample_losses`` computes its losses
alone (the forward pass and ``_losses_and_delta``); the weighted batch
gradient and the per-sample gradients pack its deltas against the layers'
inputs. It is also the vector-independent half of the R-operator, which
runs only the R-forward and R-backward along each vector on it, so a
linearization built once serves every vector, with the bits of the rows
themselves. Its checks (the spec, the parameter bytes, the weights' shape)
are made when its operator (``_HvpOperator``) is built, so an iterative
solve builds one operator and each step only applies the R-operator and
checks that the products are finite; ``hessian_vector_product`` is one such
application. A linearization is unpacked into the parameters' views once,
and the forward pass reads those views. Its one ``take`` picks row sets as
views or gathers rows into sets: the Neumann series' per-step sets and the
trajectory walk's per-step states go through it. A trajectory walk keeps of
each training step's linearization (``keep``) only what the batch's rows
cannot give back, still as a ``Linearization``; ``restore`` rebuilds the
rest from the rows' inputs, so the step's HVPs (with the bits of the rows
themselves), per-sample gradients and gradient dot products
(``gradient_dots``: each C(i) term as a directional derivative, with no
gradient matrix) need no second evaluation of the model.

Every public entry point takes shared rows ``(X (n, ...), Y)``, each
flattened past the first axis (``_xy``), at one parameter vector. Row sets
come only from ``Linearization.take``, and parameter stacks only from the
trainer, whose steps call ``_linearize`` and ``_loss_and_gradient`` on an
``(R, P)`` stack over one shared batch or paired with R row sets.

On many rows of at most 7 classes (``_by_columns``) numpy's inner loop runs
once per row over a few classes, so there the kernel works per class column,
one array operation per column, with numpy's bits either way. Two rules
decide where, each at its own measured crossover, with rows counted over all
leading axes: ``_class_reduce`` for the reductions over the class axis (the
softmax's max and sum, the squared error's sum, the R-operator's sum over
classes) and ``_row_sum`` for the bias gradient's sum over rows go by
columns from 32 rows per class (the sum over rows from two classes on: numpy
sums one contiguous class column in 8 lanes, not row after row, so one class
keeps its sum); ``_class_broadcast`` for the broadcasts of a row's value
over its classes or a class's value over the rows (the softmax's shift and
scale, the forward's bias, the weighted deltas) only from 200 * C**2 rows of
C classes, since numpy's broadcast loop costs less than its reduce. Each
row's target logit is picked and its delta scattered by flat index, at every
shape. The bias add, the exponential and the softmax's division run in place
on the arrays they just made, and the gradient and the HVPs are one
``np.concatenate`` of the layers' blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import LabeledDataset
from .exceptions import NumericError, ShapeError

KINDS = ("logistic_regression", "mlp")
ACTIVATIONS = ("relu", "identity")
LOSSES = ("cross_entropy", "squared_error")
DENSE_HESSIAN_CAP = 2000  # largest parameter count ``dense_hessian`` builds
# The reductions work by class columns (``_by_columns``) once there are 32 * C
# rows of C classes: measured at C = 2..7, the fold then beats numpy's reduce
# for a max and a sum taken together (about 0.09 us per row for the reduce,
# one array operation per column for the fold). The sum over rows wins there
# too.
_FOLD_ROWS_PER_CLASS = 32
# A broadcast's numpy loop is cheaper than a reduce's, so the broadcasts go by
# columns only from 200 * C**2 rows: measured (one BLAS thread) the crossover
# lies near 800 rows at C = 2, 1100 at C = 3, 1500 at C = 4 and 5000 at C = 5;
# at C = 6 the two are even from about 2400 rows, and at C = 7 numpy stays
# ahead up to the 12800 rows tried.
_BROADCAST_ROWS_PER_CLASS_SQUARED = 200
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


def _xy(spec, dataset):
    """(X, targets) of shared rows: X flattened to ``(n, in)`` past the first axis, so
    image rows ``(n, h, w)`` read as n rows of h * w inputs, and the labels
    checked and canonicalized (``_targets``); ShapeError for another input width.
    """
    if isinstance(dataset, LabeledDataset):
        X, Y = dataset.features, dataset.labels
    else:
        X, Y = dataset
        X, Y = np.asarray(X, dtype=np.float64), np.asarray(Y)
        # An explicit width: -1 cannot be inferred from zero rows.
        X = X.reshape(X.shape[:1] + (math.prod(X.shape[1:]),))
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


def _forward(spec, Ws, bs, X):
    """Returns (Zs, As): pre-activations per layer and inputs to each layer.

    ``Ws, bs`` are ``_unpack``'s views of the parameters. A ``(..., P)``
    stack of parameters gives ``(..., n, width)`` stacks over the shared
    input X, one ``np.matmul`` product per parameter vector; a ``(K, b, in)``
    stack of inputs gives ``(K, b, width)`` stacks the same way.
    """
    As = [X]
    Zs = []
    for l in range(spec.n_layers):
        z = As[-1] @ Ws[l].swapaxes(-1, -2)
        _class_broadcast(np.add, z, bs[l][..., None, :], out=z)
        Zs.append(z)
        if l < spec.n_layers - 1:
            As.append(_act(spec, z))
    return Zs, As


def _by_columns(a, rows_per_class=_FOLD_ROWS_PER_CLASS):
    """Whether the kernel works on ``a``'s class columns (its last axis) one at a time.

    numpy's reduce and broadcast run their inner loop once per row, which
    dominates on many rows of a few classes; so at most 7 classes and at
    least ``rows_per_class`` rows per class, counted over all leading axes,
    go by columns.
    """
    C = a.shape[-1]
    return C <= _FOLD_MAX_CLASSES and a.size // C >= rows_per_class * C


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


def _class_broadcast(ufunc, a, v, out=None):
    """``ufunc(a, v, out=out)`` for a binary ``ufunc`` and v that broadcasts to a's shape:
    a value per row (``v[..., None]``) or per class (``v[..., None, :]``).

    By columns (``_by_columns`` at 200 * C rows per class, the broadcasts'
    own rule) it is one operation per class column; an elementwise ufunc
    gives numpy's bits either way, also in place (``out=a``).
    """
    if not _by_columns(a, _BROADCAST_ROWS_PER_CLASS_SQUARED * a.shape[-1]):
        return ufunc(a, v, out=out)
    out = np.empty(a.shape) if out is None else out
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
        ez = _class_broadcast(np.subtract, logits, zmax[..., None])
        np.exp(ez, out=ez)
        sez = _class_reduce(np.add, ez)
        losses = np.log(sez) + zmax - logits.take(at).reshape(zmax.shape)
        soft = _class_broadcast(np.divide, ez, sez[..., None], out=ez)
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
    losses = _losses_and_delta(spec, _forward(spec, *_unpack(spec, flat), X)[0][-1], targets)[0]
    if not np.isfinite(losses).all():
        raise NumericError("non-finite loss value")
    return losses


def _sample_gradients(lin):
    """(n, P) matrix of the per-sample gradients of a shared-rows linearization at one
    parameter vector."""
    G = np.zeros((lin.samples[0], param_count(lin.spec)))
    GWs, Gbs = _unpack(lin.spec, G)
    for GW, Gb, A, D in zip(GWs, Gbs, lin.inputs, lin.deltas):
        GW[:] = np.einsum("no,ni->noi", D, A)
        Gb[:] = D
    if not np.isfinite(G).all():
        raise NumericError("non-finite gradient")
    return G


def per_sample_gradients(spec, params, dataset):
    """(n, P) matrix of per-sample loss gradients."""
    X, targets = _xy(spec, dataset)
    return _sample_gradients(_linearize(spec, _one_vector(params), X, targets))


def _loss_and_gradient(lin, weights):
    """A linearization's losses and the ``weights``-weighted sum of its per-sample gradients.

    Raises NumericError for a non-finite gradient, then for a non-finite loss.
    The gradient is one ``np.concatenate`` of the layers' blocks, in packing order.
    """
    blocks = []
    for A, D in zip(lin.inputs, lin.deltas):
        wD = _class_broadcast(np.multiply, D, weights[..., None])
        GW = wD.swapaxes(-1, -2) @ A
        blocks += [GW.reshape(GW.shape[:-2] + (-1,)), _row_sum(wD)]
    g = np.concatenate(blocks, axis=-1)
    if not np.isfinite(g).all():
        raise NumericError("non-finite gradient")
    if not np.isfinite(lin.losses).all():
        raise NumericError("non-finite loss value")
    return lin.losses, g


def loss_and_gradient(spec, params, dataset, weights):
    """Per-sample losses and the weighted sum of their gradients, from one linearization.

    Returns ``(losses, g)`` at one parameter vector, with ``(n,)`` weights
    over the rows; ``g`` is the empirical-risk part only. Raises NumericError
    for a non-finite gradient, then for a non-finite loss.
    """
    weights = np.asarray(weights, dtype=np.float64)
    flat = _one_vector(params)
    X, targets = _xy(spec, dataset)
    if weights.shape != X.shape[:1]:
        raise ShapeError(f"weights of shape {weights.shape} for samples of shape {X.shape[:1]}")
    return _loss_and_gradient(_linearize(spec, flat, X, targets), weights)


def batch_gradient(spec, params, dataset, weights):
    """Weighted sum of per-sample gradients (empirical-risk part only)."""
    return loss_and_gradient(spec, params, dataset, weights)[1]


class Linearization(NamedTuple):
    """One evaluation of the model on some rows: everything but a vector's half of the R-operator.

    Built by ``linearize`` on shared rows (``samples`` is ``(n,)``), and
    ``take`` picks ``(K, b)`` row sets of it. A training step builds its own
    (``_linearize``) at an ``(R, P)`` parameter stack too: over shared rows
    the stack's axis leads the losses and deltas, and paired with R row sets
    it is their set axis. Per
    layer l it holds the layer's input ``inputs[l]``, its weight matrix
    ``matrices[l]`` (a view of the parameters), the loss gradient
    ``deltas[l]`` w.r.t. the layer's output and, for a hidden layer, the
    activation derivative ``act_grads[l]`` at its pre-activation. ``soft``
    is the softmax for cross-entropy, None for squared error. The losses,
    gradients and per-sample gradients are read off it, and the R-operator
    (``_hvp_exact``) runs on it only the R-forward and R-backward along each
    vector. One from ``keep`` or ``restore`` has no parameters or losses,
    and None for each array that its reader does not need. It is immutable
    (a named tuple, so building one costs a tuple's construction).
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

    def take(self, sets):
        """As views, the linearization of a paired one's one row set ``sets`` (an int) or
        the sets a slice picks. Of shared rows at one parameter vector, a (K, b)
        index array gathers the rows into K paired sets of b rows each (repeats
        allowed). Any other index raises ShapeError.

        The parameters and weight matrices go with the sets when the matrices
        have the set axis (a stack paired with the sets) and are shared otherwise.
        """
        one = isinstance(sets, (int, np.integer))
        view = one or isinstance(sets, slice)
        sets = sets if view else np.asarray(sets, dtype=np.int64)
        if not (view if len(self.samples) == 2 else not view and sets.ndim == 2):
            raise ShapeError(
                "take picks one row set or a slice of the sets of a paired linearization, "
                "or gathers shared rows into (K, b) sets"
            )
        # Every array that goes with the sets, in one flat list picked in one pass.
        L = len(self.inputs)
        stacked = self.matrices[-1] is not None and self.matrices[-1].ndim == 3
        arrays = [self.losses, self.soft, *self.inputs, *self.deltas, *(self.act_grads or ())]
        if stacked:
            arrays += [self.params, *self.matrices]
        if view:
            picked = [a if a is None else a[sets] for a in arrays]
        else:
            picked = [a if a is None else a.take(sets, axis=0) for a in arrays]
        losses, soft = picked[:2]
        inputs, deltas, rest = picked[2 : 2 + L], picked[2 + L : 2 + 2 * L], picked[2 + 2 * L :]
        act_grads = None if self.act_grads is None else rest[: L - 1]
        params, matrices = (rest[-1 - L], rest[-L:]) if stacked else (self.params, self.matrices)
        samples = deltas[-1].shape[: 1 if one else 2]
        return Linearization(
            self.spec, params, samples, losses, inputs, act_grads, deltas, soft, matrices
        )


def linearize(spec, params, rows):
    """The losses, forward pass, softmax, activation derivatives and deltas of ``rows`` at ``params``.

    ``rows`` is a ``LabeledDataset`` or ``(X (n, ...), Y)`` of shared rows, and
    ``params`` one vector (ShapeError for a stack). The labels are checked
    here. The result holds a copy of the parameters, so
    ``hessian_vector_product`` refuses it at any other parameters.
    """
    X, targets = _xy(spec, rows)
    return _linearize(spec, _one_vector(params).copy(), X, targets)


def _linearize(spec, flat, X, targets):
    """``linearize`` on rows already in ``_xy``'s form (its checked and canonical
    targets), at parameters it keeps as given.

    An ``(R, P)`` stack of parameters gives ``(R, n)`` stacks over shared rows
    and pairs row for row with R row sets ``(X (R, b, in), targets (R, b, ...))``,
    as a trainer step runs it.
    """
    Ws, bs = _unpack(spec, flat)
    Zs, As = _forward(spec, Ws, bs, X)
    losses, delta, soft = _losses_and_delta(spec, Zs[-1], targets)
    act_grads = [_act_grad(spec, z) for z in Zs[:-1]]
    deltas = _deltas(Ws, act_grads, delta, 0)
    return Linearization(spec, flat, X.shape[:-1], losses, As, act_grads, deltas, soft, Ws)


def _deltas(Ws, act_grads, delta, last):
    """The loss gradient w.r.t. each layer's output, from the output delta down to layer
    ``last``; None below it."""
    deltas = [None] * len(act_grads) + [delta]
    for l in reversed(range(last + 1, len(deltas))):
        d = deltas[l] @ Ws[l]
        d *= act_grads[l - 1]
        deltas[l - 1] = d
    return deltas


def _hvp_exact(lin, weights, V):
    """R-operator Hessian-vector products along the rows of V (k, P), on a linearization.

    Shared rows with weights (n,) serve every vector; K row sets with (K, b)
    weights pair with the K rows of V. Directional derivatives are carried as
    (k, b, width) stacks and every contraction is an ``np.matmul`` over the
    stack, one product per vector, so a stack gives the same bits as its rows
    (and their row sets) one at a time. Each sum runs in place on the product
    just made, and the result is one ``np.concatenate`` of the layers' blocks.
    """
    As, ags, Ds, Ws = lin.inputs, lin.act_grads, lin.deltas, lin.matrices
    w = weights[..., None]
    VWs, Vbs = _unpack(lin.spec, V)

    # R-forward: directional derivatives of activations. RAs[l] pairs with
    # A_l; the network input does not depend on the parameters.
    RAs = [None]
    for l, A in enumerate(As):
        RZ = A @ VWs[l].swapaxes(-1, -2)
        RZ += Vbs[l][:, None, :]
        if l > 0:
            RZ += RAs[l] @ Ws[l].T
        if l < len(ags):
            RAs.append(ags[l] * RZ)

    RD = RZ
    if lin.soft is not None:
        RD = lin.soft * RZ
        RD -= lin.soft * _class_reduce(np.add, RD)[..., None]

    blocks = [None] * (2 * len(As))
    for l in reversed(range(len(As))):
        RDt = RD.swapaxes(-1, -2)
        HW = RDt @ (w * As[l])
        if l > 0:
            HW += (w * Ds[l]).swapaxes(-1, -2) @ RAs[l]
        blocks[2 * l] = HW.reshape(len(V), -1)
        blocks[2 * l + 1] = (RDt @ w)[..., 0]
        if l > 0:
            RD = RD @ Ws[l]
            RD += Ds[l] @ VWs[l]
            RD *= ags[l - 1]
    return np.concatenate(blocks, axis=1)


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


class _HvpOperator:
    """``V -> H^er V`` of ``hessian_vector_product``, every check made once, when it is built.

    ``rows`` and ``weights`` are as ``hessian_vector_product`` takes them:
    the parameters are one vector, a linearization is of ``spec`` and at
    ``params`` byte for byte, and the weights have the samples' shape. Raw
    rows are linearized here, once. A call applies the R-operator
    (``_hvp_exact``) to a (k, P) stack V (K rows for K paired row sets),
    which it does not check again, and checks only that the products are
    finite; ``sets`` (a slice) applies it to those row sets of a paired
    linearization (``Linearization.take``), with those rows of the weights.
    A solve builds one operator and applies it at every step.
    """

    def __init__(self, spec, params, rows, weights):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.flat = _one_vector(params)
        lin = rows if isinstance(rows, Linearization) else None
        if lin is not None:
            if lin.params is None:
                raise ShapeError("linearization without parameters (from keep or restore)")
            if lin.spec != spec or lin.params.tobytes() != self.flat.tobytes():
                raise ShapeError("linearization built for another model or at other parameters")
            samples = lin.samples
        else:
            X, targets = _xy(spec, rows)
            samples = X.shape[:-1]
        if self.weights.shape != samples:
            raise ShapeError(
                f"weights of shape {self.weights.shape} for samples of shape {samples}"
            )
        self.lin = lin if lin is not None else _linearize(spec, self.flat, X, targets)

    def __call__(self, V, sets=None):
        if sets is None:
            out = _hvp_exact(self.lin, self.weights, V)
        else:
            out = _hvp_exact(self.lin.take(sets), self.weights[sets], V)
        if not np.isfinite(out).all():
            raise NumericError("non-finite Hessian-vector product")
        return out


def hessian_vector_product(spec, params, dataset, weights, v):
    """H^er v for the weighted empirical risk (no regularizer), by the R-operator.

    ``v`` may be a single flat vector or a (k, P) stack; the result has the
    same shape. ``params`` is one vector and raw rows are shared rows, with
    ``(n,)`` weights. A ``Linearization`` of the rows at ``params`` (from
    ``linearize``) may stand in for them, with the same bits: only the
    R-forward and R-backward then run. K row sets of one
    (``Linearization.take``) with ``(K, b)`` weights pair row for row with a
    (K, P) ``v``: row k is H(set k) v_k, bit-equal to the call on set k
    alone. One built for another spec or at other parameters raises
    ShapeError. The call is one application of the operator a solve builds
    once (``_HvpOperator``).
    """
    hvp = _HvpOperator(spec, params, dataset, weights)
    V = as_flat(v)
    single = V.ndim == 1
    V = np.atleast_2d(V)
    P = hvp.flat.size
    if V.shape[1] != P:
        raise ShapeError(f"vector length {V.shape[1]} != parameter count {P}")
    if hvp.weights.ndim == 2 and V.shape != (len(hvp.weights), P):
        raise ShapeError(f"{len(hvp.weights)} row sets for vectors of shape {V.shape}")
    out = hvp(V)
    return out[0] if single else out


def dense_hessian(spec, params, dataset, weights):
    """Full H^er matrix, assembled from exact HVPs with basis vectors.

    The rows are linearized once, and the basis vectors go through one
    operator (``_HvpOperator``) ceil(sqrt(P)) at a time, each block built
    for its call. Row k of a stacked HVP has the bits of basis vector k
    alone, so the matrix has the bits of one P-vector call, while the working
    memory beside the P x P result is that of ceil(sqrt(P)) vectors, not P.
    """
    P = as_flat(params).size
    if P > DENSE_HESSIAN_CAP:
        raise ValueError(f"parameter count {P} exceeds dense-Hessian cap {DENSE_HESSIAN_CAP}")
    hvp = _HvpOperator(spec, params, linearize(spec, params, dataset), weights)
    block = math.isqrt(P - 1) + 1
    H = np.empty((P, P))
    for start in range(0, P, block):
        k = min(block, P - start)
        basis = np.zeros((k, P))
        basis[np.arange(k), start + np.arange(k)] = 1.0
        H[start : start + k] = hvp(basis)
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
    Zs, _ = _forward(spec, *_unpack(spec, _one_vector(params)), X)
    return float((Zs[-1].argmax(axis=1) == targets).mean())
