"""Dense MLP core: flat parameter vectors, forward/backward, SGD with momentum.

A model, a gradient and a control variate are the same thing: a 1-d float64
array of arch.n_params() entries, laid out as layer_slices(arch) describes
(per layer a row-major weight matrix followed by its bias). Aggregation,
control variates and gradient checks therefore treat a network as ordinary
linear algebra. Hidden layers use ReLU, the output layer is linear (logits),
and the loss is softmax cross-entropy. Identical inputs give bit-identical
outputs, and no function here writes to its inputs except momentum_update,
which updates its caller's buffers, and `_loss_grad`, which computes in the
buffers of a Workspace and returns its gradient there. Every other function
is pure.

The public functions (forward, backward, predict_accuracy,
finite_diff_grad) validate their inputs on every call. Local training
instead runs the unchecked kernels they delegate to (`_loss_grad`,
`momentum_update`), so there is a single chain rule and a single momentum
rule; its callers validate data and models once, at round boundaries.
momentum_update works in place on buffers its caller owns, so a local step
streams each model-sized vector through memory once per operation instead
of allocating a fresh temporary for each.

One `_loss_grad` serves one model's (n,) parameters and a (P, n) stack of P
models alike, the stack with (P, m, in) features or one (1, m, in) batch
for all of them, each row with its own proximal mu and anchor or none, and
row p of a stacked call is bit for bit the call on row p alone. That lets
the engine train several small parties, or one party for several cells,
with one call per step (see fedsim.engine) without a second copy of
backprop. momentum_update is elementwise, so it takes either shape too.

At these model sizes a call's cost is numpy's per-call overhead, not the
arithmetic. So every `_loss_grad` call runs on a plan of a Workspace, which
holds every view and buffer a call shape needs. Local training keeps one
Workspace per run and reuses its plans: on the fcube net (3-32-16-8-2,
fedprox) such a call makes 53 numpy calls. A call given no plan first lays
out a one-call Workspace. Short class rows are reduced as column folds,
and the labels are picked through one flat index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeError


@dataclass(frozen=True)
class MlpArch:
    """Layer widths of a fully connected ReLU net, input through output."""

    layer_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        object.__setattr__(self, "layer_dims", dims)
        if len(dims) < 2:
            raise ConfigError(f"architecture needs at least [in, out], got {list(dims)}")
        if any(d < 1 for d in dims):
            raise ConfigError(f"layer dims must all be >= 1, got {list(dims)}")

    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def out_dim(self) -> int:
        return self.layer_dims[-1]

    def n_params(self) -> int:
        return layer_slices(self)[-1][3]  # the output bias ends the vector


def init_mlp(arch: MlpArch, seed: int) -> np.ndarray:
    """Initialize weights uniformly in the Glorot range, biases at zero.

    Per layer the range is +-sqrt(6 / (fan_in + fan_out)). Deterministic for
    a given seed. The returned array is read-only.
    """
    rng = np.random.default_rng(seed)
    parts = []
    for fan_in, fan_out in zip(arch.layer_dims[:-1], arch.layer_dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        parts.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)).reshape(-1))
        parts.append(np.zeros(fan_out))
    w = np.concatenate(parts)
    w.setflags(write=False)
    return w


def _check_params(w, arch: MlpArch) -> np.ndarray:
    """w as a finite 1-d float64 array of arch.n_params() entries."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (arch.n_params(),):
        raise ShapeError(f"parameters of shape {w.shape}, expected ({arch.n_params()},)")
    if not np.isfinite(w).all():
        raise NumericError("parameters contain non-finite entries")
    return w


def _check_data(features, labels, arch: MlpArch):
    """features as float64 (m, in) rows, m >= 1, and labels (unless None) as
    m non-negative int64 class ids."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != arch.in_dim:
        raise ShapeError(f"features of shape {features.shape}, input width {arch.in_dim}")
    if features.shape[0] < 1:
        raise DataError("need at least one sample")
    if labels is not None:
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        if labels.shape[0] != features.shape[0]:
            raise ShapeError(f"{features.shape[0]} feature rows vs {labels.shape[0]} labels")
        if labels.min() < 0:
            raise DataError("labels must be non-negative class ids")
    return features, labels


def check_labels(labels: np.ndarray, n_classes: int):
    """Raise DataError unless every label is a class id in [0, n_classes)."""
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise DataError(
            f"label out of range [0, {n_classes}): "
            f"min={labels.min()}, max={labels.max()}"
        )


def _logits(layers, w, features):
    """Unchecked forward pass of float64 feature rows through flat w."""
    a = features
    last = len(layers) - 1
    for layer, (start, stop, shape, bias_stop) in enumerate(layers):
        z = a @ w[start:stop].reshape(shape) + w[stop:bias_stop]
        a = np.maximum(z, 0.0) if layer < last else z
    return a


def forward(w, arch: MlpArch, features) -> np.ndarray:
    """Logits (m, out) for m feature rows; ReLU hidden layers, linear output."""
    w = _check_params(w, arch)
    features, _ = _check_data(features, None, arch)
    return _logits(layer_slices(arch), w, features)


def cross_entropy_loss(logits: np.ndarray, labels) -> float:
    """Mean softmax cross-entropy of logits against integer labels."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if logits.ndim != 2 or logits.shape[0] != labels.shape[0]:
        raise ShapeError(
            f"logits shape {logits.shape} incompatible with {labels.shape[0]} labels"
        )
    check_labels(labels, logits.shape[1])
    # Row max is subtracted before exponentiation so huge logits cannot overflow.
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(labels.shape[0]), labels]
    return float(np.mean(log_norm - picked))


def layer_slices(arch: MlpArch) -> tuple:
    """Per layer, (weight start, weight stop, (fan_in, fan_out), bias stop)
    offsets into the flat parameter vector; the bias follows its weight."""
    out, offset = [], 0
    for fan_in, fan_out in zip(arch.layer_dims[:-1], arch.layer_dims[1:]):
        stop = offset + fan_in * fan_out
        out.append((offset, stop, (fan_in, fan_out), stop + fan_out))
        offset = stop + fan_out
    return tuple(out)


# Below this many classes a row max or row sum over the classes is taken as
# a left fold of the class columns: one ufunc call per class over all rows,
# instead of a reduction that loops over many very short rows. A max is
# exact in any order, and on numpy 2.4 add.reduce over 2-7 elements adds
# them left to right too; from 8 on it sums pairwise and the fold differs.
# tests/test_properties.py pins both folds to the reductions on 1-12 classes.
_FOLD_BELOW = 8


class Workspace:
    """Buffers that the _loss_grad calls of one training run (or one
    unplanned call) reuse.

    Sized for up to `rows` models and batches of up to `batch` samples.
    plan(w, m) lays out views of them for one call shape on w; it keeps
    nothing, so a caller that calls on one shape again keeps the plan (the
    engine's LocalTrainer does, until it grows into a larger workspace).
    Calls that share a workspace run one at a time, and each call's
    gradient is overwritten by the next call's.
    """

    def __init__(self, layers, rows: int, batch: int):
        widths = [shape[1] for _, _, shape, _ in layers]
        cells, n = rows * batch, layers[-1][3]
        self.layers = layers
        self.outputs = [np.empty(cells * width) for width in widths]
        self.deltas = [np.empty(cells * width) for width in widths[:-1]]
        self.exp = np.empty(cells * widths[-1])
        self.samples = np.empty((2, cells))  # row max, log norm
        self.index = np.empty(cells, dtype=np.int64)
        self.grad = np.empty(rows * n)
        self.diff = np.empty(rows * n)

    def plan(self, w, m: int) -> _Plan:
        """The views of a _loss_grad call on w with m samples per model."""
        return _Plan(w, m, self)


class _Plan:
    """The arrays of one _loss_grad call on the model array w, one model
    (n,) or a (k, n) stack, with batches of m samples, laid out in a
    workspace.

    It holds w's layer weight views, their transposes and its bias views;
    the gradient and its per-layer views; the layer outputs and their
    transposes; the delta, per-sample, label index and proximal-difference
    buffers; the class columns the short-row folds read; and the flat label
    index base arange(0, k*m*C, C). Every buffer is a leading part of the
    workspace's, so it is contiguous and laid out as a fresh array would
    be.
    """

    __slots__ = (
        "w", "weights", "weights_t", "biases", "flip", "grad", "grad_weights",
        "grad_biases", "outputs", "inputs_t", "logits", "exp", "logit_columns",
        "exp_columns", "deltas", "row_max", "norm", "index", "index_base", "diff",
    )

    def __init__(self, w, m: int, work: Workspace):
        layers, lead = work.layers, w.shape[:-1]  # lead: () for one model, (k,) for a stack
        self.flip = flip = (*range(len(lead)), len(lead) + 1, len(lead))  # swaps the last two axes
        rows = lead + (m,)
        cells = m * (lead[0] if lead else 1)
        widths = [fan_out for _, _, (_, fan_out), _ in layers]

        def part(buffer, *width):
            return buffer[: cells * math.prod(width)].reshape(rows + width)

        self.w = w
        self.weights = [w[..., a:b].reshape(lead + s) for a, b, s, _ in layers]
        # The first layer passes no delta back, so its transpose is never read.
        self.weights_t = [None] + [weight.transpose(flip) for weight in self.weights[1:]]
        self.biases = [w[..., None, b:c] for _, b, _, c in layers]
        self.grad = grad = work.grad[: w.size].reshape(w.shape)
        self.outputs = [part(buf, width) for buf, width in zip(work.outputs, widths)]
        self.exp = part(work.exp, widths[-1])
        self.deltas = [part(buf, width) for buf, width in zip(work.deltas, widths)]
        self.row_max, self.norm = (part(buf) for buf in work.samples)
        self.index = part(work.index)
        self.diff = work.diff[: w.size].reshape(w.shape)
        self.grad_weights = [grad[..., a:b].reshape(lead + s) for a, b, s, _ in layers]
        self.grad_biases = [grad[..., b:c] for _, b, _, c in layers]
        # Layer l's input is layer l-1's output; the features come per call.
        self.inputs_t = [None] + [out.transpose(flip) for out in self.outputs[:-1]]
        classes = widths[-1]
        self.logits = self.outputs[-1].reshape(-1)
        fold = 1 < classes < _FOLD_BELOW
        self.logit_columns = [self.outputs[-1][..., j] for j in range(classes)] if fold else None
        self.exp_columns = [self.exp[..., j] for j in range(classes)] if fold else None
        self.index_base = np.arange(0, cells * classes, classes).reshape(rows)


def _row_reduce(ufunc, rows, columns, out):
    """ufunc.reduce over the last axis of rows, into out unless it is None;
    a left fold of the class columns when the plan holds them."""
    if columns is None:
        return ufunc.reduce(rows, axis=-1, out=out)
    out = ufunc(columns[0], columns[1], out=out)
    for column in columns[2:]:
        ufunc(out, column, out=out)
    return out


def _loss_grad(layers, w, features, labels, prox_mu, anchor, plan=None, prox_rows=None):
    """Array kernel behind backward: mean loss and flat gradient, for one
    model or for a stack of P models at once.

    layers comes from layer_slices. w is one model's flat float64 array and
    features an (m, in) float array with m int labels; or w is a (P, n)
    stack of models, features (P, m, in) and labels (P, m), row p of each
    belonging to model p, or features (1, m, in) and labels (1, m), one
    batch that every model trains on. Returns (float loss, (n,) gradient)
    or ((P,) losses, (P, n) gradients). Labels must already lie in range,
    and nothing is validated or copied here, so callers check their inputs
    once, not on every step. Inputs are never written to.

    The proximal term (mu/2) * ||w - anchor||^2 joins the loss, and
    mu * (w - anchor) the gradient, of every model when prox_mu > 0, with
    anchor one flat model or one per row of the stack. prox_rows, a slice
    of a stack's rows, limits it to those rows: prox_mu then holds one mu
    per such row and anchor one model per such row (or one for all). A row
    outside prox_rows never enters the proximal branch, so its gradient
    keeps the sign of a zero and no 0 * inf turns into nan.

    plan, when given, is Workspace.plan(w, m) for this very array w: the
    call then builds no view and allocates almost nothing, and the gradient
    it returns is the workspace's, overwritten by the next call. Without a
    plan the call lays out a one-call Workspace, so its gradient is new.

    A stack computes each row exactly as a call on that row alone would:
    matmul runs its 2-d kernel once per stacked matrix, every reduction and
    fold runs along the same axis of the same row-major rows, and the
    proximal term takes one dot product per row. So row p of a stacked call
    is bit for bit the call on (w[p], features[p], labels[p]) (features[0]
    and labels[0] for a shared batch) with row p's mu and anchor, or with
    mu 0 outside prox_rows. numpy does not promise the matmul part;
    property tests in tests/test_properties.py check it, with per-row mus
    and shared batches too, and another pins the kernel to an out-of-place
    reference.
    """
    m = labels.shape[-1]
    if plan is None:
        plan = Workspace(layers, math.prod(w.shape[:-1]), m).plan(w, m)
    elif plan.w is not w:
        raise ShapeError("a _loss_grad plan serves only the array it was made for")
    # Each value below is computed exactly as the out-of-place expression
    # would; the buffers only save allocations.
    a = features
    last = len(layers) - 1
    for layer in range(last + 1):
        a = np.matmul(a, plan.weights[layer], out=plan.outputs[layer])
        a += plan.biases[layer]
        if layer < last:
            # max(z, 0) > 0 exactly where z > 0, so the layer outputs double
            # as the ReLU masks of the backward pass.
            np.maximum(a, 0.0, out=a)

    # Log-softmax of the logits a, computed once for the loss and its gradient.
    a -= _row_reduce(np.maximum, a, plan.logit_columns, plan.row_max)[..., None]
    exp = np.exp(a, out=plan.exp)
    log_norm = _row_reduce(np.add, exp, plan.exp_columns, plan.norm)
    np.log(log_norm, out=log_norm)
    # Every sample's label as one index into the flat logits, so one gather
    # picks, and one scatter marks, the labels whatever the stack depth.
    index = np.add(plan.index_base, labels, out=plan.index)
    picked = plan.logits[index]
    loss = np.add.reduce(np.subtract(log_norm, picked, out=picked), axis=-1) / m
    a -= log_norm[..., None]
    delta = np.exp(a, out=a)
    plan.logits[index] -= 1.0
    delta /= m

    for layer in range(last, -1, -1):
        inputs_t = plan.inputs_t[layer] if layer else features.transpose(plan.flip)
        np.matmul(inputs_t, delta, out=plan.grad_weights[layer])
        np.add.reduce(delta, axis=-2, out=plan.grad_biases[layer])
        if layer > 0:
            delta = np.matmul(delta, plan.weights_t[layer], out=plan.deltas[layer - 1])
            delta *= plan.outputs[layer - 1] > 0.0

    grad = plan.grad
    if prox_rows is not None or prox_mu > 0:
        if prox_rows is None:
            pulled, pulled_grad, diff, scale = w, grad, plan.diff, prox_mu
        else:
            pulled, pulled_grad, diff = w[prox_rows], grad[prox_rows], plan.diff[prox_rows]
            scale = prox_mu[:, None]
        np.subtract(pulled, anchor, out=diff)
        pull = 0.5 * prox_mu * np.vecdot(diff, diff)
        diff *= scale
        pulled_grad += diff
        if prox_rows is None:
            loss += pull
        else:
            loss[prox_rows] += pull
    return (loss if w.ndim > 1 else float(loss)), grad


def backward(
    w, arch: MlpArch, features, labels, prox_mu: float = 0.0, anchor=None
) -> tuple[float, np.ndarray]:
    """Mean loss and its flat gradient, optionally with a proximal penalty.

    With prox_mu > 0 the objective gains (mu/2) * ||w - anchor||^2, whose
    gradient contribution is mu * (w - anchor). prox_mu == 0 takes a branch
    that never touches the anchor, so it is bit-identical to the plain loss.
    Validates its inputs, then runs the same array kernel local training
    uses; a non-finite gradient raises NumericError.
    """
    if prox_mu < 0:
        raise ConfigError(f"prox_mu must be >= 0, got {prox_mu}")
    w = _check_params(w, arch)
    if prox_mu > 0:
        if anchor is None:
            raise ShapeError("prox_mu > 0 requires a proximal anchor")
        anchor = _check_params(anchor, arch)
    features, labels = _check_data(features, labels, arch)
    check_labels(labels, arch.out_dim)
    loss, grad = _loss_grad(layer_slices(arch), w, features, labels, prox_mu, anchor)
    if not np.isfinite(grad).all():
        raise NumericError("gradient contains non-finite entries")
    return loss, grad


def momentum_update(w, grad, velocity, lr: float, momentum: float, out) -> None:
    """Unchecked, in-place SGD-with-momentum step on flat arrays.

    Overwrites velocity with v' = momentum*v + g and writes w' = w - lr*v'
    into out; w and grad are only read. out must be a separate buffer that
    aliases none of w, grad and velocity: it holds lr*v' before w is read.
    The ufuncs and their order are those of the out-of-place expressions,
    so results are bit-identical to them.
    """
    np.multiply(momentum, velocity, out=velocity)
    np.add(velocity, grad, out=velocity)
    np.multiply(lr, velocity, out=out)
    np.subtract(w, out, out=out)


def predict_accuracy(w, arch: MlpArch, dataset) -> float:
    """Top-1 accuracy on a dataset; argmax ties go to the lowest class id.

    The model and the dataset are validated once, then scored in chunks.
    """
    w = _check_params(w, arch)
    features, labels = _check_data(dataset.features, dataset.labels, arch)
    layers = layer_slices(arch)
    hits = 0
    chunk = 4096
    for start in range(0, features.shape[0], chunk):
        stop = min(start + chunk, features.shape[0])
        logits = _logits(layers, w, features[start:stop])
        # np.argmax returns the first maximum, i.e. the lowest class index.
        hits += int(np.sum(np.argmax(logits, axis=1) == labels[start:stop]))
    return hits / features.shape[0]


def finite_diff_grad(w, arch: MlpArch, features, labels, h: float) -> np.ndarray:
    """Central-difference gradient of the plain cross-entropy loss.

    Test oracle only: it evaluates the loss 2*len(w) times and never shares
    code with backward's chain rule.
    """
    if not h > 0:
        raise ConfigError(f"finite-difference step must be > 0, got {h}")
    base = _check_params(w, arch)
    features, labels = _check_data(features, labels, arch)
    grad = np.empty(base.size)
    for i in range(base.size):
        plus = base.copy()
        plus[i] += h
        minus = base.copy()
        minus[i] -= h
        loss_plus = cross_entropy_loss(forward(plus, arch, features), labels)
        loss_minus = cross_entropy_loss(forward(minus, arch, features), labels)
        grad[i] = (loss_plus - loss_minus) / (2.0 * h)
    return grad
