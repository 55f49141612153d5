"""Dense MLP core: flat parameter vectors, forward/backward, SGD with momentum.

Models are plain float64 vectors plus shape metadata, so aggregation, control
variates and gradient checks can treat a network as ordinary linear algebra.
Hidden layers use ReLU, the output layer is linear (logits), and the loss is
softmax cross-entropy. Identical inputs give bit-identical outputs, and every
function here except momentum_update is pure: inputs are never mutated.

The public functions take ParamVector/Batch values and validate them on
every call. Local training instead runs the unchecked array forms they
delegate to (`_loss_grad`, `momentum_update`), so there is a single chain
rule and a single momentum rule; its callers validate data and models once,
at round boundaries. momentum_update works in place on buffers its caller
owns, so a local step streams each model-sized vector through memory once
per operation instead of allocating a fresh temporary for each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeError


def _shape_size(shape) -> int:
    return shape[0] * shape[1] if isinstance(shape, tuple) else int(shape)


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

    @property
    def n_layers(self) -> int:
        return len(self.layer_dims) - 1

    def param_shapes(self) -> tuple:
        """Interleaved (rows, cols) weight shapes and int bias lengths."""
        shapes = []
        for fan_in, fan_out in zip(self.layer_dims[:-1], self.layer_dims[1:]):
            shapes.append((fan_in, fan_out))
            shapes.append(fan_out)
        return tuple(shapes)

    def n_params(self) -> int:
        return sum(_shape_size(s) for s in self.param_shapes())


@dataclass(frozen=True)
class ParamVector:
    """Flat float64 parameter vector plus the layer shapes packed into it.

    ``shapes`` holds (rows, cols) tuples for weight matrices and plain ints
    for bias lengths. The backing array is copied on construction and frozen
    read-only, so one global model can be handed to every party of a round
    without any party's training changing what the next one sees.
    Construction rejects non-finite entries.
    """

    values: np.ndarray
    shapes: tuple

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64, copy=True).reshape(-1)
        shapes = tuple(
            (int(s[0]), int(s[1])) if isinstance(s, (tuple, list)) else int(s)
            for s in self.shapes
        )
        expected = sum(_shape_size(s) for s in shapes)
        if values.size != expected:
            raise ShapeError(
                f"flat length {values.size} does not match shapes total {expected}"
            )
        if not np.all(np.isfinite(values)):
            raise NumericError("parameter vector contains non-finite entries")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "shapes", shapes)

    def __len__(self) -> int:
        return self.values.size

    def split(self) -> list[np.ndarray]:
        """Read-only views of the flat vector, reshaped per layer."""
        out, offset = [], 0
        for shape in self.shapes:
            size = _shape_size(shape)
            chunk = self.values[offset : offset + size]
            out.append(chunk.reshape(shape) if isinstance(shape, tuple) else chunk)
            offset += size
        return out

    def with_values(self, values: np.ndarray) -> "ParamVector":
        return ParamVector(values, self.shapes)

    @staticmethod
    def zeros(shapes) -> "ParamVector":
        total = sum(_shape_size(s) for s in shapes)
        return ParamVector(np.zeros(total), shapes)


def zeros_like(params: ParamVector) -> ParamVector:
    return ParamVector.zeros(params.shapes)


@dataclass(frozen=True)
class Batch:
    """A minibatch: (m, d) feature matrix and m integer class labels."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        if features.ndim != 2:
            raise ShapeError(f"batch features must be 2-d, got shape {features.shape}")
        if features.shape[0] != labels.shape[0]:
            raise ShapeError(
                f"{features.shape[0]} feature rows vs {labels.shape[0]} labels"
            )
        if features.shape[0] < 1:
            raise DataError("batch must contain at least one sample")
        if labels.size and labels.min() < 0:
            raise DataError("labels must be non-negative class ids")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.features.shape[0]


def init_mlp(arch: MlpArch, seed: int) -> ParamVector:
    """Initialize weights uniformly in the Glorot range, biases at zero.

    Per layer the range is +-sqrt(6 / (fan_in + fan_out)). Deterministic for
    a given seed.
    """
    rng = np.random.default_rng(seed)
    parts = []
    for fan_in, fan_out in zip(arch.layer_dims[:-1], arch.layer_dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        parts.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)).reshape(-1))
        parts.append(np.zeros(fan_out))
    return ParamVector(np.concatenate(parts), arch.param_shapes())


def _check_model_inputs(params: ParamVector, arch: MlpArch, features: np.ndarray):
    if params.shapes != arch.param_shapes():
        raise ShapeError("parameter shapes do not match the architecture")
    if features.shape[1] != arch.in_dim:
        raise ShapeError(
            f"feature width {features.shape[1]} != architecture input {arch.in_dim}"
        )


def check_labels(labels: np.ndarray, n_classes: int):
    """Raise DataError unless every label is a class id in [0, n_classes)."""
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise DataError(
            f"label out of range [0, {n_classes}): "
            f"min={labels.min()}, max={labels.max()}"
        )


def forward(params: ParamVector, arch: MlpArch, batch: Batch) -> np.ndarray:
    """Logits (m, out) for a batch; ReLU hidden layers, linear output."""
    _check_model_inputs(params, arch, batch.features)
    layers = params.split()
    a = batch.features
    for layer in range(arch.n_layers):
        weight, bias = layers[2 * layer], layers[2 * layer + 1]
        z = a @ weight + bias
        a = np.maximum(z, 0.0) if layer < arch.n_layers - 1 else z
    return a


def _log_softmax_terms(logits: np.ndarray):
    # Row max is subtracted before exponentiation so huge logits cannot overflow.
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    return shifted, log_norm


def cross_entropy_loss(logits: np.ndarray, labels) -> float:
    """Mean softmax cross-entropy of logits against integer labels."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if logits.ndim != 2 or logits.shape[0] != labels.shape[0]:
        raise ShapeError(
            f"logits shape {logits.shape} incompatible with {labels.shape[0]} labels"
        )
    check_labels(labels, logits.shape[1])
    shifted, log_norm = _log_softmax_terms(logits)
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


def _loss_grad(layers, w, features, labels, prox_mu, anchor):
    """Array kernel behind backward: mean loss and flat gradient.

    layers comes from layer_slices; w (and anchor when prox_mu > 0) are flat
    float64 arrays, features an (m, in) float array and labels int class ids
    already checked to lie in range. Nothing is validated or copied here, so
    callers check their inputs once, not on every step. Inputs are never
    written to. The numpy operations are backward's own, in its order, so
    results are bit-identical; reductions call their ufuncs directly to skip
    the Python wrappers of ndarray.sum/max and np.mean.
    """
    # Every array written below is a fresh temporary of this call, so the
    # in-place forms only save allocations; each value is computed exactly as
    # the out-of-place expression would.
    activations = [features]
    a = features
    last = len(layers) - 1
    for layer, (start, stop, shape, bias_stop) in enumerate(layers):
        a = a @ w[start:stop].reshape(shape)
        a += w[stop:bias_stop]
        if layer < last:
            # max(z, 0) > 0 exactly where z > 0, so the activations double
            # as the ReLU masks of the backward pass.
            np.maximum(a, 0.0, out=a)
            activations.append(a)

    # Log-softmax of the logits a, computed once for the loss and its gradient.
    a -= np.maximum.reduce(a, axis=1, keepdims=True)
    log_norm = np.log(np.add.reduce(np.exp(a), axis=1))
    m = labels.shape[0]
    rows = np.arange(m)
    loss = float(np.add.reduce(log_norm - a[rows, labels]) / m)
    a -= log_norm[:, None]
    delta = np.exp(a, out=a)
    delta[rows, labels] -= 1.0
    delta /= m

    flat = np.empty(w.shape[0])
    for layer in range(last, -1, -1):
        start, stop, shape, bias_stop = layers[layer]
        np.matmul(activations[layer].T, delta, out=flat[start:stop].reshape(shape))
        np.add.reduce(delta, axis=0, out=flat[stop:bias_stop])
        if layer > 0:
            delta = delta @ w[start:stop].reshape(shape).T
            delta *= activations[layer] > 0.0

    if prox_mu > 0:
        diff = w - anchor
        loss += 0.5 * prox_mu * float(diff @ diff)
        diff *= prox_mu
        flat += diff
    return loss, flat


def backward(
    params: ParamVector,
    arch: MlpArch,
    batch: Batch,
    prox_mu: float = 0.0,
    prox_anchor: ParamVector | None = None,
) -> tuple[float, ParamVector]:
    """Mean loss and its gradient, optionally with a proximal penalty.

    With prox_mu > 0 the objective gains (mu/2) * ||w - anchor||^2, whose
    gradient contribution is mu * (w - anchor). prox_mu == 0 takes a branch
    that never touches the anchor, so it is bit-identical to the plain loss.
    Validates its inputs, then runs the same array kernel local training
    uses; a non-finite gradient raises NumericError.
    """
    if prox_mu < 0:
        raise ConfigError(f"prox_mu must be >= 0, got {prox_mu}")
    if prox_mu > 0:
        if prox_anchor is None:
            raise ShapeError("prox_mu > 0 requires a proximal anchor")
        if prox_anchor.shapes != params.shapes:
            raise ShapeError("proximal anchor shapes do not match parameters")
    _check_model_inputs(params, arch, batch.features)
    check_labels(batch.labels, arch.out_dim)
    loss, flat = _loss_grad(
        layer_slices(arch), params.values, batch.features, batch.labels, prox_mu,
        prox_anchor.values if prox_mu > 0 else None,
    )
    return loss, ParamVector(flat, params.shapes)


def momentum_update(w, grad, velocity, lr: float, momentum: float, out) -> None:
    """Unchecked, in-place array form of sgd_momentum_step.

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


def sgd_momentum_step(
    params: ParamVector,
    grad: ParamVector,
    velocity: ParamVector,
    lr: float,
    momentum: float,
) -> tuple[ParamVector, ParamVector]:
    """One step of v' = momentum*v + g; w' = w - lr*v'."""
    if not lr > 0:
        raise ConfigError(f"learning rate must be > 0, got {lr}")
    if not 0.0 <= momentum < 1.0:
        raise ConfigError(f"momentum must be in [0, 1), got {momentum}")
    if not (np.isfinite(lr) and np.isfinite(momentum)):
        raise NumericError("non-finite learning rate or momentum")
    if grad.shapes != params.shapes or velocity.shapes != params.shapes:
        raise ShapeError("gradient/velocity shapes do not match parameters")
    new_params = np.empty_like(params.values)
    new_velocity = velocity.values.copy()
    momentum_update(params.values, grad.values, new_velocity, lr, momentum, new_params)
    return ParamVector(new_params, params.shapes), ParamVector(new_velocity, params.shapes)


def predict_accuracy(params: ParamVector, arch: MlpArch, dataset) -> float:
    """Top-1 accuracy on a dataset; argmax ties go to the lowest class id."""
    features = np.asarray(dataset.features, dtype=np.float64)
    labels = np.asarray(dataset.labels, dtype=np.int64)
    if features.shape[0] == 0:
        raise DataError("cannot evaluate accuracy on an empty dataset")
    hits = 0
    chunk = 4096
    for start in range(0, features.shape[0], chunk):
        stop = min(start + chunk, features.shape[0])
        logits = forward(params, arch, Batch(features[start:stop], labels[start:stop]))
        # np.argmax returns the first maximum, i.e. the lowest class index.
        hits += int(np.sum(np.argmax(logits, axis=1) == labels[start:stop]))
    return hits / features.shape[0]


def finite_diff_grad(
    params: ParamVector, arch: MlpArch, batch: Batch, h: float
) -> ParamVector:
    """Central-difference gradient of the plain cross-entropy loss.

    Test oracle only: it evaluates the loss 2*len(params) times and never
    shares code with backward's chain rule.
    """
    if not h > 0:
        raise ConfigError(f"finite-difference step must be > 0, got {h}")
    base = params.values
    grad = np.empty(base.size)
    for i in range(base.size):
        plus = base.copy()
        plus[i] += h
        minus = base.copy()
        minus[i] -= h
        loss_plus = cross_entropy_loss(
            forward(ParamVector(plus, params.shapes), arch, batch), batch.labels
        )
        loss_minus = cross_entropy_loss(
            forward(ParamVector(minus, params.shapes), arch, batch), batch.labels
        )
        grad[i] = (loss_plus - loss_minus) / (2.0 * h)
    return ParamVector(grad, params.shapes)
