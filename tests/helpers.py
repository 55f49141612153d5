"""Shared builders, writers and out-of-place reference forms for the tests."""

import struct

import numpy as np

from fedsim import rng
from fedsim.compensated import two_diff, two_prod, two_sum
from fedsim.datasets import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC
from fedsim.engine import LocalUpdate


def write_idx(ds, images_path, labels_path, rows: int, cols: int):
    """Write a dataset with features in [0, 1] as an IDX image/label pair of
    rows x cols images, pixels rounded to 8 bits."""
    assert rows * cols == ds.n_features
    pixels = np.clip(np.rint(ds.features * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, ds.n, rows, cols))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, ds.n))
        fh.write(ds.labels.astype(np.uint8).tobytes())


def make_update(w_t, party_id, delta, tau, n_samples, delta_control=None):
    """A LocalUpdate whose final model is w_t - delta (flat float64 arrays)."""
    return LocalUpdate(
        party_id=party_id,
        tau=tau,
        n_samples=n_samples,
        train_loss=0.0,
        final_params=w_t - delta,
        delta_control=delta_control,
    )


def combine_updates_unblocked(base, coeffs, residual_targets, scale):
    """compensated.combine_updates in one pass over whole vectors, with a
    fresh temporary per operation: the reference the blocked form must
    match bit for bit."""
    acc_hi = np.zeros_like(base)
    acc_lo = np.zeros_like(base)
    for coeff, target in zip(coeffs, residual_targets):
        r_hi, r_lo = two_diff(base, target)
        p_hi, p_lo = two_prod(coeff, r_hi)
        p_lo = p_lo + coeff * r_lo
        acc_hi, carry = two_sum(acc_hi, p_hi)
        acc_lo = acc_lo + (carry + p_lo)
    if scale != 1.0:
        s_hi, s_lo = two_prod(scale, acc_hi)
        acc_hi, acc_lo = s_hi, s_lo + scale * acc_lo
    out_hi, out_lo = two_diff(base, acc_hi)
    return out_hi + (out_lo - acc_lo)


def reference_local_loop(w_start, view, cfg, round_idx, objective, prox_mu=0.0,
                         correction=None):
    """The engine's local SGD loop written out of place: every step builds
    new velocity and parameter arrays. A step whose loss or new parameters
    are non-finite ends the loop and is dropped. Returns (final array, tau,
    mean loss, diverged): the last finite model, the number of kept steps
    (at least 1), their mean loss (nan if none) and whether a step was
    dropped."""
    generator = rng.stream(cfg.master_seed, rng.TAG_LOCAL, round_idx, view.party_id)
    features = view.features
    params = w_start
    velocity = np.zeros_like(w_start)
    losses = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.local_epochs):
            perm = generator.permutation(view.n_samples)
            for start in range(0, view.n_samples, cfg.batch_size):
                batch_idx = perm[start : start + cfg.batch_size]
                loss, grad = objective.loss_grad(
                    params, features[batch_idx], view.labels[batch_idx], prox_mu,
                    w_start if prox_mu > 0 else None,
                )
                if correction is not None:
                    grad = grad + correction
                velocity = cfg.momentum * velocity + grad
                stepped = params - cfg.local_lr * velocity
                if not (np.isfinite(loss) and np.isfinite(stepped).all()):
                    mean = float(np.mean(losses)) if losses else float("nan")
                    return params, max(len(losses), 1), mean, True
                params = stepped
                losses.append(loss)
    return params, len(losses), float(np.mean(losses)), False


def reference_loss_grad(layers, w, features, labels, prox_mu, anchor):
    """nn._loss_grad as it was written before its buffers and folds, out of
    place: row max and row sum over the classes through np.maximum.reduce
    and np.add.reduce, the labels picked and marked with 2-d fancy
    indexing, and the proximal norm as one dot product per row. Only the
    gradient is assembled in place, each layer's part written into its
    slice of one flat array. The kernel must match it bit for bit, stacked
    or not, with or without a workspace plan."""
    lead = w.shape[:-1]
    flip = (*range(len(lead)), len(lead) + 1, len(lead))
    weights, activations = [], [features]
    a = features
    last = len(layers) - 1
    for layer, (start, stop, shape, bias_stop) in enumerate(layers):
        weights.append(w[..., start:stop].reshape(lead + shape))
        z = a @ weights[layer] + w[..., None, stop:bias_stop]
        a = np.maximum(z, 0.0) if layer < last else z
        activations.append(a)

    shifted = a - np.maximum.reduce(a, axis=-1, keepdims=True)
    log_norm = np.log(np.add.reduce(np.exp(shifted), axis=-1))
    m = labels.shape[-1]
    rows, flat_labels = np.arange(labels.size), labels.reshape(-1)
    picked = shifted.reshape(rows.size, -1)[rows, flat_labels].reshape(log_norm.shape)
    loss = np.add.reduce(log_norm - picked, axis=-1) / m
    marks = np.zeros(shifted.shape)
    marks.reshape(rows.size, -1)[rows, flat_labels] = 1.0
    delta = (np.exp(shifted - log_norm[..., None]) - marks) / m

    grad = np.empty(w.shape)
    for layer in range(last, -1, -1):
        start, stop, shape, bias_stop = layers[layer]
        np.matmul(activations[layer].transpose(flip), delta,
                  out=grad[..., start:stop].reshape(lead + shape))
        np.add.reduce(delta, axis=-2, out=grad[..., stop:bias_stop])
        if layer > 0:
            delta = (delta @ weights[layer].transpose(flip)) * (activations[layer] > 0.0)

    if prox_mu > 0:
        diff = w - anchor
        squares = np.array([row @ row for row in diff]) if lead else diff @ diff
        loss = loss + 0.5 * prox_mu * squares
        grad = grad + diff * prox_mu
    return (loss if lead else float(loss)), grad
