"""Shared builders and out-of-place reference forms for the tests."""

import numpy as np

from fedsim import rng
from fedsim.compensated import two_diff, two_prod, two_sum
from fedsim.engine import LocalUpdate
from fedsim.nn import ParamVector


def make_update(w_t, party_id, delta, tau, n_samples, delta_control=None):
    """A LocalUpdate whose final model is w_t - delta."""
    return LocalUpdate(
        party_id=party_id,
        tau=tau,
        n_samples=n_samples,
        train_loss=0.0,
        final_params=ParamVector(w_t.values - delta.values, w_t.shapes),
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
    """The engine's local SGD loop written out of place, for finite runs:
    every step builds new velocity and parameter arrays. Returns (final
    array, tau, mean loss)."""
    generator = rng.stream(cfg.master_seed, rng.TAG_LOCAL, round_idx, view.party_id)
    params = w_start
    velocity = np.zeros_like(w_start)
    losses = []
    for _ in range(cfg.local_epochs):
        perm = generator.permutation(view.n_samples)
        for start in range(0, view.n_samples, cfg.batch_size):
            batch_idx = perm[start : start + cfg.batch_size]
            loss, grad = objective.loss_grad(
                params, view.features[batch_idx], view.labels[batch_idx], prox_mu,
                w_start if prox_mu > 0 else None,
            )
            if correction is not None:
                grad = grad + correction
            velocity = cfg.momentum * velocity + grad
            params = params - cfg.local_lr * velocity
            losses.append(loss)
    return params, len(losses), float(np.mean(losses))
