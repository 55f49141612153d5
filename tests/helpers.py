"""Shared builders for the engine tests."""

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
