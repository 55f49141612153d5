"""Federated round loop: party sampling, local training, aggregation.

Algorithms share one local SGD loop. fedavg trains on the plain loss,
fedprox adds a proximal pull toward the round's global model, scaffold
corrects each gradient with server/client control variates, and fednova
only changes the server-side combination (local-step-count normalization).

Determinism: every random choice is drawn from a stream addressed by
(master_seed, purpose, round, party), so each party's result depends only on
its own stream and the round's global state, never on which parties trained
before it. Aggregation always sums in ascending party id order.

Models and control variates are flat float64 arrays (see fedsim.nn). Every
one the engine hands out is read-only, so it can be shared without a copy
and no party can change what the next one sees.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .compensated import combine_updates
from .datasets import LabeledDataset
from .errors import ConfigError, DataError, NumericError, ProtocolError, ShapeError
from .nn import (
    MlpArch,
    _loss_grad,
    check_labels,
    init_mlp,
    layer_slices,
    momentum_update,
    predict_accuracy,
)
from .partition import PartitionSpec, PartyView, build_views

ALGORITHMS = ("fedavg", "fedprox", "scaffold", "fednova")

BYTES_PER_COORD = 8  # float64 on the wire


@dataclass(frozen=True)
class FedRunConfig:
    """Hyperparameters of one federation run."""

    algorithm: str
    rounds: int = 50
    n_parties: int = 10
    sample_fraction: float = 1.0
    local_epochs: int = 10
    batch_size: int = 64
    local_lr: float = 0.01
    momentum: float = 0.9
    server_lr: float = 1.0
    prox_mu: float = 0.01
    scaffold_c_option: str = "ii"
    master_seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(
                f"unknown algorithm {self.algorithm!r}, expected one of {ALGORITHMS}"
            )
        if self.rounds < 0:
            raise ConfigError(f"rounds must be >= 0, got {self.rounds}")
        if self.n_parties < 1 or self.local_epochs < 1 or self.batch_size < 1:
            raise ConfigError("n_parties, local_epochs and batch_size must be >= 1")
        if not self.local_lr > 0 or not self.server_lr > 0:
            raise ConfigError("learning rates must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if not self.prox_mu >= 0:
            raise ConfigError(f"prox_mu must be >= 0, got {self.prox_mu}")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ConfigError(
                f"sample_fraction must be in (0, 1], got {self.sample_fraction}"
            )
        if self.sample_fraction * self.n_parties < 1.0:
            raise ConfigError("sample_fraction * n_parties must be >= 1")
        if self.scaffold_c_option not in ("i", "ii"):
            raise ConfigError(
                f"scaffold_c_option must be 'i' or 'ii', got {self.scaffold_c_option!r}"
            )
        if self.master_seed < 0:
            raise ConfigError("master_seed must be non-negative")

    @property
    def mu(self) -> float | None:
        """The proximal mu this run trains with; None for an algorithm
        without a proximal term, whose prox_mu goes unused."""
        return self.prox_mu if self.algorithm == "fedprox" else None


@dataclass(frozen=True)
class GlobalState:
    """Federation state: global model; scaffold adds the server control c and
    client_controls, every party's c_i indexed by party id.

    diverged marks a round whose aggregate went non-finite; such a round
    keeps the previous model and controls.
    """

    params: np.ndarray
    control: np.ndarray | None = None
    client_controls: tuple | None = None
    diverged: bool = False


@dataclass(frozen=True)
class LocalUpdate:
    """What a party reports back after local training: its final model,
    local step count and sample count; scaffold adds its control change."""

    party_id: int
    tau: int
    n_samples: int
    train_loss: float
    final_params: np.ndarray
    delta_control: np.ndarray | None = None
    diverged: bool = False


@dataclass(frozen=True)
class RoundRecord:
    """One evaluated round; round 0 is the untrained model."""

    round: int
    test_accuracy: float
    mean_train_loss: float | None
    bytes: int
    wall_ms: int
    diverged: bool


class MlpObjective:
    """Bundles the model family local training optimizes.

    Any object with the same four methods can drive the engine, which is how
    tests exercise the update rules on hand-checkable scalar objectives.
    All four work on flat float64 arrays: init_params returns the initial
    model and accuracy scores one; loss_grad and full_grad take parameters,
    feature rows and label ids and return (loss, gradient) and a new
    gradient. They run once per local step, so they validate nothing:
    run_experiment checks the training data against the architecture once,
    and the local loop checks the loss and the new parameters for
    finiteness.
    """

    def __init__(self, arch: MlpArch):
        self.arch = arch
        self.layers = layer_slices(arch)

    def init_params(self, seed: int) -> np.ndarray:
        return init_mlp(self.arch, seed)

    def loss_grad(self, params, features, labels, prox_mu=0.0, prox_anchor=None):
        return _loss_grad(self.layers, params, features, labels, prox_mu, prox_anchor)

    def full_grad(self, params, features, labels) -> np.ndarray:
        return self.loss_grad(params, features, labels)[1]

    def accuracy(self, params, dataset) -> float:
        return predict_accuracy(params, self.arch, dataset)


def sample_parties(
    n_parties: int, fraction: float, round_idx: int, master_seed: int
) -> list[int]:
    """Uniform without-replacement sample of round(fraction * N) party ids, sorted."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    size = int(round(fraction * n_parties))
    size = max(1, min(size, n_parties))
    if size == n_parties:
        return list(range(n_parties))
    generator = rng.stream(master_seed, rng.TAG_SAMPLING, round_idx)
    return sorted(int(p) for p in generator.choice(n_parties, size=size, replace=False))


def _epoch_batches(generator, rows: np.ndarray, batch_size: int):
    """One epoch's minibatches as source rows.

    The epoch's permutation is mapped to source rows once, so each batch
    costs two gathers: its feature rows and its labels.
    """
    order = rows[generator.permutation(rows.shape[0])]
    for start in range(0, order.shape[0], batch_size):
        yield order[start : start + batch_size]


def _read_only(array: np.ndarray) -> np.ndarray:
    """array, marked read-only in place and returned."""
    array.setflags(write=False)
    return array


def _flagged_numerics():
    """Silence numpy's overflow and invalid-value warnings.

    The blocks run under it already detect non-finite values and flag the
    party or round as diverged; numpy's warnings would only repeat that,
    pointing at library lines and naming no cell, round or party.
    """
    return np.errstate(over="ignore", invalid="ignore")


def _local_loop(w_start, view, cfg, round_idx, objective, correction=None):
    """Shared minibatch loop on raw float64 arrays.

    w_start is the round's global model as a flat array; it is never written
    to, and neither are the view's arrays nor the gradients the objective
    returns. A cfg that trains with a mu adds the proximal pull toward
    w_start. correction, when given, is added to every raw gradient before
    the momentum step (scaffold's c - c_i). Returns (final array, tau, mean
    loss, diverged); the final array is the loop's own buffer, marked
    read-only. A step whose loss or new parameters are non-finite, or
    whose objective raises NumericError, is dropped and the last finite
    model is returned with diverged set. A non-finite gradient always
    reaches the new parameters (lr > 0, finite momentum), so checking those
    two catches every non-finite step.

    The loop owns its model-sized buffers, allocated per call so no two
    parties share state: the parameters, starting as a copy of w_start; the
    velocity, updated in place; a spare parameter buffer that each step
    writes and that is swapped in only once the step is found finite; the
    finiteness mask; and scaffold's corrected gradient.
    """
    generator = rng.stream(cfg.master_seed, rng.TAG_LOCAL, round_idx, view.party_id)
    loss_grad = objective.loss_grad
    source, rows, labels = view.source, view.rows, view.source_labels
    lr, momentum = cfg.local_lr, cfg.momentum
    prox_mu = cfg.mu or 0.0
    params = w_start.copy()
    spare = np.empty_like(w_start)
    velocity = np.zeros_like(w_start)
    finite = np.empty(w_start.shape, dtype=bool)
    corrected = np.empty_like(w_start) if correction is not None else None
    anchor = w_start if prox_mu > 0 else None
    losses = []
    diverged = False
    with _flagged_numerics():
        for _ in range(cfg.local_epochs):
            for batch in _epoch_batches(generator, rows, cfg.batch_size):
                try:
                    loss, grad = loss_grad(
                        params, source[batch], labels[batch], prox_mu, anchor
                    )
                except NumericError:
                    diverged = True
                    break
                if correction is not None:
                    grad = np.add(grad, correction, out=corrected)
                momentum_update(params, grad, velocity, lr, momentum, spare)
                if not (math.isfinite(loss) and np.isfinite(spare, out=finite).all()):
                    diverged = True
                    break
                params, spare = spare, params
                losses.append(loss)
            if diverged:
                break
    mean_loss = float(np.mean(losses)) if losses else float("nan")
    return _read_only(params), max(len(losses), 1), mean_loss, diverged


def local_train_sgd(
    w_t: np.ndarray,
    view: PartyView,
    cfg: FedRunConfig,
    round_idx: int,
    objective,
) -> LocalUpdate:
    """Local epochs of minibatch SGD with momentum; velocity starts at zero.

    A cfg.mu > 0 adds the proximal pull toward this round's global model
    (the anchor stays w_t for the whole round); a mu of 0 or None is
    bit-identical to plain training.
    """
    final, tau, mean_loss, diverged = _local_loop(w_t, view, cfg, round_idx, objective)
    return LocalUpdate(
        party_id=view.party_id,
        tau=tau,
        n_samples=view.n_samples,
        train_loss=mean_loss,
        final_params=final,
        diverged=diverged,
    )


def local_train_scaffold(
    w_t: np.ndarray,
    server_control: np.ndarray,
    c_i: np.ndarray,
    view: PartyView,
    cfg: FedRunConfig,
    round_idx: int,
    objective,
) -> tuple[LocalUpdate, np.ndarray]:
    """Control-variate-corrected local training.

    Every minibatch gradient is shifted by (c - c_i) before the momentum
    step. The refreshed client control c* is either the full local-data
    gradient at the incoming global model (option "i") or the cheap reuse
    c_i - c + (w_t - w_final) / (tau * lr) (option "ii"). Returns the update
    (carrying delta_control = c* - c_i) and the new c_i, both read-only. If
    c* or c* - c_i is non-finite, the party is flagged diverged, keeps its
    c_i and reports a zero delta_control.
    """
    if c_i is None or server_control is None:
        raise ProtocolError("scaffold training requires both control variates")
    if c_i.shape != w_t.shape or server_control.shape != w_t.shape:
        raise ProtocolError("control variate shapes do not match the model")
    with _flagged_numerics():
        # Round-constant correction; computing the difference once keeps the
        # zero-control case exactly equal to plain SGD.
        correction = server_control - c_i
        final, tau, mean_loss, diverged = _local_loop(
            w_t, view, cfg, round_idx, objective, correction=correction
        )
        if cfg.scaffold_c_option == "i":
            refreshed = objective.full_grad(w_t, view.features, view.labels)
        else:
            step_scale = 1.0 / (tau * cfg.local_lr)
            refreshed = c_i - server_control + step_scale * (w_t - final)
        delta_control = refreshed - c_i
    if np.isfinite(refreshed).all() and np.isfinite(delta_control).all():
        new_control = _read_only(refreshed)
    else:
        diverged = True
        new_control = c_i
        delta_control = np.zeros_like(c_i)
    update = LocalUpdate(
        party_id=view.party_id,
        tau=tau,
        n_samples=view.n_samples,
        train_loss=mean_loss,
        final_params=final,
        delta_control=_read_only(delta_control),
        diverged=diverged,
    )
    return update, new_control


def _sorted_updates(updates) -> list[LocalUpdate]:
    if not updates:
        raise ProtocolError("no local updates to aggregate")
    return sorted(updates, key=lambda u: u.party_id)


def aggregate_weighted(w_t: np.ndarray, updates, server_lr: float) -> np.ndarray:
    """w' = w - server_lr * sum_i (n_i / n) * delta_i, ascending party order.

    Evaluated with compensated arithmetic so that zero deltas leave w intact
    and a single unit-weight party hands back exactly its final model.
    Returns a new read-only array, which may be non-finite.
    """
    ordered = _sorted_updates(updates)
    total = sum(u.n_samples for u in ordered)
    coeffs = [u.n_samples / total for u in ordered]
    finals = [u.final_params for u in ordered]
    return _read_only(combine_updates(w_t, coeffs, finals, server_lr))


def aggregate_fednova(w_t: np.ndarray, updates, server_lr: float) -> np.ndarray:
    """Normalized averaging: local deltas are rescaled by step counts.

    Party i's effective coefficient is

        (sum_j n_j * tau_j) * n_i / (n^2 * tau_i)

    formed from exact integer products with a single rounding, so when every
    tau is equal it is bitwise the plain weighted coefficient n_i / n and the
    whole aggregate matches aggregate_weighted bit for bit.
    """
    ordered = _sorted_updates(updates)
    if any(u.tau < 1 for u in ordered):
        raise ProtocolError("fednova requires every local step count >= 1")
    total = sum(u.n_samples for u in ordered)
    step_mass = sum(u.n_samples * u.tau for u in ordered)
    coeffs = [step_mass * u.n_samples / (total * total * u.tau) for u in ordered]
    finals = [u.final_params for u in ordered]
    return _read_only(combine_updates(w_t, coeffs, finals, server_lr))


def aggregate_scaffold(
    state: GlobalState, updates, n_parties: int, server_lr: float
) -> GlobalState:
    """Weighted parameter aggregate plus c' = c + (1/N) * sum of delta_c.

    The control sum runs over the sampled parties but is divided by the
    total party count. Both new arrays are read-only and may be non-finite.
    """
    ordered = _sorted_updates(updates)
    if state.control is None:
        raise ProtocolError("scaffold aggregation requires a server control variate")
    if any(u.delta_control is None for u in ordered):
        raise ProtocolError("scaffold aggregation requires delta_control on every update")
    new_params = aggregate_weighted(state.params, ordered, server_lr)
    control_sum = np.zeros_like(state.control)
    for update in ordered:
        control_sum += update.delta_control
    new_control = _read_only(state.control + control_sum / n_parties)
    return GlobalState(new_params, new_control)


def round_bytes(n_selected: int, n_coords: int, algorithm: str) -> int:
    """Per-round traffic: model down + update up, doubled for scaffold."""
    per_party = 2 * BYTES_PER_COORD * n_coords
    if algorithm == "scaffold":
        per_party *= 2
    return n_selected * per_party


def run_round(
    state: GlobalState,
    views: list[PartyView],
    cfg: FedRunConfig,
    round_idx: int,
    objective,
) -> tuple[GlobalState, list[LocalUpdate], int]:
    """One full round: sample, train the sampled parties, aggregate.

    Parties train one after another in ascending id; each draws from its own
    (seed, round, party) stream, so its update does not depend on that order.
    Returns a new state and writes to none of its arguments: a sampled scaffold
    party's new control replaces its entry in the new state's client_controls.
    If the new model or the new server control has a non-finite entry, the
    round returns the given state marked diverged; its traffic still counts.
    """
    selected = sample_parties(
        cfg.n_parties, cfg.sample_fraction, round_idx, cfg.master_seed
    )
    n_bytes = round_bytes(len(selected), len(state.params), cfg.algorithm)
    updates, client_controls = [], list(state.client_controls or [None] * cfg.n_parties)
    for party_id in selected:
        if cfg.algorithm == "scaffold":
            update, client_controls[party_id] = local_train_scaffold(
                state.params, state.control, client_controls[party_id],
                views[party_id], cfg, round_idx, objective,
            )
        else:
            update = local_train_sgd(
                state.params, views[party_id], cfg, round_idx, objective
            )
        updates.append(update)
    with _flagged_numerics():
        if cfg.algorithm == "scaffold":
            server = aggregate_scaffold(state, updates, cfg.n_parties, cfg.server_lr)
            new_state = GlobalState(server.params, server.control, tuple(client_controls))
        else:
            combine = aggregate_fednova if cfg.algorithm == "fednova" else aggregate_weighted
            new_state = GlobalState(combine(state.params, updates, cfg.server_lr))
    if not (
        np.isfinite(new_state.params).all()
        and (new_state.control is None or np.isfinite(new_state.control).all())
    ):
        return replace(state, diverged=True), updates, n_bytes
    return new_state, updates, n_bytes


def _weighted_mean_loss(updates) -> float:
    weights = np.array([u.n_samples for u in updates], dtype=np.float64)
    losses = np.array([u.train_loss for u in updates])
    return float((weights * losses).sum() / weights.sum())


def partition_seed(run_seed: int) -> int:
    """Seed of the partition a run with this master seed trains on."""
    return rng.derive_seed(run_seed, rng.TAG_PARTITION)


def run_experiment(
    ds_train: LabeledDataset,
    ds_test: LabeledDataset,
    partition_spec: PartitionSpec,
    arch: MlpArch,
    cfg: FedRunConfig,
    objective=None,
) -> list[RoundRecord]:
    """Partition, initialize, run T rounds, evaluate after every round.

    Returns T + 1 records; record 0 is the untrained model (no traffic, no
    training loss). A party whose training goes non-finite contributes its
    last finite model and flags the round, and so does a non-finite server
    aggregate, which keeps the previous model; the run continues either way.
    """
    # Local training validates nothing per step, and evaluation does not bound
    # labels by the model's outputs, so both sets' widths and labels are
    # checked against arch here, once, before partitioning.
    for name, ds in (("training", ds_train), ("test", ds_test)):
        if ds.n_features != arch.in_dim:
            raise ShapeError(
                f"{name} features have width {ds.n_features}, "
                f"architecture input is {arch.in_dim}"
            )
        try:
            check_labels(ds.labels, arch.out_dim)
        except DataError as exc:
            raise DataError(f"{name} set: {exc}") from None
    if objective is None:
        objective = MlpObjective(arch)
    _, views = build_views(
        ds_train, partition_spec, cfg.n_parties, partition_seed(cfg.master_seed)
    )
    params = objective.init_params(rng.derive_seed(cfg.master_seed, rng.TAG_INIT))
    # Controls are read-only, so one zero array can start all of them.
    control = _read_only(np.zeros_like(params)) if cfg.algorithm == "scaffold" else None
    client_controls = None if control is None else (control,) * cfg.n_parties
    state = GlobalState(params, control, client_controls)

    records = [
        RoundRecord(0, objective.accuracy(state.params, ds_test), None, 0, 0, False)
    ]
    for round_idx in range(cfg.rounds):
        started = time.perf_counter()
        state, updates, n_bytes = run_round(state, views, cfg, round_idx, objective)
        # Diverging parties can leave a huge but finite model whose
        # logits overflow; argmax still yields an accuracy.
        with _flagged_numerics():
            accuracy = objective.accuracy(state.params, ds_test)
            mean_train_loss = _weighted_mean_loss(updates)
        diverged = state.diverged or any(u.diverged for u in updates)
        # Release this round's party models before the next round trains its
        # own, so only one round of them is alive at a time.
        del updates
        wall_ms = int((time.perf_counter() - started) * 1000)
        records.append(
            RoundRecord(
                round=round_idx + 1,
                test_accuracy=accuracy,
                mean_train_loss=mean_train_loss,
                bytes=n_bytes,
                wall_ms=wall_ms,
                diverged=diverged,
            )
        )
    return records
