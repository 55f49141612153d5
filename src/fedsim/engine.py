"""Federated round loop: party sampling, local training, aggregation.

Algorithms share one local SGD loop. fedavg trains on the plain loss,
fedprox adds a proximal pull toward the round's global model, scaffold
corrects each gradient with server/client control variates, and fednova
only changes the server-side combination (local-step-count normalization).

Determinism: every random choice is drawn from a stream addressed by
(master_seed, purpose, round, party), so local trainings may run on any
thread schedule and still produce bit-identical results. Aggregation always
sums in ascending party id order.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng
from .compensated import combine_updates
from .datasets import LabeledDataset
from .errors import ConfigError, NumericError, ProtocolError, ShapeError
from .nn import (
    MlpArch,
    ParamVector,
    _loss_grad,
    check_labels,
    init_mlp,
    layer_slices,
    momentum_update,
    predict_accuracy,
    zeros_like,
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
    prox_mu: float = 0.0
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
        if self.prox_mu < 0:
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


@dataclass(frozen=True)
class GlobalState:
    """Server state: round counter, global model, control variate (scaffold).

    diverged marks a round whose aggregate went non-finite; such a round
    keeps the previous model and controls.
    """

    round: int
    params: ParamVector
    control: ParamVector | None = None
    diverged: bool = False


@dataclass(frozen=True)
class LocalUpdate:
    """What a party reports back after local training: its final model,
    local step count and sample count; scaffold adds its control change."""

    party_id: int
    tau: int
    n_samples: int
    train_loss: float
    final_params: ParamVector
    delta_control: ParamVector | None = None
    diverged: bool = False


@dataclass
class ClientState:
    """Per-party persistent state; control is scaffold's c_i, zero at start."""

    party_id: int
    view: PartyView
    control: ParamVector | None = None


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
    init_params returns a ParamVector and accuracy takes one; loss_grad and
    full_grad work on raw float64 arrays (flat parameters, feature rows,
    label ids) and return (loss, gradient array) and a gradient array. They
    run once per local step, so they validate nothing: run_experiment checks
    the training data against the architecture once, and the local loop
    checks the loss and the new parameters for finiteness.
    """

    def __init__(self, arch: MlpArch):
        self.arch = arch
        self.layers = layer_slices(arch)

    def init_params(self, seed: int) -> ParamVector:
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


def _epoch_batches(generator, n_samples: int, batch_size: int):
    perm = generator.permutation(n_samples)
    for start in range(0, n_samples, batch_size):
        yield perm[start : start + batch_size]


def _flagged_numerics():
    """Silence numpy's overflow and invalid-value warnings.

    The blocks run under it already detect non-finite values and flag the
    party or round as diverged; numpy's warnings would only repeat that,
    pointing at library lines and naming no cell, round or party.
    """
    return np.errstate(over="ignore", invalid="ignore")


def _local_loop(w_start, view, cfg, round_idx, objective, prox_mu=0.0, correction=None):
    """Shared minibatch loop on raw float64 arrays.

    w_start is the round's global model as a flat array; it is never written
    to, and neither are the view's arrays nor the gradients the objective
    returns. correction, when given, is added to every raw gradient before
    the momentum step (scaffold's c - c_i). Returns (final array, tau, mean
    loss, diverged); a step whose loss or new parameters are non-finite, or
    whose objective raises NumericError, is dropped and the last finite
    model is returned with diverged set. A non-finite gradient always
    reaches the new parameters (lr > 0, finite momentum), so checking those
    two catches every non-finite step.

    The loop owns its model-sized buffers, allocated per call so concurrent
    calls share nothing: the velocity, updated in place; a spare parameter
    buffer that each step writes and that is swapped in only once the step
    is found finite; the finiteness mask; and scaffold's corrected gradient.
    """
    generator = rng.stream(cfg.master_seed, rng.TAG_LOCAL, round_idx, view.party_id)
    loss_grad = objective.loss_grad
    features, labels = view.features, view.labels
    lr, momentum = cfg.local_lr, cfg.momentum
    params = w_start
    spare = np.empty_like(w_start)
    velocity = np.zeros_like(w_start)
    finite = np.empty(w_start.shape, dtype=bool)
    corrected = np.empty_like(w_start) if correction is not None else None
    anchor = w_start if prox_mu > 0 else None
    losses = []
    diverged = False
    with _flagged_numerics():
        for _ in range(cfg.local_epochs):
            for batch_idx in _epoch_batches(generator, view.n_samples, cfg.batch_size):
                try:
                    loss, grad = loss_grad(
                        params, features[batch_idx], labels[batch_idx], prox_mu, anchor
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
                # w_start is never written, so the first swap takes a fresh
                # buffer in its place; later swaps recycle the old parameters.
                params, spare = spare, (
                    np.empty_like(w_start) if params is w_start else params
                )
                losses.append(loss)
            if diverged:
                break
    mean_loss = float(np.mean(losses)) if losses else float("nan")
    return params, max(len(losses), 1), mean_loss, diverged


def local_train_sgd(
    w_t: ParamVector,
    view: PartyView,
    cfg: FedRunConfig,
    prox_mu: float,
    round_idx: int,
    objective,
) -> LocalUpdate:
    """Local epochs of minibatch SGD with momentum; velocity starts at zero.

    prox_mu > 0 adds the proximal pull toward this round's global model
    (the anchor stays w_t for the whole round); prox_mu == 0 is bit-identical
    to plain training.
    """
    final, tau, mean_loss, diverged = _local_loop(
        w_t.values, view, cfg, round_idx, objective, prox_mu=prox_mu
    )
    return LocalUpdate(
        party_id=view.party_id,
        tau=tau,
        n_samples=view.n_samples,
        train_loss=mean_loss,
        final_params=w_t.with_values(final),
        diverged=diverged,
    )


def local_train_scaffold(
    w_t: ParamVector,
    server_control: ParamVector,
    client: ClientState,
    cfg: FedRunConfig,
    round_idx: int,
    objective,
) -> tuple[LocalUpdate, ParamVector]:
    """Control-variate-corrected local training.

    Every minibatch gradient is shifted by (c - c_i) before the momentum
    step. The refreshed client control c* is either the full local-data
    gradient at the incoming global model (option "i") or the cheap reuse
    c_i - c + (w_t - w_final) / (tau * lr) (option "ii"). Returns the update
    (carrying delta_control = c* - c_i) and the new c_i. If c* or c* - c_i
    is non-finite, the party is flagged diverged, keeps its c_i and reports
    a zero delta_control.
    """
    c_i = client.control
    if c_i is None or server_control is None:
        raise ProtocolError("scaffold training requires both control variates")
    if c_i.shapes != w_t.shapes or server_control.shapes != w_t.shapes:
        raise ProtocolError("control variate shapes do not match the model")
    view = client.view
    with _flagged_numerics():
        # Round-constant correction; computing the difference once keeps the
        # zero-control case exactly equal to plain SGD.
        correction = server_control.values - c_i.values
        final, tau, mean_loss, diverged = _local_loop(
            w_t.values, view, cfg, round_idx, objective, correction=correction
        )
        if cfg.scaffold_c_option == "i":
            refreshed = objective.full_grad(w_t.values, view.features, view.labels)
        else:
            step_scale = 1.0 / (tau * cfg.local_lr)
            refreshed = (
                c_i.values - server_control.values + step_scale * (w_t.values - final)
            )
        delta_control = refreshed - c_i.values
    if np.isfinite(refreshed).all() and np.isfinite(delta_control).all():
        new_control = w_t.with_values(refreshed)
        delta_control = w_t.with_values(delta_control)
    else:
        diverged = True
        new_control = c_i
        delta_control = zeros_like(c_i)
    update = LocalUpdate(
        party_id=view.party_id,
        tau=tau,
        n_samples=view.n_samples,
        train_loss=mean_loss,
        final_params=w_t.with_values(final),
        delta_control=delta_control,
        diverged=diverged,
    )
    return update, new_control


def _sorted_updates(updates) -> list[LocalUpdate]:
    if not updates:
        raise ProtocolError("no local updates to aggregate")
    return sorted(updates, key=lambda u: u.party_id)


def aggregate_weighted(
    w_t: ParamVector, updates, server_lr: float
) -> ParamVector:
    """w' = w - server_lr * sum_i (n_i / n) * delta_i, ascending party order.

    Evaluated with compensated arithmetic so that zero deltas leave w intact
    and a single unit-weight party hands back exactly its final model.
    """
    ordered = _sorted_updates(updates)
    total = sum(u.n_samples for u in ordered)
    coeffs = [u.n_samples / total for u in ordered]
    finals = [u.final_params.values for u in ordered]
    return ParamVector(
        combine_updates(w_t.values, coeffs, finals, server_lr), w_t.shapes
    )


def aggregate_fednova(
    w_t: ParamVector, updates, server_lr: float
) -> ParamVector:
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
    finals = [u.final_params.values for u in ordered]
    return ParamVector(
        combine_updates(w_t.values, coeffs, finals, server_lr), w_t.shapes
    )


def aggregate_scaffold(
    state: GlobalState, updates, n_parties: int, server_lr: float
) -> GlobalState:
    """Weighted parameter aggregate plus c' = c + (1/N) * sum of delta_c.

    The control sum runs over the sampled parties but is divided by the
    total party count.
    """
    ordered = _sorted_updates(updates)
    if state.control is None:
        raise ProtocolError("scaffold aggregation requires a server control variate")
    if any(u.delta_control is None for u in ordered):
        raise ProtocolError("scaffold aggregation requires delta_control on every update")
    new_params = aggregate_weighted(state.params, ordered, server_lr)
    control_sum = np.zeros_like(state.control.values)
    for update in ordered:
        control_sum += update.delta_control.values
    new_control = ParamVector(
        state.control.values + control_sum / n_parties, state.control.shapes
    )
    return GlobalState(state.round + 1, new_params, new_control)


def round_bytes(n_selected: int, n_coords: int, algorithm: str) -> int:
    """Per-round traffic: model down + update up, doubled for scaffold."""
    per_party = 2 * BYTES_PER_COORD * n_coords
    if algorithm == "scaffold":
        per_party *= 2
    return n_selected * per_party


def run_round(
    state: GlobalState,
    clients: list[ClientState],
    cfg: FedRunConfig,
    round_idx: int,
    objective,
    executor: ThreadPoolExecutor | None = None,
) -> tuple[GlobalState, list[LocalUpdate], int]:
    """One full round: sample, train the sampled parties, aggregate.

    Local trainings are independent and may run on the given executor; the
    result is bit-identical either way because each party draws from its own
    (seed, round, party) stream and aggregation order is fixed. If the
    aggregate goes non-finite, the round keeps the global model, the server
    control and every client control, and returns a state marked diverged;
    its traffic still counts.
    """
    selected = sample_parties(
        cfg.n_parties, cfg.sample_fraction, round_idx, cfg.master_seed
    )

    if cfg.algorithm == "scaffold":
        def train(party_id):
            return local_train_scaffold(
                state.params, state.control, clients[party_id], cfg, round_idx, objective
            )
    else:
        prox_mu = cfg.prox_mu if cfg.algorithm == "fedprox" else 0.0

        def train(party_id):
            return local_train_sgd(
                state.params, clients[party_id].view, cfg, prox_mu, round_idx, objective
            )

    if executor is not None:
        results = list(executor.map(train, selected))
    else:
        results = [train(party_id) for party_id in selected]

    n_bytes = round_bytes(len(selected), len(state.params), cfg.algorithm)
    updates = [update for update, _ in results] if cfg.algorithm == "scaffold" else results
    try:
        with _flagged_numerics():
            if cfg.algorithm == "scaffold":
                new_state = aggregate_scaffold(
                    state, updates, cfg.n_parties, cfg.server_lr
                )
            elif cfg.algorithm == "fednova":
                new_state = GlobalState(
                    state.round + 1, aggregate_fednova(state.params, updates, cfg.server_lr)
                )
            else:
                new_state = GlobalState(
                    state.round + 1, aggregate_weighted(state.params, updates, cfg.server_lr)
                )
    except NumericError:
        kept = GlobalState(state.round + 1, state.params, state.control, diverged=True)
        return kept, updates, n_bytes
    if cfg.algorithm == "scaffold":
        # Client control swap happens after aggregation, on the caller's thread.
        for (_, new_control), party_id in zip(results, selected):
            clients[party_id].control = new_control
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
    n_threads: int = 1,
    objective=None,
) -> list[RoundRecord]:
    """Partition, initialize, run T rounds, evaluate after every round.

    Returns T + 1 records; record 0 is the untrained model (no traffic, no
    training loss). A party whose training goes non-finite contributes its
    last finite model and flags the round, and so does a non-finite server
    aggregate, which keeps the previous model; the run continues either way.
    """
    # Local training validates nothing per step; every party's rows come
    # from ds_train, so its width and labels are checked here, once.
    if ds_train.n_features != arch.in_dim:
        raise ShapeError(
            f"training features have width {ds_train.n_features}, "
            f"architecture input is {arch.in_dim}"
        )
    check_labels(ds_train.labels, arch.out_dim)
    if objective is None:
        objective = MlpObjective(arch)
    _, views = build_views(
        ds_train, partition_spec, cfg.n_parties, partition_seed(cfg.master_seed)
    )
    params = objective.init_params(rng.derive_seed(cfg.master_seed, rng.TAG_INIT))
    control = zeros_like(params) if cfg.algorithm == "scaffold" else None
    state = GlobalState(0, params, control)
    clients = [
        ClientState(view.party_id, view, zeros_like(params) if control is not None else None)
        for view in views
    ]

    records = [
        RoundRecord(0, objective.accuracy(state.params, ds_test), None, 0, 0, False)
    ]
    executor = ThreadPoolExecutor(max_workers=n_threads) if n_threads > 1 else None
    try:
        for round_idx in range(cfg.rounds):
            started = time.perf_counter()
            state, updates, n_bytes = run_round(
                state, clients, cfg, round_idx, objective, executor
            )
            # Diverging parties can leave a huge but finite model whose
            # logits overflow; argmax still yields an accuracy.
            with _flagged_numerics():
                accuracy = objective.accuracy(state.params, ds_test)
                mean_train_loss = _weighted_mean_loss(updates)
            wall_ms = int((time.perf_counter() - started) * 1000)
            records.append(
                RoundRecord(
                    round=round_idx + 1,
                    test_accuracy=accuracy,
                    mean_train_loss=mean_train_loss,
                    bytes=n_bytes,
                    wall_ms=wall_ms,
                    diverged=state.diverged or any(u.diverged for u in updates),
                )
            )
    finally:
        if executor is not None:
            executor.shutdown()
    return records
