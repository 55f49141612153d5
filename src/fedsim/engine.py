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

Lockstep training: one loop, _cohort_sgd, trains every party and hands
back its LocalUpdate (and, for scaffold, its refreshed c_i). A round's
sampled parties train in cohorts of 1 to P parties, runs of consecutive
ids in ascending order whose (P, n) float64 model stack fits in
COHORT_BYTES. Each party's minibatches come from one generator,
_batches, that draws each epoch's permutation from the party's stream; a
party leaves its cohort when the generator runs out or a step goes
non-finite. At each lockstep iteration every run of consecutive active
rows whose next batches have the same size forms a group: rows lo:hi of
the cohort's stacks, stepped in place by one loss_grad call and one
momentum update and never gathered into a copy (a lone row steps on its
1-d views). Each row computes exactly what the party would alone, so no
output depends on the cohorts. Only MlpObjective's own loss_grad stacks
models. For it the loop calls the kernel behind it, nn._loss_grad, with
a plan of an nn.Workspace (even for a cohort of one), so a step neither
re-slices the models nor allocates its buffers again. The loop's stacks,
that workspace and the plans live in one CohortBuffers that
run_experiment makes once per run, sized for the run's largest cohort;
each cohort overwrites the rows it uses before it reads them, so no
value depends on earlier cohorts. An objective whose loss_grad is
anything else (a duck-typed object, a subclass that overrides it, or a
wrapper set on the instance) trains every party in a cohort of one,
through local_train_sgd / local_train_scaffold, with one 1-d loss_grad
call per local step, so a tracer that overrides loss_grad sees every
step. A model too wide for two copies to fit in COHORT_BYTES trains in
cohorts of one as well.
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
    Workspace,
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
    gradient. This class's own loss_grad also takes a (P, n) stack of
    models with (P, m, in) features and (P, m) labels and returns (P,)
    losses and (P, n) gradients, which is what lets the local loop train a
    cohort of parties with one call per step. Override it and each party
    trains in a cohort of one, so the override only ever sees one model
    and is called once per local step. loss_grad runs once per step, so
    it validates nothing: run_experiment checks the training data against
    the architecture once, and the local loop checks the loss and the new
    parameters for finiteness.
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


# Bound at import, not looked up at call time: whether an objective stacks
# must not depend on what the module attribute MlpObjective is later
# replaced with.
_MLP_LOSS_GRAD = MlpObjective.loss_grad

# Largest (P, n) float64 model stack one cohort may hold, in bytes. A cohort
# keeps three such stacks (parameters, spare, velocity; scaffold adds its
# corrections), and its workspace two more (gradient, proximal difference)
# and (P, B, width) activations and deltas; a stack saves one step's numpy
# calls per party beyond the first and costs memory traffic that grows with
# its size. Measured before the workspace existed, as run_round time per
# party-step, lockstep against one party at a time (fedprox, B = 64, 2-core
# Xeon, BLAS at one thread): 3-32-16-8-2 x 4 (25 KiB) 1.8x faster,
# 32-32-16-8-10 x 10 (141 KiB) 1.8-2.05x, 60-60-10 x 4 (133 KiB) 1.16x; but
# 100-100-10 x 2 (174 KiB) 0.92-0.96x, 200-100-10 x 2 (330 KiB) 0.93-0.95x,
# 784-32-10 x 2 (398 KiB) 0.81-0.88x and 784-200-10 x 2 (2.4 MiB) 0.89x. The
# cap sits between the largest stack that won and the smallest that lost, so
# a 784-200-10 party always trains alone.
COHORT_BYTES = 160 * 1024


def _sample_size(n_parties: int, fraction: float) -> int:
    """How many parties sample_parties picks each round."""
    return max(1, min(int(round(fraction * n_parties)), n_parties))


def sample_parties(
    n_parties: int, fraction: float, round_idx: int, master_seed: int
) -> list[int]:
    """Uniform without-replacement sample of round(fraction * N) party ids, sorted."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    size = _sample_size(n_parties, fraction)
    if size == n_parties:
        return list(range(n_parties))
    generator = rng.stream(master_seed, rng.TAG_SAMPLING, round_idx)
    return sorted(int(p) for p in generator.choice(n_parties, size=size, replace=False))


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


def _batches(view, cfg, round_idx):
    """The party's minibatches for the round, as row ids into view.source:
    cfg.local_epochs epochs, each a permutation of its rows drawn from the
    party's (seed, round, party) stream when the epoch starts, cut into
    batches of cfg.batch_size (an epoch's last batch may be smaller)."""
    stream = rng.stream(cfg.master_seed, rng.TAG_LOCAL, round_idx, view.party_id)
    n_samples, batch_size = view.n_samples, cfg.batch_size
    for _ in range(cfg.local_epochs):
        order = view.rows[stream.permutation(n_samples)]
        for start in range(0, n_samples, batch_size):
            yield order[start : start + batch_size]


def _scaffold_refresh(update, w_t, server_control, c_i, view, cfg, objective):
    """The update with its control change, and the party's new c_i; see
    local_train_scaffold."""
    with _flagged_numerics():
        if cfg.scaffold_c_option == "i":
            refreshed = objective.full_grad(w_t, view.features, view.labels)
        else:
            step_scale = 1.0 / (update.tau * cfg.local_lr)
            refreshed = c_i - server_control + step_scale * (w_t - update.final_params)
        delta_control = refreshed - c_i
    if np.isfinite(refreshed).all() and np.isfinite(delta_control).all():
        return replace(update, delta_control=_read_only(delta_control)), _read_only(refreshed)
    zero = _read_only(np.zeros_like(c_i))
    return replace(update, delta_control=zero, diverged=True), c_i


class CohortBuffers:
    """The local trainer's state, reused by every cohort of one run.

    It holds (rows, n) parameter, spare and velocity stacks, scaffold's
    corrections and corrected gradients, the nn.Workspace of an objective
    that stacks, and steps: per (parity, lo, hi, batch size), a group's views
    of these stacks and its loss_grad plan, made the first time that group
    steps and kept for the run. A cohort of P <= rows parties uses the
    leading P rows and overwrites each value it reads before reading it (the
    parameters with w_t, the velocity with zeros, the corrections with
    c - c_i), so nothing carries over from one cohort to the next. Every
    cached view points into these arrays and no other, so it stays valid.
    """

    def __init__(self, objective, n_coords: int, rows: int, batch_size: int, scaffold: bool):
        shape = (rows, n_coords)
        self.params, self.spare, self.velocity = (np.empty(shape) for _ in range(3))
        self.corrections = np.empty(shape) if scaffold else None
        self.corrected = np.empty(shape) if scaffold else None
        self.layers = objective.layers if _stacks(objective) else None
        self.work = None if self.layers is None else Workspace(self.layers, rows, batch_size)
        self.batch_size = batch_size
        self.steps = {}

    def fits(self, objective, n_coords: int, rows: int, batch_size: int, scaffold: bool) -> bool:
        """Whether a cohort of rows parties with this shape may use them."""
        layers = objective.layers if _stacks(objective) else None
        return (
            layers == self.layers
            and rows <= len(self.params)
            and n_coords == self.params.shape[1]
            and batch_size <= self.batch_size
            and scaffold == (self.corrections is not None)
        )


def _cohort_sgd(w_t, views, cfg, round_idx, objective, server_control=None, c_is=None,
                *, buffers=None):
    """Local epochs of minibatch SGD with momentum for a cohort of parties.

    Row p of each (P, n) buffer is views[p]'s model; all views share one
    training matrix. Each iteration moves every active party to the next
    batch of its _batches generator; each run of consecutive active rows
    whose batches have the same size is a group, rows lo:hi of every
    buffer, never a gathered copy. A group of one calls loss_grad on its
    row's 1-d views, so an objective that cannot stack only ever sees one
    model; a larger group calls it on the (k, n) stack params[lo:hi].

    w_t is the round's global model; it is never written to, and neither
    are the views' arrays nor the gradients the objective returns. A cfg
    that trains with a mu adds the proximal pull toward w_t. Given c_is,
    the parties train as scaffold: c - c_is[p] is added to row p's raw
    gradients, into a buffer the loop owns, before the momentum step.

    Returns (LocalUpdate, new c_i or None) per party, in cohort order, each
    final model a read-only copy. A step whose loss or new parameters are
    non-finite, or whose objective raises NumericError, is dropped, and its
    party leaves with its last finite model and diverged set. A non-finite
    gradient always reaches the new parameters (lr > 0, finite momentum),
    so checking those two catches every non-finite step. A party with no
    rows takes no step and hands back w_t with tau 1.

    The loop's state lives in buffers, a CohortBuffers that run_experiment
    makes once per run, or a fresh one sized for this cohort when it is
    None: the parameters, the velocity (updated in place), a spare
    parameter stack that every step writes, and scaffold's corrected
    gradients. Only finite rows are kept, so the parameter and spare stacks
    swap whole. When the objective stacks, the loop calls nn._loss_grad,
    which is what MlpObjective.loss_grad runs, with a plan of the buffers'
    nn.Workspace: the views of rows lo:hi, per parameter stack and batch
    size, are made the first time that group steps and kept for the run.
    """
    n_rows, scaffold = len(views), c_is is not None
    if scaffold:
        for c_i in c_is:
            if c_i is None or server_control is None:
                raise ProtocolError("scaffold training requires both control variates")
            if c_i.shape != w_t.shape or server_control.shape != w_t.shape:
                raise ProtocolError("control variate shapes do not match the model")
    if buffers is None:
        buffers = CohortBuffers(objective, w_t.size, n_rows, cfg.batch_size, scaffold)
    elif not buffers.fits(objective, w_t.size, n_rows, cfg.batch_size, scaffold):
        raise ProtocolError("the cohort buffers were made for another objective or shape")
    params, spare, velocity = buffers.params, buffers.spare, buffers.velocity
    corrections, corrected, work = buffers.corrections, buffers.corrected, buffers.work
    params[:n_rows] = w_t
    velocity[:n_rows] = 0.0
    if scaffold:
        with _flagged_numerics():
            # Round-constant corrections; computing each difference once keeps
            # the zero-control case exactly equal to plain SGD. Row p is
            # exactly c - c_is[p].
            for row, c_i in enumerate(c_is):
                np.subtract(server_control, c_i, out=corrections[row])
    loss_grad = objective.loss_grad
    source, labels = views[0].source, views[0].source_labels
    lr, momentum = cfg.local_lr, cfg.momentum
    prox_mu = cfg.mu or 0.0
    anchor = w_t if prox_mu > 0 else None
    streams = [_batches(view, cfg, round_idx) for view in views]
    batches = [None] * n_rows
    losses = [[] for _ in views]
    results = [None] * n_rows
    # Per (parity, lo, hi, batch size): the views of rows lo:hi of the
    # buffers and their loss_grad plan. parity flips when params and spare
    # swap, and each cohort starts at 0 with params the buffers' own stack.
    steps = buffers.steps
    parity = 0

    def leave(row, diverged):
        view, row_losses = views[row], losses[row]
        update = LocalUpdate(
            party_id=view.party_id,
            tau=max(len(row_losses), 1),
            n_samples=view.n_samples,
            train_loss=float(np.mean(row_losses)) if row_losses else float("nan"),
            final_params=_read_only(params[row].copy()),
            diverged=diverged,
        )
        results[row] = (update, None) if c_is is None else _scaffold_refresh(
            update, w_t, server_control, c_is[row], view, cfg, objective)

    active = list(range(n_rows))
    with _flagged_numerics():
        while active:
            groups = []  # [lo, hi, m]: a run of rows whose batches hold m samples
            for row in active:
                batch = batches[row] = next(streams[row], None)
                if batch is None:
                    leave(row, False)
                elif groups and groups[-1][1] == row and groups[-1][2] == batch.shape[0]:
                    groups[-1][1] += 1
                else:
                    groups.append([row, row + 1, batch.shape[0]])
            kept = []
            for lo, hi, m in groups:
                single = hi - lo == 1
                step = steps.get((parity, lo, hi, m))
                if step is None:
                    rows = lo if single else slice(lo, hi)  # a lone row steps on 1-d views
                    w = params[rows]
                    step = steps[parity, lo, hi, m] = (
                        w, velocity[rows], spare[rows],
                        None if work is None else work.plan(w, m),
                        None if corrections is None else corrections[rows],
                        None if corrected is None else corrected[rows],
                    )
                w, v, out, plan, correction, corrected_rows = step
                picked = batches[lo] if single else np.concatenate(batches[lo:hi]).reshape(-1, m)
                try:
                    if plan is None:
                        loss, grad = loss_grad(w, source[picked], labels[picked], prox_mu, anchor)
                    else:
                        loss, grad = _loss_grad(objective.layers, w, source[picked],
                                                labels[picked], prox_mu, anchor, plan)
                except NumericError:
                    for row in range(lo, hi):
                        leave(row, True)
                    continue
                if correction is not None:
                    grad = np.add(grad, correction, out=corrected_rows)
                momentum_update(w, grad, v, lr, momentum, out)
                if single:
                    outcomes = ((lo, loss, math.isfinite(loss) and np.isfinite(out).all()),)
                else:
                    finite = np.isfinite(loss) & np.isfinite(out).all(axis=1)
                    outcomes = zip(range(lo, hi), loss.tolist(), finite.tolist())
                for row, row_loss, ok in outcomes:
                    if ok:
                        losses[row].append(row_loss)
                        kept.append(row)
                    else:
                        leave(row, True)
            params, spare = spare, params
            parity ^= 1
            active = kept
    return results


def local_train_sgd(
    w_t: np.ndarray,
    view: PartyView,
    cfg: FedRunConfig,
    round_idx: int,
    objective,
    *,
    buffers: CohortBuffers | None = None,
) -> LocalUpdate:
    """Local epochs of minibatch SGD with momentum; velocity starts at zero.

    A cfg.mu > 0 adds the proximal pull toward this round's global model
    (the anchor stays w_t for the whole round); a mu of 0 or None is
    bit-identical to plain training. buffers is the run's CohortBuffers, or
    None for fresh ones; see _cohort_sgd.
    """
    return _cohort_sgd(w_t, [view], cfg, round_idx, objective, buffers=buffers)[0][0]


def local_train_scaffold(
    w_t: np.ndarray,
    server_control: np.ndarray,
    c_i: np.ndarray,
    view: PartyView,
    cfg: FedRunConfig,
    round_idx: int,
    objective,
    *,
    buffers: CohortBuffers | None = None,
) -> tuple[LocalUpdate, np.ndarray]:
    """Control-variate-corrected local training.

    Every minibatch gradient is shifted by (c - c_i) before the momentum
    step. The refreshed client control c* is either the full local-data
    gradient at the incoming global model (option "i") or the cheap reuse
    c_i - c + (w_t - w_final) / (tau * lr) (option "ii"). Returns the update
    (carrying delta_control = c* - c_i) and the new c_i, both read-only. If
    c* or c* - c_i is non-finite, the party is flagged diverged, keeps its
    c_i and reports a zero delta_control. buffers is as in local_train_sgd.
    """
    return _cohort_sgd(
        w_t, [view], cfg, round_idx, objective, server_control, [c_i], buffers=buffers
    )[0]


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


def _stacks(objective) -> bool:
    """Whether objective's loss_grad is MlpObjective's own, the one case in
    which a stacked _loss_grad call provably equals the per-party calls."""
    method = getattr(objective, "loss_grad", None)
    return getattr(method, "__func__", None) is _MLP_LOSS_GRAD


def _cohort_cap(n_coords: int, stacks: bool) -> int:
    """The most parties one cohort may hold; see _cohorts."""
    return max(1, COHORT_BYTES // (BYTES_PER_COORD * n_coords)) if stacks else 1


def _cohorts(party_ids, views, n_coords: int, stacks: bool) -> list[list[int]]:
    """The ascending party ids split into cohorts: consecutive runs whose
    (P, n_coords) float64 stack fits in COHORT_BYTES and whose views share
    one training matrix. A party too large to share, and every party when
    the objective does not stack, forms a cohort of one."""
    size = _cohort_cap(n_coords, stacks)
    cohorts = []
    for party_id in party_ids:
        view = views[party_id]
        if cohorts and len(cohorts[-1]) < size:
            first = views[cohorts[-1][0]]
            if view.source is first.source and view.source_labels is first.source_labels:
                cohorts[-1].append(party_id)
                continue
        cohorts.append([party_id])
    return cohorts


def _train_cohort(state, views, cfg, round_idx, objective, controls, *, buffers):
    """Train one cohort; returns, in cohort order, each party's update and
    its new c_i (None unless scaffold). A cohort of one goes through the
    module attributes local_train_sgd or local_train_scaffold, so a wrapper
    set on them sees every party that trains alone. buffers is as in
    _cohort_sgd."""
    w_t, c = state.params, state.control
    scaffold = cfg.algorithm == "scaffold"
    if len(views) == 1:
        view = views[0]
        if scaffold:
            return [local_train_scaffold(
                w_t, c, controls[view.party_id], view, cfg, round_idx, objective,
                buffers=buffers,
            )]
        return [(local_train_sgd(w_t, view, cfg, round_idx, objective, buffers=buffers), None)]
    c_is = [controls[view.party_id] for view in views] if scaffold else None
    return _cohort_sgd(w_t, views, cfg, round_idx, objective, c, c_is, buffers=buffers)


def run_round(
    state: GlobalState,
    views: list[PartyView],
    cfg: FedRunConfig,
    round_idx: int,
    objective,
    *,
    buffers: CohortBuffers | None = None,
) -> tuple[GlobalState, list[LocalUpdate], int]:
    """One full round: sample, train the sampled parties, aggregate.

    The sampled parties train in cohorts (see _cohorts and _train_cohort),
    in ascending id. Each party draws from its own
    (seed, round, party) stream, so its update depends neither on that
    order nor on its cohort. Returns a new state and writes to none of its
    arguments: a sampled scaffold party's new control replaces its entry in
    the new state's client_controls. If the new model or the new server
    control has a non-finite entry, the round returns the given state marked
    diverged; its traffic still counts. Every cohort trains on buffers,
    the run's CohortBuffers, or when it is None on fresh ones of its own.
    """
    selected = sample_parties(
        cfg.n_parties, cfg.sample_fraction, round_idx, cfg.master_seed
    )
    n_bytes = round_bytes(len(selected), len(state.params), cfg.algorithm)
    scaffold = cfg.algorithm == "scaffold"
    updates, client_controls = [], list(state.client_controls or [None] * cfg.n_parties)
    for cohort in _cohorts(selected, views, len(state.params), _stacks(objective)):
        for update, new_control in _train_cohort(
            state, [views[p] for p in cohort], cfg, round_idx, objective, client_controls,
            buffers=buffers,
        ):
            updates.append(update)
            if scaffold:
                client_controls[update.party_id] = new_control
    with _flagged_numerics():
        if scaffold:
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
    # checked against arch here, once, before partitioning. Every round
    # scores the model on the test set, so it may not be empty.
    if ds_test.n == 0:
        raise DataError("test set is empty: the model is scored on it every round")
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
    # The local trainer's state, sized for the run's largest cohort; it dies
    # with the run, so a sweep holds one run's buffers at a time.
    rows = min(_cohort_cap(len(params), _stacks(objective)),
               _sample_size(cfg.n_parties, cfg.sample_fraction))
    buffers = CohortBuffers(objective, len(params), rows, cfg.batch_size, control is not None)

    records = [
        RoundRecord(0, objective.accuracy(state.params, ds_test), None, 0, 0, False)
    ]
    for round_idx in range(cfg.rounds):
        started = time.perf_counter()
        state, updates, n_bytes = run_round(
            state, views, cfg, round_idx, objective, buffers=buffers
        )
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
