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

Lockstep training: one loop, LocalTrainer.train, trains every row, a
party trained for one cell, and hands back its LocalUpdate (and, for
scaffold, its refreshed c_i). The cells of one trial differ at most in
algorithm, prox_mu and local_epochs (lockstep_key), so they share the
partition, the initial model, each round's party sample and each party's
batches; run_group trains them together. It builds the views and the
initial model once, samples the parties once per round, trains every
(party, cell) row in cohorts, and aggregates, evaluates and records each
cell on its own. All rows of a cohort train on one training pair, the
run's (their views share one source and one source_labels), with the
step settings of the first row (batch size, learning rate, momentum and
seed); LocalTrainer.train checks both once per cohort and refuses a
cohort off either with ProtocolError. One cell trains in cohorts of 1 to
P parties: the sampled ids, ascending, cut into chunks whose (P, n)
float64 model stack fits in COHORT_BYTES. Several cells train either by
party, a party's rows (one per cell, up to the same cap) in one cohort,
or by cell, each cell in the cohorts it would have alone, whichever
makes fewer kernel calls that round (_row_cohorts). Each row starts from
its own cell's w_t and pulls toward a copy of it with its own mu, adds
its own scaffold correction, and takes its own number of epochs.
Consecutive rows on one party share one batch generator, _batches, which
draws each epoch's permutation from the party's stream; a row leaves its
cohort when its own epochs are done or a step goes non-finite. At each
lockstep iteration every run of consecutive active rows whose next
batches have the same size forms a group: rows lo:hi of the cohort's
stacks, stepped in place by one loss_grad call and one momentum update
and never gathered into a copy (a lone row steps on its 1-d views, and a
group on one party's batch gathers it once for all its rows). Each row
computes exactly what the party would alone in its cell, so no output
depends on the cohorts or on the other cells. Only MlpObjective's own
loss_grad stacks models. For it the loop calls the kernel behind it,
nn._loss_grad, with a plan of an nn.Workspace (even for a cohort of
one), so a step neither re-slices the models nor allocates its buffers
again. run_group makes one LocalTrainer per run, and no caller sizes it:
before each cohort it grows its stacks and workspace to the cohort's
rows, model length and the largest batch a row can draw (at most each
party's size, so a batch size above every party trains full-batch). It
holds the objective, the loop's stacks, that workspace and the plans,
which are the run's only cache of them. Each cohort overwrites the rows
it uses before it reads them, so no value depends on earlier cohorts. A
call given no trainer makes one of its own, and a trainer made for
another objective is refused. An objective whose loss_grad is anything else (a duck-typed
object, a subclass that overrides it, or a wrapper set on the instance)
trains every row in a cohort of one, through local_train_sgd /
local_train_scaffold, with one 1-d loss_grad call per local step, so a
tracer that overrides loss_grad sees every step. A model too wide for
two copies to fit in COHORT_BYTES trains in cohorts of one as well. For
either, trains_in_lockstep is False, and the harness runs each (cell,
trial) run alone through run_experiment and run_round.

Shards: the rows of one round train independently from the round's
global models, so run_group, given shards > 1, trains each round's
cohorts in up to that many processes. It forks the shard workers once
(fedsim.workers.serving, each serving _serve_run), after the views, the
initial model and the trainer exist, so they share them copy-on-write.
_run_rounds describes each row once, as a (party, cell, w_t, controls)
tuple in its cohort, and the same tuples feed both paths: _train_cohorts
makes each row's _Row from its tuple, and each round _train_shards cuts
the cohorts into contiguous runs balanced by samples x epochs, which the
serving block's dispatch hands out as (round, rows, first row's
position), the first run to this process and each other to a worker.
Whoever trains a row writes the models it hands back into shared memory
at the row's position in the round. Aggregation stays here, over the updates in cohort order,
so no output bit depends on the shard count. Only an objective that
trains_in_workers shards (fedsim's own stacking MlpObjective, where
fedsim.workers.can_fork holds), and only where a round can have two
cohorts; library callers get one process unless they ask for more.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import math
import mmap
import time
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import rng, workers
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
    cohort of rows with one call per step. Override it and each party
    trains in a cohort of one, so the override only ever sees one model
    and is called once per local step. loss_grad runs once per step, so
    it validates nothing: check_datasets, which run_group and the CLI's
    run call, checks both data sets against the architecture once, and
    the local loop checks the loss and the new parameters for finiteness.
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


def _batches(view, cfg, round_idx, epochs):
    """The party's minibatches for the round, as row ids into view.source:
    epochs epochs, each a permutation of its rows drawn from the party's
    (seed, round, party) stream when the epoch starts, cut into batches of
    cfg.batch_size (an epoch's last batch may be smaller). A run with fewer
    epochs sees a leading part of the same batches."""
    stream = rng.stream(cfg.master_seed, rng.TAG_LOCAL, round_idx, view.party_id)
    n_samples, batch_size = view.n_samples, cfg.batch_size
    for _ in range(epochs):
        order = view.rows[stream.permutation(n_samples)]
        for start in range(0, n_samples, batch_size):
            yield order[start : start + batch_size]


class _Row(NamedTuple):
    """One party trained for one cell: the party's view, the cell's config
    and global model w_t, and for scaffold the pair (c, c_i)."""

    view: PartyView
    cfg: FedRunConfig
    w_t: np.ndarray
    controls: tuple | None = None


def _scaffold_refresh(update, row, objective):
    """The update with its control change, and the party's new c_i; see
    local_train_scaffold."""
    w_t, cfg, (server_control, c_i) = row.w_t, row.cfg, row.controls
    with _flagged_numerics():
        if cfg.scaffold_c_option == "i":
            refreshed = objective.full_grad(w_t, row.view.features, row.view.labels)
        else:
            step_scale = 1.0 / (update.tau * cfg.local_lr)
            refreshed = c_i - server_control + step_scale * (w_t - update.final_params)
        delta_control = refreshed - c_i
    if np.isfinite(refreshed).all() and np.isfinite(delta_control).all():
        return replace(update, delta_control=_read_only(delta_control)), _read_only(refreshed)
    zero = _read_only(np.zeros_like(c_i))
    return replace(update, delta_control=zero, diverged=True), c_i


class LocalTrainer:
    """The local trainer of one run: local epochs of minibatch SGD with
    momentum for each cohort of rows the run trains (see train).

    LocalTrainer(objective) holds no rows until it trains: train fits it
    to each cohort (_fit), so it holds the most rows, the model length and
    the largest batch its cohorts have needed, and no caller sizes it.
    run_group makes one per run. It holds its objective, (rows, n)
    parameter, spare and velocity stacks, the proximal anchors (made the
    first time a cohort has mu rows), scaffold's corrections (made the
    first time a cohort has scaffold rows), the nn.Workspace of an
    objective that stacks, and steps: per cohort layout (each row's mu and
    the scaffold rows) and per (parity, lo, hi, batch size), a group's
    views of these stacks, its proximal and correction arguments and its
    loss_grad plan, made the first time that group steps and kept until
    the trainer grows, which makes new stacks and drops steps, anchors and
    corrections. A cohort of P rows uses the leading P rows and
    overwrites each value it reads before reading it (the parameters and
    anchors with each row's w_t, the velocity with zeros, the corrections
    with c - c_i), so nothing carries over from one cohort to the next.
    Every cached view points into these arrays and no other, so it stays
    valid.
    """

    def __init__(self, objective):
        self.objective = objective
        self.params = self.spare = self.velocity = np.empty((0, 0))
        self.anchors = self.corrections = self.work = None
        self.stacks = _stacks(objective)
        self.batch = 0
        self.steps = {}

    def _fit(self, rows):
        """Grow the stacks and the workspace, where rows need more rows,
        another model length or a larger batch than they hold; the batch a
        row can draw is min(batch size, its samples), at least 1. New
        buffers drop steps, anchors and corrections, whose views point
        into the old ones."""
        size = (max(len(rows), len(self.params)), rows[0].w_t.size)
        batch = max(self.batch, 1, *(min(rows[0].cfg.batch_size, row.view.n_samples)
                                     for row in rows))
        if (size, batch) != (self.params.shape, self.batch):
            self.params, self.spare, self.velocity = (np.empty(size) for _ in range(3))
            self.anchors = self.corrections = None
            self.batch, self.steps = batch, {}
            self.work = Workspace(self.objective.layers, size[0], batch) if self.stacks else None

    def train(self, rows, round_idx):
        """Train a cohort of rows for the round; returns (LocalUpdate, new
        c_i or None) per row, in row order, each final model a read-only
        copy.

        Each row (a _Row) is one party trained for one cell: row p of each
        (P, n) stack starts at that cell's w_t, with zero velocity. Every
        row trains on rows[0]'s training pair and step settings, so a
        cohort is refused with ProtocolError, before any step, if a view
        does not share rows[0].view's source and source_labels or a cfg
        differs from rows[0].cfg in batch size, learning rate, momentum or
        master seed. An empty cohort is refused the same way, and so is a
        w_t that is not 1-d of rows[0].w_t's length, as the rows stack.
        Then the trainer fits itself to the cohort (_fit). Rows may differ in
        algorithm, mu, epochs, w_t and controls. Consecutive rows on one party
        share one _batches generator, drawn once per iteration for all of them;
        each row takes its cfg.local_epochs epochs of it and then leaves, so
        rows with fewer epochs leave first. Each iteration, each run of
        consecutive active rows whose batches have the same size is a group,
        rows lo:hi of every stack, never a gathered copy. A group of one calls
        loss_grad on its row's 1-d views; a larger group, only when the
        objective stacks, calls it on the (k, n) stack params[lo:hi], with the
        batch gathered once when all its rows are one party's.

        w_t is never written to, and neither are the views' arrays nor the
        gradients an objective returns. A row whose cfg.mu is set adds the
        proximal pull, with its own mu, toward its own row of the anchors,
        a copy of its w_t; a scaffold row (controls given) adds its own
        c - c_i to its raw gradients before the momentum step. Rows of each
        kind must be consecutive, so that the proximal term and the
        corrections apply to one run of a group's rows: a row without a mu
        never enters the proximal branch, and no other row has a zero
        correction added, either of which could turn a -0.0 into +0.0 or
        0 * inf into nan.

        A step whose loss or new parameters are non-finite, or whose
        objective raises NumericError, is dropped, and its row leaves with
        its last finite model and diverged set. A non-finite gradient
        always reaches the new parameters (lr > 0, finite momentum), so
        checking those two catches every non-finite step. A party with no
        samples takes no step and hands back w_t with tau 1. Only finite
        rows are kept, so the parameter and spare stacks swap whole. When
        the objective stacks, the loop calls nn._loss_grad, which is what
        MlpObjective.loss_grad runs, with a plan of the trainer's
        nn.Workspace and adds the corrections into the gradient it returns;
        an objective that does not stack gets one row at a time, and its
        gradient is corrected out of place (the same ufunc, so the same
        bits).
        """
        if not rows:
            raise ProtocolError("a cohort needs at least one row")
        n_rows, first, objective = len(rows), rows[0].cfg, self.objective
        source, labels = rows[0].view.source, rows[0].view.source_labels
        settings = (first.batch_size, first.local_lr, first.momentum, first.master_seed)
        for row in rows:
            if row.w_t.ndim != 1 or row.w_t.shape != rows[0].w_t.shape:
                raise ProtocolError(f"cohort models must be 1-d of one length, got {row.w_t.shape}")
            if row.view.source is not source or row.view.source_labels is not labels:
                raise ProtocolError("a cohort's views must share one training pair")
            cfg = row.cfg
            if (cfg.batch_size, cfg.local_lr, cfg.momentum, cfg.master_seed) != settings:
                raise ProtocolError("a cohort's rows must share batch size, lr, momentum and seed")
            if row.controls is not None:
                server_control, c_i = row.controls
                if c_i is None or server_control is None:
                    raise ProtocolError("scaffold training requires both control variates")
                if c_i.shape != row.w_t.shape or server_control.shape != row.w_t.shape:
                    raise ProtocolError("control variate shapes do not match the model")
        self._fit(rows)
        mus = tuple(row.cfg.mu or 0.0 for row in rows)
        mu_lo, mu_hi = _run_of([mu > 0 for mu in mus])
        scaffold_lo, scaffold_hi = _run_of([row.controls is not None for row in rows])
        if mu_hi and self.anchors is None:
            self.anchors = np.empty_like(self.params)
        if scaffold_hi and self.corrections is None:
            self.corrections = np.empty_like(self.params)
        params, spare, velocity, anchors = self.params, self.spare, self.velocity, self.anchors
        corrections, work = self.corrections, self.work
        velocity[:n_rows] = 0.0
        for r, row in enumerate(rows):
            params[r] = row.w_t
            if mu_lo <= r < mu_hi:
                anchors[r] = row.w_t
            if row.controls is not None:
                with _flagged_numerics():
                    # Round-constant corrections; computing each difference
                    # once keeps the zero-control case exactly equal to
                    # plain SGD.
                    np.subtract(*row.controls, out=corrections[r])
        # One generator per run of consecutive rows on one party, for the
        # most epochs any of them takes; left[r] counts the batches row r
        # has to go.
        stream_of, firsts = [], []
        for r, row in enumerate(rows):
            if not firsts or row.view is not rows[firsts[-1]].view:
                firsts.append(r)
            stream_of.append(len(firsts) - 1)
        streams = [
            _batches(rows[lo].view, first, round_idx,
                     max(row.cfg.local_epochs for row in rows[lo:hi]))
            for lo, hi in zip(firsts, firsts[1:] + [n_rows])
        ]
        left = [row.cfg.local_epochs * -(-row.view.n_samples // first.batch_size) for row in rows]
        loss_grad = objective.loss_grad
        lr, momentum = first.local_lr, first.momentum
        batches = [None] * n_rows
        losses = [[] for _ in rows]
        results = [None] * n_rows
        # Per (parity, lo, hi, batch size): see make_step. parity flips when
        # params and spare swap, and each cohort starts at 0 with params the
        # trainer's own stack.
        steps = self.steps.setdefault((mus, scaffold_lo, scaffold_hi), {})
        parity = 0

        def make_step(lo, hi, m):
            """The views of rows lo:hi (1-d for a lone row), their loss_grad
            plan and proximal arguments, and the corrections of their
            scaffold rows with the planned gradient rows they are added
            into."""
            single = hi - lo == 1
            at = lo if single else slice(lo, hi)
            w = params[at]
            plan = None if work is None else work.plan(w, m)
            mu, anchor, prox_rows = 0.0, None, None
            a, b = max(lo, mu_lo), min(hi, mu_hi)
            if a < b:
                if (a, b) == (lo, hi) and len(set(mus[lo:hi])) == 1:
                    mu, anchor = mus[lo], anchors[at]
                else:
                    mu, anchor, prox_rows = np.array(mus[a:b]), anchors[a:b], slice(a - lo, b - lo)
            correction = into = None
            a, b = max(lo, scaffold_lo), min(hi, scaffold_hi)
            if a < b:
                correction = corrections[at if single else slice(a, b)]
                if plan is not None:
                    into = plan.grad if single else plan.grad[a - lo : b - lo]
            return w, velocity[at], spare[at], plan, mu, anchor, prox_rows, correction, into

        def leave(r, diverged):
            row, row_losses = rows[r], losses[r]
            update = LocalUpdate(
                party_id=row.view.party_id,
                tau=max(len(row_losses), 1),
                n_samples=row.view.n_samples,
                train_loss=float(np.mean(row_losses)) if row_losses else float("nan"),
                final_params=_read_only(params[r].copy()),
                diverged=diverged,
            )
            results[r] = (update, None) if row.controls is None else _scaffold_refresh(
                update, row, objective)

        active = list(range(n_rows))
        with _flagged_numerics():
            while active:
                # [lo, hi, m, stream]: a run of rows whose batches hold m
                # samples; stream is -1 once the run spans several parties.
                groups = []
                drawn = -1
                for r in active:
                    if not left[r]:
                        leave(r, False)
                        continue
                    left[r] -= 1
                    stream = stream_of[r]
                    if stream != drawn:
                        batch, drawn = next(streams[stream]), stream
                    batches[r] = batch
                    m = batch.shape[0]
                    group = groups[-1] if groups else None
                    if work is not None and group and group[1] == r and group[2] == m:
                        group[1] += 1
                        if group[3] != stream:
                            group[3] = -1
                    else:
                        groups.append([r, r + 1, m, stream])
                kept = []
                for lo, hi, m, stream in groups:
                    single = hi - lo == 1
                    step = steps.get((parity, lo, hi, m))
                    if step is None:
                        step = steps[parity, lo, hi, m] = make_step(lo, hi, m)
                    w, v, out, plan, mu, anchor, prox_rows, correction, into = step
                    if single:
                        x, y = source[batches[lo]], labels[batches[lo]]
                    elif stream >= 0:  # one party's batch, which every row trains on
                        x, y = source[batches[lo]][None], labels[batches[lo]][None]
                    else:
                        picked = np.concatenate(batches[lo:hi]).reshape(-1, m)
                        x, y = source[picked], labels[picked]
                    try:
                        if plan is None:
                            loss, grad = loss_grad(w, x, y, mu, anchor)
                        else:
                            loss, grad = _loss_grad(work.layers, w, x, y, mu, anchor, plan,
                                                    prox_rows)
                    except NumericError:
                        for r in range(lo, hi):
                            leave(r, True)
                        continue
                    if correction is not None:
                        if plan is None:
                            grad = grad + correction
                        else:
                            into += correction
                    momentum_update(w, grad, v, lr, momentum, out)
                    if single:
                        outcomes = ((lo, loss, math.isfinite(loss) and np.isfinite(out).all()),)
                    else:
                        finite = np.isfinite(loss) & np.isfinite(out).all(axis=1)
                        outcomes = zip(range(lo, hi), loss.tolist(), finite.tolist())
                    for r, row_loss, ok in outcomes:
                        if ok:
                            losses[r].append(row_loss)
                            kept.append(r)
                        else:
                            leave(r, True)
                params, spare = spare, params
                parity ^= 1
                active = kept
        return results


def _trainer_for(objective, trainer):
    """trainer, or when it is None a new LocalTrainer. A trainer keeps views
    and plans made for its own objective, so one made for another is
    refused."""
    trainer = LocalTrainer(objective) if trainer is None else trainer
    if trainer.objective is not objective:
        raise ProtocolError("the local trainer was made for another objective")
    return trainer


def _run_of(flags) -> tuple[int, int]:
    """(lo, hi): the rows whose flag is set, which must be consecutive;
    (0, 0) when there are none."""
    marked = [row for row, flag in enumerate(flags) if flag]
    if not marked:
        return 0, 0
    if marked[-1] - marked[0] + 1 != len(marked):
        raise ProtocolError("a cohort's mu rows and scaffold rows must each be consecutive")
    return marked[0], marked[-1] + 1


def local_train_sgd(
    w_t: np.ndarray,
    view: PartyView,
    cfg: FedRunConfig,
    round_idx: int,
    objective,
    *,
    trainer: LocalTrainer | None = None,
) -> LocalUpdate:
    """Local epochs of minibatch SGD with momentum; velocity starts at zero.

    A cfg.mu > 0 adds the proximal pull toward this round's global model
    (the anchor stays w_t for the whole round); a mu of 0 or None is
    bit-identical to plain training. trainer is the run's LocalTrainer, or
    None for a new one; see LocalTrainer.train.
    """
    return _trainer_for(objective, trainer).train([_Row(view, cfg, w_t)], round_idx)[0][0]


def local_train_scaffold(
    w_t: np.ndarray,
    server_control: np.ndarray,
    c_i: np.ndarray,
    view: PartyView,
    cfg: FedRunConfig,
    round_idx: int,
    objective,
    *,
    trainer: LocalTrainer | None = None,
) -> tuple[LocalUpdate, np.ndarray]:
    """Control-variate-corrected local training.

    Every minibatch gradient is shifted by (c - c_i) before the momentum
    step. The refreshed client control c* is either the full local-data
    gradient at the incoming global model (option "i") or the cheap reuse
    c_i - c + (w_t - w_final) / (tau * lr) (option "ii"). Returns the update
    (carrying delta_control = c* - c_i) and the new c_i, both read-only. If
    c* or c* - c_i is non-finite, the party is flagged diverged, keeps its
    c_i and reports a zero delta_control. trainer is as in local_train_sgd.
    """
    trainer = _trainer_for(objective, trainer)
    return trainer.train([_Row(view, cfg, w_t, (server_control, c_i))], round_idx)[0]


def _sorted_updates(updates) -> list[LocalUpdate]:
    """updates in ascending party order; refused with ProtocolError if there
    are none or their n_samples sum to 0, as no weight can be formed."""
    if not updates:
        raise ProtocolError("no local updates to aggregate")
    if sum(u.n_samples for u in updates) == 0:
        raise ProtocolError("the local updates hold no samples to weight by")
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
    """The most rows one cohort may hold: as many (1, n_coords) float64
    models as fit in COHORT_BYTES, at least one, and one when the objective
    does not stack."""
    return max(1, COHORT_BYTES // (BYTES_PER_COORD * n_coords)) if stacks else 1


def _row_kind(cfg) -> int:
    """Where a cell's rows go in a party's run of rows: plain cells first,
    then cells with a mu, then scaffold, so each kind is consecutive."""
    return 2 if cfg.algorithm == "scaffold" else 1 if cfg.mu else 0


def _kernel_calls(cohorts, batch_size: int) -> int:
    """How many kernel calls LocalTrainer.train makes on these cohorts, each a
    list of (samples, epochs) rows, if no row diverges and the objective
    stacks: at each iteration of a cohort, one per run of consecutive
    active rows whose batches have the same size."""
    # An empty row after each cohort ends its runs.
    n, epochs = np.array([row for cohort in cohorts for row in (*cohort, (0, 0))]).T
    n_batches = -(-n // batch_size)
    steps = epochs * n_batches
    t = np.arange(steps.max())[:, None]
    last = t % np.maximum(n_batches, 1) == n_batches - 1
    sizes = np.where(t < steps, np.where(last, n - (n_batches - 1) * batch_size, batch_size), 0)
    starts = sizes > 0
    starts[:, 1:] &= sizes[:, 1:] != sizes[:, :-1]
    return int(starts.sum())


def _row_cohorts(party_ids, views, cfgs, n_coords: int, stacks: bool) -> list[list[tuple]]:
    """The (party id, cell index) rows of a round, split into cohorts.

    One cell trains in cohorts of consecutive sampled parties: the
    ascending ids cut into chunks of at most _cohort_cap, so a party too
    large to share, and every party when the objective does not stack,
    trains in a cohort of one. Several cells train in whichever of two
    layouts _kernel_calls counts fewer calls for, by party on a tie:
    - by party: one party at a time, its rows (one per cell, in _row_kind
      order, at most _cohort_cap of them per cohort) sharing its batches,
      so they step together at every iteration and gather each batch once;
    - by cell: each cell's rows in the chunks it trains in alone, where
      consecutive parties whose batches have the same size step together.
    By cell wins only where the sampled parties outnumber the cells and
    most of their batches line up, as equal party sizes (an iid or
    fcube_pairs partition) make them. The count ignores that a by-cell
    call gathers a batch per row: on sweep-grid's data split iid, 10
    parties and 5 cells (1874 calls by cell, 4000 by party) ran 5-8%
    faster by cell, 20 parties and 2 cells (800 against 4000) 28%."""
    size, batch_size = _cohort_cap(n_coords, stacks), cfgs[0].batch_size

    def chunks(items):
        return [items[lo : lo + size] for lo in range(0, len(items), size)]

    by_cell = [[(p, cell) for p in chunk] for cell in range(len(cfgs))
               for chunk in chunks(party_ids)]
    if len(cfgs) == 1:
        return by_cell
    cells = chunks(sorted(range(len(cfgs)), key=lambda cell: _row_kind(cfgs[cell])))
    by_party = [[(p, cell) for cell in chunk] for p in party_ids for chunk in cells]
    # A party's rows share its batch sizes, so one with k batches an epoch
    # makes k times the calls of a party with one.
    n_batches = [-(-views[p].n_samples // batch_size) for p in party_ids]
    party_calls = sum(n_batches) * _kernel_calls(
        [[(batch_size, cfgs[cell].local_epochs) for cell in chunk] for chunk in cells],
        batch_size)
    # Each cell makes at least one call per iteration of its largest party.
    if sum(cfg.local_epochs for cfg in cfgs) * max(n_batches) >= party_calls:
        return by_party
    cell_calls = _kernel_calls(
        [[(views[p].n_samples, cfgs[cell].local_epochs) for p, cell in cohort]
         for cohort in by_cell],
        batch_size)
    return by_party if party_calls <= cell_calls else by_cell


def _train_cohorts(cohorts, views, cfgs, round_idx, objective, trainer) -> list[tuple]:
    """Train cohorts of (party, cell, w_t, controls) rows on trainer (made
    for objective), each row from its w_t and, for scaffold, its controls
    (c, c_i); returns (update, new c_i or None) per row, in row order."""
    results = []
    for cohort in cohorts:
        if len(cohort) > 1:
            results += trainer.train([_Row(views[p], cfgs[cell], w_t, controls)
                                      for p, cell, w_t, controls in cohort], round_idx)
            continue
        # A cohort of one goes through the module attributes, so a wrapper
        # set on them (the traced benchmark's) sees every party that trains
        # alone.
        (p, cell, w_t, controls), = cohort
        args = (views[p], cfgs[cell], round_idx, objective)
        if controls is None:
            results.append((local_train_sgd(w_t, *args, trainer=trainer), None))
        else:
            results.append(local_train_scaffold(w_t, *controls, *args, trainer=trainer))
    return results


def _shard_bounds(weights, shards: int) -> list[int]:
    """Where to cut a round's cohorts, weighing weights, into shards
    non-empty contiguous runs (shards <= len(weights)): run j is
    cohorts[bounds[j]:bounds[j + 1]]. Cut j falls at the prefix sum nearest
    j/shards of the total, which for two shards is the most even cut."""
    prefix = list(itertools.accumulate(weights, initial=0))
    total, count = prefix[-1], len(weights)
    bounds = [0]
    for j in range(1, shards):
        target = total * j / shards
        cut = bisect.bisect_left(prefix, target)
        if cut > 0 and target - prefix[cut - 1] <= prefix[cut] - target:
            cut -= 1
        bounds.append(min(max(cut, bounds[-1] + 1), count - (shards - j)))
    return bounds + [count]


def _shared_rows(rows: int, n_coords: int) -> np.ndarray:
    """A (rows, n_coords) float64 array in an anonymous MAP_SHARED mapping:
    a process forked after it is made writes to the same pages, and a page
    costs memory only once it is written."""
    buffer = mmap.mmap(-1, rows * n_coords * BYTES_PER_COORD)
    return np.frombuffer(buffer, dtype=np.float64).reshape(rows, n_coords)


def _train_shards(dispatch, shards: int, shared, views, cfgs, round_idx, cohorts) -> list[tuple]:
    """(update, new c_i or None) per row of the round's cohorts of (party,
    cell, w_t, controls) rows, in row order, as _train_cohorts returns
    them, trained in up to shards processes: this one and the workers of
    dispatch, the dispatcher that _shard_workers' serving block yields.

    The cohorts are cut into contiguous runs balanced by samples x epochs
    (_shard_bounds) and dispatch hands each to _serve_run, here or on a
    worker, as (round, the run's cohorts, its first row's position in the
    round); pickle stores an array that several rows share once, so a
    request carries each w_t and c once. Whoever trains a run writes every
    model-sized array a row hands back into shared, rows of one MAP_SHARED
    buffer mapped before the fork, at the row's position in the round: its
    final model in shared[0], and for scaffold its control change in
    shared[1] and its new c_i in shared[2]. The reply carries only each
    row's tau, n, loss and diverged flag. The rows are rewritten the next
    round, so a new c_i, which outlives the round, is copied out; the
    updates live only until the round is aggregated. The shared rows are
    there for speed: pickling each model back in the reply instead made
    wide-idx's median run_s 2.46 s against 2.22 s (+11%, slower in 6 of 6
    alternating pairs of 10-s perfbench runs, seeds 2711-2716, on a 2-core
    VM), with cpu_s up 10%."""
    weights = [sum(views[p].n_samples * cfgs[cell].local_epochs for p, cell, _, _ in cohort)
               for cohort in cohorts]
    bounds = _shard_bounds(weights, min(len(cohorts), shards))
    firsts = list(itertools.accumulate(map(len, cohorts), initial=0))
    requests = [(round_idx, cohorts[lo:hi], firsts[lo]) for lo, hi in zip(bounds, bounds[1:])]
    replies = [reply for run in dispatch(requests) for reply in run]
    results = []
    rows = (row for cohort in cohorts for row in cohort)
    for at, ((p, _, _, controls), (tau, n, loss, diverged)) in enumerate(zip(rows, replies)):
        final = _read_only(shared[0, at])
        if controls is None:
            results.append((LocalUpdate(p, tau, n, loss, final, diverged=diverged), None))
        else:
            update = LocalUpdate(p, tau, n, loss, final, _read_only(shared[1, at]), diverged)
            results.append((update, _read_only(shared[2, at].copy())))
    return results


def _serve_run(shared, views, cfgs, objective, trainer, request):
    """Train one run of a round's cohorts, a (round, cohorts, first row's
    position) request, here or in a worker, and write its rows into
    shared; _train_shards' handler."""
    round_idx, run, first = request
    results = _train_cohorts(run, views, cfgs, round_idx, objective, trainer)
    for at, (update, new_control) in enumerate(results, first):
        shared[0, at] = update.final_params
        if new_control is not None:
            shared[1, at], shared[2, at] = update.delta_control, new_control
    return [(update.tau, update.n_samples, update.train_loss, update.diverged)
            for update, _ in results]


def _close_round(state, updates, cfg, client_controls, n_bytes):
    """Aggregate one cell's updates into its new state; see run_round."""
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


def _run_rounds(states, views, cfgs, round_idx, objective, trainer, shards=None):
    """One round of each cell of a lockstep group (see run_group), with
    each cell's state in states: the parties are sampled once, each
    (party, cell) row of _row_cohorts' cohorts becomes one (party, cell,
    w_t, controls) tuple, with its cell's w_t and, for scaffold, controls
    (c, c_i) (None otherwise), and every row trains on trainer (or when it
    is None on a new LocalTrainer); each cell aggregates its own updates,
    in cohort order, as run_round does.
    With shards (_shard_workers' _train_shards), the cohorts are cut into
    contiguous runs: this process trains the first while the shard workers
    train the others. Returns run_round's triple per cell."""
    cfg = cfgs[0]
    selected = sample_parties(cfg.n_parties, cfg.sample_fraction, round_idx, cfg.master_seed)
    n_coords = len(states[0].params)
    controls = [list(state.client_controls or [None] * cfg.n_parties) for state in states]
    updates = [[] for _ in cfgs]
    cohorts = [[(p, cell, states[cell].params, (states[cell].control, controls[cell][p])
                 if cfgs[cell].algorithm == "scaffold" else None) for p, cell in cohort]
               for cohort in _row_cohorts(selected, views, cfgs, n_coords, _stacks(objective))]
    trainer = _trainer_for(objective, trainer)
    if shards is None:
        results = _train_cohorts(cohorts, views, cfgs, round_idx, objective, trainer)
    else:
        results = shards(round_idx, cohorts)
    rows = (row for cohort in cohorts for row in cohort)
    for (p, cell, _, _), (update, new_control) in zip(rows, results):
        updates[cell].append(update)
        if new_control is not None:
            controls[cell][p] = new_control
    return [
        _close_round(state, cell_updates, cell_cfg, cell_controls,
                     round_bytes(len(selected), n_coords, cell_cfg.algorithm))
        for state, cell_updates, cell_cfg, cell_controls in zip(states, updates, cfgs, controls)
    ]


def run_round(
    state: GlobalState,
    views: list[PartyView],
    cfg: FedRunConfig,
    round_idx: int,
    objective,
    *,
    trainer: LocalTrainer | None = None,
    shards=None,
) -> tuple[GlobalState, list[LocalUpdate], int]:
    """One full round of one cell: sample, train the sampled parties,
    aggregate. run_group trains the rounds of several cells at once
    through the same code (_run_rounds), and of one cell through this.

    The sampled parties train, in ascending id, in cohorts of (party, cell,
    w_t, controls) rows (see _row_cohorts and _train_cohorts). Each party
    draws from its own (seed, round, party) stream, so its update depends
    neither on that order nor on its cohort. Returns a new state and writes
    to none of its arguments: a sampled scaffold party's new control
    replaces its entry in the new state's client_controls. If the new model
    or the new server control has a non-finite entry, the round returns the
    given state marked diverged; its traffic still counts. Every cohort
    trains on trainer, the run's LocalTrainer, or when it is None on a new
    one (a trainer made for another objective is refused with ProtocolError,
    and so are views other than one per party, cfg.n_parties of them);
    shards, run_group's _train_shards if given, trains all but the first
    contiguous run of them on shard workers.
    """
    if len(views) != cfg.n_parties:
        raise ProtocolError(f"a round of {cfg.n_parties} parties needs as many views, "
                            f"got {len(views)}")
    return _run_rounds([state], views, [cfg], round_idx, objective, trainer, shards)[0]


def _weighted_mean_loss(updates) -> float:
    weights = np.array([u.n_samples for u in updates], dtype=np.float64)
    losses = np.array([u.train_loss for u in updates])
    return float((weights * losses).sum() / weights.sum())


def partition_seed(run_seed: int) -> int:
    """Seed of the partition a run with this master seed trains on."""
    return rng.derive_seed(run_seed, rng.TAG_PARTITION)


def lockstep_key(cfg: FedRunConfig) -> FedRunConfig:
    """cfg without the settings a lockstep group's cells may differ in
    (algorithm, prox_mu and local_epochs): cells whose keys are equal can
    train together in one run_group."""
    return replace(cfg, algorithm=ALGORITHMS[0], prox_mu=0.0, local_epochs=1)


def trains_in_workers(objective) -> bool:
    """Whether objective may train in forked workers, cmd_run's trial
    workers or run_group's shard workers: only fedsim's own stacking
    MlpObjective (a replaced one may keep counts in this process), and only
    where workers.can_fork holds (os.fork exists and this is the main
    thread, where a KeyboardInterrupt can stop them)."""
    return _stacks(objective) and workers.can_fork()


def trains_in_lockstep(objective) -> bool:
    """Whether run_group trains several cells at once with this objective:
    only when it stacks and two of its models fit in one cohort. Otherwise
    each row would train alone anyway, and cells are best run one by one."""
    return _stacks(objective) and _cohort_cap(objective.arch.n_params(), True) > 1


def check_datasets(ds_train: LabeledDataset, ds_test: LabeledDataset, arch: MlpArch) -> None:
    """Raise unless both sets fit arch and each holds a sample.

    Local training validates nothing per step, and evaluation does not
    bound labels by the model's outputs, so both sets' widths and labels
    are checked against arch once, before any run. The parties share the
    training set and every round scores the model on the test set, so
    neither may be empty."""
    if ds_train.n == 0:
        raise DataError("training set is empty: there are no samples to partition")
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


def _most_cohorts(sampled: int, n_cells: int, cap: int) -> int:
    """The most cohorts _row_cohorts can lay a round out in."""
    by_cell = n_cells * -(-sampled // cap)
    return by_cell if n_cells == 1 else max(by_cell, sampled * -(-n_cells // cap))


@contextlib.contextmanager
def _shard_workers(shards: int, views, cfgs, objective, trainer, n_coords: int):
    """_train_shards, bound to up to shards - 1 forked workers and the
    shared rows they write, for run_group; or None where a round is best
    trained here alone: fewer than two shards, an objective that may not
    train in workers (trains_in_workers), or rounds that cannot have two
    cohorts (such as fcube-prox's, one stacked cohort of 4 rows, whose
    split would cost more CPU than it saves). The workers are forked once,
    here (workers.serving with _serve_run), so they share the views, the
    initial model and trainer copy-on-write; they are killed and reaped
    when the block ends, however it ends."""
    cfg = cfgs[0]
    sampled = _sample_size(cfg.n_parties, cfg.sample_fraction)
    count = 1
    if shards > 1 and trains_in_workers(objective):
        count = min(shards, _most_cohorts(sampled, len(cfgs), _cohort_cap(n_coords, True)))
    if count < 2:
        yield None
        return
    # A row of a round at its position, for each model-sized array a row
    # hands back: its final model, and for scaffold two more.
    kinds = 3 if any(cell.algorithm == "scaffold" for cell in cfgs) else 1
    shared = _shared_rows(kinds * sampled * len(cfgs), n_coords).reshape(kinds, -1, n_coords)
    serve = functools.partial(_serve_run, shared, views, cfgs, objective, trainer)
    with workers.serving(serve, count - 1) as dispatch:
        yield functools.partial(_train_shards, dispatch, count, shared, views, cfgs)


def run_group(
    ds_train: LabeledDataset,
    ds_test: LabeledDataset,
    partition_spec: PartitionSpec,
    arch: MlpArch,
    cfgs,
    objective=None,
    shards: int = 1,
) -> list[list[RoundRecord]]:
    """Run several cells of one trial in lockstep; one list of records per
    cell, each exactly what run_experiment returns for that cell alone.

    The cells' configs must have equal lockstep_key: they differ at most in
    algorithm, prox_mu and local_epochs, so they share the partition, the
    initial model, each round's party sample and each party's batches.
    The partition views and the initial model are built once, and every
    round samples the parties once and trains every (party, cell) row in
    one cohort loop (see _run_rounds); each cell then aggregates,
    evaluates and records its own round. A group of one cell runs each
    round through the module attribute run_round, so a wrapper set on it
    (the traced benchmark's) sees every round. One LocalTrainer, which
    fits itself to each cohort it trains (its cells or its sampled
    parties, as _row_cohorts may lay a round out either way), trains every
    round; it dies with the run, so a sweep holds one group's trainer at
    a time.

    A record's wall_ms covers the whole group's round: training every row,
    then aggregating and evaluating every cell.

    shards is how many processes may train a round's cohorts: with more
    than one, _shard_workers forks up to shards - 1 workers, which train
    all but the first contiguous run of each round's cohorts (see
    _train_shards)
    and are killed and reaped before run_group returns or raises. The
    records do not depend on it. The default, 1, forks nothing.
    """
    cfgs = list(cfgs)
    if not cfgs:
        raise ConfigError("a group needs at least one cell")
    cfg = cfgs[0]
    if any(lockstep_key(other) != lockstep_key(cfg) for other in cfgs):
        raise ConfigError("cells train together only if they differ at most in "
                          "algorithm, prox_mu and local_epochs")
    check_datasets(ds_train, ds_test, arch)
    if objective is None:
        objective = MlpObjective(arch)
    _, views = build_views(
        ds_train, partition_spec, cfg.n_parties, partition_seed(cfg.master_seed)
    )
    params = objective.init_params(rng.derive_seed(cfg.master_seed, rng.TAG_INIT))
    scaffold = any(cell.algorithm == "scaffold" for cell in cfgs)
    # Controls are read-only, so one zero array can start all of them.
    zero = _read_only(np.zeros_like(params)) if scaffold else None
    states = [
        GlobalState(params, zero, (zero,) * cfg.n_parties)
        if cell.algorithm == "scaffold" else GlobalState(params)
        for cell in cfgs
    ]
    trainer = LocalTrainer(objective)

    # The shard workers fork before the round-0 score, which may be this
    # process's first BLAS call: OpenBLAS lays out a new buffer (several
    # MB of a wide model's pages) in a process that forks after it used
    # one, and keeps the old.
    with _shard_workers(shards, views, cfgs, objective, trainer, len(params)) as sharded:
        untrained = RoundRecord(0, objective.accuracy(params, ds_test), None, 0, 0, False)
        records = [[untrained] for _ in cfgs]
        for round_idx in range(cfg.rounds):
            started = time.perf_counter()
            if len(cfgs) == 1:
                outcomes = [run_round(states[0], views, cfg, round_idx, objective,
                                      trainer=trainer, shards=sharded)]
            else:
                outcomes = _run_rounds(states, views, cfgs, round_idx, objective, trainer, sharded)
            rounds = []
            for cell, (state, updates, n_bytes) in enumerate(outcomes):
                states[cell] = state
                # Diverging parties can leave a huge but finite model whose
                # logits overflow; argmax still yields an accuracy.
                with _flagged_numerics():
                    accuracy = objective.accuracy(state.params, ds_test)
                    mean_train_loss = _weighted_mean_loss(updates)
                diverged = state.diverged or any(u.diverged for u in updates)
                rounds.append((accuracy, mean_train_loss, n_bytes, diverged))
            # Release this round's party models before the next round trains
            # its own, so only one round of them is alive at a time.
            del outcomes, updates
            wall_ms = int((time.perf_counter() - started) * 1000)
            for cell_records, (accuracy, mean_train_loss, n_bytes, diverged) in zip(
                    records, rounds):
                cell_records.append(RoundRecord(
                    round=round_idx + 1,
                    test_accuracy=accuracy,
                    mean_train_loss=mean_train_loss,
                    bytes=n_bytes,
                    wall_ms=wall_ms,
                    diverged=diverged,
                ))
    return records


def run_experiment(
    ds_train: LabeledDataset,
    ds_test: LabeledDataset,
    partition_spec: PartitionSpec,
    arch: MlpArch,
    cfg: FedRunConfig,
    objective=None,
    shards: int = 1,
) -> list[RoundRecord]:
    """Partition, initialize, run T rounds of one cell, evaluate after
    every round: run_group of this cell alone.

    Returns T + 1 records; record 0 is the untrained model (no traffic, no
    training loss). A party whose training goes non-finite contributes its
    last finite model and flags the round, and so does a non-finite server
    aggregate, which keeps the previous model; the run continues either way.
    """
    return run_group(ds_train, ds_test, partition_spec, arch, [cfg], objective, shards)[0]
