"""Timing wrappers around fedsim's public calls, for the traced run.

`instrumented(spans)` replaces module attributes that fedsim itself looks up
at call time with wrappers that time the call and count its work, so the
program's own `harness.cmd_run` runs unchanged apart from the wrappers:

- `harness.build_dataset` and `harness.run_experiment` (dataset load, cells),
- `engine.MlpObjective`, which `run_experiment` instantiates: a
  `TimedObjective` that times every `loss_grad` and `accuracy` call,
- `engine.build_views`, `engine.local_train_sgd` / `local_train_scaffold`,
  `engine.aggregate_*` and `engine.run_round` (partition, local training,
  server aggregate, per-round counts).

Nothing under src/ is edited. The traced run's results.jsonl and summary.csv
are checked like any other run's before a single span is trusted.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

from fedsim import engine, harness
from fedsim.engine import MlpObjective
from fedsim.nn import MlpArch

now = time.perf_counter


class Spans:
    """Span durations (seconds) by name plus exact work counts, in memory."""

    def __init__(self):
        self.seconds = defaultdict(list)
        self.counts = defaultdict(int)
        self.open: set[str] = set()  # names of the spans being timed now

    def add(self, name: str, started: float) -> None:
        self.seconds[name].append(now() - started)


def step_flops_per_row(arch: MlpArch) -> int:
    """Multiply-adds x 2 for one row through forward and backward.

    Forward and the weight gradients each cost 2*fan_in*fan_out per layer;
    propagating the error back costs the same for every layer but the first.
    Bias and elementwise terms are left out. Computed, not measured.
    """
    sizes = [a * b for a, b in zip(arch.layer_dims[:-1], arch.layer_dims[1:])]
    return 2 * sum(sizes) + 2 * sum(sizes) + 2 * sum(sizes[1:])


class TimedObjective(MlpObjective):
    """The engine's MLP objective with each loss_grad and accuracy call timed."""

    def __init__(self, arch: MlpArch, spans: Spans):
        super().__init__(arch)
        self.spans = spans
        self.flops_per_row = step_flops_per_row(arch)

    def loss_grad(self, params, features, labels, prox_mu=0.0, prox_anchor=None):
        started = now()
        try:
            return super().loss_grad(params, features, labels, prox_mu, prox_anchor)
        finally:
            self.spans.add("nn.loss_grad", started)
            self.spans.counts["nn.steps"] += 1
            self.spans.counts["nn.step_flops"] += self.flops_per_row * len(labels)

    def accuracy(self, params, dataset) -> float:
        started = now()
        try:
            return super().accuracy(params, dataset)
        finally:
            self.spans.add("nn.predict", started)
            self.spans.counts["nn.eval_rows"] += dataset.n


def _timed(fn, name: str, spans: Spans, count=None):
    """`fn` with each call recorded as a `name` span; `count(result)` then
    adds the call's work counts. A call nested in a span of the same name
    (aggregate_scaffold calling aggregate_weighted) is not timed again."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if name in spans.open:
            return fn(*args, **kwargs)
        spans.open.add(name)
        started = now()
        try:
            result = fn(*args, **kwargs)
        finally:
            spans.add(name, started)
            spans.open.discard(name)
        if count is not None:
            count(result)
        return result

    return wrapper


def instrumented(spans: Spans) -> contextlib.ExitStack:
    """Install the wrappers; they come off when the returned stack closes."""
    counts = spans.counts

    def cell(_records):
        counts["harness.cells"] += 1

    def views(result):
        counts["partition.rows_copied"] += sum(view.n_samples for view in result[1])

    def round_done(result):
        new_state, updates, n_bytes = result
        diverged = sum(u.diverged for u in updates)
        counts["engine.rounds"] += 1
        counts["engine.bytes"] += n_bytes
        counts["engine.party_rounds"] += len(updates)
        counts["engine.diverged_parties"] += diverged
        counts["engine.diverged_rounds"] += diverged > 0
        counts["compensated.coord_terms"] += len(updates) * len(new_state.params)

    wrappers = {
        harness: {
            "build_dataset": _timed(harness.build_dataset, "datasets.load", spans),
            "run_experiment": _timed(harness.run_experiment, "harness.cell", spans, cell),
        },
        engine: {
            "MlpObjective": functools.partial(TimedObjective, spans=spans),
            "build_views": _timed(engine.build_views, "partition.build", spans, views),
            "local_train_sgd": _timed(engine.local_train_sgd, "engine.local_train", spans),
            "local_train_scaffold": _timed(
                engine.local_train_scaffold, "engine.local_train", spans),
            "run_round": _timed(engine.run_round, "engine.round", spans, round_done),
        },
    }
    for attr in ("aggregate_weighted", "aggregate_fednova", "aggregate_scaffold"):
        wrappers[engine][attr] = _timed(getattr(engine, attr), "engine.aggregate", spans)
    stack = contextlib.ExitStack()
    for module, attrs in wrappers.items():
        for attr, wrapper in attrs.items():
            stack.callback(setattr, module, attr, getattr(module, attr))
            setattr(module, attr, wrapper)
    return stack
