"""The traced benchmark's contract with the program, checked in tier-1.

`perfbench/instrument.py` times a run by replacing attributes of
`fedsim.harness` and `fedsim.engine` that the program looks up at call time.
A refactor that renames one of them, changes its result, or stops calling
it through its module breaks the traced benchmark without failing any other
test. These tests load instrument.py as it is and check that it still sees,
and counts, the whole run.
"""

import csv
import importlib.util
import json
import math
import re
from pathlib import Path

from fedsim import engine, harness
from fedsim.config import parse_config
from fedsim.nn import MlpArch

INSTRUMENT_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "instrument.py"

# Every algorithm, fedprox at two mus, at local epochs 1 and 2: ten cells,
# one trial, uneven party sizes; no round diverges. The traced run trains
# each cell alone and each party alone, with one loss_grad call per step;
# the untraced run trains the ten cells as one lockstep group, each party's
# ten rows stacked on a workspace plan in buffers reused across rounds, so
# the two are compared through per-row mus and anchors, scaffold's
# corrections and rows that leave after one epoch too.
CONFIG = {
    "dataset": {"type": "blobs", "n_classes": 3, "n_per_class": 40, "dim": 4,
                "spread": 0.2, "seed": 9},
    "partition": {"type": "quantity_dirichlet", "beta": 1.0},
    "arch": {"hidden": [8]},
    "fed": {"algorithms": ["fedavg", "fedprox", "scaffold", "fednova"], "rounds": 3,
            "parties": 3, "batch_size": 16, "lr": 0.05, "seed": 5},
    "sweeps": {"local_epochs": [1, 2], "mu": [0.01, 0.1]},
}
SPANS = (
    "datasets.load", "harness.cell", "partition.build", "engine.local_train",
    "engine.aggregate", "engine.round", "nn.loss_grad", "nn.predict",
)


def load_instrument():
    spec = importlib.util.spec_from_file_location("instrument", INSTRUMENT_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_outputs(out_dir):
    results = (out_dir / "results.jsonl").read_text(encoding="ascii")
    summary = (out_dir / "summary.csv").read_text(encoding="ascii")
    return re.sub(r'"wall_ms": \d+', '"wall_ms": 0', results), summary


def test_every_wrapped_attribute_exists():
    # instrumented() reads each attribute before replacing it, so a missing
    # one raises here; one it would add instead of replace is caught below.
    instrument = load_instrument()
    modules = (harness, engine)
    before = [dict(vars(module)) for module in modules]
    with instrument.instrumented(instrument.Spans()):
        for module, attrs in zip(modules, before):
            replaced = {name for name, value in vars(module).items()
                        if attrs.get(name) is not value}
            assert replaced and replaced <= attrs.keys(), module.__name__
    assert [dict(vars(module)) for module in modules] == before


def test_traced_run_matches_untraced_and_counts_its_work(tmp_path):
    instrument = load_instrument()
    config = parse_config(CONFIG)
    harness.cmd_run(config, tmp_path / "plain")
    spans = instrument.Spans()
    with instrument.instrumented(spans):
        harness.cmd_run(config, tmp_path / "traced")
    plain = run_outputs(tmp_path / "plain")
    assert run_outputs(tmp_path / "traced") == plain

    # The untraced run trains in lockstep, a party's ten rows in one cohort;
    # the traced objective does not stack, so that run trains cell by cell.
    arch = MlpArch((4, *config.hidden, 3))
    assert engine.trains_in_lockstep(engine.MlpObjective(arch))
    assert engine.COHORT_BYTES // (engine.BYTES_PER_COORD * arch.n_params()) >= 10
    assert not engine.trains_in_lockstep(instrument.TimedObjective(arch, instrument.Spans()))

    records = [json.loads(line) for line in plain[0].splitlines()]
    assert not any(record["diverged"] for record in records)
    runs = {(r["algorithm"], r["mu"], r["local_epochs"], r["trial"]) for r in records}
    assert {algorithm for algorithm, *_ in runs} == set(engine.ALGORITHMS)
    assert spans.counts["harness.cells"] == len(runs) == 10
    assert spans.counts["engine.bytes"] == sum(record["bytes"] for record in records)
    for name in SPANS:
        assert spans.seconds[name], name

    # Every cell trains on trial 0's partition, the one cmd_partition writes.
    harness.cmd_partition(config, tmp_path / "partition")
    with open(tmp_path / "partition" / "partition_stats.csv", encoding="ascii") as fh:
        sizes = [sum(int(count) for count in row[1:]) for row in list(csv.reader(fh))[1:]]
    assert len(sizes) == 3 and len(set(sizes)) > 1
    steps = sum(
        cell.rounds * sum(cell.local_epochs * math.ceil(n / cell.batch_size) for n in sizes)
        for cell in config.cells
    )
    assert spans.counts["nn.steps"] == steps
