"""A one-trial run shards each round's cohorts over forked workers
(engine.run_group), and no output bit depends on it.

cmd_run gives each group usable CPUs // groups training at once shards:
this process trains the first contiguous run of a round's cohorts and a
shard worker each of the others. These tests pin the output against the
shard count, the paths that must not fork, the workers' ends, and the
BLAS thread count that fedsim fixes.
"""

import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import fedsim
from fedsim import engine, harness
from fedsim.config import parse_config
from fedsim.harness import cmd_run
from helpers import (
    assert_no_child_process,
    count_forks,
    deadline,  # noqa: F401 (a fixture)
    mask_wall,
    needs_fork,
    use_cpus,
)

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A 64-200-10 model (15,010 coordinates) is above the cohort cap, so every
# party trains in a cohort of its own and each cell alone (one group per
# run), and 3 of 5 parties sampled make a round's three cohorts.
WIDE = {
    "dataset": {"type": "blobs", "n_classes": 10, "n_per_class": 30, "dim": 64,
                "spread": 0.3, "seed": 3},
    "partition": {"type": "quantity_dirichlet", "beta": 0.5, "noise_sigma": 0.1},
    "arch": {"hidden": [200]},
    "fed": {"algorithms": ["fedavg"], "rounds": 4, "parties": 5, "sample_fraction": 0.6,
            "local_epochs": 2, "batch_size": 16, "lr": 0.05, "seed": 1},
}
# A 3-600-2 fcube model stacks at most 5 parties, so 12 sampled parties
# train in stacked cohorts of 5, 5 and 2.
FCUBE = {
    "dataset": {"type": "fcube", "n_train": 600, "n_test": 200, "seed": 4},
    "partition": {"type": "iid"},
    "arch": {"hidden": [600]},
    "fed": {"algorithms": ["fedprox"], "rounds": 3, "parties": 12, "local_epochs": 2,
            "batch_size": 16, "prox_mu": 0.1, "seed": 2},
}


def with_fed(raw, **fed):
    return {**raw, "fed": {**raw["fed"], **fed}}


# One cell each, so that a run is one group and gets every CPU as shards.
SHARDED = {
    "fedavg": WIDE,
    "fedprox": with_fed(WIDE, algorithms=["fedprox"], prox_mu=0.1),
    "fednova": with_fed(WIDE, algorithms=["fednova"]),
    "scaffold-i": with_fed(WIDE, algorithms=["scaffold"], scaffold_c_option="i"),
    "scaffold-ii": with_fed(WIDE, algorithms=["scaffold"], scaffold_c_option="ii"),
    "diverging": with_fed(WIDE, lr=1e8),
    "fcube": FCUBE,
}


def outputs(out, err):
    progress = [re.sub(r" \d+\.\d\ds$", "", line) for line in err.splitlines()]
    return (mask_wall((out / "results.jsonl").read_text()),
            (out / "summary.csv").read_bytes(), progress)


@needs_fork
@pytest.mark.parametrize("name", list(SHARDED))
def test_the_shard_count_does_not_change_the_output(tmp_path, deadline, capsys, monkeypatch,
                                                    name):
    # One, two and three CPUs train each round in one, two and three
    # shards: byte-identical files and the same progress lines, with a
    # shard worker forked here for each shard past the first, and none
    # left after.
    config = parse_config(SHARDED[name])
    monkeypatch.setattr(harness, "BLAS_THREADS", 1)
    log = count_forks(tmp_path, monkeypatch)
    seen, workers = {}, {}
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        cmd_run(config, out)
        assert_no_child_process()
        seen[cpus] = outputs(out, capsys.readouterr().err)
        forks = log.read_text().split()
        assert set(forks) <= {str(os.getpid())}
        workers[cpus] = len(forks)
        log.write_text("")
    assert seen[2] == seen[1] and seen[3] == seen[1]
    assert workers == {1: 0, 2: 1, 3: 2}
    records = [json.loads(line) for line in seen[1][0].splitlines()]
    assert any(record["diverged"] for record in records) == (name == "diverging")


@needs_fork
def test_trial_workers_shard_their_rounds_too(tmp_path, deadline, capsys, monkeypatch):
    # Two trials on four CPUs: this process trains one trial and a trial
    # worker the other, and each forks one shard worker of its own; the
    # files are those of one CPU.
    config = parse_config({**with_fed(WIDE, algorithms=["scaffold"]), "trials": 2})
    monkeypatch.setattr(harness, "BLAS_THREADS", 1)
    log = count_forks(tmp_path, monkeypatch)
    seen = {}
    for cpus in (1, 4):
        use_cpus(monkeypatch, cpus)
        cmd_run(config, tmp_path / f"cpus{cpus}")
        assert_no_child_process()
        seen[cpus] = outputs(tmp_path / f"cpus{cpus}", capsys.readouterr().err)
    assert seen[4] == seen[1]
    # This process forks the trial worker and its own shard worker, and the
    # trial worker the other: all but the trial worker are shard workers.
    forks = log.read_text().split()
    assert forks.count(str(os.getpid())) == 2
    assert len(forks) - 1 == 2


class Replaced(engine.MlpObjective):
    """A replaced MlpObjective, as the traced benchmark run installs."""

    def loss_grad(self, params, features, labels, prox_mu=0.0, prox_anchor=None):
        return super().loss_grad(params, features, labels, prox_mu, prox_anchor)


@needs_fork
@pytest.mark.parametrize("shape", [
    "fcube-prox", "sweep-grid", "objective replaced", "off the main thread", "sharded"])
def test_paths_that_gain_nothing_fork_no_shard_worker(tmp_path, deadline, monkeypatch, shape):
    # On two CPUs: fcube-prox's round is one stacked cohort; sweep-grid's
    # two trials already fill both CPUs (one trial worker, which forks
    # nothing itself); a replaced objective keeps its counts here; and off
    # the main thread no KeyboardInterrupt could stop a worker. Only the
    # one-trial wide run forks, its one shard worker.
    raw = WIDE
    if shape == "fcube-prox":
        raw = {
            "dataset": {"type": "fcube", "n_train": 400, "n_test": 100, "seed": 4},
            "partition": {"type": "fcube_pairs"},
            "arch": {"hidden": [32, 16, 8]},
            "fed": {"algorithms": ["fedprox"], "rounds": 2, "parties": 4,
                    "local_epochs": 2, "batch_size": 64, "prox_mu": 0.01, "seed": 3},
        }
    elif shape == "sweep-grid":
        raw = {
            "dataset": {"type": "blobs", "n_classes": 10, "n_per_class": 20, "dim": 32,
                        "spread": 0.3, "seed": 3},
            "partition": {"type": "quantity_dirichlet", "beta": 0.5, "noise_sigma": 0.1},
            "arch": {"hidden": [32, 16, 8]},
            "fed": {"algorithms": ["fedavg", "fedprox", "scaffold", "fednova"],
                    "rounds": 2, "parties": 10, "sample_fraction": 0.5,
                    "local_epochs": 2, "batch_size": 64, "seed": 3},
            "sweeps": {"mu": [0.01, 0.1]},
            "trials": 2,
        }
    elif shape == "objective replaced":
        monkeypatch.setattr(engine, "MlpObjective", Replaced)
    config = parse_config(raw)
    monkeypatch.setattr(harness, "BLAS_THREADS", 1)
    use_cpus(monkeypatch, 2)
    log = count_forks(tmp_path, monkeypatch)
    out = tmp_path / "out"
    if shape == "off the main thread":
        thread = threading.Thread(target=cmd_run, args=(config, out))
        thread.start()
        thread.join(60)
        assert not thread.is_alive()
    else:
        cmd_run(config, out)
    assert_no_child_process()
    forks = log.read_text().split()
    expected = {"sweep-grid": 1, "sharded": 1}.get(shape, 0)
    assert forks == [str(os.getpid())] * expected
    assert (out / "summary.csv").exists()


@needs_fork
def test_an_error_in_a_shard_reaches_the_caller(tmp_path, deadline, monkeypatch):
    # A shard worker's exception is raised here with its type and message,
    # and the worker is reaped before cmd_run ends.
    config = parse_config(WIDE)
    monkeypatch.setattr(harness, "BLAS_THREADS", 1)
    use_cpus(monkeypatch, 2)
    caller = os.getpid()
    real_train_cohorts = engine._train_cohorts

    def failing(*args):
        if os.getpid() != caller:
            raise ValueError("shard stopped")
        return real_train_cohorts(*args)

    monkeypatch.setattr(engine, "_train_cohorts", failing)
    with pytest.raises(ValueError, match="^shard stopped$"):
        cmd_run(config, tmp_path / "out")
    assert_no_child_process()


def test_shard_bounds_are_contiguous_and_balanced():
    assert engine._shard_bounds([5, 5, 5, 5], 2) == [0, 2, 4]
    assert engine._shard_bounds([10, 1, 1, 1], 2) == [0, 1, 4]
    assert engine._shard_bounds([1, 1, 1, 10], 2) == [0, 3, 4]
    assert engine._shard_bounds([1, 2, 3], 3) == [0, 1, 2, 3]
    # Every shard holds at least one cohort, however the weight lies.
    assert engine._shard_bounds([100, 0, 0, 0], 3) == [0, 1, 2, 4]
    assert engine._shard_bounds([0, 0, 0, 100], 3) == [0, 2, 3, 4]


# Run in a fresh interpreter with the CPUs in argv[1], so that BLAS sizes
# its thread pool from them, as it does for a user's process.
RUN_ON_CPUS = """
import os, sys
os.sched_setaffinity(0, {int(cpu) for cpu in sys.argv[1].split(",")})
from fedsim.config import load_config
from fedsim.harness import cmd_run
cmd_run(load_config(sys.argv[2]), sys.argv[3])
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_the_bytes_do_not_depend_on_the_cpus_blas_may_use(tmp_path):
    # With no BLAS thread count set, OpenBLAS would start one thread per
    # CPU it may use, and a 784-wide model's sums would then depend on the
    # CPUs; fedsim runs BLAS at one thread, so one CPU and two write the
    # same records.
    raw = {
        "dataset": {"type": "blobs", "n_classes": 10, "n_per_class": 40, "dim": 784,
                    "spread": 0.3, "seed": 3},
        "partition": {"type": "label_dirichlet", "beta": 0.5},
        "arch": {"hidden": [200]},
        "fed": {"algorithms": ["fednova"], "rounds": 4, "parties": 4, "local_epochs": 1,
                "batch_size": 64, "lr": 0.01, "seed": 5},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    env = {name: value for name, value in os.environ.items()
           if name not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(Path(fedsim.__file__).parents[1])
    two = sorted(os.sched_getaffinity(0))[:2]
    results = []
    for cpus in (two[:1], two):
        out = tmp_path / f"cpus{len(cpus)}"
        subprocess.run([sys.executable, "-c", RUN_ON_CPUS, ",".join(map(str, cpus)),
                        str(config_path), str(out)], env=env, check=True, timeout=120,
                       capture_output=True)
        results.append(mask_wall((out / "results.jsonl").read_text()))
    assert results[0] == results[1]


# Prints BLAS_THREADS, OPENBLAS_NUM_THREADS as fedsim leaves it, and the
# thread count of numpy's bundled OpenBLAS (None where it has no getter),
# with numpy imported before fedsim if argv[1] says so.
PROBE_THREADS = """
import ctypes, glob, os, sys
if sys.argv[1] == "numpy first":
    import numpy
import fedsim, numpy
count = None
for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                   "numpy.libs", "*openblas*")):
    getter = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
    if getter is not None:
        getter.argtypes, getter.restype = [], ctypes.c_int
        count = getter()
print(fedsim.BLAS_THREADS, os.environ.get("OPENBLAS_NUM_THREADS"), count)
"""


@pytest.mark.parametrize("order", ["fedsim first", "numpy first"])
def test_blas_runs_at_the_users_thread_count_or_one(order):
    # Checked in fresh interpreters, since the count is fixed at import. A
    # count the user set is left alone; with none, BLAS runs at one thread
    # whether or not numpy loaded first.
    env = {name: value for name, value in os.environ.items()
           if name not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(Path(fedsim.__file__).parents[1])
    # (user setting, BLAS_THREADS, OPENBLAS_NUM_THREADS after import); with
    # no setting, the loaded OpenBLAS must also report one thread.
    for setting, expected in (({}, ["1", "1"]), ({"OMP_NUM_THREADS": "2"}, ["2", "None"]),
                              ({"OPENBLAS_NUM_THREADS": "3"}, ["3", "3"])):
        done = subprocess.run([sys.executable, "-c", PROBE_THREADS, order],
                              env={**env, **setting}, check=True, capture_output=True,
                              text=True, timeout=60)
        blas_threads, variable, count = done.stdout.split()
        assert [blas_threads, variable] == expected
        if not setting:
            assert count in ("1", "None")
