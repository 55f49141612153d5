"""Config-driven experiment harness behind the CLI.

Commands: materialize a partition (text + stats CSV), run a sweep of
federation experiments (JSONL records + summary CSV), render a comparison
report over saved results, and self-check gradients against finite
differences. Everything except wall-clock fields is reproducible byte for
byte from (config, seed) and the BLAS thread count (one unless the user
sets one; see fedsim.BLAS_THREADS), whatever number of processes a sweep
trains in: cmd_run trains trials at once and, where CPUs are left over,
engine.run_group shards each round's cohorts, both on persistent forked
workers (fedsim.workers.serving) whose dispatch hands the caller or a
worker the next unit of work whenever it is free. cmd_run writes every
output line itself, in the order one process would.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import sys
import time
from dataclasses import replace

import numpy as np

from . import BLAS_THREADS, engine, rng
from .config import ExperimentConfig
from .datasets import (
    LabeledDataset,
    blobs_generate,
    fcube_generate,
    read_idx,
    read_libsvm,
    split_train_test,
)
from .engine import (
    ALGORITHMS,
    check_datasets,
    partition_seed,
    run_experiment,
    run_group,
    trains_in_lockstep,
    trains_in_workers,
)
from .errors import ConfigError, OutputError, ReportError
from .nn import MlpArch, backward, finite_diff_grad, init_mlp
from .partition import build_views, export_partition, export_stats_csv, partition_stats
from .workers import serving

RESULTS_FILE = "results.jsonl"
SUMMARY_FILE = "summary.csv"
REPORT_FILE = "report.csv"
WINS_FILE = "wins.csv"
CURVES_DIR = "curves"

# Keys cmd_report reads from every results record, with the JSON types each
# may hold (a bool is never taken for a number, and a float must be finite).
# An algorithm must also be one of engine.ALGORITHMS.
RECORD_KEYS = {
    "trial": (int,), "round": (int,), "algorithm": (str,), "mu": (int, float, type(None)),
    "local_epochs": (int,), "test_accuracy": (int, float),
    "mean_train_loss": (int, float, type(None)), "bytes": (int,),
}

GRADCHECK_CASES = 100
GRADCHECK_TOLERANCE = 1e-4
GRADCHECK_STEP = 1e-5
GRADCHECK_SEED = 7


def build_dataset(config: ExperimentConfig) -> tuple[LabeledDataset, LabeledDataset]:
    """Materialize (train, test) from the config's resolved dataset options."""
    kind, options, seed = config.dataset.kind, config.dataset.options, config.dataset_seed
    if kind == "fcube":
        return fcube_generate(options["n_train"], options["n_test"], seed)
    if kind == "blobs":
        ds = blobs_generate(
            n_classes=options["n_classes"],
            n_per_class=options["n_per_class"],
            dim=options["dim"],
            spread=options["spread"],
            seed=seed,
        )
        return split_train_test(ds, options["test_fraction"], rng.derive_seed(seed, 1))
    if kind == "idx":
        train = read_idx(options["train_images"], options["train_labels"])
        test = read_idx(options["test_images"], options["test_labels"])
        return train, test
    if kind == "libsvm":
        shape = (options["n_features"], options["n_classes"], options["label_map"])
        full = read_libsvm(options["train_path"], *shape)
        if options["test_path"] is not None:
            return full, read_libsvm(options["test_path"], *shape)
        return split_train_test(full, options["test_fraction"], rng.derive_seed(seed, 1))
    raise ConfigError(f"unknown dataset kind {kind!r}")


@contextlib.contextmanager
def _writing(path):
    """Raise an OSError of the block, which makes or writes path or files
    in it, as an OutputError that names the file."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write {exc.filename or path}: {exc.strerror or exc}") from None


def _trial_seed(master_seed: int, trial: int) -> int:
    """Master seed of one trial's runs; partition and run both derive from it."""
    return rng.derive_seed(master_seed, rng.TAG_TRIAL, trial)


def cmd_partition(config: ExperimentConfig, out_dir) -> dict:
    """Write the partition index file and its class-count CSV; print a summary.

    The partition is the one trial 0 of `cmd_run` trains on.
    """
    train, _ = build_dataset(config)
    pmap, _ = build_views(
        train,
        config.partition,
        config.fed.n_parties,
        partition_seed(_trial_seed(config.fed.master_seed, 0)),
    )
    stats = partition_stats(pmap, train)
    partition_path = os.path.join(out_dir, "partition.txt")
    stats_path = os.path.join(out_dir, "partition_stats.csv")
    with _writing(out_dir):
        os.makedirs(out_dir, exist_ok=True)
        export_partition(pmap, train.n, partition_path)
        export_stats_csv(stats, stats_path)
    print(
        f"partitioned {train.n} samples over {pmap.n_parties} parties "
        f"({config.partition.kind}): size_cv={stats.size_cv:.4f} "
        f"label_tv={stats.mean_label_tv:.4f}"
    )
    return {"partition": partition_path, "stats": stats_path}


def _json_float(value) -> float | None:
    if value is None or not math.isfinite(value):
        return None
    return float(value)


def _print_progress(done, n_runs, cell, trial, records, seconds) -> None:
    """One stderr line per finished (cell, trial) run; not part of any output
    file. seconds is the time its lockstep group took, so the cells of one
    group print the same time."""
    diverged = sum(record.diverged for record in records)
    mu_txt = "-" if cell.mu is None else repr(cell.mu)
    print(
        f"cell {done}/{n_runs}: {cell.algorithm} mu={mu_txt} "
        f"E={cell.local_epochs} trial={trial} "
        f"final_accuracy={records[-1].test_accuracy:.4f} "
        f"diverged_rounds={diverged} {seconds:.2f}s",
        file=sys.stderr,
        flush=True,
    )


def _lockstep_groups(config: ExperimentConfig, together: bool) -> list[list[tuple]]:
    """The (cell, trial) runs in the order they train, trial by trial, as
    groups that train together: each trial's cells as one group, or when
    together is False each run alone. A config's cells differ only in
    algorithm, local epochs and mu, so a trial's cells can always share
    one engine.run_group."""
    runs = [(cell, trial) for trial in range(config.trials) for cell in config.cells]
    size = len(config.cells) if together else 1
    return [runs[lo : lo + size] for lo in range(0, len(runs), size)]


def _usable_cpus() -> int:
    """The number of CPUs this process may run on: how many processes
    cmd_run trains in at once, at most."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_config(cell, trial: int):
    return replace(cell, master_seed=_trial_seed(cell.master_seed, trial))


def _record_lines(cell, trial: int, records) -> str:
    """The results.jsonl lines of one (cell, trial) run."""
    return "".join(
        json.dumps({
            "trial": trial,
            "round": record.round,
            "algorithm": cell.algorithm,
            "mu": cell.mu,
            "local_epochs": cell.local_epochs,
            "test_accuracy": record.test_accuracy,
            "mean_train_loss": _json_float(record.mean_train_loss),
            "bytes": record.bytes,
            "wall_ms": record.wall_ms,
            "diverged": record.diverged,
        }) + "\n"
        for record in records
    )


def cmd_run(config: ExperimentConfig, out_dir) -> dict:
    """Run the config's cells x trials; write JSONL records and a summary CSV.

    Per (cell, trial) the run seed derives only from (master seed, trial),
    so algorithms see identical partitions, initial models and batch orders.
    That lets the cells of one trial train in lockstep: engine.run_group
    builds the trial's partition and initial model once and steps every
    cell's copy of a party with one kernel call, with each cell's records
    exactly as it would have alone. Each trial's cells form one group, so
    every cohort shares the trial's one training pair and step settings.
    When the objective cannot stack (engine.trains_in_lockstep, asked of an
    engine.MlpObjective), each (cell, trial) run goes alone through
    run_experiment instead, in the same trial-major order. A record's
    wall_ms and a progress line's seconds cover the whole group.

    The groups (or lone runs) are independent, so as many of them as this
    process may use CPUs (_usable_cpus) train at once: this process and the
    worker processes it forks once (workers.serving), one per further group
    at once, each take the next group from the serving block's dispatch
    whenever they are free. A worker shares the datasets copy-on-write and
    sends back only its group's records and seconds. Every record and
    progress line is written here, in the order one process trains in, so
    the output files are byte for byte the same however many train at once.
    Each group gets the CPUs left over, usable CPUs // groups at once //
    fedsim.BLAS_THREADS, as shards: engine.run_group trains each round's
    cohorts in that many processes, this one and forked shard workers, when
    a round can have two cohorts (a one-trial wide run such as the
    benchmark's wide-idx, not fcube-prox's one stacked cohort), so that
    shards times BLAS threads never exceeds the CPUs. There is no knob for
    either count. Only an objective that engine.trains_in_workers is trained
    in workers: fedsim's own stacking MlpObjective, where workers.can_fork
    holds. A replaced engine.MlpObjective, such as the traced benchmark's,
    may keep counts in this process, and off the main thread Python raises
    no KeyboardInterrupt. With any other objective, one usable CPU, no
    os.fork or off the main thread, nothing forks and every group trains
    here, one after another. To use fewer processes, restrict the CPUs
    (taskset -c 0): BLAS runs at one thread unless the user sets a count, so
    the CPUs change no output bit. An exception a worker raises,
    KeyboardInterrupt included, is raised here with its type and message
    once every group before it is written; before cmd_run returns or raises,
    every worker has ended and been reaped, and a worker whose caller is
    killed exits too.

    The dataset is built and checked against the architecture before the
    output directory is made, so a dataset that cannot be trained on (a
    missing file, an empty training or test set, a width or label that does
    not fit the model) leaves nothing behind. A partition that cannot be
    built (too few classes for labels_per_party, a min_size no draw meets)
    only shows when a group builds its views, after --out exists. Any
    results.jsonl or summary.csv already in --out is removed before the
    first group trains, so a sweep that fails leaves no earlier sweep's
    files beside its own. Each group's records are appended to results.jsonl
    as soon as it and every group before it have finished (the file is made
    then), so a sweep that stops part way keeps the records of every run
    that finished. Where the runs train in another order than cell-major
    (more than one cell and trial), their lines stay in memory too, and once
    every run has finished, results.jsonl is rewritten from them in
    cell-major order (staged, then renamed over it). Diverged runs are
    flagged in their records, never fatal. Each finished run prints one
    progress line to stderr.
    """
    train, test = build_dataset(config)
    arch = MlpArch((train.n_features, *config.hidden, train.n_classes))
    check_datasets(train, test, arch)
    results_path = os.path.join(out_dir, RESULTS_FILE)
    summary_path = os.path.join(out_dir, SUMMARY_FILE)
    with _writing(out_dir):
        os.makedirs(out_dir, exist_ok=True)
    for stale in (results_path, summary_path):
        with _writing(stale), contextlib.suppress(FileNotFoundError):
            os.remove(stale)

    # Looked up at call time, so a replaced engine.MlpObjective decides too.
    objective = engine.MlpObjective(arch)
    together = trains_in_lockstep(objective)
    groups = _lockstep_groups(config, together)
    cpus = _usable_cpus()
    jobs = min(cpus, len(groups)) if trains_in_workers(objective) else 1
    shards = max(1, cpus // jobs // BLAS_THREADS)

    def train_group(group):
        started = time.perf_counter()
        cfgs = [_run_config(cell, trial) for cell, trial in group]
        if together:
            outcomes = run_group(train, test, config.partition, arch, cfgs, objective, shards)
        else:
            outcomes = [run_experiment(train, test, config.partition, arch, cfgs[0], None, shards)]
        return outcomes, time.perf_counter() - started

    runs = [(cell, trial) for cell in config.cells for trial in range(config.trials)]
    # Each finished run's results.jsonl lines, kept for a cell-major rewrite
    # only where the runs train in another order, and its final accuracy.
    regroup = [run for group in groups for run in group] != runs
    lines, finals = {}, {}
    with serving(train_group, jobs - 1) as dispatch:
        for group, (outcomes, seconds) in zip(groups, dispatch(groups)):
            for run, records in zip(group, outcomes):
                lines[run] = _record_lines(*run, records).encode("ascii")
                finals[run] = records[-1].test_accuracy
                _print_progress(len(finals), len(runs), *run, records, seconds)
            with _writing(results_path), open(results_path, "ab") as fh:
                fh.writelines(lines[run] if regroup else lines.pop(run) for run in group)
            # The records are in lines; the next group need not hold them.
            del outcomes
    if regroup:
        staged = results_path + ".tmp"
        with _writing(staged), open(staged, "wb") as fh:
            fh.writelines(lines[run] for run in runs)
        with _writing(results_path):
            os.replace(staged, results_path)

    with _writing(summary_path), open(summary_path, "w", encoding="ascii") as fh:
        fh.write("algorithm,mu,local_epochs,trials,final_accuracy_mean,final_accuracy_std\n")
        for cell in config.cells:
            values = np.array([finals[cell, trial] for trial in range(config.trials)])
            std = float(values.std(ddof=1)) if values.size > 1 else 0.0
            mu_txt = "" if cell.mu is None else repr(cell.mu)
            fh.write(
                f"{cell.algorithm},{mu_txt},{cell.local_epochs},"
                f"{values.size},{float(values.mean())!r},{std!r}\n"
            )
    return {"results": results_path, "summary": summary_path}


def _record_value_ok(key: str, value, kinds) -> bool:
    if isinstance(value, bool) or not isinstance(value, kinds):
        return False
    if isinstance(value, float):
        return math.isfinite(value)
    return key != "algorithm" or value in ALGORITHMS


def _read_records(path) -> list[dict]:
    """The records of one results file. ReportError names the file, and the
    line of a record that is not ASCII, not a JSON object, lacks a key or
    holds a value that RECORD_KEYS refuses (and then names the key)."""
    records = []
    try:
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                where = f"{path}, line {lineno}"
                try:
                    record = json.loads(line.decode("ascii"))
                except UnicodeDecodeError:
                    raise ReportError(f"{where}: non-ASCII bytes") from None
                except json.JSONDecodeError as exc:
                    raise ReportError(f"{where}: not valid JSON ({exc.msg})") from None
                if not isinstance(record, dict):
                    raise ReportError(f"{where}: expected a JSON object")
                missing = [key for key in RECORD_KEYS if key not in record]
                if missing:
                    raise ReportError(f"{where}: record lacks {', '.join(missing)}")
                for key, kinds in RECORD_KEYS.items():
                    value = record[key]
                    if not _record_value_ok(key, value, kinds):
                        raise ReportError(f"{where}: {key} cannot be {json.dumps(value)}")
                records.append(record)
    except OSError as exc:
        raise ReportError(f"cannot read {path}: {exc}") from None
    return records


def _load_results(results_dir):
    """Yield (source, record) for every record of every .jsonl file, in name
    order. A file's source is its stem, which must be printable ASCII with no
    comma or double quote: it becomes a report.csv field and part of each of
    its curves' file names."""
    try:
        names = sorted(
            name for name in os.listdir(results_dir) if name.endswith(".jsonl")
        )
    except OSError as exc:
        raise ReportError(f"cannot list {results_dir}: {exc}") from None
    for name in names:
        path, source = os.path.join(results_dir, name), name[: -len(".jsonl")]
        if not (source.isascii() and source.isprintable()) or {",", '"'} & set(source):
            raise ReportError(f"{path}: file name must be printable ASCII, no comma or quote")
        yield from ((source, record) for record in _read_records(path))


def cmd_report(results_dir) -> dict:
    """Pivot saved results into algorithms x settings with a wins tally.

    Rows are (source file, local epochs); each cell is the mean final
    accuracy over trials, maximized over mu where a mu sweep exists. A run's
    final accuracy is that of the first record of its highest round. The
    best algorithm(s) per row are marked and counted. report.csv, wins.csv
    and the printed table are all written from one list of rows.
    """
    # Every record of each (source, epochs, algorithm, mu, trial) run.
    curves: dict[tuple, list] = {}
    for source, record in _load_results(results_dir):
        key = (
            source, record["local_epochs"], record["algorithm"], record["mu"],
            record["trial"],
        )
        curves.setdefault(key, []).append(record)
    if not curves:
        raise ReportError(f"no .jsonl results under {results_dir}")
    algorithms = sorted({algorithm for _, _, algorithm, _, _ in curves})

    # Mean over trials, then best over mu; then each setting's winners.
    by_setting: dict[tuple, dict[str, dict]] = {}
    for (source, epochs, algorithm, mu, _trial), records in curves.items():
        final = max(records, key=lambda r: r["round"])["test_accuracy"]
        by_algorithm = by_setting.setdefault((source, epochs), {})
        by_algorithm.setdefault(algorithm, {}).setdefault(mu, []).append(final)
    rows = []
    for setting in sorted(by_setting):
        cells = {
            algorithm: max(float(np.mean(accs)) for accs in by_mu.values())
            for algorithm, by_mu in by_setting[setting].items()
        }
        best = max(cells.values())
        rows.append((setting, cells, [a for a in algorithms if cells.get(a) == best]))
    wins = {a: sum(a in winners for _, _, winners in rows) for a in algorithms}

    report_path = os.path.join(results_dir, REPORT_FILE)
    with _writing(report_path), open(report_path, "w", encoding="ascii") as fh:
        fh.write("source,local_epochs," + ",".join(algorithms) + ",best\n")
        for (source, epochs), cells, winners in rows:
            fields = [repr(cells[a]) if a in cells else "" for a in algorithms]
            fh.write(",".join([source, str(epochs), *fields, ";".join(winners)]) + "\n")

    wins_path = os.path.join(results_dir, WINS_FILE)
    with _writing(wins_path), open(wins_path, "w", encoding="ascii") as fh:
        fh.write("algorithm,wins\n")
        fh.writelines(f"{algorithm},{wins[algorithm]}\n" for algorithm in algorithms)

    # The curves are written into a staging directory that then replaces
    # curves/ whole, so no curve of an earlier report outlives it; a report
    # that fails before the swap leaves the old curves/ as it was, and no
    # staging directory.
    curves_dir = os.path.join(results_dir, CURVES_DIR)
    staging = os.path.join(results_dir, f".{CURVES_DIR}.new")
    shutil.rmtree(staging, ignore_errors=True)  # left by a report that was killed
    try:
        with _writing(staging):
            os.mkdir(staging)
        for (source, epochs, algorithm, mu, trial), records in curves.items():
            mu_txt = "none" if mu is None else repr(mu)
            name = f"{source}__{algorithm}__E{epochs}__mu{mu_txt}__t{trial}.csv"
            curve_path = os.path.join(staging, name)
            with _writing(curve_path), open(curve_path, "w", encoding="ascii") as fh:
                fh.write("round,test_accuracy,mean_train_loss,bytes\n")
                for record in sorted(records, key=lambda r: r["round"]):
                    loss = record["mean_train_loss"]
                    fh.write(
                        f"{record['round']},{record['test_accuracy']!r},"
                        f"{'' if loss is None else repr(loss)},{record['bytes']}\n"
                    )
        with _writing(curves_dir):
            if os.path.lexists(curves_dir):
                shutil.rmtree(curves_dir)
            os.rename(staging, curves_dir)
    finally:
        shutil.rmtree(staging, ignore_errors=True)

    print(f"{'source':<24}{'E':>4}  " + "  ".join(f"{a:>10}" for a in algorithms))
    for (source, epochs), cells, winners in rows:
        print(f"{source:<24}{epochs:>4}  " + "".join(
            f"  {cells[a]:>9.4f}{'*' if a in winners else ' '}" if a in cells else " " * 11
            for a in algorithms
        ))
    print("wins: " + ", ".join(f"{a}={wins[a]}" for a in algorithms))
    return {"report": report_path, "wins": wins_path, "curves_dir": curves_dir}


def gradient_check(n_cases: int = GRADCHECK_CASES, seed: int = GRADCHECK_SEED) -> float:
    """Max mixed absolute/relative error between backprop and central
    finite differences over random small nets."""
    if n_cases < 1:
        raise ConfigError(f"gradcheck needs at least 1 case, got {n_cases}")
    if seed < 0:
        raise ConfigError(f"gradcheck seed must be >= 0, got {seed}")
    worst = 0.0
    for case in range(n_cases):
        generator = rng.stream(seed, case)
        depth = int(generator.integers(1, 4))
        dims = [int(generator.integers(2, 7)) for _ in range(depth + 1)]
        dims.append(int(generator.integers(2, 5)))
        arch = MlpArch(tuple(dims))
        params = init_mlp(arch, rng.derive_seed(seed, case, 1))
        params = params + 0.1 * generator.standard_normal(arch.n_params())
        m = int(generator.integers(1, 6))
        features = generator.standard_normal((m, arch.in_dim))
        labels = generator.integers(0, arch.out_dim, size=m)
        _, analytic = backward(params, arch, features, labels)
        numeric = finite_diff_grad(params, arch, features, labels, GRADCHECK_STEP)
        gap = np.abs(analytic - numeric)
        scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
        worst = max(worst, float((gap / scale).max()))
    return worst


def cmd_gradcheck(
    n_cases: int = GRADCHECK_CASES, seed: int = GRADCHECK_SEED
) -> int:
    """Run the gradient self-test; exit code 1 above tolerance."""
    worst = gradient_check(n_cases=n_cases, seed=seed)
    ok = worst < GRADCHECK_TOLERANCE
    print(
        f"gradcheck: {n_cases} cases, max relative error {worst:.3e} "
        f"({'PASS' if ok else 'FAIL'}, tolerance {GRADCHECK_TOLERANCE:g})"
    )
    return 0 if ok else 1
