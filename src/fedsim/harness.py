"""Config-driven experiment harness behind the CLI.

Commands: materialize a partition (text + stats CSV), run a sweep of
federation experiments (JSONL records + summary CSV), render a comparison
report over saved results, and self-check gradients against finite
differences. Everything except wall-clock fields is reproducible byte for
byte from (config, seed).
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import rng
from .config import ExperimentConfig
from .datasets import (
    FcubeSpec,
    LabeledDataset,
    blobs_generate,
    fcube_generate,
    load_container,
    read_idx,
    read_libsvm,
    split_train_test,
)
from .engine import partition_seed, run_experiment
from .errors import ConfigError, ReportError
from .nn import MlpArch, backward, finite_diff_grad, init_mlp, layer_slices
from .partition import build_views, export_partition, export_stats_csv, partition_stats

RESULTS_FILE = "results.jsonl"
SUMMARY_FILE = "summary.csv"
REPORT_FILE = "report.csv"
WINS_FILE = "wins.csv"
CURVES_DIR = "curves"

# Keys cmd_report reads from every results record, with the JSON types each
# may hold (a bool is never taken for a number).
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
        train, test, _ = fcube_generate(
            FcubeSpec(n_train=options["n_train"], n_test=options["n_test"], seed=seed)
        )
        return train, test
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
    if kind == "container":
        return load_container(options["train_path"]), load_container(options["test_path"])
    raise ConfigError(f"unknown dataset kind {kind!r}")


def _trial_seed(master_seed: int, trial: int) -> int:
    """Master seed of one trial's runs; partition and run both derive from it."""
    return rng.derive_seed(master_seed, rng.TAG_TRIAL, trial)


def cmd_partition(config: ExperimentConfig, out_dir) -> dict:
    """Write the partition index file and its class-count CSV; print a summary.

    The partition is the one trial 0 of `cmd_run` trains on.
    """
    os.makedirs(out_dir, exist_ok=True)
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


def _print_progress(done, n_runs, cell, trial, records, started) -> None:
    """One stderr line per finished (cell, trial) run; not part of any output file."""
    diverged = sum(record.diverged for record in records)
    mu_txt = "-" if cell.mu is None else repr(cell.mu)
    print(
        f"cell {done}/{n_runs}: {cell.algorithm} mu={mu_txt} "
        f"E={cell.local_epochs} trial={trial} "
        f"final_accuracy={records[-1].test_accuracy:.4f} "
        f"diverged_rounds={diverged} {time.perf_counter() - started:.2f}s",
        file=sys.stderr,
        flush=True,
    )


def cmd_run(config: ExperimentConfig, out_dir) -> dict:
    """Run the config's cells x trials; write JSONL records and a summary CSV.

    Per (cell, trial) the run seed derives only from (master seed, trial),
    so algorithms see identical partitions, initial models and batch orders.
    Diverged runs are flagged in their records, never fatal. Each finished
    run prints one progress line to stderr.
    """
    os.makedirs(out_dir, exist_ok=True)
    train, test = build_dataset(config)
    arch = MlpArch((train.n_features, *config.hidden, train.n_classes))

    results_path = os.path.join(out_dir, RESULTS_FILE)
    finals = {cell: [] for cell in config.cells}
    runs = [(cell, trial) for cell in config.cells for trial in range(config.trials)]
    with open(results_path, "w", encoding="ascii") as fh:
        for done, (cell, trial) in enumerate(runs, start=1):
            started = time.perf_counter()
            cfg = replace(cell, master_seed=_trial_seed(cell.master_seed, trial))
            records = run_experiment(train, test, config.partition, arch, cfg)
            finals[cell].append(records[-1].test_accuracy)
            _print_progress(done, len(runs), cell, trial, records, started)
            for record in records:
                line = {
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
                }
                fh.write(json.dumps(line) + "\n")

    summary_path = os.path.join(out_dir, SUMMARY_FILE)
    with open(summary_path, "w", encoding="ascii") as fh:
        fh.write("algorithm,mu,local_epochs,trials,final_accuracy_mean,final_accuracy_std\n")
        for cell, accuracies in finals.items():
            values = np.array(accuracies)
            std = float(values.std(ddof=1)) if values.size > 1 else 0.0
            mu_txt = "" if cell.mu is None else repr(cell.mu)
            fh.write(
                f"{cell.algorithm},{mu_txt},{cell.local_epochs},"
                f"{values.size},{float(values.mean())!r},{std!r}\n"
            )
    return {"results": results_path, "summary": summary_path}


def _read_records(path) -> list[dict]:
    """The records of one results file. ReportError names the file, and the
    line of a record that is not ASCII, not a JSON object, lacks a key or
    holds a value of the wrong type (and then names the key)."""
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
                    if isinstance(value, bool) or not isinstance(value, kinds):
                        raise ReportError(f"{where}: {key} cannot be {json.dumps(value)}")
                records.append(record)
    except OSError as exc:
        raise ReportError(f"cannot read {path}: {exc}") from None
    return records


def _load_results(results_dir) -> list[tuple[str, dict]]:
    try:
        names = sorted(
            name for name in os.listdir(results_dir) if name.endswith(".jsonl")
        )
    except OSError as exc:
        raise ReportError(f"cannot list {results_dir}: {exc}") from None
    rows = []
    for name in names:
        records = _read_records(os.path.join(results_dir, name))
        rows.extend((name[: -len(".jsonl")], record) for record in records)
    if not rows:
        raise ReportError(f"no .jsonl results under {results_dir}")
    return rows


def cmd_report(results_dir) -> dict:
    """Pivot saved results into algorithms x settings with a wins tally.

    Rows are (source file, local epochs); each cell is the mean final
    accuracy over trials, maximized over mu where a mu sweep exists. The
    best algorithm(s) per row are marked and counted.
    """
    rows = _load_results(results_dir)

    # Final accuracy per (source, epochs, algorithm, mu, trial): keep the
    # record with the highest round number.
    finals: dict[tuple, tuple[int, float]] = {}
    curves: dict[tuple, list] = {}
    for source, record in rows:
        key = (
            source, record["local_epochs"], record["algorithm"], record["mu"],
            record["trial"],
        )
        best = finals.get(key)
        if best is None or record["round"] > best[0]:
            finals[key] = (record["round"], record["test_accuracy"])
        curves.setdefault(key, []).append(record)

    # Mean over trials, then best over mu.
    by_cell: dict[tuple, dict[float | None, list[float]]] = {}
    algorithms = sorted({record["algorithm"] for _, record in rows})
    for (source, epochs, algorithm, mu, _trial), (_round, acc) in finals.items():
        by_cell.setdefault((source, epochs, algorithm), {}).setdefault(mu, []).append(acc)
    table: dict[tuple, dict[str, float]] = {}
    for (source, epochs, algorithm), by_mu in by_cell.items():
        best = max(float(np.mean(accs)) for accs in by_mu.values())
        table.setdefault((source, epochs), {})[algorithm] = best

    wins = {algorithm: 0 for algorithm in algorithms}
    report_path = os.path.join(results_dir, REPORT_FILE)
    with open(report_path, "w", encoding="ascii") as fh:
        fh.write("source,local_epochs," + ",".join(algorithms) + ",best\n")
        for (source, epochs) in sorted(table):
            cells = table[(source, epochs)]
            best_value = max(cells.values())
            winners = [a for a in algorithms if cells.get(a) == best_value]
            for winner in winners:
                wins[winner] += 1
            fh.write(
                f"{source},{epochs},"
                + ",".join(
                    repr(cells[a]) if a in cells else "" for a in algorithms
                )
                + ","
                + ";".join(winners)
                + "\n"
            )

    wins_path = os.path.join(results_dir, WINS_FILE)
    with open(wins_path, "w", encoding="ascii") as fh:
        fh.write("algorithm,wins\n")
        for algorithm in algorithms:
            fh.write(f"{algorithm},{wins[algorithm]}\n")

    curves_dir = os.path.join(results_dir, CURVES_DIR)
    os.makedirs(curves_dir, exist_ok=True)
    for (source, epochs, algorithm, mu, trial), records in curves.items():
        mu_txt = "none" if mu is None else repr(mu)
        name = f"{source}__{algorithm}__E{epochs}__mu{mu_txt}__t{trial}.csv"
        with open(os.path.join(curves_dir, name), "w", encoding="ascii") as fh:
            fh.write("round,test_accuracy,mean_train_loss,bytes\n")
            for record in sorted(records, key=lambda r: r["round"]):
                loss = record["mean_train_loss"]
                fh.write(
                    f"{record['round']},{record['test_accuracy']!r},"
                    f"{'' if loss is None else repr(loss)},{record['bytes']}\n"
                )

    print(f"{'source':<24}{'E':>4}  " + "  ".join(f"{a:>10}" for a in algorithms))
    for (source, epochs) in sorted(table):
        cells = table[(source, epochs)]
        best_value = max(cells.values())
        line = f"{source:<24}{epochs:>4}  "
        for algorithm in algorithms:
            if algorithm in cells:
                mark = "*" if cells[algorithm] == best_value else " "
                line += f"  {cells[algorithm]:>9.4f}{mark}"
            else:
                line += "           "
        print(line)
    print("wins: " + ", ".join(f"{a}={wins[a]}" for a in algorithms))
    return {"report": report_path, "wins": wins_path, "curves_dir": curves_dir}


def gradient_check(
    n_cases: int = GRADCHECK_CASES,
    seed: int = GRADCHECK_SEED,
    sign_flip_layer: int | None = None,
) -> float:
    """Max mixed absolute/relative error between backprop and central
    finite differences over random small nets.

    sign_flip_layer negates one layer's weight gradient before comparison;
    it exists so tests can prove the check catches a broken gradient.
    """
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
        if sign_flip_layer is not None:
            start, stop, _, _ = layer_slices(arch)[sign_flip_layer]
            analytic[start:stop] *= -1.0
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
