"""fedsim benchmark: seeded workloads through `harness.cmd_run`, gated on golden output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It writes the workload's inputs (config,
IDX files) under .perfbench-work/, then, in fresh processes (probe.py):

--trace 0  sets up SETUP_SAMPLES times (import fedsim up to round 1) and runs
           untraced `cmd_run` repeatedly for S seconds, then runs it once
           traced to count local SGD steps exactly. Prints the end-to-end
           metrics of BENCHMARK.json.
--trace 1  alternates untraced and traced `cmd_run` calls for S seconds and
           prints the per-layer metrics, including the tracing overhead.

Every run, traced or not, is checked: masked results.jsonl (wall_ms blanked) and
summary.csv must match golden.json for seeds it holds, and must agree across
all executions of the run for any seed; exact counts must repeat. The last
stdout line is one JSON object: correct, attempted, failed (cells, i.e.
(setting, trial) pairs) and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROBE = os.path.join(HERE, "probe.py")
GOLDEN = os.path.join(HERE, "golden.json")
WORK_DIR = os.path.join(ROOT, ".perfbench-work")

SETUP_SAMPLES = 11
# Time of the calibration kernel (probe.calibrate) in the probes on the
# reference machine, a 2-core Xeon VM, in a quiet period; its wall and CPU
# times there were equal. For the workloads in workloads.CALIBRATED, each wall
# time is scaled by CAL_REF_S / the kernel's wall time in the same process,
# and cpu_s by CAL_REF_S / the kernel's CPU time, which takes out
# machine-speed drift; raw medians are printed next to the scaled ones.
CAL_REF_S = 0.114
DEADLINE_S = 170.0  # the whole run, set-up and checks included
BLAS_THREADS = "1"  # fixed so parent and change run identical BLAS code paths
SPREAD_NOTE = (
    "shared, unpinned machine; run-to-run spread is large: 50-round fcube runs of "
    "the seed code ranged 5.3-8.1 s in one sitting and 6.9-7.4 s in another, and "
    "20-round medians drifted 2.5-4.0 s within minutes, hence the calibration scaling"
)

WALL_MS = re.compile(r'"wall_ms": -?\d+')

now = time.perf_counter


class ProbeFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    return env


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
        "note": SPREAD_NOTE,
    }


class Runner:
    """Starts probe processes until the run's deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()

    def probe(self, mode: str, *args: str) -> dict:
        timeout = max(1.0, self.deadline - now())
        try:
            proc = subprocess.run(
                [sys.executable, PROBE, mode, *args], capture_output=True,
                text=True, timeout=timeout, env=self.env, cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            raise ProbeFailed(f"{mode} probe killed after {timeout:.0f} s") from None
        if proc.returncode != 0:
            tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
            raise ProbeFailed(f"{mode} probe exited {proc.returncode}: {tail}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def expected_cells(raw: dict) -> int:
    sweeps = raw.get("sweeps", {})
    per_epoch = sum(
        len(sweeps.get("mu", [None])) if algorithm == "fedprox" else 1
        for algorithm in raw["fed"]["algorithms"]
    )
    return per_epoch * len(sweeps.get("local_epochs", [None])) * raw.get("trials", 1)


def read_outputs(out_dir: str, rounds: int) -> dict:
    """Per-cell hashes of masked results.jsonl, the summary hash, exact counts
    and any broken invariant."""
    with open(os.path.join(out_dir, "results.jsonl"), encoding="ascii") as fh:
        lines = fh.read().splitlines()
    with open(os.path.join(out_dir, "summary.csv"), encoding="ascii") as fh:
        summary = fh.read()
    cells, problems = [], []
    diverged = n_bytes = 0
    for line in lines:
        record = json.loads(line)
        key = (record["algorithm"], record["mu"], record["local_epochs"], record["trial"])
        if not cells or cells[-1][0] != key:
            cells.append((key, []))
        cells[-1][1].append(WALL_MS.sub('"wall_ms": null', line))
        diverged += record["diverged"]
        n_bytes += record["bytes"]
        if not 0.0 <= record["test_accuracy"] <= 1.0:
            problems.append(f"accuracy {record['test_accuracy']} outside [0, 1]")
        if (record["round"] == 0) != (record["bytes"] == 0):
            problems.append(f"round {record['round']} reports {record['bytes']} bytes")
    for key, cell in cells:
        if len(cell) != rounds + 1:
            problems.append(f"cell {key} has {len(cell)} records, expected {rounds + 1}")
    return {
        "cells": [_sha("\n".join(cell))[:16] for _, cell in cells],
        "summary": _sha(summary),
        "counts": {
            "cells": len(cells), "records": len(lines),
            "diverged_rounds": diverged, "bytes": n_bytes,
        },
        "problems": problems,
    }


# Exact counts only the traced run can make; each must repeat exactly.
TRACED_COUNTS = ("nn.steps", "compensated.coord_terms", "engine.diverged_parties")
# Traced counts that must equal what the results files say.
SAME_AS_RESULTS = (
    ("engine.bytes", "bytes"), ("harness.cells", "cells"),
    ("engine.diverged_rounds", "diverged_rounds"),
)


class Check:
    """Compares every execution's outputs with the golden entry, or with the
    first execution when the seed has none, and collects failures."""

    def __init__(self, golden: dict | None, n_cells: int):
        self.reference = golden
        self.has_golden = golden is not None
        self.n_cells = n_cells
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def raised(self, what: str, exc: Exception) -> None:
        self.attempted += self.n_cells
        self.failed += self.n_cells
        self.problems.append(f"{what}: {exc}")

    def outputs(self, what: str, out: dict, traced_counts: dict | None = None) -> None:
        counts = dict(out["counts"])
        if traced_counts is not None:
            # Results and traced counts must tell the same story.
            for name, same_as in SAME_AS_RESULTS:
                if traced_counts.get(name, 0) != counts[same_as]:
                    self.problems.append(
                        f"{what}: {name}={traced_counts.get(name, 0)} but results say "
                        f"{same_as}={counts[same_as]}"
                    )
            counts.update({name: traced_counts.get(name, 0) for name in TRACED_COUNTS})
        self.problems.extend(f"{what}: {p}" for p in out["problems"])
        if self.reference is None:
            self.reference = {"cells": out["cells"], "summary": out["summary"], "counts": counts}
        ref = self.reference
        self.attempted += self.n_cells
        if len(out["cells"]) != len(ref["cells"]):
            bad = self.n_cells
        else:
            bad = sum(a != b for a, b in zip(out["cells"], ref["cells"]))
        if bad == 0 and out["summary"] != ref["summary"]:
            bad = self.n_cells
        self.failed += min(bad, self.n_cells)
        if bad:
            self.problems.append(f"{what}: {bad} cell(s) differ from the reference output")
        for name, value in counts.items():
            if name in ref["counts"] and ref["counts"][name] != value:
                self.problems.append(
                    f"{what}: exact count {name}={value}, reference {ref['counts'][name]}"
                )
            elif name not in ref["counts"]:
                ref["counts"][name] = value

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems and self.attempted > 0


def summarize(values: list[float]) -> str:
    """Median, quartiles and the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.6g}"
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f", q1 {q1:.6g}, q3 {q3:.6g}"
    tail = [p for p in (99.9, 99, 95, 90) if n * (100 - p) / 100 >= 10]
    if tail:
        p = tail[0]
        text += f", p{p:g} {float(np.percentile(values, p)):.6g}"
    else:
        text += ", no tail percentile (fewer than 10 samples beyond p90)"
    return text + f"; n={n}"


class Bench:
    """One benchmark run of one workload and seed, in its own work directory."""

    def __init__(self, args, work: str, golden: dict | None):
        self.args = args
        self.work = work
        self.runner = Runner(now() + DEADLINE_S)
        self.config, self.data_files = workloads.generate(args.workload, args.seed, work)
        with open(self.config, encoding="utf-8") as fh:
            self.raw = json.load(fh)
        self.check = Check(golden, expected_cells(self.raw))
        self.calibrated = args.workload in workloads.CALIBRATED
        self.report: list[str] = []

    def execute(self, mode: str) -> dict | None:
        """One "run" (untraced cmd_run) or "trace" (traced cmd_run) probe, with
        its outputs checked; None if it failed."""
        out_dir = tempfile.mkdtemp(dir=self.work)
        try:
            sample = self.runner.probe(mode, self.config, out_dir)
            self.check.outputs(
                mode, read_outputs(out_dir, self.raw["fed"]["rounds"]), sample.get("counts")
            )
            return sample
        except (ProbeFailed, OSError, ValueError, KeyError) as exc:
            self.check.raised(mode, exc)
            return None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def note(self, name: str, values: list[float], unit: str) -> None:
        if values:
            self.report.append(f"# {name} [{unit}]: {summarize(values)}")

    def end_to_end(self) -> dict:
        # One untimed process first, so every timed one finds compiled
        # bytecode and warm file caches.
        self.runner.probe("setup", self.config)
        setups = [self.runner.probe("setup", self.config) for _ in range(SETUP_SAMPLES)]
        runs = []
        started = now()
        while not runs or now() - started < self.args.seconds:
            sample = self.execute("run")
            if sample is None:
                break
            runs.append(sample)
        traced = self.execute("trace")
        steps = traced["counts"]["nn.steps"] if traced else 0
        self.report.append(f"# nn.steps (traced run, exact): {steps}")
        self.note("raw setup_s", [s["setup_s"] for s in setups], "s")
        self.note("raw run_s", [r["run_s"] for r in runs], "s")
        self.note("raw cpu_s", [r["cpu_s"] for r in runs], "s")
        self.note("calibration kernel", [r["cal_s"] for r in setups + runs], "s")
        self.note("calibration kernel CPU", [r["cal_cpu_s"] for r in setups + runs], "s")

        def scaled(samples, key, cal="cal_s"):
            if not self.calibrated:
                return [s[key] for s in samples]
            return [s[key] * CAL_REF_S / s[cal] for s in samples]

        run_s = scaled(runs, "run_s")
        series = {
            "setup_s": (scaled(setups, "setup_s"), "s"),
            "run_s": (run_s, "s"),
            "steps_per_s": ([steps / x for x in run_s], "1/s"),
            "cpu_s": (scaled(runs, "cpu_s", "cal_cpu_s"), "s"),
            "peak_rss_mb": ([r["peak_rss_mb"] for r in runs], "MB"),
        }
        for name, (values, unit) in series.items():
            self.note(name, values, unit)
        return {
            name: (statistics.median(values) if values else 0.0, unit)
            for name, (values, unit) in series.items()
        }

    def per_layer(self) -> dict:
        runs, traces = [], []
        started = now()
        while not traces or now() - started < self.args.seconds:
            run, traced = self.execute("run"), self.execute("trace")
            if run is None or traced is None:
                break
            runs.append(run)
            traces.append(traced)
        if not traces:
            return {}

        def pooled(name):
            return [x for r in traces for x in r["seconds"].get(name, [])]

        def per_trace(fn):
            return statistics.median(fn(r) for r in traces)

        counts = traces[0]["counts"]
        steps = counts["nn.steps"]
        loss_grad = pooled("nn.loss_grad")
        for name in ("nn.loss_grad", "engine.local_train", "engine.aggregate", "engine.round", "nn.predict",
                     "partition.build", "harness.cell", "datasets.load", "config.parse"):
            self.note(name, pooled(name), "s")
        traced_s = [r["run_s"] for r in traces]
        untraced_s = [r["run_s"] for r in runs]
        self.note("traced run_s", traced_s, "s")
        self.note("untraced run_s", untraced_s, "s")
        ms, us = 1e3, 1e6
        metrics = {
            "nn.loss_grad_us": (statistics.median(loss_grad) * us, "us"),
            "nn.loss_grad_us_p90": (float(np.percentile(loss_grad, 90)) * us, "us"),
            "nn.steps": (steps, "count"),
            "nn.step_mflop": (counts["nn.step_flops"] / max(steps, 1) / 1e6, "MFLOP"),
            "nn.predict_ms": (statistics.median(pooled("nn.predict")) * ms, "ms"),
            "nn.eval_rows": (counts["nn.eval_rows"], "count"),
            "engine.local_train_ms": (
                statistics.median(pooled("engine.local_train")) * ms, "ms"),
            "engine.self_us_per_step": (per_trace(
                lambda r: (sum(r["seconds"]["engine.local_train"])
                           - sum(r["seconds"]["nn.loss_grad"])) / max(steps, 1)) * us, "us"),
            "engine.aggregate_ms": (statistics.median(pooled("engine.aggregate")) * ms, "ms"),
            "engine.bytes_per_round": (counts["engine.bytes"] / counts["engine.rounds"], "B"),
            "engine.parties_per_round": (
                counts["engine.party_rounds"] / counts["engine.rounds"], "count"),
            "engine.diverged_parties": (counts.get("engine.diverged_parties", 0), "count"),
            "engine.diverged_rounds": (counts.get("engine.diverged_rounds", 0), "count"),
            "compensated.coord_terms": (counts["compensated.coord_terms"], "count"),
            "compensated.ns_per_coord_term": (per_trace(
                lambda r: sum(r["seconds"]["engine.aggregate"])
                / r["counts"]["compensated.coord_terms"]) * 1e9, "ns"),
            "datasets.load_ms": (statistics.median(pooled("datasets.load")) * ms, "ms"),
            "datasets.bytes_read": (sum(os.path.getsize(p) for p in self.data_files), "B"),
            "partition.build_ms": (statistics.median(pooled("partition.build")) * ms, "ms"),
            "partition.rows_copied": (counts["partition.rows_copied"], "count"),
            "config.parse_ms": (statistics.median(pooled("config.parse")) * ms, "ms"),
            "harness.cells": (counts["harness.cells"], "count"),
            "harness.cell_s": (statistics.median(pooled("harness.cell")), "s"),
            "harness.overhead_ms": (per_trace(
                lambda r: r["run_s"] - sum(r["seconds"]["harness.cell"])) * ms, "ms"),
            "trace.overhead_ms": (
                (statistics.median(traced_s) - statistics.median(untraced_s)) * ms, "ms"),
        }
        return metrics

    def run(self) -> dict:
        args = self.args
        self.report.append(
            f"# fedsim benchmark: workload={args.workload} seed={args.seed} "
            f"seconds={args.seconds} trace={args.trace}"
        )
        self.report.append(f"# env: {json.dumps(environment())}")
        try:
            metrics = self.per_layer() if args.trace else self.end_to_end()
        except ProbeFailed as exc:
            self.check.raised("setup", exc)
            metrics = {}
        check = self.check
        rate = check.failed / check.attempted if check.attempted else 1.0
        reference = ("golden.json entry" if check.has_golden else
                     "no golden.json entry for this seed, so executions were checked "
                     "against each other")
        self.report.append(
            f"# cells: attempted {check.attempted}, failed {check.failed}, "
            f"error_rate {rate:.4g}; reference: {reference}"
        )
        if check.reference is not None:
            self.report.append(
                f"# exact counts: {json.dumps(check.reference['counts'], sort_keys=True)}")
        self.report.extend(f"# FAILED: {p}" for p in check.problems)
        return {
            "correct": check.correct,
            "attempted": max(check.attempted, 1),
            "failed": check.failed if check.attempted else 1,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


@contextlib.contextmanager
def work_dir(workload: str, seed: int):
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK_DIR)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fedsim", "__init__.py")):
        print(f"error: no fedsim sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    golden = load_golden().get(args.workload, {}).get(str(args.seed))
    with work_dir(args.workload, args.seed) as work:
        bench = Bench(args, work, golden)
        result = bench.run()
    print("\n".join(bench.report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
