"""Run alternating parent/change pairs of the fedsim benchmark and write
BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --pr N --first-seed S [--note TEXT]

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` once in each checkout, both on the pair's seed, with T the
change's BENCHMARK.json run_seconds. The seeds run from --first-seed up,
PAIRS of them per workload, the workloads one after another in
BENCHMARK.json's order. The parent goes first on even pairs, the change on
odd ones. Before each run every __pycache__ directory under that checkout is
removed, and the run has PYTHONDONTWRITEBYTECODE=1, so neither side reads
or writes a bytecode cache. After the pairs, the change runs each workload
on seed 3 with --trace 0 and with --trace 1, and the file records each of
those runs' golden-check verdict.

The file holds, per workload and per end-to-end metric of the change's
BENCHMARK.json: each side's median and quartiles
(statistics.quantiles(method='inclusive')), how many pairs the change won
(a tie counts for neither), the relative worsening of the change's median
against the parent's (positive is worse) and the metric's bound; then every
run's metrics as its last stdout line gave them, with its correct verdict
and its attempted and failed counts. It is rewritten after every run pair
and seed-3 check, so a run cut short keeps what it finished. Standard
library only; it writes nothing in either checkout but BENCH_<pr>.json in
the change and what perfbench/run.py itself leaves there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# Pairs per workload: a gain claim needs the change to win nine of ten.
PAIRS = 10
# The seed of the golden-checked runs on the change, with each trace mode.
CHECK_SEED = 3


def quartiles(values) -> dict:
    """median, q1 and q3 of values (inclusive method; one value is all three)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload of runs (each {"workload", "pair", "side", "result", ...}
    with the metrics in result): its pair count, whether every run was
    correct, each end_to_end metric's summary over the pairs in which both
    sides report it, and the runs themselves."""
    by_workload: dict[str, list[dict]] = {}
    for run in runs:
        by_workload.setdefault(run["workload"], []).append(run)
    workloads = {}
    for workload, rows in by_workload.items():
        pairs: dict[int, dict] = {}
        for row in rows:
            pairs.setdefault(row["pair"], {})[row["side"]] = row["result"]
        summary = {}
        for metric in end_to_end:
            name = metric["name"]
            both = [(pair["parent"][name], pair["change"][name])
                    for _, pair in sorted(pairs.items())
                    if all(name in pair.get(side, {}) for side in SIDES)]
            if not both:
                continue
            parent, change = (list(side) for side in zip(*both))
            # Positive where the change is worse.
            sign = 1 if metric["better"] == "lower" else -1
            parent_median = statistics.median(parent)
            summary[name] = {
                "parent": quartiles(parent),
                "change": quartiles(change),
                "change_wins": f"{sum(sign * (c - p) < 0 for p, c in both)}/{len(both)}",
                "relative_worsening": round(
                    sign * (statistics.median(change) - parent_median) / parent_median, 4),
                "bound": metric["bound"],
            }
        workloads[workload] = {
            "pairs": len(pairs),
            "all_correct": all(row["result"].get("correct") is True for row in rows),
            "summary": summary,
            "runs": rows,
        }
    return workloads


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> tuple[dict, dict]:
    """(result, environment) of one perfbench/run.py run in checkout: result
    holds each metric's value, correct, attempted and failed, or correct
    False and the error where the run gave no result line."""
    for cache in list(checkout.rglob("__pycache__")):
        shutil.rmtree(cache)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, env=env, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    environment = next((json.loads(line[len("# env: "):]) for line in lines
                        if line.startswith("# env: ")), {})
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        error = (done.stderr.strip().splitlines() or [f"exit code {done.returncode}"])[-1]
        return {"correct": False, "error": error}, environment
    result = {name: entry["value"] for name, entry in last["metrics"].items()}
    result.update(correct=last["correct"], attempted=last["attempted"], failed=last["failed"])
    return result, environment


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    parser.add_argument("--change", type=Path, required=True, help="the change's checkout")
    parser.add_argument("--pr", required=True, help="names the output, BENCH_<pr>.json")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--note", default="", help="what parent and change are")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = benchmark["run_seconds"]
    workloads = [entry["name"] for entry in benchmark["workloads"]]
    out = args.change / f"BENCH_{args.pr}.json"
    first, last = args.first_seed, args.first_seed + len(workloads) * PAIRS - 1
    description = (
        f"Alternating parent/change pairs of `python3 perfbench/run.py --workload W --seed S "
        f"--seconds {seconds:g} --trace 0`, one pair per seed, seeds {first}-{last} "
        f"({PAIRS} per workload, in the order {', '.join(workloads)}); the parent ran "
        f"first on even pairs. Each side ran from its own checkout with no __pycache__ and "
        f"PYTHONDONTWRITEBYTECODE=1 (tools/bench_pairs.py). Quartiles are "
        f"statistics.quantiles(method='inclusive'); a tie counts as a win for neither side. "
        f"seed{CHECK_SEED}_checks holds the golden-check verdict of the change's runs on seed "
        f"{CHECK_SEED} with --trace 0 and --trace 1. {args.note}").strip()
    runs, checks, environment = [], [], {}

    def write():
        kept = {key: environment.get(key)
                for key in ("nproc", "python", "numpy", "blas", "blas_threads")}
        out.write_text(json.dumps({
            "description": description,
            "environment": kept,
            "workloads": summarize(runs, benchmark["end_to_end"]),
            f"seed{CHECK_SEED}_checks": checks,
        }, indent=1) + "\n", encoding="utf-8")

    seed = first
    for workload in workloads:
        for pair in range(PAIRS):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                result, env = run_once(checkout, workload, seed, seconds)
                environment = environment or env
                runs.append({"workload": workload, "pair": pair, "seed": seed, "side": side,
                             "ran_first": order[0], "result": result})
                print(f"{workload} pair {pair} seed {seed} {side}: {json.dumps(result)}",
                      file=sys.stderr, flush=True)
            seed += 1
            write()
    for workload in workloads:
        for trace in (0, 1):
            result, _ = run_once(args.change, workload, CHECK_SEED, seconds, trace)
            checks.append({"workload": workload, "trace": trace,
                           **{key: result.get(key)
                              for key in ("correct", "attempted", "failed", "error")
                              if key in result}})
            print(f"{workload} seed {CHECK_SEED} trace {trace}: {json.dumps(checks[-1])}",
                  file=sys.stderr, flush=True)
            write()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
