"""Record golden outputs and exact counts for a range of seeds.

    python3 perfbench/record_golden.py --seeds 0-63 [--workload NAME ...]

For each workload and seed it runs `cmd_run` once untraced and once traced,
requires the two to agree bit for bit, and stores the per-cell hashes of
masked results.jsonl, the summary.csv hash and the exact counts in
golden.json. Only re-record when fedsim's output is meant to change, and say
so in the change that does it.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 0-63")
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    recorded = {}
    status = 0
    for workload in args.workload or workloads.WORKLOADS:
        for seed in args.seeds:
            bench_args = argparse.Namespace(workload=workload, seed=seed, seconds=0, trace=0)
            with run.work_dir(workload, seed) as work:
                bench = run.Bench(bench_args, work, golden=None)
                bench.execute("run")
                bench.execute("trace")
            check = bench.check
            if not check.correct:
                print(f"{workload} seed {seed}: not recorded: {check.problems}", file=sys.stderr)
                status = 1
                continue
            recorded.setdefault(workload, {})[str(seed)] = check.reference
            print(f"{workload} seed {seed}: {json.dumps(check.reference['counts'])}", flush=True)
    # Read the table only now, so recorders for other workloads can run alongside.
    with open(run.GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    for workload, entries in recorded.items():
        golden["workloads"].setdefault(workload, {}).update(entries)
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
