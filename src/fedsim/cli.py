"""Command-line entry point.

Subcommands:
    partition  build a partition from a config, write indices + stats CSV
    run        run the configured experiment sweep, write JSONL + summary
    report     pivot saved results into a comparison table with a wins tally
    gradcheck  self-test backprop against central finite differences
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .config import load_config, override_seed
from .errors import FedsimError


def _add_config_args(parser: argparse.ArgumentParser):
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--out", default=None, help="output directory (default: config out_dir)")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim",
        description="Desk-scale federated learning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_partition = sub.add_parser("partition", help="materialize a data partition")
    _add_config_args(p_partition)

    p_run = sub.add_parser("run", help="run the configured experiments")
    _add_config_args(p_run)

    p_report = sub.add_parser("report", help="summarize saved results")
    p_report.add_argument(
        "--out", required=True, help="directory holding .jsonl results; report lands there"
    )

    p_gradcheck = sub.add_parser("gradcheck", help="gradient self-test")
    p_gradcheck.add_argument("--seed", type=int, default=harness.GRADCHECK_SEED, help="case seed")
    p_gradcheck.add_argument(
        "--cases", type=int, default=harness.GRADCHECK_CASES, help="number of random nets"
    )

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gradcheck":
            return harness.cmd_gradcheck(n_cases=args.cases, seed=args.seed)
        if args.command == "report":
            harness.cmd_report(args.out)
            return 0
        config = load_config(args.config)
        if args.seed is not None:
            config = override_seed(config, args.seed)
        out_dir = args.out if args.out is not None else config.out_dir
        if args.command == "partition":
            harness.cmd_partition(config, out_dir)
            return 0
        if args.command == "run":
            harness.cmd_run(config, out_dir)
            return 0
        raise AssertionError(f"unhandled command {args.command}")
    except FedsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
