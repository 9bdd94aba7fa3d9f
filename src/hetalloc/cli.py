"""Command-line front end: run experiments, lint scenarios, size search spaces."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness
from .allocation import oracle_cost, search_space_size
from .netmodel import ConfigError


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hetalloc",
        description="Two-tier underlay resource allocation: simulator and solvers.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run algorithms over seeds and emit a metrics CSV")
    run.add_argument("--scenario", required=True, help="scenario JSON path")
    run.add_argument("--algorithms", default=",".join(harness.SOLVERS),
                     help="comma list from: " + ", ".join(harness.SOLVERS))
    run.add_argument("--seeds", default=None,
                     help='seed spec, "A:B" half-open range or comma list '
                          "(default: the scenario's own seed)")
    run.add_argument("--oracle", action="store_true",
                     help="also run the exhaustive oracle and report gaps")
    run.add_argument("--out", default="metrics.csv", help="output CSV path")
    run.add_argument("--t-max", type=int, default=500, dest="t_max",
                     help="iteration cap per algorithm run")

    val = sub.add_parser("validate", help="lint a scenario file")
    val.add_argument("scenario", help="scenario JSON path")

    size = sub.add_parser("size", help="print exact search-space counts and the oracle's cost")
    size.add_argument("-K", type=int, required=True, help="underlay transmitters")
    size.add_argument("-N", type=int, required=True, help="resource blocks")
    size.add_argument("-L", type=int, required=True, help="power levels")
    return parser


def _cmd_run(args):
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    try:
        config = harness.load_scenario(args.scenario)
        harness.check_algorithms(algorithms, f"--algorithms {args.algorithms!r}")
        seeds = harness.parse_seed_spec(args.seeds) if args.seeds else None
        budget = harness.oracle_budget()
        harness.check_t_max(args.t_max, "--t-max")
        out = Path(args.out)
        if out.is_dir():
            raise ValueError(f"--out {args.out!r} is a directory")
        if not out.parent.is_dir():
            raise ValueError(f"--out {args.out!r}: directory {str(out.parent)!r} does not exist")
    except (OSError, ValueError) as exc:  # ScenarioFormatError, ConfigError too
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    try:
        metrics = harness.run_experiment(config, algorithms=algorithms, seeds=seeds,
                                         with_oracle=args.oracle, t_max=args.t_max,
                                         budget=budget)
    except ConfigError as exc:  # a drop whose receivers cannot be placed
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    harness.write_metrics_csv(metrics, args.out)
    print(f"wrote {len(metrics)} rows to {args.out}")
    for m in metrics:
        gap = "" if m.oracle_gap is None else f" gap={m.oracle_gap:.3%}"
        print(f"  seed {m.seed} {m.algorithm}: rate {m.sum_rate:.6g} bit/s, "
              f"{m.iterations} it, converged={m.converged}{gap}")
    return 0


def _cmd_validate(args):
    try:
        harness.load_scenario(args.scenario)
    except (harness.ScenarioFormatError, ConfigError, OSError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    print("ok")
    return 0


def _cmd_size(args):
    try:
        plain = search_space_size(args.K, args.N, args.L)
    except ValueError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    with_idle = search_space_size(args.K, args.N, args.L, include_unassigned=True)
    # The counts are exact at any size: lift the limit on converting a
    # long int to decimal (Python 3.11+, not in early 3.10) for these
    # prints only.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        print(f"alignment_combinations {plain}")
        print(f"with_unassigned_option {with_idle}")
        print(f"oracle_cost {oracle_cost(args.K, args.N, args.L)}")
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "validate":
        return _cmd_validate(args)
    return _cmd_size(args)


if __name__ == "__main__":
    sys.exit(main())
