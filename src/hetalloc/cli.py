"""Command-line front end: run experiments, lint scenarios, size search spaces."""

from __future__ import annotations

import argparse
import sys

from . import harness
from .allocation import search_space_size
from .netmodel import ConfigError


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hetalloc",
        description="Two-tier underlay resource allocation: simulator and solvers.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run algorithms over seeds and emit a metrics CSV")
    run.add_argument("--scenario", required=True, help="scenario JSON path")
    run.add_argument("--algorithms", default=",".join(harness.ALGORITHMS),
                     help="comma list from: " + ", ".join(harness.ALGORITHMS))
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

    size = sub.add_parser("size", help="print exact search-space counts")
    size.add_argument("-K", type=int, required=True, help="underlay transmitters")
    size.add_argument("-N", type=int, required=True, help="resource blocks")
    size.add_argument("-L", type=int, required=True, help="power levels")
    return parser


def _cmd_run(args):
    config = harness.load_scenario(args.scenario)
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    try:
        seeds = harness.parse_seed_spec(args.seeds) if args.seeds else None
        budget = harness.oracle_budget()
    except ValueError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    metrics = harness.run_experiment(config, algorithms=algorithms, seeds=seeds,
                                     with_oracle=args.oracle, t_max=args.t_max,
                                     budget=budget)
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
    plain = search_space_size(args.K, args.N, args.L)
    with_idle = search_space_size(args.K, args.N, args.L, include_unassigned=True)
    print(f"alignment_combinations {plain}")
    print(f"with_unassigned_option {with_idle}")
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
