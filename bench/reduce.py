"""Reduce a benchmark trace (JSONL) to the per-layer metrics.

    python3 bench/reduce.py .bench_out/trace-wide-k50-loose-seed0.jsonl

The trace holds one ``meta`` line (site -> layer, kind, group), one
``span`` line per span and one ``exec`` line per drop execution, traced or
not, with the benchmark's own wall clock around ``harness.run_experiment``.
Every metric is a mean per traced drop: values are summed per execution,
averaged over the executions of each drop, then averaged over drops, so a
drop that ran twice weighs as much as one that ran once.  Ratios are taken
between those means.  A quantity of a layer the workload never runs is 0.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

LAYERS = ("netmodel", "allocation", "matching", "msgpass", "auction", "harness")

# name -> (unit, better); the order is the print order.
PER_LAYER = {
    **{f"{layer}.self_ms": ("ms", "lower") for layer in LAYERS},
    "bench.self_ms": ("ms", "lower"),
    **{f"{layer}.self_share": ("frac", "lower") for layer in LAYERS},
    "netmodel.build_topology.ms": ("ms", "lower"),
    "netmodel.tables.calls": ("count", "lower"),
    "netmodel.tables.ms": ("ms", "lower"),
    "netmodel.aggregated_interference.calls": ("count", "lower"),
    "allocation.exhaustive_search.ms": ("ms", "lower"),
    "allocation.oracle.candidates": ("count", "lower"),
    "allocation.oracle.feasible_ratio": ("frac", "higher"),
    "allocation.oracle.ns_per_candidate": ("ns", "lower"),
    "allocation.eval.ms": ("ms", "lower"),
    "matching.match_alignments.ms": ("ms", "lower"),
    "matching.proposals": ("count", "lower"),
    "matching.build_profiles.ms": ("ms", "lower"),
    "matching.rounds": ("count", "lower"),
    "matching.converged_frac": ("frac", "higher"),
    "msgpass.sweeps.ms": ("ms", "lower"),
    "msgpass.extract_allocation.ms": ("ms", "lower"),
    "msgpass.extract.keep_ratio": ("frac", "higher"),
    "msgpass.iterations": ("count", "lower"),
    "msgpass.converged_frac": ("frac", "higher"),
    "auction.local_round.ms": ("ms", "lower"),
    "auction.merged_view.calls": ("count", "lower"),
    "auction.rounds": ("count", "lower"),
    "auction.bid_ratio": ("frac", "higher"),
    "auction.converged_frac": ("frac", "higher"),
    "trace.overhead_frac": ("frac", "lower"),
    "trace.attributed_frac": ("frac", "higher"),
}

_SOLVER_SPANS = {"matching": "matching.run_stable_matching",
                 "msgpass": "msgpass.run_message_passing",
                 "auction": "auction.run_auction"}


def _execution_sums(spans, sites):
    """Raw per-execution quantities (ns and counts) from its span records."""
    out = defaultdict(float)
    child_ns = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        timers = s["timers"]
        own = dur - child_ns[s["id"]] - sum(t[3] for t in timers.values())
        out[f"self_ns.{sites[s['name']]['layer']}"] += own
        out[f"span_ns.{s['name']}"] += dur
        group = sites[s["name"]]["group"]
        if group:
            out[f"span_ns.{group}"] += dur
        if s["parent"] is None:
            out["root_ns"] += dur
        for name, (calls, top_calls, top_ns, self_ns) in timers.items():
            info = sites[name]
            out[f"self_ns.{info['layer']}"] += self_ns
            key = info["group"] or name
            out[f"calls.{name}"] += calls
            out[f"top_calls.{key}"] += top_calls
            out[f"top_ns.{key}"] += top_ns
        for name, value in s["counts"].items():
            out[f"count.{s['name']}.{name}"] += value
    return out


def _mean_per_drop(per_exec, drop_of):
    by_drop = defaultdict(list)
    for execution, sums in per_exec.items():
        by_drop[drop_of[execution]].append(sums)
    means = defaultdict(float)
    for runs in by_drop.values():
        for key in {k for r in runs for k in r}:
            means[key] += sum(r.get(key, 0.0) for r in runs) / len(runs) / len(by_drop)
    return means


def _ratio(num, den):
    return num / den if den else 0.0


def reduce_records(records):
    """Per-layer metrics {name: (value, unit)} from parsed trace records."""
    meta = next(r for r in records if r["type"] == "meta")
    sites = meta["sites"]
    execs = [r for r in records if r["type"] == "exec"]
    drop_of = {r["exec"]: r["drop"] for r in execs}
    spans_by_exec = defaultdict(list)
    for r in records:
        if r["type"] == "span":
            spans_by_exec[r["exec"]].append(r)
    per_exec = {}
    for r in execs:
        if r["traced"]:
            sums = _execution_sums(spans_by_exec[r["exec"]], sites)
            sums["wall_ns"] = r["wall_ns"]
            per_exec[r["exec"]] = sums
    untraced = {r["exec"]: {"wall_ns": r["wall_ns"]} for r in execs if not r["traced"]}
    m = _mean_per_drop(per_exec, drop_of)
    plain = _mean_per_drop(untraced, drop_of)

    wall = m["wall_ns"]
    ms = 1e-6
    bench_ns = m["self_ns.bench"]
    v = {f"{layer}.self_ms": m[f"self_ns.{layer}"] * ms for layer in LAYERS}
    # The bench layer holds probe time plus whatever the benchmark's clock
    # saw outside the root span (entering and leaving the wrapper).
    v["bench.self_ms"] = (bench_ns + wall - m["root_ns"]) * ms
    v.update({f"{layer}.self_share": _ratio(m[f"self_ns.{layer}"], wall) for layer in LAYERS})
    v["netmodel.build_topology.ms"] = m["span_ns.netmodel.build_topology"] * ms
    v["netmodel.tables.calls"] = m["top_calls.netmodel.tables"]
    v["netmodel.tables.ms"] = m["top_ns.netmodel.tables"] * ms
    v["netmodel.aggregated_interference.calls"] = m["calls.netmodel.aggregated_interference"]
    oracle_ns = m["span_ns.allocation.exhaustive_search"]
    candidates = m["count.allocation.exhaustive_search.candidates"]
    v["allocation.exhaustive_search.ms"] = oracle_ns * ms
    v["allocation.oracle.candidates"] = candidates
    v["allocation.oracle.feasible_ratio"] = _ratio(
        m["count.allocation.exhaustive_search.feasible"], candidates)
    v["allocation.oracle.ns_per_candidate"] = _ratio(oracle_ns, candidates)
    v["allocation.eval.ms"] = m["span_ns.allocation.eval"] * ms
    v["matching.match_alignments.ms"] = m["top_ns.matching.match_alignments"] * ms
    v["matching.proposals"] = m["count.matching.run_stable_matching.proposals"]
    v["matching.build_profiles.ms"] = m["top_ns.matching.build_profiles"] * ms
    for solver, span in _SOLVER_SPANS.items():
        runs = m[f"count.{span}.runs"]
        rounds = "iterations" if solver == "msgpass" else "rounds"
        v[f"{solver}.{rounds}"] = _ratio(m[f"count.{span}.iterations"], runs)
        v[f"{solver}.converged_frac"] = _ratio(m[f"count.{span}.converged"], runs)
    v["msgpass.sweeps.ms"] = m["top_ns.msgpass.sweeps"] * ms
    v["msgpass.extract_allocation.ms"] = m["top_ns.msgpass.extract_allocation"] * ms
    v["msgpass.extract.keep_ratio"] = _ratio(
        m["count.msgpass.run_message_passing.extract_kept"],
        m["count.msgpass.run_message_passing.extract_proposed"])
    v["auction.local_round.ms"] = m["top_ns.auction.local_auction_round"] * ms
    v["auction.merged_view.calls"] = m["calls.auction.merged_view"]
    v["auction.bid_ratio"] = _ratio(m["count.auction.run_auction.bids"],
                                    m["calls.auction.local_auction_round"])
    v["trace.overhead_frac"] = _ratio(wall, plain["wall_ns"]) - 1.0 if plain else 0.0
    attributed = sum(m[f"self_ns.{layer}"] for layer in LAYERS) + bench_ns
    v["trace.attributed_frac"] = _ratio(attributed, wall)
    return {name: (float(v[name]), unit) for name, (unit, _b) in PER_LAYER.items()}


def reduce_file(path):
    with open(path) as fh:
        return reduce_records([json.loads(line) for line in fh if line.strip()])


def main(argv):
    if len(argv) != 1:
        print("usage: python3 bench/reduce.py TRACE.jsonl", file=sys.stderr)
        return 2
    for name, (value, unit) in reduce_file(argv[0]).items():
        print(f"{name} {value:.6g} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
