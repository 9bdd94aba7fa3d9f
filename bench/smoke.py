#!/usr/bin/env python3
"""Smoke test of the benchmark itself (not collected by pytest).

    python3 bench/smoke.py

Runs every workload on a few drops in both modes and checks that each
metric named in BENCHMARK.json is reported with its unit and that the
answers are correct; then feeds the audit hand-built bad results and
checks that it flags them.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run


def check_metrics(declared):
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    for name in run.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = run.measure(name, seed=0, seconds=0, trace=trace, drops=2,
                                 setup_repeats=1)
            got = result["metrics"]
            want = {m["name"]: m["unit"] for m in declared[kind]}
            missing = sorted(set(want) - set(got))
            assert not missing, f"{name} trace={trace}: missing {missing}"
            extra = sorted(set(got) - set(want))
            assert not extra, f"{name} trace={trace}: undeclared {extra}"
            for metric, (value, unit) in got.items():
                assert unit == want[metric], f"{name}: {metric} unit {unit} != {want[metric]}"
                assert isinstance(value, float), f"{name}: {metric} = {value!r}"
            assert result["correct"] and result["failed"] == 0, f"{name} trace={trace}: {result}"
            print(f"ok {name} trace={trace}: {len(got)} metrics")


def check_audit():
    from hetalloc import harness, netmodel
    from hetalloc.allocation import Allocation, is_feasible

    cfg = dataclasses.replace(harness.load_scenario(run.SCENARIO),
                              **run.WORKLOADS["oracle-k4"].overrides)
    net = netmodel.build_topology(cfg)
    # Every transmitter at full power on RB 0, under a cap far below one
    # transmitter's contribution: infeasible whatever the drop.
    tight = netmodel.make_network(
        cfg, net.mue_pos, net.sbs_pos, net.sue_pos, net.d2d_tx_pos, net.d2d_rx_pos,
        net.gain_ul, net.gain_mbs_ul, net.gain_mue, net.gain_mbs_mue,
        net.power_levels, net.i_max * 1e-12, net.mbs_power, net.sigma2,
        net.w1, net.w2, net.rb_bandwidth)
    crowded = Allocation(net.num_tx, [(0, net.num_levels - 1)] * net.num_tx)
    assert not is_feasible(tight, crowded).feasible

    def row(algorithm, rate, feasible=True):
        return harness.RunMetrics(algorithm, 0, rate, 0.0, 1, True, feasible, None, 0.0, 0)

    empty = Allocation(net.num_tx)
    expected = ("msgpass", "oracle")
    # A row that claims feasibility does not hide a capped-out allocation.
    bad = run.audit([row("msgpass", 1.0)], {"msgpass": (tight, crowded)},
                    ("msgpass",), is_feasible)
    assert bad == {"msgpass"}, bad
    # The oracle may not score below a feasible solver on the same drop.
    results = {"msgpass": (net, empty), "oracle": (net, empty)}
    bad = run.audit([row("msgpass", 2.0), row("oracle", 1.0)], results, expected, is_feasible)
    assert bad == {"oracle"}, bad
    # A skipped oracle and a raised experiment are failures too.
    assert run.audit([row("msgpass", 1.0)], results, expected, is_feasible) == {"oracle"}
    assert run.audit(None, {}, expected, is_feasible) == set(expected)
    assert run.audit([row("msgpass", 1.0), row("oracle", 1.0)], results, expected,
                     is_feasible) == set()
    print("ok audit flags infeasible, beaten, skipped and raised runs")


def main():
    if not run.use_checkout():
        print("hetalloc sources not found", file=sys.stderr)
        return 2
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_audit()
    check_metrics(declared)
    return 0


if __name__ == "__main__":
    sys.exit(main())
