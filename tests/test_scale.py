"""Solver quality against a reference that reaches past the exact oracle.

At mid-k10 (K=10, seeds 0-19) each solver's rate is read against the
oracle; at K=50 (seeds 0-5, the loose and the tight cap of the
``wide-k50-*`` workloads) against the MILP bound of ``bound.py``; at
K=200 (120 SBSs, 80 D2D pairs, N=50, L=4, seeds 0-1, caps 1e-6 and 1e-8)
against its LP bound, as no MILP is solved at that size.  Next to the
solvers, every drop runs ``bound.best_response`` (BR), a centralized
reference row.  The tests check that the bound is one: at or above every
rate, BR's included, and the MILP, where there is one, within its LP
relaxation; at mid-k10 BR stays at or below the oracle.  ``pytest -s``
prints the report: per size and row, the mean and the minimum ratio, the
converged count, the minimum MUE SINR (the macro tier's worst RB) and the
mean per-RB ``I/I_max``, each averaged over the drops.  The report gates
no ratio yet.
"""

import dataclasses
import math

import numpy as np
import pytest

from bound import best_response, rate_bound
from hetalloc import netmodel
from hetalloc.allocation import exhaustive_search, is_feasible
from hetalloc.harness import SOLVERS, load_scenario
from hetalloc.netmodel import build_topology

from test_harness import K50_LOOSE, K50_TIGHT, MID_K10, SCENARIOS
from test_invariance import K200_LOOSE, K200_TIGHT

# name -> (overrides, seeds, t_max, reference): bench/run.py's t_max.
SIZES = {
    "mid-k10": (MID_K10, range(20), 500, "the oracle"),
    "wide-k50-loose": (K50_LOOSE, range(6), 100, "the MILP bound"),
    "wide-k50-tight": (K50_TIGHT, range(6), 100, "the MILP bound"),
    "k200-loose": (K200_LOOSE, range(2), 100, "the LP bound"),
    "k200-tight": (K200_TIGHT, range(2), 100, "the LP bound"),
}
ROWS = (*SOLVERS, "br")  # the report's rows
REL = 1e-9


def row(net, alloc, converged):
    """(rate in Mbps, converged, minimum MUE SINR in dB, mean per-RB I/I_max)."""
    rep = is_feasible(net, alloc)
    assert rep.feasible
    return (rep.sum_rate / 1e6, converged,
            10.0 * math.log10(netmodel.macro_sinrs(net, alloc).min()),
            float(np.mean(np.array(rep.per_rb_interference) / net.i_max)))


@pytest.fixture(scope="module", params=list(SIZES))
def size(request):
    """(name, drops), each drop ``{"lp": ..., "milp": ..., "bound": ...,
    "ref": ...}`` in Mbps, with a ``row`` under each of ``ROWS``, and the
    oracle's where it is the reference ``ref``.  ``bound`` is the
    MILP's, or the LP's at a size that solves no MILP."""
    overrides, seeds, t_max, reference = SIZES[request.param]
    cfg = dataclasses.replace(load_scenario(SCENARIOS / "default.json"), **overrides)
    drops = []
    for seed in seeds:
        net = build_topology(dataclasses.replace(cfg, seed=seed))
        drop = {"lp": rate_bound(net, False)}
        if reference != "the LP bound":
            drop["milp"] = rate_bound(net, True)
        drop["bound"] = drop.get("milp", drop["lp"])
        for name, run in SOLVERS.items():
            res = run(net, t_max)
            drop[name] = row(net, res.allocation, res.converged)
        drop["br"] = row(net, *best_response(net))
        if reference == "the oracle":
            drop["oracle"] = row(net, exhaustive_search(net)[0], True)
        drop["ref"] = drop["oracle"][0] if "oracle" in drop else drop["bound"]
        drops.append(drop)
    return request.param, drops


def test_milp_bound_is_within_its_lp_relaxation(size):
    name, drops = size
    if SIZES[name][3] == "the LP bound":
        pytest.skip(f"no MILP is solved at {name}")
    for d in drops:
        assert d["milp"] <= d["lp"] * (1 + REL), d


def test_bound_is_above_every_feasible_rate(size):
    # The oracle's too, where it runs, and BR stays at or below the oracle.
    _, drops = size
    for d in drops:
        for name in (*ROWS, "oracle"):
            if name in d:
                assert d[name][0] <= d["bound"] * (1 + REL), (name, d)
        if "oracle" in d:
            assert d["br"][0] <= d["oracle"][0] * (1 + REL), d


def test_report(size):
    name, drops = size
    print(f"\n{name}, {len(drops)} drops, ratio to {SIZES[name][3]}:")
    print("  solver    mean ratio  min ratio  converged  min MUE SINR  mean I/I_max")
    for solver in ROWS:
        ratios = [d[solver][0] / d["ref"] for d in drops]
        print(f"  {solver:<8}  {np.mean(ratios):10.3f}  {min(ratios):9.3f}"
              f"  {sum(d[solver][1] for d in drops):9d}"
              f"  {np.mean([d[solver][2] for d in drops]):9.1f} dB"
              f"  {np.mean([d[solver][3] for d in drops]):12.3f}")
