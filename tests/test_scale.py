"""Solver quality against a reference that reaches past the exact oracle.

At mid-k10 (K=10, seeds 0-19) each row's rate is read against the
oracle; at K=50 (seeds 0-5, the loose and the tight cap of the
``wide-k50-*`` workloads) against the MILP bound of ``bound.py``; at
K=200 (120 SBSs, 80 D2D pairs, N=50, L=4, seeds 0-1, caps 1e-6 and 1e-8)
against its LP bound, as no MILP is solved at that size.  Every drop runs
these rows:

- ``matching``, ``msgpass`` and ``auction``: the three solvers;
- ``br``: ``bound.best_response``, centralized;
- ``priced``: ``bound.priced_response``, distributed, which has no stop
  rule and so never counts as converged;
- ``matching+refill``, ``msgpass+refill`` and ``auction+refill``: each
  solver's allocation after ``bound.refill``, with the solver's converged
  flag;
- ``greedy``: ``bound.greedy``, one pass, which always finishes and so
  always counts as converged;
- ``greedy@0.5`` to ``greedy@0.03``: with ``greedy`` (alpha = 1), the
  rate-macro frontier, the greedy run at every cap times alpha, scored at
  the real caps.

The tests check that the bound is one: at or above every row's rate and
the oracle's, and the MILP, where there is one, within its LP
relaxation; at mid-k10 every row stays at or below the oracle.
``pytest -s`` prints the report: per size and row, the mean and the
minimum ratio, the converged count, the minimum MUE SINR (the macro
tier's worst RB) and the mean per-RB ``I/I_max``, each averaged over the
drops.  Then, for each raw and refilled solver row, the first frontier
point whose mean ratio and mean minimum MUE SINR both reach the row's, or
"none".  The report gates no ratio yet.
"""

import dataclasses
import math

import numpy as np
import pytest

from bound import best_response, greedy, priced_response, rate_bound, refill
from hetalloc import netmodel
from hetalloc.allocation import exhaustive_search, is_feasible
from hetalloc.harness import SOLVERS

from conftest import POOLS, T_MAX, config, drop

# pool name -> (seeds, reference); each runs at its pool's T_MAX.
SIZES = {
    "mid-k10": (range(20), "the oracle"),
    "wide-k50-loose": (range(6), "the MILP bound"),
    "wide-k50-tight": (range(6), "the MILP bound"),
    "k200-loose": (range(2), "the LP bound"),
    "k200-tight": (range(2), "the LP bound"),
}
REFILLED = {name: f"{name}+refill" for name in SOLVERS}
FRONTIER = {a: f"greedy@{a:g}" if a < 1 else "greedy" for a in (1, 0.5, 0.25, 0.1, 0.03)}
ROWS = (*SOLVERS, "br", "priced", *REFILLED.values(), *FRONTIER.values())
REL = 1e-9


def row(net, alloc, converged):
    """(rate in Mbps, converged, minimum MUE SINR in dB, mean per-RB I/I_max)."""
    rep = is_feasible(net, alloc)
    assert rep.feasible
    return (rep.sum_rate / 1e6, converged,
            10.0 * math.log10(netmodel.macro_sinrs(net, alloc).min()),
            float(np.mean(netmodel.interference_vector(net, alloc) / net.i_max)))


@pytest.fixture(scope="module", params=list(SIZES))
def size(request):
    """(name, drops), each drop ``{"lp": ..., "milp": ..., "bound": ...,
    "ref": ...}`` in Mbps, with a ``row`` under each of ``ROWS``, and the
    oracle's where it is the reference ``ref``.  ``bound`` is the
    MILP's, or the LP's at a size that solves no MILP."""
    seeds, reference = SIZES[request.param]
    cfg, t_max = config(POOLS[request.param]), T_MAX[request.param]
    drops = []
    for seed in seeds:
        net = drop(cfg, seed)
        d = {"lp": rate_bound(net, False)}
        if reference != "the LP bound":
            d["milp"] = rate_bound(net, True)
        d["bound"] = d.get("milp", d["lp"])
        for name, run in SOLVERS.items():
            res = run(net, t_max)
            d[name] = row(net, res.allocation, res.converged)
            d[REFILLED[name]] = row(net, refill(net, res.allocation), res.converged)
        d["br"] = row(net, *best_response(net))
        d["priced"] = row(net, priced_response(net), False)
        for alpha, name in FRONTIER.items():
            capped = dataclasses.replace(net, i_max=net.i_max * alpha)
            d[name] = row(net, greedy(capped), True)
        if reference == "the oracle":
            d["oracle"] = row(net, exhaustive_search(net)[0], True)
        d["ref"] = d["oracle"][0] if "oracle" in d else d["bound"]
        drops.append(d)
    return request.param, drops


def test_milp_bound_is_within_its_lp_relaxation(size):
    name, drops = size
    if SIZES[name][1] == "the LP bound":
        pytest.skip(f"no MILP is solved at {name}")
    for d in drops:
        assert d["milp"] <= d["lp"] * (1 + REL), d


def test_bound_is_above_every_feasible_rate(size):
    # The oracle's too, where it runs, and every row stays at or below the
    # oracle.
    _, drops = size
    for d in drops:
        for name in (*ROWS, "oracle"):
            if name in d:
                assert d[name][0] <= d["bound"] * (1 + REL), (name, d)
        if "oracle" in d:
            for name in ROWS:
                assert d[name][0] <= d["oracle"][0] * (1 + REL), (name, d)


def test_report(size):
    name, drops = size
    print(f"\n{name}, {len(drops)} drops, ratio to {SIZES[name][1]}:")
    print("  row              mean ratio  min ratio  converged  min MUE SINR  mean I/I_max")
    mean = {}  # row -> (mean ratio, mean minimum MUE SINR)
    for solver in ROWS:
        ratios = [d[solver][0] / d["ref"] for d in drops]
        mean[solver] = np.mean(ratios), np.mean([d[solver][2] for d in drops])
        print(f"  {solver:<15}  {mean[solver][0]:10.3f}  {min(ratios):9.3f}"
              f"  {sum(d[solver][1] for d in drops):9d}  {mean[solver][1]:9.1f} dB"
              f"  {np.mean([d[solver][3] for d in drops]):12.3f}")
    print("  first frontier point at or above the row in both mean ratio and mean min MUE SINR:")
    for solver in (*SOLVERS, *REFILLED.values()):
        first = next((point for point in FRONTIER.values()
                      if all(p >= s for p, s in zip(mean[point], mean[solver]))), "none")
        print(f"  {solver:<15}  {first}")
