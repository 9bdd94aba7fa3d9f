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
  the real caps;
- ``matching@w2=x``, ``msgpass@w2=x`` and ``auction@w2=x`` for x in
  {2, 4, 8}: each solver run on the drop with the utility weight ``w2``
  set to x (the pools' is 0.5), scored on the drop, which no weight
  enters.

Every drop also gets ``bound.dual_bound``, the numpy dual of the LP, and
its per-RB prices.  The tests check that the bound is one: at or above
every row's rate and the oracle's, and the MILP, where there is one,
within its LP relaxation; at mid-k10 every row stays at or below the
oracle.  They check that the dual is at or above the LP and within 0.5%
of it, and that it meets ``rate_bound`` at its edges: 0.0 where no entry
fits, the one entry's rate where one fits.  ``pytest -s`` prints the
report: per size and row, the mean and the minimum ratio, the converged
count, the minimum MUE SINR (the macro tier's worst RB) and the mean
per-RB ``I/I_max``, each averaged over the drops.  Then one line with
the mean and the maximum dual/LP and the mean number of RBs the dual
prices above 0 (its estimate of the caps that bind at the LP's optimum).  Then, for each
raw, refilled and ``@w2`` solver row, the first frontier point whose mean
ratio and mean minimum MUE SINR both reach the row's, or "none".  The
report gates no ratio yet.
"""

import dataclasses
import math

import numpy as np
import pytest

from bound import best_response, dual_bound, greedy, priced_response, rate_bound, refill
from hetalloc import netmodel
from hetalloc.allocation import exhaustive_search, is_feasible
from hetalloc.harness import SOLVERS

from conftest import POOLS, T_MAX, config, drop, toy_network

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
W2 = (2.0, 4.0, 8.0)
WEIGHTED = {(name, x): f"{name}@w2={x:g}" for x in W2 for name in SOLVERS}
ROWS = (*SOLVERS, "br", "priced", *REFILLED.values(), *FRONTIER.values(), *WEIGHTED.values())
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
    "ref": ...}`` in Mbps, with a ``row`` under each of ``ROWS``, the
    oracle's where it is the reference ``ref``, and ``dual_bound``'s
    (bound, prices) under "dual".  ``bound`` is the MILP's, or the LP's at
    a size that solves no MILP."""
    seeds, reference = SIZES[request.param]
    cfg, t_max = config(POOLS[request.param]), T_MAX[request.param]
    drops = []
    for seed in seeds:
        net = drop(cfg, seed)
        d = {"lp": rate_bound(net, False), "dual": dual_bound(net)}
        if reference != "the LP bound":
            d["milp"] = rate_bound(net, True)
        d["bound"] = d.get("milp", d["lp"])
        for name, run in SOLVERS.items():
            res = run(net, t_max)
            d[name] = row(net, res.allocation, res.converged)
            d[REFILLED[name]] = row(net, refill(net, res.allocation), res.converged)
        for x in W2:
            weighted = dataclasses.replace(net, w2=x)
            for name, run in SOLVERS.items():
                res = run(weighted, t_max)
                d[WEIGHTED[name, x]] = row(net, res.allocation, res.converged)
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


def test_dual_bound_is_the_lp_bound(size):
    # Weak duality puts every value of the dual at or above the LP, and
    # its DUAL_STEPS steps bring the lowest within 0.5% of it.
    _, drops = size
    for d in drops:
        assert d["lp"] * (1 - REL) <= d["dual"][0] <= d["lp"] * 1.005, d


@pytest.mark.parametrize("load, fits", [(1.0, 0), (0.6, 1)], ids=["none-fits", "one-fits"])
def test_dual_bound_at_its_edges(load, fits):
    # Two transmitters on one RB, levels 1 and 2, cap 1: transmitter 0's
    # own loads are load and 2 * load, transmitter 1's 1.5 and 3, so only
    # (0, 0, 0) can fit, and it does below the cap.  Prices stay at 0:
    # the picked entry's load leaves the RB under its cap.
    net = toy_network(np.ones((2, 2, 1)), np.array([load, 1.5]).reshape(2, 1, 1),
                      power_levels=(1.0, 2.0))
    bound, lam = dual_bound(net)
    rate = fits * 180e3 * math.log2(1.0 + 1.0 / (1.0 + net.mbs_den[0, 0])) / 1e6
    assert bound == pytest.approx(rate, rel=REL, abs=0)
    assert bound == pytest.approx(rate_bound(net, False), rel=REL, abs=0)
    assert lam.tolist() == [0.0]


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
    dual = [d["dual"][0] / d["lp"] for d in drops]
    print(f"  dual / LP: mean {np.mean(dual):.4f}, max {max(dual):.4f};"
          f" RBs priced above 0: mean {np.mean([(d['dual'][1] > 0).sum() for d in drops]):.1f}"
          f" of {drops[0]['dual'][1].size}")
    print("  first frontier point at or above the row in both mean ratio and mean min MUE SINR:")
    for solver in (*SOLVERS, *REFILLED.values(), *WEIGHTED.values()):
        first = next((point for point in FRONTIER.values()
                      if all(p >= s for p, s in zip(mean[point], mean[solver]))), "none")
        print(f"  {solver:<15}  {first}")
