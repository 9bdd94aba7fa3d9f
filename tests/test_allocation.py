import ast
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import reference
from hetalloc import allocation
from hetalloc.allocation import (Allocation, OracleBudgetError,
                                 exhaustive_search, is_feasible, oracle_cost,
                                 search_space_size, start_alignment, sum_rate)
from hetalloc.harness import SOLVERS, load_scenario, run_experiment
from hetalloc.netmodel import build_topology

from conftest import toy_network
from test_harness import K4, K50_LOOSE, MID_K10, ROOT, SCENARIOS, rows_sha256
from test_netmodel import make_config, two_tx_net


def test_allocation_container_basics():
    a = Allocation(3)
    assert reference.is_empty(a) and a.num_assigned() == 0
    a.assign(1, 2, 0)
    assert a.get(1) == (2, 0)
    assert reference.by_rb(a, 3)[2] == [(1, 0)]
    b = a.copy()
    b.rb[1] = b.level[1] = -1
    assert a.get(1) == (2, 0) and reference.is_empty(b)
    assert a != b and a == Allocation(3, {1: (2, 0)})


PAIRS = st.lists(st.none() | st.tuples(st.integers(0, 3), st.integers(0, 2)), max_size=6)


@given(PAIRS, st.data())
def test_allocation_arrays_match_pairs_list(pairs, data):
    K = len(pairs)
    a = Allocation(K, pairs)
    assigned = [(k, p) for k, p in enumerate(pairs) if p is not None]
    assert [a.get(k) for k in range(K)] == pairs
    assert list(a.assigned_items()) == assigned
    holders = reference.by_rb(a, 5)
    for n in range(5):
        assert holders[n] == [(k, l) for k, (nn, l) in assigned if nn == n]
    assert a.num_assigned() == len(assigned)
    assert a == Allocation(K, dict(assigned)) and a != Allocation(K + 1, pairs)
    b = a.copy()
    assert b == a
    if K:
        k = data.draw(st.integers(0, K - 1))
        b.rb[k] = b.level[k] = -1
        b.assign((k + 1) % K, 3, 2)
        changed = list(pairs)
        changed[k], changed[(k + 1) % K] = None, (3, 2)
        assert [a.get(j) for j in range(K)] == pairs  # the copy shares nothing
        assert [b.get(j) for j in range(K)] == changed
        assert (b == a) == (changed == pairs)


@pytest.mark.parametrize("k, pair, message", [
    (1, (-1, 0), "transmitter 1: RB -1 and level 0"),
    (1, (0, -1), "transmitter 1: RB 0 and level -1"),
    (-1, (0, 0), r"transmitter -1 must be an integer in \[0, 2\)"),
    (True, (0, 0), r"transmitter True must be an integer in \[0, 2\)"),
    (2, (0, 0), r"transmitter 2 must be an integer in \[0, 2\)"),
    (0, (1.7, True), r"transmitter 0: RB 1\.7 must be an integer"),
    (0, (True, 0), "transmitter 0: RB True must be an integer"),
    (1, (0, 1.0), r"transmitter 1: level 1\.0 must be an integer"),
    (1, (0, np.True_), r"transmitter 1: level (np\.True_|True) must be an integer"),
], ids=["pair0", "pair1", "k-negative", "k-bool", "k-num_tx", "n-float", "n-bool", "l-float",
        "l-numpy-bool"])
def test_negative_index_raises_naming_it(k, pair, message):
    # -1 marks a silent transmitter; as an index it would alias the last RB,
    # level or transmitter, and True would index every transmitter.  A
    # float RB or level would be truncated, and a bool taken as 0 or 1.
    with pytest.raises(ValueError, match=message):
        Allocation(2, {k: pair})
    with pytest.raises(ValueError, match=message):
        Allocation(2).assign(k, *pair)


def test_indicator_tensor_one_entry_per_transmitter():
    a = Allocation(3, [(0, 1), None, (2, 0)])
    x = reference.indicator(a, 3, 2)
    assert x.sum() == 2
    assert x[0, 0, 1] == 1 and x[2, 2, 0] == 1


# --- feasibility --------------------------------------------------------

def test_empty_allocation_feasible():
    rep = is_feasible(two_tx_net(), Allocation(2))
    assert rep.feasible and rep.violated_rbs == [] and rep.sum_rate == 0.0


def test_boundary_assignment_infeasible():
    # single contribution at exactly twice the cap: strictly violated
    net = two_tx_net(i_max=0.7)  # k1 contributes 0.7 * 2.0 = 1.4 = 2 * cap
    rep = is_feasible(net, Allocation(2, {1: (0, 0)}))
    assert not rep.feasible and rep.violated_rbs == [0]
    # a load exactly at the cap violates it too
    rep = is_feasible(two_tx_net(i_max=1.4), Allocation(2, {1: (0, 0)}))
    assert rep.per_rb_interference == [1.4] and not rep.feasible


def test_feasibility_matches_independent_summation():
    rng = np.random.default_rng(3)
    K, C, N, L = 5, 2, 4, 2
    net = toy_network(rng.uniform(0.1, 2.0, (K, K, N)),
                      rng.uniform(0.1, 2.0, (K, C, N)),
                      power_levels=(0.5, 1.5), i_max=2.0)
    alloc = Allocation(K)
    for k in range(K):
        alloc.assign(k, rng.integers(N), rng.integers(L))
    rep = is_feasible(net, alloc)
    for n in range(N):
        total = sum(net.ref_gain[k, n] * net.power_levels[l]
                    for k, (nn, l) in alloc.assigned_items() if nn == n)
        assert rep.per_rb_interference[n] == pytest.approx(total, rel=1e-12)
        assert (n in rep.violated_rbs) == (total >= net.i_max[n])
    assert rep.feasible == (not rep.violated_rbs)


EVALUATORS = [is_feasible, sum_rate, allocation.weighted_benefit]


def default_net():
    """The K=5, N=6, L=3 drop of ``scenarios/default.json``."""
    return build_topology(load_scenario(SCENARIOS / "default.json"))


@pytest.mark.parametrize("evaluate", EVALUATORS)
def test_evaluation_rejects_rb_outside_the_drop(evaluate):
    # RB 6 of N=6: the flat holder index k*N + n would run into transmitter
    # 1's RB 0, and the SINRs would fail later with a bare IndexError
    with pytest.raises(ValueError, match="transmitter 0: RB 6 and level 0 must be < 6 and < 3"):
        evaluate(default_net(), Allocation(5, {0: (6, 0), 1: (0, 0)}))


@pytest.mark.parametrize("evaluate", EVALUATORS)
def test_evaluation_rejects_level_outside_the_drop(evaluate):
    with pytest.raises(ValueError, match="transmitter 2: RB 0 and level 3 must be < 6 and < 3"):
        evaluate(default_net(), Allocation(5, {2: (0, 3)}))


@pytest.mark.parametrize("evaluate", EVALUATORS)
@pytest.mark.parametrize("num_tx, k", [(3, 3), (6, 5)])
def test_evaluation_rejects_allocation_of_another_length(evaluate, num_tx, k):
    # a 3-transmitter allocation would be scored as if the drop had 3
    with pytest.raises(ValueError, match=f"transmitter {k}: the allocation has {num_tx} "
                                         "transmitters and the drop 5"):
        evaluate(default_net(), Allocation(num_tx, {0: (1, 0)}))


# --- sum rate -----------------------------------------------------------

def test_sum_rate_empty_and_single():
    net = two_tx_net()
    assert sum_rate(net, Allocation(2)) == 0.0
    got = sum_rate(net, Allocation(2, {0: (0, 0)}))
    assert got == pytest.approx(180e3 * math.log2(1.0 + 4.0 / 1.4), rel=1e-12)


def test_sum_rate_interference_coupling():
    net = two_tx_net(i_max=100.0)
    apart = sum_rate(net, Allocation(2, {0: (0, 0)})) + sum_rate(net, Allocation(2, {1: (0, 0)}))
    together = sum_rate(net, Allocation(2, [(0, 0), (0, 0)]))
    assert together < apart


# --- search-space size ---------------------------------------------------

def test_search_space_size_paper_example():
    assert search_space_size(5, 6, 3) == 1889568


@pytest.mark.parametrize("k,n,l,expected", [(1, 1, 1, 1), (3, 4, 2, 512)])
def test_search_space_size_small(k, n, l, expected):
    assert search_space_size(k, n, l) == expected


def test_search_space_size_with_unassigned_option():
    assert search_space_size(2, 2, 2, include_unassigned=True) == 25


@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 4))
def test_search_space_size_matches_pow(k, n, l):
    assert search_space_size(k, n, l) == (n * l) ** k


def test_search_space_size_rejects_bad_counts():
    with pytest.raises(ValueError):
        search_space_size(0, 2, 2)


# --- exhaustive oracle ---------------------------------------------------

def test_oracle_single_transmitter_picks_best_alignment():
    rng = np.random.default_rng(9)
    net = toy_network(rng.uniform(0.5, 3.0, (1, 1, 3)),
                      rng.uniform(0.1, 1.0, (1, 1, 3)),
                      power_levels=(0.5, 2.0), i_max=100.0)
    alloc, value = exhaustive_search(net)
    rates = {(n, l): sum_rate(net, Allocation(1, {0: (n, l)}))
             for n in range(3) for l in range(2)}
    best = max(rates, key=rates.get)
    assert alloc.get(0) == best
    assert value == pytest.approx(rates[best], rel=1e-12)


def test_oracle_matches_independent_enumeration():
    rng = np.random.default_rng(21)
    K, C, N, L = 2, 2, 2, 2
    net = toy_network(rng.uniform(0.1, 3.0, (K, K, N)),
                      rng.uniform(0.1, 1.0, (K, C, N)),
                      gain_mbs_ul=rng.uniform(0.01, 0.2, (K, N)),
                      power_levels=(0.5, 2.0), i_max=1e9, mbs_power=4.0, sigma2=1.0)
    stats, ref_stats = {}, {}
    _, value = exhaustive_search(net, stats=stats)
    assert stats["candidates"] == N * (L + 1) ** K
    assert reference.exhaustive_search(net, stats=ref_stats)[1] == value
    assert ref_stats["candidates"] == 25

    # independent enumeration with its own SINR arithmetic
    choices = [None] + [(n, l) for n in range(N) for l in range(L)]
    best = 0.0
    for combo in itertools.product(choices, repeat=K):
        rate = 0.0
        for k, res in enumerate(combo):
            if res is None:
                continue
            n, l = res
            den = net.gain_mbs_ul[k, n] * net.mbs_power + net.sigma2
            for kp, other in enumerate(combo):
                if kp != k and other is not None and other[0] == n:
                    den += net.gain_ul[kp, k, n] * net.power_levels[other[1]]
            rate += net.rb_bandwidth * math.log2(
                1.0 + net.gain_ul[k, k, n] * net.power_levels[l] / den)
        best = max(best, rate)
    assert value == pytest.approx(best, rel=1e-9)


def test_oracle_enumeration_count_and_feasibility():
    cfg = make_config(num_sbs=2, num_d2d=1, num_rb=2, power_levels=(0.1, 0.5))
    net = build_topology(cfg)
    stats, ref_stats = {}, {}
    alloc, _ = exhaustive_search(net, stats=stats)
    assert stats["candidates"] == 2 * (2 + 1) ** 3  # N * (L+1)^K per-RB level vectors
    assert 0 < stats["feasible"] <= stats["candidates"]
    assert is_feasible(net, alloc).feasible
    ref_alloc, _ = reference.exhaustive_search(net, stats=ref_stats)
    assert ref_stats["candidates"] == search_space_size(3, 2, 2, include_unassigned=True)
    assert ref_alloc == alloc


def test_oracle_returns_empty_when_nothing_feasible():
    # cap below any single contribution: only the silent allocation survives
    net = two_tx_net(i_max=1e-6)
    alloc, value = exhaustive_search(net)
    assert reference.is_empty(alloc) and value == 0.0
    # caps exactly at k0's contribution (0.6 * 2.0) and below k1's: still empty
    net = two_tx_net(i_max=1.2)
    assert exhaustive_search(net) == reference.exhaustive_search(net) == (Allocation(2), 0.0)


def test_oracle_budget_guard():
    net = build_topology(make_config())
    with pytest.raises(OracleBudgetError):
        exhaustive_search(net, budget=10)


def test_oracle_budget_bounds_oracle_cost():
    net = build_topology(make_config())
    cost = oracle_cost(net.num_tx, net.num_rb, net.num_levels)
    assert cost == net.num_rb * ((net.num_levels + 1) ** net.num_tx + 3 ** net.num_tx)
    exhaustive_search(net, budget=cost)
    with pytest.raises(OracleBudgetError, match=str(cost)):
        exhaustive_search(net, budget=cost - 1)


def test_oracle_dominates_solvers_beyond_enumeration():
    # K=10, N=8, L=3: 9.5e13 allocations to enumerate, under 1e7 DP steps
    cfg = make_config(num_sbs=6, num_d2d=4, num_rb=8, power_levels=(0.05, 0.2, 1.0),
                      i_max=1e-7)
    for seed in range(2):
        net = build_topology(dataclasses.replace(cfg, seed=seed))
        alloc, best = exhaustive_search(net)
        assert is_feasible(net, alloc).feasible and best > 0
        for name, run in SOLVERS.items():
            rep = is_feasible(net, run(net, 500).allocation)
            assert rep.feasible and rep.sum_rate <= best * (1 + 1e-9), name


def test_oracle_dominates_feasible_allocations():
    cfg = make_config(num_sbs=1, num_d2d=1, num_rb=2)
    net = build_topology(cfg)
    _, best = exhaustive_search(net)
    rng = np.random.default_rng(0)
    for _ in range(50):
        alloc = Allocation(net.num_tx)
        for k in range(net.num_tx):
            if rng.uniform() < 0.8:
                alloc.assign(k, rng.integers(net.num_rb), rng.integers(net.num_levels))
        if is_feasible(net, alloc).feasible:
            assert sum_rate(net, alloc) <= best * (1 + 1e-9)


# --- solver start state and layering --------------------------------------

@pytest.mark.parametrize("overrides", [{}, K4, MID_K10, K50_LOOSE, dict(K50_LOOSE, i_max=1e-8),
                                       dict(num_rb=1), dict(power_levels=(0.5,)),
                                       dict(K4, num_rb=1, power_levels=(0.5,))],
                         ids=["default", "k4", "mid-k10", "k50-loose", "k50-tight",
                              "n1", "l1", "n1-l1"])
def test_start_alignment_equals_reference_draw(overrides):
    # Pins the stream layout: default_rng(net.seed), integers(N) then
    # integers(L) per transmitter, ascending k, on the 40-drop pools of
    # bench/run.py's workloads.  start_alignment draws them in one
    # broadcast call, so this also checks that numpy's broadcast path still
    # draws what its scalar calls do, bounds of 1 included.
    cfg = dataclasses.replace(load_scenario(SCENARIOS / "default.json"), **overrides)
    for seed in range(40):
        net = build_topology(dataclasses.replace(cfg, seed=seed))
        want = reference.random_alignment(net, np.random.default_rng(seed))
        assert start_alignment(net) == want and want.num_assigned() == net.num_tx


def test_start_draw_is_read_only():
    net = build_topology(make_config())
    for a in net.start_draw:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    assert net.start_draw is net.start_draw  # drawn once per drop


def test_start_alignment_returns_a_new_writable_copy():
    cfg = dataclasses.replace(load_scenario(SCENARIOS / "default.json"), **K4)
    for seed in range(5):
        net = build_topology(dataclasses.replace(cfg, seed=seed))
        want = reference.random_alignment(net, np.random.default_rng(seed))
        first, second = start_alignment(net), start_alignment(net)
        assert first == second == want
        for a in (first.rb, first.level):
            assert a.flags.writeable and not any(
                np.shares_memory(a, b) for b in (second.rb, second.level, *net.start_draw))
        first.rb[0] = first.level[0] = -1
        first.assign(1, 0, 0)
        assert start_alignment(net) == second == want


def test_run_experiment_rows_independent_of_algorithm_order():
    # Every solver starts from its own copy of the drop's start state, so
    # no run can see what another did to it.
    cfg = load_scenario(SCENARIOS / "default.json")
    want = rows_sha256(run_experiment(cfg, seeds=range(3), t_max=200))
    for order in itertools.permutations(SOLVERS):
        assert rows_sha256(run_experiment(cfg, algorithms=order, seeds=range(3),
                                          t_max=200)) == want
    alone = [r for name in SOLVERS
             for r in run_experiment(cfg, algorithms=[name], seeds=range(3), t_max=200)]
    assert rows_sha256(sorted(alone, key=lambda r: (r.seed, r.algorithm))) == want


def test_subset_pairs_cached_read_only_and_equal_to_a_fresh_build():
    for K in (1, 3, 4, 3, 6):
        got = allocation._subset_pairs(K)
        assert allocation._subset_pairs(K) is got  # a cache hit
        assert allocation._subset_pairs.cache_info().currsize == 1  # one K kept
        for a, b in zip(got, allocation._subset_pairs.__wrapped__(K)):
            assert not a.flags.writeable and a.dtype == b.dtype and np.array_equal(a, b)
        with pytest.raises(ValueError, match="read-only"):
            got[1][0] = 1


def imported_modules(path):
    """Last dotted component of every module a source file imports."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module in (None, "hetalloc"):  # from . import x, from hetalloc import x
                yield from (alias.name for alias in node.names)
            else:
                yield node.module.rsplit(".", 1)[-1]


def test_solver_modules_import_no_other_solver():
    solvers = {"matching", "msgpass", "auction"}
    for name in solvers:
        path = ROOT / "src" / "hetalloc" / f"{name}.py"
        assert not (set(imported_modules(path)) & solvers - {name}), name
