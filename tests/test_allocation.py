import ast
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import reference
from hetalloc import allocation, matching, netmodel
from hetalloc.allocation import (Allocation, OracleBudgetError,
                                 exhaustive_search, is_feasible, oracle_cost,
                                 search_space_size, start_alignment, sum_rate)
from hetalloc.auction import repaired_last
from hetalloc.harness import SOLVERS, run_experiment
from hetalloc.msgpass import CycleWatch
from hetalloc.netmodel import build_topology

from conftest import (BENCH, POOLS, ROOT, config, drop, make_config, rows_sha256, toy_network,
                      two_tx_net)


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
    assert list(reference.assigned_items(a)) == assigned
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


# --- feasibility --------------------------------------------------------

def violated_rbs(net, alloc):
    """The RBs whose aggregated interference reaches their cap."""
    return (netmodel.interference_vector(net, alloc) >= net.i_max).nonzero()[0].tolist()


def test_empty_allocation_feasible():
    net, alloc = two_tx_net(), Allocation(2)
    rep = is_feasible(net, alloc)
    assert rep.feasible and violated_rbs(net, alloc) == [] and rep.sum_rate == 0.0


def test_boundary_assignment_infeasible():
    # single contribution at exactly twice the cap: strictly violated
    net = two_tx_net(i_max=0.7)  # k1 contributes 0.7 * 2.0 = 1.4 = 2 * cap
    alloc = Allocation(2, {1: (0, 0)})
    rep = is_feasible(net, alloc)
    assert not rep.feasible and violated_rbs(net, alloc) == [0]
    # a load exactly at the cap violates it too
    net = two_tx_net(i_max=1.4)
    rep = is_feasible(net, alloc)
    assert netmodel.interference_vector(net, alloc).tolist() == [1.4] and not rep.feasible


EVALUATORS = [is_feasible, sum_rate, allocation.weighted_benefit]


def default_net():
    """The K=5, N=6, L=3 drop of ``scenarios/default.json``."""
    return build_topology(config({}))


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
@pytest.mark.parametrize("rb, level", [(0, -1), (-1, 0), (-2, -1), (-2, 0), (0, -2), (-1, -2)])
def test_evaluation_rejects_negative_or_half_silent_entry(evaluate, rb, level):
    # Level -1 on RB 0 would be scored at power_levels[-1], the top power,
    # and RB -2 as silent.  Allocation refuses such pairs, so they are
    # written into its arrays directly, as the solvers write them.
    alloc = Allocation(5, {0: (1, 0)})
    alloc.rb[3], alloc.level[3] = rb, level
    with pytest.raises(ValueError, match=rf"transmitter 3: RB {rb} and level {level} must be "
                                         r"< 6 and < 3, and both -1 or both >= 0"):
        evaluate(default_net(), alloc)


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
    assert value == rates[best]


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
    assert sum_rate(net, reference.exhaustive_search(net, stats=ref_stats)[0]) == value
    assert ref_stats["candidates"] == 25


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
    K, N, L = net.num_tx, net.num_rb, net.num_levels
    cost = oracle_cost(K, N, L)
    assert cost == N * (L + 1) ** K + (N + K) * 3 ** K
    exhaustive_search(net, budget=cost)
    with pytest.raises(OracleBudgetError, match=str(cost)):
        exhaustive_search(net, budget=cost - 1)


def test_oracle_budget_refuses_an_index_past_its_memory(monkeypatch):
    # K=16 at N = L = 1: 2^16 level vectors, but an index of 3^16 (set,
    # subset) pairs, about 2.4 GB at its peak.  The default budget refuses
    # it before any table or index is built.
    def never(*_args):
        raise AssertionError("the oracle built a table past its budget")

    monkeypatch.setattr(allocation, "_rb_tables", never)
    monkeypatch.setattr(allocation, "_subset_pairs", never)
    net = toy_network(np.full((16, 16, 1), 1e-3), np.full((16, 1, 1), 1e-3))
    cost = oracle_cost(16, 1, 1)
    assert cost == 2 ** 16 + 17 * 3 ** 16 > allocation.DEFAULT_ORACLE_BUDGET
    with pytest.raises(OracleBudgetError, match=str(cost)):
        exhaustive_search(net)
    assert oracle_cost(14, 1, 1) <= allocation.DEFAULT_ORACLE_BUDGET < oracle_cost(15, 1, 1)


def test_oracle_dominates_solvers_beyond_enumeration():
    # K=10, N=8, L=3: 9.5e13 allocations to enumerate, under 1e7 DP steps
    cfg = make_config(**POOLS["mid-k10"])
    for seed in range(2):
        net = drop(cfg, seed)
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


# --- the solver loop ----------------------------------------------------------

def scripted(periods, done_at=None):
    """A step that outputs ``f"o{t}"`` and records ``10 * t`` at iteration t,
    is done at ``done_at`` and proposes the period ``periods.get(t)``;
    returns it and the list of the t it was called with."""
    calls = []

    def step(t):
        calls.append(t)
        return f"o{t}", 10 * t, t == done_at, periods.get(t)

    return step, calls


def loop(step, t_max):
    """``solve``'s loop as ``(outputs, records, iterations, converged, cycle)``."""
    res = allocation.solve(step, t_max, 1, lambda *logs: logs)
    outputs, records, cycle = res.info
    assert res.messages == res.iterations
    return outputs, records, res.iterations, res.converged, cycle


def test_iterate_stops_at_done_without_replay():
    step, calls = scripted({}, done_at=3)
    assert loop(step, 10) == (["o1", "o2", "o3"], [10, 20, 30], 3, True, None)
    assert calls == [1, 2, 3]


def test_iterate_replays_a_period_in_phase():
    # Period 2 confirmed at t = 5: iterations 6..10 repeat 4, 5, 4, 5, 4.
    step, calls = scripted({5: 2})
    outputs, records, iterations, converged, cycle = loop(step, 10)
    assert calls == [1, 2, 3, 4, 5]
    assert outputs == [f"o{t}" for t in (1, 2, 3, 4, 5, 4, 5, 4, 5, 4)]
    assert records == [10 * t for t in (1, 2, 3, 4, 5, 4, 5, 4, 5, 4)]
    assert all(outputs[r] is outputs[r - 2] for r in range(5, 10))
    assert (iterations, converged, cycle) == (10, False, (6, 2))


def test_iterate_ignores_a_period_found_at_t_max():
    step, calls = scripted({5: 2})
    assert loop(step, 5) == ([f"o{t}" for t in range(1, 6)],
                             [10 * t for t in range(1, 6)], 5, False, None)
    assert calls == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("done_at, periods, converged",
                         [(1, {}, True), (None, {1: 1}, False), (None, {}, False)],
                         ids=["done", "period", "neither"])
def test_iterate_one_iteration(done_at, periods, converged):
    step, calls = scripted(periods, done_at)
    assert loop(step, 1) == (["o1"], [10], 1, converged, None)
    assert calls == [1]


@pytest.mark.parametrize("t_max", [0, True, 2.0])
def test_iterate_checks_t_max_before_any_step(t_max):
    step, calls = scripted({})
    with pytest.raises(ValueError, match="^t_max must be"):
        loop(step, t_max)
    assert calls == []
    net = build_topology(make_config())
    for solve in SOLVERS.values():
        with pytest.raises(ValueError, match="^t_max must be"):
            solve(net, t_max)


@pytest.mark.parametrize("keys, states, tail", [
    ("abacdecdec", [5, 7, 6, 1, 2, 3, 1, 2, 3, 1], ["o8", "o9", "o10"]),
    ("abaaa", [1, 2, 3, 4, 4], ["o5"]),
])
def test_iterate_replays_the_steps_cycle_watch_confirms(keys, states, tail):
    # The sequences of test_msgpass's CycleWatch tests, whose period is
    # confirmed at the last step: the replay repeats the outputs of the
    # period that ends there, oldest first.
    watch = CycleWatch()

    def step(t):
        return f"o{t}", t, False, watch.step(keys[t - 1], (np.array([states[t - 1]]),))

    outputs, _, iterations, _, cycle = loop(step, len(keys) + 7)
    p = len(tail)
    assert (iterations, cycle) == (len(keys) + 7, (len(keys) + 1, p))
    assert outputs[len(keys) - p:] == [tail[i % p] for i in range(p + 7)]


# --- the picks ------------------------------------------------------------------

@pytest.mark.parametrize("periods, done_at, last", [({5: 2}, None, "o4"), ({}, 3, "o3"),
                                                    ({}, None, "o10")],
                         ids=["replayed", "done", "t_max"])
def test_default_pick_is_the_last_output(periods, done_at, last):
    step, _ = scripted(periods, done_at)
    res = allocation.solve(step, 10, 1, lambda outputs, *_: outputs)
    assert res.allocation == last and res.allocation is res.info[-1]


def test_matching_pick_takes_the_first_best_computed_round(monkeypatch):
    # Rounds 1..5 are computed and 6..10 replay 4 and 5: no replayed round
    # is scored, and o2 comes first of the equal best o2, o3 and o5.
    scored = []

    def rate(net, x):
        scored.append(x)
        return {"o1": 1.0, "o2": 3.0, "o3": 3.0, "o4": 2.0, "o5": 3.0}[x]

    monkeypatch.setattr(matching, "sum_rate", rate)
    step, _ = scripted({5: 2})
    res = allocation.solve(step, 10, 1, lambda *_: {}, matching.best_round(None))
    assert (res.allocation, res.converged) == ("o2", False)
    assert scored == ["o1", "o2", "o3", "o4", "o5"]
    scored.clear()
    step, _ = scripted({}, done_at=3)
    res = allocation.solve(step, 10, 1, lambda *_: {}, matching.best_round(None))
    assert (res.allocation, res.converged, scored) == ("o3", True, [])


def test_auction_pick_repairs_the_last_output():
    # Both transmitters on the one RB load it 1.2 + 1.4 >= 2: repair evicts 1.
    net = two_tx_net(i_max=2.0)
    outputs = [Allocation(2, [(0, 0), (0, 0)]), Allocation(2, [(0, 0), (0, 0)])]
    res = allocation.solve(lambda t: (outputs[t - 1], None, t == 2, None), 5, 1,
                           lambda *_: {}, repaired_last(net))
    assert res.allocation is outputs[-1] and res.allocation == Allocation(2, [(0, 0), None])
    assert outputs[0] == Allocation(2, [(0, 0), (0, 0)])
    assert is_feasible(net, res.allocation).feasible


# --- solver start state and layering --------------------------------------

@pytest.mark.parametrize("overrides", [{}, *(POOLS[name] for name in BENCH),
                                       dict(num_rb=1), dict(power_levels=(0.5,)),
                                       dict(POOLS["oracle-k4"], num_rb=1, power_levels=(0.5,))],
                         ids=["default", "k4", "mid-k10", "k50-loose", "k50-tight",
                              "n1", "l1", "n1-l1"])
def test_start_alignment_equals_reference_draw(overrides):
    # Pins the stream layout: default_rng(net.seed), integers(N) then
    # integers(L) per transmitter, ascending k, on the 40-drop pools of
    # bench/run.py's workloads.  start_alignment draws them in one
    # broadcast call, so this also checks that numpy's broadcast path still
    # draws what its scalar calls do, bounds of 1 included.
    cfg = config(overrides)
    for seed in range(40):
        net = drop(cfg, seed)
        want = reference.random_alignment(net, np.random.default_rng(seed))
        assert start_alignment(net) == want and want.num_assigned() == net.num_tx


def test_start_draw_is_read_only():
    net = build_topology(make_config())
    for a in net.start_draw:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    assert net.start_draw is net.start_draw  # drawn once per drop


def test_start_alignment_returns_a_new_writable_copy():
    cfg = config(POOLS["oracle-k4"])
    for seed in range(5):
        net = drop(cfg, seed)
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
    # no run can see what another did to it, the oracle's included: without
    # the oracle, default.json's rows (seeds 0..19, t_max 500) are those of
    # its oracle run, pinned in test_harness, with the gaps left empty.
    cfg = config({})
    with_oracle = run_experiment(cfg, seeds=range(20), with_oracle=True)
    assert rows_sha256(run_experiment(cfg, seeds=range(20))) == rows_sha256(
        [dataclasses.replace(r, oracle_gap=None) for r in with_oracle if r.algorithm != "oracle"])
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


ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_process_environment():
    # A library call's answer depends on its arguments alone: no module may
    # name os.environ, os.environb, os.getenv or os.getenvb, as an
    # attribute or in an import.
    for path in sorted((ROOT / "src" / "hetalloc").glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        assert not names & ENVIRONMENT_READS, path.name


def test_solver_modules_import_no_other_solver():
    solvers = {"matching", "msgpass", "auction"}
    for name in solvers:
        path = ROOT / "src" / "hetalloc" / f"{name}.py"
        assert not (set(imported_modules(path)) & solvers - {name}), name


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def dunder(name):
    return name.startswith("__") and name.endswith("__")


def defined_functions(path):
    """``(class, name)`` of the functions and methods a source file defines,
    dunders aside; ``class`` is None outside a class body."""
    tree = ast.parse(path.read_text())
    owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    return {(owner.get(id(node)), node.name) for node in ast.walk(tree)
            if isinstance(node, FUNCTIONS) and not dunder(node.name)}


def class_members(path):
    """``(class, name)`` of every field (an annotated name or a slot),
    property and method that a source file's class bodies define, dunders
    aside."""
    members = set()
    for c in ast.walk(ast.parse(path.read_text())):
        for f in c.body if isinstance(c, ast.ClassDef) else ():
            if isinstance(f, FUNCTIONS):
                members.add((c.name, f.name))
            elif isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name):
                members.add((c.name, f.target.id))
            elif isinstance(f, ast.Assign) and [ast.unparse(t) for t in f.targets] == ["__slots__"]:
                members.update((c.name, slot) for slot in ast.literal_eval(f.value))
    return {(c, name) for c, name in members if not dunder(name)}


def attribute_reads(path, qualname):
    """``ast.unparse`` of every attribute read in the function ``qualname``
    (``"f"`` or ``"Class.f"``) of a source file."""
    body = ast.parse(path.read_text()).body
    *owner, name = qualname.split(".")
    if owner:
        body = next(c.body for c in body if isinstance(c, ast.ClassDef) and c.name == owner[0])
    function = next(f for f in body if isinstance(f, FUNCTIONS) and f.name == name)
    return {ast.unparse(node) for node in ast.walk(function) if isinstance(node, ast.Attribute)}


def referenced_names(path, strings=False):
    """Every ``Name`` id and ``Attribute`` attr of a source file and, with
    ``strings``, every string constant (bench/tracing.py names its sites
    by string)."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


# Defined in src/ though neither src/ nor bench/ reaches it, each with why it stays.
KEPT_UNREACHED = {
    (None, "macro_sinrs"): "the macro tier's SINR table, which tests/test_scale.py reports "
                           "(ROADMAP item 1)",
}

# A class member whose name another src/ class also defines as a field,
# property or method: a read of that name does not say whose member it
# reaches, so each names a (file, function, read) that reaches it.
SHARED_MEMBERS = {
    ("Allocation", "num_tx"): ("src/hetalloc/allocation.py", "_check_fits", "alloc.num_tx"),
    ("Network", "num_tx"): ("src/hetalloc/allocation.py", "_check_fits", "net.num_tx"),
    ("Network", "num_rb"): ("src/hetalloc/allocation.py", "_check_fits", "net.num_rb"),
    ("Network", "seed"): ("src/hetalloc/netmodel.py", "Network.start_draw", "self.seed"),
    ("ScenarioConfig", "num_tx"): ("src/hetalloc/netmodel.py", "ScenarioConfig.validate",
                                   "self.num_tx"),
}


def test_src_defines_only_what_src_or_bench_reaches():
    # Code only tests call lives in tests/reference.py.  __init__.py
    # re-exports the API, so its names show no use.
    src = [p for p in sorted((ROOT / "src" / "hetalloc").glob("*.py")) if p.name != "__init__.py"]
    used = {name for p in src for name in referenced_names(p)}
    used |= {name for p in sorted((ROOT / "bench").glob("*.py"))
             for name in referenced_names(p, strings=True)}
    defined = set().union(*map(defined_functions, src))
    members = set().union(*map(class_members, src))
    shared = {(c, n) for c, n in defined
              if c is not None and any(m == n and o != c for o, m in members)}
    assert shared == set(SHARED_MEMBERS)
    for (_, name), (path, function, read) in SHARED_MEMBERS.items():
        assert read.endswith(f".{name}") and read in attribute_reads(ROOT / path, function)
    unreached = {(c, n) for c, n in defined - shared if n not in used}
    assert unreached == set(KEPT_UNREACHED)


def calls_by_function(path, name):
    """``(file, function)`` for each call of ``name`` in a source file,
    by the innermost function around it (None at module level)."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == name:
                found.append((path.name, function))
            visit(child, child.name if isinstance(child, FUNCTIONS) else function)

    visit(ast.parse(path.read_text()), None)
    return found


def test_only_solve_and_the_oracle_row_build_a_solver_result():
    # Every runner returns allocation.solve's result; run_experiment wraps
    # the oracle's allocation as a row of its own.
    src = sorted((ROOT / "src" / "hetalloc").glob("*.py"))
    assert sorted(c for p in src for c in calls_by_function(p, "SolverResult")) == [
        ("allocation.py", "solve"), ("harness.py", "run_experiment")]
