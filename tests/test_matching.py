import dataclasses
import itertools

import numpy as np
import pytest

import reference
from hetalloc import matching, netmodel
from hetalloc.allocation import (Allocation, exhaustive_search, is_feasible, start_alignment,
                                 sum_rate)
from hetalloc.matching import (find_blocking_pair, match_alignments, preference_orders,
                               run_stable_matching)
from hetalloc.harness import load_scenario
from hetalloc.netmodel import build_topology, utility_table

from conftest import round_orders, toy_network
from test_exact import order_bytes, order_keys
from test_harness import K4, MID_K10, SCENARIOS
from test_netmodel import make_config

# Drops of bench/run.py's mid-k10 workload whose matching never converges:
# from round 3-6 on, every allocation equals the one two rounds back.
MID_K10_OSCILLATING = (7, 15, 23, 24, 31, 35, 38)


def mid_k10_net(seed):
    cfg = dataclasses.replace(load_scenario(SCENARIOS / "default.json"), **MID_K10)
    return build_topology(dataclasses.replace(cfg, seed=seed))


def contention_net():
    """Two transmitters, two RBs, one level; both prefer RB 0, cap admits one."""
    gain_ul = np.zeros((2, 2, 2))
    gain_ul[0, 0] = [10.0, 4.0]   # own gains of k0 on RB 0/1
    gain_ul[1, 1] = [20.0, 2.0]   # own gains of k1
    gain_ul[0, 1] = gain_ul[1, 0] = [1e-9, 1e-9]
    gain_mue = np.zeros((2, 1, 2))
    gain_mue[0, 0] = [0.6, 0.6]
    gain_mue[1, 0] = [0.7, 0.7]
    return toy_network(gain_ul, gain_mue, gain_mbs_ul=np.full((2, 2), 1e-12),
                       power_levels=(1.0,), i_max=1.0, sigma2=1.0, w1=1.0, w2=0.0)


def orders_for(net, alloc=None):
    return preference_orders(utility_table(net, alloc if alloc is not None
                                           else Allocation(net.num_tx)))


def keys_for(net, alloc=None):
    """Both sides' best-first keys: (n, l) per transmitter, (k, l) per RB."""
    return order_keys(orders_for(net, alloc), net.num_tx, net.num_rb, net.num_levels)


# --- preference profiles --------------------------------------------------

def test_transmitter_profile_ranks_by_sinr_when_unweighted():
    net = contention_net()
    tx, _ = keys_for(net)
    assert tx[0] == [(0, 0), (1, 0)]
    assert tx[1] == [(0, 0), (1, 0)]


def test_profile_tie_break_lowest_index_first():
    gain_ul = np.full((1, 1, 2), 5.0)  # both RBs identical
    net = toy_network(gain_ul, np.full((1, 1, 2), 0.3), power_levels=(1.0, 2.0),
                      i_max=10.0, w1=1.0, w2=0.0)
    util = utility_table(net, Allocation(1))
    (tx,), _ = keys_for(net)
    # equal utilities inside each level class; order must follow (n, l)
    us = [util[0, n, l] for n, l in tx]
    assert us == sorted(us, reverse=True) and us[0] == us[1] and us[2] == us[3]
    assert tx[0] == (0, 1)   # higher power wins, RB 0 before RB 1
    assert tx == [(0, 1), (1, 1), (0, 0), (1, 0)]


def test_profile_order_matches_recomputed_utilities():
    cfg = make_config(num_sbs=1, num_d2d=1, num_rb=2, power_levels=(0.1, 0.5))
    net = build_topology(cfg)
    alloc = Allocation(2, [(0, 1), (1, 0)])
    tx, rb = keys_for(net, alloc)
    for k in range(2):
        scored = sorted((((n, l), reference.utility(net, alloc, k, (n, l)))
                         for n in range(2) for l in range(2)),
                        key=lambda e: (-e[1], e[0]))
        assert tx[k] == [key for key, _ in scored]
    for n in range(2):
        scored = sorted((((k, l), reference.utility(net, alloc, k, (n, l)))
                         for k in range(2) for l in range(2)),
                        key=lambda e: (-e[1], e[0]))
        assert rb[n] == [key for key, _ in scored]


# --- inner matching -------------------------------------------------------

def test_single_transmitter_gets_top_feasible_choice():
    gain_ul = np.array([[[8.0, 3.0]]])
    net = toy_network(gain_ul, np.array([[[2.0, 0.1]]]), power_levels=(1.0,),
                      i_max=1.0, w1=1.0, w2=0.0)
    # top choice RB 0 violates the cap alone (2.0 >= 1.0); falls back to RB 1
    m = match_alignments(orders_for(net), net)
    assert m.allocation.get(0) == (1, 0)


def test_contention_hand_trace():
    net = contention_net()
    orders = orders_for(net)
    before = order_bytes(orders)
    m = match_alignments(orders, net)
    # RB 0 keeps its preferred transmitter 1; 0 is revoked and re-proposes RB 1
    assert m.allocation.get(1) == (0, 0)
    assert m.allocation.get(0) == (1, 0)
    assert m.proposals == 3
    # the caller's orders are left intact
    assert order_bytes(orders) == before
    assert find_blocking_pair(m.allocation, orders) is None


def test_matching_feasible_and_proposal_bound_on_drops():
    cfg = make_config(num_sbs=3, num_d2d=2, num_rb=3)
    for seed in range(10):
        net = build_topology(dataclasses.replace(cfg, seed=seed))
        orders = orders_for(net)
        m = match_alignments(orders, net)
        assert m.proposals <= net.num_tx * net.num_rb * net.num_levels
        assert is_feasible(net, m.allocation).feasible
        assert find_blocking_pair(m.allocation, orders) is None


# --- blocking pairs -------------------------------------------------------

def test_blocking_pair_on_constructed_bad_matching():
    net = contention_net()
    orders = orders_for(net)
    # RB 0 holds its less preferred transmitter while the favorite sits on
    # its own worst entry: (1, 0, 0) blocks
    assert find_blocking_pair(Allocation(2, [(0, 0), (1, 0)]), orders) == (1, 0, 0)


def test_blocking_pair_needs_a_holder_to_displace():
    net = contention_net()
    orders = orders_for(net)
    # an RB without holders has no pair that (k, l) could displace
    assert find_blocking_pair(Allocation(2), orders) is None
    # silent k0 prefers RB 0, but RB 0 ranks its holder k1 first
    assert find_blocking_pair(Allocation(2, [None, (0, 0)]), orders) is None


# --- outer loop ------------------------------------------------------------

def test_single_transmitter_run_matches_oracle():
    cfg = make_config(num_sbs=1, num_d2d=0, num_rb=2, power_levels=(0.1, 0.5))
    net = build_topology(cfg)
    res = run_stable_matching(net)
    assert res.converged and res.iterations <= 2
    _, best = exhaustive_search(net)
    assert sum_rate(net, res.allocation) == pytest.approx(best, rel=1e-9)


def test_run_deterministic():
    net = build_topology(make_config())
    a = run_stable_matching(net)
    b = run_stable_matching(net)
    assert a.allocation == b.allocation
    assert a.info["proposals_per_round"] == b.info["proposals_per_round"]
    assert a.iterations == b.iterations


def test_run_message_accounting():
    net = build_topology(make_config())
    res = run_stable_matching(net)
    K, N, L = net.num_tx, net.num_rb, net.num_levels
    assert res.messages == res.iterations * (K * N * L + K)


def test_run_tiny_drop_dominated_by_oracle():
    cfg = make_config(num_sbs=1, num_d2d=1, num_rb=2, power_levels=(0.1, 0.5))
    for seed in range(20):
        net = build_topology(dataclasses.replace(cfg, seed=seed))
        res = run_stable_matching(net)
        rep = is_feasible(net, res.allocation)
        assert rep.feasible
        _, best = exhaustive_search(net)
        assert rep.sum_rate <= best * (1 + 1e-9)


def test_rounds_recorded_and_stable():
    net = build_topology(make_config())
    res = run_stable_matching(net)
    assert len(res.info["allocations"]) == res.iterations
    assert res.info["allocations"][-1] == res.allocation  # converged
    for orders, alloc in round_orders(net, res):
        assert find_blocking_pair(alloc, orders) is None


def test_no_stable_matching_dominates_on_tiny_drops():
    # enumerate every allocation of a 2x2x1 drop; among those that are
    # feasible and blocking-pair-free under the final round's orders, none
    # beats the returned sum rate
    cfg = make_config(num_sbs=1, num_d2d=1, num_rb=2, power_levels=(0.5,))
    for seed in range(10):
        net = build_topology(dataclasses.replace(cfg, seed=seed))
        res = run_stable_matching(net)
        last, _ = list(round_orders(net, res))[-1]
        achieved = sum_rate(net, res.allocation)
        choices = [None, (0, 0), (1, 0)]
        for combo in itertools.product(choices, repeat=2):
            cand = Allocation(2, list(combo))
            if not is_feasible(net, cand).feasible:
                continue
            if find_blocking_pair(cand, last) is None:
                assert sum_rate(net, cand) <= achieved * (1 + 1e-9)


def test_fast_path_builds_no_profiles(monkeypatch):
    # one pair of orders per computed round, and the profile builders kept
    # for the benchmark's tracer are never called
    built = []
    original = matching.preference_orders

    def counting_orders(util):
        built.append("orders")
        return original(util)

    def no_profiles(*_args):
        raise AssertionError("run_stable_matching built a profile")

    monkeypatch.setattr(matching, "preference_orders", counting_orders)
    monkeypatch.setattr(matching, "build_transmitter_profile", no_profiles)
    monkeypatch.setattr(matching, "build_rb_profile", no_profiles)
    net = build_topology(make_config())
    res = run_stable_matching(net)
    assert len(built) == res.iterations == len(res.info["allocations"])


def test_round_orders_equal_reference_sort_with_signed_zero_ties():
    # w1 = -0.0 and w2 = 0.0 make every utility a zero: -0.0 where the move
    # would put its RB over the cap and 0.0 where it stays under.  Each
    # round's orders must rank them by key alone, as the reference sort on
    # (-u, key) does with -0.0 == 0.0.
    gain_ul = np.full((3, 3, 2), 1e-3)
    gain_mue = np.array([[0.2, 0.7], [0.5, 0.1], [0.9, 0.3]]).reshape(3, 1, 2)
    net = toy_network(gain_ul, gain_mue, power_levels=(0.5, 1.0), i_max=0.6,
                      w1=-0.0, w2=0.0)
    util = utility_table(net, Allocation(3))
    assert {repr(u) for u in util.ravel().tolist()} == {"0.0", "-0.0"}
    res = run_stable_matching(net)
    x = start_alignment(net)
    for orders, alloc in round_orders(net, res):
        util = utility_table(net, x)
        assert {repr(u) for u in util.ravel().tolist()} <= {"0.0", "-0.0"}
        want_tx = [reference.keys(reference.profile(("tx", k), util[k])) for k in range(3)]
        want_rb = [reference.keys(reference.profile(("rb", n), util[:, n, :]))
                   for n in range(2)]
        assert order_keys(orders, 3, 2, 2) == (want_tx, want_rb)
        x = alloc


# --- cycle replay ------------------------------------------------------------

def assert_same_run(got, want):
    """Field-by-field equality with the full loop, ``cycle`` aside."""
    assert got.allocation == want.allocation
    assert (got.iterations, got.converged, got.messages) == \
        (want.iterations, want.converged, want.messages)
    assert got.info["proposals_per_round"] == want.info["proposals_per_round"]
    assert got.info["allocations"] == want.info["allocations"]
    assert len(got.info["allocations"]) == got.iterations


@pytest.mark.parametrize("seed", MID_K10_OSCILLATING)
def test_replay_equals_full_loop(seed):
    net = mid_k10_net(seed)
    first, period = run_stable_matching(net, t_max=500).info["cycle"]
    assert period == 2 and first <= 8
    # first - 1 finds the repeat in its last round and replays nothing;
    # the others end at both phases of the cycle.
    for t_max in [first - 1, first, first + 1, first + 2, first + 2 * period + 1, 500, 501]:
        got = run_stable_matching(net, t_max=t_max)
        assert_same_run(got, reference.run_stable_matching(net, t_max=t_max))
        assert got.info["cycle"] == (None if t_max < first else (first, period))
        if t_max >= first:
            allocations = got.info["allocations"]
            assert all(allocations[r] is allocations[r - period] for r in range(first - 1, t_max))


def test_oscillating_drop_computes_few_rounds(monkeypatch):
    calls = []
    original = netmodel.utility_table

    def counting(net, alloc):
        calls.append(1)
        return original(net, alloc)

    monkeypatch.setattr(netmodel, "utility_table", counting)
    res = run_stable_matching(mid_k10_net(7), t_max=500)
    assert (res.iterations, res.converged) == (500, False)
    assert len(res.info["proposals_per_round"]) == 500
    assert len(calls) <= 10


def test_only_unconverged_runs_score_their_computed_rounds(monkeypatch):
    # A converged run returns its fixed point unscored; any other run
    # scores each round it computed once, and no replayed round.
    calls = []

    def counting(net, alloc):
        calls.append(1)
        return sum_rate(net, alloc)

    monkeypatch.setattr(matching, "sum_rate", counting)
    cfg = dataclasses.replace(load_scenario(SCENARIOS / "default.json"), **K4)
    for seed in range(40):
        calls.clear()
        res = run_stable_matching(build_topology(dataclasses.replace(cfg, seed=seed)), t_max=500)
        cycle = res.info["cycle"]
        want = 0 if res.converged else cycle[0] - 1 if cycle else res.iterations
        assert len(calls) == want, seed
