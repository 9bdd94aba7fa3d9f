import copy
import dataclasses
import itertools

import numpy as np
import pytest

import reference
from hetalloc.allocation import Allocation, exhaustive_search, is_feasible, sum_rate
from hetalloc.matching import (Matching, PreferenceProfile, build_rb_profile,
                               build_transmitter_profile, find_blocking_pair,
                               match_alignments, preference_orders, random_alignment,
                               run_stable_matching)
from hetalloc.netmodel import build_topology, utility_table

from conftest import toy_network
from test_netmodel import make_config


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


def profiles_for(net, alloc=None):
    util = utility_table(net, alloc if alloc is not None else Allocation(net.num_tx))
    tx = [build_transmitter_profile(k, util[k]) for k in range(net.num_tx)]
    rb = [build_rb_profile(n, util[:, n, :]) for n in range(net.num_rb)]
    return tx, rb


def orders_for(net, alloc=None):
    return preference_orders(utility_table(net, alloc if alloc is not None
                                           else Allocation(net.num_tx)))


# --- preference profiles --------------------------------------------------

def test_transmitter_profile_ranks_by_sinr_when_unweighted():
    net = contention_net()
    prof, _ = profiles_for(net)
    assert reference.keys(prof[0]) == [(0, 0), (1, 0)]
    assert reference.keys(prof[1]) == [(0, 0), (1, 0)]


def test_profile_tie_break_lowest_index_first():
    gain_ul = np.full((1, 1, 2), 5.0)  # both RBs identical
    net = toy_network(gain_ul, np.full((1, 1, 2), 0.3), power_levels=(1.0, 2.0),
                      i_max=10.0, w1=1.0, w2=0.0)
    prof = build_transmitter_profile(0, utility_table(net, Allocation(1))[0])
    # equal utilities inside each level class; order must follow (n, l)
    us = [u for _k, u in prof.entries]
    assert us == sorted(us, reverse=True)
    assert reference.keys(prof)[0] == (0, 1)   # higher power wins, RB 0 before RB 1
    assert reference.keys(prof) == [(0, 1), (1, 1), (0, 0), (1, 0)]


def test_profile_order_matches_recomputed_utilities():
    cfg = make_config(num_sbs=1, num_d2d=1, num_rb=2, power_levels=(0.1, 0.5))
    net = build_topology(cfg)
    alloc = Allocation(2, [(0, 1), (1, 0)])
    tx, rb = profiles_for(net, alloc)
    for k in range(2):
        scored = sorted((((n, l), reference.utility(net, alloc, k, (n, l)))
                         for n in range(2) for l in range(2)),
                        key=lambda e: (-e[1], e[0]))
        assert reference.keys(tx[k]) == [key for key, _ in scored]
    for n in range(2):
        scored = sorted((((k, l), reference.utility(net, alloc, k, (n, l)))
                         for k in range(2) for l in range(2)),
                        key=lambda e: (-e[1], e[0]))
        assert reference.keys(rb[n]) == [key for key, _ in scored]


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
    tx, rb = profiles_for(net)
    orders = orders_for(net)
    before = copy.deepcopy(orders)
    m = match_alignments(orders, net)
    # RB 0 keeps its preferred transmitter 1; 0 is revoked and re-proposes RB 1
    assert m.allocation.get(1) == (0, 0)
    assert m.allocation.get(0) == (1, 0)
    assert m.proposals == 3
    # the caller's orders are left intact
    assert orders == before
    assert reference.keys(tx[0]) == [(0, 0), (1, 0)]
    assert find_blocking_pair(m, tx, rb) is None


def test_matching_feasible_and_proposal_bound_on_drops():
    cfg = make_config(num_sbs=3, num_d2d=2, num_rb=3)
    for seed in range(10):
        net = build_topology(dataclasses.replace(cfg, seed=seed))
        tx, rb = profiles_for(net)
        m = match_alignments(orders_for(net), net)
        assert m.proposals <= net.num_tx * net.num_rb * net.num_levels
        assert is_feasible(net, m.allocation).feasible
        assert find_blocking_pair(m, tx, rb) is None


# --- blocking pairs -------------------------------------------------------

def test_blocking_pair_on_constructed_bad_matching():
    net = contention_net()
    tx, rb = profiles_for(net)
    # RB 0 holds its less preferred transmitter while the favorite sits on
    # its own worst entry: (1, 0, 0) blocks
    bad = Matching(allocation=Allocation(2, [(0, 0), (1, 0)]), proposals=0)
    assert find_blocking_pair(bad, tx, rb) == (1, 0, 0)


def test_blocking_pair_empty_matching_empty_profiles():
    net = contention_net()
    empty_tx = [PreferenceProfile(("tx", k), []) for k in range(2)]
    _, rb = profiles_for(net)
    m = Matching(allocation=Allocation(2), proposals=0)
    assert find_blocking_pair(m, empty_tx, rb) is None


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
    res = run_stable_matching(net, keep_rounds=True)
    assert len(res.info["rounds"]) == res.iterations
    for rnd in res.info["rounds"]:
        assert find_blocking_pair(rnd.matching, rnd.profiles_tx, rnd.profiles_rb) is None


def test_no_stable_matching_dominates_on_tiny_drops():
    # enumerate every allocation of a 2x2x1 drop; among those that are
    # feasible and blocking-pair-free under the final-round profiles, none
    # beats the returned sum rate
    cfg = make_config(num_sbs=1, num_d2d=1, num_rb=2, power_levels=(0.5,))
    for seed in range(10):
        net = build_topology(dataclasses.replace(cfg, seed=seed))
        res = run_stable_matching(net, keep_rounds=True)
        last = res.info["rounds"][-1]
        achieved = sum_rate(net, res.allocation)
        choices = [None, (0, 0), (1, 0)]
        for combo in itertools.product(choices, repeat=2):
            cand = Allocation(2, list(combo))
            if not is_feasible(net, cand).feasible:
                continue
            m = Matching(allocation=cand, proposals=0)
            if find_blocking_pair(m, last.profiles_tx, last.profiles_rb) is None:
                assert sum_rate(net, cand) <= achieved * (1 + 1e-9)


def test_fast_path_builds_no_profiles(monkeypatch):
    built = []
    original = PreferenceProfile.__init__

    def counting_init(self, owner, entries):
        built.append(owner)
        original(self, owner, entries)

    monkeypatch.setattr(PreferenceProfile, "__init__", counting_init)
    net = build_topology(make_config())
    res = run_stable_matching(net, keep_rounds=False)
    assert res.info["rounds"] is None
    assert built == []
    # the counter sees every profile of a kept round
    kept = run_stable_matching(net, keep_rounds=True)
    assert kept.allocation == res.allocation
    assert len(built) == kept.iterations * (net.num_tx + net.num_rb)


def test_kept_profiles_equal_reference_sort_with_signed_zero_ties():
    # w1 = -0.0 and w2 = 0.0 make every utility a zero: -0.0 where the move
    # would put its RB over the cap and 0.0 where it stays under.  The kept
    # profiles must rank them by key alone and keep each zero's sign.
    gain_ul = np.full((3, 3, 2), 1e-3)
    gain_mue = np.array([[0.2, 0.7], [0.5, 0.1], [0.9, 0.3]]).reshape(3, 1, 2)
    net = toy_network(gain_ul, gain_mue, power_levels=(0.5, 1.0), i_max=0.6,
                      w1=-0.0, w2=0.0)
    util = utility_table(net, Allocation(3))
    assert {repr(u) for u in util.ravel().tolist()} == {"0.0", "-0.0"}
    res = run_stable_matching(net, keep_rounds=True)
    x = random_alignment(net, np.random.default_rng(net.seed))
    for rnd in res.info["rounds"]:
        util = utility_table(net, x)
        want_tx = [reference.profile(("tx", k), util[k]) for k in range(3)]
        want_rb = [reference.profile(("rb", n), util[:, n, :]) for n in range(2)]
        assert [(p.owner, p.entries) for p in rnd.profiles_tx + rnd.profiles_rb] == \
            [(p.owner, p.entries) for p in want_tx + want_rb]
        assert [repr(u) for p in rnd.profiles_tx + rnd.profiles_rb for _k, u in p.entries] == \
            [repr(u) for p in want_tx + want_rb for _k, u in p.entries]
        x = rnd.matching.allocation
