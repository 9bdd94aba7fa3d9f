"""Holder-list and per-round code against the scan-based references.

Every comparison is exact (``==`` or equal bytes): the optimized routines
make the same floating-point additions in the same order as the plain
scans in ``reference.py``, so any difference is a defect.
"""

import dataclasses

import numpy as np
import pytest

import reference
from hetalloc import netmodel
from hetalloc.allocation import Allocation, sum_rate, weighted_benefit
from hetalloc.auction import NO_BIDDER, AuctionState, local_auction_round
from hetalloc.matching import (build_rb_profile, build_transmitter_profile,
                               match_alignments, random_alignment)
from hetalloc.msgpass import MessageState, extract_allocation
from hetalloc.netmodel import build_topology

from conftest import toy_network
from test_netmodel import make_config

WIDE = dict(num_sbs=30, num_d2d=20, num_rb=25, power_levels=(0.02, 0.05, 0.2, 1.0))
MID = dict(num_sbs=6, num_d2d=4, num_rb=8, power_levels=(0.05, 0.2, 1.0), i_max=1e-7)
EDGES = [
    dict(num_sbs=1, num_d2d=0, num_rb=4, power_levels=(0.05, 0.2, 1.0)),   # K = 1
    dict(num_sbs=4, num_d2d=2, num_rb=1, power_levels=(0.05, 0.2, 1.0)),   # N = 1
    dict(num_sbs=4, num_d2d=2, num_rb=4, power_levels=(0.5,)),             # L = 1
    dict(num_sbs=1, num_d2d=0, num_rb=1, power_levels=(0.5,)),             # all 1
]


def same_array(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def random_allocation(net, rng, p_assigned=0.8):
    alloc = Allocation(net.num_tx)
    for k in range(net.num_tx):
        if rng.uniform() < p_assigned:
            alloc.assign(k, int(rng.integers(net.num_rb)), int(rng.integers(net.num_levels)))
    return alloc


def random_state(net, rng):
    shape = (net.num_tx, net.num_rb, net.num_levels)
    return MessageState(rng.normal(size=shape), rng.normal(size=shape), 0.5)


def cases():
    for i_max in (1e-6, 1e-8):
        for seed in range(3):
            yield make_config(seed=seed, i_max=i_max, **WIDE)
    for j, edge in enumerate(EDGES):
        for i_max in (1e-7, 1e-9):
            yield make_config(seed=j, i_max=i_max, **edge)


CASES = list(cases())
IDS = [f"K{c.num_tx}-N{c.num_rb}-L{c.num_levels}-cap{c.i_max:g}-s{c.seed}" for c in CASES]


@pytest.mark.parametrize("cfg", CASES, ids=IDS)
def test_tables_and_objectives_equal_scans(cfg):
    net = build_topology(cfg)
    rng = np.random.default_rng(cfg.seed)
    for p in (0.0, 0.5, 1.0):
        alloc = random_allocation(net, rng, p)
        assert same_array(netmodel.interference_vector(net, alloc),
                          reference.interference_vector(net, alloc))
        assert same_array(netmodel.utility_table(net, alloc),
                          reference.utility_table(net, alloc))
        assert same_array(netmodel.benefit_table(net, alloc),
                          reference.benefit_table(net, alloc))
        assert same_array(netmodel.cost_table(net, alloc), reference.cost_table(net, alloc))
        assert sum_rate(net, alloc) == reference.sum_rate(net, alloc)
        assert weighted_benefit(net, alloc) == reference.weighted_benefit(net, alloc)


@pytest.mark.parametrize("cfg", CASES, ids=IDS)
def test_repair_and_extraction_equal_scans(cfg):
    net = build_topology(cfg)
    rng = np.random.default_rng(cfg.seed + 100)
    evicted = 0
    for _ in range(5):
        alloc = random_allocation(net, rng, 1.0)
        fixed = netmodel.repair(net, alloc.copy())
        assert fixed == reference.repair(net, alloc.copy())
        evicted += alloc.num_assigned() - fixed.num_assigned()
        state = random_state(net, rng)
        assert extract_allocation(state, net) == reference.extract_allocation(state, net)
    if cfg.num_tx >= 6 and cfg.i_max <= 1e-8:
        assert evicted > 0  # the tight cap must exercise eviction


def ascending_k_net():
    # 1 + 2**-53 rounds back to 1, so summing 1, t, t, t one term at a time
    # in ascending k gives exactly 1.0 while any other order gives more:
    # the cap 1 + 2**-52 then holds only for the ascending-k sum.
    t = 2.0 ** -53
    gain_ul = np.full((4, 4, 1), t)
    gain_ul[:, 3, 0] = [1.0, t, t, 1.0]  # transmitters 0..2 into receiver 3
    gain_mue = np.array([1.0, t, t, t]).reshape(4, 1, 1)
    return toy_network(gain_ul, gain_mue, gain_mbs_ul=np.zeros((4, 1)), sigma2=t * t,
                       i_max=1.0 + 2.0 ** -52)


def test_cochannel_sums_run_in_ascending_k():
    net = ascending_k_net()
    alloc = Allocation(4, [(0, 0)] * 4)
    assert netmodel.interference_vector(net, alloc)[0] == 1.0
    rx_int, agg, _own = netmodel._interference_maps(net, alloc)
    assert agg[0] == 1.0 and rx_int[3, 0] == 1.0
    assert netmodel.underlay_sinrs(net, alloc)[3] == 1.0
    assert sum_rate(net, alloc) == reference.sum_rate(net, alloc)
    assert netmodel.repair(net, alloc.copy()) == alloc  # 1.0 is under the cap
    tx, rb = profiles(net, Allocation(4))
    m = match_alignments(tx, rb, net)
    assert m.allocation == alloc and m.allocation == reference.match_alignments(tx, rb, net).allocation


def test_ties_break_toward_lowest_index():
    # equal contributions over the cap: the lowest transmitter leaves
    net = toy_network(np.full((3, 3, 2), 0.1), np.full((3, 1, 2), 0.6), i_max=1.0)
    alloc = Allocation(3, [(0, 0), (1, 0), (0, 0)])
    assert netmodel.repair(net, alloc.copy()) == Allocation(3, [None, (1, 0), (0, 0)])
    # equal positive marginals everywhere: every transmitter takes (0, 0)
    state = MessageState(np.ones((3, 2, 1)), np.zeros((3, 2, 1)), 0.5)
    assert extract_allocation(state, net) == reference.extract_allocation(state, net)
    assert extract_allocation(state, net) == Allocation(3, [None, None, (0, 0)])


def profiles(net, alloc):
    iv = netmodel.interference_vector(net, alloc)
    util = netmodel.utility_table(net, alloc)
    tx = [build_transmitter_profile(net, alloc, iv, k, utilities=util[k])
          for k in range(net.num_tx)]
    rb = [build_rb_profile(net, alloc, iv, n, utilities=util[:, n, :])
          for n in range(net.num_rb)]
    return tx, rb


def test_matching_equals_list_rebuild_on_mid_drops():
    cfg = make_config(**MID)
    revoked_rounds = 0
    for seed in range(20):
        net = build_topology(dataclasses.replace(cfg, seed=seed))
        x = random_alignment(net, np.random.default_rng(seed))
        for _round in range(4):
            tx, rb = profiles(net, x)
            keys_before = [p.keys() for p in tx + rb]
            m = match_alignments(tx, rb, net)
            ref = reference.match_alignments(tx, rb, net)
            assert m.allocation == ref.allocation
            assert m.proposals == ref.proposals
            assert [p.keys() for p in tx + rb] == keys_before
            revoked_rounds += m.proposals > m.allocation.num_assigned()
            x = m.allocation
    assert revoked_rounds > 0  # revocation and striking were exercised


@pytest.mark.parametrize("cfg", [make_config(seed=s, i_max=1e-6, **WIDE) for s in range(2)]
                         + [make_config(seed=s, **MID) for s in range(2)])
def test_auction_round_with_hoisted_merged_view(cfg):
    net = build_topology(cfg)
    x_prev = random_alignment(net, np.random.default_rng(cfg.seed))
    costs = np.maximum(0.0, netmodel.cost_table(net, x_prev))
    state = AuctionState(costs, np.full(costs.shape, NO_BIDDER, np.int64), x_prev, 0.05)
    for _ in range(6):
        iv = netmodel.interference_vector(net, x_prev)
        b = netmodel.benefit_table(net, x_prev)
        merged = state.merged_view()
        rows = []
        for k in range(net.num_tx):
            hoisted = local_auction_round(k, state, net, x_prev, iv, b[k], merged=merged)
            plain = local_auction_round(k, state, net, x_prev, iv, b[k])
            assert hoisted[0] == plain[0] and hoisted[3] == plain[3]
            assert same_array(hoisted[1], plain[1]) and same_array(hoisted[2], plain[2])
            rows.append(hoisted)
        assert all(same_array(x, y) for x, y in zip(merged, state.merged_view()))
        x_prev = Allocation(net.num_tx, [r[0] for r in rows])
        state = AuctionState(np.stack([r[1] for r in rows]),
                             np.stack([r[2] for r in rows]), x_prev, 0.05)
