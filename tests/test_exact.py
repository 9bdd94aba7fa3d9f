"""Holder-list, per-round and oracle code against the references.

Every comparison is exact (``==`` or equal bytes): the optimized routines
make the same floating-point additions in the same order as the plain
scans in ``reference.py``, so any difference is a defect.  The subset-DP
oracle is compared with the full enumeration it replaced; the two break
exact ties differently, so the tie cases check the DP's documented rule.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from hetalloc import matching, msgpass, netmodel
from hetalloc.allocation import (Allocation, exhaustive_search, is_feasible, start_alignment,
                                 sum_rate, weighted_benefit)
from hetalloc.auction import NO_BIDDER, AuctionState, local_auction_round, run_auction
from hetalloc.harness import load_scenario
from hetalloc.matching import (build_rb_profile, build_transmitter_profile,
                               match_alignments, preference_orders, run_stable_matching)
from hetalloc.msgpass import MessageState, extract_allocation, proposal
from hetalloc.netmodel import build_topology

from conftest import benefit_planes, toy_network
from test_acceptance import DESK
from test_harness import K4, K50_LOOSE, K50_TIGHT, MID_K10, SCENARIOS
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
        assert same_array(reference.library_table(net, alloc, "benefit"),
                          reference.benefit_table(net, alloc))
        assert same_array(reference.library_table(net, alloc, "cost"),
                          reference.cost_table(net, alloc))
        assert sum_rate(net, alloc) == reference.sum_rate(net, alloc)
        assert weighted_benefit(net, alloc) == reference.weighted_benefit(net, alloc)
        # One holder gather feeds every pass: its own loads are the bytes
        # of ref_p, and the maps' agg is interference_vector's.  p = 0
        # draws the empty allocation, whose np.bincount folds come back as
        # ints before the cast.
        ks, ns, _kn, _p, own = netmodel._holders(net, alloc)
        assert same_array(own, net.ref_p[ks, ns, alloc.level[ks]])
        assert same_array(netmodel._interference_maps(net, alloc)[1],
                          netmodel.interference_vector(net, alloc))
        sinrs = netmodel.sinr_underlay(net, alloc)
        for i, (k, (n, _l)) in enumerate(reference.assigned_items(alloc)):
            assert sinrs[i] == reference.sinr(net, alloc, k, n)
        assert same_array(netmodel.macro_sinrs(net, alloc), macro_scan(net, alloc))


def macro_scan(net, alloc):
    """The (C, N) table of ``reference.sinr_macro``."""
    return np.array([[reference.sinr_macro(net, alloc, m, n) for n in range(net.num_rb)]
                     for m in range(net.gain_mbs_mue.shape[0])])


POOLS = {"oracle-k4": K4, "mid-k10": MID_K10, "wide-k50-loose": K50_LOOSE,
         "wide-k50-tight": K50_TIGHT}


@functools.lru_cache(maxsize=None)
def solver_allocations(pool):
    """(net, alloc) pairs on 10 drops of a bench/run.py pool: the empty
    allocation and what message passing and the auction return."""
    cfg = dataclasses.replace(load_scenario(SCENARIOS / "default.json"), **POOLS[pool])
    pairs = []
    for seed in range(10):
        net = build_topology(dataclasses.replace(cfg, seed=seed))
        pairs += [(net, alloc) for alloc in (
            Allocation(net.num_tx), msgpass.run_message_passing(net, t_max=100).allocation,
            run_auction(net, t_max=100).allocation)]
    return pairs


@pytest.mark.parametrize("pool", POOLS)
def test_macro_sinrs_equal_scan_on_solver_allocations(pool):
    for net, alloc in solver_allocations(pool):
        assert same_array(netmodel.macro_sinrs(net, alloc), macro_scan(net, alloc))


@pytest.mark.parametrize("pool", POOLS)
def test_interference_vector_equals_scan_on_solver_allocations(pool):
    for net, alloc in solver_allocations(pool):
        assert same_array(netmodel.interference_vector(net, alloc),
                          reference.interference_vector(net, alloc))


@pytest.mark.parametrize("overrides", [K4, MID_K10, K50_LOOSE, K50_TIGHT],
                         ids=["oracle-k4", "mid-k10", "wide-k50-loose", "wide-k50-tight"])
def test_interference_maps_agg_equals_vector(overrides):
    # The auction's per-round pass reads agg from the maps; it is the bytes
    # of interference_vector, the empty allocation included.
    cfg = dataclasses.replace(load_scenario(SCENARIOS / "default.json"), **overrides)
    for seed in range(3):
        net = build_topology(dataclasses.replace(cfg, seed=seed))
        rng = np.random.default_rng(seed)
        for alloc in (Allocation(net.num_tx), start_alignment(net),
                      random_allocation(net, rng, 0.5), run_auction(net, t_max=5).allocation):
            assert same_array(netmodel._interference_maps(net, alloc)[1],
                              netmodel.interference_vector(net, alloc))


def lone_holders(net, alloc):
    """How many holders reach their RB's cap on their own load."""
    ks = np.flatnonzero(alloc.rb >= 0)
    ns = alloc.rb[ks]
    return int(np.count_nonzero(net.ref_p[ks, ns, alloc.level[ks]] >= net.i_max[ns]))


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
        got = extract_allocation(state, net, proposal(state.tau))
        assert got == reference.extract_allocation(state, net)
    if cfg.num_tx >= 6 and cfg.i_max <= 1e-8:
        assert evicted > 0  # the tight cap must exercise eviction
    # Lone-heavy allocations: every transmitter at the top power level,
    # where at the tight cap most holders reach the cap alone.
    rng = np.random.default_rng(cfg.seed + 200)
    lone = 0
    for _ in range(5):
        alloc = Allocation(net.num_tx, [(rng.integers(net.num_rb), net.num_levels - 1)
                                        for _ in range(net.num_tx)])
        lone += lone_holders(net, alloc)
        assert netmodel.repair(net, alloc.copy()) == reference.repair(net, alloc.copy())
    if cfg.num_tx >= 6 and cfg.i_max <= 1e-8:
        assert lone > 0


@pytest.mark.parametrize("rest, kept", [((0.4, 0.6), [None, (0, 0), None]),
                                        ((0.4, 0.5), [None, (0, 0), (0, 0)])],
                         ids=["rest-at-cap", "rest-under-cap"])
def test_repair_goes_on_from_the_fold_without_lone_holders(rest, kept):
    # RB 0, cap 1.0: k0's load 2.0 reaches the cap alone and leaves in the
    # lone step; k1 and k2 do not.  When their fold 0.4 + 0.6 = 1.0 still
    # reaches the cap, exactly one more eviction follows, of the larger
    # (k2); when it is 0.4 + 0.5, both stay, though k0's load was part of
    # the RB's first sum.
    net = toy_network(np.full((3, 3, 1), 1e-3), np.array([2.0, *rest]).reshape(3, 1, 1),
                      i_max=1.0)
    alloc = Allocation(3, [(0, 0)] * 3)
    assert lone_holders(net, alloc) == 1
    want = Allocation(3, kept)
    assert netmodel.repair(net, alloc.copy()) == want == reference.repair(net, alloc.copy())


def test_repair_equals_scan_on_k50_tight_extraction_inputs(monkeypatch):
    # Every allocation message passing hands to repair on 10 drops of the
    # wide-k50-tight pool, where most evictions are of lone holders.
    cfg = dataclasses.replace(load_scenario(SCENARIOS / "default.json"), **K50_TIGHT)
    seen = []
    repair = netmodel.repair

    def recording(net, alloc):
        seen.append((net, alloc.copy()))
        return repair(net, alloc)

    monkeypatch.setattr(netmodel, "repair", recording)
    for seed in range(10):
        msgpass.run_message_passing(build_topology(dataclasses.replace(cfg, seed=seed)),
                                    t_max=100)
    monkeypatch.undo()
    assert len(seen) > 100 and sum(lone_holders(net, a) for net, a in seen) > 0
    for net, alloc in seen:
        assert netmodel.repair(net, alloc.copy()) == reference.repair(net, alloc.copy())


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
    rx_int, agg, _holders = netmodel._interference_maps(net, alloc)
    assert agg[0] == 1.0 and rx_int[3, 0] == 1.0
    assert netmodel.sinr_underlay(net, alloc)[3] == 1.0
    assert sum_rate(net, alloc) == reference.sum_rate(net, alloc)
    assert netmodel.repair(net, alloc.copy()) == alloc  # 1.0 is under the cap
    orders, tx, rb = profiles(net, Allocation(4))
    m = match_alignments(orders, net)
    assert m.allocation == alloc and m.allocation == reference.match_alignments(tx, rb, net).allocation
    # the oracle's cap test sums in ascending k too: all 16 subsets fit,
    # where summing all four from transmitter 3 down would reach the cap
    stats = {}
    exhaustive_search(net, stats=stats)
    loads = [sum(net.ref_gain[k, 0] for k in range(4) if t >> k & 1) for t in range(16)]
    assert stats["feasible"] == sum(load < net.i_max[0] for load in loads) == 16


def test_ties_break_toward_lowest_index():
    # equal contributions over the cap: the lowest transmitter leaves
    net = toy_network(np.full((3, 3, 2), 0.1), np.full((3, 1, 2), 0.6), i_max=1.0)
    alloc = Allocation(3, [(0, 0), (1, 0), (0, 0)])
    assert netmodel.repair(net, alloc.copy()) == Allocation(3, [None, (1, 0), (0, 0)])
    # equal positive marginals everywhere: every transmitter takes (0, 0)
    state = MessageState(np.ones((3, 2, 1)), np.zeros((3, 2, 1)), 0.5)
    got = extract_allocation(state, net, proposal(state.tau))
    assert got == reference.extract_allocation(state, net)
    assert got == Allocation(3, [None, None, (0, 0)])
    # equal utilities, signed zeros included: the lowest key ranks first
    u = np.array([[0.0, -0.0, 1.0], [1.0, -0.0, 0.0], [2.0, 2.0, 2.0]])
    assert build_rb_profile(0, u) == reference.keys(reference.profile(("rb", 0), u))
    assert build_rb_profile(0, u)[:3] == [(2, 0), (2, 1), (2, 2)]
    # the same table as K=3 transmitters on one RB: both orders agree
    util = u[:, None, :]
    tx, rb = order_keys(preference_orders(util), *util.shape)
    assert rb == [reference.keys(reference.profile(("rb", 0), u))]
    assert tx == [reference.keys(reference.profile(("tx", k), util[k])) for k in range(3)]


def order_keys(orders, K, N, L):
    """``preference_orders`` as profile keys: (n, l) per transmitter, (k, l) per
    RB.  An RB's order is its alignments sorted by (-u[s], s), and
    ``matching._struck`` must rank each entry strictly below the one before."""
    NL = N * L
    tx_order, util = orders
    assert util.shape == (K, N, L)
    u = util.ravel().tolist()
    assert all(sorted(tx_order[k * NL:(k + 1) * NL]) == list(range(k * NL, (k + 1) * NL))
               for k in range(K))
    rb_order = [sorted((k * NL + n * L + l for k in range(K) for l in range(L)),
                       key=lambda s: (-u[s], s)) for n in range(N)]
    assert all(matching._struck(u, b, a) and not matching._struck(u, a, b)
               for order in rb_order for a, b in zip(order, order[1:]))
    tx = [[divmod(s % NL, L) for s in tx_order[k * NL:(k + 1) * NL]] for k in range(K)]
    rb = [[(s // NL, s % L) for s in rb_order[n]] for n in range(N)]
    return tx, rb


def order_bytes(orders):
    """A snapshot of ``preference_orders`` that compares by value."""
    tx_order, util = orders
    return list(tx_order), util.tobytes()


def profiles(net, alloc):
    """The round's orders and both reference profile families; the orders
    and the profile builders are checked key for key against the
    reference sort."""
    util = netmodel.utility_table(net, alloc)
    orders = preference_orders(util)
    tx = [reference.profile(("tx", k), util[k]) for k in range(net.num_tx)]
    rb = [reference.profile(("rb", n), util[:, n, :]) for n in range(net.num_rb)]
    want = ([reference.keys(p) for p in tx], [reference.keys(p) for p in rb])
    assert order_keys(orders, *util.shape) == want
    assert ([build_transmitter_profile(k, util[k]) for k in range(net.num_tx)],
            [build_rb_profile(n, util[:, n, :]) for n in range(net.num_rb)]) == want
    return orders, tx, rb


def assert_matching_equals_list_rebuild(cfg, seeds, rounds):
    """Match ``rounds`` rounds per drop against the reference; returns how
    many rounds revoked a holder."""
    revoked_rounds = 0
    for seed in seeds:
        net = build_topology(dataclasses.replace(cfg, seed=seed))
        x = start_alignment(net)
        for _round in range(rounds):
            orders, tx, rb = profiles(net, x)
            orders_before = order_bytes(orders)
            keys_before = [reference.keys(p) for p in tx + rb]
            m = match_alignments(orders, net)
            ref = reference.match_alignments(tx, rb, net)
            assert m.allocation == ref.allocation
            assert m.proposals == ref.proposals
            assert order_bytes(orders) == orders_before
            assert [reference.keys(p) for p in tx + rb] == keys_before
            revoked_rounds += m.proposals > m.allocation.num_assigned()
            x = m.allocation
    return revoked_rounds


def test_matching_equals_list_rebuild_on_mid_drops():
    revoked_rounds = assert_matching_equals_list_rebuild(make_config(**MID), range(20), 4)
    assert revoked_rounds > 0  # revocation and striking were exercised


K30 = dict(num_sbs=20, num_d2d=10, num_rb=15, power_levels=(0.02, 0.05, 0.2, 1.0))


@pytest.mark.parametrize("i_max", [1e-6, 1e-8])
def test_matching_equals_list_rebuild_at_k30(i_max):
    revoked_rounds = assert_matching_equals_list_rebuild(
        make_config(i_max=i_max, **K30), range(3), 4)
    assert revoked_rounds == 12  # every round revoked and struck


def test_blocking_scan_equals_profile_scan():
    # Criterion 4's 100 drops: every inner matching, and per round five
    # candidates that each re-draw about half of the transmitters' choices
    # from silence and every (n, l).  So candidates hold silent
    # transmitters, and RBs that hold the scanning transmitter itself at
    # another level.
    outcomes = {True: 0, False: 0}
    matchings = 0
    for seed in range(100):
        net = build_topology(dataclasses.replace(DESK, seed=seed))
        K, N, L = net.num_tx, net.num_rb, net.num_levels
        rng = np.random.default_rng(seed)
        x = start_alignment(net)
        for alloc in run_stable_matching(net).info["allocations"]:
            orders, tx, rb = profiles(net, x)
            assert reference.blocking_pair(alloc, orders) == \
                reference.find_blocking_pair(alloc, tx, rb)
            matchings += 1
            for _ in range(5):
                cand = alloc.copy()
                for k in np.flatnonzero(rng.random(K) < 0.5).tolist():
                    j = int(rng.integers(N * L + 1)) - 1
                    if j < 0:
                        cand.rb[k] = cand.level[k] = -1
                    else:
                        cand.assign(k, *divmod(j, L))
                got = reference.blocking_pair(cand, orders)
                assert got == reference.find_blocking_pair(cand, tx, rb)
                outcomes[got is None] += 1
            x = alloc
    assert matchings == 543
    assert min(outcomes.values()) > 100  # both stable and blocked candidates


def test_cap_sums_are_sequential_not_compensated():
    # 1 + 1e-16 rounds back to 1, so the plain left fold of the three loads
    # is exactly 1.0 and stays under the cap 1 + 2**-52; a compensated sum
    # (math.fsum, or the builtin sum since Python 3.12) reaches the cap.
    loads = [1.0, 1e-16, 1e-16]
    cap = float(np.nextafter(1.0, 2.0))
    assert netmodel.load_sum(loads) == 1.0 < cap <= math.fsum(loads)
    net = toy_network(np.full((3, 3, 1), 1e-3), np.array(loads).reshape(3, 1, 1), i_max=cap)
    alloc = Allocation(3, [(0, 0)] * 3)
    assert netmodel.repair(net, alloc.copy()) == alloc
    assert is_feasible(net, alloc).feasible
    orders, tx, rb = profiles(net, Allocation(3))
    assert match_alignments(orders, net).allocation == alloc
    assert reference.match_alignments(tx, rb, net).allocation == alloc


def test_cap_reached_exactly_counts_as_over():
    # loads 0.5 + 0.5 reach the cap 1.0 exactly; the cap is strict, so RB 0
    # keeps only the transmitter it ranks first (k0, the stronger link)
    net = toy_network(np.array([[2.0, 1e-3], [1e-3, 1.0]])[:, :, None],
                      np.full((2, 1, 1), 0.5), i_max=1.0)
    both = Allocation(2, [(0, 0), (0, 0)])
    assert not is_feasible(net, both).feasible
    assert netmodel.repair(net, both.copy()) == Allocation(2, [None, (0, 0)])
    orders, tx, rb = profiles(net, Allocation(2))
    m = match_alignments(orders, net)
    assert m.allocation == Allocation(2, [(0, 0), None])
    assert m.allocation == reference.match_alignments(tx, rb, net).allocation
    assert m.proposals == 2


def assert_round_equals_reference(state, net, iv, benefits):
    """The kernel, on the planes of the (K, N, L) table ``benefits``,
    against K per-transmitter rounds on its rows, their local views merged
    by ``reference.merged_view``; returns the kernel's result and each
    transmitter's bid flag."""
    got = local_auction_round(state, net, iv, benefit_planes(benefits))
    alloc, costs, bidders, placed = reference.auction_rows(state, net, iv, benefits)
    merged_costs, merged_bidders = reference.merged_view(costs, bidders)
    assert got[0] == alloc
    assert same_array(got[1], merged_costs) and same_array(got[2], merged_bidders)
    assert got[3] == sum(placed)
    return got, placed


ROUND_CASES = ([make_config(seed=s, i_max=cap, **WIDE) for cap in (1e-6, 1e-8) for s in range(2)]
               + [make_config(seed=s, **MID) for s in range(3)]
               + [make_config(seed=s, **K4) for s in range(3)])


@pytest.mark.parametrize("cfg", ROUND_CASES,
                         ids=[f"K{c.num_tx}-cap{c.i_max:g}-s{c.seed}" for c in ROUND_CASES])
def test_auction_kernel_equals_per_transmitter_rounds(cfg):
    net = build_topology(cfg)
    x_prev = start_alignment(net)
    costs = np.maximum(0.0, reference.library_table(net, x_prev, "cost")).max(axis=0)
    state = AuctionState(costs, np.full(costs.shape, NO_BIDDER, np.int64), x_prev, 0.05)
    outcomes = set()
    for _ in range(6):
        iv = netmodel.interference_vector(net, x_prev)
        b = reference.library_table(net, x_prev, "benefit")
        # run_auction hands the round these planes, as they leave benefit_table.
        planes = netmodel.benefit_table(net, netmodel._interference_maps(net, x_prev)[0])
        assert same_array(benefit_planes(b), planes)
        (x_prev, costs, bidders, _bids), placed = assert_round_equals_reference(
            state, net, iv, b)
        outcomes.update(placed)
        state = AuctionState(costs, bidders, x_prev, 0.05)
    # At the tight cap the random start state loads every RB, so the guard
    # blocks every bid there.
    assert (True in outcomes) == (cfg.i_max > 1e-8)


def k_row_auction(net, t_max):
    """``run_auction`` as it ran before it stored only the merged table: K
    local views per round from ``reference.local_auction_round``, reduced
    by ``reference.merged_view`` at the start of the next round.  Returns
    ``(allocation, iterations, converged, merged_costs)``."""
    x = start_alignment(net)
    b0 = reference.library_table(net, x, "benefit")
    span = float(b0.max() - b0.min())
    eps = 0.01 * span if span > 0 else 1e-6
    costs = np.maximum(0.0, reference.library_table(net, x, "cost"))
    bidders = np.full(costs.shape, NO_BIDDER, np.int64)
    for t in range(1, t_max + 1):
        state = AuctionState(*reference.merged_view(costs, bidders), x, eps)
        x_t, costs, bidders, placed = reference.auction_rows(
            state, net, netmodel.interference_vector(net, x),
            reference.library_table(net, x, "benefit"))
        if not any(placed):
            break
        x = x_t
    return (netmodel.repair(net, x_t.copy()), t, not any(placed),
            reference.merged_view(costs, bidders)[0])


@pytest.mark.parametrize("cfg", [make_config(seed=s, i_max=1e-6, **WIDE) for s in range(2)]
                         + [make_config(seed=s, **MID) for s in range(2)])
def test_run_auction_equals_k_row_reference_loop(cfg):
    net = build_topology(cfg)
    res = run_auction(net, t_max=100)
    alloc, iterations, converged, merged_costs = k_row_auction(net, 100)
    assert res.allocation == alloc and res.iterations == iterations
    assert res.converged == converged
    assert same_array(res.info["merged_costs"], merged_costs)


@st.composite
def toy_rounds(draw):
    """A random snapshot for one round at K, N, L <= 3.

    Values come from a few levels, so ties are common; merged costs may be
    huge (so ``merged + increment == merged``); a recorded bidder may be
    NO_BIDDER, the transmitter itself at its previous resource (a content
    or an evicted holder) or another one; caps may block the best entry.
    """
    K, N, L = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    levels = np.array([0.0, 0.5, 1.0, 2.0])
    net = toy_network(rng.uniform(0.1, 3.0, (K, K, N)), rng.uniform(0.1, 1.0, (K, 2, N)),
                      power_levels=np.sort(rng.uniform(0.1, 2.0, L)),
                      i_max=rng.uniform(0.2, 4.0, N))
    benefits = levels[rng.integers(0, 4, (K, N, L))]
    merged = levels[rng.integers(0, 4, (N, L))]
    if draw(st.booleans()):
        merged[rng.uniform(size=(N, L)) < 0.5] = 1e20
    bidder = rng.integers(NO_BIDDER, K, (N, L))
    slots = [None if rng.uniform() < 0.3 else (int(rng.integers(N)), int(rng.integers(L)))
             for _ in range(K)]
    for k, slot in enumerate(slots):
        if slot is not None and rng.uniform() < 0.6:
            bidder[slot] = k
    alloc = Allocation(K, slots)
    iv = rng.uniform(0.0, 2.0, N)
    eps = draw(st.sampled_from([0.25, 0.5, 1.0, 1e-3]))
    return AuctionState(merged, bidder, alloc, eps), net, iv, benefits


@settings(max_examples=300, deadline=None)
@given(toy_rounds())
def test_auction_kernel_equals_reference_on_toy_states(case):
    assert_round_equals_reference(*case)


def test_auction_kernel_absorbed_increment_and_degenerate_shapes():
    # A huge merged cost absorbs the increment: the bid is placed, the cost
    # does not move.  K = 1 and N*L = 1 run through the same step.
    net = toy_network(np.ones((1, 1, 1)), np.full((1, 1, 1), 1e-9), i_max=1.0)
    state = AuctionState(np.full((1, 1), 1e20), np.full((1, 1), NO_BIDDER), Allocation(1), 0.5)
    (alloc, costs, bidders, bids), placed = assert_round_equals_reference(
        state, net, np.zeros(1), np.ones((1, 1, 1)))
    assert placed == [True] and bids == 1 and alloc == Allocation(1, [(0, 0)])
    assert costs[0, 0] == 1e20 and bidders[0, 0] == 0


@pytest.mark.parametrize("k0_load, bidder", [(1e-9, 0), (10.0, 2)],
                         ids=["k0-bids", "k0-blocked"])
def test_auction_kernel_absorbed_increment_bidder(k0_load, bidder):
    # Three bids that a huge cost absorbs: the cost does not move, and its
    # bidder becomes transmitter 0 only if 0 bid (the cap blocks it when
    # its load is 10); otherwise the recorded bidder 2 stays.
    net = toy_network(np.ones((3, 3, 1)), np.array([[[k0_load]], [[1e-9]], [[1e-9]]]),
                      i_max=1.0)
    state = AuctionState(np.full((1, 1), 1e20), np.full((1, 1), 2), Allocation(3), 0.5)
    (_alloc, costs, bidders, bids), placed = assert_round_equals_reference(
        state, net, np.zeros(1), np.ones((3, 1, 1)))
    assert placed == [k0_load < 1.0, True, True] and bids == sum(placed)
    assert costs[0, 0] == 1e20 and bidders[0, 0] == bidder


# Best value 0.8, epsilon 0.3: the content threshold (vmax - eps) - slack,
# with slack = 1e-12 * 0.8, lies one ulp below vmax - (eps + slack).
THRESHOLD = (0.8 - 0.3) - 1e-12 * 0.8


@pytest.mark.parametrize("held_value, content", [(THRESHOLD, True),
                                                 (np.nextafter(THRESHOLD, -np.inf), False)],
                         ids=["at", "below"])
def test_auction_kernel_content_threshold_is_inclusive(held_value, content):
    # Transmitter 0 holds the high bid on RB 1; RB 0 is worth more.
    net = toy_network(np.ones((1, 1, 2)), np.full((1, 1, 2), 1e-9), i_max=1.0)
    prev = Allocation(1, [(1, 0)])
    state = AuctionState(np.zeros((2, 1)), np.array([[NO_BIDDER], [0]]), prev, 0.3)
    benefits = np.array([[[0.8], [held_value]]])
    (alloc, _costs, _bidders, bids), _ = assert_round_equals_reference(
        state, net, np.zeros(2), benefits)
    assert bids == (0 if content else 1)
    assert alloc == Allocation(1, [(1, 0) if content else (0, 0)])


@pytest.mark.parametrize("load, bids", [(0.5, 0), (np.nextafter(1.0, 0.0) - 0.5, 1)],
                         ids=["at-cap", "under-cap"])
def test_auction_kernel_guard_is_strict(load, bids):
    # The bidder's own reference-user load is 0.5 on a cap of 1.
    net = toy_network(np.ones((1, 1, 1)), np.full((1, 1, 1), 0.5), i_max=1.0)
    state = AuctionState(np.zeros((1, 1)), np.full((1, 1), NO_BIDDER, np.int64),
                         Allocation(1), 0.1)
    result, _ = assert_round_equals_reference(state, net, np.array([load]), np.ones((1, 1, 1)))
    assert result[3] == bids


def test_network_constant_tables_equal_inline_and_read_only():
    # At N = 1 a transposed gain_ul and its reshape are views of gain_ul,
    # so gain_rows, written with its 0.0 entries, must be built on a copy:
    # the checksum shows gain_ul kept.
    for overrides in (MID, EDGES[1]):
        net = build_topology(make_config(seed=3, **overrides))
        K = net.num_tx
        sig = net.gain_ul[np.arange(K), np.arange(K), :]
        L = net.num_levels
        sig_p = sig[:, :, None] * net.power_levels[None, None, :]
        assert same_array(net.sig_pt, np.ascontiguousarray(sig_p.reshape(-1, L).T))
        assert same_array(net.mbs_den, net.gain_mbs_ul * net.mbs_power)
        assert same_array(net.ref_p, net.ref_gain[:, :, None] * net.power_levels[None, None, :])
        assert net.ref_p_list == net.ref_p.ravel().tolist()
        k, n, l = K - 1, net.num_rb - 1, 1
        assert net.ref_p_list[(k * net.num_rb + n) * net.num_levels + l] == net.ref_p[k, n, l]
        assert net.ref_p_list is net.ref_p_list
        assert same_array(net.ref_pt, np.ascontiguousarray(net.ref_p.reshape(-1, L).T))
        assert same_array(net.i_max_kn, np.tile(net.i_max, K))
        N = net.num_rb
        assert net.gain_rows.shape == (K * N, K)
        for k in range(K):
            for n in range(N):
                # Entry k is +0.0: no transmitter interferes with its own receiver.
                want = net.gain_ul[k, :, n].copy()
                want[k] = 0.0
                assert same_array(net.gain_rows[k * N + n], want)
        for table in (net.mbs_den, net.ref_p, net.sig_pt, net.ref_pt, net.i_max_kn,
                      net.gain_rows):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[(0,) * table.ndim] = 1.0
        assert net.sig_pt is net.sig_pt  # built once per drop
        assert net.gain_rows is net.gain_rows
        again = build_topology(make_config(seed=3, **overrides))
        assert reference.checksum(again) == reference.checksum(net)
        assert "sig_pt" not in {f.name for f in dataclasses.fields(net)}


@pytest.mark.parametrize("shape, axis", [((5, 12), 1), ((6, 4, 3), 0), ((2, 2), 1),
                                         ((2, 1, 1), 0), ((50, 100), 1)])
def test_max_excluding_self_equals_sort(shape, axis):
    rng = np.random.default_rng(7)
    tied = rng.integers(0, 3, size=shape).astype(float)  # repeated peaks
    for a in (rng.normal(size=shape), tied, np.zeros(shape)):
        got = reference.max_excluding_self_gather(a, axis)
        want = reference.max_excluding_self(a, axis)
        assert got.shape == want.shape and (got == want).all()


def tied_signed_table(rng, shape):
    """Entries from a few values, so lines share peaks, with a third of
    them replaced by +0.0 or -0.0."""
    a = rng.choice([-1.5, -0.5, 0.25, 1.0], size=shape)
    zero = rng.random(shape) < 1 / 3
    a[zero] = np.copysign(0.0, rng.normal(size=shape))[zero]
    return a


@pytest.mark.parametrize("shape", [(6, 4, 3), (50, 25, 4), (1, 4, 3), (5, 1, 1), (1, 1, 1)],
                         ids=["K6", "K50", "K1", "NL1", "all1"])
def test_sweeps_equal_gather_form_bytes(shape):
    # The sweeps mask each line's peak in place of the gather form's
    # full-size copy and write the maxima over their own buffer; the
    # bytes stay those of the gather form, signs of zero included, and
    # the state and the utilities end as they began.  Written into the
    # halves of one (2, K, N, L) buffer, as the loop hands them, they are
    # the same bytes, the size-1 shapes (K = 1, N*L = 1) included; the
    # buffer starts as NaN, so a half left unfilled shows.
    rng = np.random.default_rng(19)
    for i in range(90):
        omega = (0.3, 0.5, 1.0)[i % 3]
        draw = tied_signed_table if i % 2 else zero_heavy_table
        u, psi_tx, psi_res = (draw(rng, shape) for _ in range(3))
        s = MessageState(psi_tx, psi_res, omega)
        before = [a.tobytes() for a in (u, psi_tx, psi_res)]
        gather = reference.max_excluding_self_gather
        want = reference.tx_sweep(s, u, gather), reference.res_sweep(s, gather)
        buf = np.full((2,) + shape, np.nan)
        for got in ((msgpass.tx_sweep(s, u), msgpass.res_sweep(s)),
                    (msgpass.tx_sweep(s, u, out=buf[0]), msgpass.res_sweep(s, out=buf[1])),
                    buf):
            assert same_array(got[0], want[0]) and same_array(got[1], want[1])
        assert [a.tobytes() for a in (u, psi_tx, psi_res)] == before


# Nonzero entries with many repeats; no sum of one from NONZERO_U and one
# from NONZERO_RES is zero, so every message line is free of zeros too.
NONZERO_U = np.array([-3.0, -1.0, 0.5, 2.0])
NONZERO_RES = np.array([-0.25, 0.75, 1.5])


@pytest.mark.parametrize("shape", [(10, 8, 3), (50, 25, 4)], ids=["K10", "K50"])
def test_sweeps_equal_top2_form_bytes(shape):
    # Away from zeros the argmax form returns the very floats the
    # partition form did, shared peaks included.
    rng = np.random.default_rng(5)
    for i in range(60):
        omega = (0.3, 0.5, 1.0)[i % 3]
        if i % 2:
            u, psi_tx = rng.choice(NONZERO_U, size=(2,) + shape)
            psi_res = rng.choice(NONZERO_RES, size=shape)
        else:
            u, psi_tx, psi_res = rng.normal(size=(3,) + shape)
        s = MessageState(psi_tx, psi_res, omega)
        assert same_array(msgpass.tx_sweep(s, u), reference.tx_sweep(s, u))
        assert same_array(msgpass.res_sweep(s), reference.res_sweep(s))


def zero_heavy_table(rng, shape):
    """Normal entries with 95% of them replaced by +0.0 or -0.0."""
    a = rng.normal(size=shape)
    zero = rng.random(shape) < 0.95
    a[zero] = np.copysign(0.0, rng.normal(size=shape))[zero]
    return a


def flip_zero_signs(a):
    return np.where(a == 0.0, -a, a)


@pytest.mark.parametrize("cfg", [make_config(seed=1, **MID), make_config(seed=1, **WIDE)],
                         ids=["K10", "K50"])
def test_signs_of_zero_reach_no_allocation(cfg):
    # A peak of exactly +-0 may leave the argmax form with the other sign
    # of zero than the top-two form; the values stay equal, and neither the
    # proposal nor the extraction reads the sign of a zero.
    net = build_topology(cfg)
    shape = (net.num_tx, net.num_rb, net.num_levels)
    rng = np.random.default_rng(11)
    proposing = 0
    for i in range(50):
        s = MessageState(zero_heavy_table(rng, shape), zero_heavy_table(rng, shape),
                         (0.3, 0.5, 1.0)[i % 3])
        u = zero_heavy_table(rng, shape)
        assert (msgpass.tx_sweep(s, u) == reference.tx_sweep(s, u)).all()
        assert (msgpass.res_sweep(s) == reference.res_sweep(s)).all()
        flipped = MessageState(flip_zero_signs(s.psi_tx), flip_zero_signs(s.psi_res), s.omega)
        assert not same_array(flipped.tau, s.tau)
        best = msgpass.proposal(s.tau)
        assert same_array(msgpass.proposal(flipped.tau), best)
        assert (extract_allocation(flipped, net, msgpass.proposal(flipped.tau))
                == extract_allocation(s, net, best))
        proposing += int((best >= 0).sum())
    assert proposing > 0


def assert_oracle_equals_enumeration(net):
    alloc, rate = exhaustive_search(net)
    ref_alloc, _ = reference.exhaustive_search(net)
    assert alloc == ref_alloc and rate == sum_rate(net, ref_alloc)


def test_oracle_equals_enumeration_on_k4_drops():
    for seed in range(20):
        assert_oracle_equals_enumeration(build_topology(make_config(seed=seed, **K4)))


@settings(max_examples=60, deadline=None)
@given(K=st.integers(1, 3), N=st.integers(1, 3), L=st.integers(1, 3),
       cap=st.sampled_from(["per-rb", 0.3, 1.0, 1e9]), seed=st.integers(0, 2 ** 32 - 1))
def test_oracle_equals_enumeration_on_toy_drops(K, N, L, cap, seed):
    # Continuous random gains: exact ties, where the two rules differ, have
    # probability zero.  Contributions span 0.01..2, so the caps bind.
    rng = np.random.default_rng(seed)
    net = toy_network(rng.uniform(0.1, 3.0, (K, K, N)), rng.uniform(0.1, 1.0, (K, 2, N)),
                      gain_mbs_ul=rng.uniform(0.01, 0.2, (K, N)),
                      power_levels=np.sort(rng.uniform(0.1, 2.0, L)),
                      i_max=rng.uniform(0.1, 2.0, N) if cap == "per-rb" else cap)
    assert_oracle_equals_enumeration(net)


def identical_net(K, N, power_levels=(1.0,), i_max=1.5):
    """Every transmitter and every RB alike: own gain 2, cross 0.01, MUE gain 1."""
    gain_ul = np.full((K, K, N), 0.01)
    gain_ul[np.arange(K), np.arange(K), :] = 2.0
    return toy_network(gain_ul, np.ones((K, 1, N)), power_levels=power_levels, i_max=i_max)


@pytest.mark.parametrize("K, N, L, i_max, expected", [
    # one transmitter per RB fits: transmitter k takes RB k
    (2, 2, 1, 1.5, [(0, 0), (1, 0)]),
    (3, 3, 1, 1.5, [(0, 0), (1, 0), (2, 0)]),
    # three transmitters, two RBs: the lowest two get them, transmitter 2
    # stays silent (the enumeration kept transmitter 0 silent instead)
    (3, 2, 1, 1.5, [(0, 0), (1, 0), None]),
    # levels 0.5 and 1.0 fit together, 1.0 twice does not: the lower
    # level goes to the lower transmitter
    (2, 1, 2, 1.75, [(0, 0), (0, 1)]),
], ids=["2x2", "3x3", "3x2", "levels"])
def test_oracle_exact_ties_follow_documented_rule(K, N, L, i_max, expected):
    net = identical_net(K, N, power_levels=(0.5, 1.0)[2 - L:], i_max=i_max)
    alloc, rate = exhaustive_search(net)
    assert alloc == Allocation(K, expected)
    assert is_feasible(net, alloc).feasible
    assert rate == sum_rate(net, reference.exhaustive_search(net)[0]) > 0
