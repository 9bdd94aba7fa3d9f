import dataclasses
import hashlib

import numpy as np
import pytest

import reference
from hetalloc import auction
from hetalloc.allocation import (Allocation, exhaustive_search, is_feasible, start_alignment,
                                 sum_rate)
from hetalloc.auction import (NO_BIDDER, AuctionState, bid_increment,
                              local_auction_round, run_auction)
from hetalloc.harness import load_scenario
from hetalloc.netmodel import build_topology, interference_vector

from conftest import benefit_planes, toy_network
from test_harness import K4, K50_LOOSE, K50_TIGHT, MID_K10, SCENARIOS
from test_netmodel import make_config, two_tx_net


# --- cost function --------------------------------------------------------

def test_resource_cost_boundary_zero():
    net = two_tx_net(w2=1.0, i_max=1.4)  # k1's own contribution 0.7 * 2.0
    assert reference.resource_cost(net, Allocation(2), 1, (0, 0)) == pytest.approx(0.0, abs=1e-15)


def test_resource_cost_negative_clamps_to_zero():
    net = two_tx_net(w2=1.0, i_max=10.0)
    c = reference.resource_cost(net, Allocation(2), 1, (0, 0))
    assert c < 0
    assert reference.clamped_resource_cost(net, Allocation(2), 1, (0, 0)) == 0.0


def test_resource_cost_two_transmitter_hand_value():
    net = two_tx_net(w2=0.5, i_max=2.0)
    alloc = Allocation(2, {1: (0, 0)})
    # own 0.6*2 plus standing 0.7*2, relative to the 2.0 budget
    expected = 0.5 * ((1.2 + 1.4) / 2.0 - 1.0)
    assert reference.resource_cost(net, alloc, 0, (0, 0)) == pytest.approx(expected, rel=1e-12)


def test_cost_table_matches_scalar():
    rng = np.random.default_rng(4)
    K, C, N, L = 3, 2, 2, 2
    net = toy_network(rng.uniform(0.1, 2.0, (K, K, N)),
                      rng.uniform(0.1, 2.0, (K, C, N)),
                      power_levels=(0.5, 1.5), i_max=2.0, w2=0.8)
    alloc = Allocation(K, [(0, 1), None, (1, 0)])
    table = reference.library_table(net, alloc, "cost")
    for k in range(K):
        for n in range(N):
            for l in range(L):
                assert table[k, n, l] == pytest.approx(
                    reference.resource_cost(net, alloc, k, (n, l)), rel=1e-12)


# --- bid increment ----------------------------------------------------------

def increment(values, chosen, epsilon):
    """bid_increment of one bidder's (N, L) table at its (n, l) argmax."""
    values = np.asarray(values, dtype=float)
    flat = chosen[0] * values.shape[1] + chosen[1]
    return float(bid_increment(values.reshape(1, -1), np.array([flat]), epsilon)[0])


def test_bid_increment_direct_formula():
    values = np.array([[5.0, 3.0], [1.0, 0.0]])
    assert increment(values, (0, 0), 0.1) == pytest.approx(2.1, abs=1e-12)


def test_bid_increment_equal_values_is_epsilon():
    values = np.array([[2.0, 2.0]])
    assert increment(values, (0, 0), 0.25) == pytest.approx(0.25, abs=1e-12)


def test_bid_increment_single_resource_is_epsilon():
    assert increment(np.array([[7.0]]), (0, 0), 0.3) == pytest.approx(0.3)


def test_bid_increment_random_tables_match_independent_computation():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n, l = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        values = rng.normal(size=(n, l))
        flat = values.ravel()
        chosen = int(np.argmax(flat))
        want = flat.max() - max(np.delete(flat, chosen)) + 0.05 if flat.size > 1 else 0.05
        got = increment(values, divmod(chosen, l), 0.05)
        assert got == pytest.approx(want, abs=1e-12)
        assert got > 0


def test_bid_increment_block_rows_are_independent():
    rng = np.random.default_rng(9)
    block = rng.normal(size=(6, 5))
    before = block.tobytes()
    chosen = block.argmax(axis=1)
    got = bid_increment(block, chosen, 0.05)
    assert got.shape == (6,)
    assert block.tobytes() == before  # the masked peaks are restored
    assert bid_increment(np.asfortranarray(block), chosen, 0.05).tobytes() == got.tobytes()
    for b in range(6):
        assert got[b] == reference.bid_increment(block[b:b + 1], (0, chosen[b]), 0.05)


# --- local round -------------------------------------------------------------

def fresh_state(alloc_prev, N, L, eps=0.1):
    return AuctionState(np.zeros((N, L)), np.full((N, L), NO_BIDDER, np.int64),
                        alloc_prev, eps)


def round_on_snapshot(state, net):
    """local_auction_round with every input derived from the state."""
    alloc_prev = state.assignment
    return local_auction_round(state, net, interference_vector(net, alloc_prev),
                               benefit_planes(reference.library_table(net, alloc_prev, "benefit")))


def test_local_round_fresh_state_bids_best_value():
    net = two_tx_net(i_max=100.0)
    alloc_prev = Allocation(2, [(0, 0), (0, 0)])
    b = reference.library_table(net, alloc_prev, "benefit")
    alloc, costs, bidders, bids = round_on_snapshot(fresh_state(alloc_prev, 1, 1), net)
    assert bids == 2 and alloc.get(0) == (0, 0)
    # equal bids on the one resource: the lowest transmitter holds it
    assert bidders[0, 0] == 0
    assert costs[0, 0] == pytest.approx(increment(b[0], (0, 0), 0.1))


def test_local_round_content_bidder_keeps():
    net = two_tx_net(i_max=100.0)
    alloc_prev = Allocation(2, [(0, 0), (0, 0)])
    state = fresh_state(alloc_prev, 1, 1)
    state.bidders[0, 0] = 0
    alloc, _costs, bidders, bids = round_on_snapshot(state, net)
    # k0 holds the high bid and stays; only k1 bids, and takes it over
    assert bids == 1 and alloc.get(0) == (0, 0) and bidders[0, 0] == 1


def test_local_round_guard_failure_keeps_previous():
    net = two_tx_net(i_max=1e-9)  # any hypothetical contribution violates
    alloc_prev = Allocation(2, [(0, 0), (0, 0)])
    alloc, costs, bidders, bids = round_on_snapshot(fresh_state(alloc_prev, 1, 1), net)
    assert bids == 0 and alloc == alloc_prev
    assert costs[0, 0] == 0.0 and bidders[0, 0] == NO_BIDDER


def test_two_transmitter_contention_hand_trace():
    # static benefit rows: k0 [5, 3], k1 [4, 1]; both start outbid
    net = toy_network(np.ones((2, 2, 2)), np.full((2, 1, 2), 1e-9),
                      power_levels=(1.0,), i_max=1e6)
    net_b = np.array([[[5.0], [3.0]], [[4.0], [1.0]]])
    eps = 0.1
    state = fresh_state(Allocation(2, [(1, 0), (0, 0)]), 2, 1, eps)
    iv = np.zeros(2)

    def round_all(state):
        x_new, costs, bidders, bids = local_auction_round(state, net, iv, benefit_planes(net_b))
        rows = reference.auction_rows(state, net, iv, net_b)
        assert bids == sum(rows[3])
        return AuctionState(costs, bidders, x_new, eps), x_new, rows

    state, x, (_x, cost_rows, _bidder_rows, placed) = round_all(state)
    assert placed == [True, True]
    assert x.get(0) == (0, 0) and x.get(1) == (0, 0)  # both bid the best slot
    assert cost_rows[0, 0, 0] == pytest.approx(2.1)  # 5 - 3 + eps
    assert cost_rows[1, 0, 0] == pytest.approx(3.1)  # 4 - 1 + eps
    assert state.costs[0, 0] == cost_rows[1, 0, 0] and state.bidders[0, 0] == 1

    state, x, (_x, cost_rows, _bidder_rows, placed) = round_all(state)
    # k1's higher bid stands; k0 is outbid and re-bids its second-best slot
    assert x.get(1) == (0, 0) and x.get(0) == (1, 0)
    assert placed == [True, False]
    assert cost_rows[0, 1, 0] == pytest.approx(3.0 - 1.9 + eps)
    assert state.costs[1, 0] == cost_rows[0, 1, 0] and state.bidders[1, 0] == 0

    state, x, (_x, _cost_rows, _bidder_rows, placed) = round_all(state)
    assert placed == [False, False]  # quiescent: everyone content


# --- full run -----------------------------------------------------------------

def test_single_transmitter_two_iterations_to_oracle():
    cfg = make_config(num_sbs=1, num_d2d=0, num_rb=3, power_levels=(0.1, 0.5),
                      i_max=1.0, w2=0.05)
    net = build_topology(cfg)
    res = run_auction(net)
    assert res.converged and res.iterations <= 2
    _, best = exhaustive_search(net)
    assert sum_rate(net, res.allocation) == pytest.approx(best, rel=1e-9)


def test_run_deterministic():
    net = build_topology(make_config(w2=0.05))
    a = run_auction(net)
    b = run_auction(net)
    assert a.allocation == b.allocation and a.iterations == b.iterations
    np.testing.assert_array_equal(a.info["merged_costs"], b.info["merged_costs"])


def test_run_feasible_and_message_accounting():
    net = build_topology(make_config(w2=0.05))
    res = run_auction(net)
    assert is_feasible(net, res.allocation).feasible
    K, N, L = net.num_tx, net.num_rb, net.num_levels
    assert res.messages == res.iterations * (K * N * L + N * L + N)


def test_merged_cost_monotone_across_iterations():
    cfg = make_config(num_sbs=2, num_d2d=1, num_rb=2, i_max=1.0, w2=0.05)
    net = build_topology(cfg)
    from hetalloc import netmodel
    x_prev = start_alignment(net)
    costs = np.maximum(0.0, reference.library_table(net, x_prev, "cost")).max(axis=0)
    state = AuctionState(costs, np.full(costs.shape, NO_BIDDER, np.int64), x_prev, 0.05)
    for _ in range(10):
        iv = netmodel.interference_vector(net, x_prev)
        b = benefit_planes(reference.library_table(net, x_prev, "benefit"))
        x_prev, costs, bidders, _bids = local_auction_round(state, net, iv, b)
        assert (costs >= state.costs - 1e-15).all()
        state = AuctionState(costs, bidders, x_prev, 0.05)


class FirstRound(Exception):
    """Stops ``run_auction`` at its first round."""


def test_auction_start_prices_are_clamped_resource_maxima(monkeypatch):
    """The first round sees each resource priced at the largest clamped start
    cost any transmitter would pay for it, as a C-ordered (N, L) table."""
    seen = []

    def first_round(state, *args):
        seen.append(state.costs)
        raise FirstRound

    monkeypatch.setattr(auction, "local_auction_round", first_round)
    base = load_scenario(SCENARIOS / "default.json")
    drops = ([dict(MID_K10, seed=s) for s in range(10)]
             + [dict(cap, seed=s) for cap in (K50_LOOSE, K50_TIGHT) for s in range(3)])
    for overrides in drops:
        net = build_topology(dataclasses.replace(base, **overrides))
        with pytest.raises(FirstRound):
            run_auction(net)
        costs = seen.pop()
        table = reference.library_table(net, start_alignment(net), "cost")
        expected = np.maximum(0.0, table).max(axis=0)
        assert costs.flags.c_contiguous and costs.shape == (net.num_rb, net.num_levels)
        assert costs.dtype == expected.dtype and costs.tobytes() == expected.tobytes()


def test_run_epsilon_validation():
    # run_auction always derives a positive epsilon; the state still refuses others.
    costs = np.zeros((2, 2))
    bidders = np.full((2, 2), NO_BIDDER, np.int64)
    for eps in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="epsilon"):
            AuctionState(costs, bidders, Allocation(2), epsilon=eps)


# --- auction bytes ---------------------------------------------------------------

def auction_bytes_sha256(overrides, t_max):
    """sha256 over each drop's allocation bytes, iterations, converged flag,
    epsilon and merged costs (float64 bytes), for the 40-drop pool of the
    bench/run.py workload ``overrides`` names."""
    cfg = dataclasses.replace(load_scenario(SCENARIOS / "default.json"), **overrides)
    h = hashlib.sha256()
    for seed in range(40):
        res = run_auction(build_topology(dataclasses.replace(cfg, seed=seed)), t_max=t_max)
        h.update(res.allocation.rb.tobytes() + res.allocation.level.tobytes())
        h.update(repr((res.iterations, res.converged, res.info["epsilon"])).encode())
        h.update(np.asarray(res.info["merged_costs"], dtype=np.float64).tobytes())
    return h.hexdigest()


# Pinned from the round that copied its benefit planes into a (K, N, L)
# table and took the runner-up in ``bid_increment`` from a masked copy of
# the bidders' rows; the row hashes of test_harness see only the
# allocation and counters, not the prices.
@pytest.mark.parametrize("overrides, t_max, expected", [
    (K4, 500, "0183beca7396a84f68a9c4085a431a2676ed52c132d8fb60ee0b70312fa7eff4"),
    (MID_K10, 500, "2e2c08db28ff7c1dc42b2c8a9fa0bcd556a44dc992eaf81de9cba50c919c940a"),
    (K50_LOOSE, 100, "e3ccd0fb07c646108f3b92a4fc6b07e6a55e71d7f5e3647c5e248db7654d3d69"),
    (K50_TIGHT, 100, "d3fe4e160972e5518f610e79d1085f84f9f169a65aca68d89a7dbad74bcd260d"),
], ids=["oracle-k4", "mid-k10", "wide-k50-loose", "wide-k50-tight"])
def test_golden_auction_bytes(overrides, t_max, expected):
    assert auction_bytes_sha256(overrides, t_max) == expected
