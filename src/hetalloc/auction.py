"""Distributed auction for transmission alignments.

The MBS broadcasts every resource's cost and highest bidder.  Per
iteration (all transmitters acting on the same broadcast snapshot) a
transmitter that is no longer the recorded highest bidder of its own
resource re-bids: it picks the resource with the best net value (benefit
minus current cost), checks that joining that RB would keep the
interference budget intact, and if so assigns itself, records itself as
the bidder, and raises the cost by the gap between its best and
second-best net values plus the minimum increment epsilon.  The costs
therefore never decrease, and termination (no bids placed in a full
round) leaves every bidder within epsilon of its best achievable net
value.

All transmitters bid against the same snapshot, so one round is computed
as one array step over all K of them (the synchronous, Jacobi form of
Bertsekas' auction).  That is also why the state needs only the merged
(N, L) table.  After a round, transmitter k's local view is the snapshot
with k's own bid written in, so the K views differ only where someone
bid.  The next snapshot, their maximum per resource with ties to the
lowest transmitter, is thus the old one with the round's bids folded in,
and ``local_auction_round`` folds them in directly.
"""

from __future__ import annotations

import numpy as np

from . import netmodel
from .allocation import SolverResult, start_alignment

NO_BIDDER = -1


class AuctionState:
    """The broadcast cost and bidder tables plus the assignment map."""

    __slots__ = ("costs", "bidders", "assignment", "epsilon")

    def __init__(self, costs, bidders, assignment, epsilon):
        if epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {epsilon}")
        self.costs = costs        # (N, L) floats, >= 0
        self.bidders = bidders    # (N, L) ints, NO_BIDDER when unset
        self.assignment = assignment
        self.epsilon = float(epsilon)

    def merged_view(self):
        """The broadcast ``(costs, bidders)`` pair; the state holds nothing else."""
        return self.costs, self.bidders


def bid_increment(values, chosen, epsilon):
    """Minimum-increment bids: (best value - second-best value) + epsilon.

    ``values`` is a (B, N*L) block of net-value rows, one per bidder, and
    ``chosen`` the (B,) argmax of each row.  Returns the (B,) increments.
    With a single resource there is no second-best, and every increment
    degenerates to epsilon alone.
    """
    if values.shape[1] == 1:
        return np.full(len(chosen), float(epsilon))
    rows = np.arange(len(chosen))
    rest = values.copy()
    rest[rows, chosen] = -np.inf
    return (values[rows, chosen] - rest.max(axis=1)) + epsilon


def local_auction_round(state, net, alloc_prev, interference_prev, benefits):
    """Every transmitter's bidding round against the broadcast snapshot ``state``.

    ``interference_prev`` is the broadcast per-RB interference of
    ``alloc_prev`` and ``benefits`` the (K, N, L) benefit table under it.
    Returns ``(allocation, costs, bidders, bids)``: the iteration's
    allocation, the next snapshot's (N, L) cost and bidder tables, and
    the number of bids placed.
    """
    K, L = benefits.shape[0], net.num_levels
    merged, merged_bidder = state.costs.reshape(-1), state.bidders.reshape(-1)
    values = benefits.reshape(K, -1) - merged
    best = values.argmax(axis=1)  # ties: lowest (n, l)
    rows = np.arange(K)
    vmax = values[rows, best]
    prev = np.where(alloc_prev.rb >= 0, alloc_prev.rb * L + alloc_prev.level, -1)

    # The merged cost can only rise, so the re-bid test of "cost grew and
    # someone else holds the high bid" reduces to the bidder check; a
    # resource with no recorded winner counts as held by someone else.
    # Holding the high bid is not enough on its own here: co-channel
    # coupling moves the benefit rows between rounds, so a content bidder
    # must also still sit within epsilon of its best net value (with
    # static benefits that condition can never fire).  A fresh bid lands
    # exactly epsilon below the maximum, so the comparison needs rounding
    # slack or binary noise alone would evict the winner.  (Rows without
    # a previous resource read entry -1 here and are masked out.)
    slack = 1e-12 * np.maximum(1.0, np.abs(values).max(axis=1))
    content = ((prev >= 0) & (merged_bidder[prev] == rows)
               & (values[rows, prev] >= (vmax - state.epsilon) - slack))
    # A bid must keep its RB strictly under the cap given the snapshot.
    n_hat = best // L
    fits = net.ref_p.reshape(K, -1)[rows, best] + interference_prev[n_hat] < net.i_max[n_hat]

    ks = np.flatnonzero(fits & ~content)
    chosen = best[ks]
    bids = merged[chosen] + bid_increment(values[ks], chosen, state.epsilon)
    # A resource's new cost is the highest of its old cost and its bids
    # (an increment is positive, but a huge cost can absorb it).  A raised
    # cost goes to the lowest k bidding that much; an unmoved one goes to
    # transmitter 0 if it bid there (its view comes first), else stays.
    costs = merged.copy()
    np.maximum.at(costs, chosen, bids)
    lowest = np.full(len(costs), K)
    np.minimum.at(lowest, chosen, np.where(bids == costs[chosen], ks, K))
    bidders = np.where((costs > merged) | (lowest == 0), lowest, merged_bidder)
    allocation = alloc_prev.copy()
    allocation.rb[ks], allocation.level[ks] = np.divmod(chosen, L)
    shape = state.costs.shape
    return allocation, costs.reshape(shape), bidders.reshape(shape), len(ks)


def run_auction(net, t_max=500):
    """MBS-coordinated auction loop.

    Starts from ``start_alignment`` with costs clamped from the
    interference overage of that start state and no recorded bidders (so
    every transmitter bids in round one).  The minimum bid increment is
    epsilon = 0.01 * (max - min of the start state's benefit table), or
    1e-6 when that span is 0.  All local rounds of an iteration read the
    same snapshot; the merged tables and the new allocation are then
    rebroadcast.  A full round without a single bid is a fixed point, so
    the loop stops there (or at ``t_max``).  Per iteration each
    transmitter uploads N*L (cost, bidder, assignment) tuples and the MBS
    broadcasts the merged table plus the per-RB interference:
    ``messages = iterations * (K*N*L + N*L + N)``.

    The emitted allocation is repaired against the strict interference
    caps before return (simultaneous same-round bids can overshoot them).

    ``info`` keys: ``epsilon`` (the minimum bid increment),
    ``merged_costs`` (the final (N, L) maximum cost per resource) and
    ``benefit_span`` (max minus min of the start state's benefit table).
    """
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    K, N, L = net.num_tx, net.num_rb, net.num_levels
    x_prev = start_alignment(net)

    b_prev = netmodel.benefit_table(net, x_prev)
    benefit_span = float(b_prev.max() - b_prev.min())
    epsilon = 0.01 * benefit_span if benefit_span > 0 else 1e-6

    costs = np.maximum(0.0, netmodel.cost_table(net, x_prev)).max(axis=0)
    state = AuctionState(costs, np.full((N, L), NO_BIDDER, dtype=np.int64), x_prev, epsilon)

    converged = False
    for iterations in range(1, t_max + 1):
        i_prev = netmodel.interference_vector(net, x_prev)
        x_t, costs, bidders, bids = local_auction_round(state, net, x_prev, i_prev, b_prev)
        state = AuctionState(costs, bidders, x_t, epsilon)
        if not bids:
            converged = True  # nothing can change from here on
            break
        x_prev = x_t
        b_prev = netmodel.benefit_table(net, x_prev)

    # Concurrent bids in one synchronous round can jointly overshoot a
    # budget the guard checked one at a time.
    return SolverResult(
        allocation=netmodel.repair(net, state.assignment.copy()),
        iterations=iterations,
        converged=converged,
        messages=iterations * (K * N * L + N * L + N),
        info={"epsilon": epsilon, "merged_costs": state.costs,
              "benefit_span": benefit_span},
    )
