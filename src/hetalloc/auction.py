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
from .allocation import SolverResult, iterate, start_alignment

NO_BIDDER = -1


class AuctionState:
    """The broadcast cost and bidder tables plus the assignment map."""

    __slots__ = ("costs", "bidders", "assignment", "epsilon")

    def __init__(self, costs, bidders, assignment, epsilon):
        if not 0 < epsilon < np.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
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
    The second-best value is read at the argmax of the row with its best
    entry masked to -inf for a moment; ``values`` ends as it began.  With
    a single resource there is no second-best, and every increment
    degenerates to epsilon alone.
    """
    B, n = values.shape
    if n == 1:
        return np.full(B, float(epsilon))
    flat = values.reshape(-1)
    rows = netmodel._offsets(B * n, n)
    at = chosen + rows
    best = flat[at]
    flat[at] = -np.inf
    second = flat[flat.reshape(B, n).argmax(axis=1) + rows]
    flat[at] = best
    return (best - second) + epsilon


def local_auction_round(state, net, interference_prev, benefits):
    """Every transmitter's bidding round against the broadcast snapshot ``state``.

    ``interference_prev`` is the broadcast per-RB interference of the
    previous allocation, ``state.assignment``, and ``benefits`` the
    benefit under it as (L, K*N) planes, entry (l, k*N + n) for resource
    (n, l) of transmitter k.  A bidder picks the first argmax of its net
    values in flat order n*L + l, so ties go to the lowest (n, l).
    Returns ``(allocation, costs, bidders, bids)``: the iteration's
    allocation, the next snapshot's (N, L) cost and bidder tables, and
    the number of bids placed.
    """
    K, N, L = net.num_tx, net.num_rb, net.num_levels
    NL = N * L
    merged, merged_bidder = state.costs.reshape(-1), state.bidders.reshape(-1)
    # Net values, (K, N*L) rows written in planes order: the planes are
    # read in one contiguous pass and the rows written with a stride.
    values = np.empty((K, NL))
    np.subtract(benefits.reshape(L, K, N), state.costs.T[:, None, :],
                out=values.reshape(K, N, L).transpose(2, 0, 1))
    flat = values.reshape(-1)
    rows = netmodel._offsets(K * NL, NL)
    best = values.argmax(axis=1)
    at = best + rows
    vmax = flat[at]
    alloc_prev = state.assignment
    held = alloc_prev.rb >= 0
    prev = np.where(held, alloc_prev.rb * L + alloc_prev.level, -1)

    # The merged cost can only rise, so the re-bid test of "cost grew and
    # someone else holds the high bid" reduces to the bidder check; a
    # resource with no recorded winner counts as held by someone else.
    # Holding the high bid is not enough on its own here: co-channel
    # coupling moves the benefit rows between rounds, so a content bidder
    # must also still sit within epsilon of its best net value (with
    # static benefits that condition can never fire).  A fresh bid lands
    # exactly epsilon below the maximum, so the comparison needs rounding
    # slack or binary noise alone would evict the winner: 1e-12 of the row's
    # largest magnitude, the larger of its max and negated min (abs is exact),
    # with no floor, so it scales with the weights.  (Rows without a previous
    # resource read the entry before theirs here and are masked out.)
    vmin = flat[values.argmin(axis=1) + rows]
    slack = 1e-12 * np.maximum(vmax, -vmin)
    content = (held & (merged_bidder[prev] == netmodel._offsets(K, 1))
               & (flat[prev + rows] >= (vmax - state.epsilon) - slack))
    # A bid must keep its RB strictly under the cap given the snapshot.
    n_hat = best // L
    fits = net.ref_p.reshape(-1)[at] + interference_prev[n_hat] < net.i_max[n_hat]

    ks = (fits & ~content).nonzero()[0]
    chosen = best[ks]
    bids = merged[chosen] + bid_increment(values, best, state.epsilon)[ks]
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

    Starts from ``start_alignment`` with no recorded bidders, so every
    transmitter bids in round one, and each resource's price is the largest
    clamped start cost (interference overage) that any transmitter would pay
    for it.  The minimum bid increment is epsilon = 0.01 * (max - min of the
    start state's benefit table), or 1e-6 when that span is 0.  All local
    rounds of an iteration read the same snapshot; the merged tables and the
    new allocation are then rebroadcast.  A full round without a single bid
    is a fixed point, so the loop stops there (or at ``t_max``).  Per
    iteration each transmitter uploads N*L (cost, bidder, assignment) tuples
    and the MBS broadcasts the merged table plus the per-RB interference:
    ``messages = iterations * (K*N*L + N*L + N)``.

    The emitted allocation is repaired against the strict interference
    caps before return (simultaneous same-round bids can overshoot them).

    ``info`` keys: ``epsilon`` (the minimum bid increment),
    ``merged_costs`` (the final (N, L) maximum cost per resource) and
    ``benefit_span`` (max minus min of the start state's benefit table).
    """
    K, N, L = net.num_tx, net.num_rb, net.num_levels
    start = start_alignment(net)

    # One interference pass per round gives both the benefit planes and the
    # per-RB interference the guard reads.
    rx_int, i_prev, holders = netmodel._interference_maps(net, start)
    b_prev = netmodel.benefit_table(net, rx_int)
    benefit_span = float(b_prev.max() - b_prev.min())
    epsilon = 0.01 * benefit_span if benefit_span > 0 else 1e-6

    costs = np.maximum(0.0, netmodel.cost_table(net, i_prev, holders)).reshape(L, K, N)
    costs = np.ascontiguousarray(costs.max(axis=1).T)
    state = AuctionState(costs, np.full((N, L), NO_BIDDER, dtype=np.int64), start, epsilon)

    def step(t):
        nonlocal i_prev, b_prev
        x_t, costs, bidders, bids = local_auction_round(state, net, i_prev, b_prev)
        # The next snapshot, in the one state of the run (epsilon was
        # checked when it was made).
        state.costs, state.bidders, state.assignment = costs, bidders, x_t
        # Nothing reads the maps after the last round.
        if bids and t < t_max:
            rx_int, i_prev, _ = netmodel._interference_maps(net, x_t)
            b_prev = netmodel.benefit_table(net, rx_int)
        return x_t, bids, not bids, None

    _, _, iterations, converged, _ = iterate(step, t_max)

    # Concurrent bids in one synchronous round can jointly overshoot a
    # budget the guard checked one at a time.  The round's allocation is a
    # fresh copy that nothing else holds, so it is repaired in place.
    return SolverResult(
        allocation=netmodel.repair(net, state.assignment),
        iterations=iterations,
        converged=converged,
        messages=iterations * (K * N * L + N * L + N),
        info={"epsilon": epsilon, "merged_costs": state.costs,
              "benefit_span": benefit_span},
    )
