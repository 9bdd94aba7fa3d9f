"""Distributed auction for transmission alignments.

Each transmitter holds a local view of every resource's cost and highest
bidder.  Per iteration (all transmitters acting on the same broadcast
snapshot) a transmitter first folds in the maximum cost seen by anyone,
together with that maximum's bidder; if it is no longer the recorded
highest bidder of its own resource it re-bids: it picks the resource with
the best net value (benefit minus current cost), checks that joining that
RB would keep the interference budget intact, and if so assigns itself,
records itself as the bidder, and raises the cost by the gap between its
best and second-best net values plus the minimum increment epsilon.  The
cost tables therefore never decrease, and termination (no bids placed in
a full round) leaves every bidder within epsilon of its best achievable
net value.

All transmitters bid against the same snapshot, so one round is computed
as one array step over all K of them (the synchronous, Jacobi form of
Bertsekas' auction): ``local_auction_round`` takes the whole (K, N, L)
benefit table and returns every transmitter's local view at once.
"""

from __future__ import annotations

import numpy as np

from . import netmodel
from .allocation import SolverResult
from .matching import random_alignment

NO_BIDDER = -1


class AuctionState:
    """Per-transmitter local cost/bidder views plus the assignment map."""

    __slots__ = ("costs", "bidders", "assignment", "epsilon")

    def __init__(self, costs, bidders, assignment, epsilon):
        if epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {epsilon}")
        self.costs = costs        # (K, N, L) floats, >= 0
        self.bidders = bidders    # (K, N, L) ints, NO_BIDDER when unset
        self.assignment = assignment
        self.epsilon = float(epsilon)

    def merged_view(self):
        """Global maximum cost per resource and the bidder who set it.

        Ties resolve toward the lowest transmitter index, so the merge is
        deterministic and independent of sweep order.
        """
        merged = self.costs.max(axis=0)
        src = self.costs.argmax(axis=0)  # first (lowest-k) maximizer
        bidder = np.take_along_axis(self.bidders, src[None, :, :], axis=0)[0]
        return merged, bidder


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


def local_auction_round(state, net, alloc_prev, interference_prev, benefits, merged):
    """Every transmitter's bidding round against the broadcast snapshot.

    ``interference_prev`` is the broadcast per-RB interference of
    ``alloc_prev``, ``benefits`` the (K, N, L) benefit table under it, and
    ``merged`` the snapshot's ``state.merged_view()``.  Returns
    ``(allocation, costs, bidders, bids)``: the iteration's allocation,
    the (K, N, L) cost and bidder tables (row k is k's local view), and
    the number of bids placed.
    """
    merged, merged_bidder = merged
    K, L = benefits.shape[0], net.num_levels
    values = (benefits - merged).reshape(K, -1)
    best = values.argmax(axis=1)  # ties: lowest (n, l)
    rows = np.arange(K)
    vmax = values[rows, best]
    prev = np.array([-1 if s is None else s[0] * L + s[1]
                     for s in map(alloc_prev.get, range(K))])

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
    content = ((prev >= 0) & (merged_bidder.reshape(-1)[prev] == rows)
               & (values[rows, prev] >= (vmax - state.epsilon) - slack))
    # A bid must keep its RB strictly under the cap given the snapshot.
    n_hat = best // L
    fits = net.ref_p.reshape(K, -1)[rows, best] + interference_prev[n_hat] < net.i_max[n_hat]

    ks = np.flatnonzero(fits & ~content)
    chosen = best[ks]
    flat_merged = merged.reshape(1, -1)
    costs = np.repeat(flat_merged, K, axis=0)
    bidders = np.repeat(merged_bidder.reshape(1, -1), K, axis=0)
    costs[ks, chosen] = flat_merged[0, chosen] + bid_increment(values[ks], chosen, state.epsilon)
    bidders[ks, chosen] = ks
    allocation = alloc_prev.copy()
    for k, flat in zip(ks.tolist(), chosen.tolist()):
        allocation.assign(k, *divmod(flat, L))
    return allocation, costs.reshape(benefits.shape), bidders.reshape(benefits.shape), len(ks)


def run_auction(net, epsilon=None, t_max=500):
    """MBS-coordinated auction loop.

    Starts from a seeded random alignment with costs clamped from the
    interference overage of that start state and no recorded bidders (so
    every transmitter bids in round one).  All local rounds of an
    iteration read the same snapshot; the merged tables and the new
    allocation are then rebroadcast.  A full round without a single bid
    is a fixed point, so the loop stops there (or at ``t_max``).  Per
    iteration each transmitter uploads N*L (cost, bidder, assignment)
    tuples and the MBS broadcasts the merged table plus the per-RB
    interference: ``messages = iterations * (K*N*L + N*L + N)``.

    The emitted allocation is repaired against the strict interference
    caps before return (simultaneous same-round bids can overshoot them).

    ``info`` keys: ``epsilon`` (the minimum bid increment used),
    ``merged_costs`` (the final (N, L) maximum cost per resource) and
    ``benefit_span`` (max minus min of the start state's benefit table).
    """
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    rng = np.random.default_rng(net.seed)
    K, N, L = net.num_tx, net.num_rb, net.num_levels
    x_prev = random_alignment(net, rng)

    b0 = netmodel.benefit_table(net, x_prev)
    benefit_span = float(b0.max() - b0.min())
    if epsilon is None:
        epsilon = 0.01 * benefit_span if benefit_span > 0 else 1e-6

    costs = np.maximum(0.0, netmodel.cost_table(net, x_prev))
    bidders = np.full((K, N, L), NO_BIDDER, dtype=np.int64)
    state = AuctionState(costs, bidders, x_prev, epsilon)

    converged = False
    iterations = 0
    for _t in range(1, t_max + 1):
        iterations += 1
        i_prev = netmodel.interference_vector(net, x_prev)
        b_prev = netmodel.benefit_table(net, x_prev)
        x_t, new_costs, new_bidders, bids = local_auction_round(
            state, net, x_prev, i_prev, b_prev, state.merged_view())
        state = AuctionState(new_costs, new_bidders, x_t, epsilon)
        if not bids:
            converged = True  # nothing can change from here on
            break
        x_prev = x_t

    # Concurrent bids in one synchronous round can jointly overshoot a
    # budget the guard checked one at a time.
    return SolverResult(
        allocation=netmodel.repair(net, state.assignment.copy()),
        iterations=iterations,
        converged=converged,
        messages=iterations * (K * N * L + N * L + N),
        info={"epsilon": epsilon, "merged_costs": state.merged_view()[0],
              "benefit_span": benefit_span},
    )
