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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import netmodel
from .allocation import Allocation
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


def resource_cost(net, alloc, k, res):
    """Unclamped interference cost of k using ``res`` given the others in alloc.

    Expressed in the same dimensionless units as the utility's penalty
    term, w2 * (I / I_max - 1), where I adds k's own hypothetical
    reference-user contribution to the other transmitters' standing ones.
    Negative when the RB stays under budget.
    """
    n, l = res
    own = net.ref_gain[k, n] * net.power_levels[l]
    others = 0.0
    for kp, (nn, ll) in alloc.assigned_items():
        if kp != k and nn == n:
            others += net.ref_gain[kp, n] * net.power_levels[ll]
    return net.w2 * ((own + others) / net.i_max[n] - 1.0)


def clamped_resource_cost(net, alloc, k, res):
    """The non-negative cost max{0, c}; zero while the RB is within budget."""
    return max(0.0, resource_cost(net, alloc, k, res))


def bid_increment(values, chosen, epsilon):
    """Minimum-increment bid: (best value - second-best value) + epsilon.

    ``values`` is the bidder's (N, L) net-value table and ``chosen`` is its
    argmax.  With a single resource there is no second-best, and the
    increment degenerates to epsilon alone.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 1:
        return float(epsilon)
    flat = values.ravel()
    idx = chosen[0] * values.shape[1] + chosen[1]
    second = np.delete(flat, idx).max()
    return float(flat.max() - second + epsilon)


def local_auction_round(k, state, net, alloc_prev, interference_prev=None, benefits=None,
                        merged=None):
    """Transmitter k's bidding round against the broadcast snapshot.

    Returns ``(choice, cost_row, bidder_row, bid_placed)`` where choice is
    k's (rb, level) for this iteration or None.  ``benefits`` may supply
    the precomputed (N, L) benefit row for k; ``interference_prev`` the
    broadcast per-RB interference of ``alloc_prev``; ``merged`` the
    snapshot's ``state.merged_view()`` (each is recomputed when omitted).
    """
    if interference_prev is None:
        interference_prev = netmodel.interference_vector(net, alloc_prev)
    merged, merged_bidder = state.merged_view() if merged is None else merged
    cost_row = merged.copy()
    bidder_row = merged_bidder.copy()
    prev = alloc_prev.get(k)

    if benefits is None:
        benefits = netmodel.benefit_table(net, alloc_prev)[k]
    values = benefits - merged

    # The merged cost can only rise, so the re-bid test of "cost grew and
    # someone else holds the high bid" reduces to the bidder check; a
    # resource with no recorded winner counts as held by someone else.
    # Holding the high bid is not enough on its own here: co-channel
    # coupling moves the benefit rows between rounds, so a content bidder
    # must also still sit within epsilon of its best net value (with
    # static benefits that condition can never fire).  A fresh bid lands
    # exactly epsilon below the maximum, so the comparison needs rounding
    # slack or binary noise alone would evict the winner.
    slack = 1e-12 * max(1.0, float(np.abs(values).max()))
    if (prev is not None and bidder_row[prev] == k
            and values[prev] >= float(values.max()) - state.epsilon - slack):
        return prev, cost_row, bidder_row, False
    flat_idx = int(np.argmax(values.ravel()))  # ties: lowest (n, l)
    n_hat, l_hat = divmod(flat_idx, net.num_levels)
    extra = net.ref_gain[k, n_hat] * net.power_levels[l_hat]
    if extra + interference_prev[n_hat] < net.i_max[n_hat]:
        delta = bid_increment(values, (n_hat, l_hat), state.epsilon)
        cost_row[n_hat, l_hat] = merged[n_hat, l_hat] + delta
        bidder_row[n_hat, l_hat] = k
        return (n_hat, l_hat), cost_row, bidder_row, True
    return prev, cost_row, bidder_row, False


@dataclass
class AuctionResult:
    allocation: Allocation
    iterations: int
    converged: bool
    epsilon: float
    merged_costs: np.ndarray    # (N, L) final maximum cost per resource
    merged_bidders: np.ndarray  # (N, L)
    benefit_span: float
    messages: int


def run_auction(net, epsilon=None, t_max=500, seed=None):
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
    """
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    rng = np.random.default_rng(net.seed if seed is None else seed)
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
        merged = state.merged_view()  # the snapshot is not mutated this round
        new_costs = np.empty_like(state.costs)
        new_bidders = np.empty_like(state.bidders)
        x_t = Allocation(K)
        any_bid = False
        for k in range(K):
            choice, cost_row, bidder_row, placed = local_auction_round(
                k, state, net, x_prev, interference_prev=i_prev, benefits=b_prev[k],
                merged=merged)
            new_costs[k] = cost_row
            new_bidders[k] = bidder_row
            if choice is not None:
                x_t.assign(k, choice[0], choice[1])
            any_bid = any_bid or placed
        state = AuctionState(new_costs, new_bidders, x_t, epsilon)
        if not any_bid:
            converged = True  # nothing can change from here on
            break
        x_prev = x_t

    merged_costs, merged_bidders = state.merged_view()
    # Concurrent bids in one synchronous round can jointly overshoot a
    # budget the guard checked one at a time.
    final = netmodel.repair(net, state.assignment.copy())
    return AuctionResult(
        allocation=final,
        iterations=iterations,
        converged=converged,
        epsilon=epsilon,
        merged_costs=merged_costs,
        merged_bidders=merged_bidders,
        benefit_span=benefit_span,
        messages=iterations * (K * N * L + N * L + N),
    )
