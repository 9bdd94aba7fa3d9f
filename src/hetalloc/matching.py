"""Stable-matching resource allocation.

Transmitters rank (RB, level) pairs and each RB ranks (transmitter, level)
pairs, both by the biased utility.  The inner subroutine runs deferred
acceptance with revocation: a transmitter grabs its best remaining
alignment, and whenever an RB's interference budget is exceeded the RB
revokes its least preferred holders, striking the revoked pair and every
pair ranked below it from both sides' lists.  The outer loop re-derives
both preference families from the latest allocation and repeats the inner
matching until the allocation stops changing.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import netmodel
from .allocation import Allocation, sum_rate


class PreferenceProfile:
    """A strictly ordered preference list.

    ``entries`` holds (key, utility) best-first, where key is (n, l) for a
    transmitter's profile and (k, l) for an RB's profile.  Equal utilities
    are ordered by ascending key index, so the order is a strict total
    order and every run is reproducible.
    """

    __slots__ = ("owner", "entries")

    def __init__(self, owner, entries):
        self.owner = owner
        self.entries = list(entries)

    def __len__(self):
        return len(self.entries)

    def keys(self):
        return [key for key, _u in self.entries]

    def utilities(self):
        return {key: u for key, u in self.entries}

    def rank(self):
        """key -> position (0 = most preferred)."""
        return {key: i for i, (key, _u) in enumerate(self.entries)}


def _sorted_profile(owner, scored):
    # scored: list of (key, utility); strict order by utility desc, key asc
    scored.sort(key=lambda e: (-e[1], e[0]))
    return PreferenceProfile(owner, scored)


def _broadcast_utility(net, alloc_prev, interference_prev, k, n, l):
    # Utility of a hypothetical move, with the reference-user load taken
    # from the broadcast per-RB aggregate rather than re-summed.
    p = net.power_levels[l]
    gamma = netmodel._sinr(net, k, n, p, alloc_prev.on_rb(n))
    i_others = (interference_prev[n]
                - netmodel._own_reference_contribution(net, alloc_prev, k, n))
    i_hyp = net.ref_gain[k, n] * p + i_others
    return net.w1 * math.log2(1.0 + gamma) - net.w2 * (i_hyp / net.i_max[n] - 1.0)


def build_transmitter_profile(net, alloc_prev, interference_prev, k, utilities=None):
    """Rank all N*L alignments for transmitter k against the last allocation.

    ``interference_prev`` is the broadcast per-RB aggregated interference of
    ``alloc_prev``; k's own previous contribution is removed before scoring
    a hypothetical move.  ``utilities`` may supply the precomputed (N, L)
    utility row to skip the scalar evaluation.
    """
    N, L = net.num_rb, net.num_levels
    if utilities is None:
        utilities = np.array([
            [_broadcast_utility(net, alloc_prev, interference_prev, k, n, l)
             for l in range(L)] for n in range(N)])
    rows = utilities.tolist()
    scored = [((n, l), rows[n][l]) for n in range(N) for l in range(L)]
    return _sorted_profile(("tx", k), scored)


def build_rb_profile(net, alloc_prev, interference_prev, n, utilities=None):
    """Rank all (transmitter, level) pairs for RB n, same scoring and tie-break."""
    K, L = net.num_tx, net.num_levels
    if utilities is None:
        utilities = np.array([
            [_broadcast_utility(net, alloc_prev, interference_prev, k, n, l)
             for l in range(L)] for k in range(K)])
    rows = utilities.tolist()
    scored = [((k, l), rows[k][l]) for k in range(K) for l in range(L)]
    return _sorted_profile(("rb", n), scored)


@dataclass
class Matching:
    """A many-to-one matching: one alignment per transmitter, a set per RB."""

    allocation: Allocation
    proposals: int  # proposal events consumed by the inner subroutine

    def mu_tx(self, k):
        return self.allocation.get(k)

    def mu_rb(self, n):
        return self.allocation.on_rb(n)


def match_alignments(profiles_tx, profiles_rb, net):
    """Deferred acceptance with budget-driven revocation.

    Unassigned transmitters propose in ascending index order, each taking
    the top entry of its remaining list.  If the target RB's estimated
    interference reaches its cap, the RB repeatedly drops the least
    preferred currently assigned (k, l) pair; the dropped pair and every
    pair ranked below it are deleted from the RB's list and the mirrored
    (n, l) entries from the affected transmitters' lists, so no pair is
    ever proposed twice.  The caller's profiles are not modified.
    """
    K = net.num_tx
    P = net.power_levels
    order_tx = [p.keys() for p in profiles_tx]
    order_rb = [p.keys() for p in profiles_rb]
    rank_rb = [p.rank() for p in profiles_rb]
    # A strike cuts an RB's list at a rank, so it stays the prefix
    # order_rb[n][:cut[n]].  A transmitter's list is its order minus the
    # struck keys; head[k], its first unstruck entry, only moves forward.
    cut = [len(o) for o in order_rb]
    struck = [set() for _ in range(K)]
    head = [0] * K
    match = [None] * K
    on_rb = [[] for _ in order_rb]  # (k, l) holders, ascending k
    proposals = 0

    def top(i):
        order = order_tx[i]
        while head[i] < len(order) and order[head[i]] in struck[i]:
            head[i] += 1
        return order[head[i]] if head[i] < len(order) else None

    def rb_interference(n):
        # ascending-k summation, matching aggregated_interference exactly
        return sum(net.ref_gain[kk, n] * P[ll] for kk, ll in on_rb[n])

    while True:
        k = next((i for i in range(K) if match[i] is None and top(i) is not None), None)
        if k is None:
            break
        n, l = match[k] = top(k)
        proposals += 1
        bisect.insort(on_rb[n], (k, l))
        while rb_interference(n) >= net.i_max[n]:
            worst = max(on_rb[n], key=rank_rb[n].__getitem__)
            on_rb[n].remove(worst)
            match[worst[0]] = None
            # Strike the revoked pair and all its successors from both sides.
            c = rank_rb[n][worst]
            for kp, lv in order_rb[n][c:cut[n]]:
                struck[kp].add((n, lv))
            cut[n] = c

    return Matching(allocation=Allocation(K, match), proposals=proposals)


def find_blocking_pair(matching, profiles_tx, profiles_rb):
    """Return a blocking (k, n, l) tuple, or None if the matching is stable.

    A tuple blocks when transmitter k strictly prefers (n, l) to its own
    match and RB n strictly prefers (k, l) to at least one pair currently
    assigned to it, both judged by the given profiles' strict order.
    """
    rank_tx = [p.rank() for p in profiles_tx]
    rank_rb = [p.rank() for p in profiles_rb]
    for k, prof in enumerate(profiles_tx):
        mine = matching.mu_tx(k)
        my_rank = rank_tx[k][mine] if mine is not None else len(prof.entries)
        for (n, l), _u in prof.entries:
            if rank_tx[k][(n, l)] >= my_rank:
                break  # entries are best-first; nothing below can block
            holders = matching.mu_rb(n)
            pos = rank_rb[n][(k, l)]
            if any(pos < rank_rb[n][pair] for pair in holders):
                return (k, n, l)
    return None


@dataclass
class MatchingRound:
    profiles_tx: list
    profiles_rb: list
    matching: Matching


@dataclass
class MatchingRunResult:
    allocation: Allocation
    iterations: int
    converged: bool
    proposals_per_round: list
    messages: int
    rounds: Optional[list] = None
    best_sum_rate: float = 0.0


def random_alignment(net, rng):
    """Every transmitter on a uniformly random (RB, level); the start state."""
    alloc = Allocation(net.num_tx)
    for k in range(net.num_tx):
        alloc.assign(k, int(rng.integers(net.num_rb)), int(rng.integers(net.num_levels)))
    return alloc


def run_stable_matching(net, t_max=100, seed=None, keep_rounds=False):
    """Iterated stable matching (profile rebuild + inner matching per round).

    Starts from a seeded random alignment, stops when two consecutive
    allocations coincide or ``t_max`` rounds elapse.  On non-convergence
    the best-sum-rate round result is returned (every round's output is
    feasible by construction).  Signaling accounting: per round each of
    the K transmitters uploads its N*L profile entries and the MBS
    broadcasts the K allocation entries, so
    ``messages = iterations * (K*N*L + K)``.
    """
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    rng = np.random.default_rng(net.seed if seed is None else seed)
    K, N, L = net.num_tx, net.num_rb, net.num_levels
    x_prev = random_alignment(net, rng)

    proposals_per_round = []
    rounds = [] if keep_rounds else None
    best_alloc, best_rate = None, -1.0
    converged = False
    iterations = 0
    final = x_prev

    for _t in range(1, t_max + 1):
        iterations += 1
        i_prev = netmodel.interference_vector(net, x_prev)
        util = netmodel.utility_table(net, x_prev)
        profiles_tx = [build_transmitter_profile(net, x_prev, i_prev, k, utilities=util[k])
                       for k in range(K)]
        profiles_rb = [build_rb_profile(net, x_prev, i_prev, n, utilities=util[:, n, :])
                       for n in range(N)]
        m = match_alignments(profiles_tx, profiles_rb, net)
        proposals_per_round.append(m.proposals)
        if rounds is not None:
            rounds.append(MatchingRound(profiles_tx, profiles_rb, m))
        x_t = m.allocation
        rate = sum_rate(net, x_t)
        if rate > best_rate:
            best_alloc, best_rate = x_t, rate
        final = x_t
        if x_t == x_prev:
            converged = True
            break
        x_prev = x_t

    allocation = final if converged else best_alloc
    return MatchingRunResult(
        allocation=allocation,
        iterations=iterations,
        converged=converged,
        proposals_per_round=proposals_per_round,
        messages=iterations * (K * N * L + K),
        rounds=rounds,
        best_sum_rate=best_rate,
    )
