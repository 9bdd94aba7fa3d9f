"""Stable-matching resource allocation.

Transmitters rank (RB, level) pairs and each RB ranks (transmitter, level)
pairs by the biased utility, as int lists from one stable argsort per
side.  Deferred acceptance with revocation runs on those ints: a
transmitter grabs its best remaining alignment, and whenever an RB's
budget is exceeded the RB revokes its least preferred holders, striking
the revoked pair and every pair ranked below it from both sides' lists.
The outer loop re-ranks until the allocation stops changing.
``PreferenceProfile`` objects are built only for kept rounds.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from . import netmodel
from .allocation import Allocation, SolverResult, sum_rate


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

    def rank(self):
        """key -> position (0 = most preferred)."""
        return {key: i for i, (key, _u) in enumerate(self.entries)}


def _profile(owner, utilities):
    # A one-row table's transmitter order runs over the row-major keys.
    u = utilities.ravel().tolist()
    order = preference_orders(utilities[None])[0]
    return PreferenceProfile(owner, [(divmod(s, utilities.shape[1]), u[s]) for s in order])


def build_transmitter_profile(k, utilities):
    """Rank transmitter k's N*L alignments by its (N, L) utility row."""
    return _profile(("tx", k), utilities)


def build_rb_profile(n, utilities):
    """Rank RB n's (transmitter, level) pairs by its (K, L) utility column."""
    return _profile(("rb", n), utilities)


def preference_orders(util):
    """Both sides' orders as flat int lists ``(tx, rank, rb)``.

    Alignment (k, n, l) is ``s = k*N*L + n*L + l``.  ``tx[k*N*L + h]`` is
    the s of k's h-th best (n, l), ``rb[n][h]`` that of RB n's h-th best
    (k, l), and ``rank[s]`` is s's position in ``rb[n]``.  Equal utilities,
    signed zeros included, rank by ascending key: the argsorts are stable.
    """
    K, N, L = util.shape
    NL = N * L
    neg = -util
    by_tx = np.argsort(neg.reshape(K, NL), axis=1, kind="stable")
    by_rb = np.argsort(neg.transpose(1, 0, 2).reshape(N, K * L), axis=1, kind="stable")
    # RB n's entry k*L + l is alignment k*N*L + n*L + l.
    rb = by_rb + (by_rb // L) * (NL - L) + np.arange(0, NL, L)[:, None]
    rank = by_rb.argsort(axis=1).reshape(N, K, L).transpose(1, 0, 2).ravel()
    tx = by_tx + np.arange(0, K * NL, NL)[:, None]
    return tx.ravel().tolist(), rank.tolist(), rb.tolist()


@dataclass
class Matching:
    """A many-to-one matching: one alignment per transmitter, a set per RB."""

    allocation: Allocation
    proposals: int  # proposal events consumed by the inner subroutine


def match_alignments(orders, net):
    """Deferred acceptance with budget-driven revocation on ``preference_orders``.

    The lowest unmatched transmitter with entries left proposes its top
    remaining alignment.  While the RB's load, summed over its holders in
    ascending k, reaches its cap, the RB drops its least preferred holder
    and strikes that pair and every pair it ranks below from both sides'
    lists, so no pair is proposed twice.  ``orders`` is not modified.
    """
    K, N, L = net.num_tx, net.num_rb, net.num_levels
    NL = N * L
    tx, rank, rb = orders
    load = net.ref_p_list
    i_max = net.i_max.tolist()
    # A strike cuts an RB's list at a rank, so it stays the prefix
    # rb[n][:cut[n]].  A transmitter's list is its order minus the struck
    # alignments; head[k], its first unstruck entry, only moves forward.
    struck = bytearray(K * NL)
    cut = [K * L] * N
    head = list(range(0, K * NL, NL))
    on_rb = [[] for _ in range(N)]  # holders' flat indices, ascending k
    free = list(range(K))  # ascending: unmatched, not yet found exhausted
    proposals = 0

    while free:
        k = free.pop(0)
        h, end = head[k], (k + 1) * NL
        while h < end and struck[tx[h]]:
            h += 1
        head[k] = h
        if h == end:
            continue  # nothing left to propose: k stays unmatched
        s = tx[h]
        n = s // L % N
        proposals += 1
        bisect.insort(on_rb[n], s)
        while netmodel.load_sum([load[j] for j in on_rb[n]]) >= i_max[n]:
            worst = max(on_rb[n], key=rank.__getitem__)
            on_rb[n].remove(worst)
            bisect.insort(free, worst // NL)
            # Strike the revoked pair and all its successors from both sides.
            c = rank[worst]
            for j in rb[n][c:cut[n]]:
                struck[j] = 1
            cut[n] = c

    held = np.array([s for on in on_rb for s in on], dtype=np.int64)
    alloc = Allocation(K)
    alloc.rb[held // NL], alloc.level[held // NL] = np.divmod(held % NL, L)
    return Matching(allocation=alloc, proposals=proposals)


def find_blocking_pair(matching, profiles_tx, profiles_rb):
    """Return a blocking (k, n, l) tuple, or None if the matching is stable.

    A tuple blocks when transmitter k strictly prefers (n, l) to its own
    match and RB n strictly prefers (k, l) to at least one pair currently
    assigned to it, both judged by the given profiles' strict order.
    """
    rank_tx = [p.rank() for p in profiles_tx]
    rank_rb = [p.rank() for p in profiles_rb]
    for k, prof in enumerate(profiles_tx):
        mine = matching.allocation.get(k)
        my_rank = rank_tx[k][mine] if mine is not None else len(prof.entries)
        for (n, l), _u in prof.entries:
            if rank_tx[k][(n, l)] >= my_rank:
                break  # entries are best-first; nothing below can block
            holders = matching.allocation.on_rb(n)
            pos = rank_rb[n][(k, l)]
            if any(pos < rank_rb[n][pair] for pair in holders):
                return (k, n, l)
    return None


@dataclass
class MatchingRound:
    profiles_tx: list
    profiles_rb: list
    matching: Matching


def random_alignment(net, rng):
    """Every transmitter on a uniformly random (RB, level); the start state."""
    alloc = Allocation(net.num_tx)
    for k in range(net.num_tx):
        alloc.assign(k, int(rng.integers(net.num_rb)), int(rng.integers(net.num_levels)))
    return alloc


def run_stable_matching(net, t_max=100, keep_rounds=False):
    """Iterated stable matching (``preference_orders`` + inner matching per round).

    Starts from a seeded random alignment, stops when two consecutive
    allocations coincide or ``t_max`` rounds elapse.  On non-convergence
    the best-sum-rate round result is returned (every round's output is
    feasible by construction).  Signaling accounting: per round each of
    the K transmitters uploads its N*L profile entries and the MBS
    broadcasts the K allocation entries, so
    ``messages = iterations * (K*N*L + K)``.

    ``info`` keys: ``proposals_per_round`` (proposal events of each inner
    matching) and ``rounds`` (a MatchingRound per round when
    ``keep_rounds``, else None; only kept rounds build PreferenceProfiles).
    """
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    rng = np.random.default_rng(net.seed)
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
        util = netmodel.utility_table(net, x_prev)
        m = match_alignments(preference_orders(util), net)
        proposals_per_round.append(m.proposals)
        if rounds is not None:
            rounds.append(MatchingRound([build_transmitter_profile(k, util[k]) for k in range(K)],
                                        [build_rb_profile(n, util[:, n, :]) for n in range(N)],
                                        m))
        x_t = m.allocation
        rate = sum_rate(net, x_t)
        if rate > best_rate:
            best_alloc, best_rate = x_t, rate
        final = x_t
        if x_t == x_prev:
            converged = True
            break
        x_prev = x_t

    return SolverResult(
        allocation=final if converged else best_alloc,
        iterations=iterations,
        converged=converged,
        messages=iterations * (K * N * L + K),
        info={"proposals_per_round": proposals_per_round, "rounds": rounds},
    )
