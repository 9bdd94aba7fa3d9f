"""Stable-matching resource allocation.

Transmitters rank (RB, level) pairs and each RB ranks (transmitter, level)
pairs by the biased utility, as int lists from one stable argsort per
side.  Deferred acceptance with revocation runs on those ints: a
transmitter grabs its best remaining alignment, and whenever an RB's
budget is exceeded the RB revokes its least preferred holders, striking
the revoked pair and every pair ranked below it from both sides' lists.
The outer loop re-ranks until the allocation stops changing; once an
allocation repeats an earlier one, the rounds left are replayed.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from . import netmodel
from .allocation import Allocation, SolverResult, check_t_max, start_alignment, sum_rate


# Nothing here calls the two builders below; bench/tracing.py times them by
# name, so they stay until the benchmark drops those sites.
def build_transmitter_profile(k, utilities):
    """Transmitter k's (n, l) keys, best first, by its (N, L) utility row."""
    return [divmod(s, utilities.shape[1]) for s in preference_orders(utilities[None])[0]]


def build_rb_profile(n, utilities):
    """RB n's (k, l) keys, best first, by its (K, L) utility column."""
    return [divmod(s, utilities.shape[1]) for s in preference_orders(utilities[None])[0]]


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


def find_blocking_pair(allocation, orders):
    """Return a blocking (k, n, l) tuple, or None if the allocation is stable.

    A tuple blocks when transmitter k ranks (n, l) above its own alignment
    (any alignment, while k is silent) and RB n ranks (k, l) above at
    least one of its holders, k itself included, both judged by the
    ``preference_orders`` ``orders``.
    """
    tx, rank, rb = orders
    K, N = allocation.num_tx, len(rb)
    NL = len(tx) // K
    L = NL // N
    mine = [-1] * K
    worst = [-1] * N  # the largest rank among RB n's holders
    for k, (n, l) in allocation.assigned_items():
        mine[k] = s = k * NL + n * L + l
        worst[n] = max(worst[n], rank[s])
    for k in range(K):
        for s in tx[k * NL:(k + 1) * NL]:
            if s == mine[k]:
                break  # best-first: nothing below k's own alignment blocks
            if rank[s] < worst[s // L % N]:
                return (k, s // L % N, s % L)
    return None


def run_stable_matching(net, t_max=100):
    """Iterated stable matching (``preference_orders`` + inner matching per round).

    Starts from ``start_alignment``, stops when two consecutive
    allocations coincide or ``t_max`` rounds elapse.  On non-convergence
    the best-sum-rate round result is returned (every round's output is
    feasible by construction).  Signaling accounting: per round each of
    the K transmitters uploads its N*L preference entries and the MBS
    broadcasts the K allocation entries, so
    ``messages = iterations * (K*N*L + K)``.

    A round is a pure function of the previous allocation, so once an
    allocation repeats an earlier one (the start state included) the
    rounds that follow repeat that cycle up to ``t_max``.  They are
    replayed, not recomputed: the result equals, field by field, what
    computing all ``t_max`` rounds returns.

    ``info`` keys: ``proposals_per_round`` (proposal events of each inner
    matching), ``allocations`` (each round's inner-matching allocation; a
    replayed round is the same object as the one a period earlier) and
    ``cycle`` (``(first, period)`` when rounds ``first``..``t_max`` were
    replayed from ``period`` rounds earlier, else None).  Round r's orders
    are ``preference_orders(netmodel.utility_table(net, prev))``, where
    ``prev`` is round r-1's allocation and ``start_alignment(net)`` for
    round 1.
    """
    check_t_max(t_max, "t_max")
    K, N, L = net.num_tx, net.num_rb, net.num_levels
    x_prev = start_alignment(net)
    seen = {(x_prev.rb.tobytes(), x_prev.level.tobytes()): 0}  # allocation -> round

    proposals_per_round = []
    allocations = []
    best_alloc, best_rate = None, -1.0
    converged = False
    cycle = None

    for iterations in range(1, t_max + 1):
        m = match_alignments(preference_orders(netmodel.utility_table(net, x_prev)), net)
        x_t = m.allocation
        proposals_per_round.append(m.proposals)
        allocations.append(x_t)
        rate = sum_rate(net, x_t)
        if rate > best_rate:
            best_alloc, best_rate = x_t, rate
        if x_t == x_prev:
            converged = True
            break
        # A repeated allocation repeats its rates too, which the strict >
        # above never lets replace best_alloc.
        seen_at = seen.setdefault((x_t.rb.tobytes(), x_t.level.tobytes()), iterations)
        if seen_at < iterations < t_max:
            cycle = (iterations + 1, iterations - seen_at)
            break
        x_prev = x_t

    if cycle is not None:
        period = cycle[1]
        for log in (proposals_per_round, allocations):
            tail = log[-period:]
            log += [tail[i % period] for i in range(t_max - iterations)]
        iterations = t_max

    return SolverResult(
        allocation=x_t if converged else best_alloc,
        iterations=iterations,
        converged=converged,
        messages=iterations * (K * N * L + K),
        info={"proposals_per_round": proposals_per_round, "allocations": allocations,
              "cycle": cycle},
    )
