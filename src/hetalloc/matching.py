"""Stable-matching resource allocation.

Transmitters rank (RB, level) pairs and RBs rank (transmitter, level)
pairs by the same biased utility: the transmitters' orders come from one
stable argsort, an RB's are read off the utility table.  In deferred
acceptance a transmitter grabs its best remaining alignment, and an RB
over budget revokes its least preferred holders, striking each revoked
pair and all it ranks below.  The outer loop re-ranks until the
allocation stops changing; once one repeats, the rounds left are replayed.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import netmodel
from .allocation import DEFAULT_T_MAX, Allocation, solve, start_alignment, sum_rate


# Nothing here calls the two builders below; bench/tracing.py times them by
# name, so they stay until the benchmark drops those sites.
def build_transmitter_profile(k, utilities):
    """Transmitter k's (n, l) keys, best first, by its (N, L) utility row."""
    return [divmod(s, utilities.shape[1]) for s in preference_orders(utilities[None])[0]]


def build_rb_profile(n, utilities):
    """RB n's (k, l) keys, best first, by its (K, L) utility column."""
    return [divmod(s, utilities.shape[1]) for s in preference_orders(utilities[None])[0]]


def preference_orders(util):
    """The transmitters' orders and the (K, N, L) utility table, ``(tx, util)``.

    Alignment (k, n, l) is ``s = k*N*L + n*L + l``; ``tx[k*N*L + h]`` is the
    s of k's h-th best (n, l), equal utilities (signed zeros too) by
    ascending s.  RB n ranks its alignments by ``(-u[s], s)``: ``_struck``.
    """
    K, N, L = util.shape
    NL = N * L
    by_tx = np.argsort(-util.reshape(K, NL), axis=1, kind="stable")
    return (by_tx + np.arange(0, K * NL, NL)[:, None]).ravel().tolist(), util


def _struck(u, s, c):
    """Whether alignment s ranks at or below c on their RB: ``u[s] < u[c]``,
    or equal utilities (+0.0 == -0.0) and ``s >= c``."""
    return u[s] < u[c] or (u[s] == u[c] and s >= c)


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
    tx, util = orders
    u = util.ravel().tolist() + [-math.inf]
    load = net.ref_p_list
    i_max = net.i_max.tolist()
    # A revocation ranks above every earlier one on its RB, so RB n has
    # struck what its last revoked alignment cut[n] strikes: nothing while
    # that is entry K*N*L, of utility -inf.  head[k], the first unstruck
    # entry of k's order, only moves forward.
    cut = [K * NL] * N
    head = list(range(0, K * NL, NL))
    on_rb = [[] for _ in range(N)]  # holders' flat indices, ascending k
    free = list(range(K))  # ascending: unmatched, not yet found exhausted
    proposals = 0

    while free:
        k = free.pop(0)
        h, end = head[k], (k + 1) * NL
        while h < end and _struck(u, tx[h], cut[tx[h] // L % N]):
            h += 1
        head[k] = h
        if h == end:
            continue  # nothing left to propose: k stays unmatched
        s = tx[h]
        n = s // L % N
        proposals += 1
        bisect.insort(on_rb[n], s)
        while netmodel.load_sum([load[j] for j in on_rb[n]]) >= i_max[n]:
            c = functools.reduce(lambda w, j: j if _struck(u, j, w) else w, on_rb[n])
            on_rb[n].remove(c)
            bisect.insort(free, c // NL)
            cut[n] = c

    held = np.array([s for on in on_rb for s in on], dtype=np.int64)
    alloc = Allocation(K)
    alloc.rb[held // NL], alloc.level[held // NL] = np.divmod(held % NL, L)
    return Matching(allocation=alloc, proposals=proposals)


def best_round(net):
    """Matching's pick for ``allocation.solve``: the last round if the run
    converged, without scoring any round; else the first computed round
    of the best sum rate (a replayed round repeats a computed one)."""
    return lambda outputs, computed, converged: (
        outputs[-1] if converged else max(computed, key=lambda x: sum_rate(net, x)))


def run_stable_matching(net, t_max=DEFAULT_T_MAX):
    """Iterated stable matching (``preference_orders`` + inner matching per round).

    Starts from ``start_alignment`` and runs under ``allocation.solve``
    until two consecutive allocations coincide, and returns that fixed
    point.  Any other run returns ``best_round``'s pick (every round's
    output is feasible by construction).  Signaling accounting: per round
    each of the K transmitters uploads its N*L preference entries and the
    MBS broadcasts the K allocation entries, so
    ``messages = iterations * (K*N*L + K)``.

    A round is a pure function of the previous allocation, so the cycle
    key is the whole allocation: the round whose allocation repeats an
    earlier one (the start state included) confirms the period, and no
    further round is computed.

    ``info`` keys: ``proposals_per_round`` (proposal events of each inner
    matching), ``allocations`` (each round's inner-matching allocation)
    and ``cycle``, as ``solve`` defines it.  Round r's orders are
    ``preference_orders(netmodel.utility_table(net, prev))``, where
    ``prev`` is round r-1's allocation and ``start_alignment(net)`` for
    round 1.
    """
    K, N, L = net.num_tx, net.num_rb, net.num_levels
    x_prev = start_alignment(net)
    seen = {(x_prev.rb.tobytes(), x_prev.level.tobytes()): 0}  # allocation -> round

    def step(t):
        nonlocal x_prev
        m = match_alignments(preference_orders(netmodel.utility_table(net, x_prev)), net)
        x_prev = m.allocation
        # Rounds before t are pairwise distinct (a repeat stops the loop),
        # so a period of 1 is the fixed point: round t repeats round t-1.
        period = t - seen.setdefault((x_prev.rb.tobytes(), x_prev.level.tobytes()), t)
        return x_prev, m.proposals, period == 1, period

    return solve(step, t_max, K * N * L + K, lambda allocations, proposals, cycle: dict(
        proposals_per_round=proposals, allocations=allocations, cycle=cycle), best_round(net))
