"""Allocation representation, feasibility, objective, and the exact oracle.

The optimization problem: pick for each underlay transmitter at most one
(RB, power level) pair maximizing the total underlay rate, subject to a
strict per-RB cap on aggregated reference-user interference.  The oracle
finds an exact optimum by a dynamic program over transmitter subsets, so it
is the ground truth the distributed algorithms are measured against.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import netmodel

DEFAULT_ORACLE_BUDGET = 10 ** 8
_CHUNK_ROWS = 1 << 14  # level vectors per numpy pass, bounding the oracle's memory


class OracleBudgetError(RuntimeError):
    """The oracle's ``oracle_cost`` exceeds the configured budget."""


class Allocation:
    """Assignment of each transmitter to at most one (RB, level) pair.

    ``rb[k]`` and ``level[k]`` are int64 arrays holding transmitter k's RB
    and power level, both -1 while k is silent.  Solvers read and write
    them directly; ``pairs`` (a list or a dict k -> (n, l), None for
    silent) and ``assign`` take non-negative integer indices, k < ``num_tx``.
    """

    __slots__ = ("rb", "level")

    def __init__(self, num_tx, pairs=None):
        self.rb = np.full(num_tx, -1, dtype=np.int64)
        self.level = self.rb.copy()
        if pairs:
            for k, res in pairs.items() if isinstance(pairs, dict) else enumerate(pairs):
                if res is not None:
                    self.assign(k, res[0], res[1])

    @property
    def num_tx(self):
        return len(self.rb)

    def assign(self, k, n, l):
        if isinstance(k, bool) or not isinstance(k, numbers.Integral) or not 0 <= k < len(self.rb):
            raise ValueError(f"transmitter {k!r} must be an integer in [0, {len(self.rb)})")
        for name, i in (("RB", n), ("level", l)):
            if isinstance(i, bool) or not isinstance(i, numbers.Integral):
                raise ValueError(f"transmitter {k}: {name} {i!r} must be an integer")
        n, l = int(n), int(l)
        if n < 0 or l < 0:  # -1 marks a silent transmitter, never an index
            raise ValueError(f"transmitter {k}: RB {n} and level {l} must be >= 0")
        self.rb[k], self.level[k] = n, l

    def get(self, k):
        n = int(self.rb[k])
        return None if n < 0 else (n, int(self.level[k]))

    def num_assigned(self):
        return int(np.count_nonzero(self.rb >= 0))

    def copy(self):
        out = Allocation.__new__(Allocation)
        out.rb, out.level = self.rb.copy(), self.level.copy()
        return out

    def __eq__(self, other):
        # Both are 1-D int64 arrays: equal bytes mean equal lengths and entries.
        return (isinstance(other, Allocation) and self.rb.tobytes() == other.rb.tobytes()
                and self.level.tobytes() == other.level.tobytes())

    def __repr__(self):
        return f"Allocation({[self.get(k) for k in range(self.num_tx)]})"


@dataclass
class SolverResult:
    """What every solver returns; each runner's docstring lists its ``info`` keys."""

    allocation: Allocation
    iterations: int
    converged: bool
    messages: int
    info: dict


DEFAULT_T_MAX = 500  # the iteration cap of every runner and of ``hetalloc run``, unless given


def check_t_max(t_max, label):
    """Raise ValueError, starting with ``label`` (the field) and ending with
    the value, unless ``t_max`` is an integer, not a bool, and >= 1.
    ``solve`` checks every runner's iteration cap here."""
    if isinstance(t_max, bool) or not isinstance(t_max, numbers.Integral):
        raise ValueError(f"{label} must be an integer, got {t_max!r}")
    if t_max < 1:
        raise ValueError(f"{label} must be >= 1, got {t_max}")


def solve(step, t_max, messages, info, pick=None):
    """The loop of every solver, ``step(t)`` for t = 1..``t_max``, and its result.

    ``step(t)`` returns ``(output, record, done, period)``.  The loop stops
    at the first ``done``, or at a period p confirmed before ``t_max``: the
    iterations left would repeat the last p, so their outputs and records
    (the same objects) are replayed in phase, not computed.  A distributed
    run does not know that it cycles, so a replayed iteration counts.
    Returns the run's ``SolverResult``: the allocation is ``pick(outputs,
    computed, converged)``, ``computed`` being the outputs not replayed,
    or else the last output; ``messages`` (one iteration's count) times the
    iterations; ``info(outputs, records, cycle)``, where ``cycle`` is
    ``(first, period)`` when iterations ``first``..``t_max`` were replayed,
    else None.
    """
    check_t_max(t_max, "t_max")
    outputs, records, cycle = [], [], None
    for t in range(1, t_max + 1):
        output, record, done, period = step(t)
        outputs.append(output)
        records.append(record)
        if done:
            break
        if period and t < t_max:
            for log in (outputs, records):
                tail = log[-period:]
                log += [tail[i % period] for i in range(t_max - t)]
            cycle = (t + 1, period)
            break
    converged, iterations = bool(done), len(outputs)
    computed = outputs[:cycle[0] - 1] if cycle else outputs
    return SolverResult(pick(outputs, computed, converged) if pick else outputs[-1],
                        iterations, converged, iterations * messages,
                        info(outputs, records, cycle))


def start_alignment(net):
    """The start state of every solver: each transmitter on a uniformly
    random (RB, level), ``net.start_draw``.  The draw is made once per drop;
    each call returns a new, writable copy of it."""
    rb, level = net.start_draw
    alloc = Allocation.__new__(Allocation)
    alloc.rb, alloc.level = rb.copy(), level.copy()
    return alloc


@dataclass
class EvalReport:
    sum_rate: float
    weighted_benefit: float
    feasible: bool


def _check_fits(net, alloc):
    """Raise ValueError, naming the transmitter, unless alloc has one entry
    per transmitter of net, every RB and level lies inside the drop, and
    each entry is silent (both -1) or assigned (both >= 0)."""
    if alloc.num_tx != net.num_tx:
        raise ValueError(f"transmitter {min(alloc.num_tx, net.num_tx)}: the allocation has "
                         f"{alloc.num_tx} transmitters and the drop {net.num_tx}")
    rb, level = alloc.rb, alloc.level
    outside = ((rb >= net.num_rb) | (level >= net.num_levels) | (rb < -1) | (level < -1)
               | ((rb < 0) != (level < 0))).nonzero()[0]
    if outside.size:
        k = int(outside[0])
        raise ValueError(f"transmitter {k}: RB {rb[k]} and level {level[k]} must be "
                         f"< {net.num_rb} and < {net.num_levels}, and both -1 or both >= 0")


def is_feasible(net, alloc):
    """Check the strict per-RB interference constraint; returns an EvalReport.

    ``feasible`` holds when every RB's ``netmodel.interference_vector``
    entry lies strictly below its ``i_max``.  ``sum_rate`` and
    ``weighted_benefit`` are summed from one list of SINRs and equal what
    the two functions of those names return.
    """
    _check_fits(net, alloc)
    violated = netmodel.interference_vector(net, alloc) >= net.i_max
    rate, benefit = _totals(net, netmodel.sinr_underlay(net, alloc))
    return EvalReport(sum_rate=rate, weighted_benefit=benefit, feasible=not violated.any())


def sum_rate(net, alloc):
    """Total underlay rate in bit/s, with mutual interference from alloc itself."""
    _check_fits(net, alloc)
    return _totals(net, netmodel.sinr_underlay(net, alloc))[0]


def weighted_benefit(net, alloc):
    """Total weighted spectral efficiency sum_k w1 * log2(1 + SINR_k)."""
    _check_fits(net, alloc)
    return _totals(net, netmodel.sinr_underlay(net, alloc))[1]


def _totals(net, sinrs):
    """``(rate, benefit)``, each a left fold from 0.0 in the SINRs' order."""
    rate = benefit = 0.0
    for sinr in sinrs:
        rate += netmodel.shannon_rate(sinr, net.rb_bandwidth)
        benefit += net.w1 * math.log2(1.0 + sinr)
    return rate, benefit


def search_space_size(num_tx, num_rb, num_levels, include_unassigned=False):
    """Exact number of assignment combinations, (N*L)^K.

    With ``include_unassigned`` each transmitter may also stay silent,
    giving (N*L + 1)^K.  Python integers are exact at any size.
    """
    if num_tx < 1 or num_rb < 1 or num_levels < 1:
        raise ValueError(f"counts must be >= 1, got K={num_tx}, N={num_rb}, L={num_levels}")
    base = num_rb * num_levels + (1 if include_unassigned else 0)
    return base ** num_tx


def oracle_cost(num_tx, num_rb, num_levels):
    """Work of ``exhaustive_search``: N*(L+1)^K + (N+K) * 3^K.

    Per RB it evaluates all (L+1)^K level vectors; joining the RBs visits
    the 3^K (set, subset) pairs once per RB, and building their index
    takes K digit passes over them.  That build peaks at about 56 bytes
    per pair, so the budget bounds the oracle's memory too (a cost of 1e8
    admits K <= 14 at N = L = 1, about 270 MB).  Python integers are exact.
    """
    return num_rb * (num_levels + 1) ** num_tx + (num_rb + num_tx) * 3 ** num_tx


def exhaustive_search(net, budget=None, stats=None):
    """Centralized oracle: an exact feasible maximizer of the sum rate.

    Rate and cap couple transmitters only within an RB, so the optimum
    splits per RB.  For each RB n and transmitter set T, ``f_n(T)`` is the
    best rate of T alone on n over the level vectors that keep n strictly
    under its cap; all (L+1)^K level vectors per RB are evaluated (a silent
    transmitter is one more level).  A subset convolution over the RBs,
    ``g_n(S) = max_{T <= S} f_n(T) + g_{n+1}(S - T)``, then gives the best
    allocation of all K transmitters; a transmitter in no T stays silent.
    Allocations are ranked by that RB-by-RB sum, so two whose rates differ
    only in the last bits may rank as a single ascending-k sum would not.

    Exact ties: RBs are filled in ascending order.  Each RB takes, among
    the transmitter sets that still attain the optimum, one that holds
    transmitter 0 if any does, then, among those, one that holds
    transmitter 1 if any does, and so on.  Within the RB, among level
    vectors of equal rate, it takes the lowest level for the lowest
    transmitter, then for the next.  So two identical transmitters on two
    identical RBs take RB 0 and RB 1 in index order.

    Returns ``(allocation, sum_rate(net, allocation))``: the rate is the
    evaluator's, the bits ``is_feasible`` reports for that allocation and
    for any solver that returns it.  The empty allocation (rate 0) is the
    fallback when nothing better is feasible.

    ``stats``, if given a dict, receives ``candidates`` (the N*(L+1)^K
    per-RB level vectors evaluated) and ``feasible`` (how many of them kept
    their RB under its cap).
    """
    K, N, L = net.num_tx, net.num_rb, net.num_levels
    cost = oracle_cost(K, N, L)
    limit = DEFAULT_ORACLE_BUDGET if budget is None else budget
    if cost > limit:
        raise OracleBudgetError(
            f"oracle cost N*(L+1)^K + (N+K)*3^K = {cost} exceeds budget {limit}")

    f, best_row, feasible = _rb_tables(net)
    S, T, starts = _subset_pairs(K)
    g = np.zeros((N + 1, 1 << K))  # g[n, S]: best rate of set S on RBs n..N-1
    for n in reversed(range(N)):
        g[n] = np.maximum.reduceat(f[n, T] + g[n + 1, S ^ T], starts[:-1])

    # Walk the RBs in ascending order.  Of the sets that attain the optimum,
    # take the one whose bits, read from transmitter 0 up, are largest.
    left = (1 << K) - 1
    alloc = Allocation(K)
    for n in range(N):
        subs = T[starts[left]:starts[left + 1]]
        hits = subs[f[n, subs] + g[n + 1, left ^ subs] == g[n, left]]
        taken = max(hits.tolist(), key=lambda t: f"{t:0{K}b}"[::-1])
        row = int(best_row[n, taken])
        for k in range(K):
            if taken >> k & 1:
                alloc.assign(k, n, row // (L + 1) ** (K - 1 - k) % (L + 1) - 1)
        left ^= taken

    if stats is not None:
        stats["candidates"] = N * (L + 1) ** K
        stats["feasible"] = feasible
    return alloc, sum_rate(net, alloc)


def _rb_tables(net):
    """Best rate of every transmitter set alone on every RB.

    Row r of RB n is the level vector with base-(L+1) digits r (transmitter
    0 most significant); digit 0 is silent and digit j is power level j-1.
    Returns ``(f, best_row, feasible)``: ``f[n, T]`` is the best rate of set
    T (bit k = transmitter k) on RB n, -inf when no level vector of T
    keeps n under its cap; ``best_row[n, T]`` is the first row reaching
    it; ``feasible`` counts the rows under cap.  Loads and SINR
    denominators are summed one term at a time in ascending k, from 0.0
    and from the same products a full enumeration adds, so every cap test
    sees the same floats.
    """
    K, N, L = net.num_tx, net.num_rb, net.num_levels
    B = L + 1
    power = np.concatenate(([0.0], net.power_levels))         # (B,), silent first
    contrib = net.ref_gain[:, :, None] * power                 # (K, N, B)
    signal = net.gain_ul[np.arange(K), np.arange(K), :][:, :, None] * power
    base_den = net.mbs_den + net.sigma2                        # (K, N)
    cross = net.gain_ul[:, :, :, None] * power                 # (kp, victim, N, B)
    i_max = net.i_max[:, None]

    f = np.full(N << K, -np.inf)  # flat (n, T) tables, entry n * 2^K + T
    f[::1 << K] = 0.0  # all silent: the fallback
    best_row = np.zeros(N << K, dtype=np.int64)
    feasible = 0
    # A chunk fixes the leading K-m digits and spans the B^m trailing ones.
    # Its loads grow one transmitter at a time, in ascending k, so each
    # partial sum is added once for all the rows that share it.
    m = K
    while m > 1 and B ** m > _CHUNK_ROWS:
        m -= 1
    for prefix in range(B ** (K - m)):
        load = np.zeros((N, 1))
        for k in range(K):
            if k < K - m:
                load = load + contrib[k][:, prefix // B ** (K - m - 1 - k) % B, None]
            else:
                load = (load[:, :, None] + contrib[k][:, None, :]).reshape(N, -1)
        n_ok, c_ok = np.nonzero(load < i_max)  # RB-major, rows ascending
        feasible += len(n_ok)
        rows = prefix * B ** m + c_ok
        lev = [rows // B ** (K - 1 - k) % B for k in range(K)]
        at = [n_ok * B + lv for lv in lev]  # flat (n, level) index per transmitter
        rate = np.zeros(len(n_ok))
        mask = np.zeros(len(n_ok), dtype=np.int64)
        for k in range(K):
            den = base_den[k, n_ok]
            for kp in range(K):
                if kp != k:
                    den = den + cross[kp, k].take(at[kp])
            rate += np.log2(1.0 + signal[k].take(at[k]) / den)
            mask |= (lev[k] > 0).astype(np.int64) << k
        # Per (n, T), keep this chunk's best only if it beats earlier chunks
        # strictly, and take its first row: equal rates keep the lowest row.
        key = n_ok * (1 << K) + mask
        best = np.full(N << K, -np.inf)
        np.maximum.at(best, key, rate)
        hit = rate == best[key]
        keys, first = np.unique(key[hit], return_index=True)
        better = best[keys] > f[keys]
        keys = keys[better]
        f[keys] = best[keys]
        best_row[keys] = rows[hit][first[better]]
    return f.reshape(N, -1), best_row.reshape(N, -1), feasible


@functools.lru_cache(maxsize=1)  # at K=12 the three arrays take about 8.5 MB
def _subset_pairs(num_tx):
    """Every (S, T) with T a subset of S, as bitmask arrays grouped by S.

    Returns ``(S, T, starts)``, read-only and cached for the last K asked
    for; the pairs of set s are ``T[starts[s]:starts[s + 1]]``, in
    ascending T.
    """
    digits = np.arange(3 ** num_tx)
    S = np.zeros(3 ** num_tx, dtype=np.int64)
    T = np.zeros(3 ** num_tx, dtype=np.int64)
    for k in range(num_tx):
        d = digits % 3  # 0: k outside S, 1: in S only, 2: in S and T
        digits //= 3
        S |= (d > 0).astype(np.int64) << k
        T |= (d == 2).astype(np.int64) << k
    by_set = np.lexsort((T, S))
    S, T = S[by_set], T[by_set]
    starts = np.searchsorted(S, np.arange((1 << num_tx) + 1))
    for a in (S, T, starts):
        a.flags.writeable = False
    return S, T, starts
