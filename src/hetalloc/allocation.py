"""Allocation representation, feasibility, objective, and the exact oracle.

The optimization problem: pick for each underlay transmitter at most one
(RB, power level) pair maximizing the total underlay rate, subject to a
strict per-RB cap on aggregated reference-user interference.  The oracle
enumerates the full search space, so it is the ground truth the distributed
algorithms are measured against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import netmodel

DEFAULT_ORACLE_BUDGET = 10 ** 8


class OracleBudgetError(RuntimeError):
    """The exhaustive search space exceeds the configured budget."""


class Allocation:
    """Assignment of each transmitter to at most one (RB, level) pair.

    Equivalent to the binary indicator tensor x[k, n, l] with at most one
    non-zero entry per k.  Indices are 0-based.
    """

    __slots__ = ("_slots",)

    def __init__(self, num_tx, pairs=None):
        self._slots = [None] * num_tx
        if pairs:
            for k, res in pairs.items() if isinstance(pairs, dict) else enumerate(pairs):
                if res is not None:
                    self.assign(k, res[0], res[1])

    @property
    def num_tx(self):
        return len(self._slots)

    def assign(self, k, n, l):
        self._slots[k] = (int(n), int(l))

    def unassign(self, k):
        self._slots[k] = None

    def get(self, k):
        return self._slots[k]

    def assigned_items(self):
        """Yield (k, (n, l)) for every assigned transmitter, ascending k."""
        for k, res in enumerate(self._slots):
            if res is not None:
                yield k, res

    def on_rb(self, n):
        """All (k, l) pairs currently assigned to RB n, ascending k."""
        return [(k, res[1]) for k, res in enumerate(self._slots)
                if res is not None and res[0] == n]

    def by_rb(self, num_rb):
        """holders[n]: the (k, l) pairs on RB n, ascending k, in one pass."""
        holders = [[] for _ in range(num_rb)]
        for k, res in enumerate(self._slots):
            if res is not None:
                holders[res[0]].append((k, res[1]))
        return holders

    def num_assigned(self):
        return sum(1 for s in self._slots if s is not None)

    def is_empty(self):
        return all(s is None for s in self._slots)

    def copy(self):
        out = Allocation(len(self._slots))
        out._slots = list(self._slots)
        return out

    def indicator(self, num_rb, num_levels):
        """The binary tensor x[k, n, l]."""
        x = np.zeros((len(self._slots), num_rb, num_levels), dtype=np.int8)
        for k, (n, l) in self.assigned_items():
            x[k, n, l] = 1
        return x

    def __eq__(self, other):
        return isinstance(other, Allocation) and self._slots == other._slots

    def __repr__(self):
        return f"Allocation({self._slots})"


@dataclass
class SolverResult:
    """What every solver returns; each runner's docstring lists its ``info`` keys."""

    allocation: Allocation
    iterations: int
    converged: bool
    messages: int
    info: dict


@dataclass
class EvalReport:
    sum_rate: float
    per_rb_interference: list
    feasible: bool
    violated_rbs: list


def is_feasible(net, alloc):
    """Check the strict per-RB interference constraint; returns an EvalReport."""
    per_rb = [netmodel.aggregated_interference(net, alloc, n) for n in range(net.num_rb)]
    violated = [n for n in range(net.num_rb) if per_rb[n] >= net.i_max[n]]
    return EvalReport(
        sum_rate=sum_rate(net, alloc),
        per_rb_interference=per_rb,
        feasible=not violated,
        violated_rbs=violated,
    )


def sum_rate(net, alloc):
    """Total underlay rate in bit/s, with mutual interference from alloc itself."""
    total = 0.0
    for sinr in netmodel.underlay_sinrs(net, alloc):
        total += netmodel.shannon_rate(sinr, net.rb_bandwidth)
    return total


def weighted_benefit(net, alloc):
    """Total weighted spectral efficiency sum_k w1 * log2(1 + SINR_k)."""
    total = 0.0
    for sinr in netmodel.underlay_sinrs(net, alloc):
        total += net.w1 * math.log2(1.0 + sinr)
    return total


def search_space_size(num_tx, num_rb, num_levels, include_unassigned=False):
    """Exact number of assignment combinations, (N*L)^K.

    With ``include_unassigned`` each transmitter may also stay silent,
    giving (N*L + 1)^K.  Python integers are exact at any size.
    """
    if num_tx < 1 or num_rb < 1 or num_levels < 1:
        raise ValueError("counts must be >= 1")
    base = num_rb * num_levels + (1 if include_unassigned else 0)
    return base ** num_tx


def exhaustive_search(net, budget=None, stats=None):
    """Centralized oracle: enumerate every allocation, return a feasible maximizer.

    Each transmitter independently picks one of the N*L resources or stays
    unassigned, so (N*L + 1)^K candidates are visited.  Ties are broken
    toward the lexicographically smallest per-transmitter choice vector
    (unassigned sorts before resources, resources in (n, l) index order),
    which the enumeration order yields for free.  Returns
    ``(allocation, sum_rate)``; the empty allocation (rate 0, always
    feasible) is the fallback when nothing better is feasible.

    ``stats``, if given a dict, receives ``candidates`` (visited count) and
    ``feasible`` (feasible count).
    """
    K, N, L = net.num_tx, net.num_rb, net.num_levels
    total = search_space_size(K, N, L, include_unassigned=True)
    limit = DEFAULT_ORACLE_BUDGET if budget is None else budget
    if total > limit:
        raise OracleBudgetError(
            f"search space (N*L+1)^K = {total} exceeds budget {limit}")

    choices = [None] + [(n, l) for n in range(N) for l in range(L)]
    P = net.power_levels
    contrib = net.ref_gain[:, :, None] * P[None, None, :]       # (K, N, L)
    signal = net.gain_ul[np.arange(K), np.arange(K), :][:, :, None] * P[None, None, :]
    base_den = net.gain_mbs_ul * net.mbs_power + net.sigma2     # (K, N)
    cross = net.gain_ul[:, :, :, None] * P[None, None, None, :]  # (kp, victim, n, l)
    i_max = net.i_max
    log2 = math.log2

    best_rate = 0.0
    best = tuple([None] * K)
    visited = 0
    feasible_count = 0
    for cand in itertools.product(choices, repeat=K):
        visited += 1
        rb_load = [0.0] * N
        ok = True
        for k, res in enumerate(cand):
            if res is not None:
                rb_load[res[0]] += contrib[k, res[0], res[1]]
        for n in range(N):
            if rb_load[n] >= i_max[n]:
                ok = False
                break
        if not ok:
            continue
        feasible_count += 1
        rate = 0.0
        for k, res in enumerate(cand):
            if res is None:
                continue
            n, l = res
            den = base_den[k, n]
            for kp, other in enumerate(cand):
                if kp != k and other is not None and other[0] == n:
                    den += cross[kp, k, n, other[1]]
            rate += log2(1.0 + signal[k, n, l] / den)
        if rate > best_rate:
            best_rate = rate
            best = cand
    if stats is not None:
        stats["candidates"] = visited
        stats["feasible"] = feasible_count
    alloc = Allocation(K, list(best))
    return alloc, best_rate * net.rb_bandwidth
