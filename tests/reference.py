"""Scan-based reference implementations, kept for exact-equality tests.

These are the straightforward versions of routines that the library now
computes from per-RB holder lists, once per table or once per round.  Each
one re-scans the whole allocation wherever it needs a co-channel sum, so
its floating-point additions happen in the plain ascending-k order that
the optimized code must reproduce bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from hetalloc import netmodel
from hetalloc.allocation import Allocation
from hetalloc.matching import Matching, PreferenceProfile


def repair(net, alloc):
    """Evict the largest reference-user contributor until every RB is under cap."""
    for n in range(net.num_rb):
        while netmodel.aggregated_interference(net, alloc, n) >= net.i_max[n]:
            holders = alloc.on_rb(n)
            contribs = [net.ref_gain[k, n] * net.power_levels[l] for k, l in holders]
            alloc.unassign(holders[int(np.argmax(contribs))][0])
    return alloc


def extract_allocation(state, net):
    """Per-transmitter argmax of positive marginals, then the repair above."""
    tau = state.tau
    K, _N, L = tau.shape
    alloc = Allocation(K)
    for k in range(K):
        flat = tau[k].ravel()
        j = int(np.argmax(flat))
        if flat[j] > 0.0:
            alloc.assign(k, j // L, j % L)
    return repair(net, alloc)


def interference_vector(net, alloc):
    """One O(K) scan per RB."""
    return np.array([netmodel.aggregated_interference(net, alloc, n)
                     for n in range(net.num_rb)])


def _interference_maps(net, alloc):
    K, N = net.num_tx, net.num_rb
    rx_int = np.zeros((K, N))
    agg = np.zeros(N)
    for kp, (n, l) in alloc.assigned_items():
        p = net.power_levels[l]
        agg[n] += net.ref_gain[kp, n] * p
        v = net.gain_ul[kp, :, n] * p
        v[kp] = 0.0
        rx_int[:, n] += v
    return rx_int, agg


def benefit_table(net, alloc):
    rx_int, _ = _interference_maps(net, alloc)
    sig = net.gain_ul[np.arange(net.num_tx), np.arange(net.num_tx), :]
    den = net.gain_mbs_ul * net.mbs_power + rx_int + net.sigma2
    gamma = sig[:, :, None] * net.power_levels[None, None, :] / den[:, :, None]
    return net.w1 * np.log2(1.0 + gamma)


def cost_table(net, alloc):
    _, agg = _interference_maps(net, alloc)
    own = np.zeros((net.num_tx, net.num_rb))
    for k, (n, l) in alloc.assigned_items():
        own[k, n] = net.ref_gain[k, n] * net.power_levels[l]
    i_others = agg[None, :] - own
    i_hyp = net.ref_gain[:, :, None] * net.power_levels[None, None, :] + i_others[:, :, None]
    return net.w2 * (i_hyp / net.i_max[None, :, None] - 1.0)


def utility_table(net, alloc):
    """Benefit minus cost, each from its own interference pass."""
    return benefit_table(net, alloc) - cost_table(net, alloc)


def sum_rate(net, alloc):
    """Every SINR denominator re-summed over the whole allocation."""
    total = 0.0
    for k, (n, _l) in alloc.assigned_items():
        total += netmodel.shannon_rate(netmodel.sinr_underlay(net, alloc, k, n),
                                       net.rb_bandwidth)
    return total


def weighted_benefit(net, alloc):
    total = 0.0
    for k, (n, _l) in alloc.assigned_items():
        total += net.w1 * math.log2(1.0 + netmodel.sinr_underlay(net, alloc, k, n))
    return total


def remove(profile, key):
    profile.entries = [(k, u) for k, u in profile.entries if k != key]


def match_alignments(profiles_tx, profiles_rb, net):
    """Deferred acceptance on copied profiles, rebuilding a list per strike."""
    K = net.num_tx
    P = net.power_levels
    work_tx = [PreferenceProfile(p.owner, p.entries) for p in profiles_tx]
    work_rb = [PreferenceProfile(p.owner, p.entries) for p in profiles_rb]
    rank_rb = [p.rank() for p in profiles_rb]
    assigned = {}
    proposals = 0

    def rb_interference(n):
        return sum(net.ref_gain[kk, n] * P[ll]
                   for kk, (nn, ll) in sorted(assigned.items()) if nn == n)

    while True:
        k = next((i for i in range(K) if i not in assigned and work_tx[i].entries), None)
        if k is None:
            break
        n, l = work_tx[k].entries[0][0]
        proposals += 1
        assigned[k] = (n, l)
        if rb_interference(n) < net.i_max[n]:
            continue
        while rb_interference(n) >= net.i_max[n]:
            holders = [(kp, lp) for kp, (nn, lp) in assigned.items() if nn == n]
            lp_pair = max(holders, key=lambda pair: rank_rb[n][pair])
            del assigned[lp_pair[0]]
            cut = rank_rb[n][lp_pair]
            removed = [(kp, lv) for (kp, lv), _u in work_rb[n].entries
                       if rank_rb[n][(kp, lv)] >= cut]
            for kp, lv in removed:
                remove(work_rb[n], (kp, lv))
                remove(work_tx[kp], (n, lv))

    alloc = Allocation(K)
    for k, (n, l) in assigned.items():
        alloc.assign(k, n, l)
    return Matching(allocation=alloc, proposals=proposals)
