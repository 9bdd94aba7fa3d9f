"""Scan-based reference implementations, kept for exact-equality tests.

Each quantity the library computes has one reference here, and the tests
compare the two with ``==`` or by bytes.  Every public name is read by
some test; a helper that only another reference calls starts with an
underscore.

First come the solvers' start-state draw, as it was written before it
moved into ``allocation.start_alignment``, the topology build as it was
before receivers were placed in array blocks (one scalar try at a time,
distances by ``np.linalg.norm``), the drop checksum, three views of an
allocation that only tests read, and the library's tables as the
(K, N, L) arrays that tests index.  Then the straightforward versions of
routines that the library now computes on the allocation's int arrays,
once per table or once per round.  Each one re-scans the whole
allocation wherever it needs a co-channel sum, so its floating-point
additions happen in the plain ascending-k order that the optimized code
must reproduce bit for bit.  The per-RB load scan
``aggregated_interference`` lives here, under ``repair``,
``interference_vector`` and ``utility``; ``sum_rate`` writes each rate
as ``bandwidth * log2(1 + SINR)`` and ``match_alignments`` folds its
loads with its own loop, so no reference calls the library formula it is
compared with.  Preference profiles of (key, utility) entries are what
the matching's int orders are compared with, and ``find_blocking_pair``,
the stability test, scans their rank dicts.

The scalar formulas after them (one utility, cost or message entry at a
time) are the definitions the library's tables and sweeps are checked
against.  The two message sweeps take each line's max over its other
entries by argmax and gather, on a full-size copy; they give the bytes
of ``msgpass.tx_sweep`` and ``res_sweep``, signs of zero included.  Then
comes the auction round the library computed one transmitter at a time
before its whole-round array step, with the K local views it kept before
it stored only their merged table, and the oracle the library used
before its subset dynamic program: a full enumeration of the
(N*L+1)^K allocations.  Last come the matching and message-passing
runners as they were before a repeated state was replayed: they compute
every round up to ``t_max``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math

import numpy as np

from hetalloc import matching, msgpass, netmodel
from hetalloc.allocation import (DEFAULT_ORACLE_BUDGET, DEFAULT_T_MAX, Allocation,
                                 OracleBudgetError, SolverResult, search_space_size,
                                 start_alignment)
from hetalloc.allocation import sum_rate as alloc_sum_rate
from hetalloc.matching import Matching


def random_alignment(net, rng):
    """Every transmitter on a uniformly random (RB, level); the start state."""
    alloc = Allocation(net.num_tx)
    for k in range(net.num_tx):
        alloc.assign(k, int(rng.integers(net.num_rb)), int(rng.integers(net.num_levels)))
    return alloc


def sample_receiver(rng, center, radius, anchors, label, tries):
    """Draw one point in a disk, at least MIN_LINK_DIST from every anchor,
    one try at a time; each failed try is appended to ``tries``."""
    ax, ay = anchors.T
    for _ in range(netmodel.MAX_PLACE_TRIES):
        r = radius * np.sqrt(rng.uniform())
        theta = rng.uniform(0.0, 2.0 * np.pi)
        x, y = center[0] + r * np.cos(theta), center[1] + r * np.sin(theta)
        dx, dy = ax - x, ay - y
        if np.sqrt((dx * dx + dy * dy).min()) >= netmodel.MIN_LINK_DIST:
            return x, y
        tries.append(label)
    raise netmodel.ConfigError(f"could not place {label} at {netmodel.MIN_LINK_DIST} m from "
                               f"all transmitters after {netmodel.MAX_PLACE_TRIES} tries")


def _place_receivers(rng, config, anchors, sbs_pos, d2d_tx_pos, tries):
    """MUE, SUE and D2D receiver positions, one ``sample_receiver`` each."""
    C, S, D = config.num_mue, config.num_sbs, config.num_d2d
    mue_pos = np.array([
        sample_receiver(rng, np.zeros(2), config.cell_radius, anchors, f"MUE {m}", tries)
        for m in range(C)
    ])
    sue_pos = np.array([
        sample_receiver(rng, sbs_pos[s], config.sbs_ue_max_dist, anchors, f"SUE {s}", tries)
        for s in range(S)
    ]).reshape(S, 2)
    d2d_rx_pos = np.array([
        sample_receiver(rng, d2d_tx_pos[d], config.d2d_max_dist, anchors,
                        f"D2D receiver {d}", tries)
        for d in range(D)
    ]).reshape(D, 2)
    return mue_pos, sue_pos, d2d_rx_pos


def build_topology(config, tries=None):
    """The drop ``netmodel.build_topology`` makes, receivers placed one try
    at a time; every failed try's receiver label is appended to ``tries``."""
    rng = np.random.default_rng(config.seed)
    C, S, D, N = config.num_mue, config.num_sbs, config.num_d2d, config.num_rb
    K = S + D
    alpha = config.pathloss_exp
    sbs_pos = netmodel._sample_disk(rng, np.zeros(2), config.cell_radius, S)
    d2d_tx_pos = netmodel._sample_disk(rng, np.zeros(2), config.cell_radius, D)
    tx_pos = np.vstack([sbs_pos, d2d_tx_pos])
    anchors = np.vstack([np.zeros((1, 2)), tx_pos])
    mue_pos, sue_pos, d2d_rx_pos = _place_receivers(
        rng, config, anchors, sbs_pos, d2d_tx_pos, [] if tries is None else tries)
    rx_pos = np.vstack([sue_pos, d2d_rx_pos])

    def dist(a, b):
        return np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)

    d_tx_mue = dist(tx_pos, mue_pos)
    d_mbs_mue = np.linalg.norm(mue_pos, axis=1)
    d_tx_rx = dist(tx_pos, rx_pos)
    d_mbs_rx = np.linalg.norm(rx_pos, axis=1)
    beta_tx_mue = rng.exponential(1.0, size=(K, C, N))
    beta_mbs_mue = rng.exponential(1.0, size=(C, N))
    beta_tx_rx = rng.exponential(1.0, size=(K, K, N))
    beta_mbs_rx = rng.exponential(1.0, size=(K, N))
    return netmodel.make_network(
        config, mue_pos, sbs_pos, sue_pos, d2d_tx_pos, d2d_rx_pos,
        beta_tx_rx * d_tx_rx[:, :, None] ** (-alpha),
        beta_mbs_rx * d_mbs_rx[:, None] ** (-alpha),
        beta_tx_mue * d_tx_mue[:, :, None] ** (-alpha),
        beta_mbs_mue * d_mbs_mue[:, None] ** (-alpha),
        config.power_levels, config.i_max_array(), config.mbs_power,
        config.noise_psd * config.rb_bandwidth, config.w1, config.w2,
        config.rb_bandwidth)


def checksum(net):
    """Hex digest over a drop's positions and gains; identical drops hash equal."""
    h = hashlib.sha256()
    for a in (net.mue_pos, net.sbs_pos, net.sue_pos, net.d2d_tx_pos, net.d2d_rx_pos,
              net.gain_ul, net.gain_mbs_ul, net.gain_mue, net.gain_mbs_mue):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def assigned_items(alloc):
    """Yield (k, (n, l)) for every assigned transmitter, ascending k."""
    for k, (n, l) in enumerate(zip(alloc.rb.tolist(), alloc.level.tolist())):
        if n >= 0:
            yield k, (n, l)


def is_empty(alloc):
    """Whether every transmitter is silent."""
    return all(alloc.get(k) is None for k in range(alloc.num_tx))


def by_rb(alloc, num_rb):
    """holders[n]: the (k, l) pairs on RB n, ascending k, in one pass."""
    holders = [[] for _ in range(num_rb)]
    for k, (n, l) in assigned_items(alloc):
        holders[n].append((k, l))
    return holders


def library_table(net, alloc, quantity):
    """The library's (K, N, L) ``"benefit"`` or ``"cost"`` table under
    alloc: a C-ordered copy of the transpose of the (L, K*N) planes that
    ``netmodel.benefit_table`` or ``netmodel.cost_table`` builds from
    ``netmodel._interference_maps``."""
    rx_int, agg, holders = netmodel._interference_maps(net, alloc)
    if quantity == "cost":
        planes = netmodel.cost_table(net, agg, holders)
    else:
        assert quantity == "benefit", quantity
        planes = netmodel.benefit_table(net, rx_int)
    return np.ascontiguousarray(planes.T).reshape(net.num_tx, net.num_rb, net.num_levels)


def aggregated_interference(net, alloc, n):
    """Total reference-user interference on RB n: one scan of alloc, its
    holders' loads added in ascending k from 0.0."""
    total = 0.0
    for kp, (nn, ll) in assigned_items(alloc):
        if nn == n:
            total += net.ref_gain[kp, n] * net.power_levels[ll]
    return total


def repair(net, alloc):
    """Evict the largest reference-user contributor until every RB is under cap."""
    for n in range(net.num_rb):
        while aggregated_interference(net, alloc, n) >= net.i_max[n]:
            holders = by_rb(alloc, net.num_rb)[n]
            contribs = [net.ref_gain[k, n] * net.power_levels[l] for k, l in holders]
            k = holders[int(np.argmax(contribs))][0]
            alloc.rb[k] = alloc.level[k] = -1
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
    return np.array([aggregated_interference(net, alloc, n) for n in range(net.num_rb)])


def _interference_maps(net, alloc):
    K, N = net.num_tx, net.num_rb
    rx_int = np.zeros((K, N))
    agg = np.zeros(N)
    for kp, (n, l) in assigned_items(alloc):
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
    for k, (n, l) in assigned_items(alloc):
        own[k, n] = net.ref_gain[k, n] * net.power_levels[l]
    i_others = agg[None, :] - own
    i_hyp = net.ref_gain[:, :, None] * net.power_levels[None, None, :] + i_others[:, :, None]
    return net.w2 * (i_hyp / net.i_max[None, :, None] - 1.0)


def utility_table(net, alloc):
    """Benefit minus cost, each from its own interference pass."""
    return benefit_table(net, alloc) - cost_table(net, alloc)


def _sinr(net, k, n, p, cochannel):
    # SINR of k's receiver on RB n at power p under the (k', l') pairs of
    # ``cochannel`` (ascending k'), k's own entry ignored.
    den = net.mbs_den[k, n] + net.sigma2
    for kp, lp in cochannel:
        if kp != k:
            den += net.gain_ul[kp, k, n] * net.power_levels[lp]
    return net.gain_ul[k, k, n] * p / den


def sinr(net, alloc, k, n):
    """SINR at k's receiver on RB n, k being a holder there: one scan of
    RB n's holders, co-channel terms added in ascending k."""
    return _sinr(net, k, n, net.power_levels[alloc.get(k)[1]], by_rb(alloc, net.num_rb)[n])


def sum_rate(net, alloc):
    """Every SINR denominator re-summed over the whole allocation."""
    total = 0.0
    for k, (n, _l) in assigned_items(alloc):
        total += net.rb_bandwidth * math.log2(1.0 + sinr(net, alloc, k, n))
    return total


def weighted_benefit(net, alloc):
    total = 0.0
    for k, (n, _l) in assigned_items(alloc):
        total += net.w1 * math.log2(1.0 + sinr(net, alloc, k, n))
    return total


def sinr_macro(net, alloc, m, n):
    """SINR of MUE m on RB n: ``sigma2``, then each holder of RB n, one
    term at a time in ascending k."""
    den = net.sigma2
    for kp, (nn, ll) in assigned_items(alloc):
        if nn == n:
            den += net.gain_mue[kp, m, n] * net.power_levels[ll]
    return net.gain_mbs_mue[m, n] * net.mbs_power / den


class _PreferenceProfile:
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


def keys(profile):
    """A profile's keys, best first."""
    return [key for key, _u in profile.entries]


def profile(owner, utilities):
    """Best-first (key, utility) entries, sorted per entry by (-u, key)."""
    rows = utilities.tolist()
    scored = [((i, j), u) for i, row in enumerate(rows) for j, u in enumerate(row)]
    scored.sort(key=lambda e: (-e[1], e[0]))
    return _PreferenceProfile(owner, scored)


def _remove(profile, key):
    profile.entries = [(k, u) for k, u in profile.entries if k != key]


def match_alignments(profiles_tx, profiles_rb, net):
    """Deferred acceptance on copied profiles, rebuilding a list per strike."""
    K = net.num_tx
    P = net.power_levels
    work_tx = [_PreferenceProfile(p.owner, p.entries) for p in profiles_tx]
    work_rb = [_PreferenceProfile(p.owner, p.entries) for p in profiles_rb]
    rank_rb = [p.rank() for p in profiles_rb]
    assigned = {}
    proposals = 0

    def rb_interference(n):
        total = 0.0
        for kk, (nn, ll) in sorted(assigned.items()):
            if nn == n:
                total += net.ref_gain[kk, n] * P[ll]
        return total

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
                _remove(work_rb[n], (kp, lv))
                _remove(work_tx[kp], (n, lv))

    alloc = Allocation(K)
    for k, (n, l) in assigned.items():
        alloc.assign(k, n, l)
    return Matching(allocation=alloc, proposals=proposals)


def find_blocking_pair(allocation, profiles_tx, profiles_rb):
    """Return a blocking (k, n, l) tuple, or None if the allocation is stable.

    A tuple blocks when transmitter k strictly prefers (n, l) to its own
    match and RB n strictly prefers (k, l) to at least one pair currently
    assigned to it, both judged by the given profiles' strict order.
    """
    rank_tx = [p.rank() for p in profiles_tx]
    rank_rb = [p.rank() for p in profiles_rb]
    on_rb = by_rb(allocation, len(profiles_rb))
    for k, prof in enumerate(profiles_tx):
        mine = allocation.get(k)
        my_rank = rank_tx[k][mine] if mine is not None else len(prof.entries)
        for (n, l), _u in prof.entries:
            if rank_tx[k][(n, l)] >= my_rank:
                break  # entries are best-first; nothing below can block
            pos = rank_rb[n][(k, l)]
            if any(pos < rank_rb[n][pair] for pair in on_rb[n]):
                return (k, n, l)
    return None


def fitting_silent(net, alloc):
    """The silent transmitters k that some (n, l) would fit: RB n's load
    under ``alloc`` plus k's own load at level l stays strictly under the
    cap.  ``find_blocking_pair`` never counts an RB as willing unless it
    has a holder to displace, so it passes these as stable."""
    load = interference_vector(net, alloc)
    return [k for k in range(net.num_tx) if alloc.get(k) is None
            and any(load[n] + net.ref_p[k, n, l] < net.i_max[n]
                    for n in range(net.num_rb) for l in range(net.num_levels))]


def _own_reference_contribution(net, alloc, k, n):
    res = alloc.get(k)
    if res is not None and res[0] == n:
        return net.ref_gain[k, n] * net.power_levels[res[1]]
    return 0.0


def utility(net, alloc, k, res):
    """Biased utility of transmitter k hypothetically using ``res``.

    The rate term is the spectral efficiency log2(1 + SINR) (bit/s/Hz) and
    the penalty term is the RB's interference overage relative to its
    budget, (I / I_max) - 1, so w1 and w2 trade off on one dimensionless
    scale.  Interference from the other transmitters is taken from
    ``alloc``; k's own current assignment is excluded (a hypothetical
    move, not an addition).
    """
    n, l = res
    p = net.power_levels[l]
    gamma = _sinr(net, k, n, p, by_rb(alloc, net.num_rb)[n])
    i_others = (aggregated_interference(net, alloc, n)
                - _own_reference_contribution(net, alloc, k, n))
    i_hyp = net.ref_gain[k, n] * p + i_others
    return net.w1 * math.log2(1.0 + gamma) - net.w2 * (i_hyp / net.i_max[n] - 1.0)


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
    for kp, (nn, ll) in assigned_items(alloc):
        if kp != k and nn == n:
            others += net.ref_gain[kp, n] * net.power_levels[ll]
    return net.w2 * ((own + others) / net.i_max[n] - 1.0)


def _max_excluding_self_gather(a, axis):
    """Max-excluding-self by argmax and gather: every entry gets its line's
    max, except each line's first argmax, which gets the max of the line
    with that entry set to -inf (on a full-size copy).  ``axis`` is 0 or
    the last axis; a length-1 axis gives zeros."""
    n = a.shape[axis]
    if n == 1:
        return np.zeros_like(a)
    if axis == 0:
        out = a.reshape(n, -1).copy()
        m = out.shape[1]
        at = out.argmax(axis=0) * m + np.arange(m)
    else:
        out = a.reshape(-1, n).copy()
        at = out.argmax(axis=1) + np.arange(0, out.size, n)
    flat = out.reshape(-1)
    peak = flat[at]
    flat[at] = -np.inf
    rest = out.max(axis=axis)
    out[...] = peak if axis == 0 else peak[:, None]
    flat[at] = rest
    return out.reshape(a.shape)


def tx_sweep(state, utilities):
    """``msgpass.tx_sweep`` on a full table of ``_max_excluding_self_gather``."""
    w = state.omega
    K = utilities.shape[0]
    values = (utilities + state.psi_res).reshape(K, -1)
    out = (utilities.reshape(K, -1) - w * _max_excluding_self_gather(values, axis=1)
           - (1.0 - w) * values)
    return out.reshape(utilities.shape)


def res_sweep(state):
    """``msgpass.res_sweep`` on a full table of ``_max_excluding_self_gather``."""
    w = state.omega
    return -w * _max_excluding_self_gather(state.psi_tx, axis=0) - (1.0 - w) * state.psi_tx


def tx_message_update(state, utilities, k, res):
    """One transmitter-side message from the previous-iteration state.

    ``utilities`` is transmitter k's (N, L) utility table.  With a single
    resource there is no "other entry" to maximize over, so that term
    contributes nothing.
    """
    n, l = res
    w = state.omega
    values = utilities + state.psi_res[k]
    flat = values.ravel()
    idx = n * utilities.shape[1] + l
    others = np.delete(flat, idx)
    direct = (1.0 - w) * (utilities[n, l] + state.psi_res[k, n, l])
    if others.size == 0:
        return utilities[n, l] - direct
    return utilities[n, l] - w * others.max() - direct


def res_message_update(state, res, k):
    """One resource-side message; with K = 1 the empty maximum is zero."""
    n, l = res
    w = state.omega
    col = state.psi_tx[:, n, l]
    others = np.delete(col, k)
    peak = others.max() if others.size else 0.0
    return -w * peak - (1.0 - w) * col[k]


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
    second = max(flat[:idx].max(initial=-np.inf), flat[idx + 1:].max(initial=-np.inf))
    return float(flat.max() - second + epsilon)


def _local_auction_round(k, state, net, interference_prev, benefits):
    """Transmitter k's bidding round against the broadcast snapshot ``state``.

    ``interference_prev`` is the broadcast per-RB interference of the
    previous allocation, ``state.assignment``, and ``benefits`` k's (N, L)
    benefit row under it.
    Returns ``(choice, cost_row, bidder_row, bid_placed)``: choice is k's
    (rb, level) for this iteration or None, and the rows are k's local
    view, the snapshot with k's own bid written in.
    """
    merged, merged_bidder = state.costs, state.bidders
    cost_row = merged.copy()
    bidder_row = merged_bidder.copy()
    prev = state.assignment.get(k)
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
    if prev is not None and bidder_row[prev] == k:
        slack = 1e-12 * float(np.abs(values).max())
        if values[prev] >= float(values.max()) - state.epsilon - slack:
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


def auction_rows(state, net, interference_prev, benefits):
    """Every transmitter's ``_local_auction_round`` on one snapshot, stacked.

    Returns ``(allocation, costs, bidders, placed)``: the (K, N, L) local
    views, one row per transmitter, and each transmitter's bid flag.
    """
    rows = [_local_auction_round(k, state, net, interference_prev, benefits[k])
            for k in range(net.num_tx)]
    return (Allocation(net.num_tx, [r[0] for r in rows]), np.stack([r[1] for r in rows]),
            np.stack([r[2] for r in rows]), [r[3] for r in rows])


def merged_view(costs, bidders):
    """The K local views reduced to one snapshot: the maximum cost per
    resource and the bidder of the lowest transmitter whose view holds it."""
    src = costs.argmax(axis=0)  # first (lowest-k) maximizer
    return costs.max(axis=0), np.take_along_axis(bidders, src[None], axis=0)[0]


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


def run_stable_matching(net, t_max=DEFAULT_T_MAX):
    """The matching runner computing every round up to ``t_max``."""
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    K, N, L = net.num_tx, net.num_rb, net.num_levels
    x_prev = start_alignment(net)

    proposals_per_round = []
    allocations = []
    best_alloc, best_rate = None, -1.0
    converged = False

    for iterations in range(1, t_max + 1):
        util = netmodel.utility_table(net, x_prev)
        m = matching.match_alignments(matching.preference_orders(util), net)
        proposals_per_round.append(m.proposals)
        allocations.append(m.allocation)
        x_t = m.allocation
        rate = alloc_sum_rate(net, x_t)
        if rate > best_rate:
            best_alloc, best_rate = x_t, rate
        if x_t == x_prev:
            converged = True
            break
        x_prev = x_t

    return SolverResult(
        allocation=x_t if converged else best_alloc,
        iterations=iterations,
        converged=converged,
        messages=iterations * (K * N * L + K),
        info={"proposals_per_round": proposals_per_round, "allocations": allocations},
    )


def run_message_passing(net, t_max=DEFAULT_T_MAX):
    """The message-passing runner computing every iteration up to ``t_max``."""
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    K, N, L = net.num_tx, net.num_rb, net.num_levels
    x_prev = start_alignment(net)
    state = msgpass.MessageState(np.zeros((K, N, L)), np.zeros((K, N, L)), msgpass.OMEGA)

    tol = msgpass.MESSAGE_TOL * (max(abs(net.w1), abs(net.w2)) or 1.0)
    deltas = []
    msg_converged_at = None
    converged = False

    for iterations in range(1, t_max + 1):
        util = netmodel.utility_table(net, x_prev)
        new_tx = msgpass.tx_sweep(state, util, np.empty((K, N, L)))
        new_res = msgpass.res_sweep(dataclasses.replace(state, psi_tx=new_tx),
                                    np.empty((K, N, L)))
        shift = (float(np.sum(new_res - state.psi_res))
                 - float(np.sum(new_tx - state.psi_tx))) / (2 * K * N * L)
        new_tx = new_tx + shift
        new_res = new_res - shift
        delta = max(float(np.max(np.abs(new_tx - state.psi_tx))),
                    float(np.max(np.abs(new_res - state.psi_res))))
        deltas.append(delta)
        state = dataclasses.replace(state, psi_tx=new_tx, psi_res=new_res)
        x_t = msgpass.extract_allocation(state, net, msgpass.proposal(state.tau))
        if msg_converged_at is None and delta < tol:
            msg_converged_at = iterations
        if x_t == x_prev and delta < tol:
            converged = True
            break
        x_prev = x_t

    return SolverResult(
        allocation=x_t,
        iterations=iterations,
        converged=converged,
        messages=iterations * 2 * K * N * L,
        info={"message_deltas": deltas, "message_converged_at": msg_converged_at},
    )
