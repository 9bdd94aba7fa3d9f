"""An upper bound on the sum rate of every feasible allocation, in Mbps.

Co-channel interference only lowers a rate, so the interference-free
rate ``rb_bandwidth * log2(1 + P_l * g_kkn / (mbs_den[k, n] + sigma2))``
bounds what transmitter k can earn on (n, l).  An entry whose own load
``ref_p[k, n, l]`` already reaches the cap ``i_max[n]`` is never feasible
and is dropped.  The rest is a generalized assignment problem (Martello
& Toth, *Knapsack Problems*, 1990, ch. 7): at most one entry per
transmitter, and per RB a knapsack row, the strict cap relaxed to
``<= i_max[n]``.

Each cap row is divided by ``i_max[n]``.  Raw rows, with coefficients
near 1e-11 against caps of 1e-6 to 1e-8, leave HiGHS at status "Not
Set", and the MILP's "bound" then lands above its own LP relaxation.

``best_response`` is a reference row below the bound: a centralized
best response from the empty allocation (Monderer & Shapley, *Potential
Games*, 1996), which each solver's rate is read next to.
``priced_response`` is a second, distributed one: each transmitter's best
response to a per-RB interference price that the MBS moves by the
measured overage, dual decomposition of the cap rows (Palomar & Chiang,
IEEE JSAC 2006).  ``refill`` places an allocation's silent transmitters
where they still fit, and ``greedy`` is that rule run from the empty
allocation: one pass, no labels.
"""

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from hetalloc import netmodel
from hetalloc.allocation import Allocation, is_feasible

MARGIN = 1e-12  # relative: the cap each RB stays under, and the gain a switch needs
THETA = 0.2  # relative: the gain over its current score a priced move needs
STEP = 0.2  # the price step per unit of relative overage


def rate_bound(net, integral):
    """The LP optimum, or with ``integral`` the MILP's dual bound at a
    relative gap of 1e-4 (never its incumbent), in Mbps.  Raises
    RuntimeError unless HiGHS reports success."""
    K, N = net.num_tx, net.num_rb
    k, n, l = np.nonzero(net.ref_p < net.i_max[:, None])
    if not k.size:
        return 0.0
    sig = net.power_levels[l] * net.gain_ul[k, k, n]
    rate = net.rb_bandwidth * np.log2(1.0 + sig / (net.mbs_den[k, n] + net.sigma2)) / 1e6
    j = np.arange(k.size)
    rows = sparse.vstack([
        sparse.csr_array((np.ones(k.size), (k, j)), shape=(K, k.size)),
        sparse.csr_array((net.ref_p[k, n, l] / net.i_max[n], (n, j)), shape=(N, k.size)),
    ])
    if integral:
        res = milp(-rate, constraints=LinearConstraint(rows, -np.inf, 1.0),
                   integrality=np.ones(k.size), bounds=Bounds(0.0, 1.0),
                   options={"mip_rel_gap": 1e-4})
    else:
        res = linprog(-rate, A_ub=rows, b_ub=np.ones(K + N), bounds=(0.0, 1.0), method="highs")
    if not res.success:
        raise RuntimeError(f"HiGHS: {res.message}")
    return -(res.mip_dual_bound if integral else res.fun)


def best_response(net):
    """(allocation, converged): best response from empty under the strict cap.

    In passes over k ascending, k (the others fixed) weighs silence and
    every (n, l) whose RB load stays below ``i_max[n] * (1 - MARGIN)``
    with k added, by the drop's total sum of log2(1 + SINR).  A current
    (n, l) that no longer fits is dropped first.  k switches to the best
    candidate (silence, then the first in n*L + l order) only if it beats
    k's current option by more than ``MARGIN`` relative.  The run stops
    after a pass without a change (converged) or after 50 passes.
    """
    K, N, L = net.num_tx, net.num_rb, net.num_levels
    alloc = Allocation(K)
    rb, level = alloc.rb, alloc.level
    power, cap = net.power_levels, net.i_max * (1 - MARGIN)
    for _ in range(50):
        changed = False
        for k in range(K):
            j = ((rb >= 0) & (np.arange(K) != k)).nonzero()[0]
            n, p = rb[j], power[level[j]]
            load = np.bincount(n, net.ref_gain[j, n] * p, N)
            fits = load[:, None] + net.ref_p[k] < cap[:, None]  # (N, L)
            # Each other holder's SINR now, and with k on its RB at every level.
            pair = net.gain_ul[j[:, None], j, n] * p[:, None]  # [i, j]: i at j's receiver
            pair[(n[:, None] != n) | (j[:, None] == j)] = 0.0
            den = net.mbs_den[j, n] + net.sigma2 + pair.sum(axis=0)
            sig = p * net.gain_ul[j, j, n]
            now = np.log2(1.0 + sig / den)
            silent = now.sum()
            hit = np.log2(1.0 + sig[:, None] / (den[:, None] + np.outer(net.gain_ul[k, j, n], power)))
            value = np.full((N, L), silent)
            np.add.at(value, n, hit - now[:, None])
            rx = np.bincount(n, p * net.gain_ul[j, k, n], N) + net.mbs_den[k] + net.sigma2
            value += np.log2(1.0 + np.outer(net.gain_ul[k, k] / rx, power))
            value[~fits] = -np.inf
            if rb[k] >= 0 and not fits[rb[k], level[k]]:
                rb[k] = level[k] = -1
                changed = True
            current = value[rb[k], level[k]] if rb[k] >= 0 else silent
            best = int(value.argmax())
            choice, worth = (divmod(best, L), value.flat[best]) if value.flat[best] > silent \
                else ((-1, -1), silent)
            if worth > current * (1 + MARGIN):
                rb[k], level[k] = choice
                changed = True
        if not changed:
            return alloc, True
    return alloc, False


def priced_response(net, t_max=100):
    """The first best repaired iterate, by ``is_feasible(...).sum_rate``, of
    ``t_max`` priced best-response rounds from the empty allocation.

    Every price ``lam[n]`` starts at 0.  In a round each transmitter k
    scores each (n, l) whose own load ``ref_p[k, n, l]`` is under
    ``i_max[n]`` as ``B * log2(1 + gamma_k(n, l)) / 1e6 - lam[n] *
    ref_p[k, n, l] / i_max[n]``, gamma from ``gamma_table`` under the
    previous round's allocation.  All at once, k moves to its first argmax
    (flat n*L + l) when that score is positive and beats k's current score
    (0 for a silent k) by more than ``THETA`` relative, and a holder whose
    current score is <= 0 leaves otherwise.  The MBS then measures each
    RB's load I_n and sets ``lam[n] = max(0, lam[n] + STEP * (I_n /
    i_max[n] - 1))``.  There is no stop rule.
    """
    K, N, L = net.num_tx, net.num_rb, net.num_levels
    rows = np.arange(K)
    fits = net.ref_p < net.i_max[:, None]  # (K, N, L)
    price = net.ref_p / net.i_max[:, None]
    alloc, lam = Allocation(K), np.zeros(N)
    best, best_rate = None, -np.inf
    for _ in range(t_max):
        rx_int = netmodel._interference_maps(net, alloc)[0]
        gamma = netmodel.gamma_table(net, rx_int).reshape(L, K, N).transpose(1, 2, 0)
        score = net.rb_bandwidth * np.log2(1.0 + gamma) / 1e6 - lam[:, None] * price
        score = np.where(fits, score, -np.inf).reshape(K, -1)
        top = score.argmax(axis=1)
        peak = score[rows, top]
        held = alloc.rb >= 0
        current = np.where(held, score[rows, np.where(held, alloc.rb * L + alloc.level, 0)], 0.0)
        move = (peak > 0.0) & (peak > np.maximum(current, 0.0) * (1 + THETA))
        leave = held & ~move & (current <= 0.0)
        alloc.rb[move], alloc.level[move] = np.divmod(top[move], L)
        alloc.rb[leave] = alloc.level[leave] = -1
        load = netmodel.interference_vector(net, alloc)
        lam = np.maximum(0.0, lam + STEP * (load / net.i_max - 1.0))
        candidate = netmodel.repair(net, alloc.copy())
        rate = is_feasible(net, candidate).sum_rate
        if rate > best_rate:
            best, best_rate = candidate, rate
    return best


def refill(net, alloc):
    """A new allocation: ``alloc`` with its silent transmitters placed, one
    at a time, where they fit.

    (n, l) fits k when RB n's load plus ``ref_p[k, n, l]`` stays below
    ``i_max[n] * (1 - MARGIN)``.  The silent transmitters are ordered once,
    by their best fitting own SINR under ``alloc``, highest first, ties to
    the lower k.  In that order each takes the fitting (n, l) with the
    highest own SINR given the allocation so far (ties to the first
    n*L + l), or stays silent when none fits.  Each insert adds its
    power to RB n's column of the receiver interference and its load to RB
    n's, so the loads are summed in insertion order; the margin keeps them
    under the cap that ``is_feasible`` checks on its own fold.
    """
    K, N, L = net.num_tx, net.num_rb, net.num_levels
    out = alloc.copy()
    # _fold's floats: np.bincount of no holders is int zeros, which would
    # truncate every update below.
    rx_int, load, _ = netmodel._interference_maps(net, out)
    cap = net.i_max * (1 - MARGIN)
    sig = net.sig_pt.T.reshape(K, N, L)  # k's own signal on (n, l)

    def fitting_sinr(k):
        gamma = sig[k] / (net.mbs_den[k] + rx_int[k] + net.sigma2)[..., None]
        return np.where(load[:, None] + net.ref_p[k] < cap[:, None], gamma, -np.inf)

    silent = (out.rb < 0).nonzero()[0]
    best = fitting_sinr(silent).reshape(silent.size, N * L).max(axis=1, initial=-np.inf)
    for k in silent[np.argsort(-best, kind="stable")].tolist():
        gamma = fitting_sinr(k)
        n, l = divmod(int(gamma.argmax()), L)
        if gamma[n, l] == -np.inf:
            continue
        out.rb[k], out.level[k] = n, l
        load[n] += net.ref_p[k, n, l]
        rx_int[:, n] += net.gain_rows[k * N + n] * net.power_levels[l]
    return out


def greedy(net):
    """``refill`` of the empty allocation."""
    return refill(net, Allocation(net.num_tx))
