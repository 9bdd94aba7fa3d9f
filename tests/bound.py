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
"""

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from hetalloc.allocation import Allocation

MARGIN = 1e-12  # relative: the cap each RB stays under, and the gain a switch needs


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
