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
"""

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp


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
