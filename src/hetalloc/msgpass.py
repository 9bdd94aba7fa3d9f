"""Weighted max-sum message passing on the transmitter-resource graph.

Each transmitter-to-resource edge carries two normalized messages.  With
damping weight omega in (0, 1]:

    psi_tx[k -> (n,l)] = U[k,n,l] - omega * max'{U + psi_res}  -  (1-omega) * (U[k,n,l] + psi_res[k,n,l])
    psi_res[(n,l) -> k] = -omega * max_{k' != k} psi_tx[k' -> (n,l)] - (1-omega) * psi_tx[k -> (n,l)]

where max' is taken over the other (n', l') entries of transmitter k's
value vector.  At omega = 1 these collapse to the undamped max-sum rules.
Per iteration all transmitter messages are computed in parallel from the
previous resource messages, then all resource messages from the fresh
transmitter messages (the composition whose damped fixed-point iteration
contracts).  Node marginals are the sum of the two directed messages;
positive marginals propose assignments, which are then thinned to one per
transmitter and repaired per RB until every interference budget holds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import netmodel
from .allocation import Allocation, SolverResult
from .matching import random_alignment


@dataclass
class MessageState:
    """Both directed message tables plus the damping weight."""

    psi_tx: np.ndarray   # (K, N, L)
    psi_res: np.ndarray  # (K, N, L)
    omega: float

    def __post_init__(self):
        if not 0.0 < self.omega <= 1.0:
            raise ValueError(f"omega must be in (0, 1], got {self.omega}")

    @classmethod
    def zeros(cls, num_tx, num_rb, num_levels, omega):
        return cls(np.zeros((num_tx, num_rb, num_levels)),
                   np.zeros((num_tx, num_rb, num_levels)), float(omega))

    @property
    def tau(self):
        """Node marginals, entrywise sum of the two message directions."""
        return self.psi_tx + self.psi_res


def _max_excluding_self(a, axis):
    """out[i] = max of ``a`` along ``axis`` with index i left out."""
    # Partitioning at the second-to-last position leaves the two largest
    # values, exact, in the last two slots.
    s = np.partition(a, a.shape[axis] - 2, axis=axis)
    last = [slice(None)] * a.ndim
    last[axis] = slice(-1, None)
    m1 = s[tuple(last)]
    last[axis] = slice(-2, -1)
    m2 = s[tuple(last)]
    unique_peak = m1 > m2
    return np.where((a == m1) & unique_peak, m2, m1)


def tx_sweep(state, utilities):
    """All transmitter-side messages, synchronously from the old state."""
    w = state.omega
    K = utilities.shape[0]
    values = (utilities + state.psi_res).reshape(K, -1)
    direct = (1.0 - w) * values
    if values.shape[1] == 1:
        out = utilities.reshape(K, -1) - direct
    else:
        out = utilities.reshape(K, -1) - w * _max_excluding_self(values, axis=1) - direct
    return out.reshape(utilities.shape)


def res_sweep(state):
    """All resource-side messages, synchronously from the old state."""
    w = state.omega
    direct = (1.0 - w) * state.psi_tx
    if state.psi_tx.shape[0] == 1:
        return -direct
    return -w * _max_excluding_self(state.psi_tx, axis=0) - direct


def extract_allocation(state, net):
    """Marginal-driven assignment with per-RB interference repair.

    Positive marginals propose; each transmitter keeps only its largest
    positive marginal (the one-alignment constraint, ties toward the
    lowest (n, l)), then ``netmodel.repair`` enforces every RB's cap.
    """
    tau = state.tau
    K, _N, L = tau.shape
    flat = tau.reshape(K, -1)
    best = flat.argmax(axis=1)
    positive = flat[np.arange(K), best] > 0.0
    alloc = Allocation(K)
    alloc.rb[positive], alloc.level[positive] = np.divmod(best[positive], L)
    return netmodel.repair(net, alloc)


def run_message_passing(net, omega=0.5, t_max=500, message_tol=1e-6):
    """Full damped max-sum loop.

    Per iteration the utilities are re-evaluated against the previous
    allocation, both message tables are swept synchronously from the
    previous tables, marginals are formed and an allocation extracted.
    The run converges when the allocation repeats *and* the max-norm
    message step falls below ``message_tol``; it always stops at
    ``t_max``.  Every sweep ships 2*K*N*L message values, so
    ``messages = iterations * 2*K*N*L``.

    Non-convergence is reported through the flag and the delta trace, and
    the last extracted (always feasible) allocation is still returned.

    ``info`` keys: ``message_deltas`` (the max-norm message step of each
    iteration) and ``message_converged_at`` (the first iteration whose
    step fell below ``message_tol``, or None).
    """
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    rng = np.random.default_rng(net.seed)
    K, N, L = net.num_tx, net.num_rb, net.num_levels
    x_prev = random_alignment(net, rng)
    state = MessageState.zeros(K, N, L, omega)

    deltas = []
    msg_converged_at = None
    converged = False
    iterations = 0
    final = x_prev

    for t in range(1, t_max + 1):
        iterations = t
        util = netmodel.utility_table(net, x_prev)
        new_tx = tx_sweep(state, util)
        # Resource replies fold in the transmitter messages just received;
        # replying to the stale sweep instead locks the exchange into a
        # period-2 cycle on this bipartite graph.
        new_res = res_sweep(replace(state, psi_tx=new_tx))
        # Both update rules are exactly equivariant under shifting every
        # transmitter message by -c and every resource message by +c, a
        # direction that cancels in all marginals but otherwise
        # accumulates without bound; pin it so the messages themselves
        # can reach the fixed point.
        shift = (float(np.sum(new_res - state.psi_res))
                 - float(np.sum(new_tx - state.psi_tx))) / (2 * K * N * L)
        new_tx = new_tx + shift
        new_res = new_res - shift
        delta = max(float(np.max(np.abs(new_tx - state.psi_tx))),
                    float(np.max(np.abs(new_res - state.psi_res))))
        deltas.append(delta)
        state = replace(state, psi_tx=new_tx, psi_res=new_res)
        x_t = extract_allocation(state, net)
        if msg_converged_at is None and delta < message_tol:
            msg_converged_at = t
        final = x_t
        if x_t == x_prev and delta < message_tol:
            converged = True
            break
        x_prev = x_t

    return SolverResult(
        allocation=final,
        iterations=iterations,
        converged=converged,
        messages=iterations * 2 * K * N * L,
        info={"message_deltas": deltas, "message_converged_at": msg_converged_at},
    )
