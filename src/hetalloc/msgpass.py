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
An iteration is a pure function of the previous messages and allocation,
so once that state repeats bit for bit, the iterations left are replayed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import netmodel
from .allocation import Allocation, SolverResult, start_alignment

MESSAGE_TOL = 1e-6  # max-norm message step below which the messages count as settled


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
    """out[i] = max of ``a`` along ``axis`` with index i left out, 0 when
    nothing is left (a length-1 axis)."""
    if a.shape[axis] == 1:
        return np.zeros_like(a)
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
    out = (utilities.reshape(K, -1) - w * _max_excluding_self(values, axis=1)
           - (1.0 - w) * values)
    return out.reshape(utilities.shape)


def res_sweep(state):
    """All resource-side messages, synchronously from the old state."""
    w = state.omega
    return -w * _max_excluding_self(state.psi_tx, axis=0) - (1.0 - w) * state.psi_tx


def proposal(tau):
    """Each transmitter's largest marginal as a flat index n*L + l (ties
    toward the lowest), or -1 where that marginal is not positive."""
    flat = tau.reshape(tau.shape[0], -1)
    best = flat.argmax(axis=1)
    best[~(flat.max(axis=1) > 0.0)] = -1
    return best


def extract_allocation(state, net):
    """Marginal-driven assignment with per-RB interference repair.

    Positive marginals propose; each transmitter keeps only its largest
    positive marginal (the one-alignment constraint, ties toward the
    lowest (n, l)), then ``netmodel.repair`` enforces every RB's cap.
    """
    best = proposal(state.tau)
    alloc = Allocation.__new__(Allocation)
    alloc.rb, alloc.level = np.divmod(best, net.num_levels)
    alloc.level[best < 0] = -1  # divmod(-1, L) leaves rb at -1 but level at L - 1
    return netmodel.repair(net, alloc)


class CycleWatch:
    """Finds the period of a deterministic iteration from cheap keys.

    ``step(key, state, output)`` is called once per iteration with a
    hashable ``key`` of the iteration, the tuple of arrays the next
    iteration is a pure function of, and the iteration's ``output``.  A
    key last seen p steps back proposes the period p, replacing an open
    proposal of a longer period.  The proposal is confirmed when the
    state p steps later is bit-equal to the state at the proposal, and
    dropped otherwise, so equal keys of unequal states can delay or
    prevent a confirmation but never make a wrong one.  ``step`` returns the
    confirmed period, else None, and ``outputs`` then holds the outputs
    of the last p steps, oldest first.  The arrays passed must not be
    written to afterwards.
    """

    def __init__(self):
        self._steps = 0
        self._seen = {}  # key -> the step it was last seen at
        self._open = None  # (state, period) of the proposal being checked
        self.outputs = []

    def step(self, key, state, output):
        self._steps += 1
        if self._open is not None:
            self.outputs.append(output)
            proposed, period = self._open
            if len(self.outputs) == period:
                self._open = None
                if all(a.tobytes() == b.tobytes() for a, b in zip(proposed, state)):
                    return period
        seen_at = self._seen.get(key)
        self._seen[key] = self._steps
        if seen_at is not None and (self._open is None
                                    or self._steps - seen_at < self._open[1]):
            self._open = (state, self._steps - seen_at)
            self.outputs = []
        return None


def run_message_passing(net, omega=0.5, t_max=500):
    """Full damped max-sum loop.

    Starts from ``start_alignment``.  Per iteration the utilities are
    re-evaluated against the previous allocation, both message tables are
    swept synchronously from the previous tables, marginals are formed and
    an allocation extracted.  The run converges when the allocation
    repeats *and* the max-norm message step falls below ``MESSAGE_TOL``;
    it always stops at ``t_max``.  Every sweep ships 2*K*N*L message
    values, so ``messages = iterations * 2*K*N*L``.

    Non-convergence is reported through the flag and the delta trace, and
    the last extracted (always feasible) allocation is still returned.

    Work whose input is bit-equal to the previous iteration's is reused,
    not redone.  The utility table is a pure function of the previous
    allocation, so it is recomputed only when that allocation changed.
    The extracted allocation is a pure function of the proposal (the
    per-transmitter argmax, or silence), since repair reads nothing else;
    it is re-extracted only when the proposal's bytes changed.  Once the
    allocation settles while the messages still move toward
    ``MESSAGE_TOL``, an iteration is just the two sweeps.

    Once both message tables and the allocation repeat an earlier
    iteration's bit for bit (found by ``CycleWatch``), the iterations left
    up to ``t_max`` are replayed, not recomputed: the result equals, field
    by field, what computing all ``t_max`` iterations returns.

    ``info`` keys: ``message_deltas`` (the max-norm message step of each
    iteration), ``message_converged_at`` (the first iteration whose
    step fell below ``MESSAGE_TOL``, or None) and ``cycle``
    (``(first, period)`` when iterations ``first``..``t_max`` were
    replayed from ``period`` iterations earlier, else None).
    """
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    K, N, L = net.num_tx, net.num_rb, net.num_levels
    x_prev = start_alignment(net)
    state = MessageState.zeros(K, N, L, omega)

    deltas = []
    msg_converged_at = None
    converged = False
    watch = CycleWatch()
    cycle = None
    util_for = None  # the allocation ``util`` was computed for
    proposed = None  # the bytes of the proposal ``x_t`` was extracted from

    for iterations in range(1, t_max + 1):
        if x_prev is not util_for and x_prev != util_for:
            util, util_for = netmodel.utility_table(net, x_prev), x_prev
        new_tx = tx_sweep(state, util)
        # Resource replies fold in the transmitter messages just received;
        # replying to the stale sweep instead locks the exchange into a
        # period-2 cycle on this bipartite graph.
        new_res = res_sweep(MessageState(new_tx, state.psi_res, state.omega))
        # Both update rules are exactly equivariant under shifting every
        # transmitter message by -c and every resource message by +c, a
        # direction that cancels in all marginals but otherwise
        # accumulates without bound; pin it so the messages themselves
        # can reach the fixed point.
        shift = (float((new_res - state.psi_res).sum())
                 - float((new_tx - state.psi_tx).sum())) / (2 * K * N * L)
        new_tx = new_tx + shift
        new_res = new_res - shift
        delta = max(float(np.abs(new_tx - state.psi_tx).max()),
                    float(np.abs(new_res - state.psi_res).max()))
        deltas.append(delta)
        state = MessageState(new_tx, new_res, state.omega)
        key = proposal(state.tau).tobytes()
        if key != proposed:
            x_t, proposed = extract_allocation(state, net), key
        if msg_converged_at is None and delta < MESSAGE_TOL:
            msg_converged_at = iterations
        if x_t == x_prev and delta < MESSAGE_TOL:
            converged = True
            break
        # (delta, shift) is a cheap key of the step; the watch confirms a
        # repeat on the full state.  A repeated step repeats both tests
        # above, so a replay never converges nor sets msg_converged_at.
        period = watch.step((delta, shift),
                            (new_tx, new_res, x_t.rb, x_t.level), x_t)
        if period and iterations < t_max:
            cycle = (iterations + 1, period)
            break
        x_prev = x_t

    if cycle is not None:
        tail = deltas[-period:]
        deltas += [tail[i % period] for i in range(t_max - iterations)]
        x_t = watch.outputs[(t_max - iterations - 1) % period]
        iterations = t_max

    return SolverResult(
        allocation=x_t,
        iterations=iterations,
        converged=converged,
        messages=iterations * 2 * K * N * L,
        info={"message_deltas": deltas, "message_converged_at": msg_converged_at,
              "cycle": cycle},
    )
