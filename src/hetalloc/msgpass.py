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
from functools import lru_cache

import numpy as np

from . import netmodel
from .allocation import Allocation, SolverResult, iterate, start_alignment

MESSAGE_TOL = 1e-6  # settling step per unit of weight: see run_message_passing
REUSE_DEPTH = 4  # utility tables, and extractions, the loop keeps for reuse


@dataclass
class MessageState:
    """Both directed message tables plus the damping weight."""

    psi_tx: np.ndarray   # (K, N, L)
    psi_res: np.ndarray  # (K, N, L)
    omega: float

    def __post_init__(self):
        if not 0.0 < self.omega <= 1.0:
            raise ValueError(f"omega must be in (0, 1], got {self.omega}")

    @property
    def tau(self):
        """Node marginals, entrywise sum of the two message directions."""
        return self.psi_tx + self.psi_res


def tx_sweep(state, utilities, out=None):
    """All transmitter-side messages, synchronously from the old state.

    A row's max over its other entries is the row's peak everywhere but at
    its first argmax, where it is the row's max with that entry masked to
    -inf for a moment (the peak again when the peak is shared), and 0 in a
    row of one entry.  The table of those maxima is written over the row
    values once their damping term is taken.  The values equal those of
    the top-two form (the largest, or the second largest at a unique
    peak), but a peak of exactly +0.0 or -0.0 may come back with the other
    sign of zero, since max does not order the two zeros.  The messages
    are written into ``out``, a C-ordered (K, N, L) array, when it is
    given, and into a new array otherwise.
    """
    w = state.omega
    K = utilities.shape[0]
    values = np.add(utilities, state.psi_res, out=out).reshape(K, -1)
    n = values.shape[1]
    if n == 1:
        np.subtract(utilities.reshape(K, 1), (1.0 - w) * values, out=values)
        return values.reshape(utilities.shape)
    flat = values.reshape(-1)
    at = values.argmax(axis=1) + netmodel._offsets(flat.size, n)
    peak = flat[at]
    flat[at] = -np.inf
    rest = np.maximum.reduce(values, axis=1)
    flat[at] = peak  # before any scaling: (1 - w) * -inf is NaN at w = 1
    damp = values * (1.0 - w)
    values[...] = peak[:, None]
    flat[at] = rest
    values *= w
    np.subtract(utilities.reshape(K, n), values, out=values)
    values -= damp
    return values.reshape(utilities.shape)


def res_sweep(state, out=None):
    """All resource-side messages, synchronously from the old state.

    Each column's max over the other transmitters is taken as in
    ``tx_sweep``.  The column peaks are masked in ``state.psi_tx`` itself
    and restored before anything else reads it, so its bytes end as they
    began.  ``out`` is as in ``tx_sweep``.
    """
    w = state.omega
    psi = state.psi_tx
    K = psi.shape[0]
    if K == 1:
        return np.negative((1.0 - w) * psi, out=out)
    if out is None:
        out = np.empty_like(psi)
    cols = psi.reshape(K, -1)
    m = cols.shape[1]
    flat = cols.reshape(-1)
    at = cols.argmax(axis=0) * m + netmodel._offsets(m, 1)
    peak = flat[at]
    flat[at] = -np.inf
    rest = np.maximum.reduce(cols, axis=0)
    flat[at] = peak
    res = out.reshape(K, m)
    res[...] = peak
    res.reshape(-1)[at] = rest
    res *= -w
    res -= cols * (1.0 - w)
    return out


def proposal(tau):
    """Each transmitter's largest marginal as a flat index n*L + l (ties
    toward the lowest), or -1 where that marginal is not positive."""
    K = tau.shape[0]
    flat = tau.reshape(-1)
    best = tau.reshape(K, -1).argmax(axis=1)
    best[~(flat[best + netmodel._offsets(flat.size, flat.size // K)] > 0.0)] = -1
    return best


def extract_allocation(state, net, best):
    """Marginal-driven assignment with per-RB interference repair.

    Positive marginals propose; each transmitter keeps only its largest
    positive marginal (the one-alignment constraint, ties toward the
    lowest (n, l)), then ``netmodel.repair`` enforces every RB's cap.
    ``best`` is ``proposal(state.tau)``, formed by the caller.  ``state``
    is not read here; it comes first so that a wrapper of this function
    can read the marginals the proposal was formed from.
    """
    alloc = Allocation.__new__(Allocation)
    alloc.rb, alloc.level = np.divmod(best, net.num_levels)
    alloc.level[best < 0] = -1  # divmod(-1, L) leaves rb at -1 but level at L - 1
    return netmodel.repair(net, alloc)


class CycleWatch:
    """Finds the period of a deterministic iteration from cheap keys.

    ``step(key, state)`` is called once per iteration with a hashable
    ``key`` of the iteration and the tuple of arrays the next iteration is
    a pure function of.  A key last seen p steps back proposes the period
    p, replacing an open proposal of a longer period.  The proposal is
    confirmed when the state p steps later is bit-equal to the state at
    the proposal, and dropped otherwise, so equal keys of unequal states
    can delay or prevent a confirmation but never make a wrong one.
    ``step`` returns the confirmed period, else None.  The arrays passed
    must not be written to afterwards.
    """

    def __init__(self):
        self._steps = 0
        self._seen = {}  # key -> the step it was last seen at
        self._open = None  # (state, period, step due) of the proposal being checked

    def step(self, key, state):
        self._steps += 1
        if self._open is not None:
            proposed, period, due = self._open
            if self._steps == due:
                self._open = None
                if all(a.tobytes() == b.tobytes() for a, b in zip(proposed, state)):
                    return period
        seen_at = self._seen.get(key)
        self._seen[key] = self._steps
        if seen_at is not None and (self._open is None
                                    or self._steps - seen_at < self._open[1]):
            period = self._steps - seen_at
            self._open = (state, period, self._steps + period)
        return None


def run_message_passing(net, omega=0.5, t_max=500):
    """Full damped max-sum loop.

    Starts from ``start_alignment``.  Per iteration the utilities are
    re-evaluated against the previous allocation, both message tables are
    swept synchronously from the previous tables, marginals are formed and
    an allocation extracted.  The run converges when the allocation
    repeats *and* the max-norm message step falls below the tolerance
    ``MESSAGE_TOL * max(|w1|, |w2|)`` (``MESSAGE_TOL`` when both weights
    are 0); it always stops at ``t_max``.  The utilities, and so every
    message, are linear in the two weights, so scaling both by a power of
    two scales each step and the tolerance alike and stops the run at the
    same iteration.  Every sweep ships 2*K*N*L message
    values, so ``messages = iterations * 2*K*N*L``.

    Non-convergence is reported through the flag and the delta trace, and
    the last extracted (always feasible) allocation is still returned.

    The utility table is a pure function of the previous allocation, and
    the extracted allocation one of the proposal (repair reads nothing
    else), so each run keeps both in an ``lru_cache`` of ``REUSE_DEPTH``
    entries keyed by their input's bytes; no run reuses another's work.

    The loop is ``allocation.iterate``.  The cycle key of an iteration is
    its ``(delta, shift)`` pair, and ``CycleWatch`` confirms a period on
    both message tables and the allocation, bit for bit, a period later.

    ``info`` keys: ``message_deltas`` (the max-norm message step of each
    iteration), ``message_converged_at`` (the first iteration whose
    step fell below the tolerance, or None) and ``cycle``, as
    ``iterate`` returns it.
    """
    K, N, L = net.num_tx, net.num_rb, net.num_levels
    x_prev = start_alignment(net)
    # Both message tables of an iteration live in one (2, K, N, L) buffer,
    # psi_tx first, so each step below is one pass over both.  Every
    # iteration gets a new buffer: CycleWatch keeps the tables it is given.
    messages = np.zeros((2, K, N, L))
    # One state serves the whole loop: its tables are rebound as the
    # sweeps produce them, so extraction reads the iteration's marginals.
    state = MessageState(messages[0], messages[1], float(omega))

    tol = MESSAGE_TOL * (max(abs(net.w1), abs(net.w2)) or 1.0)
    watch = CycleWatch()
    scratch = np.empty((2, K, N, L))
    steps = scratch.reshape(2, -1)
    flat_step = scratch.reshape(-1)
    best = None

    # Each reads the x_prev or best whose bytes its caller passes as the key.
    @lru_cache(maxsize=REUSE_DEPTH)
    def table(key):
        return netmodel.utility_table(net, x_prev)

    @lru_cache(maxsize=REUSE_DEPTH)
    def extraction(key):
        return extract_allocation(state, net, best)

    def step(t):
        nonlocal x_prev, messages, best
        util = table(x_prev.rb.tobytes() + x_prev.level.tobytes())
        fresh = np.empty((2, K, N, L))
        new_tx = tx_sweep(state, util, out=fresh[0])
        # Resource replies fold in the transmitter messages just received;
        # replying to the stale sweep instead locks the exchange into a
        # period-2 cycle on this bipartite graph.
        state.psi_tx = new_tx
        new_res = res_sweep(state, out=fresh[1])
        state.psi_res = new_res
        # Both update rules are exactly equivariant under shifting every
        # transmitter message by -c and every resource message by +c, a
        # direction that cancels in all marginals but otherwise
        # accumulates without bound; pin it so the messages themselves
        # can reach the fixed point.  The row sums of the C-ordered (2, n)
        # step equal the sums of its two halves taken one at a time.
        np.subtract(fresh, messages, out=scratch)
        step_tx, step_res = np.add.reduce(steps, axis=1).tolist()
        shift = (step_res - step_tx) / (2 * K * N * L)
        new_tx += shift
        new_res -= shift
        # The largest magnitude of the step is that of its max or its min
        # (max is exact); abs on both also makes an all-zero step +0.0.
        np.subtract(fresh, messages, out=scratch)
        delta = max(abs(flat_step.item(flat_step.argmax())),
                    abs(flat_step.item(flat_step.argmin())))
        messages = fresh
        best = proposal(np.add(new_tx, new_res, out=scratch[0]))
        x_t = extraction(best.tobytes())
        if delta < tol and x_t == x_prev:
            return x_t, delta, True, None
        # (delta, shift) is a cheap key of the step; the watch confirms a
        # repeat on the full state.  A repeated step repeats the test above,
        # so a replay never converges.
        x_prev = x_t
        return x_t, delta, False, watch.step((delta, shift),
                                             (new_tx, new_res, x_t.rb, x_t.level))

    allocations, deltas, iterations, converged, cycle = iterate(step, t_max)
    return SolverResult(
        allocation=allocations[-1],
        iterations=iterations,
        converged=converged,
        messages=iterations * 2 * K * N * L,
        # Replayed deltas copy computed ones, so the first hit was computed.
        info={"message_deltas": deltas,
              "message_converged_at": next((t for t, d in enumerate(deltas, 1) if d < tol), None),
              "cycle": cycle},
    )
