import dataclasses
import hashlib

import numpy as np
import pytest

import reference
from hetalloc import msgpass, netmodel
from hetalloc.allocation import (Allocation, exhaustive_search, is_feasible, start_alignment,
                                 sum_rate)
from hetalloc.harness import load_scenario
from hetalloc.msgpass import (CycleWatch, MessageState, extract_allocation, proposal,
                              res_sweep, run_message_passing, tx_sweep)
from hetalloc.netmodel import build_topology, utility_table

from conftest import toy_network
from test_harness import K4, K50_LOOSE, K50_TIGHT, MID_K10, SCENARIOS
from test_netmodel import make_config


def state_with(psi_tx=None, psi_res=None, omega=0.5, shape=(2, 2, 2)):
    s = MessageState(np.zeros(shape), np.zeros(shape), omega)
    if psi_tx is not None:
        s.psi_tx[:] = psi_tx
    if psi_res is not None:
        s.psi_res[:] = psi_res
    return s


def test_omega_validated():
    with pytest.raises(ValueError):
        MessageState(np.zeros((1, 1, 1)), np.zeros((1, 1, 1)), 0.0)
    with pytest.raises(ValueError):
        MessageState(np.zeros((1, 1, 1)), np.zeros((1, 1, 1)), 1.2)


# --- transmitter-side update ---------------------------------------------

def test_tx_update_reduces_to_undamped_form_at_omega_one():
    rng = np.random.default_rng(0)
    u = rng.normal(size=(3, 2))
    psi_res = rng.normal(size=(1, 3, 2))
    s = state_with(psi_res=psi_res, omega=1.0, shape=(1, 3, 2))
    for n in range(3):
        for l in range(2):
            v = u + psi_res[0]
            others = np.delete(v.ravel(), n * 2 + l)
            assert reference.tx_message_update(s, u, 0, (n, l)) == pytest.approx(
                u[n, l] - others.max(), abs=1e-12)


def test_tx_update_symmetric_utilities_vanish():
    u = np.full((2, 2), 3.7)
    s = state_with(omega=1.0)
    assert reference.tx_message_update(s, u, 0, (0, 0)) == pytest.approx(0.0, abs=1e-15)


def test_tx_update_hand_value():
    u = np.array([[1.0, 2.0], [3.0, 0.5]])
    psi_res = np.zeros((1, 2, 2))
    psi_res[0] = [[0.1, -0.2], [0.3, 0.0]]
    s = state_with(psi_res=psi_res, omega=0.5, shape=(1, 2, 2))
    # 1.0 - 0.5 * max(1.8, 3.3, 0.5) - 0.5 * (1.0 + 0.1)
    assert reference.tx_message_update(s, u, 0, (0, 0)) == pytest.approx(-1.2, abs=1e-12)


def test_tx_update_single_resource_drops_empty_max():
    u = np.array([[4.0]])
    psi_res = np.full((1, 1, 1), 0.6)
    s = state_with(psi_res=psi_res, omega=0.5, shape=(1, 1, 1))
    assert reference.tx_message_update(s, u, 0, (0, 0)) == pytest.approx(4.0 - 0.5 * 4.6, abs=1e-12)


# --- resource-side update --------------------------------------------------

def test_res_update_reduces_to_undamped_form_at_omega_one():
    psi_tx = np.array([2.0, -1.0, 0.5]).reshape(3, 1, 1)
    s = state_with(psi_tx=psi_tx, omega=1.0, shape=(3, 1, 1))
    assert reference.res_message_update(s, (0, 0), 1) == pytest.approx(-2.0, abs=1e-12)


def test_res_update_zero_messages():
    s = state_with(shape=(3, 2, 1))
    assert reference.res_message_update(s, (1, 0), 0) == 0.0


def test_res_update_hand_value():
    psi_tx = np.array([2.0, -1.0, 0.5]).reshape(3, 1, 1)
    s = state_with(psi_tx=psi_tx, omega=0.5, shape=(3, 1, 1))
    # -0.5 * max(2.0, 0.5) - 0.5 * (-1.0)
    assert reference.res_message_update(s, (0, 0), 1) == pytest.approx(-0.5, abs=1e-12)


def test_res_update_single_transmitter():
    psi_tx = np.full((1, 1, 1), 3.0)
    s = state_with(psi_tx=psi_tx, omega=0.5, shape=(1, 1, 1))
    assert reference.res_message_update(s, (0, 0), 0) == pytest.approx(-1.5, abs=1e-12)


# --- sweeps agree with the scalar updates -----------------------------------

def test_sweeps_match_scalar_updates():
    rng = np.random.default_rng(7)
    for omega in (0.3, 0.5, 1.0):
        K, N, L = 4, 3, 2
        s = state_with(psi_tx=rng.normal(size=(K, N, L)),
                       psi_res=rng.normal(size=(K, N, L)),
                       omega=omega, shape=(K, N, L))
        u = rng.normal(size=(K, N, L))
        got_tx = tx_sweep(s, u)
        got_res = res_sweep(s)
        for k in range(K):
            for n in range(N):
                for l in range(L):
                    assert got_tx[k, n, l] == pytest.approx(
                        reference.tx_message_update(s, u[k], k, (n, l)), abs=1e-12)
                    assert got_res[k, n, l] == pytest.approx(
                        reference.res_message_update(s, (n, l), k), abs=1e-12)


def signed_table(rng, shape):
    """Normal entries with about half of them replaced by +0.0 or -0.0."""
    a = rng.normal(size=shape)
    zero = rng.random(shape) < 0.5
    a[zero] = np.copysign(0.0, rng.normal(size=shape))[zero]
    return a


@pytest.mark.parametrize("shape", [(1, 4, 3), (5, 1, 1), (1, 1, 1)])
def test_size_one_sweeps_equal_explicit_formulas(shape):
    # With nothing left to take a max over, the sweeps reduce to their
    # damping terms, bit for bit: K = 1 for the resource side, N*L = 1
    # for the transmitter side.
    K, N, L = shape
    rng = np.random.default_rng(23)
    for _ in range(200):
        omega = float(rng.choice([0.3, 0.5, 1.0]))
        u, psi_tx, psi_res = (signed_table(rng, shape) for _ in range(3))
        s = state_with(psi_tx=psi_tx, psi_res=psi_res, omega=omega, shape=shape)
        if N * L == 1:
            want = u - (1.0 - omega) * (u + psi_res)
            assert tx_sweep(s, u).tobytes() == want.tobytes()
        if K == 1:
            assert res_sweep(s).tobytes() == (-((1.0 - omega) * psi_tx)).tobytes()


def test_marginals_are_entrywise_sum():
    rng = np.random.default_rng(1)
    s = state_with(psi_tx=rng.normal(size=(2, 2, 2)),
                   psi_res=rng.normal(size=(2, 2, 2)))
    np.testing.assert_array_equal(s.tau, s.psi_tx + s.psi_res)


# --- allocation extraction ---------------------------------------------------

def repair_net():
    gain_ul = np.ones((2, 2, 1))
    gain_mue = np.zeros((2, 1, 1))
    gain_mue[0, 0, 0] = 0.8
    gain_mue[1, 0, 0] = 0.5
    return toy_network(gain_ul, gain_mue, power_levels=(1.0,), i_max=1.0)


def test_extract_all_nonpositive_marginals_is_empty():
    s = state_with(psi_tx=np.full((2, 1, 1), -1.0), shape=(2, 1, 1))
    assert reference.is_empty(extract_allocation(s, repair_net(), proposal(s.tau)))


def test_extract_single_positive_marginal():
    s = state_with(shape=(2, 1, 1))
    s.psi_tx[1, 0, 0] = 0.4
    alloc = extract_allocation(s, repair_net(), proposal(s.tau))
    assert alloc.get(0) is None and alloc.get(1) == (0, 0)


def test_extract_keeps_only_best_entry_per_transmitter():
    s = state_with(shape=(1, 2, 2))
    s.psi_tx[0] = [[0.5, 0.9], [0.9, 0.1]]  # tie at 0.9: lowest (n, l) wins
    net = toy_network(np.ones((1, 1, 2)), np.full((1, 1, 2), 1e-6),
                      power_levels=(1.0, 2.0), i_max=1.0)
    alloc = extract_allocation(s, net, proposal(s.tau))
    assert alloc.get(0) == (0, 1)
    assert alloc.num_assigned() == 1


def test_extract_interference_repair_evicts_largest_contributor():
    s = state_with(psi_tx=np.full((2, 1, 1), 1.0), shape=(2, 1, 1))
    alloc = extract_allocation(s, repair_net(), proposal(s.tau))
    # combined load 1.3 >= 1.0: transmitter 0 (0.8) goes first, then feasible
    assert alloc.get(0) is None and alloc.get(1) == (0, 0)


def test_repair_evicts_on_load_equal_to_cap():
    # RB 0's loads 0.25 + 0.25 + 0.5 sum to the cap 1.0 exactly; the cap
    # is strict, so RB 0 drops its largest contributor, k2.  RB 1 (load
    # 0.9) is under its cap and keeps k3.
    gain_mue = np.array([[0.25, 0.1], [0.25, 0.1], [0.5, 0.1], [0.1, 0.9]]).reshape(4, 1, 2)
    net = toy_network(np.ones((4, 4, 2)), gain_mue, i_max=1.0)
    alloc = Allocation(4, [(0, 0), (0, 0), (0, 0), (1, 0)])
    assert netmodel.interference_vector(net, alloc).tolist() == [1.0, 0.9]
    assert netmodel.repair(net, alloc) == Allocation(4, [(0, 0), (0, 0), None, (1, 0)])


def test_repair_under_cap_returns_allocation_untouched():
    gain_mue = np.array([[0.25, 0.1], [0.25, 0.1], [0.4, 0.1]]).reshape(3, 1, 2)
    net = toy_network(np.ones((3, 3, 2)), gain_mue, i_max=1.0)
    for pairs in ([(0, 0), (0, 0), (0, 0)], [(1, 0), None, (0, 0)], [None] * 3):
        alloc = Allocation(3, pairs)
        rb, level = alloc.rb, alloc.level
        assert netmodel.repair(net, alloc) is alloc
        assert alloc.rb is rb and alloc.level is level
        assert alloc == Allocation(3, pairs)


# --- full loop ----------------------------------------------------------------

def test_single_transmitter_matches_oracle():
    cfg = make_config(num_sbs=1, num_d2d=0, num_rb=3, power_levels=(0.1, 0.5),
                      i_max=1.0)
    net = build_topology(cfg)
    res = run_message_passing(net)
    assert res.converged
    u = utility_table(net, Allocation(1))
    j = int(np.argmax(u[0].ravel()))
    assert res.allocation.get(0) == (j // 2, j % 2)
    _, best = exhaustive_search(net)
    assert sum_rate(net, res.allocation) == pytest.approx(best, rel=1e-9)


def test_run_deterministic():
    net = build_topology(make_config())
    a = run_message_passing(net, omega=0.5)
    b = run_message_passing(net, omega=0.5)
    assert a.allocation == b.allocation
    assert a.info["message_deltas"] == b.info["message_deltas"]


def test_run_message_accounting_and_feasibility():
    net = build_topology(make_config())
    res = run_message_passing(net)
    K, N, L = net.num_tx, net.num_rb, net.num_levels
    assert res.messages == res.iterations * 2 * K * N * L
    assert is_feasible(net, res.allocation).feasible


def test_run_tiny_drops_dominated_by_oracle():
    cfg = make_config(num_sbs=1, num_d2d=1, num_rb=2, power_levels=(0.5,),
                      i_max=1e-4)
    equal = 0
    for seed in range(20):
        net = build_topology(dataclasses.replace(cfg, seed=seed))
        res = run_message_passing(net)
        rep = is_feasible(net, res.allocation)
        assert rep.feasible
        _, best = exhaustive_search(net)
        assert rep.sum_rate <= best * (1 + 1e-9)
        if rep.sum_rate >= best * (1 - 1e-9):
            equal += 1
    assert equal >= 10  # typically optimal when the cap is loose


# The four bench/run.py workloads, with their t_max.
WORKLOADS = [(K4, 500), (MID_K10, 500), (K50_LOOSE, 100), (K50_TIGHT, 100)]


@pytest.mark.parametrize("overrides, t_max", WORKLOADS,
                         ids=["oracle-k4", "mid-k10", "wide-k50-loose", "wide-k50-tight"])
def test_run_equals_full_loop_on_workload_drops(overrides, t_max):
    # Reused tables and extractions, and replayed cycles, leave every field
    # of the result equal to the loop that computes all of them.
    cfg = dataclasses.replace(load_scenario(SCENARIOS / "default.json"), **overrides)
    for seed in range(10):
        net = build_topology(dataclasses.replace(cfg, seed=seed))
        got = run_message_passing(net, t_max=t_max)
        want = reference.run_message_passing(net, t_max=t_max)
        assert got.allocation == want.allocation
        assert (got.iterations, got.converged, got.messages) == \
            (want.iterations, want.converged, want.messages)
        got.info.pop("cycle")
        assert got.info == want.info


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["loose-first", "tight-first"])
def test_no_run_reuses_another_drops_work(order):
    # Two mid-k10 drops of one seed that differ only in the cap: their start
    # allocations, and so the first table keys, are byte-equal, while their
    # utility tables differ.  A cache shared across runs and keyed by bytes
    # alone would hand the second run the first one's table; on seed 10 the
    # runs also propose alike where repair under the two caps differs, so a
    # shared extraction cache fails here too.
    cfg = dataclasses.replace(load_scenario(SCENARIOS / "default.json"), seed=10, **MID_K10)
    nets = [build_topology(dataclasses.replace(cfg, i_max=cap)) for cap in (1e-7, 1e-8)]
    starts = [start_alignment(net) for net in nets]
    assert starts[0] == starts[1]
    assert not np.array_equal(utility_table(nets[0], starts[0]),
                              utility_table(nets[1], starts[1]))
    for i in order:
        got = run_message_passing(nets[i])
        want = reference.run_message_passing(nets[i])
        assert got.allocation == want.allocation
        assert got.iterations == want.iterations
        assert got.info["message_deltas"] == want.info["message_deltas"]


@pytest.mark.parametrize("overrides, t_max", WORKLOADS,
                         ids=["oracle-k4", "mid-k10", "wide-k50-loose", "wide-k50-tight"])
def test_extraction_reads_its_own_iterations_marginals(monkeypatch, overrides, t_max):
    # The loop keeps one MessageState and rebinds its tables; a wrapper of
    # extract_allocation must still find in it the marginals the proposal
    # it was handed came from.
    cfg = dataclasses.replace(load_scenario(SCENARIOS / "default.json"), **overrides)
    net = build_topology(dataclasses.replace(cfg, seed=0))
    calls, extract = [], msgpass.extract_allocation

    def checking_extract(state, net, best):
        calls.append(np.array_equal(proposal(state.tau), best))
        return extract(state, net, best)

    monkeypatch.setattr(msgpass, "extract_allocation", checking_extract)
    run_message_passing(net, t_max=t_max)
    assert calls and all(calls)


def test_zero_message_step_is_positive_zero():
    # One transmitter, two RBs of equal utility: every message is 0 from
    # the first sweep on, so each step is exactly zero, recorded as +0.0
    # (the golden digests hash the delta bytes, where -0.0 differs).
    net = toy_network(np.ones((1, 1, 2)), np.full((1, 1, 2), 0.1))
    for omega in (0.5, 1.0):
        deltas = run_message_passing(net, omega=omega).info["message_deltas"]
        assert deltas and np.asarray(deltas).tobytes() == bytes(8 * len(deltas))


# --- cycle replay ------------------------------------------------------------

def test_cycle_watch_confirms_only_a_repeated_state():
    # The map 5 -> 7 -> 6 -> 1 -> 2 -> 3 -> 1.  The key of step 3 repeats
    # step 1's, but the state two steps later is not step 3's: that
    # proposal is dropped.  The states cycle with period 3 from step 4, a
    # repeat proposed at step 7 and confirmed at step 10.
    states = [5, 7, 6, 1, 2, 3, 1, 2, 3, 1]
    keys = ["a", "b", "a", "c", "d", "e", "c", "d", "e", "c"]
    watch = CycleWatch()
    found = [watch.step(key, (np.array([s]),)) for key, s in zip(keys, states)]
    assert found == [None] * 9 + [3]


def test_cycle_watch_shorter_period_replaces_open_proposal():
    # Step 3 proposes period 2 (its key was seen at step 1); step 4 proposes
    # period 1, which replaces it and is confirmed at step 5.
    states = [1, 2, 3, 4, 4]
    keys = ["a", "b", "a", "a", "a"]
    watch = CycleWatch()
    found = [watch.step(key, (np.array([s]),)) for key, s in zip(keys, states)]
    assert found == [None] * 4 + [1]


def test_cycle_watch_compares_bits():
    # -0.0 == 0.0 as floats, but a state holding one does not repeat the
    # other: step 3's -0.0 fails the period-1 proposal made at step 2 on
    # 0.0, and step 4 confirms the one made at step 3.
    watch = CycleWatch()
    found = [watch.step("k", (np.array([z]),)) for z in (0.0, 0.0, -0.0, -0.0)]
    assert found == [None, None, None, 1]


# Drops of bench/run.py's mid-k10 and oracle-k4 workloads on which the
# messages fall into an exact cycle of period 2-10 after 140-280 iterations.
CYCLING = [(MID_K10, s) for s in (4, 20, 22, 38)] + [(K4, s) for s in (14, 17, 39)]


def lru_misses(keys, depth):
    """How many of ``keys`` are absent from the last ``depth`` distinct
    keys before them."""
    window, misses = [], 0
    for key in keys:
        if key in window:
            window.remove(key)
        else:
            misses += 1
        window = (window + [key])[-depth:]
    return misses


def test_lru_misses_hand_sequence():
    # a b c a d e a: a's second use is a hit, and d and e push b and c
    # out, leaving a (used at step 4) in the window for step 7.
    assert lru_misses("abcadea", 4) == 5
    assert lru_misses("abcadea", 2) == 7
    assert lru_misses("abab", 2) == 2
    assert lru_misses("aaaa", 1) == 1


def record_inputs(monkeypatch):
    """Patch ``netmodel.utility_table`` and ``msgpass.extract_allocation`` to
    log the bytes of each call's allocation and proposal; returns both logs."""
    tables, proposals = [], []
    utility_table, extract = netmodel.utility_table, msgpass.extract_allocation

    def recording_table(net, alloc):
        tables.append(alloc.rb.tobytes() + alloc.level.tobytes())
        return utility_table(net, alloc)

    def recording_extract(state, net, best):
        proposals.append(msgpass.proposal(state.tau).tobytes())
        return extract(state, net, best)

    monkeypatch.setattr(netmodel, "utility_table", recording_table)
    monkeypatch.setattr(msgpass, "extract_allocation", recording_extract)
    return tables, proposals


def assert_window_counts(net, tables, proposals, t_max):
    """A table or an extraction is computed exactly when its input is not
    among the last REUSE_DEPTH distinct inputs: ``tables`` and
    ``proposals``, logged from one run, hold as many entries as that window
    misses over the inputs the full loop evaluates up to ``t_max``."""
    computed = len(tables), len(proposals)
    tables.clear()
    proposals.clear()
    reference.run_message_passing(net, t_max=t_max)
    assert computed == (lru_misses(tables, msgpass.REUSE_DEPTH),
                        lru_misses(proposals, msgpass.REUSE_DEPTH))
    return computed, (len(tables), len(proposals))


@pytest.mark.parametrize("overrides, seed", CYCLING,
                         ids=[f"mid-k10-{s}" for s in (4, 20, 22, 38)]
                         + [f"oracle-k4-{s}" for s in (14, 17, 39)])
def test_replay_equals_full_loop(monkeypatch, overrides, seed):
    cfg = dataclasses.replace(load_scenario(SCENARIOS / "default.json"), **overrides)
    net = build_topology(dataclasses.replace(cfg, seed=seed))
    tables, proposals = record_inputs(monkeypatch)
    sweeps, tx_sweep = [], msgpass.tx_sweep

    def counting_sweep(state, util, **kwargs):
        sweeps.append(1)
        return tx_sweep(state, util, **kwargs)

    monkeypatch.setattr(msgpass, "tx_sweep", counting_sweep)
    first, period = run_message_passing(net, t_max=500).info["cycle"]
    assert len(sweeps) == first - 1 < 300 and 2 <= period <= 10
    computed, full = assert_window_counts(net, tables, proposals, first - 1)
    assert full == (first - 1, first - 1) and max(computed) < first - 1
    # first - 1 confirms the repeat in its last iteration and replays
    # nothing; the others end at several phases of the cycle.
    for t_max in sorted({first - 1, first, first + 1, first + period - 1, 500, 501}):
        got = run_message_passing(net, t_max=t_max)
        want = reference.run_message_passing(net, t_max=t_max)
        assert got.allocation == want.allocation
        assert (got.iterations, got.converged, got.messages) == \
            (want.iterations, want.converged, want.messages)
        assert got.info.pop("cycle") == (None if t_max < first else (first, period))
        assert got.info == want.info


# Drops of wide-k50-tight whose allocations revisit a state after three or
# more others, so a window that dropped its oldest entry instead of its least
# recently used one would compute more tables or extractions.
@pytest.mark.parametrize("seed", [0, 3])
def test_window_drops_least_recently_used(monkeypatch, seed):
    cfg = load_scenario(SCENARIOS / "default.json")
    net = build_topology(dataclasses.replace(cfg, seed=seed, **K50_TIGHT))
    tables, proposals = record_inputs(monkeypatch)
    res = run_message_passing(net, t_max=100)
    assert res.info["cycle"] is None
    computed, full = assert_window_counts(net, tables, proposals, 100)
    assert full == (100, 100) and max(computed) < 100


# --- message bytes -------------------------------------------------------------

def message_bytes_sha256(overrides, t_max):
    """sha256 over each drop's allocation bytes, iterations, converged flag,
    message deltas (float64 bytes) and cycle, for the 40-drop pool of the
    bench/run.py workload ``overrides`` names."""
    cfg = dataclasses.replace(load_scenario(SCENARIOS / "default.json"), **overrides)
    h = hashlib.sha256()
    for seed in range(40):
        res = run_message_passing(build_topology(dataclasses.replace(cfg, seed=seed)),
                                  t_max=t_max)
        h.update(res.allocation.rb.tobytes() + res.allocation.level.tobytes())
        h.update(repr((res.iterations, res.converged, res.info["cycle"])).encode())
        h.update(np.asarray(res.info["message_deltas"], dtype=np.float64).tobytes())
    return h.hexdigest()


# Pinned from the sweeps that took the top two by ``np.partition`` and the
# folds that added with ``np.add.at`` (the oracle-k4 row from the loop that
# reused only the previous iteration's table and extraction); the row hashes
# of test_harness see only the allocation and counters, not the message
# arithmetic.
@pytest.mark.parametrize("overrides, t_max, expected", [
    (K4, 500, "747a32e7a843cc01041d636ebd7d9b9101b6474fc681122b0e4a7ba58717df86"),
    (MID_K10, 500, "7e4709427c4c27cafd0e774bf0d261d0ef2bcc3ffcc28ce364c23257bd72fe84"),
    (K50_LOOSE, 100, "e91b70a961a10979f9a7ebef1ee95d9072a9a9b9c291792ab48dfbc05a339a49"),
    (K50_TIGHT, 100, "182b58d63627aebba0e50e5ee713a05878b6b028eb9b44830a3d106a0ef00162"),
], ids=["oracle-k4", "mid-k10", "wide-k50-loose", "wide-k50-tight"])
def test_golden_message_bytes(overrides, t_max, expected):
    assert message_bytes_sha256(overrides, t_max) == expected
