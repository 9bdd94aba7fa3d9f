import dataclasses

import numpy as np
import pytest

import reference
from hetalloc.allocation import Allocation, exhaustive_search, is_feasible, sum_rate
from hetalloc.msgpass import (MessageState, extract_allocation, res_sweep,
                              run_message_passing, tx_sweep)
from hetalloc.netmodel import build_topology, utility_table

from conftest import toy_network
from test_netmodel import make_config


def state_with(psi_tx=None, psi_res=None, omega=0.5, shape=(2, 2, 2)):
    s = MessageState.zeros(*shape, omega=omega)
    if psi_tx is not None:
        s.psi_tx[:] = psi_tx
    if psi_res is not None:
        s.psi_res[:] = psi_res
    return s


def test_omega_validated():
    with pytest.raises(ValueError):
        MessageState.zeros(1, 1, 1, omega=0.0)
    with pytest.raises(ValueError):
        MessageState.zeros(1, 1, 1, omega=1.2)


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
    assert reference.is_empty(extract_allocation(s, repair_net()))


def test_extract_single_positive_marginal():
    s = state_with(shape=(2, 1, 1))
    s.psi_tx[1, 0, 0] = 0.4
    alloc = extract_allocation(s, repair_net())
    assert alloc.get(0) is None and alloc.get(1) == (0, 0)


def test_extract_keeps_only_best_entry_per_transmitter():
    s = state_with(shape=(1, 2, 2))
    s.psi_tx[0] = [[0.5, 0.9], [0.9, 0.1]]  # tie at 0.9: lowest (n, l) wins
    net = toy_network(np.ones((1, 1, 2)), np.full((1, 1, 2), 1e-6),
                      power_levels=(1.0, 2.0), i_max=1.0)
    alloc = extract_allocation(s, net)
    assert alloc.get(0) == (0, 1)
    assert alloc.num_assigned() == 1


def test_extract_interference_repair_evicts_largest_contributor():
    s = state_with(psi_tx=np.full((2, 1, 1), 1.0), shape=(2, 1, 1))
    alloc = extract_allocation(s, repair_net())
    # combined load 1.3 >= 1.0: transmitter 0 (0.8) goes first, then feasible
    assert alloc.get(0) is None and alloc.get(1) == (0, 0)


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
