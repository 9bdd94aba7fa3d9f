"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Suites share three drop families:

* desk scale (K=5, N=6, L=3) for the matching and message-passing batteries,
* small drops (K=4, N=4, L=2) where the exhaustive oracle is cheap,
* loose-budget micro-coupling drops (K=3, N=8, L=3, per-drop interference
  cap at 10x the largest single reference-user contribution) for the
  auction guarantees.
"""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

import reference
from hetalloc import cli
from hetalloc.allocation import (exhaustive_search, is_feasible,
                                 search_space_size, weighted_benefit)
from hetalloc.auction import run_auction
from hetalloc.matching import run_stable_matching
from hetalloc.msgpass import run_message_passing
from hetalloc.netmodel import ScenarioConfig, build_topology, interference_vector

from conftest import DESK, drop, profile_families, rounds

SMALL = ScenarioConfig(
    seed=0, cell_radius=300.0, num_mue=3, num_sbs=2, num_d2d=2, num_rb=4,
    power_levels=(0.1, 0.5), mbs_power=10.0, noise_psd=3.98e-21,
    pathloss_exp=3.0, i_max=1.2e-7, w1=1.0, w2=0.5,
    d2d_max_dist=25.0, sbs_ue_max_dist=30.0)

AUCTION_BASE = ScenarioConfig(
    seed=0, cell_radius=400.0, num_mue=2, num_sbs=2, num_d2d=1, num_rb=8,
    power_levels=(0.47, 0.485, 0.5), mbs_power=75.0, noise_psd=3.98e-21,
    pathloss_exp=3.5, i_max=1.0, w1=1.0, w2=0.05,
    d2d_max_dist=10.0, sbs_ue_max_dist=10.0)


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def loose_drop(seed):
    """Drop with the per-RB cap at 10x the largest single contribution."""
    cfg = dataclasses.replace(AUCTION_BASE, seed=seed)
    probe = build_topology(cfg)
    cap = 10.0 * float((probe.ref_gain * probe.power_levels.max()).max())
    return build_topology(dataclasses.replace(cfg, i_max=cap))


feasibility_log = []  # (suite, seed, algorithm, feasible) across all suites


@pytest.fixture(scope="module")
def matching_suite():
    runs = []
    for seed in range(100):
        net = drop(DESK, seed)
        res = run_stable_matching(net)
        feasibility_log.append(("matching", seed, "matching",
                                is_feasible(net, res.allocation).feasible))
        runs.append((seed, net, res))
    return runs


@pytest.fixture(scope="module")
def msgpass_suite():
    runs = []
    for seed in range(100):
        net = drop(DESK, seed)
        res = run_message_passing(net, t_max=500)
        feasibility_log.append(("msgpass", seed, "msgpass",
                                is_feasible(net, res.allocation).feasible))
        runs.append((seed, net, res))
    return runs


@pytest.fixture(scope="module")
def auction_suite():
    runs = []
    for seed in range(50):
        net = loose_drop(seed)
        res = run_auction(net)
        feasibility_log.append(("auction-loose", seed, "auction",
                                is_feasible(net, res.allocation).feasible))
        runs.append((seed, net, res))
    return runs


def test_criterion_1_search_space_constant(capsys):
    t0 = time.perf_counter()
    count = search_space_size(5, 6, 3)
    elapsed = time.perf_counter() - t0
    cli.main(["size", "-K", "5", "-N", "6", "-L", "3"])
    out = capsys.readouterr().out
    with capsys.disabled():
        ok = count == 1889568 and "alignment_combinations 1889568" in out and elapsed < 1e-3
        report(1, ok, f"(6*3)^5 = {count}, computed in {elapsed * 1e3:.4f} ms")


def test_criterion_2_rb_bandwidth_default():
    cfg = ScenarioConfig(
        seed=1, cell_radius=200.0, num_mue=1, num_sbs=1, num_d2d=0, num_rb=1,
        power_levels=(0.1,), mbs_power=1.0, noise_psd=4e-21, pathloss_exp=3.0,
        i_max=1.0, w1=1.0, w2=0.0, d2d_max_dist=10.0, sbs_ue_max_dist=10.0)
    net = build_topology(cfg)
    ok = cfg.rb_bandwidth == 180000.0 and net.sigma2 == 4e-21 * 180000.0
    report(2, ok, f"default B_RB = {cfg.rb_bandwidth:.0f} Hz, "
                  f"sigma2 = {net.sigma2!r} = N0 * B_RB exactly")


def test_criterion_3_oracle_dominance():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        net = drop(SMALL, seed)
        _, best = exhaustive_search(net)
        for name, runner in (("matching", run_stable_matching),
                             ("msgpass", run_message_passing),
                             ("auction", run_auction)):
            res = runner(net)
            rep = is_feasible(net, res.allocation)
            feasibility_log.append(("small", seed, name, rep.feasible))
            assert rep.feasible
            assert rep.sum_rate <= best * (1 + 1e-9), (seed, name)
            if best > 0:
                worst = max(worst, rep.sum_rate / best - 1.0)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    report(3, ok, f"60 runs on 20 drops all within oracle bound "
                  f"(max overshoot {worst:.2e}), {elapsed:.1f} s")


def test_criterion_4_stability(matching_suite):
    # Rounds from info["cycle"][0] on replay computed ones (the same
    # objects), so each computed round is checked once.
    blocked = []
    checked = 0
    for seed, net, res in matching_suite:
        cycle = res.info["cycle"]
        for prev, alloc in itertools.islice(rounds(net, res), cycle[0] - 1 if cycle else None):
            checked += 1
            if reference.find_blocking_pair(alloc, *profile_families(net, prev)):
                blocked.append(seed)
    report(4, not blocked,
           f"{checked} computed inner matchings over 100 drops, blocking pairs on "
           f"drops {blocked or 'none'}")


def test_criterion_5_matching_termination_bound(matching_suite):
    bound = DESK.num_tx * DESK.num_rb * len(DESK.power_levels)
    worst = 0
    over = []
    for seed, _net, res in matching_suite:
        for count in res.info["proposals_per_round"]:
            worst = max(worst, count)
            if count > bound:
                over.append(seed)
    report(5, not over,
           f"max proposal events {worst} <= K*N*L = {bound} on every inner run")


def test_criterion_6_reduction_identity():
    from hetalloc.msgpass import MessageState, res_sweep, tx_sweep
    rng = np.random.default_rng(1234)
    worst = 0.0
    entries = 0
    for _ in range(1000):
        K = int(rng.integers(1, 6))
        N = int(rng.integers(1, 5))
        L = int(rng.integers(1, 4))
        state = MessageState(rng.normal(0, 5, (K, N, L)),
                             rng.normal(0, 5, (K, N, L)), omega=1.0)
        u = rng.normal(0, 5, (K, N, L))
        # still drawn, so every table is the one an entry-sampling run saw
        rng.integers(K), rng.integers(N), rng.integers(L)
        got_tx = tx_sweep(state, u, np.empty((K, N, L)))
        got_res = res_sweep(state, np.empty((K, N, L)))
        for k, n, l in np.ndindex(K, N, L):
            # undamped transmitter rule: utility minus the best other entry
            v = (u[k] + state.psi_res[k]).ravel()
            others = np.delete(v, n * L + l)
            expect_tx = u[k, n, l] - (others.max() if others.size else 0.0)
            # undamped resource rule: minus the best other transmitter message
            col = np.delete(state.psi_tx[:, n, l], k)
            expect_res = -(col.max() if col.size else 0.0)
            worst = max(worst, abs(got_tx[k, n, l] - expect_tx),
                        abs(got_res[k, n, l] - expect_res))
            entries += 1
    report(6, worst <= 1e-12,
           f"1000 random tables ({entries} entries), "
           f"max |sweep(omega=1) - undamped| = {worst:.2e}")


def test_criterion_7_message_convergence(msgpass_suite):
    non_convergent = [seed for seed, _net, res in msgpass_suite
                      if res.info["message_converged_at"] is None]
    rate = (100 - len(non_convergent)) / 100
    report(7, rate >= 0.95,
           f"max-norm step < 1e-6 before T_max=500 on {100 - len(non_convergent)}"
           f"/100 drops; non-convergent: {non_convergent or 'none'}")


def test_criterion_8_epsilon_complementary_slackness(auction_suite):
    violations = []
    for seed, net, res in auction_suite:
        b = reference.library_table(net, res.allocation, "benefit")
        iv = interference_vector(net, res.allocation)
        slack = 1e-9 * max(1.0, float(np.abs(b).max()))
        for k, (n0, l0) in reference.assigned_items(res.allocation):
            values = b[k] - res.info["merged_costs"]
            passes_guard = (net.ref_gain[k][:, None] * net.power_levels[None, :]
                            + iv[:, None]) < net.i_max[:, None]
            if not passes_guard.any():
                continue
            if values[n0, l0] < values[passes_guard].max() - res.info["epsilon"] - slack:
                violations.append((seed, k))
    report(8, not violations,
           f"all assigned transmitters within epsilon of best net value under "
           f"final merged costs on 50 loose drops; violations: {violations or 'none'}")


def test_criterion_9_auction_optimality_gap(auction_suite):
    t0 = time.perf_counter()
    failures = []
    for seed, net, res in auction_suite:
        o_alloc, _ = exhaustive_search(net)
        achieved = weighted_benefit(net, res.allocation)
        optimal = weighted_benefit(net, o_alloc)
        eps = res.info["epsilon"]
        margin = net.num_tx * eps + 1e-9 * max(1.0, optimal)
        if achieved < optimal - margin:
            failures.append((seed, optimal - achieved, net.num_tx * eps))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    report(9, ok, f"sum benefit within K*epsilon of the oracle on 50 loose "
                  f"drops ({elapsed:.1f} s); failures: {failures or 'none'}")


def test_criterion_10_auction_iteration_bound(auction_suite):
    over = []
    for seed, net, res in auction_suite:
        K, N, L = net.num_tx, net.num_rb, net.num_levels
        span = res.info["benefit_span"]
        bound = K * N * L * (math.ceil(span / res.info["epsilon"]) if span > 0 else 1)
        if res.iterations > bound:
            over.append((seed, res.iterations, bound))
    report(10, not over,
           f"iterations within K*N*L*ceil(span/epsilon) on every drop; "
           f"violations: {over or 'none'}")


def test_criterion_11_universal_feasibility(matching_suite, msgpass_suite,
                                            auction_suite):
    bad = [entry for entry in feasibility_log if not entry[3]]
    report(11, not bad and len(feasibility_log) >= 250,
           f"{len(feasibility_log)} final allocations across all suites pass "
           f"the strict interference cap; infeasible: {bad or 'none'}")


def test_criterion_12_run_determinism(tmp_path):
    import json

    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps({
        "seed": 1, "cell_radius": 250.0, "num_mue": 2, "num_sbs": 1,
        "num_d2d": 1, "num_rb": 2, "power_levels": [0.1, 0.5],
        "mbs_power": 10.0, "noise_psd": 3.98e-21, "pathloss_exp": 3.0,
        "i_max": 1e-7, "w1": 1.0, "w2": 0.5, "d2d_max_dist": 25.0,
        "sbs_ue_max_dist": 35.0, "rb_bandwidth": 180000.0}))

    def run(path):
        assert cli.main(["run", "--scenario", str(scen), "--seeds", "0:3",
                         "--oracle", "--out", str(path), "--t-max", "300"]) == 0
        rows = path.read_text().splitlines()
        header = rows[0].split(",")
        drop = header.index("wall_time_ms")
        return [",".join(c for i, c in enumerate(r.split(",")) if i != drop)
                for r in rows]

    first = run(tmp_path / "a.csv")
    second = run(tmp_path / "b.csv")
    report(12, first == second,
           f"repeated CLI run produced byte-identical CSV ({len(first) - 1} "
           f"rows) apart from wall_time_ms")
