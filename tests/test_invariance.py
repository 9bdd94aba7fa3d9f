"""Gates that need no reference: exact symmetries of the model.

They hold at any size, so they reach past the exact oracle (K <= 12).

- Scale: multiplying every power (the levels, the MBS power, the noise
  PSD) and the interference caps by the same power of two multiplies
  every signal, interference, noise and cap term by it exactly.  Every
  SINR, load-to-cap comparison and utility keeps its bits, so every
  ``run_experiment`` row must too, wall time aside.
- Weights: multiplying ``w1`` and ``w2`` by a power of two scales every
  utility, benefit and message exactly, and message passing's stop
  tolerance and the auction's content slack (relative to the row, with
  no floor) with them, so every solver makes the same choices and stops
  at the same iteration.
- Relabeling: renumbering the transmitters and the RBs permutes every
  gain and cap but no term of any rate, SINR or load; only the order in
  which the oracle adds them moves, so its optimal rate must agree within
  1e-12 relative.  The solvers are left out: their start state is drawn
  per index, and their ties go to the lowest index.
"""

import dataclasses

import numpy as np
import pytest

from hetalloc.allocation import exhaustive_search
from hetalloc.harness import load_scenario, run_experiment
from hetalloc.netmodel import build_topology, make_network

from test_harness import K50_TIGHT, MID_K10, SCENARIOS

K200_LOOSE = dict(num_sbs=120, num_d2d=80, num_rb=50, power_levels=(0.02, 0.05, 0.2, 1.0),
                  i_max=1e-6)


def config(overrides):
    return dataclasses.replace(load_scenario(SCENARIOS / "default.json"), **overrides)


def scaled(cfg, e):
    """``cfg`` with every power and every cap multiplied by 2**e."""
    f = 2.0 ** e
    return dataclasses.replace(cfg, power_levels=tuple(p * f for p in cfg.power_levels),
                               mbs_power=cfg.mbs_power * f, noise_psd=cfg.noise_psd * f,
                               i_max=cfg.i_max * f)


def rows(cfg, **run):
    """``run_experiment``'s rows as reprs, which keep every float's bits,
    with the wall time zeroed."""
    return [repr(dataclasses.replace(r, wall_time_ms=0.0))
            for r in run_experiment(cfg, t_max=100, **run)]


@pytest.mark.parametrize("overrides, run", [
    ({}, dict(seeds=range(5), with_oracle=True)),
    (MID_K10, dict(seeds=range(3))),
    (K50_TIGHT, dict(seeds=[0])),
    (K200_LOOSE, dict(seeds=[0], algorithms=["matching"])),
], ids=["default-oracle", "mid-k10", "k50-tight", "k200-loose-matching"])
def test_scaling_powers_and_caps_keeps_every_row(overrides, run):
    cfg = config(overrides)
    want = rows(cfg, **run)
    for e in (1, -3):
        assert rows(scaled(cfg, e), **run) == want, e


@pytest.mark.parametrize("overrides, run", [
    ({}, dict(seeds=range(20))),
    (MID_K10, dict(seeds=range(20))),
    (K50_TIGHT, dict(seeds=range(2), t_max=100)),
], ids=["default", "mid-k10", "k50-tight"])
def test_scaling_weights_keeps_every_solver(overrides, run):
    # Each row's (rate, iterations, converged) stays the same with w1 and
    # w2 multiplied by 2**e, e = 1, 10, -10, -20, -30.
    cfg = config(overrides)

    def outcomes(cfg):
        return [(r.algorithm, r.seed, r.sum_rate, r.iterations, r.converged)
                for r in run_experiment(cfg, **run)]

    want = outcomes(cfg)
    for e in (1, 10, -10, -20, -30):
        f = 2.0 ** e
        assert outcomes(dataclasses.replace(cfg, w1=cfg.w1 * f, w2=cfg.w2 * f)) == want, e


def relabeled(net, rng):
    """``net`` rebuilt by ``make_network`` with its transmitters and its
    RBs in random orders: every gain permuted along each axis, and the
    per-RB caps.  The positions, which nothing computes from, are kept."""
    tx, rb = rng.permutation(net.num_tx), rng.permutation(net.num_rb)
    return make_network(
        net.config, net.mue_pos, net.sbs_pos, net.sue_pos, net.d2d_tx_pos, net.d2d_rx_pos,
        net.gain_ul[np.ix_(tx, tx, rb)], net.gain_mbs_ul[np.ix_(tx, rb)],
        net.gain_mue[tx][:, :, rb], net.gain_mbs_mue[:, rb], net.power_levels,
        net.i_max[rb], net.mbs_power, net.sigma2, net.w1, net.w2, net.rb_bandwidth)


@pytest.mark.parametrize("overrides, seeds", [({}, range(20)), (MID_K10, range(5))],
                         ids=["default", "mid-k10"])
def test_relabeling_keeps_the_oracle_rate(overrides, seeds):
    cfg = config(overrides)
    for seed in seeds:
        net = build_topology(dataclasses.replace(cfg, seed=seed))
        rate = exhaustive_search(net)[1]
        again = exhaustive_search(relabeled(net, np.random.default_rng(seed)))[1]
        assert rate > 0 and again == pytest.approx(rate, rel=1e-12, abs=0), seed
