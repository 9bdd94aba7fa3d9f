"""Gates that need no reference: exact symmetries of the model.

They hold at any size, so they reach past the exact oracle (K <= 12).

- Scale: multiplying every power (the levels, the MBS power, the noise
  PSD) and the interference caps by the same power of two multiplies
  every signal, interference, noise and cap term by it exactly.  Every
  SINR, load-to-cap comparison and utility keeps its bits, so every
  ``run_experiment`` row must too, wall time aside.
- Weights: multiplying ``w1`` and ``w2`` by a power of two scales every
  utility and benefit exactly, so matching and the auction make the same
  choices.  Message passing is left out: its stop tolerance
  ``MESSAGE_TOL`` is absolute in utility units, so scaled weights move
  the iteration it stops at.
"""

import dataclasses

import pytest

from hetalloc.harness import load_scenario, run_experiment

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


@pytest.mark.parametrize("overrides", [{}, MID_K10], ids=["default", "mid-k10"])
def test_scaling_weights_keeps_matching_and_auction(overrides):
    cfg = config(overrides)

    def outcomes(cfg):
        return [(r.algorithm, r.seed, r.sum_rate, r.iterations, r.converged)
                for r in run_experiment(cfg, algorithms=["matching", "auction"], seeds=range(20))]

    want = outcomes(cfg)
    for e in (1, 10, -10):
        f = 2.0 ** e
        assert outcomes(dataclasses.replace(cfg, w1=cfg.w1 * f, w2=cfg.w2 * f)) == want, e
