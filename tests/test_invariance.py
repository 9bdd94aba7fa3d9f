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
  at the same iteration: every row keeps its bits but the weighted
  benefit's and the wall time.
- Relabeling: renumbering the transmitters and the RBs permutes every
  gain and cap but no term of any rate, SINR or load; only the order in
  which the oracle adds them moves, so its optimal rate must agree within
  1e-12 relative.  The solvers are left out: their start state is drawn
  per index, and their ties go to the lowest index.

``bound.greedy`` passes the scale and relabeling gates too.  Scaling
multiplies each of its SINR and load-to-cap terms by the same power of
two, so its allocation keeps every entry.  It orders and places the
transmitters by their SINRs and sums the loads in that order, so labels
enter only through exact ties: a relabeled drop's greedy allocation is
the permuted one.

The sum-rate bound of ``bound.py`` passes the scale and relabeling gates
too: scaling hands HiGHS the same coefficients, so the bound keeps its
bits, and relabeling hands it the columns and rows in another order, so
it agrees within 1e-9 relative.  Its LP runs on mid-k10 and at K=50 under
both caps, its MILP on mid-k10 only, which keeps the gate fast.

The scale and weight gates also run on generated scenarios, next to
three checks that need only the drop: every row is feasible, the oracle
(where it is cheap) is at or above every solver, and the LP bound of
``bound.py`` is at or above every rate.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bound import greedy, rate_bound
from hetalloc.allocation import exhaustive_search, oracle_cost
from hetalloc.harness import run_experiment
from hetalloc.netmodel import build_topology, make_network

from conftest import POOLS, config, drop


def scaled(cfg, e):
    """``cfg`` with every power and every cap multiplied by 2**e."""
    f = 2.0 ** e
    return dataclasses.replace(cfg, power_levels=tuple(p * f for p in cfg.power_levels),
                               mbs_power=cfg.mbs_power * f, noise_psd=cfg.noise_psd * f,
                               i_max=cfg.i_max * f)


def weighted(cfg, e):
    """``cfg`` with ``w1`` and ``w2`` multiplied by 2**e."""
    f = 2.0 ** e
    return dataclasses.replace(cfg, w1=cfg.w1 * f, w2=cfg.w2 * f)


def scale_form(r):
    """A row as the scale gate compares it: its repr, which keeps every
    float's bits, with the wall time zeroed."""
    return repr(dataclasses.replace(r, wall_time_ms=0.0))


def weight_form(r):
    """A row as the weight gate compares it: as the scale gate does, with
    the weighted benefit, which scales, zeroed too."""
    return scale_form(dataclasses.replace(r, weighted_benefit=0.0))


def rows(cfg, form, **run):
    """``run_experiment``'s rows, each in ``form``."""
    return [form(r) for r in run_experiment(cfg, **run)]


@pytest.mark.parametrize("overrides, run", [
    ({}, dict(seeds=range(5), with_oracle=True, t_max=500)),
    (POOLS["mid-k10"], dict(seeds=range(3), t_max=100)),
    (POOLS["wide-k50-tight"], dict(seeds=[0], t_max=100)),
    (POOLS["k200-loose"], dict(seeds=[0], algorithms=["matching"], t_max=100)),
], ids=["default-oracle", "mid-k10", "k50-tight", "k200-loose-matching"])
def test_scaling_powers_and_caps_keeps_every_row(overrides, run):
    # Every power and cap times 2, 8 and 1/8; default-oracle is the CLI's
    # run (t_max 500) on 5 seeds with the oracle.
    cfg = config(overrides)
    want = rows(cfg, scale_form, **run)
    for e in (1, 3, -3):
        assert rows(scaled(cfg, e), scale_form, **run) == want, e


@pytest.mark.parametrize("overrides, run", [
    ({}, dict(seeds=range(20), with_oracle=True)),
    (POOLS["mid-k10"], dict(seeds=range(20))),
    (POOLS["wide-k50-tight"], dict(seeds=range(2), t_max=100)),
], ids=["default", "mid-k10", "k50-tight"])
def test_scaling_weights_keeps_every_solver(overrides, run):
    # Every field of every row but the weighted benefit and the wall time
    # (the oracle's row and gaps, each message count) stays the same with
    # w1 and w2 multiplied by 2**e, e = 1, 10, -10, -20, -30.  default is
    # the CLI's run: 20 seeds, the oracle and t_max 500.
    cfg = config(overrides)
    want = rows(cfg, weight_form, **run)
    for e in (1, 10, -10, -20, -30):
        assert rows(weighted(cfg, e), weight_form, **run) == want, e


@st.composite
def scenarios(draw):
    """default.json's radii with K = 1..40 transmitters, split any way
    between SBSs and D2D pairs, N = 1..20 RBs, 1-4 strictly increasing
    levels, a scalar cap log-uniform in [1e-10, 1e-5], ``w1`` and ``w2``
    from {0, 0.5, 1, 3}, and 1-4 MUEs."""
    K = draw(st.integers(1, 40))
    sbs = draw(st.integers(0, K))
    levels = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4, unique=True))
    weights = st.sampled_from((0.0, 0.5, 1.0, 3.0))
    return dataclasses.replace(
        config({}), seed=draw(st.integers(0, 2 ** 32 - 1)), num_sbs=sbs, num_d2d=K - sbs,
        num_rb=draw(st.integers(1, 20)), power_levels=tuple(sorted(levels)),
        i_max=10.0 ** draw(st.floats(-10.0, -5.0)), w1=draw(weights), w2=draw(weights),
        num_mue=draw(st.integers(1, 4)))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(scenarios())
def test_gates_hold_on_generated_scenarios(cfg):
    cheap = oracle_cost(cfg.num_sbs + cfg.num_d2d, cfg.num_rb, len(cfg.power_levels)) <= 10 ** 6
    run = dict(seeds=[cfg.seed], t_max=60, with_oracle=cheap)
    got = run_experiment(cfg, **run)
    assert all(r.feasible for r in got)
    for e in (3, -5):
        assert rows(scaled(cfg, e), scale_form, **run) == [scale_form(r) for r in got], e
        assert rows(weighted(cfg, e), weight_form, **run) == [weight_form(r) for r in got], e
    bound = rate_bound(build_topology(cfg), integral=False) * 1e6
    oracle = {r.algorithm: r.sum_rate for r in got}.get("oracle", math.inf)
    for r in got:
        assert r.sum_rate <= min(bound, oracle) * (1 + 1e-9), r


def relabeling(net, seed):
    """(tx, rb): random orders of ``net``'s transmitters and RBs, drawn
    from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    return rng.permutation(net.num_tx), rng.permutation(net.num_rb)


def relabeled(net, tx, rb):
    """``net`` rebuilt by ``make_network`` with transmitter ``tx[i]`` as i
    and RB ``rb[j]`` as j: every gain permuted along each axis, and the
    per-RB caps.  The positions, which nothing computes from, are kept."""
    return make_network(
        net.config, net.mue_pos, net.sbs_pos, net.sue_pos, net.d2d_tx_pos, net.d2d_rx_pos,
        net.gain_ul[np.ix_(tx, tx, rb)], net.gain_mbs_ul[np.ix_(tx, rb)],
        net.gain_mue[tx][:, :, rb], net.gain_mbs_mue[:, rb], net.power_levels,
        net.i_max[rb], net.mbs_power, net.sigma2, net.w1, net.w2, net.rb_bandwidth)


@pytest.mark.parametrize("overrides, seeds", [({}, range(20)), (POOLS["mid-k10"], range(5))],
                         ids=["default", "mid-k10"])
def test_relabeling_keeps_the_oracle_rate(overrides, seeds):
    cfg = config(overrides)
    for seed in seeds:
        net = drop(cfg, seed)
        rate = exhaustive_search(net)[1]
        again = exhaustive_search(relabeled(net, *relabeling(net, seed)))[1]
        assert rate > 0 and again == pytest.approx(rate, rel=1e-12, abs=0), seed


BOUND_CASES = (
    [pytest.param(POOLS["mid-k10"], s, integral, id=f"mid-k10-s{s}-{'milp' if integral else 'lp'}")
     for s in range(6) for integral in (False, True)]
    + [pytest.param(POOLS[f"wide-{name}"], s, False, id=f"{name}-s{s}-lp")
       for name in ("k50-loose", "k50-tight") for s in range(3)])


@pytest.mark.parametrize("overrides, seed, integral", BOUND_CASES)
def test_bound_passes_the_scale_and_relabeling_gates(overrides, seed, integral):
    cfg = dataclasses.replace(config(overrides), seed=seed)
    net = build_topology(cfg)
    bound = rate_bound(net, integral)
    assert bound > 0
    for e in (3, -5):
        assert rate_bound(build_topology(scaled(cfg, e)), integral) == bound, e
    again = rate_bound(relabeled(net, *relabeling(net, seed)), integral)
    assert again == pytest.approx(bound, rel=1e-9, abs=0)


@pytest.mark.parametrize("overrides, seeds", [(POOLS["mid-k10"], range(10)),
                                               (POOLS["wide-k50-loose"], range(3)),
                                               (POOLS["wide-k50-tight"], range(3))],
                         ids=["mid-k10", "k50-loose", "k50-tight"])
def test_greedy_passes_the_scale_and_relabeling_gates(overrides, seeds):
    for seed in seeds:
        cfg = dataclasses.replace(config(overrides), seed=seed)
        net = build_topology(cfg)
        want = greedy(net)
        assert want.num_assigned() > 0, seed
        for e in (3, -5):
            got = greedy(build_topology(scaled(cfg, e)))
            assert np.array_equal(got.rb, want.rb) and np.array_equal(got.level, want.level), \
                (seed, e)
        tx, rb = relabeling(net, seed)
        got = greedy(relabeled(net, tx, rb))
        # New transmitter i is old tx[i]; old RB n is new RB argsort(rb)[n].
        old = want.rb[tx]
        assert np.array_equal(got.rb, np.where(old >= 0, np.argsort(rb)[old], -1)), seed
        assert np.array_equal(got.level, want.level[tx]), seed
