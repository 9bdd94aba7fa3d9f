"""The scenarios the tests share, and every helper more than one test
module uses: no test module imports another, and the pools are checked
against bench/run.py's workloads (both in test_harness)."""

import dataclasses
import functools
import hashlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import reference
from hetalloc import matching, netmodel
from hetalloc.allocation import start_alignment
from hetalloc.harness import load_scenario
from hetalloc.matching import run_stable_matching
from hetalloc.netmodel import ScenarioConfig, build_topology

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

# --- scenarios ----------------------------------------------------------------

_L3 = (0.05, 0.2, 1.0)
_L4 = (0.02, 0.05, 0.2, 1.0)
_WIDE = dict(num_sbs=30, num_d2d=20, num_rb=25, power_levels=_L4)
_K200 = dict(num_sbs=120, num_d2d=80, num_rb=50, power_levels=_L4)

# Overrides of scenarios/default.json, by pool name: bench/run.py's four
# workloads (BENCH), whose pools tests/pins.py pins, and the solver quality
# report's two K=200 sizes.
POOLS = {
    "oracle-k4": dict(num_sbs=2, num_d2d=2, num_rb=4, power_levels=_L3, i_max=1e-7),
    "mid-k10": dict(num_sbs=6, num_d2d=4, num_rb=8, power_levels=_L3, i_max=1e-7),
    "wide-k50-loose": dict(_WIDE, i_max=1e-6),
    "wide-k50-tight": dict(_WIDE, i_max=1e-8),
    "k200-loose": dict(_K200, i_max=1e-6),
    "k200-tight": dict(_K200, i_max=1e-8),
}
BENCH = ("oracle-k4", "mid-k10", "wide-k50-loose", "wide-k50-tight")
# The t_max each pool's solvers run with: bench/run.py's for its workloads.
T_MAX = {"oracle-k4": 500, "mid-k10": 500, "wide-k50-loose": 100, "wide-k50-tight": 100,
         "k200-loose": 100, "k200-tight": 100}

# The desk-scale drop family (K=5, N=6, L=3) of the acceptance criteria.
DESK = ScenarioConfig(
    seed=7, cell_radius=400.0, num_mue=3, num_sbs=3, num_d2d=2, num_rb=6,
    power_levels=(0.05, 0.2, 1.0), mbs_power=10.0, noise_psd=3.98e-21,
    pathloss_exp=3.0, i_max=1e-7, w1=1.0, w2=0.5,
    d2d_max_dist=30.0, sbs_ue_max_dist=40.0)


def config(overrides):
    """``scenarios/default.json`` with ``overrides`` applied."""
    return dataclasses.replace(load_scenario(SCENARIOS / "default.json"), **overrides)


def make_config(**overrides):
    """A small base (K=3 in a 300 m cell, a 25 m D2D disk) with ``overrides``."""
    base = dict(seed=42, cell_radius=300.0, num_mue=3, num_sbs=2, num_d2d=1,
                num_rb=3, power_levels=(0.1, 0.5), mbs_power=10.0,
                noise_psd=3.98e-21, pathloss_exp=3.0, i_max=1e-7,
                w1=1.0, w2=0.5, d2d_max_dist=25.0, sbs_ue_max_dist=30.0)
    base.update(overrides)
    return ScenarioConfig(**base)


def drop(cfg, seed):
    """The drop of ``cfg`` at ``seed``."""
    return build_topology(dataclasses.replace(cfg, seed=seed))


# --- hand-specified drops -----------------------------------------------------

def toy_network(gain_ul, gain_mue, gain_mbs_ul=None, gain_mbs_mue=None,
                power_levels=(1.0,), i_max=1.0, mbs_power=1.0, sigma2=1.0,
                w1=1.0, w2=0.0, rb_bandwidth=180e3):
    """Hand-specified drop for oracle-style tests; positions are dummies."""
    gain_ul = np.asarray(gain_ul, dtype=float)
    gain_mue = np.asarray(gain_mue, dtype=float)
    K, _, N = gain_ul.shape
    C = gain_mue.shape[1]
    if gain_mbs_ul is None:
        gain_mbs_ul = np.full((K, N), 1e-12)
    if gain_mbs_mue is None:
        gain_mbs_mue = np.full((C, N), 1.0)
    i_max_arr = np.full(N, i_max, dtype=float) if np.isscalar(i_max) else np.asarray(i_max, float)
    zeros = np.zeros((0, 2))
    return netmodel.make_network(
        None, np.zeros((C, 2)), zeros, zeros, np.zeros((K, 2)), np.zeros((K, 2)),
        gain_ul, gain_mbs_ul, gain_mue, gain_mbs_mue,
        power_levels, i_max_arr, mbs_power, sigma2, w1, w2, rb_bandwidth)


def two_tx_net(**kw):
    gain_ul = np.array([[[2.0], [0.25]],
                        [[0.5], [3.0]]])  # [tx, victim rx, rb]
    gain_mue = np.array([[[0.6]], [[0.7]]])
    gain_mbs_ul = np.array([[0.1], [0.2]])
    gain_mbs_mue = np.array([[5.0]])
    args = dict(power_levels=(2.0,), i_max=10.0, mbs_power=4.0, sigma2=1.0)
    args.update(kw)
    return toy_network(gain_ul, gain_mue, gain_mbs_ul, gain_mbs_mue, **args)


# --- shared helpers -----------------------------------------------------------

def benefit_planes(table):
    """A (K, N, L) benefit table as the (L, K*N) planes, entry (l, k*N + n),
    that ``local_auction_round`` reads."""
    K, N, L = table.shape
    return np.ascontiguousarray(table.reshape(K * N, L).T)


def rounds(net, res):
    """Yield (prev, allocation) for each round of a ``run_stable_matching``
    result: the allocation the round started from (``start_alignment``
    for round 1) and the one its inner matching returned."""
    prev = start_alignment(net)
    for alloc in res.info["allocations"]:
        yield prev, alloc
        prev = alloc


def profile_families(net, prev):
    """The reference profiles of the matching round that starts from
    ``prev``: one per transmitter and one per RB, both ranked by
    ``netmodel.utility_table(net, prev)``."""
    util = netmodel.utility_table(net, prev)
    return ([reference.profile(("tx", k), util[k]) for k in range(net.num_tx)],
            [reference.profile(("rb", n), util[:, n, :]) for n in range(net.num_rb)])


def order_keys(orders, K, N, L):
    """``preference_orders`` as profile keys: (n, l) per transmitter, (k, l) per
    RB.  An RB's order is its alignments sorted by (-u[s], s), and
    ``matching._struck`` must rank each entry strictly below the one before."""
    NL = N * L
    tx_order, util = orders
    assert util.shape == (K, N, L)
    u = util.ravel().tolist()
    assert all(sorted(tx_order[k * NL:(k + 1) * NL]) == list(range(k * NL, (k + 1) * NL))
               for k in range(K))
    rb_order = [sorted((k * NL + n * L + l for k in range(K) for l in range(L)),
                       key=lambda s: (-u[s], s)) for n in range(N)]
    assert all(matching._struck(u, b, a) and not matching._struck(u, a, b)
               for order in rb_order for a, b in zip(order, order[1:]))
    tx = [[divmod(s % NL, L) for s in tx_order[k * NL:(k + 1) * NL]] for k in range(K)]
    rb = [[(s // NL, s % L) for s in rb_order[n]] for n in range(N)]
    return tx, rb


def order_bytes(orders):
    """A snapshot of ``preference_orders`` that compares by value."""
    tx_order, util = orders
    return list(tx_order), util.tobytes()


def count_calls(monkeypatch, steps):
    """A Counter of the calls, keyed ``module.attr``, that reach each of
    ``steps``, (module, attr) pairs, through the module attribute, as the
    benchmark tracer's swap does."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, attr in steps:
        name = f"{owner.__name__}.{attr}"
        monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))
    return calls


def rows_sha256(rows):
    h = hashlib.sha256()
    for r in rows:
        h.update((repr(dataclasses.astuple(dataclasses.replace(r, wall_time_ms=None)))
                  + "\n").encode())
    return h.hexdigest()


# --- drops chosen by the path they test -----------------------------------

def matching_cycles(net):
    """The drop's matching never converges: from some round on, every
    allocation equals one computed before it, and the run replays them."""
    return run_stable_matching(net, t_max=500).info["cycle"] is not None


@functools.lru_cache(maxsize=None)
def drops_where(cfg, path, seeds=range(40)):
    """The seeds in ``seeds`` whose drop of ``cfg`` shows ``path``, computed
    once per session.

    A test that needs a drop on some path (a cycle, an eviction, a blocked
    bid, a zero-gap hit) takes its drops from here instead of naming seeds,
    and fails when the range holds none.  ``path(net)`` reads only the
    observable the test names, never a rate or a ratio, so a change that
    moves answers re-pins tests/pins.py alone, and one that removes the
    path fails the test rather than skipping it."""
    return tuple(s for s in seeds if path(drop(cfg, s)))


def drop_params(path, cases, seeds=range(40)):
    """One pytest param per drop that shows ``path``: the drop's config.
    ``cases`` maps an id prefix to a base config, and each param's id is
    its prefix and seed.  When no drop shows the path, the one param is
    marked ``no_drop`` and fails in setup."""
    params = [pytest.param(dataclasses.replace(cfg, seed=s), id=f"{prefix}{s}")
              for prefix, cfg in cases.items() for s in drops_where(cfg, path, seeds)]
    return params or [pytest.param(None, id=f"no-{path.__name__}-drop-in-{min(seeds)}..{max(seeds)}",
                                   marks=pytest.mark.no_drop)]


def pytest_configure(config):
    config.addinivalue_line("markers", "no_drop: the seed range holds no drop on the test's path")


def pytest_runtest_setup(item):
    if item.get_closest_marker("no_drop"):
        pytest.fail(f"{item.name}: the seed range holds no drop on this path")
