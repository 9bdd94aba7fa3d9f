import dataclasses
import functools

import numpy as np
import pytest

from hetalloc import netmodel
from hetalloc.allocation import start_alignment
from hetalloc.matching import preference_orders
from hetalloc.netmodel import build_topology


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


def benefit_planes(table):
    """A (K, N, L) benefit table as the (L, K*N) planes, entry (l, k*N + n),
    that ``local_auction_round`` reads."""
    K, N, L = table.shape
    return np.ascontiguousarray(table.reshape(K * N, L).T)


def round_orders(net, res):
    """Yield (orders, allocation) for each round of a ``run_stable_matching``
    result, rebuilding the round's orders from the allocation before it."""
    prev = start_alignment(net)
    for alloc in res.info["allocations"]:
        yield preference_orders(netmodel.utility_table(net, prev)), alloc
        prev = alloc


# --- drops chosen by the path they test -----------------------------------

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
    return tuple(s for s in seeds if path(build_topology(dataclasses.replace(cfg, seed=s))))


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
