import numpy as np
import pytest

from hetalloc import netmodel
from hetalloc.allocation import start_alignment
from hetalloc.matching import preference_orders


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


@pytest.fixture
def tiny_config():
    return netmodel.ScenarioConfig(
        seed=1, cell_radius=250.0, num_mue=2, num_sbs=1, num_d2d=1, num_rb=2,
        power_levels=(0.1, 0.5), mbs_power=10.0, noise_psd=3.98e-21,
        pathloss_exp=3.0, i_max=1e-7, w1=1.0, w2=0.5,
        d2d_max_dist=25.0, sbs_ue_max_dist=35.0)
