import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import reference
from hetalloc import netmodel
from hetalloc.allocation import Allocation
from hetalloc.netmodel import (ConfigError, ScenarioConfig, aggregated_interference,
                               build_topology, macro_sinrs, shannon_rate,
                               sinr_underlay, utility_table)

from conftest import toy_network


def make_config(**overrides):
    base = dict(seed=42, cell_radius=300.0, num_mue=3, num_sbs=2, num_d2d=1,
                num_rb=3, power_levels=(0.1, 0.5), mbs_power=10.0,
                noise_psd=3.98e-21, pathloss_exp=3.0, i_max=1e-7,
                w1=1.0, w2=0.5, d2d_max_dist=25.0, sbs_ue_max_dist=30.0)
    base.update(overrides)
    return ScenarioConfig(**base)


# --- config validation -------------------------------------------------

def test_config_defaults_rb_bandwidth():
    assert make_config().rb_bandwidth == 180e3


@pytest.mark.parametrize("bad", [
    dict(num_mue=0),
    dict(num_rb=0),
    dict(num_sbs=0, num_d2d=0),
    dict(power_levels=()),
    dict(power_levels=(0.5, 0.1)),
    dict(power_levels=(0.1, 0.1)),
    dict(power_levels=(-0.1, 0.5)),
    dict(pathloss_exp=2.0),
    dict(i_max=0.0),
    dict(i_max=(1e-7, 1e-7)),  # wrong length for num_rb=3
    dict(cell_radius=-1.0),
    dict(seed=-1),
    dict(seed=2.5),
    dict(seed=True),
    dict(num_rb=2.0),
    dict(num_sbs=1.5),
    dict(w1="x"),
    dict(w2=None),
    dict(cell_radius=True),
    dict(mbs_power=float("nan")),
    dict(noise_psd=float("inf")),
    dict(rb_bandwidth=10 ** 400),
    dict(i_max=float("nan")),
    dict(i_max=(1e-7, float("nan"), 1e-7)),
    dict(i_max=True),
    dict(power_levels=(0.1, float("nan"))),
    dict(power_levels=(True,)),
    # no point of a disk of radius <= MIN_LINK_DIST is that far from its centre
    dict(cell_radius=1.0),
    dict(d2d_max_dist=0.5),
    dict(sbs_ue_max_dist=netmodel.MIN_LINK_DIST),
])
def test_config_rejects_invalid(bad):
    with pytest.raises(ConfigError, match=next(iter(bad))):  # the error names the field
        make_config(**bad)


def test_config_per_rb_i_max():
    cfg = make_config(i_max=(1e-7, 2e-7, 3e-7))
    assert cfg.i_max_array().tolist() == [1e-7, 2e-7, 3e-7]


# --- channel gain -------------------------------------------------------

def test_channel_gain_units():
    assert reference.channel_gain(1.0, 1.0, 3.0) == 1.0
    assert reference.channel_gain(1.0, 2.0, 3.0) == 0.125


def test_channel_gain_high_precision_reference():
    # independent arbitrary-precision evaluation of beta * d^-alpha
    import mpmath
    mpmath.mp.dps = 50
    expected = float(mpmath.mpf("0.7") * mpmath.power(35, mpmath.mpf("-3.5")))
    got = reference.channel_gain(0.7, 35.0, 3.5)
    assert got == pytest.approx(expected, rel=1e-12)


def test_channel_gain_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        reference.channel_gain(1.0, 0.0, 3.0)
    with pytest.raises(ValueError):
        reference.channel_gain(1.0, -2.0, 3.0)


@given(beta=st.floats(1e-3, 1e3), alpha=st.floats(2.1, 5.0),
       d1=st.floats(1.0, 1e3), d2=st.floats(1.0, 1e3))
def test_channel_gain_monotone_in_distance(beta, alpha, d1, d2):
    lo, hi = sorted((d1, d2))
    if lo < hi:
        assert reference.channel_gain(beta, lo, alpha) > reference.channel_gain(beta, hi, alpha)


@given(b1=st.floats(1e-3, 1e3), b2=st.floats(1e-3, 1e3),
       d=st.floats(1.0, 1e3), alpha=st.floats(2.1, 5.0))
def test_channel_gain_monotone_in_fading(b1, b2, d, alpha):
    lo, hi = sorted((b1, b2))
    if lo < hi:
        assert reference.channel_gain(lo, d, alpha) < reference.channel_gain(hi, d, alpha)


# --- topology -----------------------------------------------------------

def test_build_topology_deterministic():
    cfg = make_config()
    assert reference.checksum(build_topology(cfg)) == reference.checksum(build_topology(cfg))


def test_build_topology_seed_changes_drop():
    cfg = make_config()
    other = dataclasses.replace(cfg, seed=43)
    assert reference.checksum(build_topology(cfg)) != reference.checksum(build_topology(other))


def test_build_topology_without_d2d():
    net = build_topology(make_config(num_d2d=0))
    assert net.num_tx == 2  # SBS transmitters only


def test_build_topology_reference_users():
    net = build_topology(make_config(num_mue=3, num_sbs=2, num_d2d=1))
    assert net.num_tx == 3
    # recompute the argmax over MUE gains independently of the stored fields
    for k in range(net.num_tx):
        for n in range(net.num_rb):
            gains = [net.gain_mue[k, m, n] for m in range(net.gain_mbs_mue.shape[0])]
            m_star = max(range(net.gain_mbs_mue.shape[0]), key=lambda m: gains[m])
            assert net.ref_mue[k, n] == m_star
            assert net.ref_gain[k, n] == gains[m_star]
            assert 0 <= net.ref_mue[k, n] < 3


def test_build_topology_link_distances_at_least_one_meter():
    net = build_topology(make_config(cell_radius=50.0))
    tx = np.vstack([net.sbs_pos, net.d2d_tx_pos])
    rx = np.vstack([net.sue_pos, net.d2d_rx_pos])
    anchors = np.vstack([np.zeros((1, 2)), tx])
    for pts in (net.mue_pos, rx):
        for p in pts:
            assert np.linalg.norm(anchors - p, axis=1).min() >= 1.0


def min_radius(K):
    """The smallest radius R with R^2 >= 2 (K + 1) MIN_LINK_DIST^2, the
    least receiver disk that validate admits at K transmitters."""
    floor = 2 * (K + 1) * netmodel.MIN_LINK_DIST ** 2
    r = math.sqrt(floor)
    while r * r < floor:
        r = math.nextafter(r, math.inf)
    return r


def test_validate_admits_the_least_radius_only():
    for K in (1, 5, 50):
        split = dict(num_sbs=K // 2, num_d2d=K - K // 2)
        for name in ("cell_radius", "d2d_max_dist", "sbs_ue_max_dist"):
            make_config(**split, **{name: min_radius(K)})
            with pytest.raises(ConfigError, match=f"{name} must be >= sqrt"):
                make_config(**split, **{name: math.nextafter(min_radius(K), 0.0)})


def assert_same_drop(net, want):
    for f in ("mue_pos", "sbs_pos", "sue_pos", "d2d_tx_pos", "d2d_rx_pos"):
        a, b = getattr(net, f), getattr(want, f)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), f
    assert reference.checksum(net) == reference.checksum(want)


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_build_topology_equals_one_at_a_time_placement(K):
    # Receiver disks of 6 m, and of the least radius validate admits (the
    # macro disk too, which crowds every transmitter near the MBS): up to
    # half of a disk fails a try, so many receivers take several tries,
    # and the block placement must line up with the scalar one throughout.
    r = min_radius(K)
    tries = []
    for seed in range(50):
        for radii in (dict(d2d_max_dist=6.0, sbs_ue_max_dist=6.0),
                      dict(cell_radius=r, d2d_max_dist=r, sbs_ue_max_dist=r)):
            cfg = make_config(seed=seed, num_sbs=K // 2, num_d2d=K - K // 2, **radii)
            assert_same_drop(build_topology(cfg), reference.build_topology(cfg, tries))
    kinds = {label.rsplit(" ", 1)[0] for label in tries}
    assert kinds == ({"MUE", "SUE", "D2D receiver"} if K > 1 else {"MUE", "D2D receiver"})
    assert len(tries) >= 100  # failed tries over the 100 drops


def test_place_receivers_names_the_receiver_it_cannot_place():
    # D2D receiver 1's disk lies within MIN_LINK_DIST of its transmitter, so
    # every try fails; the error names it after MAX_PLACE_TRIES tries, with
    # as many doubles drawn as the one-at-a-time tries draw.
    anchors = np.array([[0.0, 0.0], [100.0, 0.0], [200.0, 0.0], [300.0, 0.0]])
    radii = np.array([50.0, 50.0, 50.0, 0.5])
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    with pytest.raises(ConfigError) as err:
        netmodel._place_receivers(rng, anchors, radii, anchors,
                                  (("MUE", 1), ("SUE", 1), ("D2D receiver", 2)))
    assert str(err.value) == (f"could not place D2D receiver 1 at 1.0 m from all "
                              f"transmitters after {netmodel.MAX_PLACE_TRIES} tries")
    tries = []
    for center, radius in zip(anchors[:3], radii[:3]):
        reference.sample_receiver(ref_rng, center, radius, anchors, "", tries)
    with pytest.raises(ConfigError, match=re.escape(str(err.value))):
        reference.sample_receiver(ref_rng, anchors[3], radii[3], anchors,
                                  "D2D receiver 1", tries)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_place_receivers_counts_tries_per_receiver(monkeypatch):
    # With two tries per receiver, on disks where up to half of a try
    # fails, placement stops at exactly the receiver and the try where
    # the one-at-a-time placement gives up.
    monkeypatch.setattr(netmodel, "MAX_PLACE_TRIES", 2)
    r = min_radius(5)
    outcomes = set()
    for seed in range(60):
        cfg = make_config(seed=seed, num_sbs=2, num_d2d=3, cell_radius=r,
                          d2d_max_dist=r, sbs_ue_max_dist=r)
        try:
            want = reference.build_topology(cfg)
        except ConfigError as exc:
            with pytest.raises(ConfigError, match=f"^{re.escape(str(exc))}$"):
                build_topology(cfg)
            outcomes.add(str(exc).split(" at ")[0])
        else:
            assert_same_drop(build_topology(cfg), want)
            outcomes.add("placed")
    assert "placed" in outcomes and len(outcomes) >= 3


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), num_mue=st.integers(1, 4),
       num_sbs=st.integers(0, 5), num_d2d=st.integers(0, 5),
       scales=st.lists(st.one_of(st.just(1.0), st.floats(0.9, 3.0)), min_size=3, max_size=3))
def test_every_valid_config_builds_a_topology(seed, num_mue, num_sbs, num_d2d, scales):
    # validate's radius bound caps the chance that a receiver fails all
    # MAX_PLACE_TRIES tries at 2^-1000, so every config it admits builds.
    K = num_sbs + num_d2d
    assume(K >= 1)
    radii = dict(zip(("cell_radius", "d2d_max_dist", "sbs_ue_max_dist"),
                     (min_radius(K) * s for s in scales)))
    try:
        cfg = make_config(seed=seed, num_mue=num_mue, num_sbs=num_sbs, num_d2d=num_d2d, **radii)
    except ConfigError:
        assume(False)
    net = build_topology(cfg)
    assert net.num_tx == K and net.gain_mbs_mue.shape[0] == num_mue


def test_sigma2_is_noise_density_times_bandwidth():
    cfg = make_config()
    net = build_topology(cfg)
    assert net.sigma2 == cfg.noise_psd * cfg.rb_bandwidth


def test_offsets_cached_read_only():
    a = netmodel._offsets(12, 4)
    assert a.tolist() == [0, 4, 8] and a.dtype == np.arange(3).dtype
    assert netmodel._offsets(12, 4) is a  # built once, shared by every caller
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0] = 1


@pytest.mark.parametrize("field", [
    "mue_pos", "sbs_pos", "sue_pos", "d2d_tx_pos", "d2d_rx_pos", "gain_ul", "gain_mbs_ul",
    "gain_mue", "gain_mbs_mue", "power_levels", "i_max", "ref_mue", "ref_gain"])
def test_network_arrays_read_only(field):
    a = getattr(build_topology(make_config()), field)
    assert a.dtype == (np.int64 if field == "ref_mue" else np.float64)
    with pytest.raises(ValueError, match="read-only"):
        a[(0,) * a.ndim] = 1


def test_replace_rederives_reference_users():
    # Scaling MUE m's gains by 10^m moves the strongest MUE of some (k, n)
    # and its gathered gain; the derived pair must follow.
    net = build_topology(make_config(num_mue=3))
    g = net.gain_mue * np.array([1.0, 10.0, 100.0])[:, None]
    assert (np.argmax(g, axis=1) != net.ref_mue).any()
    moved = dataclasses.replace(net, gain_mue=g)
    assert moved.ref_mue.dtype == np.int64
    assert np.array_equal(moved.ref_mue, np.argmax(g, axis=1))
    assert moved.ref_gain.tobytes() == g.max(axis=1).tobytes()


@pytest.mark.parametrize("field", ["ref_mue", "ref_gain"])
def test_reference_users_are_not_arguments(field):
    net = build_topology(make_config())
    inputs = {f.name: getattr(net, f.name) for f in dataclasses.fields(net) if f.init}
    netmodel.Network(**inputs)
    with pytest.raises(TypeError, match=field):
        netmodel.Network(**inputs, **{field: getattr(net, field)})
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(net, **{field: getattr(net, field)})


def test_network_takes_ints_and_lists():
    net = netmodel.Network(
        None, [[0, 1]], [[2, 3]], [[4, 5]], [[6, 7]], [[8, 9]],
        [[[1], [2]], [[3], [4]]], [[1], [1]], [[[5]], [[6]]], [[1]],
        [1, 2], [3], 4, 1, 1, 0, 180000)
    for f in dataclasses.fields(net):
        value = getattr(net, f.name)
        if isinstance(value, np.ndarray):
            assert value.dtype == (np.int64 if f.name == "ref_mue" else np.float64), f.name
    scalars = (net.mbs_power, net.sigma2, net.w1, net.w2, net.rb_bandwidth)
    assert [type(x) for x in scalars] == [float] * 5 and scalars == (4.0, 1.0, 1.0, 0.0, 180e3)
    assert net.ref_mue.tolist() == [[0], [0]] and net.ref_gain.tolist() == [[5.0], [6.0]]


def test_gains_positive():
    net = build_topology(make_config())
    for a in (net.gain_ul, net.gain_mbs_ul, net.gain_mue, net.gain_mbs_mue):
        assert (a > 0).all()


# --- SINR and rate ------------------------------------------------------

def two_tx_net(**kw):
    gain_ul = np.array([[[2.0], [0.25]],
                        [[0.5], [3.0]]])  # [tx, victim rx, rb]
    gain_mue = np.array([[[0.6]], [[0.7]]])
    gain_mbs_ul = np.array([[0.1], [0.2]])
    gain_mbs_mue = np.array([[5.0]])
    args = dict(power_levels=(2.0,), i_max=10.0, mbs_power=4.0, sigma2=1.0)
    args.update(kw)
    return toy_network(gain_ul, gain_mue, gain_mbs_ul, gain_mbs_mue, **args)


def test_sinr_underlay_no_interference():
    net = toy_network(np.array([[[1.0]]]), np.array([[[0.5]]]),
                      gain_mbs_ul=np.array([[1e-30]]), power_levels=(1.0,),
                      sigma2=1.0)
    alloc = Allocation(1, [(0, 0)])
    assert sinr_underlay(net, alloc)[0] == pytest.approx(1.0, rel=1e-12)


def test_sinr_underlay_two_transmitters_hand_value():
    net = two_tx_net()
    alloc = Allocation(2, [(0, 0), (0, 0)])
    # transmitter 0: signal 2*2, macro 0.1*4, co-channel 0.5*2, noise 1
    assert sinr_underlay(net, alloc)[0] == pytest.approx(4.0 / 2.4, rel=1e-12)
    assert sinr_underlay(net, alloc)[1] == pytest.approx(6.0 / (0.8 + 0.5 + 1.0), rel=1e-12)


def test_sinr_underlay_decreases_with_cochannel_interferer():
    net = two_tx_net()
    alone = sinr_underlay(net, Allocation(2, {0: (0, 0)}))[0]
    shared = sinr_underlay(net, Allocation(2, [(0, 0), (0, 0)]))[0]
    assert shared < alone


def test_sinr_underlay_decreases_when_interferer_power_rises():
    net = two_tx_net(power_levels=(1.0, 2.0))
    low = sinr_underlay(net, Allocation(2, [(0, 0), (0, 0)]))[0]
    high = sinr_underlay(net, Allocation(2, [(0, 0), (0, 1)]))[0]
    assert high < low


def test_sinr_macro_idle_underlay():
    net = two_tx_net()
    assert macro_sinrs(net, Allocation(2))[0, 0] == pytest.approx(5.0 * 4.0 / 1.0, rel=1e-12)


def test_sinr_macro_hand_value():
    net = two_tx_net()
    alloc = Allocation(2, [(0, 0), (0, 0)])
    # denominator: 0.6*2 + 0.7*2 + 1
    assert macro_sinrs(net, alloc)[0, 0] == pytest.approx(20.0 / 3.6, rel=1e-12)


def test_shannon_rate_values():
    assert shannon_rate(0.0, 1e6) == 0.0
    assert shannon_rate(1.0, 1.0) == 1.0
    assert shannon_rate(3.0, 180e3) == pytest.approx(360e3, rel=1e-12)


def test_shannon_rate_rejects_negative_sinr():
    with pytest.raises(ValueError):
        shannon_rate(-0.1, 180e3)


@given(s1=st.floats(1e-9, 1e6), s2=st.floats(1e-9, 1e6))
def test_shannon_rate_monotone(s1, s2):
    lo, hi = sorted((s1, s2))
    if lo * (1 + 1e-12) < hi:
        assert shannon_rate(lo, 180e3) < shannon_rate(hi, 180e3)


# --- aggregated interference -------------------------------------------

def test_aggregated_interference_empty():
    net = two_tx_net()
    assert aggregated_interference(net, Allocation(2), 0) == 0.0


def test_aggregated_interference_single():
    net = two_tx_net()
    alloc = Allocation(2, {1: (0, 0)})
    assert aggregated_interference(net, alloc, 0) == pytest.approx(0.7 * 2.0, rel=1e-12)


def test_aggregated_interference_matches_indicator_tensor():
    rng = np.random.default_rng(5)
    K, C, N, L = 5, 2, 3, 2
    net = toy_network(rng.uniform(0.1, 2.0, (K, K, N)),
                      rng.uniform(0.1, 2.0, (K, C, N)),
                      gain_mbs_ul=rng.uniform(0.01, 0.1, (K, N)),
                      gain_mbs_mue=rng.uniform(0.1, 2.0, (C, N)),
                      power_levels=(0.5, 1.5), i_max=100.0)
    alloc = Allocation(K)
    for k in range(K):
        if rng.uniform() < 0.8:
            alloc.assign(k, rng.integers(N), rng.integers(L))
    x = reference.indicator(alloc, N, L)
    for n in range(N):
        brute = 0.0
        for k in range(K):
            for l in range(L):
                brute += x[k, n, l] * net.ref_gain[k, n] * net.power_levels[l]
        assert aggregated_interference(net, alloc, n) == pytest.approx(brute, rel=1e-12)


def test_aggregated_interference_additive():
    net = two_tx_net()
    a0 = Allocation(2, {0: (0, 0)})
    a1 = Allocation(2, {1: (0, 0)})
    both = Allocation(2, [(0, 0), (0, 0)])
    assert aggregated_interference(net, both, 0) == pytest.approx(
        aggregated_interference(net, a0, 0) + aggregated_interference(net, a1, 0), rel=1e-12)


# --- utility ------------------------------------------------------------

def test_utility_rate_only():
    net = two_tx_net(w1=1.0, w2=0.0)
    alloc = Allocation(2)
    expected = math.log2(1.0 + 4.0 / 1.4)  # macro 0.4 + noise 1.0
    assert reference.utility(net, alloc, 0, (0, 0)) == pytest.approx(expected, rel=1e-12)


def test_utility_interference_boundary():
    # empty RB and own contribution hitting the cap exactly gives zero
    net = two_tx_net(w1=0.0, w2=1.0, i_max=1.4)  # 0.7 * 2.0 = 1.4
    assert reference.utility(net, Allocation(2), 1, (0, 0)) == pytest.approx(0.0, abs=1e-15)


def test_utility_mixed_hand_value():
    net = two_tx_net(w1=2.0, w2=0.5, i_max=10.0)
    alloc = Allocation(2, {1: (0, 0)})  # transmitter 1 already on the RB
    gamma = 4.0 / (0.4 + 0.5 * 2.0 + 1.0)
    overage = (0.6 * 2.0 + 0.7 * 2.0) / 10.0 - 1.0
    expected = 2.0 * math.log2(1.0 + gamma) - 0.5 * overage
    assert reference.utility(net, alloc, 0, (0, 0)) == pytest.approx(expected, rel=1e-12)


def test_utility_excludes_own_previous_assignment():
    net = two_tx_net(w1=1.0, w2=0.0)
    idle = Allocation(2)
    moved = Allocation(2, {0: (0, 0)})  # k0's own entry must not self-interfere
    assert reference.utility(net, idle, 0, (0, 0)) == reference.utility(net, moved, 0, (0, 0))


def test_utility_table_matches_scalar():
    rng = np.random.default_rng(11)
    K, C, N, L = 4, 3, 3, 2
    net = toy_network(rng.uniform(0.1, 2.0, (K, K, N)),
                      rng.uniform(0.1, 2.0, (K, C, N)),
                      gain_mbs_ul=rng.uniform(0.01, 0.1, (K, N)),
                      gain_mbs_mue=rng.uniform(0.1, 2.0, (C, N)),
                      power_levels=(0.5, 1.5), i_max=3.0, w1=1.3, w2=0.7)
    alloc = Allocation(K, [(0, 1), None, (2, 0), (0, 0)])
    table = utility_table(net, alloc)
    for k in range(K):
        for n in range(N):
            for l in range(L):
                assert table[k, n, l] == pytest.approx(
                    reference.utility(net, alloc, k, (n, l)), rel=1e-12)
    # utility decomposes exactly into benefit minus cost
    np.testing.assert_array_equal(
        table, reference.library_table(net, alloc, "benefit")
        - reference.library_table(net, alloc, "cost"))
