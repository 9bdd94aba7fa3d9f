"""Physical-layer model for a two-tier cellular drop.

One macro base station (MBS) at the origin serves C macro users (MUEs) on N
orthogonal resource blocks (RBs).  K = S + D underlay transmitters (S
small-cell base stations, each serving one small-cell UE, plus D
device-to-device transmitters, each serving its paired receiver) reuse the
same RBs, choosing one RB and one of L discrete transmit powers.  The
(RB, power level) pair is the atomic resource, called a transmission
alignment.

A Network is one random realization of the geometry and fading (a "drop").
Gains are frozen after construction (block fading), so a drop can be shared
read-only between concurrent solver runs.  All quantities are linear:
watts, Hz, meters.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

MAX_PLACE_TRIES = 1000
MIN_LINK_DIST = 1.0  # meters; keeps path-loss gains finite


class ConfigError(ValueError):
    """A scenario parameter violates an invariant."""


def _finite_real(name, value):
    """``value`` as a float; a ConfigError naming ``name`` unless it is a
    finite real number and not a bool."""
    try:
        if (not isinstance(value, bool) and isinstance(value, numbers.Real)
                and math.isfinite(value)):
            return float(value)
    except OverflowError:  # an int beyond the float range
        pass
    raise ConfigError(f"{name} must be a finite real number, got {value!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of one simulation scenario.

    ``power_levels`` is the table of allowed underlay transmit powers in
    watts; a power-level index always refers to this table.  ``i_max`` is
    the per-RB cap on aggregated reference-user interference, either one
    scalar applied to every RB or a per-RB sequence of length ``num_rb``.
    """

    seed: int
    cell_radius: float
    num_mue: int
    num_sbs: int
    num_d2d: int
    num_rb: int
    power_levels: tuple
    mbs_power: float
    noise_psd: float
    pathloss_exp: float
    i_max: object
    w1: float
    w2: float
    d2d_max_dist: float
    sbs_ue_max_dist: float
    rb_bandwidth: float = 180e3  # one LTE RB: 12 subcarriers of 15 kHz

    def __post_init__(self):
        object.__setattr__(self, "power_levels",
                           tuple(_finite_real("power_levels", p) for p in self.power_levels))
        if isinstance(self.i_max, (list, tuple, np.ndarray)):
            object.__setattr__(self, "i_max", tuple(_finite_real("i_max", v) for v in self.i_max))
        else:
            object.__setattr__(self, "i_max", _finite_real("i_max", self.i_max))
        self.validate()

    def validate(self):
        for name in ("seed", "num_mue", "num_sbs", "num_d2d", "num_rb"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("cell_radius", "mbs_power", "noise_psd", "pathloss_exp", "w1", "w2",
                     "d2d_max_dist", "sbs_ue_max_dist", "rb_bandwidth"):
            _finite_real(name, getattr(self, name))
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.num_mue < 1:
            raise ConfigError("num_mue must be >= 1")
        if self.num_rb < 1:
            raise ConfigError("num_rb must be >= 1")
        if self.num_sbs < 0 or self.num_d2d < 0:
            raise ConfigError("num_sbs and num_d2d must be >= 0")
        if self.num_sbs + self.num_d2d < 1:
            raise ConfigError("need at least one underlay transmitter (num_sbs + num_d2d >= 1)")
        if len(self.power_levels) < 1:
            raise ConfigError("power_levels must be non-empty")
        if any(p <= 0 for p in self.power_levels):
            raise ConfigError("power_levels must be > 0")
        if any(b <= a for a, b in zip(self.power_levels, self.power_levels[1:])):
            raise ConfigError("power_levels must be strictly increasing")
        if self.pathloss_exp <= 2:
            raise ConfigError("pathloss_exp must be > 2")
        if isinstance(self.i_max, tuple):
            if len(self.i_max) != self.num_rb:
                raise ConfigError("per-RB i_max must have num_rb entries")
            if any(v <= 0 for v in self.i_max):
                raise ConfigError("i_max entries must be > 0")
        elif self.i_max <= 0:
            raise ConfigError("i_max must be > 0")
        for name in ("mbs_power", "noise_psd", "rb_bandwidth"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        # A try to place a receiver fails only within MIN_LINK_DIST of one
        # of the K + 1 anchors (the MBS and every transmitter), at most a
        # share (K + 1) * MIN_LINK_DIST^2 / R^2 of a disk of radius R.  With
        # R^2 >= 2 (K + 1) MIN_LINK_DIST^2 that share is at most 1/2, so all
        # MAX_PLACE_TRIES tries of one receiver fail with chance <= 2^-1000.
        floor = 2 * (self.num_tx + 1) * MIN_LINK_DIST ** 2
        for name in ("cell_radius", "d2d_max_dist", "sbs_ue_max_dist"):
            radius = getattr(self, name)
            if radius <= 0 or radius * radius < floor:
                raise ConfigError(
                    f"{name} must be >= sqrt(2 (K + 1)) * MIN_LINK_DIST = "
                    f"{math.sqrt(floor):.4g} m at K = {self.num_tx}, so that every "
                    f"receiver can be placed, got {radius!r}")

    @property
    def num_tx(self):
        return self.num_sbs + self.num_d2d

    @property
    def num_levels(self):
        return len(self.power_levels)

    def i_max_array(self):
        if isinstance(self.i_max, tuple):
            return np.asarray(self.i_max, dtype=float)
        return np.full(self.num_rb, self.i_max, dtype=float)


@dataclass(frozen=True)
class Network:
    """One immutable network drop, deriving the per-(k, n) reference MUE.

    Underlay transmitters are indexed 0..K-1 with SBSs first, then D2D
    transmitters; transmitter k serves receiver k (SBS k -> SUE k, D2D
    transmitter d -> its paired receiver).  ``ref_mue[k, n]`` is the MUE
    with the highest gain from k on RB n: capping the interference it sees
    caps the interference at every MUE.  It and ``ref_gain`` are derived
    from ``gain_mue``, by ``dataclasses.replace`` too; neither is an argument.
    """

    config: Optional[ScenarioConfig]
    mue_pos: np.ndarray      # (C, 2)
    sbs_pos: np.ndarray      # (S, 2)
    sue_pos: np.ndarray      # (S, 2)
    d2d_tx_pos: np.ndarray   # (D, 2)
    d2d_rx_pos: np.ndarray   # (D, 2)
    gain_ul: np.ndarray      # (K, K, N): transmitter k -> receiver of transmitter j
    gain_mbs_ul: np.ndarray  # (K, N): MBS -> receiver of transmitter k
    gain_mue: np.ndarray     # (K, C, N): transmitter k -> MUE m
    gain_mbs_mue: np.ndarray  # (C, N)
    power_levels: np.ndarray  # (L,)
    i_max: np.ndarray        # (N,)
    mbs_power: float
    sigma2: float            # noise power per RB: noise_psd * rb_bandwidth
    w1: float
    w2: float
    rb_bandwidth: float
    ref_mue: np.ndarray = field(init=False)   # (K, N) int64
    ref_gain: np.ndarray = field(init=False)  # (K, N): gain_mue[k, ref_mue[k, n], n]

    def __post_init__(self):
        # Read-only float64 views, so writing to a shared drop raises; a
        # caller's float64 array is not copied and keeps its flags.
        for f in fields(self):
            if f.init and f.type == "np.ndarray":
                view = np.asarray(getattr(self, f.name), dtype=float).view()
                object.__setattr__(self, f.name, _read_only(view))
            elif f.type == "float":
                object.__setattr__(self, f.name, float(getattr(self, f.name)))
        ref_mue = np.argmax(self.gain_mue, axis=1).astype(np.int64)  # (K, N)
        object.__setattr__(self, "ref_mue", _read_only(ref_mue))
        object.__setattr__(self, "ref_gain", _read_only(
            np.take_along_axis(self.gain_mue, ref_mue[:, None, :], axis=1)[:, 0, :]))

    @property
    def num_tx(self):
        return self.gain_ul.shape[0]

    @property
    def num_rb(self):
        return self.gain_ul.shape[2]

    @property
    def num_levels(self):
        return len(self.power_levels)

    @property
    def seed(self):
        return self.config.seed if self.config is not None else 0

    # Per-drop constants the tables and the auction read on every round,
    # built on first use.  They are not fields: == ignores them.

    @cached_property
    def mbs_den(self):
        """(K, N): ``gain_mbs_ul * mbs_power``, the MBS power at k's receiver."""
        return _read_only(self.gain_mbs_ul * self.mbs_power)

    @cached_property
    def ref_p(self):
        """(K, N, L): ``ref_gain[k, n] * power_levels[l]``, k's reference-user load."""
        return _read_only(self.ref_gain[:, :, None] * self.power_levels)

    @cached_property
    def start_draw(self):
        """(rb, level), each (K,) int64: the solvers' start state, drawn from
        ``default_rng(seed)`` as ``integers(N)`` then ``integers(L)`` per
        transmitter, ascending k.  One broadcast call draws them all: bounds
        ``[N, L, N, L, ...]`` give the values of those scalar calls in the
        same order."""
        K = self.num_tx
        draw = np.random.default_rng(self.seed).integers(
            0, np.tile([self.num_rb, self.num_levels], K)).reshape(K, 2)
        return _read_only(draw[:, 0].copy()), _read_only(draw[:, 1].copy())

    @cached_property
    def sig_pt(self):
        """(L, K*N): ``power_levels[l] * gain_ul[k, k, n]`` at (l, k*N + n), k's own signal."""
        k = np.arange(self.num_tx)
        return _read_only(self.power_levels[:, None] * self.gain_ul[k, k, :].reshape(-1))

    @cached_property
    def ref_pt(self):
        """(L, K*N): ``ref_p`` with the power level first."""
        return _read_only(self.power_levels[:, None] * self.ref_gain.reshape(-1))

    @cached_property
    def gain_rows(self):
        """(K*N, K): ``gain_ul[k, :, n]`` at row ``k*N + n``, the gains from k
        on RB n to every receiver, so a holder's row is one contiguous read;
        entry k is 0.0, as no transmitter interferes with its own receiver."""
        K = self.num_tx
        rows = np.array(self.gain_ul.transpose(0, 2, 1))  # a copy even when N = 1
        rows[np.arange(K), :, np.arange(K)] = 0.0
        return _read_only(rows.reshape(-1, K))

    @cached_property
    def i_max_kn(self):
        """(K*N,): ``i_max[n]`` at entry ``k*N + n``."""
        return _read_only(np.tile(self.i_max, self.num_tx))

    @cached_property
    def rb_kn(self):
        """(K*N,): ``n`` at entry ``k*N + n``."""
        return _read_only(np.tile(np.arange(self.num_rb), self.num_tx))

    @cached_property
    def ref_p_list(self):
        """``ref_p`` as one flat list of floats, entry ``k*N*L + n*L + l``."""
        return self.ref_p.ravel().tolist()


def _read_only(a):
    a.flags.writeable = False
    return a


@lru_cache(maxsize=64)
def _offsets(stop, step):
    """``np.arange(0, stop, step)``, read-only and built once per (stop, step):
    the row offsets the solvers add to per-row indices on every iteration."""
    return _read_only(np.arange(0, stop, step))


# The factory's old name, for callers that still build a drop through it.
make_network = Network


def _sample_disk(rng, center, radius, count):
    r = radius * np.sqrt(rng.uniform(size=count))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return center + np.column_stack((r * np.cos(theta), r * np.sin(theta)))


def _place_receivers(rng, centers, radii, anchors, groups):
    """(M, 2) positions: receiver i uniform in the disk of radius
    ``radii[i]`` around ``centers[i]``, at least MIN_LINK_DIST from every
    anchor.  ``groups`` names the receivers: (label, count) runs in order.

    Receivers are placed in order, by tries of ``u_r`` then ``u_theta``
    from ``rng.random`` (the doubles ``uniform()`` and ``uniform(0, 2*pi)``
    draw).  A block holds one try per receiver left: the tries before its
    first failure place their receivers, and those after it go on to the
    next ones.  So no double is drawn that one-at-a-time tries would not
    draw, and the draws after placement line up with theirs.
    """
    ax, ay = anchors.T
    M = len(radii)
    pos = np.empty((M, 2))
    u = np.empty((0, 2))
    i = tries = 0
    while i < M:
        u = np.concatenate((u, rng.random(2 * (M - i - len(u))).reshape(-1, 2)))
        r = radii[i:] * np.sqrt(u[:, 0])
        theta = 2.0 * np.pi * u[:, 1]
        x = centers[i:, 0] + r * np.cos(theta)
        y = centers[i:, 1] + r * np.sin(theta)
        dx, dy = ax - x[:, None], ay - y[:, None]
        ok = np.sqrt((dx * dx + dy * dy).min(axis=1)) >= MIN_LINK_DIST
        placed = len(ok) if ok.all() else int(ok.argmin())
        pos[i:i + placed, 0], pos[i:i + placed, 1] = x[:placed], y[:placed]
        if placed:
            i, tries = i + placed, 0
        if i < M:
            tries += 1
            if tries == MAX_PLACE_TRIES:
                for label, count in groups:
                    if i < count:
                        break
                    i -= count
                raise ConfigError(f"could not place {label} {i} at {MIN_LINK_DIST} m from "
                                  f"all transmitters after {MAX_PLACE_TRIES} tries")
            u = u[placed + 1:]
    return pos


def build_topology(config):
    """Generate a random drop: node placement, fading, gains, reference users.

    Deterministic given ``config.seed``.  MUEs, SBSs and D2D transmitters
    are uniform in the macro disk; each SUE is uniform in a small disk
    around its SBS and each D2D receiver around its transmitter.  Fading
    power is exponential with unit mean (Rayleigh envelope), drawn
    independently per link and RB.  ``config`` is not checked again: a
    ScenarioConfig validates itself when made, ``dataclasses.replace`` too.
    """
    rng = np.random.default_rng(config.seed)
    C, S, D, N = config.num_mue, config.num_sbs, config.num_d2d, config.num_rb
    K = S + D
    alpha = config.pathloss_exp

    sbs_pos = _sample_disk(rng, np.zeros(2), config.cell_radius, S)
    d2d_tx_pos = _sample_disk(rng, np.zeros(2), config.cell_radius, D)
    tx_pos = np.vstack([sbs_pos, d2d_tx_pos])
    # Every placed receiver must keep MIN_LINK_DIST from all gain
    # counterparts: the MBS and every underlay transmitter.
    anchors = np.vstack([np.zeros((1, 2)), tx_pos])

    rx = _place_receivers(
        rng, np.vstack([np.zeros((C, 2)), tx_pos]),
        np.repeat([config.cell_radius, config.sbs_ue_max_dist, config.d2d_max_dist], [C, S, D]),
        anchors, (("MUE", C), ("SUE", S), ("D2D receiver", D)))
    mue_pos, rx_pos = rx[:C], rx[C:]  # rx_pos: SUEs, then D2D receivers

    # (1 + K, C + K) distances from each anchor to each receiver, the
    # square root of the sum of the two squares, as np.linalg.norm sums them.
    dx, dy = anchors[:, None, 0] - rx[:, 0], anchors[:, None, 1] - rx[:, 1]
    d = np.sqrt(dx * dx + dy * dy)
    d_mbs_mue, d_tx_mue = d[0, :C], d[1:, :C]             # (C,), (K, C)
    d_mbs_rx, d_tx_rx = d[0, C:], d[1:, C:]               # (K,), (K, K)

    # Fading draws happen after all placement so the stream layout is fixed.
    # Unit-mean draws: exponential(1.0, size) returns 1.0 times these same
    # standard_exponential values, so skipping the scale keeps every bit.
    beta_tx_mue = rng.standard_exponential((K, C, N))
    beta_mbs_mue = rng.standard_exponential((C, N))
    beta_tx_rx = rng.standard_exponential((K, K, N))
    beta_mbs_rx = rng.standard_exponential((K, N))

    gain_mue = beta_tx_mue * d_tx_mue[:, :, None] ** (-alpha)
    gain_mbs_mue = beta_mbs_mue * d_mbs_mue[:, None] ** (-alpha)
    gain_ul = beta_tx_rx * d_tx_rx[:, :, None] ** (-alpha)
    gain_mbs_ul = beta_mbs_rx * d_mbs_rx[:, None] ** (-alpha)

    return Network(
        config, mue_pos, sbs_pos, rx_pos[:S], d2d_tx_pos, rx_pos[S:],
        gain_ul, gain_mbs_ul, gain_mue, gain_mbs_mue,
        config.power_levels, config.i_max_array(), config.mbs_power,
        config.noise_psd * config.rb_bandwidth, config.w1, config.w2,
        config.rb_bandwidth,
    )


def shannon_rate(sinr, bandwidth):
    """Achievable rate in bit/s for the given SINR and bandwidth."""
    if sinr < 0:
        raise ValueError(f"SINR must be >= 0, got {sinr}")
    return bandwidth * math.log2(1.0 + sinr)


def aggregated_interference(net, alloc, n):
    """Total reference-user interference on RB n: ``interference_vector``'s entry."""
    return interference_vector(net, alloc)[n]


def load_sum(loads):
    """Plain left fold from 0.0: every cap test sums an RB's loads in
    ascending k this way, as the ``np.bincount`` fold of
    ``interference_vector`` does (the builtin ``sum`` is compensated since
    Python 3.12)."""
    total = 0.0
    for x in loads:
        total += x
    return total


def _fold(bins, weights, size):
    """(size,) float sums of ``weights`` by bin.  ``np.bincount`` adds in
    input order, so each sum is a left fold from 0.0 over its weights in
    the order given; it returns int zeros for empty input, hence the cast."""
    return np.bincount(bins, weights, size).astype(float, copy=False)


def _holders(net, alloc):
    """The one gather of alloc's holders, ascending k: ``(ks, ns, kn, p,
    own)``, their transmitters, RBs, entries ``k*N + n``, powers and own
    reference-user loads ``ref_gain[k, n] * p`` (the bytes of
    ``ref_p[k, n, l]``).  Every interference pass starts from it."""
    ks = (alloc.rb >= 0).nonzero()[0]  # np.flatnonzero's wrapper costs ~2 us a call
    ns = alloc.rb[ks]
    kn = ks * net.num_rb + ns
    p = net.power_levels[alloc.level[ks]]
    return ks, ns, kn, p, net.ref_gain.reshape(-1)[kn] * p


def _rx_terms(net, holders):
    """(bins, terms), flat: the power of each holder at every receiver,
    ``gain_rows[k*N + n] * p`` (0.0 at its own), holder by holder.  The
    term at receiver j on RB n goes to bin j*N + n, so a fold of them
    sums each entry's co-channel terms one at a time in ascending k."""
    _, ns, kn, p, _ = holders
    terms = net.gain_rows.take(kn, axis=0)  # (holder, receiver), a fresh C-ordered array
    terms *= p[:, None]
    bins = ns[:, None] + _offsets(net.num_tx * net.num_rb, net.num_rb)
    return bins.ravel(), terms.ravel()


def interference_vector(net, alloc):
    """Per-RB aggregated reference-user interference as an (N,) array,
    an ``np.bincount`` fold over the holders in ascending k."""
    _, ns, _, _, own = _holders(net, alloc)
    return _fold(ns, own, net.num_rb)


def sinr_underlay(net, alloc):
    """SINR at every assigned transmitter's receiver, ascending k, as a list.

    Each holder's denominator is one fold: ``mbs_den[k, n] + sigma2``
    (macro signal and noise) first, then every co-channel holder's power
    at its receiver in ascending k (its own term is 0.0, which leaves a
    positive sum unchanged).
    """
    ks, ns, kn, p, _ = holders = _holders(net, alloc)
    bins, terms = _rx_terms(net, holders)
    den = _fold(np.concatenate((kn, bins)),
                np.concatenate((net.mbs_den.reshape(-1)[kn] + net.sigma2, terms)),
                net.num_tx * net.num_rb)[kn]
    return (net.gain_ul[ks, ks, ns] * p / den).tolist()


def macro_sinrs(net, alloc):
    """(C, N) SINR of every MUE on every RB under alloc's interference.

    Each denominator is one fold: ``sigma2`` first, then the power
    ``gain_mue[k, m, n] * p`` of each holder k on RB n, ascending k.
    """
    C, N = net.gain_mbs_mue.shape
    ks, ns, _, p, _ = _holders(net, alloc)
    terms = net.gain_mue[ks, :, ns] * p[:, None]  # (holder, MUE)
    bins = ns[:, None] + _offsets(C * N, N)       # entry m*N + n
    den = _fold(np.concatenate((_offsets(C * N, 1), bins.ravel())),
                np.concatenate((np.full(C * N, net.sigma2), terms.ravel())), C * N)
    return net.gain_mbs_mue * net.mbs_power / den.reshape(C, N)


def repair(net, alloc):
    """Evict holders until every RB is strictly under its cap; returns alloc.

    The rule: an RB at or over its cap drops its largest reference-user
    contributor (ties toward the lowest transmitter) and re-sums its
    remaining holders with ``load_sum``, a fold from 0.0 in ascending k,
    until it is under the cap.

    A holder whose own load ``ref_p[k, n, l]`` reaches its RB's cap (a
    lone holder) is evicted first, in one array step.  The rule evicts the
    same ones: every load is >= 0 and a left fold of such loads never
    falls below any of its terms, so while a lone holder stays on an RB the
    RB's load is at or over the cap, and its largest contributor is lone
    too.  The rule thus evicts every lone holder before any other and then
    goes on from the fold of the rest.  That fold is taken here with
    ``np.bincount`` in ascending k, as in ``interference_vector``, and the
    rule runs on only the RBs it leaves at or over their cap.
    """
    ks, ns, _, _, cs = _holders(net, alloc)
    lone = cs >= net.i_max[ns]
    if np.count_nonzero(lone):
        gone = ks[lone]
        alloc.rb[gone] = alloc.level[gone] = -1
        keep = ~lone
        ks, ns, cs = ks[keep], ns[keep], cs[keep]
    loads = _fold(ns, cs, net.num_rb)
    over = loads >= net.i_max
    if not np.count_nonzero(over):
        return alloc
    hot = over[ns]
    holders = {}  # n -> (holders, their loads), ascending k
    for k, n, c in zip(ks[hot].tolist(), ns[hot].tolist(), cs[hot].tolist()):
        if n in holders:
            holders[n][0].append(k)
            holders[n][1].append(c)
        else:
            holders[n] = ([k], [c])
    evicted = []
    for n, (on, contribs) in holders.items():
        load, cap = loads[n], net.i_max[n]
        while load >= cap:
            worst = contribs.index(max(contribs))
            evicted.append(on.pop(worst))
            del contribs[worst]
            load = load_sum(contribs)
    alloc.rb[evicted] = alloc.level[evicted] = -1  # not empty: each RB still over evicts
    return alloc


def _interference_maps(net, alloc):
    """Receiver-side and reference-user interference aggregates of alloc.

    Returns (rx_int, agg, holders) where rx_int[k, n] is the co-channel
    power seen by k's receiver on RB n from every other assigned
    transmitter, agg[n] is the aggregated reference-user interference on
    RB n, and holders is alloc's ``_holders``, which the cost reads.
    rx_int and agg are ``np.bincount`` folds over the holders in
    ascending k, as in ``interference_vector``.
    """
    holders = _holders(net, alloc)
    rx_int = _fold(*_rx_terms(net, holders), net.num_tx * net.num_rb)
    return rx_int.reshape(net.num_tx, -1), _fold(holders[1], holders[4], net.num_rb), holders


# The tables are (L, K*N) planes of ``_interference_maps``' maps, the
# power level first: entry (l, k*N + n) prices k's move to (n, l), the
# others kept.  Each per-(k, n) input then broadcasts along whole rows.

def gamma_table(net, rx_int):
    """SINR planes ``sig_pt / (mbs_den + rx_int + sigma2)``; overwrites
    the (K, N) ``rx_int`` it is given with the denominators."""
    den = np.add(net.mbs_den, rx_int, out=rx_int)
    den += net.sigma2
    return np.divide(net.sig_pt, den.reshape(-1))


def benefit_table(net, rx_int):
    """Benefit planes ``w1 * log2(1 + gamma_table)``; overwrites
    ``rx_int`` as ``gamma_table`` does."""
    planes = gamma_table(net, rx_int)
    planes += 1.0
    np.log2(planes, out=planes)
    planes *= net.w1
    return planes


def cost_table(net, agg, holders):
    """Unclamped cost planes ``w2 * (I / i_max[n] - 1)``.  I is RB n's
    reference-user load if k moved to (n, l): ``ref_p[k, n, l]`` plus
    ``agg[n]``, less k's own load (from ``holders``) on k's RB."""
    _, ns, kn, _, own = holders
    others = agg[net.rb_kn]
    others[kn] = agg[ns] - own
    planes = np.add(net.ref_pt, others)
    planes /= net.i_max_kn
    planes -= 1.0
    planes *= net.w2
    return planes


def utility_table(net, alloc):
    """Utility for every (k, n, l) given alloc; equals benefit minus cost.

    The subtraction of the planes writes the (K, N, L) table in one pass.
    """
    K, N, L = net.num_tx, net.num_rb, net.num_levels
    rx_int, agg, holders = _interference_maps(net, alloc)
    table = np.empty((K, N, L))
    np.subtract(benefit_table(net, rx_int), cost_table(net, agg, holders),
                out=table.reshape(K * N, L).T)
    return table
