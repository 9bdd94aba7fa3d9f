"""Span tracer that times hetalloc from outside the package.

The tracer times the public functions of each hetalloc module by replacing
the module (or class) attribute at the place where callers look it up, for
example ``netmodel.utility_table`` or ``harness.sum_rate``, and restores
every original when the traced call returns.  Nothing under ``src/``
changes.

Two kinds of site keep the trace small and its overhead low:

* a *span* site (called a few times per drop: the experiment, topology
  build, each solver run, the oracle, the harness's evaluation calls) is
  recorded one by one with its start and end time, its parent span and the
  drop it belongs to;
* a *timer* site (called once per solver iteration or more often) is
  aggregated into the nearest enclosing span as
  ``[calls, top_calls, top_ns, self_ns]``.  ``top_*`` count only calls not
  nested in another call of the same group, so a group's time is never
  counted twice; ``self_ns`` excludes every nested site.

A span's self time is its duration minus its child spans and minus the
self time of the timers attached to it, so the self times of all layers
add up to the root span exactly.  Work the tracer does to read counters
out of results (a "probe") is timed and booked to the ``bench`` layer.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass
from typing import Callable, Optional

from hetalloc import auction, harness, matching, msgpass, netmodel

SPAN, TIMER = "span", "timer"
PROBE = "bench.probe"


@dataclass(frozen=True)
class Site:
    """One replaced attribute: where it is looked up and how it is booked."""

    owner: object
    attr: str
    name: str
    layer: str
    kind: str
    group: Optional[str] = None
    probe: Optional[Callable] = None    # (counts, args, kwargs, result) -> None
    prepare: Optional[Callable] = None  # kwargs -> kwargs, before the call

    @property
    def key(self):
        return self.group or self.name


def _solver_probe(counts, _args, _kwargs, result):
    counts["runs"] = counts.get("runs", 0) + 1
    counts["iterations"] = counts.get("iterations", 0) + result.iterations
    counts["converged"] = counts.get("converged", 0) + int(result.converged)


def _oracle_prepare(kwargs):
    return {**kwargs, "stats": kwargs.get("stats", {})}


def _oracle_probe(counts, _args, kwargs, _result):
    counts["candidates"] = counts.get("candidates", 0) + kwargs["stats"]["candidates"]
    counts["feasible"] = counts.get("feasible", 0) + kwargs["stats"]["feasible"]


def _proposals_probe(counts, _args, _kwargs, result):
    counts["proposals"] = counts.get("proposals", 0) + result.proposals


def _extract_probe(counts, args, _kwargs, result):
    # Positive-marginal proposals are re-derived from the message state the
    # extraction was handed; kept ones are what survived thinning and repair.
    state = args[0]
    proposed = int((state.tau.reshape(state.tau.shape[0], -1).max(axis=1) > 0.0).sum())
    counts["extract_proposed"] = counts.get("extract_proposed", 0) + proposed
    counts["extract_kept"] = counts.get("extract_kept", 0) + result.num_assigned()


def _bid_probe(counts, _args, _kwargs, result):
    counts["bids"] = counts.get("bids", 0) + int(result[3])


def sites():
    """Every traced site of hetalloc, at the attribute its callers read."""
    tables = "netmodel.tables"
    return [
        Site(harness, "run_experiment", "harness.run_experiment", "harness", SPAN),
        Site(netmodel, "build_topology", "netmodel.build_topology", "netmodel", SPAN),
        Site(harness, "run_stable_matching", "matching.run_stable_matching", "matching",
             SPAN, probe=_solver_probe),
        Site(harness, "run_message_passing", "msgpass.run_message_passing", "msgpass",
             SPAN, probe=_solver_probe),
        Site(harness, "run_auction", "auction.run_auction", "auction", SPAN,
             probe=_solver_probe),
        Site(harness, "exhaustive_search", "allocation.exhaustive_search", "allocation",
             SPAN, probe=_oracle_probe, prepare=_oracle_prepare),
        Site(harness, "sum_rate", "allocation.sum_rate", "allocation", SPAN,
             group="allocation.eval"),
        Site(harness, "weighted_benefit", "allocation.weighted_benefit", "allocation",
             SPAN, group="allocation.eval"),
        Site(harness, "is_feasible", "allocation.is_feasible", "allocation", SPAN,
             group="allocation.eval"),
        Site(netmodel, "utility_table", "netmodel.utility_table", "netmodel", TIMER,
             group=tables),
        Site(netmodel, "benefit_table", "netmodel.benefit_table", "netmodel", TIMER,
             group=tables),
        Site(netmodel, "cost_table", "netmodel.cost_table", "netmodel", TIMER,
             group=tables),
        Site(netmodel, "gamma_table", "netmodel.gamma_table", "netmodel", TIMER,
             group=tables),
        Site(netmodel, "interference_vector", "netmodel.interference_vector", "netmodel",
             TIMER, group=tables),
        Site(netmodel, "aggregated_interference", "netmodel.aggregated_interference",
             "netmodel", TIMER),
        Site(netmodel, "sinr_underlay", "netmodel.sinr_underlay", "netmodel", TIMER),
        Site(netmodel, "shannon_rate", "netmodel.shannon_rate", "netmodel", TIMER),
        Site(matching, "sum_rate", "allocation.sum_rate[matching]", "allocation", TIMER),
        Site(matching, "build_transmitter_profile", "matching.build_transmitter_profile",
             "matching", TIMER, group="matching.build_profiles"),
        Site(matching, "build_rb_profile", "matching.build_rb_profile", "matching", TIMER,
             group="matching.build_profiles"),
        Site(matching, "match_alignments", "matching.match_alignments", "matching", TIMER,
             probe=_proposals_probe),
        Site(msgpass, "tx_sweep", "msgpass.tx_sweep", "msgpass", TIMER,
             group="msgpass.sweeps"),
        Site(msgpass, "res_sweep", "msgpass.res_sweep", "msgpass", TIMER,
             group="msgpass.sweeps"),
        Site(msgpass, "extract_allocation", "msgpass.extract_allocation", "msgpass", TIMER,
             probe=_extract_probe),
        Site(auction, "local_auction_round", "auction.local_auction_round", "auction",
             TIMER, probe=_bid_probe),
        Site(auction.AuctionState, "merged_view", "auction.merged_view", "auction", TIMER),
        Site(auction, "bid_increment", "auction.bid_increment", "auction", TIMER),
    ]


class Tracer:
    """Keeps span records in memory; ``write`` dumps them as JSONL.

    An open call is a frame ``[start_ns, child_ns, span_record]``, where
    ``child_ns`` sums the nested traced calls and the span record is the
    frame's own (span site) or the nearest enclosing one (timer site).
    """

    def __init__(self, sites_):
        self.sites = sites_
        self.records = []
        self._stack = []
        self._depth = {}
        self._next_id = 0

    @contextlib.contextmanager
    def installed(self, execution, drop):
        """Wrappers in place for one traced drop; originals restored after."""
        saved = []
        try:
            for site in self.sites:
                original = site.owner.__dict__[site.attr]
                saved.append((site.owner, site.attr, original))
                wrap = self._span if site.kind == SPAN else self._timer
                setattr(site.owner, site.attr, wrap(site, original, execution, drop))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self._stack.clear()
            self._depth.clear()

    def _span(self, site, fn, execution, drop):
        stack, depth, key = self._stack, self._depth, site.key
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if site.prepare is not None:
                kwargs = site.prepare(kwargs)
            record = {"type": "span", "exec": execution, "drop": drop,
                      "id": self._next_id,
                      "parent": stack[-1][2]["id"] if stack else None,
                      "name": site.name, "start_ns": 0, "end_ns": 0,
                      "timers": {}, "counts": {}}
            self._next_id += 1
            self.records.append(record)
            d = depth.get(key, 0)
            depth[key] = d + 1
            frame = [0, 0, record]
            stack.append(frame)
            frame[0] = record["start_ns"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = record["end_ns"] = clock()
                stack.pop()
                depth[key] = d
                if stack:
                    stack[-1][1] += end - frame[0]
            if site.probe is not None:
                self._probe(record, site.probe, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def _timer(self, site, fn, _execution, _drop):
        stack, depth, key, name = self._stack, self._depth, site.key, site.name
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            d = depth.get(key, 0)
            depth[key] = d + 1
            record = stack[-1][2]
            frame = [0, 0, record]
            stack.append(frame)
            frame[0] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                depth[key] = d
                stack[-1][1] += dur
                entry = record["timers"].get(name)
                if entry is None:
                    entry = record["timers"][name] = [0, 0, 0, 0]
                entry[0] += 1
                if d == 0:
                    entry[1] += 1
                    entry[2] += dur
                entry[3] += dur - frame[1]
            if site.probe is not None:
                self._probe(record, site.probe, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def _probe(self, record, probe, args, kwargs, result):
        t0 = time.perf_counter_ns()
        probe(record["counts"], args, kwargs, result)
        spent = time.perf_counter_ns() - t0
        # Booked as bench time and hidden from the caller's self time, so
        # probing never inflates a hetalloc layer.
        if self._stack:
            self._stack[-1][1] += spent
            entry = self._stack[-1][2]["timers"].setdefault(PROBE, [0, 0, 0, 0])
            entry[0] += 1
            entry[1] += 1
            entry[2] += spent
            entry[3] += spent

    def write(self, path, meta):
        """Dump the meta line, then every span and execution record."""
        site_info = {s.name: {"layer": s.layer, "kind": s.kind, "group": s.group}
                     for s in self.sites}
        site_info[PROBE] = {"layer": "bench", "kind": TIMER, "group": None}
        with open(path, "w") as fh:
            fh.write(json.dumps({"type": "meta", "sites": site_info, **meta}) + "\n")
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")
