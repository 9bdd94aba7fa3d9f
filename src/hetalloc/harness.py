"""Scenario ingestion, experiment orchestration, and CSV metric emission.

One experiment fixes a scenario and a seed list; per seed a single drop is
built and every selected algorithm runs on that identical drop, optionally
next to the exhaustive oracle.  Signaling units per algorithm (documented
with each runner): matching ships K*N*L profile entries plus K allocation
entries per round, message passing ships 2*K*N*L message values per sweep,
and the auction ships K*N*L (cost, bidder, assignment) tuples up plus the
merged N*L table and N interference values down per round.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import math
import os
import time
from dataclasses import dataclass
from typing import Optional

from . import netmodel
from .allocation import (DEFAULT_ORACLE_BUDGET, exhaustive_search, is_feasible,
                         search_space_size, sum_rate, weighted_benefit)
from .auction import run_auction
from .matching import run_stable_matching
from .msgpass import run_message_passing
from .netmodel import ConfigError, ScenarioConfig

log = logging.getLogger(__name__)

ORACLE_BUDGET_ENV = "ALLOC_ORACLE_BUDGET"

CSV_HEADER = ["algorithm", "seed", "sum_rate_bps", "weighted_benefit",
              "iterations", "converged", "feasible", "oracle_gap",
              "wall_time_ms", "messages_exchanged"]

ALGORITHMS = ("matching", "msgpass", "auction")


class ScenarioFormatError(ValueError):
    """The scenario file does not match the expected JSON schema."""


@dataclass
class RunMetrics:
    algorithm: str
    seed: int
    sum_rate: float
    weighted_benefit: float
    iterations: int
    converged: bool
    feasible: bool
    oracle_gap: Optional[float]
    wall_time_ms: float
    messages_exchanged: int


_OPTIONAL_FIELDS = {f.name for f in dataclasses.fields(ScenarioConfig)
                    if f.default is not dataclasses.MISSING}
_ALL_FIELDS = {f.name for f in dataclasses.fields(ScenarioConfig)}


def load_scenario(path):
    """Parse and validate a scenario JSON file.

    The object must carry exactly the ScenarioConfig field names
    (``rb_bandwidth`` may be omitted and defaults to 180 kHz); unknown
    keys are rejected by name, missing keys likewise.
    """
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioFormatError(f"{path}: top level must be a JSON object")
    unknown = sorted(set(raw) - _ALL_FIELDS)
    if unknown:
        raise ScenarioFormatError(f"{path}: unknown field(s): {', '.join(unknown)}")
    missing = sorted(_ALL_FIELDS - _OPTIONAL_FIELDS - set(raw))
    if missing:
        raise ScenarioFormatError(f"{path}: missing field(s): {', '.join(missing)}")
    try:
        return ScenarioConfig(**raw)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"{path}: {exc}") from exc


def serialize_scenario(config):
    """The JSON-ready dict form; inverse of load_scenario up to list/tuple."""
    out = dataclasses.asdict(config)
    out["power_levels"] = list(config.power_levels)
    if isinstance(config.i_max, tuple):
        out["i_max"] = list(config.i_max)
    return out


def oracle_budget():
    """Enumeration guard for the oracle; the environment can override it.

    The override is any integer-valued number, such as ``100000000`` or
    ``1e8``; anything else raises ConfigError naming the variable.
    """
    raw = os.environ.get(ORACLE_BUDGET_ENV)
    if not raw:
        return DEFAULT_ORACLE_BUDGET
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not value.is_integer():  # also rejects inf and nan
        raise ConfigError(f"{ORACLE_BUDGET_ENV}={raw!r} is not an integer-valued number")
    return int(raw) if raw.strip().isdigit() else int(value)  # digits stay exact


def _run_one(name, net, t_max):
    if name == "matching":
        r = run_stable_matching(net, t_max=t_max)
    elif name == "msgpass":
        r = run_message_passing(net, t_max=t_max)
    elif name == "auction":
        r = run_auction(net, t_max=t_max)
    else:
        raise ValueError(f"unknown algorithm: {name}")
    return r.allocation, r.iterations, r.converged, r.messages


def run_experiment(config, algorithms=ALGORITHMS, seeds=None, with_oracle=False,
                   t_max=500, budget=None):
    """Run every selected algorithm on one identical drop per seed.

    Returns RunMetrics rows sorted by (seed, algorithm).  When the oracle
    is requested but its search space exceeds the budget it is skipped
    for that seed with a logged warning and empty oracle gaps; it is
    never truncated silently.
    """
    seeds = [config.seed] if seeds is None else list(seeds)
    unknown = [a for a in algorithms if a not in ALGORITHMS]
    if unknown:
        raise ValueError(f"unknown algorithm(s): {', '.join(unknown)}")
    if budget is None:
        budget = oracle_budget()

    rows = []
    for seed in seeds:
        cfg = dataclasses.replace(config, seed=seed)
        net = netmodel.build_topology(cfg)

        oracle_rate = None
        if with_oracle:
            space = search_space_size(net.num_tx, net.num_rb, net.num_levels,
                                      include_unassigned=True)
            if space > budget:
                log.warning("seed %d: oracle skipped, search space %d exceeds budget %d",
                            seed, space, budget)
            else:
                t0 = time.perf_counter()
                o_alloc, oracle_rate = exhaustive_search(net, budget=budget)
                wall = (time.perf_counter() - t0) * 1e3
                rows.append(RunMetrics(
                    algorithm="oracle", seed=seed, sum_rate=oracle_rate,
                    weighted_benefit=weighted_benefit(net, o_alloc),
                    iterations=1, converged=True,
                    feasible=is_feasible(net, o_alloc).feasible,
                    oracle_gap=0.0, wall_time_ms=wall, messages_exchanged=0))

        for name in algorithms:
            t0 = time.perf_counter()
            alloc, iterations, converged, messages = _run_one(name, net, t_max)
            wall = (time.perf_counter() - t0) * 1e3
            rate = sum_rate(net, alloc)
            gap = None
            if oracle_rate is not None:
                if oracle_rate > 0:
                    gap = max(0.0, 1.0 - rate / oracle_rate)
                else:
                    gap = 0.0
            rows.append(RunMetrics(
                algorithm=name, seed=seed, sum_rate=rate,
                weighted_benefit=weighted_benefit(net, alloc),
                iterations=iterations, converged=converged,
                feasible=is_feasible(net, alloc).feasible,
                oracle_gap=gap, wall_time_ms=wall, messages_exchanged=messages))

    rows.sort(key=lambda r: (r.seed, r.algorithm))
    return rows


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def write_metrics_csv(metrics, path):
    """Emit the fixed-header CSV; floats at 9 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for m in metrics:
            writer.writerow([
                m.algorithm, m.seed, _fmt(m.sum_rate), _fmt(m.weighted_benefit),
                m.iterations, _fmt(m.converged), _fmt(m.feasible),
                _fmt(m.oracle_gap), _fmt(m.wall_time_ms), m.messages_exchanged,
            ])


def parse_seed_spec(spec):
    """Seed list from "A:B" (half-open range) or a comma list like "1,4,9"."""
    spec = spec.strip()
    if ":" in spec:
        lo, hi = spec.split(":", 1)
        seeds = list(range(int(lo), int(hi)))
    else:
        seeds = [int(tok) for tok in spec.split(",") if tok.strip()]
    if not seeds:
        raise ValueError(f"seed spec {spec!r} selects no seeds")
    return seeds
