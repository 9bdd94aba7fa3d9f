"""Scenario ingestion, experiment orchestration, and CSV metric emission.

One experiment fixes a scenario and a seed list; per seed a single drop is
built and every selected algorithm runs on that identical drop, optionally
next to the exhaustive oracle.  The ``messages_exchanged`` column is each
runner's ``messages``; the runners' docstrings give its formula.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import math
import numbers
import os
import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from . import netmodel
from .allocation import (DEFAULT_ORACLE_BUDGET, OracleBudgetError, exhaustive_search,
                         is_feasible)
# Unused here, but bench/tracing.py wraps harness.sum_rate and
# harness.weighted_benefit.
from .allocation import sum_rate, weighted_benefit  # noqa: F401
from .auction import run_auction
from .matching import run_stable_matching
from .msgpass import run_message_passing
from .netmodel import ConfigError, ScenarioConfig

log = logging.getLogger(__name__)

ORACLE_BUDGET_ENV = "ALLOC_ORACLE_BUDGET"

CSV_HEADER = ["algorithm", "seed", "sum_rate_bps", "weighted_benefit",
              "iterations", "converged", "feasible", "oracle_gap",
              "wall_time_ms", "messages_exchanged"]

# Each entry looks its runner up in this module's globals when called, so
# a runner replaced here by setattr (a wrapper that times or records it)
# is the one that runs.
SOLVERS = {
    "matching": lambda net, t_max: run_stable_matching(net, t_max=t_max),
    "msgpass": lambda net, t_max: run_message_passing(net, t_max=t_max),
    "auction": lambda net, t_max: run_auction(net, t_max=t_max),
}


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
        except ValueError as exc:  # JSONDecodeError, or an int too long to convert
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


def oracle_budget():
    """Bound on the oracle's ``oracle_cost``; the environment can override it.

    The override is any integer-valued number of at least 1, such as
    ``100000000`` or ``1e8``; anything else raises ConfigError naming the
    variable.
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
    if value < 1:
        raise ConfigError(f"{ORACLE_BUDGET_ENV}={raw!r} must be >= 1")
    return int(raw) if raw.strip().isdigit() else int(value)  # digits stay exact


def run_experiment(config, algorithms=tuple(SOLVERS), seeds=None, with_oracle=False,
                   t_max=500, budget=None):
    """Run every selected algorithm on one identical drop per seed.

    Returns RunMetrics rows sorted by (seed, algorithm).  When the oracle
    is requested but refuses the budget (``OracleBudgetError``) it is
    skipped for that seed with a logged warning and empty oracle gaps; it
    is never truncated silently.  A selection that ``check_algorithms``,
    ``check_seeds`` or ``check_t_max`` rejects raises ValueError before any
    drop is built.
    """
    algorithms = check_algorithms(algorithms, f"algorithms {algorithms!r}")
    seeds = [config.seed] if seeds is None else list(seeds)
    check_seeds(seeds, f"seeds {seeds!r}")
    check_t_max(t_max, "t_max")
    if budget is None:
        budget = oracle_budget()

    rows = []
    for seed in seeds:
        cfg = dataclasses.replace(config, seed=seed)
        net = netmodel.build_topology(cfg)

        oracle_rate = None
        if with_oracle:
            t0 = time.perf_counter()
            try:
                o_alloc, oracle_rate = exhaustive_search(net, budget=budget)
            except OracleBudgetError as exc:
                log.warning("seed %d: oracle skipped: %s", seed, exc)
            else:
                wall = (time.perf_counter() - t0) * 1e3
                report = is_feasible(net, o_alloc)
                rows.append(RunMetrics(
                    algorithm="oracle", seed=seed, sum_rate=oracle_rate,
                    weighted_benefit=report.weighted_benefit,
                    iterations=1, converged=True, feasible=report.feasible,
                    oracle_gap=0.0, wall_time_ms=wall, messages_exchanged=0))

        for name in algorithms:
            t0 = time.perf_counter()
            res = SOLVERS[name](net, t_max)
            wall = (time.perf_counter() - t0) * 1e3
            alloc = res.allocation
            report = is_feasible(net, alloc)
            rate = report.sum_rate
            gap = None
            if oracle_rate is not None:
                if oracle_rate > 0:
                    gap = max(0.0, 1.0 - rate / oracle_rate)
                else:
                    gap = 0.0
            rows.append(RunMetrics(
                algorithm=name, seed=seed, sum_rate=rate,
                weighted_benefit=report.weighted_benefit,
                iterations=res.iterations, converged=res.converged,
                feasible=report.feasible,
                oracle_gap=gap, wall_time_ms=wall, messages_exchanged=res.messages))

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


def _repeated(values):
    """The values that appear more than once, comma-separated."""
    return ", ".join(str(v) for v, count in Counter(values).items() if count > 1)


def check_algorithms(algorithms, label):
    """``algorithms`` as a list; raises ValueError, starting with ``label``
    (the field and its value), unless it holds one or more distinct
    SOLVERS names."""
    if isinstance(algorithms, str):
        raise ValueError(f"{label} must be a sequence of names, not a string")
    algorithms = list(algorithms)
    if not algorithms or not set(algorithms) <= set(SOLVERS):
        raise ValueError(f"{label} must name one or more of " + ", ".join(SOLVERS))
    repeated = _repeated(algorithms)
    if repeated:
        raise ValueError(f"{label} repeats {repeated}")
    return algorithms


def check_seeds(seeds, label):
    """Raise ValueError, starting with ``label`` (the field and its value),
    unless ``seeds`` holds one or more distinct seeds, each >= 0."""
    if not seeds:
        raise ValueError(f"{label} selects no seeds")
    if min(seeds) < 0:
        raise ValueError(f"{label} selects negative seed {min(seeds)}")
    repeated = _repeated(seeds)
    if repeated:
        raise ValueError(f"{label} repeats seed {repeated}")


def check_t_max(t_max, label):
    """Raise ValueError, starting with ``label`` (the field) and ending with
    the value, unless ``t_max`` is an integer, not a bool, and >= 1."""
    if isinstance(t_max, bool) or not isinstance(t_max, numbers.Integral):
        raise ValueError(f"{label} must be an integer, got {t_max!r}")
    if t_max < 1:
        raise ValueError(f"{label} must be >= 1, got {t_max}")


def parse_seed_spec(spec):
    """Seed list from "A:B" (half-open range) or a comma list like "1,4,9";
    every seed must be >= 0 and appear once."""
    spec = spec.strip()
    try:
        if ":" in spec:
            lo, hi = spec.split(":", 1)
            seeds = list(range(int(lo), int(hi)))
        else:
            seeds = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"seed spec {spec!r} is neither \"A:B\" nor a comma list "
                         "of integers") from None
    check_seeds(seeds, f"seed spec {spec!r}")
    return seeds
