"""Scenario ingestion, experiment orchestration, and CSV metric emission.

One experiment fixes a scenario and a seed list; per seed a single drop is
built and every selected algorithm runs on that identical drop, optionally
next to the exhaustive oracle, whose row is evaluated like theirs.  The
``messages_exchanged`` column is each runner's ``messages``; the runners'
docstrings give its formula.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import numbers
import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from . import netmodel
from .allocation import (DEFAULT_T_MAX, OracleBudgetError, SolverResult, check_t_max,
                         exhaustive_search, is_feasible)
# Unused here, but bench/tracing.py wraps harness.sum_rate and
# harness.weighted_benefit.
from .allocation import sum_rate, weighted_benefit  # noqa: F401
from .auction import run_auction
from .matching import run_stable_matching
from .msgpass import run_message_passing
from .netmodel import ConfigError, ScenarioConfig

log = logging.getLogger(__name__)

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


@dataclass
class RunMetrics:
    """One CSV row: the fields are in ``CSV_HEADER``'s order."""

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


def _unique_keys(pairs):
    """A JSON object as a dict; a ConfigError names each key it repeats."""
    repeated = _repeated(key for key, _ in pairs)
    if repeated:
        raise ConfigError(f"repeated field(s): {repeated}")
    return dict(pairs)


def load_scenario(path):
    """Parse and validate a scenario JSON file.

    The object must carry exactly the ScenarioConfig field names
    (``rb_bandwidth`` may be omitted and defaults to 180 kHz); unknown,
    missing and repeated keys are rejected by name.  Every rejection is a
    ConfigError naming the path; a file that cannot be opened raises OSError.
    """
    with open(path) as fh:
        try:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
        except ConfigError as exc:  # a repeated key
            raise ConfigError(f"{path}: {exc}") from None
        except ValueError as exc:  # JSONDecodeError, or an int too long to convert
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    unknown = sorted(set(raw) - _ALL_FIELDS)
    if unknown:
        raise ConfigError(f"{path}: unknown field(s): {', '.join(unknown)}")
    missing = sorted(_ALL_FIELDS - _OPTIONAL_FIELDS - set(raw))
    if missing:
        raise ConfigError(f"{path}: missing field(s): {', '.join(missing)}")
    try:
        return ScenarioConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def run_experiment(config, algorithms=tuple(SOLVERS), seeds=None, with_oracle=False,
                   t_max=DEFAULT_T_MAX, budget=None):
    """Run every selected algorithm on one identical drop per seed.

    Returns RunMetrics rows sorted by (seed, algorithm).  The oracle and
    the solvers are timed, evaluated and recorded on one path: every
    row's numbers come from one ``is_feasible`` report, and the oracle's
    (1 iteration, converged, 0 messages) runs first, so that each
    ``oracle_gap``, its own included, is max(0, 1 - rate / its rate), or
    0.0 when its rate is 0.  ``budget`` bounds the oracle's
    ``oracle_cost``; None means ``exhaustive_search``'s default, 1e8.
    When the oracle refuses the budget (``OracleBudgetError``) it is
    skipped for that seed with a logged warning and empty oracle gaps; it
    is never truncated silently.  A selection that ``check_algorithms``,
    ``check_seeds`` or ``check_t_max`` rejects raises ValueError before
    any drop is built.
    """
    algorithms = check_algorithms(algorithms, f"algorithms {algorithms!r}")
    seeds = [config.seed] if seeds is None else list(seeds)
    check_seeds(seeds, f"seeds {seeds!r}")
    check_t_max(t_max, "t_max")

    rows = []
    for seed in seeds:
        net = netmodel.build_topology(dataclasses.replace(config, seed=seed))
        best = None  # the oracle row's sum_rate
        for name in (["oracle"] if with_oracle else []) + algorithms:
            t0 = time.perf_counter()
            try:
                res = (SolverResult(exhaustive_search(net, budget=budget)[0], 1, True, 0, {})
                       if name == "oracle" else SOLVERS[name](net, t_max))
            except OracleBudgetError as exc:  # raised by the oracle only
                log.warning("seed %d: oracle skipped: %s", seed, exc)
                continue
            wall = (time.perf_counter() - t0) * 1e3
            report = is_feasible(net, res.allocation)
            if name == "oracle":
                best = report.sum_rate
            gap = None
            if best is not None:
                gap = max(0.0, 1.0 - report.sum_rate / best) if best > 0 else 0.0
            rows.append(RunMetrics(
                algorithm=name, seed=seed, sum_rate=report.sum_rate,
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
            writer.writerow([_fmt(v) for v in dataclasses.astuple(m)])


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
    unless ``seeds`` holds one or more distinct integer seeds, each >= 0."""
    if not seeds:
        raise ValueError(f"{label} selects no seeds")
    for seed in seeds:
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
            raise ValueError(f"{label} selects non-integer seed {seed!r}")
    if min(seeds) < 0:
        raise ValueError(f"{label} selects negative seed {min(seeds)}")
    repeated = _repeated(seeds)
    if repeated:
        raise ValueError(f"{label} repeats seed {repeated}")


def parse_seed_spec(spec):
    """Seed list from "A:B" (half-open range) or a comma list like "1,4,9";
    every seed must be >= 0 and appear once."""
    spec = spec.strip()
    try:
        if ":" in spec:
            lo, hi = spec.split(":", 1)
            seeds = list(range(int(lo), int(hi)))
        else:
            seeds = [int(tok) for tok in spec.split(",")]
    except ValueError:
        raise ValueError(f"seed spec {spec!r} is neither \"A:B\" nor a comma list "
                         "of integers") from None
    check_seeds(seeds, f"seed spec {spec!r}")
    return seeds
