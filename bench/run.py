#!/usr/bin/env python3
"""Benchmark of ``hetalloc run``: solver time per drop and answer quality.

    python3 bench/run.py --workload mid-k10 --seed 3 --seconds 28 --trace 0

One process, one closed-loop client, no threads: every drop is a call of
``harness.run_experiment`` (the library form of ``hetalloc run``) that
starts when the previous one has returned.  Each workload is a fixed pool
of drops, derived from ``scenarios/default.json`` plus the workload's
overrides, with drop seeds 0..POOL_DROPS-1; ``--seed`` shuffles the order
in which they run.  The pool is fixed so that the answer metrics and the
answer digest repeat bit for bit on every run and timing percentiles are
always taken over the same drops.  The pool is run pass after pass until
``--seconds`` have elapsed (at least one whole pass).  A drop's time is the
fastest of its passes: every pass does identical work, so what differs
between passes is interference from outside the process, which only ever
adds time.

Every end-to-end time but ``setup_s`` is scaled to a reference host
speed.  A fixed probe kernel runs between drops; each drop's time is
multiplied by REF_PROBE_NS over the faster of the probes on either side
of it.  Shared hosts drift in speed by a quarter over minutes, which a
per-run minimum cannot remove but the probe sees too.  The unscaled
throughput is printed beside the metrics.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
drop of the pool once untraced and once traced, writes the spans to
``.bench_out/trace-<workload>-seed<seed>.jsonl`` and prints the per-layer
metrics that ``reduce.py`` derives from that file.

Every run is audited: each emitted allocation is re-checked with
``is_feasible``, the oracle must reach every feasible solver's rate on its
drop, a run that raises counts as failed, and a drop must give the same
answers on every pass, traced or not.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads so its BLAS never starts worker threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIO = ROOT / "scenarios" / "default.json"
OUT = ROOT / ".bench_out"

POOL_DROPS = 40
SETUP_REPEATS = 9
ORACLE_BUDGET = 10 ** 8
# probe_ns() on the host the benchmark was written on, when that host was
# running fast; timings are reported as if measured at that speed.
REF_PROBE_NS = 250_000
ORACLE_REL_TOL = 1e-9
SOLVERS = ("matching", "msgpass", "auction")
L3 = (0.05, 0.2, 1.0)
L4 = (0.02, 0.05, 0.2, 1.0)


@dataclass(frozen=True)
class Workload:
    """Scenario overrides and what runs on each drop; BENCHMARK.json says why."""

    overrides: dict
    algorithms: tuple
    oracle: bool
    t_max: int


_WIDE = dict(num_sbs=30, num_d2d=20, num_rb=25, power_levels=L4)
WORKLOADS = {
    "oracle-k4": Workload(
        dict(num_sbs=2, num_d2d=2, num_rb=4, power_levels=L3, i_max=1e-7),
        SOLVERS, True, 500),
    "mid-k10": Workload(
        dict(num_sbs=6, num_d2d=4, num_rb=8, power_levels=L3, i_max=1e-7),
        SOLVERS, False, 500),
    "wide-k50-loose": Workload(
        dict(_WIDE, i_max=1e-6), ("msgpass", "auction"), False, 100),
    "wide-k50-tight": Workload(
        dict(_WIDE, i_max=1e-8), ("msgpass", "auction"), False, 100),
}

# name -> (unit, better); every workload reports all of them.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "drops_per_s": ("1/s", "higher"),
    "drop_ms_p50": ("ms", "lower"),
    "drop_ms_p90": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "msgpass_ms_p50": ("ms", "lower"),
    "msgpass_ms_p90": ("ms", "lower"),
    "auction_ms_p50": ("ms", "lower"),
    "auction_ms_p90": ("ms", "lower"),
    "sum_rate_mbps.msgpass": ("Mbit/s", "higher"),
    "sum_rate_mbps.auction": ("Mbit/s", "higher"),
    "converged_frac": ("frac", "higher"),
    "passed_frac": ("frac", "higher"),
}

SETUP_CODE = (
    "import dataclasses, json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from hetalloc import harness\n"
    "cfg = harness.load_scenario(sys.argv[2])\n"
    "dataclasses.replace(cfg, **json.loads(sys.argv[3]))\n"
)


def use_checkout():
    """Import hetalloc from this checkout's ``src``; False when it is absent."""
    if not (SRC / "hetalloc" / "__init__.py").is_file() or not SCENARIO.is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


class Capture:
    """Keeps what each solver and the oracle returned on the current drop.

    ``run_experiment`` reports rates, not allocations; the audit needs the
    allocations, so the harness's solver and oracle names are wrapped for
    the whole run, traced or not.
    """

    def __init__(self, harness):
        self.harness = harness
        self.results = {}
        self.saved = {}

    def __enter__(self):
        h = self.harness
        names = {"matching": "run_stable_matching", "msgpass": "run_message_passing",
                 "auction": "run_auction"}
        for algorithm, attr in names.items():
            self.saved[attr] = getattr(h, attr)
            setattr(h, attr, self._solver(algorithm, self.saved[attr]))
        self.saved["exhaustive_search"] = h.exhaustive_search
        h.exhaustive_search = self._oracle(h.exhaustive_search)
        return self

    def __exit__(self, *_exc):
        for attr, original in self.saved.items():
            setattr(self.harness, attr, original)
        return False

    def _solver(self, algorithm, fn):
        def captured(net, *args, **kwargs):
            result = fn(net, *args, **kwargs)
            self.results[algorithm] = (net, result.allocation)
            return result
        return captured

    def _oracle(self, fn):
        def captured(net, *args, **kwargs):
            alloc, rate = fn(net, *args, **kwargs)
            self.results["oracle"] = (net, alloc)
            return alloc, rate
        return captured


def audit(rows, results, expected, is_feasible):
    """Names of the runs on one drop that failed.

    ``rows`` are the drop's RunMetrics (None when the experiment raised),
    ``results`` maps algorithm -> (network, allocation) as returned, and
    ``expected`` names every run planned on the drop.  A run fails when it
    is missing (it raised, or the oracle was skipped), when its allocation
    breaks a cap, or, for the oracle, when a feasible solver beat it.
    """
    if rows is None:
        return set(expected)
    by_alg = {r.algorithm: r for r in rows}
    failed = {a for a in expected if a not in by_alg or a not in results}
    for algorithm, row in by_alg.items():
        if algorithm in failed:
            continue
        net, alloc = results[algorithm]
        if not (row.feasible and is_feasible(net, alloc).feasible):
            failed.add(algorithm)
    oracle = by_alg.get("oracle")
    if oracle is not None and "oracle" not in failed:
        best = max((r.sum_rate for a, r in by_alg.items()
                    if a != "oracle" and a not in failed), default=0.0)
        if best > oracle.sum_rate * (1.0 + ORACLE_REL_TOL):
            failed.add("oracle")
    return failed


def answer_key(rows):
    """The rows with ``wall_time_ms`` blanked: what must repeat exactly."""
    return tuple(dataclasses.replace(r, wall_time_ms=None) for r in rows)


def answer_digest(harness, answers, path):
    """sha256 of the CSV ``write_metrics_csv`` emits for the answer rows."""
    harness.write_metrics_csv([r for drop in sorted(answers) for r in answers[drop]], path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _probe_kernel(a):
    # Interpreter work and small numpy operations in about hetalloc's mix;
    # fixed here so that no change to hetalloc can change the probe.
    acc = 0.0
    for i in range(12):
        b = a * (1.0 + i) + a.max(axis=0)
        acc += float(np.log2(1.0 + b).sum())
        items = sorted(((k, float(b[k, 0, 0])) for k in range(10)), key=lambda e: -e[1])
        for k, v in items:
            acc += v * 0.5 if k % 2 else -v
        counts = {}
        for k in range(40):
            counts[(k % 8, k % 3)] = counts.get((k % 8, k % 3), 0.0) + k
    return acc


def probe_ns():
    """The host's speed right now: fastest of three runs of a fixed kernel."""
    a = np.random.default_rng(0).random((10, 8, 3))
    best = None
    for _ in range(3):
        t0 = time.perf_counter_ns()
        _probe_kernel(a)
        spent = time.perf_counter_ns() - t0
        best = spent if best is None else min(best, spent)
    return best


class HostSpeed:
    """Scales a time measured between two probes to the reference host.

    The factor is REF_PROBE_NS over the faster of the probes taken just
    before and just after the measured work.  A spell in which the whole
    host runs slow slows the work and the probe alike, and the factor
    cancels most of it.
    """

    def __init__(self):
        self.last = probe_ns()
        self.factors = []

    def factor(self):
        """Probe now and return the factor for the work since the last probe."""
        now = probe_ns()
        factor = REF_PROBE_NS / min(self.last, now)
        self.last = now
        self.factors.append(factor)
        return factor


def measure_setup(workload, repeats):
    """Seconds from process start until the scenario is loaded and validated.

    The median of ``repeats`` fresh processes.  Unlike the drop times it is
    not scaled by the host probe: a new process spends its time on exec,
    page faults and imports, which the probe does not track, and scaling
    widened the spread between runs instead of narrowing it.
    """
    samples = []
    overrides = json.dumps(workload.overrides)
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(SCENARIO),
                        overrides], check=True, cwd=ROOT)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def p90(values):
    """Harrell-Davis estimate of the 90th percentile.

    A weighted mean of the order statistics, with Beta(0.9(n+1), 0.1(n+1))
    weights, so the estimate does not jump when two drops near the 90th
    percentile swap places; the plain sample quantile does where the tail
    is sparse.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = 0.9 * (n + 1), 0.1 * (n + 1)
    grid = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf)))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, np.linspace(0.0, 1.0, len(cdf)), cdf))
    return float(weights @ x)


def git_sha():
    """HEAD of the checkout, read from ``.git`` directly; "unknown" without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Executes and audits drops of one workload."""

    def __init__(self, name, workload):
        from hetalloc import allocation, harness
        self.name = name
        self.workload = workload
        self.harness = harness
        self.is_feasible = allocation.is_feasible
        base = harness.load_scenario(SCENARIO)
        self.config = dataclasses.replace(base, **workload.overrides)
        self.expected = workload.algorithms + (("oracle",) if workload.oracle else ())
        self.capture = Capture(harness)
        self.attempted = 0
        self.failed = 0

    def execute(self, drop, traced=None):
        """Run and audit one drop, inside ``traced`` if given.

        Returns (rows or None, wall ns).  The audit runs after ``traced``
        has exited, so checks never show up as time of a hetalloc layer.
        """
        self.capture.results.clear()
        with traced or contextlib.nullcontext():
            t0 = time.perf_counter_ns()
            try:
                rows = self.harness.run_experiment(
                    self.config, algorithms=self.workload.algorithms, seeds=[drop],
                    with_oracle=self.workload.oracle, t_max=self.workload.t_max,
                    budget=ORACLE_BUDGET)
            except Exception:  # a failing solver is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                rows = None
            wall = time.perf_counter_ns() - t0
        bad = audit(rows, self.capture.results, self.expected, self.is_feasible)
        self.attempted += len(self.expected)
        self.failed += len(bad)
        for algorithm in sorted(bad):
            print(f"FAILED {self.name} drop {drop}: {algorithm}", file=sys.stderr)
        return rows, wall


def _record(name, seed, seconds, trace, pool, steps, setup_repeats):
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": git_sha(), "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "drops_per_pass": len(pool), "drop_steps": steps,
        "passes": round(steps / len(pool), 2),
        "setup_repeats": setup_repeats,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def _timed_passes(pool, seconds, step):
    """Call ``step(i, drop)`` over the pool, pass after pass, until time is up.

    Returns the number of steps taken, at least one whole pass.
    """
    start = time.perf_counter()
    for i in itertools.count():
        step(i, pool[i % len(pool)])
        if i + 1 >= len(pool) and time.perf_counter() - start >= seconds:
            return i + 1


def run_plain(runner, pool, seconds, speed):
    """End-to-end metrics over the pool, timings scaled by ``speed``.

    Returns (metrics, extras, steps, consistent, digest); extras are
    the timings and rates of matching and the oracle, which not every
    workload runs, and the unscaled drop throughput, as
    name -> (value, unit).
    """
    drop_ns = defaultdict(list)
    raw_ns = defaultdict(list)
    solver_ms = defaultdict(lambda: defaultdict(list))
    answers = {}
    consistent = True

    def step(_i, drop):
        nonlocal consistent
        rows, wall = runner.execute(drop)
        factor = speed.factor()
        raw_ns[drop].append(wall)
        drop_ns[drop].append(wall * factor)
        if rows is None:
            return
        key = answer_key(rows)
        consistent = consistent and answers.setdefault(drop, key) == key
        for r in rows:
            solver_ms[r.algorithm][drop].append(r.wall_time_ms * factor)

    runner.execute(pool[0])  # first-call costs stay out of the timings
    speed.factor()
    steps = _timed_passes(pool, seconds, step)

    drop_ms = [min(v) * 1e-6 for v in drop_ns.values()]
    per_solver = {a: [min(v) for v in by_drop.values()]
                  for a, by_drop in solver_ms.items()}
    rows = [r for key in answers.values() for r in key]
    solver_rows = [r for r in rows if r.algorithm != "oracle"]
    metrics = {
        "drops_per_s": len(drop_ms) / (sum(drop_ms) * 1e-3),
        "drop_ms_p50": statistics.median(drop_ms),
        "drop_ms_p90": p90(drop_ms),
        "converged_frac": sum(r.converged for r in solver_rows) / max(1, len(solver_rows)),
    }
    found = {}
    for algorithm, times in per_solver.items():
        found[f"{algorithm}_ms_p50"] = (statistics.median(times), "ms")
        if algorithm != "oracle":
            rates = [r.sum_rate for r in rows if r.algorithm == algorithm]
            found[f"{algorithm}_ms_p90"] = (p90(times), "ms")
            found[f"sum_rate_mbps.{algorithm}"] = (statistics.fmean(rates) * 1e-6, "Mbit/s")
    gaps = [r.oracle_gap for r in solver_rows if r.oracle_gap is not None]
    if gaps:
        found["oracle_gap_mean"] = (statistics.fmean(gaps), "frac")
    raw_s = sum(min(v) for v in raw_ns.values()) * 1e-9
    found["unscaled_drops_per_s"] = (len(raw_ns) / raw_s, "1/s")
    found["host_factor_median"] = (statistics.median(speed.factors), "frac")
    metrics.update({n: v for n, (v, _u) in found.items() if n in END_TO_END})
    extras = {n: vu for n, vu in found.items() if n not in END_TO_END}
    digest = answer_digest(runner.harness, answers, OUT / f"answers-{runner.name}.csv")
    return metrics, extras, steps, consistent, digest


def run_traced(runner, pool, seconds, trace_path):
    """Per-layer metrics: each drop untraced and traced, order alternating."""
    import reduce
    import tracing
    tracer = tracing.Tracer(tracing.sites())
    answers = {False: {}, True: {}}
    consistent = True
    execution = itertools.count()

    def step(i, drop):
        nonlocal consistent
        flip = (i + i // len(pool)) % 2
        for traced in ((False, True) if flip == 0 else (True, False)):
            exec_id = next(execution)
            rows, wall = runner.execute(
                drop, tracer.installed(exec_id, drop) if traced else None)
            tracer.records.append({"type": "exec", "exec": exec_id, "drop": drop,
                                   "traced": traced, "wall_ns": wall})
            if rows is not None:
                key = answer_key(rows)
                consistent = consistent and answers[traced].setdefault(drop, key) == key
                consistent = consistent and answers[not traced].get(drop, key) == key

    runner.execute(pool[0])
    steps = _timed_passes(pool, seconds, step)
    tracer.write(trace_path, {"workload": runner.name})
    metrics = reduce.reduce_file(trace_path)
    digests = {traced: answer_digest(runner.harness, answers[traced],
                                     OUT / f"answers-{runner.name}-traced{int(traced)}.csv")
               for traced in (False, True)}
    consistent = consistent and digests[False] == digests[True]
    return metrics, steps, consistent, digests


def measure(name, seed, seconds, trace, drops=None, setup_repeats=SETUP_REPEATS):
    """One benchmark run; returns the result dict that ``main`` prints."""
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[name]
    runner = Runner(name, workload)
    pool = list(range(drops or POOL_DROPS))
    random.Random(seed).shuffle(pool)
    lines = []
    if trace:
        setup_repeats = 0
        trace_path = OUT / f"trace-{name}-seed{seed}.jsonl"
        with runner.capture:
            values, steps, consistent, digests = run_traced(
                runner, pool, seconds, trace_path)
        metrics = dict(values)
        lines.append(f"answer digest untraced {digests[False]}")
        lines.append(f"answer digest traced   {digests[True]}")
        lines.append(f"trace written to {trace_path.relative_to(ROOT)}")
    else:
        setup_s = measure_setup(workload, setup_repeats)
        with runner.capture:
            values, extras, steps, consistent, digest = run_plain(
                runner, pool, seconds, HostSpeed())
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["passed_frac"] = 1.0 - runner.failed / runner.attempted
        # NaN only if a solver failed on every drop; correct is false then.
        metrics = {n: (values.get(n, float("nan")), unit) for n, (unit, _b) in END_TO_END.items()}
        lines.extend(f"extra {n} {v:.6g} {u}" for n, (v, u) in extras.items())
        lines.append(f"answer digest {digest}")
    lines.append(f"failed_frac {runner.failed / runner.attempted:.6g} "
                 f"({runner.failed} of {runner.attempted} runs)")
    if not consistent:
        lines.append("INCORRECT: a drop gave different answers on different passes")
    record = _record(name, seed, seconds, trace, pool, steps, setup_repeats)
    return {"record": record, "lines": lines, "metrics": metrics,
            "correct": consistent and runner.failed == 0,
            "attempted": runner.attempted, "failed": runner.failed}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_checkout():
        print(f"hetalloc sources or {SCENARIO.name} not found under {ROOT}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print("run record " + json.dumps(result["record"], sort_keys=True))
    for line in result["lines"]:
        print(line)
    for n, (value, unit) in result["metrics"].items():
        print(f"{n} {value:.6g} {unit}")
    out = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
