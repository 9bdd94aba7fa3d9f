import ast
import csv
import dataclasses
import functools
import hashlib
import importlib.util
import json
import re
import sys
import types

import numpy as np
import pytest

import hetalloc
import pins
import reference
from hetalloc import auction, cli, harness, matching, msgpass, netmodel
from hetalloc.allocation import (exhaustive_search, is_feasible, oracle_cost, start_alignment,
                                 sum_rate, weighted_benefit)
from hetalloc.auction import run_auction
from hetalloc.harness import (SOLVERS, RunMetrics, load_scenario, parse_seed_spec,
                              run_experiment, write_metrics_csv)
from hetalloc.matching import run_stable_matching
from hetalloc.msgpass import run_message_passing
from hetalloc.netmodel import ConfigError, build_topology

from conftest import (BENCH, POOLS, ROOT, SCENARIOS, T_MAX, config, count_calls, drop,
                      drops_where, matching_cycles, rows_sha256)


SCENARIO = {
    "seed": 1, "cell_radius": 250.0, "num_mue": 2, "num_sbs": 1,
    "num_d2d": 1, "num_rb": 2, "power_levels": [0.1, 0.5],
    "mbs_power": 10.0, "noise_psd": 3.98e-21, "pathloss_exp": 3.0,
    "i_max": 1e-7, "w1": 1.0, "w2": 0.5, "d2d_max_dist": 25.0,
    "sbs_ue_max_dist": 35.0, "rb_bandwidth": 180000.0,
}


def write_scenario(tmp_path, overrides=None, omit=None, name="scen.json"):
    data = {**SCENARIO, **(overrides or {})}
    if omit:
        del data[omit]
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path, data


# --- scenario loading --------------------------------------------------------

def test_load_minimal_scenario(tmp_path):
    path, _ = write_scenario(tmp_path)
    cfg = load_scenario(path)
    assert cfg.num_rb == 2 and cfg.power_levels == (0.1, 0.5)


def test_load_rejects_unknown_field(tmp_path):
    path, _ = write_scenario(tmp_path, overrides={"bandwidth": 1.0})
    with pytest.raises(ConfigError, match="bandwidth"):
        load_scenario(path)


def test_load_rejects_missing_field(tmp_path):
    path, _ = write_scenario(tmp_path, omit="cell_radius")
    with pytest.raises(ConfigError, match="cell_radius"):
        load_scenario(path)


def test_load_rejects_nonincreasing_power_levels(tmp_path):
    path, _ = write_scenario(tmp_path, overrides={"power_levels": [0.5, 0.1]})
    with pytest.raises(ConfigError, match="power_levels"):
        load_scenario(path)


def test_load_allows_omitted_bandwidth_default(tmp_path):
    path, _ = write_scenario(tmp_path, omit="rb_bandwidth")
    assert load_scenario(path).rb_bandwidth == 180e3


def test_load_accepts_per_rb_i_max(tmp_path):
    path, _ = write_scenario(tmp_path, overrides={"i_max": [1e-7, 2e-7]})
    cfg = load_scenario(path)
    assert cfg.i_max == (1e-7, 2e-7)


def test_scenario_round_trip(tmp_path):
    path, data = write_scenario(tmp_path)
    assert dataclasses.asdict(load_scenario(path)) == \
        {**data, "power_levels": tuple(data["power_levels"])}


# --- experiment orchestration -------------------------------------------------

def test_run_experiment_rows_and_drop_identity(tmp_path):
    path, _ = write_scenario(tmp_path)
    cfg = load_scenario(path)
    rows = run_experiment(cfg, seeds=[3], with_oracle=True, t_max=200)
    assert [m.algorithm for m in rows] == ["auction", "matching", "msgpass", "oracle"]
    assert all(m.seed == 3 for m in rows)
    assert all(m.feasible for m in rows)
    # all rows were measured against the identical drop
    assert reference.checksum(drop(cfg, 3)) == reference.checksum(drop(cfg, 3))
    oracle = next(m for m in rows if m.algorithm == "oracle")
    for m in rows:
        assert m.sum_rate <= oracle.sum_rate * (1 + 1e-9)
        assert m.oracle_gap is not None and 0.0 <= m.oracle_gap <= 1.0


def test_run_experiment_oracle_budget_skip(tmp_path, caplog):
    path, _ = write_scenario(tmp_path)
    cfg = load_scenario(path)
    with caplog.at_level("WARNING"):
        rows = run_experiment(cfg, seeds=[0], with_oracle=True, budget=5)
    assert "oracle skipped" in caplog.text
    assert all(m.algorithm != "oracle" for m in rows)
    assert all(m.oracle_gap is None for m in rows)


def test_run_experiment_skips_oracle_exactly_above_its_cost(tmp_path):
    path, _ = write_scenario(tmp_path)
    cfg = load_scenario(path)
    cost = oracle_cost(cfg.num_tx, cfg.num_rb, len(cfg.power_levels))
    for budget, runs in ((cost, True), (cost - 1, False)):
        rows = run_experiment(cfg, algorithms=["msgpass"], seeds=[0], with_oracle=True,
                              budget=budget)
        assert any(m.algorithm == "oracle" for m in rows) == runs


def test_run_experiment_rejects_unknown_algorithm(tmp_path):
    path, _ = write_scenario(tmp_path)
    with pytest.raises(ValueError, match="simulated-annealing"):
        run_experiment(load_scenario(path), algorithms=["simulated-annealing"])


@pytest.mark.parametrize("selection, message", [
    ({"seeds": []}, "seeds [] selects no seeds"),
    ({"algorithms": []}, "algorithms [] must name one or more of"),
    ({"seeds": [2, 0, 2]}, "seeds [2, 0, 2] repeats seed 2"),
    ({"algorithms": ["auction", "msgpass", "auction"]},
     "algorithms ['auction', 'msgpass', 'auction'] repeats auction"),
    ({"algorithms": "auction"}, "algorithms 'auction' must be a sequence of names, not a string"),
    ({"t_max": 0}, "t_max must be >= 1, got 0"),
    ({"t_max": True}, "t_max must be an integer, got True"),
    ({"t_max": 2.0}, "t_max must be an integer, got 2.0"),
], ids=["no-seeds", "no-algorithms", "repeated-seed", "repeated-algorithm", "algorithms-string",
        "t_max-zero", "t_max-bool", "t_max-float"])
def test_run_experiment_rejects_bad_selection(tmp_path, monkeypatch, selection, message):
    path, _ = write_scenario(tmp_path)
    monkeypatch.setattr(netmodel, "build_topology", None)  # no drop may be built
    with pytest.raises(ValueError, match=re.escape(message)):
        run_experiment(load_scenario(path), **selection)


@pytest.mark.parametrize("seeds", [[0, 1.5], [0, True]], ids=["float", "bool"])
def test_run_experiment_rejects_non_integer_seed_before_any_drop(tmp_path, monkeypatch, seeds):
    # Seed 0 is good; the bad one after it must stop the run before drop 0
    # is built.
    path, _ = write_scenario(tmp_path)
    built = count_calls(monkeypatch, [(netmodel, "build_topology")])
    with pytest.raises(ValueError, match=re.escape(
            f"seeds {seeds!r} selects non-integer seed {seeds[1]!r}")):
        run_experiment(load_scenario(path), seeds=seeds)
    assert not built


@pytest.mark.parametrize("t_max, message", [
    (True, "t_max must be an integer, got True"),
    (2.5, "t_max must be an integer, got 2.5"),
    (0, "t_max must be >= 1"),
], ids=["bool", "float", "zero"])
@pytest.mark.parametrize("runner", [run_stable_matching, run_message_passing, run_auction],
                         ids=["matching", "msgpass", "auction"])
def test_runners_reject_bad_t_max(runner, t_max, message):
    # Every runner applies run_experiment's rule: a bool is not a count,
    # and a float must not reach range() unnamed.
    net = build_topology(load_scenario(SCENARIOS / "tiny.json"))
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        runner(net, t_max=t_max)


def test_run_experiment_takes_one_pass_selections(tmp_path):
    path, _ = write_scenario(tmp_path)
    rows = run_experiment(load_scenario(path), algorithms=iter(["msgpass", "auction"]),
                          seeds=iter([1, 0]), t_max=20)
    assert [(m.seed, m.algorithm) for m in rows] == \
        [(0, "auction"), (0, "msgpass"), (1, "auction"), (1, "msgpass")]


def test_run_experiment_calls_runners_through_module_globals(tmp_path, monkeypatch):
    # bench/run.py and bench/tracing.py swap these names on harness with
    # setattr; the swapped-in function must be the one that runs.
    names = ("run_stable_matching", "run_message_passing", "run_auction", "exhaustive_search")
    calls = count_calls(monkeypatch, [(harness, name) for name in names])
    path, _ = write_scenario(tmp_path)
    run_experiment(load_scenario(path), seeds=[0, 1], with_oracle=True, t_max=50)
    assert calls == {f"hetalloc.harness.{name}": 2 for name in names}


def bench_module(monkeypatch, name):
    """``bench/<name>.py``, loaded as a module that teardown unregisters."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_bench_trace_sites_exist(monkeypatch):
    tracing = bench_module(monkeypatch, "tracing")
    missing = [site.name for site in tracing.sites() if site.attr not in site.owner.__dict__]
    assert not missing


def test_pools_are_the_bench_workloads(monkeypatch):
    # bench/run.py pins its BLAS threads in os.environ on import.  setenv
    # records each variable's old value, set or not, so teardown undoes the
    # module's writes; delenv records nothing for an unset variable.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    run = bench_module(monkeypatch, "run")
    assert BENCH == tuple(run.WORKLOADS)
    for name, workload in run.WORKLOADS.items():
        assert (POOLS[name], T_MAX[name]) == (workload.overrides, workload.t_max), name
        timed = dict(seeds=range(run.POOL_DROPS), algorithms=workload.algorithms,
                     with_oracle=workload.oracle, t_max=workload.t_max)
        assert POOL_RUNS[name] == timed, name


def imported_test_modules(path):
    """The ``test_*`` modules that ``path`` imports, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return sorted(name for name in names if name.partition(".")[0].startswith("test_"))


def test_no_test_module_imports_another():
    # Scenarios and shared helpers live in conftest, goldens in pins, scan
    # references in reference and bounds in bound.
    found = {p.name: imported_test_modules(p) for p in sorted((ROOT / "tests").glob("test_*.py"))}
    assert not {name: modules for name, modules in found.items() if modules}


# The per-iteration sites of bench/tracing.py, on the module it swaps them on.
TRACED_STEPS = [(netmodel, "utility_table"), (netmodel, "benefit_table"),
                (netmodel, "cost_table"), (netmodel, "sinr_underlay"),
                (matching, "match_alignments"), (matching, "sum_rate"),
                (msgpass, "tx_sweep"), (msgpass, "res_sweep"),
                (msgpass, "extract_allocation"), (auction, "local_auction_round"),
                (auction, "bid_increment")]


def test_solver_steps_call_the_traced_sites(monkeypatch):
    # The tracer times a site by swapping the module attribute; a solver
    # that bound one of these names at import would bypass the swap and
    # zero its per-layer metric.  Matching confirms its cycle on the first
    # round whose allocation repeats an earlier one (the start state
    # included), computes no round after it and replays from the next.
    calls = count_calls(monkeypatch, TRACED_STEPS)
    cfg = config(POOLS["mid-k10"])
    seeds = drops_where(cfg, matching_cycles)
    assert seeds
    for seed in seeds:
        calls.clear()
        run_experiment(cfg, seeds=[seed], t_max=500)
        assert all(calls[f"{o.__name__}.{a}"] for o, a in TRACED_STEPS), calls
        rounds = calls["hetalloc.matching.match_alignments"]
        net = drop(cfg, seed)
        assert rounds == run_stable_matching(net, t_max=500).info["cycle"][0] - 1
        x = [start_alignment(net)] + reference.run_stable_matching(net, rounds).info["allocations"]
        assert rounds == next(r for r in range(1, len(x)) if x[r] in x[:r])


def auction_runs_three_rounds(net):
    return run_auction(net, t_max=500).iterations >= 3


@pytest.mark.parametrize("t_max", [500, 2])
def test_auction_prices_each_round_through_the_traced_tables(monkeypatch, t_max):
    # run_auction builds the benefit planes once for its start state and
    # once after every round that bid before t_max, and the cost planes
    # once; the row's evaluation builds no table.  Its drops bid past round
    # two, so t_max 2 cuts off a run that is still bidding.
    calls = count_calls(monkeypatch, [(netmodel, "benefit_table"), (netmodel, "cost_table")])
    cfg = config(POOLS["mid-k10"])
    seeds = drops_where(cfg, auction_runs_three_rounds)
    assert seeds
    for seed in seeds:
        calls.clear()
        [row] = run_experiment(cfg, seeds=[seed], t_max=t_max, algorithms=["auction"])
        assert calls["hetalloc.netmodel.benefit_table"] == row.iterations, (seed, calls)
        assert calls["hetalloc.netmodel.cost_table"] == 1, (seed, calls)


# --- CSV ----------------------------------------------------------------------

def test_csv_empty_metrics_header_only(tmp_path):
    out = tmp_path / "m.csv"
    write_metrics_csv([], out)
    assert out.read_bytes() == (",".join(harness.CSV_HEADER) + "\r\n").encode()


def test_run_metrics_fields_follow_csv_header():
    # write_metrics_csv writes a row's fields in their declared order, so
    # that order is the header's; only the rate's column names its unit.
    names = [f.name for f in dataclasses.fields(RunMetrics)]
    assert names == ["sum_rate" if h == "sum_rate_bps" else h for h in harness.CSV_HEADER]


def test_csv_single_row_round_trip(tmp_path):
    out = tmp_path / "m.csv"
    row = RunMetrics(algorithm="matching", seed=7, sum_rate=123456.789012345,
                     weighted_benefit=3.14159265, iterations=4, converged=True,
                     feasible=True, oracle_gap=None, wall_time_ms=1.5,
                     messages_exchanged=99)
    write_metrics_csv([row], out)
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    rec = dict(zip(harness.CSV_HEADER, next(csv.reader([lines[1]]))))
    assert rec["algorithm"] == "matching"
    assert int(rec["seed"]) == 7
    assert float(rec["sum_rate_bps"]) == pytest.approx(row.sum_rate, rel=1e-8)
    assert rec["converged"] == "true" and rec["feasible"] == "true"
    assert rec["oracle_gap"] == ""
    assert int(rec["messages_exchanged"]) == 99


def test_csv_uniform_columns_and_reparse(tmp_path):
    path, _ = write_scenario(tmp_path)
    cfg = load_scenario(path)
    rows = run_experiment(cfg, seeds=[0, 1], with_oracle=True, t_max=200)
    out = tmp_path / "m.csv"
    write_metrics_csv(rows, out)
    with open(out, newline="") as fh:
        recs = list(csv.reader(fh))
    assert recs[0] == harness.CSV_HEADER
    assert all(len(r) == len(harness.CSV_HEADER) for r in recs)
    assert len(recs) == 1 + len(rows)


def test_parse_seed_spec():
    assert parse_seed_spec("0:4") == [0, 1, 2, 3]
    assert parse_seed_spec("3") == [3]
    assert parse_seed_spec("1,4,9") == [1, 4, 9]


@pytest.mark.parametrize("spec", ["5:3", "4:4", ",", "-2:1", "3,-1"])
def test_parse_seed_spec_rejects_empty(spec):
    with pytest.raises(ValueError, match=re.escape(repr(spec))):
        parse_seed_spec(spec)


@pytest.mark.parametrize("spec", ["a:b", "0:1:2", "1.5"])
def test_parse_seed_spec_rejects_non_integers(spec):
    with pytest.raises(ValueError, match=re.escape(f"seed spec {spec!r} is neither")):
        parse_seed_spec(spec)


@pytest.mark.parametrize("spec, repeated", [("3,3", "3"), ("1,4,1,4,2", "1, 4")])
def test_parse_seed_spec_rejects_repeats(spec, repeated):
    with pytest.raises(ValueError, match=re.escape(f"{spec!r} repeats seed {repeated}")):
        parse_seed_spec(spec)


K50_RUN = dict(seeds=range(40), algorithms=("msgpass", "auction"), with_oracle=False, t_max=100)
# run_experiment's arguments for the golden rows of each bench pool: the run
# bench/run.py times, as test_pools_are_the_bench_workloads checks.  So the
# goldens pin, at full precision, every row the benchmark's answer digest
# hashes.
POOL_RUNS = {
    "oracle-k4": dict(seeds=range(40), algorithms=tuple(SOLVERS), with_oracle=True, t_max=500),
    "mid-k10": dict(seeds=range(40), algorithms=tuple(SOLVERS), with_oracle=False, t_max=500),
    "wide-k50-loose": K50_RUN,
    "wide-k50-tight": K50_RUN,
}


@pytest.mark.parametrize("overrides, run, count, expected", [
    ({}, dict(seeds=range(20), with_oracle=True), 80, pins.GOLDEN_DEFAULT_ORACLE_ROWS_SHA256),
    (POOLS["oracle-k4"], POOL_RUNS["oracle-k4"], 160, pins.GOLDEN_K4_ORACLE_ROWS_SHA256),
    (POOLS["mid-k10"], POOL_RUNS["mid-k10"], 120, pins.GOLDEN_MID_K10_ROWS_SHA256),
    (POOLS["wide-k50-loose"], POOL_RUNS["wide-k50-loose"], 80, pins.GOLDEN_K50_ROWS_SHA256),
    (POOLS["wide-k50-tight"], POOL_RUNS["wide-k50-tight"], 80,
     pins.GOLDEN_K50_TIGHT_ROWS_SHA256),
], ids=["default-oracle", "oracle-k4", "mid-k10", "wide-k50-loose", "wide-k50-tight"])
def test_golden_answers(overrides, run, count, expected):
    rows = run_experiment(config(overrides), **run)
    assert len(rows) == count
    assert rows_sha256(rows) == expected


@pytest.mark.parametrize("overrides, nonzero, expected", [
    (dict(num_sbs=1, num_d2d=0), 56, pins.ONE_ENTRY_ROWS["k1"]),
    ({}, 64, pins.ONE_ENTRY_ROWS["k5"]),
], ids=["k1", "k5"])
def test_golden_answers_one_entry_lines(overrides, nonzero, expected):
    cfg = config(dict(overrides, num_rb=1, power_levels=(1.0,)))
    rows = run_experiment(cfg, seeds=range(20), with_oracle=True)
    assert len(rows) == 80 and sum(r.sum_rate > 0 for r in rows) == nonzero
    assert rows_sha256(rows) == expected


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: refill")
def test_no_fitting_transmitter_left_silent():
    # A stronger stability check than criterion 4: an RB without holders
    # is willing too, as long as the newcomer keeps it under its cap.
    cfg = config(POOLS["mid-k10"])
    nets = [drop(cfg, seed) for seed in range(40)]
    counts = {}
    for name, solve in SOLVERS.items():
        allocs = [solve(net, 500).allocation for net in nets]
        counts[name] = (sum(net.num_tx - a.num_assigned() for net, a in zip(nets, allocs)),
                        sum(len(reference.fitting_silent(net, a)) for net, a in zip(nets, allocs)))
    print("mid-k10 seeds 0-39, (silent, of which fit) per solver:", counts)
    assert not any(fit for _silent, fit in counts.values()), counts


@functools.lru_cache(maxsize=None)
def pool_drops(pool):
    """The 40 drops, seeds 0..39, of one of the BENCH pools; built once for
    both digest tests."""
    cfg = config(POOLS[pool])
    return tuple(drop(cfg, seed) for seed in range(40))


@pytest.mark.parametrize("pool", BENCH)
def test_golden_topology(pool):
    topology = "".join(map(reference.checksum, pool_drops(pool)))
    assert hashlib.sha256(topology.encode()).hexdigest() == pins.TOPOLOGY[pool]


def derived_digest(nets):
    """sha256 over what each drop derives from its gains and config: each
    array's dtype, shape and bytes, then each scalar's float.hex."""
    h = hashlib.sha256()
    for net in nets:
        for a in (net.ref_mue, net.ref_gain, net.power_levels, net.i_max):
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
        for x in (net.mbs_power, net.sigma2, net.w1, net.w2, net.rb_bandwidth):
            h.update(float.hex(x).encode())
    return h.hexdigest()


@pytest.mark.parametrize("pool", BENCH)
def test_golden_derived_fields(pool):
    assert derived_digest(pool_drops(pool)) == pins.DERIVED_FIELDS[pool]


def test_pins_hold_every_digest():
    # Every pinned digest lives in tests/pins.py, so a change that moves
    # answers on purpose re-pins that one file, and a test reads each pin:
    # a pin whose check is gone cannot linger.
    digest = re.compile(r"\b[0-9a-f]{64}\b")
    paths = [p for p in (ROOT / "tests").glob("*.py") if p.name != "pins.py"]
    paths.append(ROOT / ".github" / "workflows" / "tests.yml")
    stray = {p.name: digest.findall(p.read_text()) for p in paths}
    assert not {name: found for name, found in stray.items() if found}
    assert digest.findall((ROOT / "tests" / "pins.py").read_text())
    read = {node.attr for p in paths if p.suffix == ".py"
            for node in ast.walk(ast.parse(p.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "pins"}
    assert not [name for name in vars(pins) if name.isupper() and name not in read]


def test_every_reference_has_a_reader():
    # Each public function and class of reference.py and bound.py is read
    # by another tests/ module, as module.name or by a from-import, so a
    # reference whose check is gone cannot linger.  A helper that only
    # another reference calls carries a leading underscore.
    paths = sorted((ROOT / "tests").glob("*.py"))
    for module in ("reference", "bound"):
        source = ROOT / "tests" / f"{module}.py"
        defined = {node.name for node in ast.parse(source.read_text()).body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and not node.name.startswith("_")}
        read = set()
        for node in (n for p in paths if p != source for n in ast.walk(ast.parse(p.read_text()))):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == module:
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == module:
                read.update(alias.name for alias in node.names)
        assert sorted(defined - read) == [], module


def test_each_row_computes_its_sinrs_once(monkeypatch):
    # Count the SINR lists run_experiment computes to evaluate its rows,
    # not those a solver or the oracle computes while it runs.
    calls, busy = [], []
    original = netmodel.sinr_underlay

    def counting(net, alloc):
        if not busy:
            calls.append(alloc)
        return original(net, alloc)

    def quiet(fn):
        def run(*args, **kwargs):
            busy.append(fn)
            try:
                return fn(*args, **kwargs)
            finally:
                busy.pop()
        return run

    monkeypatch.setattr(netmodel, "sinr_underlay", counting)
    monkeypatch.setattr(harness, "SOLVERS", {k: quiet(v) for k, v in harness.SOLVERS.items()})
    monkeypatch.setattr(harness, "exhaustive_search", quiet(harness.exhaustive_search))
    cfg = config({})
    for with_oracle in (False, True):
        calls.clear()
        rows = run_experiment(cfg, seeds=range(2), with_oracle=with_oracle)
        assert len(rows) == (8 if with_oracle else 6) and len(calls) == len(rows)


def test_rows_take_rate_and_benefit_from_one_report():
    cfg = config({})
    rows = run_experiment(cfg, seeds=[0, 1], with_oracle=True)
    for seed in (0, 1):
        net = drop(cfg, seed)
        for r in (r for r in rows if r.seed == seed):
            alloc = (exhaustive_search(net)[0] if r.algorithm == "oracle"
                     else harness.SOLVERS[r.algorithm](net, 500).allocation)
            report = is_feasible(net, alloc)
            assert report.weighted_benefit == weighted_benefit(net, alloc) == r.weighted_benefit
            assert r.sum_rate == report.sum_rate == sum_rate(net, alloc)


def returns_the_oracle(name, net):
    return SOLVERS[name](net, 500).allocation == exhaustive_search(net)[0]


# One drop selector per solver, made once so that drops_where caches by it.
ON_THE_ORACLE = {name: functools.partial(returns_the_oracle, name) for name in SOLVERS}


# Rows of a solver that returns the oracle's own allocation: on the
# oracle-k4 pool, and on default.json cut to one RB and one power level (K=5).
@pytest.mark.parametrize("overrides, seed_range", [
    (POOLS["oracle-k4"], range(40)),
    (dict(num_rb=1, power_levels=(1.0,)), range(20)),
], ids=["oracle-k4", "k5-one-entry"])
def test_solver_on_the_oracle_allocation_has_zero_gap(overrides, seed_range):
    cfg = config(overrides)
    hits = [(seed, name) for name, path in ON_THE_ORACLE.items()
            for seed in drops_where(cfg, path, seed_range)]
    assert hits
    seeds = sorted({seed for seed, _ in hits})
    rows = {(r.seed, r.algorithm): r
            for r in run_experiment(cfg, seeds=seeds, with_oracle=True)}
    for seed, name in hits:
        net = drop(cfg, seed)
        assert harness.SOLVERS[name](net, 500).allocation == exhaustive_search(net)[0]
        assert rows[seed, name].oracle_gap == 0.0 == rows[seed, "oracle"].oracle_gap
        assert rows[seed, name].sum_rate == rows[seed, "oracle"].sum_rate


# --- CLI ------------------------------------------------------------------------

def test_cli_size(capsys):
    assert cli.main(["size", "-K", "5", "-N", "6", "-L", "3"]) == 0
    out = capsys.readouterr().out
    assert "alignment_combinations 1889568" in out
    assert "with_unassigned_option 2476099" in out
    assert out.splitlines()[2] == "oracle_cost 8817"  # 6 * 4^5 + (6 + 5) * 3^5


def test_cli_size_exact_past_the_int_digit_limit(capsys):
    # 18**5000 has 6277 digits, past the 4300 that Python 3.11+ converts
    # by default.  The CLI prints the counts through Decimal, exact at any
    # size, and leaves the interpreter's limit as it was.
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
    limit = get_limit()
    assert cli.main(["size", "-K", "5000", "-N", "6", "-L", "3"]) == 0
    assert get_limit() == limit
    lines = capsys.readouterr().out.splitlines()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        assert lines[0] == f"alignment_combinations {18 ** 5000}"
        assert lines[1] == f"with_unassigned_option {19 ** 5000}"
        assert lines[2] == f"oracle_cost {oracle_cost(5000, 6, 3)}"
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_cli_validate_ok(capsys):
    paths = sorted(SCENARIOS.glob("*.json"))
    assert paths
    for path in paths:
        assert cli.main(["validate", str(path)]) == 0, path
        assert capsys.readouterr().out == "ok\n"


def csv_without_wall_time(path):
    with open(path, newline="") as fh:
        recs = list(csv.reader(fh))
    col = recs[0].index("wall_time_ms")
    return [rec[:col] + rec[col + 1:] for rec in recs]


def test_cli_run_end_to_end(tmp_path):
    # The CLI writes the library's CSV for the same drops, wall time aside,
    # at its own t_max (500) and at a --t-max that stops the solvers early.
    scenario = SCENARIOS / "tiny.json"
    got, want = tmp_path / "cli.csv", tmp_path / "library.csv"
    for args, t_max in ([], 500), (["--t-max", "2"], 2):
        assert cli.main(["run", "--scenario", str(scenario), "--seeds", "0:3", "--oracle",
                         "--out", str(got), *args]) == 0
        write_metrics_csv(run_experiment(load_scenario(scenario), seeds=range(3),
                                         with_oracle=True, t_max=t_max), want)
        rows = csv_without_wall_time(got)
        assert rows == csv_without_wall_time(want) and len(rows) == 1 + 3 * 4, t_max


def readme_example():
    text = (ROOT / "README.md").read_text()
    return text.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    exec(compile(readme_example(), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == list(SOLVERS)
    assert float(lines[-1]) > 0  # the auction's epsilon


def test_package_root_exports_the_readme_example_names():
    exported = {name for name, value in vars(hetalloc).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == set(re.findall(r"\bha\.(\w+)", readme_example()))


# --- CLI refusals ---------------------------------------------------------------

RUN, VALIDATE, BOTH = ("run",), ("validate",), ("run", "validate")

# Every input the CLI refuses, grouped by the test that runs it.  A row
# gives the commands, the scenario file (an edit of SCENARIO, its raw text,
# or None for no file), the arguments added to run or size, and the
# fragments the message must hold.  A fragment that starts with "invalid: "
# must open the message, and a row with a scenario edit or text must name
# the file.
REFUSALS = {
    "validate": {"pathloss_exp": (VALIDATE, {"pathloss_exp": 1.0}, [], ["pathloss_exp"])},
    "seed_range": {seeds: (RUN, {}, ["--seeds", seeds], [seeds]) for seeds in ("5:3", "9:9")},
    "values": {
        "seed-negative": (BOTH, {"seed": -1}, [], ["seed"]),
        "num_rb-float": (BOTH, {"num_rb": 2.0}, [], ["num_rb"]),
        "seed-bool": (BOTH, {"seed": True}, [], ["seed"]),
        "seeds-negative": (RUN, {}, ["--seeds=-2:1"], ["'-2:1'"]),
        "seeds-repeated": (RUN, {}, ["--seeds=3,3"], ["'3,3' repeats seed 3"]),
        "seeds-empty": (RUN, {}, ["--seeds", ""], ["seed spec '' is neither"]),
        "seeds-empty-entry": (RUN, {}, ["--seeds", "1,,2"], ["seed spec '1,,2' is neither"]),
        "w1-string": (BOTH, {"w1": "x"}, [], ["w1"]),
        "w2-null": (BOTH, {"w2": None}, [], ["w2"]),
        "cell_radius-bool": (BOTH, {"cell_radius": True}, [], ["cell_radius"]),
        "mbs_power-nan": (BOTH, {"mbs_power": float("nan")}, [], ["mbs_power"]),
        "i_max-nan": (BOTH, {"i_max": float("nan")}, [], ["i_max"]),
        "power_level-nan": (BOTH, {"power_levels": [0.1, float("nan")]}, [], ["power_levels"]),
        "power_levels-int": (BOTH, {"power_levels": 5}, [], ["power_levels", "got 5"]),
        "power_levels-null": (BOTH, {"power_levels": None}, [], ["power_levels", "got None"]),
        "power_levels-bool": (BOTH, {"power_levels": True}, [], ["power_levels", "got True"]),
        "d2d_max_dist-unplaceable": (BOTH, {"d2d_max_dist": 0.5}, [], ["d2d_max_dist"]),
        "sbs_ue_max_dist-unplaceable": (BOTH, {"sbs_ue_max_dist": 1.0}, [], ["sbs_ue_max_dist"]),
        "cell_radius-unplaceable": (BOTH, {"cell_radius": 1.0}, [], ["cell_radius"]),
    },
    # With a receiver disk just over MIN_LINK_DIST the receivers can rarely
    # be placed (tests/test_netmodel.py checks the drop's own error): both
    # commands refuse the scenario before any drop, naming the radius.
    "unplaceable": {"default": (
        BOTH, json.dumps({**json.loads((SCENARIOS / "default.json").read_text()),
                          "d2d_max_dist": 1.001}),
        ["--seeds", "0:10"], ["invalid: scen.json: d2d_max_dist must be >= sqrt(2 (K + 1))"])},
    "algorithms": {
        "unknown": (RUN, {}, ["--algorithms", "msgpass,annealing"], ["annealing"]),
        "empty": (RUN, {}, ["--algorithms", ","], ["must name"]),
        "repeated": (RUN, {}, ["--algorithms", "auction,msgpass,auction"], ["repeats auction"]),
        "empty-entry": (RUN, {}, ["--algorithms", "msgpass,,auction"],
                        ["--algorithms 'msgpass,,auction' must name one or more of"]),
        "trailing-comma": (RUN, {}, ["--algorithms", "msgpass,"],
                           ["--algorithms 'msgpass,' must name one or more of"]),
    },
    "t_max": {t_max: (RUN, {}, ["--t-max", t_max], ["--t-max", t_max]) for t_max in ("0", "-3")},
    "out": {
        "no-parent": (RUN, {}, ["--out", "missing/m.csv"],
                      ["invalid: --out 'missing/m.csv'", "does not exist"]),
        "directory": (RUN, {}, ["--out", "."], ["invalid: --out '.'", "is a directory"]),
    },
    "size": {
        "K0": (("size",), None, ["-K", "0", "-N", "3", "-L", "2"],
               ["counts must be >= 1", "K=0, N=3, L=2"]),
        "N0": (("size",), None, ["-K", "5", "-N", "0", "-L", "2"],
               ["counts must be >= 1", "K=5, N=0, L=2"]),
        "L-1": (("size",), None, ["-K", "5", "-N", "3", "-L", "-1"],
                ["counts must be >= 1", "K=5, N=3, L=-1"]),
    },
    "file": {
        "missing": (BOTH, None, [], ["scen.json"]),
        "malformed": (BOTH, "{not json", [], ["scen.json"]),
        "int-too-long": (BOTH, '{"seed": 1%s}' % ("0" * 5000), [], ["scen.json"]),
        "repeated-key": (BOTH, json.dumps(SCENARIO)[:-1] + ', "i_max": 5.0}', [],
                         ["scen.json: repeated field(s): i_max"]),
    },
}


def refusals(group):
    return pytest.mark.parametrize("row", REFUSALS[group].values(), ids=REFUSALS[group].keys())


def no_drop(*args, **kwargs):
    raise AssertionError("a drop ran")


@pytest.fixture
def refused(tmp_path, capsys, monkeypatch):
    """Checks a REFUSALS row: each command exits 2 with one "invalid: "
    message on stderr, holding every fragment (and the file's name where
    the row gives a scenario edit or text), before any drop runs and with
    nothing on stdout; no --out file is written."""
    monkeypatch.setattr(harness, "run_experiment", no_drop)
    monkeypatch.chdir(tmp_path)

    def check(row):
        commands, scenario, args, fragments = row
        if scenario:
            fragments = [*fragments, "scen.json"]
        if scenario is not None:
            text = scenario if isinstance(scenario, str) else json.dumps({**SCENARIO, **scenario})
            (tmp_path / "scen.json").write_text(text)
        argv = {"run": ["run", "--scenario", "scen.json", "--out", "m.csv", *args],
                "validate": ["validate", "scen.json"], "size": ["size", *args]}
        for command in commands:
            assert cli.main(argv[command]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("invalid: ") and err.count("invalid: ") == 1
            for fragment in fragments:
                assert fragment in err
        assert [p.name for p in tmp_path.iterdir()] == ([] if scenario is None else ["scen.json"])
    return check


def test_cli_validate_bad(refused):
    refused(REFUSALS["validate"]["pathloss_exp"])


@refusals("seed_range")
def test_cli_run_empty_seed_range_exits_2(refused, row):
    refused(row)


@refusals("values")
def test_cli_rejects_bad_integers_exit_2(refused, row):
    refused(row)


def test_cli_run_unplaceable_receiver_exits_2(refused):
    refused(REFUSALS["unplaceable"]["default"])


@refusals("algorithms")
def test_cli_run_bad_algorithms_exit_2(refused, row):
    refused(row)


@refusals("t_max")
def test_cli_run_bad_t_max_exits_2(refused, row):
    refused(row)


@refusals("out")
def test_cli_run_bad_out_exits_2(refused, row):
    refused(row)


@refusals("size")
def test_cli_size_bad_counts_exit_2(refused, row):
    refused(row)


@refusals("file")
def test_cli_run_bad_scenario_exits_2(refused, row):
    refused(row)
