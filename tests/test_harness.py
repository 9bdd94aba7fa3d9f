import csv
import dataclasses
import hashlib
import importlib.util
import json
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from hetalloc import cli, harness, netmodel
from hetalloc.allocation import (exhaustive_search, is_feasible, oracle_cost, sum_rate,
                                 weighted_benefit)
from hetalloc.harness import (RunMetrics, ScenarioFormatError, load_scenario,
                              parse_seed_spec, run_experiment, write_metrics_csv)
from hetalloc.netmodel import ConfigError, build_topology

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def write_scenario(tmp_path, overrides=None, drop=None, name="scen.json"):
    data = {
        "seed": 1, "cell_radius": 250.0, "num_mue": 2, "num_sbs": 1,
        "num_d2d": 1, "num_rb": 2, "power_levels": [0.1, 0.5],
        "mbs_power": 10.0, "noise_psd": 3.98e-21, "pathloss_exp": 3.0,
        "i_max": 1e-7, "w1": 1.0, "w2": 0.5, "d2d_max_dist": 25.0,
        "sbs_ue_max_dist": 35.0, "rb_bandwidth": 180000.0,
    }
    if overrides:
        data.update(overrides)
    if drop:
        del data[drop]
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
    with pytest.raises(ScenarioFormatError, match="bandwidth"):
        load_scenario(path)


def test_load_rejects_missing_field(tmp_path):
    path, _ = write_scenario(tmp_path, drop="cell_radius")
    with pytest.raises(ScenarioFormatError, match="cell_radius"):
        load_scenario(path)


def test_load_rejects_nonincreasing_power_levels(tmp_path):
    path, _ = write_scenario(tmp_path, overrides={"power_levels": [0.5, 0.1]})
    with pytest.raises(ConfigError, match="power_levels"):
        load_scenario(path)


def test_load_allows_omitted_bandwidth_default(tmp_path):
    path, _ = write_scenario(tmp_path, drop="rb_bandwidth")
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
    assert (build_topology(dataclasses.replace(cfg, seed=3)).checksum()
            == build_topology(dataclasses.replace(cfg, seed=3)).checksum())
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
    cost = oracle_cost(cfg.num_tx, cfg.num_rb, cfg.num_levels)
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


def test_run_experiment_takes_one_pass_selections(tmp_path):
    path, _ = write_scenario(tmp_path)
    rows = run_experiment(load_scenario(path), algorithms=iter(["msgpass", "auction"]),
                          seeds=iter([1, 0]), t_max=20)
    assert [(m.seed, m.algorithm) for m in rows] == \
        [(0, "auction"), (0, "msgpass"), (1, "auction"), (1, "msgpass")]


def test_run_experiment_calls_runners_through_module_globals(tmp_path, monkeypatch):
    # bench/run.py and bench/tracing.py swap these names on harness with
    # setattr; the swapped-in function must be the one that runs.
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    names = ("run_stable_matching", "run_message_passing", "run_auction", "exhaustive_search")
    for name in names:
        monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
    path, _ = write_scenario(tmp_path)
    run_experiment(load_scenario(path), seeds=[0, 1], with_oracle=True, t_max=50)
    assert calls == {name: 2 for name in names}


def test_bench_trace_sites_exist(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    missing = [site.name for site in tracing.sites() if site.attr not in site.owner.__dict__]
    assert not missing


# --- CSV ----------------------------------------------------------------------

def test_csv_empty_metrics_header_only(tmp_path):
    out = tmp_path / "m.csv"
    write_metrics_csv([], out)
    assert out.read_bytes() == (",".join(harness.CSV_HEADER) + "\r\n").encode()


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


@pytest.mark.parametrize("raw, expected", [("1e8", 10 ** 8), ("100000000", 10 ** 8),
                                           ("2.5e3", 2500), (" 42 ", 42)])
def test_oracle_budget_accepts_integer_valued(monkeypatch, raw, expected):
    monkeypatch.setenv(harness.ORACLE_BUDGET_ENV, raw)
    assert harness.oracle_budget() == expected


@pytest.mark.parametrize("raw", ["1.5", "1e8x", "inf", "nan", "1e400", "-5", "0"])
def test_oracle_budget_rejects_non_integers(monkeypatch, raw):
    monkeypatch.setenv(harness.ORACLE_BUDGET_ENV, raw)
    with pytest.raises(ConfigError, match=f"ALLOC_ORACLE_BUDGET={re.escape(repr(raw))}"):
        harness.oracle_budget()


# Rows of run_experiment on scenarios/default.json, seeds 0..19, every
# solver, wall time blanked; pinned so that a change meant to be a pure
# speed-up cannot move any answer.
GOLDEN_DEFAULT_ROWS_SHA256 = "759f14719a72543e5ea5f2329de4388abac35e49171c2b6a1848337ee8edc06c"
# The same with the oracle, on default.json (seeds 0..19) and on the K=4,
# N=4, L=3 drops of bench/run.py's oracle-k4 workload (seeds 0..39); both
# hashes come from the full-enumeration oracle.
GOLDEN_DEFAULT_ORACLE_ROWS_SHA256 = (
    "36153f1fc3466a240a1818449ea872151974e0fc0834664325f91f85add55a53")
GOLDEN_K4_ORACLE_ROWS_SHA256 = "7cb7e992d37ba642c5ba04a4d1973f2c690fa0e5973be2b17fe42bdd7c857f65"
K4 = dict(num_sbs=2, num_d2d=2, num_rb=4, power_levels=(0.05, 0.2, 1.0), i_max=1e-7)
# Message passing and the auction at K=50, N=25, L=4 under the loose cap of
# bench/run.py's wide-k50-loose workload, seeds 0..4, t_max=100; pinned
# from the auction that bid one transmitter at a time.
GOLDEN_K50_ROWS_SHA256 = "e092b5c0070de361f9570010a804fc9ce036a88be4816997b6d3d3aec0741076"
K50_LOOSE = dict(num_sbs=30, num_d2d=20, num_rb=25, power_levels=(0.02, 0.05, 0.2, 1.0),
                 i_max=1e-6)
# The same under the tight cap of wide-k50-tight, where most RBs are over
# their cap at every repair; pinned from the repair that scanned every RB.
GOLDEN_K50_TIGHT_ROWS_SHA256 = "474dd8469feeaba59f7b56104010a7cf59d38b312689ea2cee9ceb413ff8ccc9"
K50_TIGHT = dict(K50_LOOSE, i_max=1e-8)
# All three solvers on the K=10, N=8, L=3 drops of bench/run.py's mid-k10
# workload, seeds 0..39, t_max=500; pinned from the matching that ranked
# with per-entry profile lists.
GOLDEN_MID_K10_ROWS_SHA256 = "a265c2fdd4372e80415dbe9992f00c0fc9e95610773622f2f715e74c6368708a"
MID_K10 = dict(num_sbs=6, num_d2d=4, num_rb=8, power_levels=(0.05, 0.2, 1.0), i_max=1e-7)


def rows_sha256(rows):
    h = hashlib.sha256()
    for r in rows:
        h.update((repr(dataclasses.astuple(dataclasses.replace(r, wall_time_ms=None)))
                  + "\n").encode())
    return h.hexdigest()


def test_golden_answers_default_scenario():
    rows = run_experiment(load_scenario(SCENARIOS / "default.json"), seeds=range(20))
    assert len(rows) == 60
    assert rows_sha256(rows) == GOLDEN_DEFAULT_ROWS_SHA256


@pytest.mark.parametrize("overrides, seeds, expected", [
    ({}, range(20), GOLDEN_DEFAULT_ORACLE_ROWS_SHA256),
    (K4, range(40), GOLDEN_K4_ORACLE_ROWS_SHA256),
], ids=["default", "k4"])
def test_golden_answers_with_oracle(overrides, seeds, expected):
    cfg = dataclasses.replace(load_scenario(SCENARIOS / "default.json"), **overrides)
    rows = run_experiment(cfg, seeds=seeds, with_oracle=True)
    assert len(rows) == 4 * len(seeds)
    assert rows_sha256(rows) == expected


def k50_rows(overrides):
    cfg = dataclasses.replace(load_scenario(SCENARIOS / "default.json"), **overrides)
    rows = run_experiment(cfg, algorithms=("msgpass", "auction"), seeds=range(5), t_max=100)
    assert len(rows) == 10
    return rows


def test_golden_answers_k50_loose():
    assert rows_sha256(k50_rows(K50_LOOSE)) == GOLDEN_K50_ROWS_SHA256


def test_golden_answers_k50_tight():
    assert rows_sha256(k50_rows(K50_TIGHT)) == GOLDEN_K50_TIGHT_ROWS_SHA256


def test_golden_answers_mid_k10():
    cfg = dataclasses.replace(load_scenario(SCENARIOS / "default.json"), **MID_K10)
    rows = run_experiment(cfg, seeds=range(40), t_max=500)
    assert len(rows) == 120
    assert rows_sha256(rows) == GOLDEN_MID_K10_ROWS_SHA256


# sha256 over Network.checksum of each bench/run.py pool drop (seeds
# 0..39), pinned from the topology build that placed receivers one scalar
# try at a time and took distances with np.linalg.norm (now
# reference.build_topology); the placement in array blocks keeps them.
# The cap does not enter the drop, so both K=50 pools hash alike.
@pytest.mark.parametrize("overrides, expected", [
    (K4, "6ed4019b6a7de82a5096005a5093eb9c3cb2d1dc476d2a82a4dd5c494cb16a87"),
    (MID_K10, "eb137da997bfd822ec111c0872c565af295069eb2a54e163b99d7f326811d21e"),
    (K50_LOOSE, "7665bb632a28e1917af81b9f9d6de3437155964655ae2681ad8816af9a6994bc"),
    (K50_TIGHT, "7665bb632a28e1917af81b9f9d6de3437155964655ae2681ad8816af9a6994bc"),
], ids=["oracle-k4", "mid-k10", "wide-k50-loose", "wide-k50-tight"])
def test_golden_topology(overrides, expected):
    cfg = dataclasses.replace(load_scenario(SCENARIOS / "default.json"), **overrides)
    h = hashlib.sha256()
    for seed in range(40):
        h.update(build_topology(dataclasses.replace(cfg, seed=seed)).checksum().encode())
    assert h.hexdigest() == expected


def test_each_row_computes_its_sinrs_once(monkeypatch):
    # Count the SINR lists run_experiment computes to evaluate its rows,
    # not those a solver or the oracle computes while it runs.
    calls, busy = [], []
    original = netmodel.underlay_sinrs

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

    monkeypatch.setattr(netmodel, "underlay_sinrs", counting)
    monkeypatch.setattr(harness, "SOLVERS", {k: quiet(v) for k, v in harness.SOLVERS.items()})
    monkeypatch.setattr(harness, "exhaustive_search", quiet(harness.exhaustive_search))
    cfg = load_scenario(SCENARIOS / "default.json")
    for with_oracle in (False, True):
        calls.clear()
        rows = run_experiment(cfg, seeds=range(2), with_oracle=with_oracle)
        assert len(rows) == (8 if with_oracle else 6) and len(calls) == len(rows)


def test_rows_take_rate_and_benefit_from_one_report():
    cfg = load_scenario(SCENARIOS / "default.json")
    rows = run_experiment(cfg, seeds=[0, 1], with_oracle=True)
    for seed in (0, 1):
        net = build_topology(dataclasses.replace(cfg, seed=seed))
        for r in (r for r in rows if r.seed == seed):
            alloc = (exhaustive_search(net)[0] if r.algorithm == "oracle"
                     else harness.SOLVERS[r.algorithm](net, 500).allocation)
            report = is_feasible(net, alloc)
            assert report.weighted_benefit == weighted_benefit(net, alloc) == r.weighted_benefit
            assert report.sum_rate == sum_rate(net, alloc)
            if r.algorithm != "oracle":
                assert r.sum_rate == report.sum_rate


# --- CLI ------------------------------------------------------------------------

def test_cli_size(capsys):
    assert cli.main(["size", "-K", "5", "-N", "6", "-L", "3"]) == 0
    out = capsys.readouterr().out
    assert "alignment_combinations 1889568" in out
    assert "with_unassigned_option 2476099" in out
    assert out.splitlines()[2] == "oracle_cost 7602"  # 6 * (4^5 + 3^5)


def test_cli_size_exact_past_the_int_digit_limit(capsys):
    # 18**5000 has 6277 digits, past the 4300 that Python 3.11+ converts
    # by default; the limit is lifted for the print and then restored.
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
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_cli_validate_ok(tmp_path, capsys):
    path, _ = write_scenario(tmp_path)
    assert cli.main(["validate", str(path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_validate_bad(tmp_path, capsys):
    path, _ = write_scenario(tmp_path, overrides={"pathloss_exp": 1.0})
    assert cli.main(["validate", str(path)]) == 2
    assert "pathloss_exp" in capsys.readouterr().err


def test_cli_run_end_to_end(tmp_path, capsys):
    path, _ = write_scenario(tmp_path)
    out = tmp_path / "metrics.csv"
    rc = cli.main(["run", "--scenario", str(path), "--seeds", "0:2",
                   "--oracle", "--out", str(out), "--t-max", "200"])
    assert rc == 0
    with open(out, newline="") as fh:
        recs = list(csv.reader(fh))
    assert len(recs) == 1 + 2 * 4  # two seeds, three algorithms plus oracle


@pytest.mark.parametrize("seeds", ["5:3", "9:9"])
def test_cli_run_empty_seed_range_exits_2(tmp_path, capsys, seeds):
    path, _ = write_scenario(tmp_path)
    out = tmp_path / "metrics.csv"
    rc = cli.main(["run", "--scenario", str(path), "--seeds", seeds, "--out", str(out)])
    assert rc == 2
    assert seeds in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_bad_budget_exits_2(tmp_path, capsys, monkeypatch):
    path, _ = write_scenario(tmp_path)
    monkeypatch.setenv(harness.ORACLE_BUDGET_ENV, "lots")
    rc = cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "m.csv")])
    assert rc == 2
    assert "ALLOC_ORACLE_BUDGET='lots'" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, seeds, name", [
    ({"seed": -1}, None, "seed"),
    ({"num_rb": 2.0}, None, "num_rb"),
    ({"seed": True}, None, "seed"),
    ({}, "-2:1", "'-2:1'"),
    ({}, "3,3", "'3,3' repeats seed 3"),
    ({"w1": "x"}, None, "w1"),
    ({"w2": None}, None, "w2"),
    ({"cell_radius": True}, None, "cell_radius"),
    ({"mbs_power": float("nan")}, None, "mbs_power"),
    ({"i_max": float("nan")}, None, "i_max"),
    ({"power_levels": [0.1, float("nan")]}, None, "power_levels"),
    ({"d2d_max_dist": 0.5}, None, "d2d_max_dist"),
    ({"sbs_ue_max_dist": 1.0}, None, "sbs_ue_max_dist"),
    ({"cell_radius": 1.0}, None, "cell_radius"),
], ids=["seed-negative", "num_rb-float", "seed-bool", "seeds-negative", "seeds-repeated",
        "w1-string", "w2-null", "cell_radius-bool", "mbs_power-nan", "i_max-nan",
        "power_level-nan", "d2d_max_dist-unplaceable", "sbs_ue_max_dist-unplaceable",
        "cell_radius-unplaceable"])
def test_cli_rejects_bad_integers_exit_2(tmp_path, capsys, overrides, seeds, name):
    path, _ = write_scenario(tmp_path, overrides=overrides)
    out = tmp_path / "m.csv"
    run = ["run", "--scenario", str(path), "--out", str(out)]
    commands = [run + [f"--seeds={seeds}"]] if seeds else [run, ["validate", str(path)]]
    for argv in commands:
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid: ") and name in err
    assert not out.exists()


def test_cli_run_unplaceable_receiver_exits_2(tmp_path, capsys):
    # With a receiver disk just over MIN_LINK_DIST the receivers can rarely
    # be placed (tests/test_netmodel.py checks the drop's own error): both
    # commands refuse the scenario before any drop, naming the radius.
    data = json.loads((SCENARIOS / "default.json").read_text())
    data["d2d_max_dist"] = 1.001
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "m.csv"
    for argv in (["run", "--scenario", str(path), "--seeds", "0:10", "--out", str(out)],
                 ["validate", str(path)]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid: d2d_max_dist must be >= sqrt(2 (K + 1))")
    assert not out.exists()


@pytest.mark.parametrize("algorithms, reason", [("msgpass,annealing", "annealing"),
                                                (",", "must name"),
                                                ("auction,msgpass,auction", "repeats auction")],
                         ids=["unknown", "empty", "repeated"])
def test_cli_run_bad_algorithms_exit_2(tmp_path, capsys, algorithms, reason):
    path, _ = write_scenario(tmp_path)
    out = tmp_path / "m.csv"
    rc = cli.main(["run", "--scenario", str(path), "--algorithms", algorithms,
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid: ") and reason in err
    assert not out.exists()


@pytest.mark.parametrize("t_max", ["0", "-3"])
def test_cli_run_bad_t_max_exits_2(tmp_path, capsys, t_max):
    path, _ = write_scenario(tmp_path)
    out = tmp_path / "m.csv"
    rc = cli.main(["run", "--scenario", str(path), "--t-max", t_max, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid: ") and "--t-max" in err and t_max in err
    assert not out.exists()


@pytest.mark.parametrize("out, reason", [("missing/m.csv", "does not exist"),
                                         (".", "is a directory")], ids=["no-parent", "directory"])
def test_cli_run_bad_out_exits_2(tmp_path, capsys, monkeypatch, out, reason):
    # The path is checked before any drop runs.
    path, _ = write_scenario(tmp_path)
    monkeypatch.setattr(harness, "run_experiment", None)
    out = str(tmp_path / out)
    rc = cli.main(["run", "--scenario", str(path), "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid: --out {out!r}") and reason in err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("counts", [("0", "3", "2"), ("5", "0", "2"), ("5", "3", "-1")],
                         ids=["K0", "N0", "L-1"])
def test_cli_size_bad_counts_exit_2(capsys, counts):
    K, N, L = counts
    assert cli.main(["size", "-K", K, "-N", N, "-L", L]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid: ") and "counts must be >= 1" in captured.err
    assert f"K={K}, N={N}, L={L}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("content", [None, "{not json", '{"seed": 1%s}' % ("0" * 5000)],
                         ids=["missing", "malformed", "int-too-long"])
def test_cli_run_bad_scenario_exits_2(tmp_path, capsys, content):
    path = tmp_path / "scen.json"
    if content is not None:
        path.write_text(content)
    out = tmp_path / "m.csv"
    for argv in (["run", "--scenario", str(path), "--out", str(out)], ["validate", str(path)]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid: ") and "scen.json" in err
    assert not out.exists()
