import csv
import dataclasses
import hashlib
import json
import re
from pathlib import Path

import pytest

from hetalloc import cli, harness
from hetalloc.harness import (RunMetrics, ScenarioFormatError, load_scenario,
                              parse_seed_spec, run_experiment,
                              serialize_scenario, write_metrics_csv)
from hetalloc.netmodel import ConfigError, build_topology

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


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
    assert serialize_scenario(load_scenario(path)) == data


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


def test_run_experiment_rejects_unknown_algorithm(tmp_path):
    path, _ = write_scenario(tmp_path)
    with pytest.raises(ValueError, match="simulated-annealing"):
        run_experiment(load_scenario(path), algorithms=["simulated-annealing"])


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


@pytest.mark.parametrize("spec", ["5:3", "4:4", ","])
def test_parse_seed_spec_rejects_empty(spec):
    with pytest.raises(ValueError, match=re.escape(repr(spec))):
        parse_seed_spec(spec)


@pytest.mark.parametrize("raw, expected", [("1e8", 10 ** 8), ("100000000", 10 ** 8),
                                           ("2.5e3", 2500), (" 42 ", 42)])
def test_oracle_budget_accepts_integer_valued(monkeypatch, raw, expected):
    monkeypatch.setenv(harness.ORACLE_BUDGET_ENV, raw)
    assert harness.oracle_budget() == expected


@pytest.mark.parametrize("raw", ["1.5", "1e8x", "inf", "nan", "1e400"])
def test_oracle_budget_rejects_non_integers(monkeypatch, raw):
    monkeypatch.setenv(harness.ORACLE_BUDGET_ENV, raw)
    with pytest.raises(ConfigError, match=f"ALLOC_ORACLE_BUDGET={re.escape(repr(raw))}"):
        harness.oracle_budget()


# Rows of run_experiment on scenarios/default.json, seeds 0..19, every
# solver, wall time blanked; pinned so that a change meant to be a pure
# speed-up cannot move any answer.
GOLDEN_DEFAULT_ROWS_SHA256 = "759f14719a72543e5ea5f2329de4388abac35e49171c2b6a1848337ee8edc06c"


def test_golden_answers_default_scenario():
    cfg = load_scenario(SCENARIOS / "default.json")
    rows = run_experiment(cfg, seeds=range(20))
    h = hashlib.sha256()
    for r in rows:
        h.update((repr(dataclasses.astuple(dataclasses.replace(r, wall_time_ms=None)))
                  + "\n").encode())
    assert len(rows) == 60
    assert h.hexdigest() == GOLDEN_DEFAULT_ROWS_SHA256


# --- CLI ------------------------------------------------------------------------

def test_cli_size(capsys):
    assert cli.main(["size", "-K", "5", "-N", "6", "-L", "3"]) == 0
    out = capsys.readouterr().out
    assert "alignment_combinations 1889568" in out
    assert "with_unassigned_option 2476099" in out


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
