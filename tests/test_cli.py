import csv
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import mapcsim.campaign
import mapcsim.cli
from mapcsim import (Campaign, ScenarioConfig, TimingConfig, TrafficConfig,
                     load_simulation_config, run_campaign, run_simulation,
                     save_simulation_config)
from mapcsim.campaign import (PER_RUN_COLUMNS, RunSpec, enumerate_runs,
                              execute_run, write_csv)
from mapcsim.cli import main
from test_config import CONFIG_SECTIONS_OF_WRONG_TYPE


def _write_config(tmp_path, extra=None):
    config = {
        "timing": {"num_txops": 40},
        "traffic": {"load_bps_per_sta": 6e6},
        "seed": 3,
    }
    if extra:
        config.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_subcommand(tmp_path, capsys):
    path = _write_config(tmp_path)
    rc = main(["run", "--config", str(path), "--scheduler", "numpk-single",
               "--out", str(tmp_path / "out"), "--trace"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "throughput:" in out and "mean delay:" in out
    assert (tmp_path / "out" / "run.csv").exists()
    trace = (tmp_path / "out" / "txop_trace.csv").read_text().splitlines()
    assert len(trace) == 41  # header + one row per TXOP
    assert trace[0].startswith("txop_index,")
    # each row holds its TXOP's record, and the rows add up to the run
    config = replace(load_simulation_config(path), scheduler="numpk-single")
    records = []
    run_simulation(config, txop_trace=records)
    rows = _read_rows(tmp_path / "out" / "txop_trace.csv")
    assert [(int(row["num_slots"]), int(row["packets_delivered"]),
             float(row["occupancy"])) for row in rows] == [
        (len(rec.slots), rec.packets_delivered,
         rec.total_duration_us / config.timing.txop_max_us) for rec in records]
    assert any(rec.slots for rec in records)
    (run_row,) = _read_rows(tmp_path / "out" / "run.csv")
    assert (sum(int(row["packets_delivered"]) for row in rows)
            == int(run_row["packets_delivered"]))


def test_run_out_simulates_once(tmp_path, monkeypatch, capsys):
    calls = []
    real = mapcsim.cli.run_simulation

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(mapcsim.cli, "run_simulation", counting)
    monkeypatch.setattr(mapcsim.campaign, "run_simulation", counting)
    path = _write_config(tmp_path)
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert len(calls) == 1


def test_run_trace_without_out_collects_no_trace(tmp_path, monkeypatch, capsys):
    # nothing would write the trace, so the run gets no list to fill, and the
    # note is on stderr before the run starts
    seen = []
    real = mapcsim.cli.run_simulation

    def recording(config, *, txop_trace=None):
        seen.append((txop_trace, capsys.readouterr().err))
        return real(config, txop_trace=txop_trace)

    monkeypatch.setattr(mapcsim.cli, "run_simulation", recording)
    rc = main(["run", "--config", str(_write_config(tmp_path)), "--trace"])
    assert rc == 0
    assert seen == [(None, "note: --trace has no effect without --out\n")]
    assert capsys.readouterr().err == ""


def test_run_out_row_matches_execute_run(tmp_path, capsys):
    path = _write_config(tmp_path)
    rc = main(["run", "--config", str(path), "--scheduler", "oldpk-group",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    config = load_simulation_config(path)
    spec = RunSpec(0, 0, 6.0, replace(config, scheduler="oldpk-group"))
    write_csv(tmp_path / "expected.csv", PER_RUN_COLUMNS, [execute_run(spec)])
    assert ((tmp_path / "out" / "run.csv").read_bytes()
            == (tmp_path / "expected.csv").read_bytes())


def test_campaign_run_replays_from_its_saved_config(tmp_path, capsys):
    # a RunSpec's config is all a run needs: saved, it replays the campaign's row
    campaign = Campaign(scenario=ScenarioConfig(subarea_side_m=12.0),
                        timing=TimingConfig(num_txops=50),
                        traffic=TrafficConfig(burst_packets=5),
                        loads_mbps=(2.0, 6.0),
                        schedulers=("oldpk-single", "ctdma-numpk"),
                        num_deployments=2, base_seed=4)
    per_run = _read_rows(run_campaign(campaign, out_dir=tmp_path / "camp")["per_run"])
    for spec in enumerate_runs(campaign)[5:8]:
        save_simulation_config(spec.config, tmp_path / "run.json")
        out = tmp_path / f"run{spec.run_id}"
        assert main(["run", "--config", str(tmp_path / "run.json"),
                     "--out", str(out)]) == 0
        [replayed] = _read_rows(out / "run.csv")
        row = per_run[spec.run_id]
        assert row["run_id"] == str(spec.run_id) != replayed["run_id"]
        assert row["deployment_index"] == "1" != replayed["deployment_index"]
        for column in ("run_id", "deployment_index"):
            del row[column], replayed[column]
        assert replayed == row


@pytest.mark.parametrize("argv, message", [
    (["run", "--gamma", "nan", "--load-mbps", "6"], "gamma_db must be finite"),
    (["run", "--load-mbps", "nan"], "load_bps_per_sta must be >= 0"),
    (["groups", "--gamma", "nan"], "gamma_db must be finite"),
    (["groups", "--gamma", "inf"], "gamma_db must be finite"),
])
def test_non_finite_flags_rejected(argv, message, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["run", "--seed", "-1"], ["groups", "--seed", "-3"]],
                         ids=["run", "groups"])
def test_negative_seed_flag_rejected(argv, capsys):
    # both once started and died with numpy's bare "expected non-negative integer"
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"error: seed must be >= 0, got {argv[-1]}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("extra, message", [
    ({"scenario": {"subarea_side_m": float("nan")}}, "subarea_side_m must be finite"),
    ({"scenario": {"noise_dbm": float("nan")}}, "noise_dbm must be finite"),
    ({"mcs_table": [[0, float("nan"), 100.0]]}, "must be finite"),
    # a NaN wall count once ran and reported 103.5 Mbps; infinity 0 Mbps
    ({"scenario": {"wall_count": float("nan")}}, "wall_count must be finite"),
    ({"scenario": {"wall_count": float("inf")}}, "wall_count must be finite"),
    # a fractional burst size once ran
    ({"traffic": {"burst_packets": 2.5}}, "burst_packets must be an integer, got 2.5"),
    # a TXOP cap with no room for a slot once ran and delivered nothing
    ({"timing": {"num_txops": 40, "txop_max_ms": 0.25}}, "txop_max_ms must exceed 289 us"),
    # nor did a cap with room for a slot's frames but not for one packet
    ({"timing": {"num_txops": 40, "txop_max_ms": 0.3}},
     "less than the 92.9915 us one 1500 B packet takes at the top MCS (10)"),
    # a fractional index was once truncated, a bool threshold made 1.0 dB
    ({"mcs_table": [[0.9, 2, 117], [1.4, 5, 234]]}, "MCS row 0, [0.9, 2, 117], must be"),
    ({"mcs_table": [[0, True, 117]]}, "MCS row 0, [0, True, 117], must be"),
])
def test_non_finite_config_rejected(tmp_path, extra, message, capsys):
    path = _write_config(tmp_path, extra)  # json writes NaN, as it reads it
    assert main(["run", "--config", str(path), "--load-mbps", "6"]) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("extra, message", CONFIG_SECTIONS_OF_WRONG_TYPE)
def test_config_sections_of_the_wrong_type_reported(tmp_path, extra, message, capsys):
    path = _write_config(tmp_path, extra)
    assert main(["run", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""


def test_run_flag_overrides(tmp_path, capsys):
    path = _write_config(tmp_path)
    rc = main(["run", "--config", str(path), "--scheduler", "ctdma-numpk",
               "--load-mbps", "1.0", "--gamma", "14", "--k", "2",
               "--seed", "99"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "scheduler=ctdma-numpk" in out
    assert "gamma=14" in out and "k=2" in out
    assert "load=1 Mbps/STA" in out and "seed=99" in out


def test_run_defaults_without_config(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["run", "--load-mbps", "1.0", "--seed", "2"])
    # default num_txops is 10000; keep it cheap by checking only that it ran
    assert rc == 0
    assert "throughput:" in capsys.readouterr().out


def test_groups_subcommand(tmp_path, capsys):
    path = _write_config(tmp_path)
    rc = main(["groups", "--config", str(path), "--gamma", "20", "--k", "3"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gamma_db"] == 20.0
    assert payload["sharing_ap_id"] == 4
    members = [set(g["members"]) for g in payload["groups"]]
    all_aps = set().union(*members)
    assert all_aps == set(range(9))
    assert all(len(g["members"]) <= 3 for g in payload["groups"])


@pytest.mark.parametrize("argv, digest", [
    ([], "b7b90e82c6aac5f1b16d46588a1aeff3c7f58f1cfda721e8f4cf98fd4fa6b470"),
    (["--gamma", "5", "--k", "2", "--seed", "9"],
     "b87629cd01bf0f4de4ff4165e8115fce6fc1cb877ae52e80bad038f14075bdb3"),
], ids=["defaults", "gamma5-k2-seed9"])
def test_groups_stdout_is_pinned(argv, digest, capsys):
    # the JSON of the stored groups, byte for byte as recorded when each
    # group still carried its reference AP as a separate field
    assert main(["groups", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_campaign_subcommand(tmp_path, capsys):
    config = {
        "timing": {"num_txops": 30},
        "campaign": {
            "loads_mbps": [6.0],
            "schedulers": ["numpk-single", "ctdma-numpk"],
            "num_deployments": 1,
            "base_seed": 5,
        },
    }
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(config))
    rc = main(["campaign", "--config", str(path), "--out", str(tmp_path / "res"),
               "--workers", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2 runs complete" in out
    per_run = (tmp_path / "res" / "per_run.csv").read_text().splitlines()
    assert len(per_run) == 3


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_campaign_rejects_workers_below_one(workers, tmp_path, monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps({"timing": {"num_txops": 10},
                                "campaign": {"num_deployments": 1}}))
    rc = main(["campaign", "--config", str(path), "--out", str(tmp_path / "res"),
               "--workers", workers])
    assert rc == 1
    assert f"error: workers must be >= 1, got {workers}" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


def test_campaign_requires_config(capsys):
    rc = main(["campaign"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["run", "--config", str(bad)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key_is_reported(tmp_path, capsys):
    path = _write_config(tmp_path, extra={"timing_typo": {}})
    rc = main(["run", "--config", str(path)])
    assert rc == 1
    assert "timing_typo" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    path = _write_config(tmp_path)
    # the child imports the package under test, installed or not
    src = str(Path(mapcsim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "mapcsim", "run", "--config", str(path),
         "--scheduler", "oldpk-group"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "throughput:" in proc.stdout


def test_run_defaults_match_documented_table():
    # Table of defaults documented in the README
    from mapcsim import ScenarioConfig, TimingConfig, TrafficConfig

    s, t, tr = ScenarioConfig(), TimingConfig(), TrafficConfig()
    assert (s.subarea_rows, s.subarea_cols, s.subarea_side_m) == (3, 3, 10.0)
    assert (s.tx_power_dbm, s.wall_count, s.breakpoint_m) == (23.0, 3, 10.0)
    assert s.noise_dbm == -94.0
    assert (t.period_ms, t.txop_max_ms) == (5.0, 3.0)
    assert (t.map_rts_us, t.map_cts_us, t.map_tf_us,
            t.te_us) == (80.0, 62.0, 76.0, 9.0)
    assert (t.ofdm_symbol_us, t.guard_interval_us) == (12.8, 0.8)
    assert t.num_txops == 10000
    assert (tr.burst_packets, tr.packet_bytes) == (10, 1500)
