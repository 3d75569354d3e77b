import csv
import json
import subprocess
import sys
from dataclasses import replace

import pytest

import mapcsim.campaign
import mapcsim.cli
from mapcsim import (Campaign, ScenarioConfig, TimingConfig, TrafficConfig,
                     load_simulation_config, run_campaign,
                     save_simulation_config)
from mapcsim.campaign import (PER_RUN_COLUMNS, RunSpec, enumerate_runs,
                              execute_run, write_csv)
from mapcsim.cli import main


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
    proc = subprocess.run(
        [sys.executable, "-m", "mapcsim", "run", "--config", str(path),
         "--scheduler", "oldpk-group"],
        capture_output=True, text=True)
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
