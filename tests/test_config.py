import json
from pathlib import Path

import pytest

from mapcsim import (SimulationConfig, TimingConfig, TrafficConfig,
                     load_campaign, load_simulation_config,
                     save_simulation_config)
from mapcsim.config import simulation_config_from_dict


def test_load_full_config(tmp_path):
    data = {
        "scenario": {"subarea_rows": 2, "subarea_cols": 2, "noise_dbm": -90.0},
        "timing": {"period_ms": 4.0, "txop_max_ms": 2.0, "num_txops": 100},
        "traffic": {"load_bps_per_sta": 2e6},
        "gamma_db": 14.0,
        "max_group_size": 2,
        "scheduler": "oldpk-single",
        "seed": 42,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    config = load_simulation_config(path)
    assert config.scenario.subarea_rows == 2
    assert config.scenario.noise_dbm == -90.0
    assert config.timing.period_ms == 4.0
    assert config.traffic.load_bps_per_sta == 2e6
    assert (config.gamma_db, config.max_group_size) == (14.0, 2)
    assert config.scheduler == "oldpk-single"
    assert config.seed == 42


def test_mcs_table_override(tmp_path):
    data = {"mcs_table": [[0, 3.0, 100.0], [1, 9.0, 200.0]]}
    config = simulation_config_from_dict(data)
    assert len(config.mcs_table) == 2
    assert config.mcs_table.min_sinrs == (3.0, 9.0)


def test_save_load_roundtrip(tmp_path):
    config = SimulationConfig(gamma_db=17.0, scheduler="ctdma-oldpk", seed=5)
    path = tmp_path / "config.json"
    save_simulation_config(config, path)
    assert load_simulation_config(path) == config


def test_unknown_keys_rejected():
    with pytest.raises(ValueError, match="bogus"):
        simulation_config_from_dict({"timing": {"bogus": 1}})
    with pytest.raises(ValueError, match="sections"):
        simulation_config_from_dict({"extra_section": {}})
    # knobs removed because nothing read them
    with pytest.raises(ValueError, match="unknown ScenarioConfig keys.*cca_dbm"):
        simulation_config_from_dict({"scenario": {"cca_dbm": -82.0}})
    with pytest.raises(ValueError, match="unknown TimingConfig keys.*cts_timeout_us"):
        simulation_config_from_dict({"timing": {"cts_timeout_us": 41.0}})


def test_timing_invariants():
    with pytest.raises(ValueError):
        TimingConfig(txop_max_ms=5.0, period_ms=5.0)
    with pytest.raises(ValueError):
        TimingConfig(map_tf_us=0.0)
    with pytest.raises(ValueError):
        TimingConfig(num_txops=0)
    with pytest.raises(ValueError):
        TimingConfig(period_ms=float("nan"))
    # the 160 us handshake does not fit in a 100 us TXOP cap, nor in 160 us
    for txop_max_ms in (0.1, 0.16):
        with pytest.raises(ValueError, match="handshake"):
            TimingConfig(txop_max_ms=txop_max_ms)
    TimingConfig(txop_max_ms=0.161)
    assert TimingConfig().handshake_us == 80 + 9 + 62 + 9


@pytest.mark.parametrize("gamma_db", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_gamma_rejected(gamma_db):
    with pytest.raises(ValueError, match="gamma_db must be finite"):
        SimulationConfig(gamma_db=gamma_db)
    with pytest.raises(ValueError, match="gamma_db must be finite"):
        simulation_config_from_dict({"gamma_db": gamma_db})


def test_nan_load_rejected():
    with pytest.raises(ValueError, match="load_bps_per_sta"):
        TrafficConfig(load_bps_per_sta=float("nan"))
    with pytest.raises(ValueError, match="load_bps_per_sta"):
        simulation_config_from_dict({"traffic": {"load_bps_per_sta": float("nan")}})
    assert TrafficConfig(load_bps_per_sta=0.0).load_bps_per_sta == 0.0


def test_shipped_configs_load():
    paths = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))
    assert paths
    for path in paths:
        load_simulation_config(path)
        load_campaign(path)


def test_missing_file_is_reported():
    with pytest.raises(ValueError, match="cannot read"):
        load_simulation_config("/nonexistent/config.json")
