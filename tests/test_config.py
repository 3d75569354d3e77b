import json
import math
import struct
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from mapcsim import (Campaign, McsTable, ScenarioConfig, SimulationConfig,
                     TimingConfig, TrafficConfig, data_rate_bps,
                     default_mcs_table, load_campaign, load_simulation_config,
                     run_simulation, save_simulation_config)
from mapcsim.campaign import campaign_from_dict
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
    # an infinite TF or overhead passed the sign checks and delivered nothing;
    # a NaN overhead failed mid-run
    for name in ("period_ms", "txop_max_ms", "map_rts_us", "map_cts_us",
                 "map_tf_us", "te_us", "ofdm_symbol_us", "guard_interval_us",
                 "phy_preamble_us", "slot_overhead_us", "num_txops"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                TimingConfig(**{name: value})
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            simulation_config_from_dict({"timing": {name: float("nan")}})
    TimingConfig(slot_overhead_us=0.0, always_handshake=True)
    # the 160 us handshake and one slot's 76 + 9 + 0 + 44 us of MAP-TF, Te,
    # overhead and preamble do not fit in a cap of 289 us or less
    for txop_max_ms in (0.1, 0.16, 0.161, 0.289):
        with pytest.raises(ValueError, match="handshake"):
            TimingConfig(txop_max_ms=txop_max_ms)
    TimingConfig(txop_max_ms=math.nextafter(0.289, 1.0))
    assert TimingConfig().handshake_us == 80 + 9 + 62 + 9


@pytest.mark.parametrize("frames", [
    {}, {"slot_overhead_us": 100.0}, {"map_rts_us": 120.0, "te_us": 16.0},
    {"phy_preamble_us": 20.0, "map_tf_us": 50.0}])
def test_txop_cap_must_fit_one_slot(frames):
    # A cap at or below handshake + MAP-TF + Te + overhead + preamble once
    # ran: every backlogged TXOP charged the handshake and sent nothing. The
    # cap is accepted exactly when run_txop's test before its first slot
    # passes, checked on the floats next to the minimum.
    t = TimingConfig(**frames)
    minimum_us = (t.handshake_us + t.map_tf_us + t.te_us + t.slot_overhead_us
                  + t.phy_preamble_us)
    below = above = minimum_us * 1e-3
    caps = [0.17, minimum_us * 0.9e-3, below]
    for _ in range(3):
        below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
        caps += [below, above]
    accepted = []
    for txop_max_ms in caps:
        fits = (txop_max_ms * 1e3 - t.handshake_us - t.map_tf_us - t.te_us
                - t.slot_overhead_us > t.phy_preamble_us)
        if fits:
            TimingConfig(txop_max_ms=txop_max_ms, **frames)
            accepted.append(txop_max_ms)
        else:
            with pytest.raises(ValueError,
                               match=f"txop_max_ms must exceed {minimum_us:g} us"):
                TimingConfig(txop_max_ms=txop_max_ms, **frames)
    assert 0.17 not in accepted and above in accepted


def _smallest_accepted(accepts, rejected, accepted):
    """The smallest positive float in (rejected, accepted] that `accepts`,
    monotone in its argument, takes: a bisection over the float bit patterns,
    which order like the floats."""
    lo, hi = (struct.unpack("<q", struct.pack("<d", x))[0] for x in (rejected, accepted))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if accepts(struct.unpack("<d", struct.pack("<q", mid))[0]):
            hi = mid
        else:
            lo = mid
    return struct.unpack("<d", struct.pack("<q", hi))[0]


@pytest.mark.parametrize("frames, traffic, mcs_table", [
    ({}, TrafficConfig(), default_mcs_table()),
    ({"slot_overhead_us": 100.0, "te_us": 16.0}, TrafficConfig(packet_bytes=400),
     default_mcs_table()),
    # a table whose top MCS is slower: the room must hold one of its packets
    ({}, TrafficConfig(), McsTable(default_mcs_table().entries[:4])),
], ids=["default", "frames-and-packet", "mcs-table"])
def test_slot_room_must_fit_one_packet(frames, traffic, mcs_table):
    # A cap with room for a slot's frames but not for one packet once ran:
    # txop_max_ms=0.3 charged five TXOPs 160 us each and delivered 0 of 190
    # packets. The cap is accepted exactly when the first slot's room, after
    # the handshake, MAP-TF, Te, overhead and preamble, holds one packet at
    # the top MCS, checked on the floats next to the minimum.
    def config(txop_max_ms, num_txops=1):
        return SimulationConfig(
            ScenarioConfig(subarea_rows=1, subarea_cols=1, stations_per_subarea=1),
            TimingConfig(txop_max_ms=txop_max_ms, num_txops=num_txops, **frames),
            replace(traffic, load_bps_per_sta=0.99 * traffic.burst_packets
                    * traffic.packet_bits / 5e-3),
            mcs_table=mcs_table, seed=3)

    def accepts(txop_max_ms):
        try:
            config(txop_max_ms)
        except ValueError:
            return False
        return True

    minimum = _smallest_accepted(accepts, 0.01, 4.9)
    t = TimingConfig(**frames)
    packet_us = traffic.packet_bits / data_rate_bps(len(mcs_table) - 1, mcs_table, t) * 1e6
    fixed_us = t.handshake_us + t.map_tf_us + t.te_us + t.slot_overhead_us + t.phy_preamble_us
    assert minimum * 1e3 == pytest.approx(fixed_us + packet_us, abs=1e-6)
    below = math.nextafter(minimum, 0.0)
    with pytest.raises(ValueError, match=f"less than the {packet_us:g} us one "
                                         f"{traffic.packet_bytes} B packet"):
        config(below)
    # the lone station is at the top MCS: every TXOP charged the handshake
    # sends a packet
    records = []
    run_simulation(config(minimum, num_txops=20), txop_trace=records)
    charged = [rec for rec in records if rec.handshake_us]
    assert charged and all(rec.packets_delivered == 1 for rec in charged)


@pytest.mark.parametrize("gamma_db", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_gamma_rejected(gamma_db):
    with pytest.raises(ValueError, match="gamma_db must be finite"):
        SimulationConfig(gamma_db=gamma_db)
    with pytest.raises(ValueError, match="gamma_db must be finite"):
        simulation_config_from_dict({"gamma_db": gamma_db})


def test_unknown_scheduler_rejected(tmp_path):
    # refused when built, so no config file can carry an unknown name
    with pytest.raises(ValueError, match=r"unknown scheduler 'bogus' \(valid: numpk-single, "):
        SimulationConfig(scheduler="bogus")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scheduler": "bogus"}))
    with pytest.raises(ValueError, match="unknown scheduler 'bogus'"):
        load_simulation_config(path)


def test_nan_load_rejected():
    # an infinite load too; JSON's Infinity parses to float("inf")
    for load in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="load_bps_per_sta must be >= 0 and finite"):
            TrafficConfig(load_bps_per_sta=load)
        data = json.loads(json.dumps({"traffic": {"load_bps_per_sta": load}}))
        with pytest.raises(ValueError, match="load_bps_per_sta must be >= 0 and finite"):
            simulation_config_from_dict(data)
    assert TrafficConfig(load_bps_per_sta=0.0).load_bps_per_sta == 0.0


@pytest.mark.parametrize("traffic, timing", [
    (TrafficConfig(load_bps_per_sta=24.1e6), TimingConfig()),
    (TrafficConfig(load_bps_per_sta=6e6, burst_packets=2), TimingConfig()),
    (TrafficConfig(load_bps_per_sta=6e6), TimingConfig(period_ms=25.0)),
], ids=["load", "burst", "period"])
def test_unofferable_load_rejected(traffic, timing):
    # p = load * T / (burst * bits) > 1: the bursts cannot carry the load
    with pytest.raises(ValueError, match=r"needs p=\d\.\d+ > 1"):
        SimulationConfig(timing=timing, traffic=traffic)
    SimulationConfig(traffic=TrafficConfig(load_bps_per_sta=24e6))  # p = 1


# (field, its class, the JSON sections holding it)
INTEGER_FIELDS = [
    ("burst_packets", TrafficConfig, ("traffic",)),
    ("packet_bytes", TrafficConfig, ("traffic",)),
    ("num_txops", TimingConfig, ("timing",)),
    ("max_group_size", SimulationConfig, ()),
    ("seed", SimulationConfig, ()),
    ("subarea_rows", ScenarioConfig, ("scenario",)),
    ("subarea_cols", ScenarioConfig, ("scenario",)),
    ("stations_per_subarea", ScenarioConfig, ("scenario",)),
    ("num_deployments", Campaign, ("campaign",)),
    # 1.0 once seeded other deployments than 1
    ("base_seed", Campaign, ("campaign",)),
]


def _nested(sections, name, value):
    data = {name: value}
    for section in reversed(sections):
        data = {section: data}
    return data


@pytest.mark.parametrize("name, cls, sections", INTEGER_FIELDS,
                         ids=[name for name, _, _ in INTEGER_FIELDS])
@pytest.mark.parametrize("value", [float("nan"), 2.5, 3.0, True],
                         ids=["nan", "fraction", "float", "bool"])
def test_integer_fields_reject_non_integers(name, cls, sections, value):
    # all of these once constructed; a fractional burst size broke the slot
    # planner's whole-packet fit test
    message = f"{name} must be (an integer|finite)"  # num_txops checks finiteness first
    with pytest.raises(ValueError, match=message):
        cls(**{name: value})
    load = campaign_from_dict if cls is Campaign else simulation_config_from_dict
    with pytest.raises(ValueError, match=message):
        load(_nested(sections, name, value))


# (field, its class, the JSON sections holding it) for every float field
FLOAT_FIELDS = [(f.name, cls, sections)
                for cls, sections in ((ScenarioConfig, ("scenario",)),
                                      (TimingConfig, ("timing",)),
                                      (TrafficConfig, ("traffic",)), (SimulationConfig, ()))
                for f in fields(cls) if f.type == "float"]


@pytest.mark.parametrize("name, cls, sections", FLOAT_FIELDS,
                         ids=[name for name, _, _ in FLOAT_FIELDS])
@pytest.mark.parametrize("value", [True, False])
def test_float_fields_reject_bool(name, cls, sections, value):
    # "gamma_db": true once ran at 1 dB
    assert len(FLOAT_FIELDS) == 17
    message = f"{name} must be (>= 0 and )?finite"
    with pytest.raises(ValueError, match=message):
        cls(**{name: value})
    with pytest.raises(ValueError, match=message):
        simulation_config_from_dict(_nested(sections, name, value))


def test_always_handshake_must_be_a_bool():
    # "false" once turned the handshake on: at zero load every TXOP was
    # charged its 160 us
    for value in ("false", "true", 1.5, 1, 0, None):
        with pytest.raises(ValueError, match="always_handshake must be a bool"):
            TimingConfig(always_handshake=value)
        with pytest.raises(ValueError, match="always_handshake must be a bool"):
            simulation_config_from_dict({"timing": {"always_handshake": value}})
    config = simulation_config_from_dict(json.loads(
        '{"timing": {"always_handshake": false, "num_txops": 20},'
        ' "traffic": {"load_bps_per_sta": 0}}'))
    assert run_simulation(config).mean_occupancy == 0.0


def test_integer_fields_accept_numpy_integers():
    for name, cls, _ in INTEGER_FIELDS:
        assert getattr(cls(**{name: np.int64(2)}), name) == 2
    assert Campaign(k_values=(np.int32(2), 3)).k_values == (2, 3)


@pytest.mark.parametrize("k_values", [(2, float("nan")), (2.5,), (True,)])
def test_non_integer_k_values_rejected(k_values):
    with pytest.raises(ValueError, match=r"k_values\[\d\] must be an integer"):
        Campaign(k_values=k_values)
    with pytest.raises(ValueError, match=r"k_values\[\d\] must be an integer"):
        campaign_from_dict({"campaign": {"k_values": list(k_values)}})


def test_shipped_configs_load():
    paths = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))
    assert paths
    for path in paths:
        load_simulation_config(path)
        load_campaign(path)


def test_missing_file_is_reported():
    with pytest.raises(ValueError, match="cannot read"):
        load_simulation_config("/nonexistent/config.json")
