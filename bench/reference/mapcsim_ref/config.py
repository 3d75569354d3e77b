"""Configuration types shared by all modules, plus JSON config-file loading.

Every simulation parameter lives in one of three dataclasses: ScenarioConfig
(geometry and radio constants), TimingConfig (coordinated-TXOP timeline) and
TrafficConfig (downlink traffic generation). A SimulationConfig bundles them
with the group-formation parameters and the scheduler choice so a whole run
is described by a single JSON file (see README for the schema).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from .channel import McsTable, default_mcs_table


@dataclass(frozen=True)
class ScenarioConfig:
    """Grid deployment geometry and radio constants."""

    subarea_rows: int = 3
    subarea_cols: int = 3
    subarea_side_m: float = 10.0
    stations_per_subarea: int = 3
    carrier_freq_ghz: float = 5.0
    tx_power_dbm: float = 23.0
    wall_count: int = 3
    breakpoint_m: float = 10.0
    noise_dbm: float = -94.0
    cca_dbm: float = -82.0  # reserved: carrier sense never fires inside protected TXOPs

    def __post_init__(self) -> None:
        if self.subarea_rows < 1 or self.subarea_cols < 1:
            raise ValueError("subarea grid must be at least 1x1")
        if self.subarea_side_m <= 0:
            raise ValueError("subarea_side_m must be positive")
        if self.stations_per_subarea < 1:
            raise ValueError("stations_per_subarea must be >= 1")
        if self.breakpoint_m <= 0:
            raise ValueError("breakpoint_m must be positive")

    @property
    def num_aps(self) -> int:
        return self.subarea_rows * self.subarea_cols

    @property
    def num_stations(self) -> int:
        return self.num_aps * self.stations_per_subarea


@dataclass(frozen=True)
class TimingConfig:
    """Durations of the periodic coordinated-TXOP timeline.

    Frame durations are in microseconds, the period and TXOP cap in
    milliseconds (matching how they are usually quoted). `cts_timeout_us` is
    carried for completeness but unused: the reservation handshake is assumed
    to always succeed. `slot_overhead_us` is a fixed per-slot charge (e.g. a
    block-ACK exchange) on top of the trigger frame; default 0.
    """

    period_ms: float = 5.0
    txop_max_ms: float = 3.0
    map_rts_us: float = 80.0
    map_cts_us: float = 62.0
    cts_timeout_us: float = 41.0
    map_tf_us: float = 76.0
    te_us: float = 9.0
    ofdm_symbol_us: float = 12.8
    guard_interval_us: float = 0.8
    phy_preamble_us: float = 44.0
    slot_overhead_us: float = 0.0
    num_txops: int = 10000
    always_handshake: bool = False

    def __post_init__(self) -> None:
        if self.txop_max_ms >= self.period_ms:
            raise ValueError("txop_max_ms must be smaller than period_ms")
        for name in ("period_ms", "txop_max_ms", "map_rts_us", "map_cts_us",
                     "map_tf_us", "te_us", "ofdm_symbol_us",
                     "guard_interval_us", "phy_preamble_us"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.slot_overhead_us < 0:
            raise ValueError("slot_overhead_us must be >= 0")
        if self.num_txops < 1:
            raise ValueError("num_txops must be >= 1")

    @property
    def period_s(self) -> float:
        return self.period_ms * 1e-3

    @property
    def txop_max_us(self) -> float:
        return self.txop_max_ms * 1e3

    @property
    def handshake_us(self) -> float:
        """MAP-RTS + guard + MAP-CTS + guard, charged once per TXOP."""
        return self.map_rts_us + self.te_us + self.map_cts_us + self.te_us


@dataclass(frozen=True)
class TrafficConfig:
    """Bursty downlink traffic: every period each station receives a burst of
    `burst_packets` packets with a probability set by the offered load."""

    load_bps_per_sta: float = 6e6
    burst_packets: int = 10
    packet_bytes: int = 1500

    def __post_init__(self) -> None:
        if self.load_bps_per_sta < 0:
            raise ValueError("load_bps_per_sta must be >= 0")
        if self.burst_packets < 1 or self.packet_bytes < 1:
            raise ValueError("burst_packets and packet_bytes must be >= 1")

    @property
    def packet_bits(self) -> int:
        return self.packet_bytes * 8


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed for one reproducible run."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    timing: TimingConfig = field(default_factory=TimingConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    gamma_db: float = 20.0
    max_group_size: int = 3
    scheduler: str = "numpk-single"
    seed: int = 1
    mcs_table: McsTable = field(default_factory=default_mcs_table)

    def __post_init__(self) -> None:
        if self.max_group_size < 1:
            raise ValueError("max_group_size must be >= 1")


def _from_dict(cls: type, data: dict[str, Any]):
    """Build a dataclass from a plain dict, rejecting unknown keys."""
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    return cls(**data)


def simulation_config_from_dict(data: dict[str, Any]) -> SimulationConfig:
    data = dict(data)
    data.pop("campaign", None)  # campaign files embed the same base sections
    kwargs: dict[str, Any] = {}
    if "scenario" in data:
        kwargs["scenario"] = _from_dict(ScenarioConfig, data.pop("scenario"))
    if "timing" in data:
        kwargs["timing"] = _from_dict(TimingConfig, data.pop("timing"))
    if "traffic" in data:
        kwargs["traffic"] = _from_dict(TrafficConfig, data.pop("traffic"))
    if "mcs_table" in data:
        kwargs["mcs_table"] = McsTable.from_jsonable(data.pop("mcs_table"))
    for key in ("gamma_db", "max_group_size", "scheduler", "seed"):
        if key in data:
            kwargs[key] = data.pop(key)
    if data:
        raise ValueError(f"unknown config sections: {sorted(data)}")
    return SimulationConfig(**kwargs)


def load_simulation_config(path: str | Path) -> SimulationConfig:
    """Load a run configuration from a JSON file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return simulation_config_from_dict(data)


def simulation_config_to_dict(config: SimulationConfig) -> dict[str, Any]:
    from dataclasses import asdict

    return {
        "scenario": asdict(config.scenario),
        "timing": asdict(config.timing),
        "traffic": asdict(config.traffic),
        "gamma_db": config.gamma_db,
        "max_group_size": config.max_group_size,
        "scheduler": config.scheduler,
        "seed": config.seed,
        "mcs_table": config.mcs_table.to_jsonable(),
    }


def save_simulation_config(config: SimulationConfig, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(simulation_config_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")
