"""Configuration types shared by all modules, plus JSON config-file loading.

Every simulation parameter lives in one of three dataclasses: ScenarioConfig
(geometry and radio constants), TimingConfig (coordinated-TXOP timeline) and
TrafficConfig (downlink traffic generation). A SimulationConfig bundles them
with the group-formation parameters and the scheduler choice so a whole run
is described by a single JSON file (see README for the schema).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import Any

from .channel import McsTable, data_rate_bps, default_mcs_table
from .scheduling import SCHEDULER_NAMES


def check_integer(name: str, value: Any) -> None:
    """Raise unless `value` is a Python or numpy integer; bool is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_finite(name: str, value: Any) -> None:
    """Raise unless `value` is a finite Python or numpy real; bool is refused."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ValueError(f"{name} must be finite, got {value!r}")


def arrival_probability(load_bps: float, burst_packets: int, packet_bytes: int,
                        period_s: float) -> float:
    """Per-period burst probability p = load*T / (Np*L*8).

    Raises on a load or period that is not finite, a size that is not an
    integer, and when the load cannot be offered with this burst size (p > 1).
    """
    check_integer("burst_packets", burst_packets)
    check_integer("packet_bytes", packet_bytes)
    if (not (0 <= load_bps < math.inf and 0 < period_s < math.inf)
            or min(burst_packets, packet_bytes) < 1):
        raise ValueError(f"arrival_probability needs a finite load >= 0, a finite period "
                         f"> 0 and sizes >= 1, got {load_bps!r}, {period_s!r}")
    p = load_bps * period_s / (burst_packets * packet_bytes * 8)
    if p > 1.0:
        raise ValueError(
            f"load {load_bps:g} bps needs p={p:.4f} > 1 with bursts of "
            f"{burst_packets} x {packet_bytes} B per period")
    return p


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

    def __post_init__(self) -> None:
        for name in ("subarea_rows", "subarea_cols", "stations_per_subarea"):
            check_integer(name, getattr(self, name))
        if self.subarea_rows < 1 or self.subarea_cols < 1:
            raise ValueError("subarea grid must be at least 1x1")
        if self.stations_per_subarea < 1:
            raise ValueError("stations_per_subarea must be >= 1")
        for name in ("subarea_side_m", "carrier_freq_ghz", "tx_power_dbm",
                     "wall_count", "breakpoint_m", "noise_dbm"):
            check_finite(name, getattr(self, name))
        for name in ("subarea_side_m", "carrier_freq_ghz", "breakpoint_m"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.wall_count < 0:
            raise ValueError("wall_count must be >= 0")

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
    milliseconds (matching how they are usually quoted). The reservation
    handshake is assumed to always succeed. `slot_overhead_us` is a fixed
    per-slot charge (e.g. a block-ACK exchange) on top of the trigger frame;
    default 0.
    """

    period_ms: float = 5.0
    txop_max_ms: float = 3.0
    map_rts_us: float = 80.0
    map_cts_us: float = 62.0
    map_tf_us: float = 76.0
    te_us: float = 9.0
    ofdm_symbol_us: float = 12.8
    guard_interval_us: float = 0.8
    phy_preamble_us: float = 44.0
    slot_overhead_us: float = 0.0
    num_txops: int = 10000
    always_handshake: bool = False

    def __post_init__(self) -> None:
        for name in (f.name for f in fields(self) if f.name != "always_handshake"):
            check_finite(name, getattr(self, name))
        if not isinstance(self.always_handshake, bool):  # "false" is truthy
            raise ValueError(f"always_handshake must be a bool, got {self.always_handshake!r}")
        if self.txop_max_ms >= self.period_ms:
            raise ValueError("txop_max_ms must be smaller than period_ms")
        for name in ("period_ms", "txop_max_ms", "map_rts_us", "map_cts_us",
                     "map_tf_us", "te_us", "ofdm_symbol_us",
                     "guard_interval_us", "phy_preamble_us"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.slot_overhead_us < 0:
            raise ValueError("slot_overhead_us must be >= 0")
        check_integer("num_txops", self.num_txops)
        if self.num_txops < 1:
            raise ValueError("num_txops must be >= 1")
        # run_txop's test before its first slot, in its order: a cap that
        # fails it charges every backlogged TXOP the handshake for nothing
        handshake, txop_max, preamble, map_tf, te, overhead, _ = self.txop_figures
        if txop_max - handshake - map_tf - te - overhead <= preamble:
            minimum = handshake + map_tf + te + overhead + preamble
            raise ValueError(f"txop_max_ms must exceed {minimum:g} us: the {handshake:g} us "
                             f"handshake plus one slot's MAP-TF, Te, overhead and PHY preamble")

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

    @cached_property
    def txop_figures(self) -> tuple[float, float, float, float, float, float, float]:
        """What a TXOP charges, in us, worked out once per config: (handshake,
        TXOP cap, PHY preamble, MAP-TF, Te, slot overhead, per-slot charge
        MAP-TF + Te + overhead before the slot itself)."""
        map_tf, te, overhead = self.map_tf_us, self.te_us, self.slot_overhead_us
        return (self.handshake_us, self.txop_max_us, self.phy_preamble_us,
                map_tf, te, overhead, map_tf + te + overhead)


@dataclass(frozen=True)
class TrafficConfig:
    """Bursty downlink traffic: every period each station receives a burst of
    `burst_packets` packets with a probability set by the offered load."""

    load_bps_per_sta: float = 6e6
    burst_packets: int = 10
    packet_bytes: int = 1500

    def __post_init__(self) -> None:
        load = self.load_bps_per_sta
        if isinstance(load, bool) or not 0 <= load < math.inf:  # also rejects NaN
            raise ValueError(f"load_bps_per_sta must be >= 0 and finite, got {load!r}")
        check_integer("burst_packets", self.burst_packets)
        check_integer("packet_bytes", self.packet_bytes)
        if self.burst_packets < 1 or self.packet_bytes < 1:
            raise ValueError("burst_packets and packet_bytes must be >= 1")

    @property
    def packet_bits(self) -> int:
        return self.packet_bytes * 8


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed for one reproducible run. Every run, CLI or campaign,
    is built as one, so these four classes are where run inputs are checked."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    timing: TimingConfig = field(default_factory=TimingConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    gamma_db: float = 20.0
    max_group_size: int = 3
    scheduler: str = "numpk-single"
    seed: int = 1
    mcs_table: McsTable = field(default_factory=default_mcs_table)

    def __post_init__(self) -> None:
        check_integer("max_group_size", self.max_group_size)
        check_integer("seed", self.seed)
        if self.max_group_size < 1:
            raise ValueError("max_group_size must be >= 1")
        check_finite("gamma_db", self.gamma_db)
        if self.scheduler not in SCHEDULER_NAMES:
            raise ValueError(f"unknown scheduler {self.scheduler!r} "
                             f"(valid: {', '.join(SCHEDULER_NAMES)})")
        traffic = self.traffic  # raises on p > 1: bursts too small for the load
        arrival_probability(traffic.load_bps_per_sta, traffic.burst_packets,
                            traffic.packet_bytes, self.timing.period_s)
        # run_txop's first slot and plan_slot's fit test, in their float order:
        # with less room than one packet at the top MCS, every backlogged TXOP
        # is charged the handshake and sends nothing
        handshake, txop_max, preamble, map_tf, te, overhead, _ = self.timing.txop_figures
        top = len(self.mcs_table) - 1
        packet_us = self.packet_airtimes_us[top]
        room_us = txop_max - handshake - map_tf - te - overhead - preamble
        if room_us / packet_us + 1e-9 < 1:
            raise ValueError(
                f"txop_max_ms {self.timing.txop_max_ms:g} leaves {room_us:g} us of slot "
                f"room after the handshake and one slot's MAP-TF, Te, overhead and PHY "
                f"preamble, less than the {packet_us:g} us one "
                f"{self.traffic.packet_bytes} B packet takes at the top MCS ({top})")

    @cached_property
    def packet_airtimes_us(self) -> tuple[float, ...]:
        """One packet's airtime in us per MCS, for the airtime table and the check above."""
        bits, table, timing = self.traffic.packet_bits, self.mcs_table, self.timing
        return tuple(bits / data_rate_bps(m, table, timing) * 1e6 for m in range(len(table)))


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


def _read_json_object(path: str | Path, what: str) -> dict[str, Any]:
    """Parse a JSON file that must hold an object; `what` names it in errors."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{what} {path} must hold a JSON object")
    return data


def load_simulation_config(path: str | Path) -> SimulationConfig:
    """Load a run configuration from a JSON file."""
    return simulation_config_from_dict(_read_json_object(path, "config file"))


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
