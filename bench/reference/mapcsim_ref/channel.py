"""Radio model: indoor path loss, RSSI matrix, group SINR checks and
SINR-based link adaptation.

The propagation model is the TGax enterprise indoor model,

    PL(d) = 40.05 + 20*log10(min(d, Bp) * fc / 2.4) + P' + 7*Wn,

with P' = 35*log10(d / Bp) beyond the breakpoint distance Bp and zero below
it. RSSI is tx power minus path loss; channel reciprocity is assumed, so a
single (AP x station) matrix serves both link directions.

All SINR arithmetic happens in the linear milliwatt domain and is converted
back to dB at the end; summing interference in dB would be wrong.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .config import ScenarioConfig, TimingConfig
    from .scenario import Deployment


def path_loss_db(distance_m: float, freq_ghz: float, wall_count: float,
                 breakpoint_m: float = 10.0) -> float:
    """Path loss in dB at `distance_m` meters. Raises for d <= 0."""
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    capped = min(distance_m, breakpoint_m)
    loss = 40.05 + 20.0 * math.log10(capped * freq_ghz / 2.4) + 7.0 * wall_count
    if distance_m > breakpoint_m:
        loss += 35.0 * math.log10(distance_m / breakpoint_m)
    return loss


def build_rssi_matrix(deployment: "Deployment", config: "ScenarioConfig") -> np.ndarray:
    """Received power in dBm at every station from every AP.

    Shape (num_aps, num_stations); rssi[i, s] = tx_power - PL(dist(AP i, STA s)).
    This is the database the central controller keeps for group formation.
    """
    diff = deployment.ap_positions[:, None, :] - deployment.station_positions[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    capped = np.minimum(dist, config.breakpoint_m)
    loss = (40.05 + 20.0 * np.log10(capped * config.carrier_freq_ghz / 2.4)
            + 7.0 * config.wall_count)
    beyond = dist > config.breakpoint_m
    loss = loss + np.where(beyond, 35.0 * np.log10(np.maximum(dist, config.breakpoint_m)
                                                   / config.breakpoint_m), 0.0)
    return config.tx_power_dbm - loss


def station_sinr_db(ap: int, station: int, group: Iterable[int],
                    rssi_dbm: np.ndarray, noise_dbm: float) -> float:
    """SINR at `station` served by `ap` while all of `group` transmit.

    `ap` must be a member of `group`; the other members are the interferers.
    """
    interference_mw = 10.0 ** (noise_dbm / 10.0)
    for j in group:
        if j != ap:
            interference_mw += 10.0 ** (rssi_dbm[j, station] / 10.0)
    return rssi_dbm[ap, station] - 10.0 * math.log10(interference_mw)


def group_feasible(group: Iterable[int], rssi_dbm: np.ndarray,
                   stations_by_ap: Sequence[Sequence[int]], noise_dbm: float,
                   gamma_db: float) -> bool:
    """True iff every station of every member keeps SINR >= gamma while the
    whole group transmits simultaneously."""
    members = tuple(group)
    if not members:
        raise ValueError("group must be non-empty")
    for ap in members:
        for sta in stations_by_ap[ap]:
            if station_sinr_db(ap, sta, members, rssi_dbm, noise_dbm) < gamma_db:
                return False
    return True


def rssi_matrix_to_csv(rssi_dbm: np.ndarray, path: str | Path) -> None:
    """Debug dump: one row per AP, one column per station."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ap"] + [f"sta{j}" for j in range(rssi_dbm.shape[1])])
        for i, row in enumerate(rssi_dbm):
            writer.writerow([i] + [repr(float(v)) for v in row])


# ---------------------------------------------------------------------------
# Link adaptation

@dataclass(frozen=True)
class McsEntry:
    index: int
    min_sinr_db: float
    bits_per_symbol: float  # data subcarriers * bits per subcarrier * coding rate


@dataclass(frozen=True)
class McsTable:
    """SINR thresholds and per-symbol payloads for the allowed MCS indices.

    Defaults model 20 MHz / 1 spatial stream with 234 data subcarriers; the
    thresholds are loaded from config so externally measured error-free SINR
    curves can be substituted without code changes.
    """

    entries: tuple[McsEntry, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("MCS table must not be empty")
        for pos, entry in enumerate(self.entries):
            if entry.index != pos:
                raise ValueError("MCS indices must be consecutive from 0")
        sinrs = [e.min_sinr_db for e in self.entries]
        bits = [e.bits_per_symbol for e in self.entries]
        if any(b >= a for a, b in zip(sinrs[1:], sinrs)):
            raise ValueError("MCS SINR thresholds must be strictly increasing")
        if any(b >= a for a, b in zip(bits[1:], bits)):
            raise ValueError("MCS bits per symbol must be strictly increasing")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def min_sinrs(self) -> tuple[float, ...]:
        return tuple(e.min_sinr_db for e in self.entries)

    def to_jsonable(self) -> list[list[float]]:
        return [[e.index, e.min_sinr_db, e.bits_per_symbol] for e in self.entries]

    @classmethod
    def from_jsonable(cls, rows: Iterable[Sequence[float]]) -> "McsTable":
        return cls(tuple(McsEntry(int(i), float(s), float(b)) for i, s, b in rows))


# 802.11ax MCS 0-10 at 20 MHz, single stream: modulation bits x coding rate.
_MCS_BITS_PER_SUBCARRIER = (1, 2, 2, 4, 4, 6, 6, 6, 8, 8, 10)
_MCS_CODING_RATE = (1 / 2, 1 / 2, 3 / 4, 1 / 2, 3 / 4, 2 / 3, 3 / 4, 5 / 6,
                    3 / 4, 5 / 6, 3 / 4)
_MCS_MIN_SINR_DB = (2.0, 5.0, 8.0, 11.0, 15.0, 18.0, 20.0, 22.0, 26.0, 28.0, 30.0)
DATA_SUBCARRIERS_20MHZ = 234


def default_mcs_table() -> McsTable:
    entries = tuple(
        McsEntry(i, _MCS_MIN_SINR_DB[i],
                 DATA_SUBCARRIERS_20MHZ * _MCS_BITS_PER_SUBCARRIER[i] * _MCS_CODING_RATE[i])
        for i in range(len(_MCS_MIN_SINR_DB))
    )
    return McsTable(entries)


def select_mcs(sinr_db: float, table: McsTable) -> int | None:
    """Highest MCS whose threshold is <= sinr_db (inclusive); None below MCS 0."""
    pos = bisect_right(table.min_sinrs, sinr_db) - 1
    return pos if pos >= 0 else None


def data_rate_bps(mcs: int, table: McsTable, timing: "TimingConfig") -> float:
    """PHY data rate: payload bits per OFDM symbol over symbol + guard time."""
    entry = table.entries[mcs]
    return entry.bits_per_symbol / (timing.ofdm_symbol_us + timing.guard_interval_us) * 1e6
