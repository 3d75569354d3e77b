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

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:
    from .config import ScenarioConfig, TimingConfig
    from .scenario import Deployment


def path_loss_db(distance_m: float | np.ndarray, freq_ghz: float,
                 wall_count: float, breakpoint_m: float = 10.0) -> float | np.ndarray:
    """Path loss in dB at `distance_m` meters, a scalar or an array.

    Raises if any distance is not a positive finite number. The loss and
    the P' term are each built in place in one array the size of the input,
    with the float operations in the formula's order; up to the breakpoint
    P' is 35*log10(1) = 0 exactly, so it needs no mask.
    """
    dist = np.asarray(distance_m, dtype=float)
    if not ((dist > 0) & (dist < math.inf)).all():  # NaN fails both tests
        raise ValueError("distance must be positive and finite")
    loss = np.minimum(dist, breakpoint_m, out=np.empty_like(dist))
    loss *= freq_ghz
    loss /= 2.4
    np.log10(loss, out=loss)
    loss *= 20.0
    loss += 40.05
    loss += 7.0 * wall_count
    beyond = np.maximum(dist, breakpoint_m, out=np.empty_like(dist))
    beyond /= breakpoint_m
    np.log10(beyond, out=beyond)
    beyond *= 35.0
    loss += beyond
    return loss if loss.ndim else float(loss)


def build_rssi_matrix(deployment: "Deployment", config: "ScenarioConfig") -> np.ndarray:
    """Received power in dBm at every station from every AP.

    Shape (num_aps, num_stations); rssi[i, s] = tx_power - PL(dist(AP i, STA s)).
    This is the database the central controller keeps for group formation.
    """
    aps, stations = deployment.ap_positions, deployment.station_positions
    dist = np.subtract.outer(aps[:, 0], stations[:, 0])
    np.hypot(dist, np.subtract.outer(aps[:, 1], stations[:, 1]), out=dist)
    loss = path_loss_db(dist, config.carrier_freq_ghz, config.wall_count,
                        config.breakpoint_m)
    return np.subtract(config.tx_power_dbm, loss, out=loss)


def station_sinr_db(ap: int, station: int, group: Iterable[int],
                    rssi_dbm: np.ndarray, noise_dbm: float) -> float:
    """SINR at `station` served by `ap` while all of `group` transmit.

    `ap` must be a member of `group`; the other members are the interferers.
    The RSSIs are read as Python floats, and the interference is summed in
    milliwatts from the noise on, in member order.
    """
    rssi = rssi_dbm.item
    interference_mw = 10.0 ** (noise_dbm / 10.0)
    for j in group:
        if j != ap:
            interference_mw += 10.0 ** (rssi(j, station) / 10.0)
    return rssi(ap, station) - 10.0 * math.log10(interference_mw)


def group_sinr_db(members: Sequence[int], rssi_dbm: np.ndarray,
                  stations_by_ap: Sequence[Sequence[int]], noise_dbm: float
                  ) -> Iterator[tuple[int, int, float]]:
    """Yield (ap, station, sinr_db) for every station of every member while
    all of `members` transmit. Lazy, so a feasibility check can stop at the
    first failing station."""
    for ap in members:
        for sta in stations_by_ap[ap]:
            yield ap, sta, station_sinr_db(ap, sta, members, rssi_dbm, noise_dbm)


def group_feasible(group: Iterable[int], rssi_dbm: np.ndarray,
                   stations_by_ap: Sequence[Sequence[int]], noise_dbm: float,
                   gamma_db: float) -> bool:
    """True iff every station of every member keeps SINR >= gamma while the
    whole group transmits simultaneously."""
    members = tuple(group)
    if not members:
        raise ValueError("group must be non-empty")
    for _, _, sinr in group_sinr_db(members, rssi_dbm, stations_by_ap, noise_dbm):
        if sinr < gamma_db:
            return False
    return True


# ---------------------------------------------------------------------------
# Link adaptation

def _real(value: object) -> bool:
    """True iff `value` is a real number and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class McsTable:
    """SINR thresholds and per-symbol payloads (data subcarriers * bits per
    subcarrier * coding rate) of the allowed MCSs, kept as floats: MCS m is
    at position m of both columns. Defaults model 20 MHz / 1 spatial stream
    with 234 data subcarriers; the thresholds are loaded from config so
    externally measured error-free SINR curves can be substituted without
    code changes.
    """

    min_sinrs: tuple[float, ...]
    bits_per_symbol: tuple[float, ...]

    def __post_init__(self) -> None:
        sinrs, bits = self.min_sinrs, self.bits_per_symbol
        if not 0 < len(sinrs) == len(bits):
            raise ValueError(f"MCS table needs one bits per symbol per SINR threshold, at "
                             f"least one, got {len(sinrs)} and {len(bits)}")
        last_sinr, last_bits = -math.inf, 0.0
        for pos, (sinr, payload) in enumerate(zip(sinrs, bits)):
            row = [pos, sinr, payload]
            if not (_real(sinr) and _real(payload)):
                raise ValueError(f"MCS row {pos}, {row!r}, must be [index, real SINR "
                                 f"threshold dB, real bits per symbol]")
            if not (math.isfinite(sinr) and math.isfinite(payload)):
                raise ValueError(f"MCS row {pos}, {row!r}: its values must be finite")
            if not (sinr > last_sinr and payload > last_bits):
                raise ValueError(f"MCS row {pos}, {row!r}: SINR thresholds and bits per "
                                 f"symbol must be strictly increasing, from bits above 0")
            last_sinr, last_bits = sinr, payload
        object.__setattr__(self, "min_sinrs", tuple(map(float, sinrs)))
        object.__setattr__(self, "bits_per_symbol", tuple(map(float, bits)))

    def __len__(self) -> int:
        return len(self.min_sinrs)

    def to_jsonable(self) -> list[list[float]]:
        return [[m, *row] for m, row in enumerate(zip(self.min_sinrs, self.bits_per_symbol))]

    @classmethod
    def from_jsonable(cls, rows: Iterable[Sequence[float]]) -> "McsTable":
        """Read rows [index, SINR threshold dB, bits per symbol]. Raises on a
        row of another length or whose index is not the integer equal to its
        position: a fraction, bool or string is refused, not cast. The
        constructor checks the values, naming the row."""
        rows = list(rows)
        for pos, row in enumerate(rows):
            if not (isinstance(row, (list, tuple)) and len(row) == 3 and _real(row[0])
                    and isinstance(row[0], numbers.Integral) and row[0] == pos):
                raise ValueError(f"MCS row {pos}, {row!r}, must be [{pos}, SINR "
                                 f"threshold dB, bits per symbol]")
        return cls(tuple(row[1] for row in rows), tuple(row[2] for row in rows))


# 802.11ax MCS 0-10 at 20 MHz, single stream: modulation bits x coding rate.
_MCS_BITS_PER_SUBCARRIER = (1, 2, 2, 4, 4, 6, 6, 6, 8, 8, 10)
_MCS_CODING_RATE = (1 / 2, 1 / 2, 3 / 4, 1 / 2, 3 / 4, 2 / 3, 3 / 4, 5 / 6,
                    3 / 4, 5 / 6, 3 / 4)
_MCS_MIN_SINR_DB = (2.0, 5.0, 8.0, 11.0, 15.0, 18.0, 20.0, 22.0, 26.0, 28.0, 30.0)
DATA_SUBCARRIERS_20MHZ = 234


def default_mcs_table() -> McsTable:
    return McsTable(_MCS_MIN_SINR_DB, tuple(
        DATA_SUBCARRIERS_20MHZ * bits * rate
        for bits, rate in zip(_MCS_BITS_PER_SUBCARRIER, _MCS_CODING_RATE)))


def select_mcs(sinr_db: float, table: McsTable) -> int | None:
    """Highest MCS whose threshold is <= sinr_db (inclusive); None below MCS 0."""
    pos = bisect_right(table.min_sinrs, sinr_db) - 1
    return pos if pos >= 0 else None


def data_rate_bps(mcs: int, table: McsTable, timing: "TimingConfig") -> float:
    """PHY data rate: payload bits per OFDM symbol over symbol + guard time."""
    return table.bits_per_symbol[mcs] / (timing.ofdm_symbol_us + timing.guard_interval_us) * 1e6
