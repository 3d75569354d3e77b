"""Periodic coordinated-TXOP engine.

Timeline per period T (times below in microseconds within the TXOP):

    MAP-RTS, Te, MAP-CTS, Te                       <- handshake, once
    repeat: MAP-TF, Te, [overhead,] coordinated slot
    ... until no group is selected, nothing fits, or the TXOP cap is hit.

Traffic lands in per-AP FIFO buffers just before each TXOP as bursts of
`burst_packets` packets per station (Bernoulli with probability p derived
from the offered load). Buffers hold bursts rather than individual packets;
a burst may be split across slots when the budget runs out mid-burst.

Inside a slot every member AP drains its FIFO oldest packet first. Packets
to the same station are aggregated into one A-MPDU segment sent at the MCS
the station's in-group SINR allows, so an AP's airtime is one PHY preamble
plus the sum of its segment times. The slot lasts as long as the busiest
member; APs that finish early idle. The gap between the TXOP cap and the
next period carries no simulated traffic (it is left to uncoordinated use).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .channel import (McsTable, build_rssi_matrix, data_rate_bps,
                      default_mcs_table, select_mcs, station_sinr_db)
from .config import ScenarioConfig, TimingConfig, TrafficConfig
from .grouping import GroupSet, build_all_groups
from .scenario import Deployment, generate_grid_deployment
from .scheduling import BufferSummary, SchedulerKind, select_group
from .stats import percentile

# Per-station, per-packet transmit times within one scheduled AP set:
# ap -> {station: (mcs, airtime_us)}; a station below the MCS-0 threshold
# maps to None and cannot be served while that set transmits.
LinkAirtimes = Mapping[int, Mapping[int, "tuple[int, float] | None"]]


@dataclass(frozen=True)
class Packet:
    """A downlink packet as tracked by the delivery log."""

    arrival_time_s: float
    dest_station: int
    size_bytes: int = 1500
    delivery_time_s: float | None = None


def arrival_probability(load_bps: float, burst_packets: int, packet_bytes: int,
                        period_s: float) -> float:
    """Per-period burst probability p = load*T / (Np*L*8).

    Raises when the load cannot be offered with this burst size (p > 1).
    """
    if load_bps < 0 or burst_packets < 1 or packet_bytes < 1 or period_s <= 0:
        raise ValueError("arrival_probability arguments must be positive")
    p = load_bps * period_s / (burst_packets * packet_bytes * 8)
    if p > 1.0:
        raise ValueError(
            f"load {load_bps:g} bps needs p={p:.4f} > 1 with bursts of "
            f"{burst_packets} x {packet_bytes} B per period")
    return p


class ApBuffer:
    """FIFO transmission buffer of one AP, stored as packet bursts.

    Each entry is a mutable [arrival_s, station, count]; count shrinks when a
    burst is split across slots.
    """

    __slots__ = ("batches", "count")

    def __init__(self) -> None:
        self.batches: deque[list] = deque()
        self.count = 0

    def append_burst(self, arrival_s: float, station: int, count: int) -> None:
        self.batches.append([arrival_s, station, count])
        self.count += count

    @property
    def oldest_arrival(self) -> float | None:
        return self.batches[0][0] if self.batches else None

    def consume(self, consumptions: Sequence[tuple[int, int]]) -> list[tuple[float, int, int]]:
        """Remove planned packets; `consumptions` are (queue position, count)
        pairs in ascending position order, as produced by plan_slot.

        Entries skipped by the plan (stations unservable in the scheduled
        set) stay buffered in their original order. Returns the consumed
        (arrival_s, station, count) triples.
        """
        taken: list[tuple[float, int, int]] = []
        kept: list[list] = []
        pos = 0
        for cpos, k in consumptions:
            while pos < cpos:  # hop over skipped (unservable) bursts
                kept.append(self.batches.popleft())
                pos += 1
            batch = self.batches[0]
            if k == batch[2]:
                self.batches.popleft()
                pos += 1
            else:
                batch[2] -= k  # split burst: remainder keeps its arrival time
            taken.append((batch[0], batch[1], k))
            self.count -= k
        if kept:
            self.batches.extendleft(reversed(kept))
        return taken


def step_arrivals(buffers: Sequence[ApBuffer], deployment: Deployment,
                  traffic: TrafficConfig, arrival_prob: float,
                  rng: np.random.Generator, now_s: float) -> int:
    """Independent Bernoulli burst arrival per station; returns packets added.

    One uniform draw per station per period regardless of p, so runs with
    the same seed see the same arrival pattern across load levels.
    """
    u = rng.random(deployment.num_stations)
    appended = 0
    for sta in np.flatnonzero(u < arrival_prob):
        buffers[deployment.association[sta]].append_burst(now_s, int(sta),
                                                          traffic.burst_packets)
        appended += traffic.burst_packets
    return appended


@dataclass
class ApTransmission:
    ap: int
    segments: list[tuple[int, int, int]]     # (station, mcs, packet count)
    consume: list[tuple[int, int]]           # queue positions for ApBuffer.consume
    airtime_us: float                        # preamble + A-MPDU segment times


@dataclass
class SlotPlan:
    members: tuple[int, ...]
    transmissions: list[ApTransmission]
    duration_us: float                       # max member airtime


def plan_slot(members: Sequence[int], buffers: Sequence[ApBuffer],
              link_airtimes: LinkAirtimes, timing: TimingConfig,
              budget_us: float) -> SlotPlan | None:
    """Fill one coordinated slot for `members` within `budget_us`.

    The budget covers the trigger frame, guard and fixed overhead plus the
    slot itself, so each AP may pack packets up to
    budget - T_MAP-TF - Te - overhead of airtime. Draining is strict FIFO
    per AP: the first packet that does not fit ends that AP's drain (a burst
    may be cut mid-way); packets to stations without a usable MCS are left
    buffered and skipped over. Returns None when nothing fits at all.
    """
    cap_us = budget_us - timing.map_tf_us - timing.te_us - timing.slot_overhead_us
    if cap_us <= timing.phy_preamble_us:
        return None
    transmissions: list[ApTransmission] = []
    duration = 0.0
    for ap in members:
        rates = link_airtimes[ap]
        acc = timing.phy_preamble_us
        segment_counts: dict[int, list] = {}
        consume: list[tuple[int, int]] = []
        for pos, (_, sta, n) in enumerate(buffers[ap].batches):
            entry = rates.get(sta)
            if entry is None:
                continue
            mcs, per_packet = entry
            fit = int((cap_us - acc) / per_packet + 1e-9)
            if fit <= 0:
                break
            k = n if n <= fit else fit
            acc += k * per_packet
            seg = segment_counts.get(sta)
            if seg is None:
                segment_counts[sta] = [mcs, k]
            else:
                seg[1] += k
            consume.append((pos, k))
            if k < n:
                break
        if consume:
            segments = [(sta, mcs, k) for sta, (mcs, k) in segment_counts.items()]
            transmissions.append(ApTransmission(ap, segments, consume, acc))
            if acc > duration:
                duration = acc
    if not transmissions:
        return None
    return SlotPlan(tuple(members), transmissions, duration)


@dataclass
class SlotRecord:
    members: tuple[int, ...]
    duration_us: float
    delivered: list[tuple[int, list[tuple[int, int, int]]]]  # (ap, segments)

    @property
    def packets(self) -> int:
        return sum(k for _, segs in self.delivered for _, _, k in segs)


@dataclass
class TxopRecord:
    start_time_s: float
    handshake_us: float
    slots: list[SlotRecord]
    total_duration_us: float

    @property
    def packets_delivered(self) -> int:
        return sum(slot.packets for slot in self.slots)


class SimState:
    """Mutable state of one run: buffers plus delivery bookkeeping."""

    def __init__(self, num_aps: int, link_airtimes: Mapping[frozenset, LinkAirtimes],
                 packet_bytes: int):
        self.buffers = [ApBuffer() for _ in range(num_aps)]
        self.link_airtimes = link_airtimes
        self.packet_bytes = packet_bytes
        self.delay_values: list[float] = []
        self.delay_counts: list[int] = []
        self.packets_arrived = 0
        self.packets_delivered = 0
        self.delivery_log: list[tuple[int, Packet, int]] | None = None

    def backlog(self) -> int:
        return sum(b.count for b in self.buffers)

    def deliver(self, plan: SlotPlan, delivery_time_s: float) -> None:
        for tx in plan.transmissions:
            for arrival, sta, k in self.buffers[tx.ap].consume(tx.consume):
                self.delay_values.append(delivery_time_s - arrival)
                self.delay_counts.append(k)
                self.packets_delivered += k
                if self.delivery_log is not None:
                    self.delivery_log.append(
                        (tx.ap, Packet(arrival, sta, self.packet_bytes,
                                       delivery_time_s), k))


def run_txop(state: SimState, kind: SchedulerKind, groups: GroupSet,
             timing: TimingConfig, now_s: float) -> TxopRecord:
    """Run the coordinated TXOP starting at `now_s`.

    With empty buffers no TXOP occurs at all (zero duration) unless
    `timing.always_handshake` is set. Group selection is re-evaluated after
    every slot with updated buffers; the buffer summary is taken at the slot
    decision instant, i.e. TXOP start plus everything already transmitted,
    so even packets that arrived at `now_s` have a positive waiting time.
    """
    buffers = state.buffers
    if state.backlog() == 0 and not timing.always_handshake:
        return TxopRecord(now_s, 0.0, [], 0.0)
    consumed = timing.handshake_us
    txop_max = timing.txop_max_us
    slots: list[SlotRecord] = []
    while True:
        summary = BufferSummary(now_s + consumed * 1e-6,
                                [b.count for b in buffers],
                                [b.oldest_arrival for b in buffers])
        members = select_group(kind, groups, summary)
        if members is None:
            break
        plan = plan_slot(members, buffers,
                         state.link_airtimes[frozenset(members)], timing,
                         txop_max - consumed)
        if plan is None:
            break
        consumed += (timing.map_tf_us + timing.te_us + timing.slot_overhead_us
                     + plan.duration_us)
        state.deliver(plan, now_s + consumed * 1e-6)
        slots.append(SlotRecord(plan.members, plan.duration_us,
                                [(tx.ap, tx.segments) for tx in plan.transmissions]))
    return TxopRecord(now_s, timing.handshake_us, slots, consumed)


# ---------------------------------------------------------------------------
# Whole-run driver

@dataclass
class Environment:
    """Static per-run context: the deployment, its RSSI database and the
    SR-compatible groups built from it."""

    deployment: Deployment
    rssi_dbm: np.ndarray
    groups: GroupSet


def build_environment(scenario: ScenarioConfig, gamma_db: float,
                      max_group_size: int, seed: int
                      ) -> tuple[Environment, np.random.Generator]:
    """Deployment + RSSI + groups for `seed`; also returns the traffic RNG.

    The seed is split so the deployment stream is independent of the traffic
    stream: two runs with the same seed share the deployment even if they
    consume different amounts of traffic randomness.
    """
    deploy_ss, traffic_ss = np.random.SeedSequence(seed).spawn(2)
    deployment = generate_grid_deployment(scenario, np.random.default_rng(deploy_ss))
    rssi = build_rssi_matrix(deployment, scenario)
    groups = build_all_groups(rssi, deployment, scenario.noise_dbm, gamma_db,
                              max_group_size)
    return Environment(deployment, rssi, groups), np.random.default_rng(traffic_ss)


def _selection_airtimes(env: Environment, scenario: ScenarioConfig,
                        mcs_table: McsTable, timing: TimingConfig,
                        packet_bits: int) -> dict[frozenset, dict]:
    """Precompute per-packet airtimes for every AP set a scheduler can pick:
    all stored groups plus every c-TDMA singleton. RSSI is static, so the
    in-group SINR (and hence MCS and airtime) never changes during a run."""

    def rates_for(members: tuple[int, ...]) -> dict[int, dict]:
        out: dict[int, dict] = {}
        for ap in members:
            per_sta: dict[int, tuple[int, float] | None] = {}
            for sta in env.deployment.stations_by_ap[ap]:
                sinr = station_sinr_db(ap, sta, members, env.rssi_dbm,
                                       scenario.noise_dbm)
                mcs = select_mcs(sinr, mcs_table)
                if mcs is None:
                    per_sta[sta] = None
                else:
                    per_sta[sta] = (mcs, packet_bits / data_rate_bps(mcs, mcs_table, timing) * 1e6)
            out[ap] = per_sta
        return out

    table: dict[frozenset, dict] = {}
    for group in env.groups.groups:
        table[frozenset(group.members)] = rates_for(group.members)
    for ap in range(env.deployment.num_aps):
        table.setdefault(frozenset((ap,)), rates_for((ap,)))
    return table


@dataclass
class MetricsReport:
    """Outcome of one run. Delays are per delivered packet, in seconds."""

    throughput_bps: float
    mean_delay_s: float
    delays_sorted_s: np.ndarray
    per_txop_occupancy: np.ndarray
    packets_arrived: int
    packets_delivered: int
    packets_remaining: int

    def delay_percentile(self, q: float) -> float:
        """Nearest-rank delay percentile; NaN when nothing was delivered."""
        if len(self.delays_sorted_s) == 0:
            return float("nan")
        return percentile(self.delays_sorted_s, q)

    @property
    def mean_occupancy(self) -> float:
        return float(self.per_txop_occupancy.mean())


def run_simulation(scenario: ScenarioConfig, timing: TimingConfig,
                   traffic: TrafficConfig, gamma_db: float,
                   max_group_size: int, kind: SchedulerKind | str, seed: int,
                   mcs_table: McsTable | None = None,
                   txop_trace: list[TxopRecord] | None = None,
                   delivery_log: list[tuple[int, Packet, int]] | None = None,
                   ) -> MetricsReport:
    """Simulate `timing.num_txops` periods and report the run metrics.

    Fully deterministic in (configs, seed). `txop_trace` and `delivery_log`,
    when given, collect per-TXOP records and per-delivery packets.
    """
    if isinstance(kind, str):
        kind = SchedulerKind(kind)
    if mcs_table is None:
        mcs_table = default_mcs_table()
    env, traffic_rng = build_environment(scenario, gamma_db, max_group_size, seed)
    airtimes = _selection_airtimes(env, scenario, mcs_table, timing,
                                   traffic.packet_bits)
    p = arrival_probability(traffic.load_bps_per_sta, traffic.burst_packets,
                            traffic.packet_bytes, timing.period_s)
    state = SimState(env.deployment.num_aps, airtimes, traffic.packet_bytes)
    state.delivery_log = delivery_log
    occupancy = np.empty(timing.num_txops)
    txop_max = timing.txop_max_us
    for n in range(timing.num_txops):
        now = n * timing.period_s
        state.packets_arrived += step_arrivals(state.buffers, env.deployment,
                                               traffic, p, traffic_rng, now)
        record = run_txop(state, kind, env.groups, timing, now)
        occupancy[n] = record.total_duration_us / txop_max
        if txop_trace is not None:
            txop_trace.append(record)

    if state.delay_values:
        delays = np.repeat(np.asarray(state.delay_values),
                           np.asarray(state.delay_counts))
        delays_sorted = np.sort(delays)
        mean_delay = float(delays.mean())
    else:
        delays_sorted = np.empty(0)
        mean_delay = float("nan")
    sim_time_s = timing.num_txops * timing.period_s
    return MetricsReport(
        throughput_bps=state.packets_delivered * traffic.packet_bits / sim_time_s,
        mean_delay_s=mean_delay,
        delays_sorted_s=delays_sorted,
        per_txop_occupancy=occupancy,
        packets_arrived=state.packets_arrived,
        packets_delivered=state.packets_delivered,
        packets_remaining=state.backlog(),
    )
