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

The controller's view of the buffers (queued packets and head-of-line
arrival per AP) is maintained incrementally: every buffer change writes
through to it, so no slot or TXOP rebuilds it by walking all APs.

Runs of one deployment share its static environment and airtime table
within a campaign: one-entry memos keyed by the values they are built from,
cleared by `run_campaign`. The memoized arrays are read-only.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Mapping, Sequence

import numpy as np

from .channel import (McsTable, build_rssi_matrix, data_rate_bps,
                      group_sinr_db, select_mcs)
from .config import (ScenarioConfig, SimulationConfig, TimingConfig,
                     TrafficConfig)
from .grouping import GroupSet, build_all_groups
from .scenario import Deployment, generate_grid_deployment
from .scheduling import BufferSummary, SchedulerKind, select_group
from .stats import nearest_rank

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
    burst is split across slots. Every change is written through to
    `counts[ap]` and `heads[ap]`, the controller's view (see SimState); a
    buffer made alone gets one-entry lists of its own.
    """

    __slots__ = ("batches", "counts", "heads", "ap")

    def __init__(self, counts: list[int] | None = None,
                 heads: list[float | None] | None = None, ap: int = 0) -> None:
        self.batches: deque[list] = deque()
        self.counts = [0] if counts is None else counts
        self.heads: list[float | None] = [None] if heads is None else heads
        self.ap = ap

    @property
    def count(self) -> int:
        return self.counts[self.ap]

    @count.setter
    def count(self, value: int) -> None:
        self.counts[self.ap] = value

    def append_burst(self, arrival_s: float, station: int, count: int) -> None:
        if not self.batches:
            self.heads[self.ap] = arrival_s
        self.batches.append([arrival_s, station, count])
        self.counts[self.ap] += count

    def consume(self, consumptions: Sequence[tuple[int, int]]) -> list[tuple[float, int, int]]:
        """Remove planned packets; `consumptions` are (queue position, count)
        pairs in ascending position order, as produced by plan_slot.

        Entries skipped by the plan (stations unservable in the scheduled
        set) stay buffered in their original order. Returns the consumed
        (arrival_s, station, count) triples.
        """
        batches = self.batches
        taken = []
        removed = 0
        for pos, k in consumptions:
            batch = batches[pos]
            taken.append((batch[0], batch[1], k))
            removed += k
        # back to front, so deleting a burst leaves the earlier positions valid
        for pos, k in reversed(consumptions):
            if k == batches[pos][2]:
                del batches[pos]
            else:
                batches[pos][2] -= k  # split burst: remainder keeps its arrival time
        self.counts[self.ap] -= removed
        self.heads[self.ap] = batches[0][0] if batches else None
        return taken


def step_arrivals(buffers: Sequence[ApBuffer], deployment: Deployment,
                  traffic: TrafficConfig, arrival_prob: float,
                  rng: np.random.Generator, now_s: float) -> int:
    """Independent Bernoulli burst arrival per station; returns packets added.

    One uniform draw per station per period regardless of p, so runs with
    the same seed see the same arrival pattern across load levels.
    """
    u = rng.random(deployment.num_stations)
    arriving = np.flatnonzero(u < arrival_prob)
    burst = traffic.burst_packets
    for sta, ap in zip(arriving.tolist(),
                       deployment.association[arriving].tolist()):
        buffers[ap].append_burst(now_s, sta, burst)
    return burst * len(arriving)


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

    @property
    def packets(self) -> int:
        return sum(k for tx in self.transmissions for _, _, k in tx.segments)


def slot_capacity_us(timing: TimingConfig, budget_us: float) -> float:
    """Airtime each AP may fill in a slot that starts with `budget_us` left:
    the budget minus T_MAP-TF, Te and the fixed per-slot overhead."""
    return budget_us - timing.map_tf_us - timing.te_us - timing.slot_overhead_us


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
    cap_us = slot_capacity_us(timing, budget_us)
    if cap_us <= timing.phy_preamble_us:
        return None
    transmissions: list[ApTransmission] = []
    duration = 0.0
    for ap in members:
        rates = link_airtimes[ap]
        acc = timing.phy_preamble_us
        segment_counts: dict[int, int] = {}
        consume: list[tuple[int, int]] = []
        for pos, (_, sta, n) in enumerate(buffers[ap].batches):
            entry = rates.get(sta)
            if entry is None:
                continue
            per_packet = entry[1]
            fit = int((cap_us - acc) / per_packet + 1e-9)
            if fit <= 0:
                break
            k = n if n <= fit else fit
            acc += k * per_packet
            segment_counts[sta] = segment_counts.get(sta, 0) + k
            consume.append((pos, k))
            if k < n:
                break
        if consume:
            segments = [(sta, rates[sta][0], k) for sta, k in segment_counts.items()]
            transmissions.append(ApTransmission(ap, segments, consume, acc))
            if acc > duration:
                duration = acc
    if not transmissions:
        return None
    return SlotPlan(tuple(members), transmissions, duration)


@dataclass
class TxopRecord:
    start_time_s: float
    handshake_us: float
    slots: list[SlotPlan]
    total_duration_us: float

    @property
    def packets_delivered(self) -> int:
        return sum(slot.packets for slot in self.slots)


class SimState:
    """Mutable state of one run: buffers plus delivery bookkeeping.

    `counts` and `heads` are the controller's view: queued packets and
    head-of-line arrival time (None when empty) per AP, kept current by the
    buffers whoever appends to or consumes from them.
    """

    def __init__(self, num_aps: int, link_airtimes: Mapping[tuple[int, ...], LinkAirtimes],
                 packet_bytes: int):
        self.counts: list[int] = [0] * num_aps
        self.heads: list[float | None] = [None] * num_aps
        self.buffers = [ApBuffer(self.counts, self.heads, ap)
                        for ap in range(num_aps)]
        self.link_airtimes = link_airtimes
        self.packet_bytes = packet_bytes
        self.delay_values: list[float] = []
        self.delay_counts: list[int] = []
        self.packets_arrived = 0
        self.packets_delivered = 0
        self.delivery_log: list[tuple[int, Packet, int]] | None = None

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
    buffers, counts, heads = state.buffers, state.counts, state.heads
    if not any(counts) and not timing.always_handshake:
        return TxopRecord(now_s, 0.0, [], 0.0)
    consumed = timing.handshake_us
    txop_max = timing.txop_max_us
    slots: list[SlotPlan] = []
    while True:
        if slot_capacity_us(timing, txop_max - consumed) <= timing.phy_preamble_us:
            break  # plan_slot would refuse whatever group is selected
        members = select_group(kind, groups,
                               BufferSummary(now_s + consumed * 1e-6, counts, heads))
        if members is None:
            break
        plan = plan_slot(members, buffers,
                         state.link_airtimes[members], timing,
                         txop_max - consumed)
        if plan is None:
            break
        consumed += (timing.map_tf_us + timing.te_us + timing.slot_overhead_us
                     + plan.duration_us)
        state.deliver(plan, now_s + consumed * 1e-6)
        slots.append(plan)
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


# name -> (key, value) of the last environment and airtime table built, keyed
# by the values they depend on, never by id() (a new object can reuse one).
_memo: dict[str, tuple[Hashable, Any]] = {}


def _memoized(name: str, key: Hashable, build: Callable[[], Any]) -> Any:
    if _memo.get(name, (None,))[0] != key:
        _memo[name] = (key, build())
    return _memo[name][1]


def clear_memos() -> None:
    """Forget the memoized environment and airtime table."""
    _memo.clear()


def build_environment(scenario: ScenarioConfig, gamma_db: float,
                      max_group_size: int, seed: int
                      ) -> tuple[Environment, np.random.Generator]:
    """Deployment + RSSI + groups for `seed`; also returns the traffic RNG.

    The seed is split so the deployment stream is independent of the traffic
    stream: two runs with the same seed share the deployment even if they
    consume different amounts of traffic randomness. The environment is
    memoized and shared by every caller asking for the same values, so its
    arrays are read-only; the traffic RNG is new on every call.
    """
    deploy_ss, traffic_ss = np.random.SeedSequence(seed).spawn(2)

    def build() -> Environment:
        deployment = generate_grid_deployment(scenario, np.random.default_rng(deploy_ss))
        rssi = build_rssi_matrix(deployment, scenario)
        groups = build_all_groups(rssi, deployment, scenario.noise_dbm, gamma_db,
                                  max_group_size)
        for array in (deployment.ap_positions, deployment.station_positions,
                      deployment.association, rssi, groups.member_matrix, groups.sizes):
            array.flags.writeable = False
        return Environment(deployment, rssi, groups)

    env = _memoized("environment", (scenario, gamma_db, max_group_size, seed), build)
    return env, np.random.default_rng(traffic_ss)


def _selection_airtimes(env: Environment, scenario: ScenarioConfig,
                        mcs_table: McsTable, timing: TimingConfig,
                        packet_bits: int) -> dict[tuple[int, ...], dict]:
    """Precompute per-packet airtimes for every AP set a scheduler can pick,
    keyed by the member tuple `select_group` returns: all stored groups plus
    every c-TDMA singleton. RSSI is static, so the in-group SINR (and hence
    MCS and airtime) never changes during a run."""

    def rates_for(members: tuple[int, ...]) -> dict[int, dict]:
        out: dict[int, dict] = {ap: {} for ap in members}
        for ap, sta, sinr in group_sinr_db(members, env.rssi_dbm,
                                           env.deployment.stations_by_ap,
                                           scenario.noise_dbm):
            mcs = select_mcs(sinr, mcs_table)
            out[ap][sta] = None if mcs is None else (
                mcs, packet_bits / data_rate_bps(mcs, mcs_table, timing) * 1e6)
        return out

    table: dict[tuple[int, ...], dict] = {}
    for group in env.groups.groups:
        table[group.members] = rates_for(group.members)
    for ap in range(env.deployment.num_aps):
        table.setdefault((ap,), rates_for((ap,)))
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
        return nearest_rank(self.delays_sorted_s, q)

    @property
    def mean_occupancy(self) -> float:
        return float(self.per_txop_occupancy.mean())


def run_simulation(config: SimulationConfig,
                   txop_trace: list[TxopRecord] | None = None,
                   delivery_log: list[tuple[int, Packet, int]] | None = None,
                   ) -> MetricsReport:
    """Simulate `config.timing.num_txops` periods and report the run metrics.

    `config` is the whole run, already checked when it was built; the same
    config gives the same report. `txop_trace` and `delivery_log`, when
    given, collect per-TXOP records and per-delivery packets.
    """
    scenario, timing, traffic = config.scenario, config.timing, config.traffic
    mcs_table = config.mcs_table
    kind = SchedulerKind(config.scheduler)
    if config.gamma_db < mcs_table.min_sinrs[0]:
        warnings.warn(f"gamma_db {config.gamma_db:g} dB is below the lowest MCS "
                      f"threshold, {mcs_table.min_sinrs[0]:g} dB: groups may hold "
                      f"stations that no MCS can serve", UserWarning, stacklevel=2)
    env_key = (scenario, config.gamma_db, config.max_group_size, config.seed)
    env, traffic_rng = build_environment(*env_key)
    airtimes = _memoized(
        "airtimes", env_key + (mcs_table, timing, traffic.packet_bits),
        lambda: _selection_airtimes(env, scenario, mcs_table, timing, traffic.packet_bits))
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
        packets_remaining=sum(state.counts),
    )
