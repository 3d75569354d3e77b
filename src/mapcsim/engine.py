"""Periodic coordinated-TXOP engine.

Timeline per period T (times below in microseconds within the TXOP):

    MAP-RTS, Te, MAP-CTS, Te                       <- handshake, once
    repeat: MAP-TF, Te, [overhead,] coordinated slot
    ... until the buffers are empty, nothing fits, or the TXOP cap is hit.

Traffic lands in per-AP FIFO buffers just before each TXOP as bursts of
`burst_packets` packets per station (Bernoulli with probability p derived
from the offered load). `draw_arrivals` draws a run's arrivals ahead into
an `ArrivalSchedule`, which lists each AP's arrivals in FIFO order, and
`SimState` queues each AP's traffic as a window over its AP's list that
ends at the first burst still to come. So an arrival costs no Python
object, only the schedule's 5 B on a 12x12 grid (4 B of it the per-AP
lists), and adding it only adds its packets to its AP's count. A burst cut
at the budget stays at the head of the window, less the packets it has
sent.

Inside a slot every member AP drains its FIFO oldest packet first. Packets
to the same station are aggregated into one A-MPDU segment sent at the MCS
the station's in-group SINR allows, so an AP's airtime is one PHY preamble
plus the sum of its segment times. The slot lasts as long as the busiest
member; APs that finish early idle. The gap between the TXOP cap and the
next period carries no simulated traffic (it is left to uncoordinated
use). The airtime table holds each AP set's per-packet airtime and MCS per
station it serves, as two dicts keyed by station. `plan_slot` reads each
burst once, skips bursts to a station absent from its airtime dict,
changes nothing, and records what each AP sends as runs (lo, hi, head,
tail): the schedule's bursts [lo, hi) with the packets of the first and
last burst. A re-queued burst is a run of one, a window drain one run per
stretch between skipped bursts. It also records where the AP's queue ends:
its window (cursor, sent) and its re-queued bursts. A plan holds only that,
which `deliver` commits: it books each run whole, with its delivery time,
and sets the queue, and the run expands the records into per-burst (delay,
packets) pairs in one numpy pass after its last TXOP. Every skipped burst is
re-queued as [schedule index, count], so every burst reads its arrival and
station from the schedule. A plan's per-burst list, its A-MPDU segments and
each AP's airtime follow from its runs, the schedule and the set's dicts;
no run needs them, so the engine does not derive them.

The controller's view of the buffers is kept incrementally, so no slot or
TXOP rebuilds it by walking all APs: per AP, the packets queued, which
arrivals add and deliveries take off, and the head, the arrival time of the
first unsent burst of the AP's list, arrived or not (+inf once the list is
spent), which only deliveries move. A queued head is at most the TXOP
start, and a burst still to come arrives a period after it, later than any
decision instant (the TXOP cap is below the period), so the AP with the
oldest head is the first minimum of the heads whenever an AP has packets.
`run_txop` picks only while packets are queued, and `select_group` reads
the run's live view, lists on small grids and numpy vectors on large ones,
and the slot decision instant; a `TimingConfig` works out the charges once.

Runs of one deployment share its static environments and airtime tables,
one per (gamma, K), and the arrival schedule of each load: the traffic
stream depends on the seed alone, so the six schedulers, every gamma and
every K of a (deployment, load) queue the same bursts. The memo holds one
deployment at a time, keyed by the values it was built from, and
`run_campaign` clears it. The memoized arrays are read-only.
"""

from __future__ import annotations

import warnings
from array import array
from dataclasses import dataclass
from math import inf
from typing import Any, Callable, Hashable, Mapping, Sequence

import numpy as np

from .channel import build_rssi_matrix, group_sinr_db, select_mcs
from .config import (ScenarioConfig, SimulationConfig, TimingConfig,
                     TrafficConfig, arrival_probability)
from .grouping import GroupSet, build_all_groups
from .scenario import Deployment, generate_grid_deployment
from .scheduling import SchedulerKind, select_group
from .stats import nearest_rank

# One AP set's links, (airtime_us, mcs): the per-packet airtime and MCS of each
# station a member serves at a usable MCS while the set transmits, keyed by
# global station id. A station absent from both is unservable in that set.
# plan_slot reads airtime_us alone; mcs names the MCS of each A-MPDU segment
# for a reader of the plans.
SetLinks = tuple[Mapping[int, float], Mapping[int, int]]


# Most APs whose controller view SimState keeps in lists; on more APs it keeps
# numpy vectors, and select_group scores them with numpy. Run time of the six
# kinds, 1000 TXOPs, two seeds, memos warm, lists over vectors (Python 3.11,
# numpy 2.4, 2-vCPU x86_64 VM): 4x4 0.73 / 0.78 at 2 / 8 Mbps per station,
# 5x5 0.84 / 0.89, 6x6 0.88 / 0.96, 7x7 0.98 / 1.07 and 8x8 1.04 / 1.20;
# per-Group kinds cross first, per-AP kinds last.
LIST_VIEW_MAX_APS = 48

# Uniforms per block when drawing arrivals: bounds the transient draw to 128 kB,
# or to one TXOP's row on a grid of more than 2^14 stations.
ARRIVAL_BLOCK_DOUBLES = 1 << 14
# Blocks grouped by AP at a time: bounds the int64 sort index to 2^18
# arrivals (2 MB), whatever the run length.
GROUPING_BLOCKS = 16


@dataclass(frozen=True)
class ArrivalSchedule:
    """Every TXOP's burst arrivals of a run, drawn ahead, as each AP's FIFO
    for the run: AP a's arriving stations, in (TXOP, station) order, are
    `fifo_stations[ap_bounds[a]:ap_bounds[a + 1]]`, and the TXOPs they
    arrive in the same slice of `fifo_txops`. TXOP n's arrivals, ascending
    by station, belong to the APs `aps[bounds[n]:bounds[n + 1]]`. Runs share
    it, so its arrays are read-only.

    Its size grows with the run, num_txops * num_stations * p arrivals, ids
    in the smallest unsigned type that fits: 1 B of AP id each on up to 255
    APs, 1 B of station id on a 3x3 grid (27 stations) and 2 B on 12x12
    (432 stations), and 2 B of TXOP index while num_txops <= 2^16. So a
    10^4-TXOP run holds 4 B per arrival on 3x3 and 5 B on 12x12: on 12x12,
    1.8 MB at the 2 Mbps/STA of p = 1/12, and 21.6 MB at p = 1."""

    aps: np.ndarray            # smallest unsigned int dtype holding an AP id
    bounds: np.ndarray         # int64, num_txops + 1 offsets
    fifo_stations: np.ndarray  # smallest unsigned int dtype holding a station id
    fifo_txops: np.ndarray     # smallest unsigned int dtype holding a TXOP index
    ap_bounds: np.ndarray      # int64, num_aps + 1 offsets


def draw_arrivals(deployment: Deployment, arrival_prob: float,
                  rng: np.random.Generator, num_txops: int) -> ArrivalSchedule:
    """Independent Bernoulli burst arrival per station and TXOP.

    One uniform draw per station per TXOP regardless of p, so runs with the
    same seed see the same arrival pattern across load levels. Drawn in
    row-major (TXOPs x stations) blocks, which consume `rng` exactly as one
    `rng.random(num_stations)` call per TXOP would. Raises unless
    0 <= `arrival_prob` <= 1.
    """
    if not 0.0 <= arrival_prob <= 1.0:  # also rejects NaN
        raise ValueError(f"arrival_prob must lie in [0, 1], got {arrival_prob!r}")
    num_stations, num_aps = deployment.num_stations, deployment.num_aps
    sta_type = np.min_scalar_type(num_stations)
    ap_type = np.min_scalar_type(num_aps)
    txop_type = np.min_scalar_type(max(num_txops - 1, 0))
    block = max(1, ARRIVAL_BLOCK_DOUBLES // num_stations)
    bounds = np.zeros(num_txops + 1, dtype=np.int64)  # counts, then offsets
    ap_bounds = np.zeros(num_aps + 1, dtype=np.int64)  # likewise per AP
    stations, aps, txops = ([np.empty(0, t)] for t in (sta_type, ap_type, txop_type))
    for start in range(0, num_txops, block):
        rows = min(block, num_txops - start)
        txop, sta = np.nonzero(rng.random((rows, num_stations)) < arrival_prob)
        bounds[start + 1:start + rows + 1] = np.bincount(txop, minlength=rows)
        ap = deployment.association[sta].astype(ap_type)
        ap_bounds[1:] += np.bincount(ap, minlength=num_aps)
        stations.append(sta.astype(sta_type))
        aps.append(ap)
        txops.append((txop + start).astype(txop_type))
    np.cumsum(bounds, out=bounds)
    np.cumsum(ap_bounds, out=ap_bounds)
    # Stably grouped by AP, each group of blocks' arrivals extends each AP's
    # list, which so stays in (TXOP, station) order.
    fifo_stations = np.empty(ap_bounds[-1], sta_type)
    fifo_txops = np.empty(ap_bounds[-1], txop_type)
    ends = ap_bounds[:-1].tolist()
    for first in range(0, len(stations), GROUPING_BLOCKS):
        sta, ap, txop = (np.concatenate(parts[first:first + GROUPING_BLOCKS])
                         for parts in (stations, aps, txops))
        by_ap = np.argsort(ap, kind="stable")
        sta, txop = sta[by_ap], txop[by_ap]
        lo = 0
        for a, count in enumerate(np.bincount(ap, minlength=num_aps).tolist()):
            fifo_stations[ends[a]:ends[a] + count] = sta[lo:lo + count]
            fifo_txops[ends[a]:ends[a] + count] = txop[lo:lo + count]
            ends[a] += count
            lo += count
    del stations, txops
    schedule = ArrivalSchedule(np.concatenate(aps), bounds, fifo_stations, fifo_txops,
                               ap_bounds)
    for array in (schedule.aps, schedule.bounds, schedule.fifo_stations,
                  schedule.fifo_txops, schedule.ap_bounds):
        array.flags.writeable = False
    return schedule


def step_arrivals(state: SimState, n: int) -> int:
    """Let TXOP `n`'s bursts of the run's schedule arrive at its start: each
    arriving station's AP count grows by one burst, and TXOP `n` becomes the
    last one whose bursts have arrived. Heads stay as they are (see
    SimState). Returns packets added."""
    bounds = state.bounds
    lo, hi = bounds[n], bounds[n + 1]
    burst, counts = state.burst_packets, state.counts
    state.txop = n
    if state.vector_view:
        np.add.at(counts, state.ap_ids[lo:hi], burst)
    else:
        for ap in state.aps[lo:hi]:
            counts[ap] += burst
    added = burst * (hi - lo)
    state.queued += added
    return added


@dataclass
class ApTransmission:
    """What one member AP sends in a slot, as `plan_slot` plans it and
    `deliver` commits it, and nothing else. `runs` lists it in queue order
    as (lo, hi, head, tail): the schedule's bursts [lo, hi), `head` packets
    sent of the first and `tail` of the last (of the only one, in a run of
    one), the bursts between whole. A re-queued burst sent from is a run of
    one, and the window drain one run per stretch between skipped bursts
    (their station unservable in the scheduled set). `window` (cursor,
    sent) and `requeued` are the AP's queue as it stands after the slot (see
    SimState), and `packets` what it sends in all. The schedule gives each
    burst's arrival and station, and the set's `mcs` dict each segment's
    MCS; the plan holds no reference back into the run."""

    ap: int
    runs: list[tuple[int, int, int, int]]      # (lo, hi, head, tail)
    window: tuple[int, int]                    # (cursor, sent) after the slot
    requeued: list[list[int]]                  # re-queued bursts after the slot
    packets: int                               # packets sent


@dataclass
class SlotPlan:
    members: tuple[int, ...]
    transmissions: list[ApTransmission]
    duration_us: float                       # max member airtime

    @property
    def packets(self) -> int:
        return sum(tx.packets for tx in self.transmissions)


def plan_slot(members: Sequence[int], state: SimState, airtime_us: Mapping[int, float],
              timing: TimingConfig, budget_us: float) -> SlotPlan | None:
    """Fill one coordinated slot for `members` within `budget_us`.

    The budget covers the trigger frame, guard and fixed overhead plus the
    slot itself, so each AP may pack packets up to
    budget - T_MAP-TF - Te - overhead of airtime. Draining is strict FIFO
    per AP, over its re-queued bursts and then its window (see SimState):
    the first packet that does not fit ends that AP's drain (a burst may be
    cut mid-way); bursts to stations absent from the set's per-packet
    `airtime_us` are skipped over and stay queued in order, re-queued if
    from the window. An AP's airtime is its preamble plus k * per-packet
    airtime per burst, summed in queue order. Each AP's transmission lists
    what it sends as runs and where its queue ends (see ApTransmission);
    `state` is only read, each burst once. Returns None when nothing fits
    at all.
    """
    cap_us = budget_us - timing.map_tf_us - timing.te_us - timing.slot_overhead_us
    preamble_us = timing.phy_preamble_us
    transmissions: list[ApTransmission] = []
    duration = 0.0
    requeued, cursor, ends, sent = state.requeued, state.cursor, state.ends, state.sent
    stations, txops, last = state.stations, state.txops, state.txop
    burst = state.burst_packets
    for ap in members:
        acc = preamble_us
        took = 0
        runs: list[tuple[int, int, int, int]] = []
        batches = requeued[ap]
        kept: list[list[int]] = []  # the re-queued bursts after the slot
        window = cursor[ap], sent[ap]
        # with integer n, k is min(n, int(room)): the packets that fit
        for pos, entry in enumerate(batches):
            i, n = entry
            per_packet = airtime_us.get(stations[i])
            if per_packet is None:
                kept.append(entry)
                continue
            room = (cap_us - acc) / per_packet + 1e-9
            if room < 1:
                kept += batches[pos:]
                break
            k = n if room >= n else int(room)
            acc += k * per_packet
            took += k
            runs.append((i, i + 1, k, k))
            if k < n:
                kept.append([i, n - k])
                kept += batches[pos + 1:]
                break
        else:
            start, done = window
            head = n = burst - done  # the burst at the cursor may be part-sent
            lo = start  # the open run's first burst
            end = ends[ap]
            cut = 0
            for i in range(start, end):
                if txops[i] > last:  # the window ends at the first burst to come
                    end = i
                    break
                per_packet = airtime_us.get(stations[i])
                if per_packet is None:
                    if i > lo:
                        runs.append((lo, i, head, head if i - 1 == lo else burst))
                    kept.append([i, n])
                    lo = i + 1
                    head = n = burst
                    continue
                room = (cap_us - acc) / per_packet + 1e-9
                if room < n:
                    if room >= 1:
                        cut = int(room)
                        acc += cut * per_packet
                        took += cut
                    end = i
                    break
                acc += n * per_packet
                took += n
                n = burst
            if cut:  # burst `end` stays at the cursor, less what it sent
                runs.append((lo, end + 1, head, cut))
                window = end, burst - n + cut
            else:
                if end > lo:
                    runs.append((lo, end, head, head if end - 1 == lo else burst))
                window = end, done if end == start else 0
        if runs:
            transmissions.append(ApTransmission(ap, runs, window, kept, took))
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
    """Mutable state of one run: every AP's FIFO plus delivery bookkeeping.

    AP a's list is the schedule's [ap_bounds[a], ends[a]), read through
    `stations` and `txops` (global indices); `txop` is the last TXOP whose
    bursts have arrived (-1 before the first). AP a's FIFO is `requeued[a]`,
    then its window: the bursts from `cursor[a]` on that have arrived, so
    the window ends at the first burst of a later TXOP. `deliver` sets
    cursor, `sent` and `requeued` as a slot's plan left them. Window bursts
    are bursts of `burst_packets`, read where they lie in the schedule,
    less the `sent[a]` packets a slot that cut the burst at the cursor has
    sent. `requeued[a]` holds [schedule index, count] entries, never changed
    in place: every window burst a slot skipped (its station unservable in
    the scheduled set), a part-sent one with its remainder; like window
    bursts, they read their arrival and station from the schedule.

    `counts` and `heads` are the controller's view (see the module
    docstring): per AP, the packets queued, which step_arrivals adds to and
    deliver takes from, and the arrival time of the first unsent burst of
    its list, the first re-queued one or else the one at the cursor (+inf
    once the list is spent), which only deliver moves. `queued` is the sum
    of `counts`. Both are lists on up to LIST_VIEW_MAX_APS APs and numpy
    vectors (int64, float64) on more.

    `deliver` books what it sends in two typed columns, one record per run:
    `booked_at` holds its delivery time and `booked_runs` the run itself,
    four numbers (lo, hi, head, tail; see ApTransmission). `delay_pairs`
    expands them. Plans do not refer back to the state, so a kept trace of
    them does not keep it alive.
    """

    def __init__(self, arrivals: ArrivalSchedule,
                 airtimes: Mapping[tuple[int, ...], SetLinks],
                 traffic: TrafficConfig, period_s: float):
        ap_bounds = arrivals.ap_bounds
        num_aps = len(ap_bounds) - 1
        self.cursor: list[int] = ap_bounds[:-1].tolist()
        self.ends: list[int] = ap_bounds[1:].tolist()
        self.sent: list[int] = [0] * num_aps
        self.requeued: list[list[list[int]]] = [[] for _ in range(num_aps)]
        self.txop = -1
        self.queued = 0
        self.fifo_txops = arrivals.fifo_txops
        # memoryviews index to Python ints
        self.stations = memoryview(arrivals.fifo_stations)
        self.txops = memoryview(arrivals.fifo_txops)
        self.aps = memoryview(arrivals.aps)
        self.bounds = memoryview(arrivals.bounds)
        self.burst_packets = traffic.burst_packets
        self.period_s = period_s
        self.airtimes = airtimes
        heads = [self.txops[i] * period_s if i < end else inf
                 for i, end in zip(self.cursor, self.ends)]
        self.vector_view = num_aps > LIST_VIEW_MAX_APS
        if self.vector_view:
            self.ap_ids = arrivals.aps
            self.counts: Any = np.zeros(num_aps, np.int64)
            self.heads: Any = np.array(heads, np.float64)
        else:
            self.counts = [0] * num_aps
            self.heads = heads
        self.booked_at = array("d")
        self.booked_runs = array("q")

    def deliver(self, plan: SlotPlan, delivery_time_s: float) -> None:
        """Commit `plan`: book each run at `delivery_time_s`, set each AP's
        window and re-queued bursts as the plan left them, take the packets
        sent off the counts, and move each head to the AP's first unsent
        burst."""
        at, book = self.booked_at.append, self.booked_runs.extend
        cursor, sent, ends, requeued = self.cursor, self.sent, self.ends, self.requeued
        counts, heads, txops = self.counts, self.heads, self.txops
        period = self.period_s
        taken = 0
        for tx in plan.transmissions:
            ap = tx.ap
            for run in tx.runs:
                at(delivery_time_s)
                book(run)
            counts[ap] -= tx.packets
            taken += tx.packets
            cursor[ap], sent[ap] = tx.window
            batches = requeued[ap] = tx.requeued
            if batches:
                heads[ap] = txops[batches[0][0]] * period
            else:
                start = cursor[ap]
                heads[ap] = txops[start] * period if start < ends[ap] else inf
        self.queued -= taken

    def delay_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(delay_s, packets) per burst sent from, in the order sent: the
        booked records expanded in one numpy pass. A burst's delay is its
        record's delivery time less txops[i] * period, the product its
        arrival time is made of everywhere else."""
        if not self.booked_at:
            return np.empty(0), np.empty(0, np.int64)
        lo, hi, head, tail = np.frombuffer(self.booked_runs, np.int64).reshape(-1, 4).T
        lengths = hi - lo
        ends = np.cumsum(lengths)
        starts = ends - lengths
        index = np.repeat(lo - starts, lengths)
        index += np.arange(ends[-1])  # each record's schedule indices
        counts = np.full(ends[-1], self.burst_packets, np.int64)
        counts[starts] = head
        counts[ends - 1] = tail  # after head: a one-burst run's packets
        delays = np.repeat(np.frombuffer(self.booked_at, np.float64), lengths)
        delays -= self.fifo_txops[index] * self.period_s
        return delays, counts


def run_txop(state: SimState, kind: SchedulerKind, groups: GroupSet,
             timing: TimingConfig, now_s: float) -> TxopRecord:
    """Run the coordinated TXOP starting at `now_s`.

    With empty buffers no TXOP occurs at all (zero duration) unless
    `timing.always_handshake` is set. Group selection is re-evaluated after
    every slot while packets are queued: the controller reads the run's live
    `state.counts` and `state.heads` at the slot decision instant, i.e.
    TXOP start plus everything already transmitted, so even packets that
    arrived at `now_s` have a positive waiting time. The charges come from
    `timing`.
    """
    if not state.queued and not timing.always_handshake:
        return TxopRecord(now_s, 0.0, [], 0.0)
    (handshake_us, txop_max, preamble_us, map_tf, te, overhead,
     slot_us) = timing.txop_figures
    consumed = handshake_us
    airtimes, counts, heads = state.airtimes, state.counts, state.heads
    slots: list[SlotPlan] = []
    while state.queued:
        budget = txop_max - consumed
        if budget - map_tf - te - overhead <= preamble_us:
            break  # plan_slot would refuse whatever group is selected
        members = select_group(kind, groups, counts, heads, now_s + consumed * 1e-6)
        plan = plan_slot(members, state, airtimes[members][0], timing, budget)
        if plan is None:
            break
        consumed += slot_us + plan.duration_us
        state.deliver(plan, now_s + consumed * 1e-6)
        slots.append(plan)
    return TxopRecord(now_s, handshake_us, slots, consumed)


# ---------------------------------------------------------------------------
# Whole-run driver

@dataclass
class Environment:
    """Static per-run context: the deployment, its RSSI database and the
    SR-compatible groups built from it."""

    deployment: Deployment
    rssi_dbm: np.ndarray
    groups: GroupSet


# What the runs of one deployment, (scenario, seed), share: an environment and
# an airtime table per (gamma, K) and the latest arrival schedule, keyed by the
# values they are built from, never by id() (a new object can reuse one).
# deployment -> {slot: (key, value)}; it holds one deployment at a time.
_memo: dict[Hashable, dict[Hashable, tuple[Hashable, Any]]] = {}


def _memoized(dep_key: Hashable, slot: Hashable, key: Hashable,
              build: Callable[[], Any]) -> Any:
    """The value `build()` makes for deployment `dep_key`, `slot` and `key`,
    built once and then shared. A slot keeps only its latest key, and a new
    deployment empties every slot; the stale value is dropped before `build`
    runs, so two are never alive at once."""
    slots = _memo.get(dep_key)
    if slots is None:
        _memo.clear()
        slots = _memo[dep_key] = {}
    if slot not in slots or slots[slot][0] != key:
        slots.pop(slot, None)
        slots[slot] = (key, build())
    return slots[slot][1]


def clear_memos() -> None:
    """Forget the memoized environments, airtime tables and arrival schedule."""
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
                      deployment.association, rssi, groups.member_columns, groups.sizes):
            array.flags.writeable = False
        return Environment(deployment, rssi, groups)

    env = _memoized((scenario, seed), ("environment", gamma_db, max_group_size),
                    (), build)
    return env, np.random.default_rng(traffic_ss)


def _selection_airtimes(env: Environment, config: SimulationConfig
                        ) -> dict[tuple[int, ...], SetLinks]:
    """The airtime table: the (airtime_us, mcs) pair of every AP set a
    scheduler can pick, keyed by the member tuple `select_group` returns:
    all stored groups plus every c-TDMA singleton. RSSI is static, so the
    in-group SINR (and hence MCS and airtime) never changes during a run."""
    stations_by_ap, noise_dbm = env.deployment.stations_by_ap, config.scenario.noise_dbm
    per_packet_us = config.packet_airtimes_us

    def links(members: tuple[int, ...]) -> SetLinks:
        airtime_us: dict[int, float] = {}
        mcs_of: dict[int, int] = {}
        for _, sta, sinr in group_sinr_db(members, env.rssi_dbm, stations_by_ap, noise_dbm):
            mcs = select_mcs(sinr, config.mcs_table)
            if mcs is not None:
                airtime_us[sta], mcs_of[sta] = per_packet_us[mcs], mcs
        return airtime_us, mcs_of

    singletons = tuple((ap,) for ap in range(env.deployment.num_aps))
    return {members: links(members)
            for members in dict.fromkeys(env.groups.groups + singletons)}


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
                   txop_trace: list[TxopRecord] | None = None) -> MetricsReport:
    """Simulate `config.timing.num_txops` periods and report the run metrics.

    `config` is the whole run, already checked when it was built; the same
    config gives the same report. `txop_trace`, when given, collects the
    per-TXOP records.
    """
    scenario, timing, traffic = config.scenario, config.timing, config.traffic
    mcs_table = config.mcs_table
    kind = SchedulerKind(config.scheduler)
    if config.gamma_db < mcs_table.min_sinrs[0]:
        warnings.warn(f"gamma_db {config.gamma_db:g} dB is below the lowest MCS "
                      f"threshold, {mcs_table.min_sinrs[0]:g} dB: groups may hold "
                      f"stations that no MCS can serve", UserWarning, stacklevel=2)
    dep_key, sweep = (scenario, config.seed), (config.gamma_db, config.max_group_size)
    env, traffic_rng = build_environment(scenario, *sweep, config.seed)
    airtimes = _memoized(dep_key, ("airtimes",) + sweep,
                         (mcs_table.min_sinrs, config.packet_airtimes_us),
                         lambda: _selection_airtimes(env, config))
    p = arrival_probability(traffic.load_bps_per_sta, traffic.burst_packets,
                            traffic.packet_bytes, timing.period_s)
    arrivals = _memoized(
        dep_key, "arrivals", (p, timing.num_txops),
        lambda: draw_arrivals(env.deployment, p, traffic_rng, timing.num_txops))
    state = SimState(arrivals, airtimes, traffic, timing.period_s)
    occupancy = np.empty(timing.num_txops)
    txop_max, period_s, groups = timing.txop_max_us, timing.period_s, env.groups
    for n in range(timing.num_txops):
        step_arrivals(state, n)
        record = run_txop(state, kind, groups, timing, n * period_s)
        occupancy[n] = record.total_duration_us / txop_max
        if txop_trace is not None:
            txop_trace.append(record)

    values, counts = state.delay_pairs()
    delivered = int(counts.sum())
    if delivered:
        delays_sorted = np.repeat(values, counts)
        del values, counts
        mean_delay = float(delays_sorted.mean())  # in the order sent, before the sort
        delays_sorted.sort()
    else:
        delays_sorted = np.empty(0)
        mean_delay = float("nan")
    sim_time_s = timing.num_txops * timing.period_s
    return MetricsReport(
        throughput_bps=delivered * traffic.packet_bits / sim_time_s,
        mean_delay_s=mean_delay,
        delays_sorted_s=delays_sorted,
        per_txop_occupancy=occupancy,
        packets_arrived=traffic.burst_packets * len(arrivals.aps),
        packets_delivered=delivered,
        packets_remaining=state.queued,
    )
