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
lists), and adding it only adds its packets to the queued total and, in a
run that keeps counts, to its AP's count. A burst cut at the budget stays
at the head of the window, less the packets it has sent.

Inside a slot every member AP drains its FIFO oldest packet first. Packets
to the same station are aggregated into one A-MPDU segment sent at the MCS
the station's in-group SINR allows, so an AP's airtime is one PHY preamble
plus the sum of its segment times. The slot lasts as long as the busiest
member; APs that finish early idle. The gap between the TXOP cap and the
next period carries no simulated traffic (it is left to uncoordinated use).
The environment's airtime table holds each AP set's per-packet airtime per
station it serves, one dict keyed by station (the airtime names the MCS).
`plan_slot` reads each burst once, skips bursts to a station absent from
the set's dict, changes nothing, and records what each AP sends as runs
(lo, hi, head, tail): the schedule's bursts [lo, hi) with the packets of
the first and last burst. A re-queued burst is a run of one, a window drain
one run per stretch between skipped bursts. It also records where the AP's
queue ends: its window (cursor, sent) and its re-queued bursts. A plan
holds only that, which `deliver` commits: it books each run whole, with its
delivery time, and sets the queue, and the run expands the records into
per-burst (delay, packets) pairs in one numpy pass after its last TXOP,
empty ones if it booked nothing. Every skipped burst is re-queued as
[schedule index, count], so every burst reads its arrival and station from
the schedule. A plan's per-burst list, its A-MPDU segments and each AP's
airtime follow from its runs, the schedule and the set's dict; no run needs
them, so the engine does not derive them.

The controller's view of the buffers is kept incrementally, so no slot or
TXOP rebuilds it by walking all APs: per AP, the packets queued, which
arrivals add and deliveries take off, and the head, the arrival time of the
first unsent burst of the AP's list, arrived or not (+inf once the list is
spent), which only deliveries move. A run keeps only the half its
scheduler reads: a NumPk run the counts, an OldPk run the heads. Every run
keeps `queued`, the packets queued in all. A queued head is at most the
TXOP start, and a burst still to come arrives a period after it, later than
any decision instant (the TXOP cap is below the period), so the AP with the
oldest head is the first minimum of the heads whenever an AP has packets.
`run_txop` picks among the groups of the run's `Environment` only while
packets are queued, and `select_group` reads the run's live view, lists on
small grids and numpy vectors on large ones, and the slot decision instant;
`run_txop` works out each slot's room once, and `plan_slot` fills it.

Runs of one deployment share its environments, one per (gamma, K), each
the deployment, groups and airtime table, and the arrival schedule of each
load: the traffic stream depends on the seed alone, so the six schedulers,
every gamma and every K of a (deployment, load) queue the same bursts. The
memo has these two slots, holds one deployment at a time, keyed by the
values it was built from, and `run_campaign` clears it. The memoized arrays
are read-only.
"""

from __future__ import annotations

import warnings
from array import array
from dataclasses import dataclass
from math import inf
from typing import Any, Callable, Hashable, Mapping, Sequence

import numpy as np

from .channel import build_rssi_matrix, group_sinr_db, select_mcs
from .config import (SimulationConfig, TimingConfig, TrafficConfig,
                     arrival_probability)
from .grouping import GroupSet, build_all_groups
from .scenario import Deployment, generate_grid_deployment
from .scheduling import SchedulerKind, select_group
from .stats import nearest_rank

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
    1.8 MB at the 2 Mbps/STA of p = 1/12, and 21.6 MB at p = 1. Drawing it
    briefly takes more: the int64 index of one stable sort by AP, 8 B per
    arrival, beside TXOP-major copies of the ids (see draw_arrivals)."""

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
    `rng.random(num_stations)` call per TXOP would. One stable argsort of the
    arrivals' AP ids then builds every AP's list; it needs an int64 index
    (8 B per arrival) beside the TXOP-major copies of the ids, so the traced
    peak of a 10^4-TXOP 12x12 draw is 6.2 MB at 2 Mbps/STA and 74 MB at
    p = 1. Raises unless 0 <= `arrival_prob` <= 1.
    """
    if not 0.0 <= arrival_prob <= 1.0:  # also rejects NaN
        raise ValueError(f"arrival_prob must lie in [0, 1], got {arrival_prob!r}")
    num_stations, num_aps = deployment.num_stations, deployment.num_aps
    sta_type = np.min_scalar_type(num_stations)
    txop_type = np.min_scalar_type(max(num_txops - 1, 0))
    block = max(1, ARRIVAL_BLOCK_DOUBLES // max(num_stations, 1))
    stations, txops = [np.empty(0, sta_type)], [np.empty(0, txop_type)]
    for start in range(0, num_txops, block):
        rows = min(block, num_txops - start)
        txop, sta = np.nonzero(rng.random((rows, num_stations)) < arrival_prob)
        stations.append(sta.astype(sta_type))
        txops.append((txop + start).astype(txop_type))
    sta, txop = np.concatenate(stations), np.concatenate(txops)
    del stations, txops  # the blocks, before the lookup's and the sort's transients
    aps = deployment.association.astype(np.min_scalar_type(num_aps))[sta]
    bounds = np.zeros(num_txops + 1, dtype=np.int64)
    np.cumsum(np.bincount(txop, minlength=num_txops), out=bounds[1:])
    ap_bounds = np.zeros(num_aps + 1, dtype=np.int64)
    np.cumsum(np.bincount(aps, minlength=num_aps), out=ap_bounds[1:])
    by_ap = np.argsort(aps, kind="stable")  # keeps each AP's (TXOP, station) order
    schedule = ArrivalSchedule(aps, bounds, sta[by_ap], txop[by_ap], ap_bounds)
    for array in (schedule.aps, schedule.bounds, schedule.fifo_stations,
                  schedule.fifo_txops, schedule.ap_bounds):
        array.flags.writeable = False
    return schedule


def step_arrivals(state: SimState, n: int) -> int:
    """Let TXOP `n`'s bursts of the run's schedule arrive at its start: the
    queued total grows by one burst per arriving station, and so does its
    AP's count when the run keeps counts; TXOP `n` becomes the last one
    whose bursts have arrived. Heads stay as they are (see SimState).
    Returns packets added."""
    bounds = state.bounds
    lo, hi = bounds[n], bounds[n + 1]
    burst, counts = state.burst_packets, state.counts
    state.txop = n
    if counts is not None:  # an OldPk run keeps none
        if state.vector_view:
            np.add.at(counts, state.ap_ids[lo:hi], burst)
        else:
            for ap in state.aps[lo:hi]:
                counts[ap] += burst
    added = burst * (hi - lo)
    state.queued += added
    return added


@dataclass(slots=True)
class SlotPlan:
    """One coordinated slot as `plan_slot` plans it and `deliver` commits it.
    `transmissions` holds, in member order, one tuple (ap, runs, window,
    requeued, packets) per member AP that sends, and nothing else. `runs`
    lists what the AP sends in queue order as (lo, hi, head, tail): the
    schedule's bursts [lo, hi), `head` packets sent of the first and `tail`
    of the last (of the only one, in a run of one), the bursts between
    whole. A re-queued burst sent from is a run of one, and the window drain
    one run per stretch between skipped bursts (their station unservable in
    the scheduled set). `window` (cursor, sent) and `requeued` are the AP's
    queue as it stands after the slot (see SimState), and `packets` what it
    sends in all. The schedule gives each burst's arrival and station, and
    the set's airtime dict each segment's per-packet airtime, hence its
    MCS; the plan holds no reference back into the run."""

    members: tuple[int, ...]
    transmissions: list[tuple[int, list[tuple[int, int, int, int]], tuple[int, int],
                              list[list[int]], int]]
    duration_us: float                       # max member airtime

    @property
    def packets(self) -> int:
        return sum(tx[4] for tx in self.transmissions)


def plan_slot(members: Sequence[int], state: SimState, airtime_us: Mapping[int, float],
              preamble_us: float, room_us: float) -> SlotPlan | None:
    """Fill one coordinated slot for `members` within `room_us`.

    The room is what the TXOP leaves the slot once its MAP-TF, Te and
    overhead are charged (see run_txop): each AP may pack that much airtime,
    its `preamble_us` PHY preamble included. Draining is strict FIFO per AP,
    over its re-queued bursts and then its window (see SimState): the first
    packet that does not fit ends that AP's drain (a burst may be cut
    mid-way); bursts to stations absent from the set's per-packet
    `airtime_us` are skipped over and stay queued in order, re-queued if
    from the window. An AP's airtime is its preamble plus k * per-packet
    airtime per burst, summed in queue order. Each AP's transmission lists
    what it sends as runs and where its queue ends (see SlotPlan); `state`
    is only read, each burst once. Returns None when nothing fits at all.
    """
    transmissions = []
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
        # with integer n, k is min(n, int(fit)): the packets that fit
        for pos, entry in enumerate(batches) if batches else ():  # mostly empty
            i, n = entry
            per_packet = airtime_us.get(stations[i])
            if per_packet is None:
                kept.append(entry)
                continue
            fit = (room_us - acc) / per_packet + 1e-9
            if fit < 1:
                kept += batches[pos:]
                break
            k = n if fit >= n else int(fit)
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
                fit = (room_us - acc) / per_packet + 1e-9
                if fit < n:
                    if fit >= 1:
                        cut = int(fit)
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
            transmissions.append((ap, runs, window, kept, took))
            if acc > duration:
                duration = acc
    if not transmissions:
        return None
    return SlotPlan(tuple(members), transmissions, duration)


@dataclass(slots=True)
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
    once the list is spent), which only deliver moves. Both are lists on up
    to LIST_VIEW_MAX_APS APs and numpy vectors (int64, float64) on more. A
    state keeps only the half its scheduler `kind` reads and sets the other
    to None: `counts` for NumPk kinds, `heads` for OldPk kinds. `queued`,
    the packets queued in all (the sum of the counts), is kept either way.

    `deliver` books what it sends in two typed columns, one record per run:
    `booked_at` holds its delivery time and `booked_runs` the run itself,
    four numbers (lo, hi, head, tail; see SlotPlan). `delay_pairs`
    expands them. Plans do not refer back to the state, so a kept trace of
    them does not keep it alive. The groups and airtime table a run plans
    over are its Environment's, which run_txop reads.
    """

    def __init__(self, arrivals: ArrivalSchedule, traffic: TrafficConfig,
                 period_s: float, kind: SchedulerKind):
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
        self.vector_view = vector = num_aps > LIST_VIEW_MAX_APS
        self.ap_ids = arrivals.aps
        self.counts: Any = None
        self.heads: Any = None
        if kind.scores_waits:
            heads = [self.txops[i] * period_s if i < end else inf
                     for i, end in zip(self.cursor, self.ends)]
            self.heads = np.array(heads, np.float64) if vector else heads
        else:
            self.counts = np.zeros(num_aps, np.int64) if vector else [0] * num_aps
        self.booked_at, self.booked_runs = array("d"), array("q")
        self.book_at, self.book_run = self.booked_at.append, self.booked_runs.extend

    def deliver(self, plan: SlotPlan, delivery_time_s: float) -> None:
        """Commit `plan`: book each run at `delivery_time_s`, set each AP's
        window and re-queued bursts as the plan left them, take the packets
        sent off the queued total and the counts, and move each head to the
        AP's first unsent burst; a run without counts or heads skips them."""
        at, book = self.book_at, self.book_run
        cursor, sent, ends, requeued = self.cursor, self.sent, self.ends, self.requeued
        counts, heads, txops = self.counts, self.heads, self.txops
        period = self.period_s
        taken = 0
        for ap, runs, window, batches, packets in plan.transmissions:
            for run in runs:
                at(delivery_time_s)
                book(run)
            if counts is not None:
                counts[ap] -= packets
            taken += packets
            cursor[ap], sent[ap] = window
            requeued[ap] = batches
            if heads is None:
                continue
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
        arrival time is made of everywhere else. A run that booked nothing
        gets empty ones, float64 delays and int64 packets."""
        lo, hi, head, tail = np.frombuffer(self.booked_runs, np.int64).reshape(-1, 4).T
        lengths = hi - lo
        ends = np.cumsum(lengths)
        starts = ends - lengths
        index = np.repeat(lo - starts, lengths)
        index += np.arange(len(index))  # each record's schedule indices
        counts = np.full(len(index), self.burst_packets, np.int64)
        counts[starts] = head
        counts[ends - 1] = tail  # after head: a one-burst run's packets
        delays = np.repeat(np.frombuffer(self.booked_at, np.float64), lengths)
        delays -= self.fifo_txops[index] * self.period_s
        return delays, counts


def run_txop(state: SimState, kind: SchedulerKind, env: Environment,
             timing: TimingConfig, now_s: float) -> TxopRecord:
    """Run the coordinated TXOP starting at `now_s` over `env`.

    With empty buffers no TXOP occurs at all (zero duration) unless
    `timing.always_handshake` is set. Group selection is re-evaluated after
    every slot while packets are queued: the controller picks among
    `env.groups` from the run's live `state.counts` or `state.heads` at the
    slot decision instant (TXOP start plus all already sent, so packets that
    arrived at `now_s` wait a positive time), and `plan_slot` fills the slot
    from the set's dict in `env.airtimes` within its room: the TXOP cap less
    all consumed and the slot's MAP-TF, Te and overhead, from `timing`.
    """
    if not state.queued and not timing.always_handshake:
        return TxopRecord(now_s, 0.0, [], 0.0)
    (handshake_us, txop_max, preamble_us, map_tf, te, overhead,
     slot_us) = timing.txop_figures
    consumed = handshake_us
    groups, airtimes, counts, heads = env.groups, env.airtimes, state.counts, state.heads
    slots: list[SlotPlan] = []
    while state.queued:
        room = txop_max - consumed - map_tf - te - overhead
        if room <= preamble_us:
            break  # plan_slot would refuse whatever group is selected
        members = select_group(kind, groups, counts, heads, now_s + consumed * 1e-6)
        plan = plan_slot(members, state, airtimes[members], preamble_us, room)
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
    """What the runs of one (deployment, gamma, K) read: the deployment, its
    SR-compatible groups and the airtime table, which maps each member tuple
    `select_group` can return (every stored group and every singleton) to
    {station: per-packet airtime in us} of each station a member serves at a
    usable MCS while the set transmits; other stations are unservable in it."""

    deployment: Deployment
    groups: GroupSet
    airtimes: dict[tuple[int, ...], dict[int, float]]


# What the runs of one deployment, (scenario, seed), share: an environment per
# (gamma, K) and the latest arrival schedule, keyed by the values they are
# built from, never by id() (a new object can reuse one).
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
    """Forget the memoized environments and arrival schedule."""
    _memo.clear()


def build_environment(config: SimulationConfig) -> Environment:
    """The environment of `config`'s (scenario, seed, gamma, K).

    The deployment draws from the first child of the seed's `SeedSequence`,
    the arrivals from the second (see run_simulation), so runs with the same
    seed share the deployment whatever traffic they draw. The RSSI matrix
    lives only while the groups and the table are built. The environment is
    memoized per (gamma, K), keyed by the MCS thresholds and per-MCS packet
    airtimes of its table, and shared, so its arrays are read-only.
    """
    scenario, noise_dbm = config.scenario, config.scenario.noise_dbm

    def build() -> Environment:
        deploy_ss, _ = np.random.SeedSequence(config.seed).spawn(2)
        deployment = generate_grid_deployment(scenario, np.random.default_rng(deploy_ss))
        rssi = build_rssi_matrix(deployment, scenario)
        groups = build_all_groups(rssi, deployment, noise_dbm, config.gamma_db,
                                  config.max_group_size)
        for array in (deployment.ap_positions, deployment.station_positions,
                      deployment.association, groups.member_columns, groups.sizes):
            array.flags.writeable = False
        per_packet_us, stations_by_ap = config.packet_airtimes_us, deployment.stations_by_ap
        airtimes: dict[tuple[int, ...], dict[int, float]] = {}
        singletons = tuple((ap,) for ap in range(deployment.num_aps))
        for members in dict.fromkeys(groups.groups + singletons):
            links = airtimes[members] = {}
            for _, sta, sinr in group_sinr_db(members, rssi, stations_by_ap, noise_dbm):
                mcs = select_mcs(sinr, config.mcs_table)
                if mcs is not None:
                    links[sta] = per_packet_us[mcs]
        return Environment(deployment, groups, airtimes)

    return _memoized((scenario, config.seed),
                     ("environment", config.gamma_db, config.max_group_size),
                     (config.mcs_table.min_sinrs, config.packet_airtimes_us), build)


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
    env = build_environment(config)
    p = arrival_probability(traffic.load_bps_per_sta, traffic.burst_packets,
                            traffic.packet_bytes, timing.period_s)
    _, traffic_ss = np.random.SeedSequence(config.seed).spawn(2)
    arrivals = _memoized(
        (scenario, config.seed), "arrivals", (p, timing.num_txops),
        lambda: draw_arrivals(env.deployment, p, np.random.default_rng(traffic_ss),
                              timing.num_txops))
    state = SimState(arrivals, traffic, timing.period_s, kind)
    occupancy = np.empty(timing.num_txops)
    txop_max, period_s = timing.txop_max_us, timing.period_s
    for n in range(timing.num_txops):
        step_arrivals(state, n)
        record = run_txop(state, kind, env, timing, n * period_s)
        occupancy[n] = record.total_duration_us / txop_max
        if txop_trace is not None:
            txop_trace.append(record)

    delays_sorted = np.repeat(*state.delay_pairs())  # one delay per packet
    delivered = len(delays_sorted)
    # in the order sent, before the sort; an empty mean would warn
    mean_delay = float(delays_sorted.mean()) if delivered else float("nan")
    delays_sorted.sort()
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
