import gc
import math
import tracemalloc
import warnings
import weakref
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapcsim import (ArrivalSchedule, Deployment, McsTable, ScenarioConfig,
                     SchedulerKind, SimulationConfig, TimingConfig,
                     TrafficConfig, arrival_probability, build_environment,
                     build_rssi_matrix, data_rate_bps, default_mcs_table,
                     draw_arrivals, engine, generate_grid_deployment,
                     plan_slot, run_simulation, select_mcs, station_sinr_db,
                     step_arrivals)
from mapcsim.engine import SimState, run_txop
import views
from oracles import nearest_rank_reference

TIM = TimingConfig()
PRE = TIM.phy_preamble_us
NUMPK = SchedulerKind.NUMPK_SINGLE  # a kind for states whose tests read the counts
MCS7_RATE = data_rate_bps(7, default_mcs_table(), TIM)
PKT_US_MCS7 = 12000 / MCS7_RATE * 1e6  # ~139.49 us per 1500 B packet


def test_arrival_probability_values():
    assert arrival_probability(1e6, 10, 1500, 0.005) == pytest.approx(1 / 24)
    assert arrival_probability(6e6, 10, 1500, 0.005) == pytest.approx(0.25)
    assert arrival_probability(24e6, 10, 1500, 0.005) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        arrival_probability(24.1e6, 10, 1500, 0.005)
    with pytest.raises(ValueError):
        arrival_probability(1e6, 0, 1500, 0.005)


@pytest.mark.parametrize("args", [
    (math.nan, 10, 1500, 0.005), (math.inf, 10, 1500, 0.005), (-1.0, 10, 1500, 0.005),
    (1e6, 10, 1500, math.nan), (1e6, 10, 1500, math.inf), (1e6, 10, 1500, 0.0),
    (1e6, 2.5, 1500, 0.005), (1e6, True, 1500, 0.005), (1e6, 10.0, 1500, 0.005),
    (1e6, 10, 1500.0, 0.005), (1e6, 10, False, 0.005), (1e6, 10, 0, 0.005),
], ids=["nan-load", "inf-load", "negative-load", "nan-period", "inf-period",
        "zero-period", "fractional-burst", "bool-burst", "float-burst",
        "float-packet", "bool-packet", "zero-packet"])
def test_arrival_probability_rejects_bad_input(args):
    with pytest.raises(ValueError):
        arrival_probability(*args)


@pytest.mark.parametrize("p", [math.nan, -0.01, 1.01, math.inf])
def test_draw_arrivals_rejects_a_probability_outside_0_1(p):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="arrival_prob must lie in"):
        draw_arrivals(_deployment(), p, rng, 5)
    assert rng.bit_generator.state == state  # rejected before any draw


def _deployment(seed=0, **cfg_kwargs):
    cfg = ScenarioConfig(**cfg_kwargs)
    return generate_grid_deployment(cfg, np.random.default_rng(seed))


def test_step_arrivals_p0_and_p1():
    dep = _deployment()
    traffic = TrafficConfig()
    rng = np.random.default_rng(1)
    state = SimState(draw_arrivals(dep, 0.0, rng, 1), traffic, TIM.period_s, NUMPK)
    assert step_arrivals(state, 0) == 0
    assert all(count == 0 for count in state.counts)
    state = SimState(draw_arrivals(dep, 1.0, rng, 1), traffic, TIM.period_s, NUMPK)
    added = step_arrivals(state, 0)
    assert added == 27 * 10
    assert sum(state.counts) == 270
    for ap in range(dep.num_aps):
        assert all(batch[0] == 0.0 for batch in views.bursts(state, ap))
    # per-AP split: 3 stations x 10 packets each
    assert state.counts == [30] * 9


def test_step_arrivals_empirical_frequency():
    dep = _deployment()
    traffic = TrafficConfig()
    rng = np.random.default_rng(7)
    periods = 20_000
    state = SimState(draw_arrivals(dep, 0.25, rng, periods), traffic, TIM.period_s, NUMPK)
    total = 0
    for n in range(periods):
        total += step_arrivals(state, n)
    freq = total / (periods * dep.num_stations * traffic.burst_packets)
    assert freq == pytest.approx(0.25, rel=0.01)


def _one_ap_airtimes(per_pkt_us=PKT_US_MCS7, mcs=7, stations=(0,)):
    return {0: {sta: (mcs, per_pkt_us) for sta in stations}}


def _links(per_ap):
    """One AP set's (airtime_us, mcs) pair of station-keyed dicts, from
    per-AP {station: (mcs, airtime_us) or None} literals; a station mapped
    to None is left out, as unservable. `plan_slot` reads the first, and
    `views.segments` takes the second as the MCS labels."""
    airtime_us, mcs = {}, {}
    for rates in per_ap.values():
        for sta, rate in rates.items():
            if rate is not None:
                mcs[sta], airtime_us[sta] = rate
    return airtime_us, mcs


def _hand_schedule(*lists):
    """An arrival schedule whose AP a lists the (arrival_s, station) bursts
    lists[a] in order. Each arrival is a whole number of periods, as in a
    drawn schedule; only the per-AP lists are filled."""
    bursts = [burst for bursts in lists for burst in bursts]
    txops = [round(arrival / TIM.period_s) for arrival, _ in bursts]
    assert [n * TIM.period_s for n in txops] == [arrival for arrival, _ in bursts]
    return ArrivalSchedule(np.empty(0, np.uint8), np.zeros(1, np.int64),
                           np.array([sta for _, sta in bursts], np.int64),
                           np.array(txops, np.int64),
                           np.cumsum([0] + [len(bursts) for bursts in lists]))


def _queued_state(*queues):
    """A NumPk run's state in which AP a holds the hand-made (arrival_s,
    station, count) bursts queues[a], oldest first, as re-queued bursts laid
    out in a hand-built schedule, with an empty window after them."""
    schedule = _hand_schedule(*([(arrival, sta) for arrival, sta, _ in queue]
                                for queue in queues))
    state = SimState(schedule, TrafficConfig(), TIM.period_s, NUMPK)
    for ap, queue in enumerate(queues):
        lo, hi = schedule.ap_bounds[ap:ap + 2].tolist()
        state.cursor[ap] = hi
        state.requeued[ap] = [[lo + j, count] for j, (_, _, count) in enumerate(queue)]
        state.counts[ap] = sum(count for _, _, count in queue)
    state.queued = sum(state.counts)
    return state


def test_plan_slot_five_packet_ampdu():
    state = _queued_state([(0.0, 0, 5)])
    airtime_us, mcs = _links(_one_ap_airtimes())
    plan = plan_slot((0,), state, airtime_us, PRE, room_us=3000.0)
    assert plan is not None
    assert plan.duration_us == pytest.approx(44 + 5 * PKT_US_MCS7, abs=0.1)
    assert plan.duration_us == pytest.approx(741.4, abs=0.1)
    (tx,) = plan.transmissions
    assert views.segments(tx, state, mcs) == [(0, 7, 5)]
    assert views.taken(tx, state) == [(5, 0.0, 0)]  # (count, arrival_s, station)


def test_plan_slot_nothing_fits():
    state = _queued_state([(0.0, 0, 5)])
    mcs0_rate = data_rate_bps(0, default_mcs_table(), TIM)
    per = 12000 / mcs0_rate * 1e6  # ~1395 us
    plan = plan_slot((0,), state, _links(_one_ap_airtimes(per, mcs=0))[0], PRE,
                     room_us=200.0)
    assert plan is None
    assert state.counts[0] == 5  # untouched


def test_plan_slot_duration_is_max_over_members():
    state = _queued_state([(0.0, 0, 3)], [(0.0, 1, 1)])
    airtimes = {0: {0: (7, PKT_US_MCS7)}, 1: {1: (7, PKT_US_MCS7)}}
    airtime_us, _ = _links(airtimes)
    plan = plan_slot((0, 1), state, airtime_us, PRE, room_us=3000.0)
    assert plan.duration_us == pytest.approx(44 + 3 * PKT_US_MCS7, abs=1e-6)
    ap_airtime = {tx[0]: views.airtime_us(tx, state, airtime_us, TIM)
                  for tx in plan.transmissions}
    assert ap_airtime[0] > ap_airtime[1]  # AP1 idles after 1 packet


def test_plan_slot_splits_burst_at_budget():
    state = _queued_state([(0.0, 0, 10)])
    room = 44 + 7.5 * PKT_US_MCS7
    plan = plan_slot((0,), state, _links(_one_ap_airtimes())[0], PRE, room_us=room)
    (tx,) = plan.transmissions
    assert views.taken(tx, state) == [(7, 0.0, 0)]
    state.deliver(plan, 0.0)
    assert state.counts[0] == 3
    assert views.bursts(state, 0) == [[0.0, 0, 3]]  # remainder keeps its arrival time


def test_plan_slot_skips_unservable_station():
    # station 0 is below MCS 0 in this selection
    state = _queued_state([(0.0, 0, 2), (1.0, 1, 2)])
    airtime_us, mcs = _links({0: {0: None, 1: (7, PKT_US_MCS7)}})
    plan = plan_slot((0,), state, airtime_us, PRE, room_us=3000.0)
    (tx,) = plan.transmissions
    assert views.segments(tx, state, mcs) == [(1, 7, 2)]
    assert views.taken(tx, state) == [(2, 1.0, 1)]
    state.deliver(plan, 0.0)
    # the unservable burst stays buffered, still first in line
    assert state.counts[0] == 2
    assert views.bursts(state, 0) == [[0.0, 0, 2]]


def test_plan_slot_strict_fifo_stops_at_first_misfit():
    state = _queued_state([(0.0, 0, 3), (1.0, 1, 1)])
    # station 1 is fast, but the head burst's station fits only 2 packets
    slow = PKT_US_MCS7 * 4
    room = 44 + 2.2 * slow
    airtimes = {0: {0: (3, slow), 1: (10, 1.0)}}
    plan = plan_slot((0,), state, _links(airtimes)[0], PRE, room_us=room)
    (tx,) = plan.transmissions
    assert views.taken(tx, state) == [(2, 0.0, 0)]  # burst cut mid-way, later burst untouched


def test_segments_merge_a_station_across_bursts():
    # station 0's two bursts are split by station 1's: one segment each,
    # in order of first appearance
    state = _queued_state([(0.0, 0, 2), (0.5, 1, 3), (1.0, 0, 4)])
    airtime_us, mcs = _links({0: {0: (7, PKT_US_MCS7), 1: (5, 2 * PKT_US_MCS7)}})
    (tx,) = plan_slot((0,), state, airtime_us, PRE, room_us=3000.0).transmissions
    assert [sta for _, _, sta in views.taken(tx, state)] == [0, 1, 0]
    assert views.segments(tx, state, mcs) == [(0, 7, 6), (1, 5, 3)]


def _room_for(packets):
    """Slot room that fits `packets` MCS-7 packets and half of one more."""
    return 44 + (packets + 0.5) * PKT_US_MCS7


def test_ap_buffer_consume_across_batches():
    bursts = [(0.0, 0, 4), (0.5, 1, 2), (1.0, 0, 3)]
    state = _queued_state(bursts)
    airtimes = _one_ap_airtimes(stations=(0, 1))
    plan = plan_slot((0,), state, _links(airtimes)[0], PRE, _room_for(7))
    (tx,) = plan.transmissions
    assert views.taken(tx, state) == [(4, 0.0, 0), (2, 0.5, 1), (1, 1.0, 0)]
    state.deliver(plan, 0.0)
    assert state.counts[0] == 2
    assert views.bursts(state, 0) == [[1.0, 0, 2]]

    # a skipped middle burst stays ahead of the split remainder
    state = _queued_state(bursts)
    airtimes[0][1] = None
    plan = plan_slot((0,), state, _links(airtimes)[0], PRE, _room_for(5))
    (tx,) = plan.transmissions
    assert views.taken(tx, state) == [(4, 0.0, 0), (1, 1.0, 0)]
    state.deliver(plan, 0.0)
    assert state.counts[0] == 4
    assert views.bursts(state, 0) == [[0.5, 1, 2], [1.0, 0, 2]]


def _twin_states(schedule, traffic=TrafficConfig()):
    """Two states over `schedule`, one per half of the controller view: a
    NumPk run's, which keeps the counts, and an OldPk run's, which keeps the
    heads. A test plans from the first and commits each plan to both."""
    return tuple(SimState(schedule, traffic, TIM.period_s, kind)
                 for kind in (NUMPK, SchedulerKind.OLDPK_SINGLE))


def _view(states, ap):
    """AP `ap`'s (count, head), each from the twin state that keeps it."""
    counts_state, heads_state = states
    return counts_state.counts[ap], heads_state.heads[ap]


def _deliver(states, plan, delivery_time_s):
    for state in states:
        state.deliver(plan, delivery_time_s)


def _window_states(num_stations, num_txops):
    """Twin states with one AP whose `num_stations` stations each get a
    10-packet burst in every one of `num_txops` TXOPs, all arrived."""
    dep = Deployment(np.zeros((1, 2)), np.zeros((num_stations, 2)),
                     [0] * num_stations, 0)
    states = _twin_states(draw_arrivals(dep, 1.0, np.random.default_rng(0), num_txops))
    for state in states:
        for n in range(num_txops):
            step_arrivals(state, n)
    return states


def _plan_and_deliver(states, airtimes, room):
    plan = plan_slot((0,), states[0], _links(airtimes)[0], PRE, room)
    _deliver(states, plan, 0.0)
    (tx,) = plan.transmissions
    return views.taken(tx, states[0])


def test_split_window_burst_stays_at_cursor_until_sent():
    states = _window_states(num_stations=2, num_txops=1)
    state = states[0]
    airtimes = _one_ap_airtimes(stations=(0, 1))
    assert _plan_and_deliver(states, airtimes, _room_for(7)) == [(7, 0.0, 0)]
    # the cut burst stays in the window, its 7 sent packets counted aside
    assert (state.cursor[0], state.sent[0], state.requeued[0]) == (0, 7, [])
    assert views.bursts(state, 0) == [[0.0, 0, 3], [0.0, 1, 10]]
    assert _view(states, 0) == (13, 0.0)
    # the next slot takes the remainder, then the next burst
    assert _plan_and_deliver(states, airtimes, 3000.0) == [(3, 0.0, 0),
                                                           (10, 0.0, 1)]
    assert (state.cursor[0], state.sent[0], state.requeued[0]) == (2, 0, [])
    assert views.bursts(state, 0) == []
    assert _view(states, 0) == (0, math.inf)


def test_skipped_split_burst_is_requeued_with_its_remainder():
    states = _window_states(num_stations=2, num_txops=2)
    state = states[0]
    period = TIM.period_s
    airtimes = _one_ap_airtimes(stations=(0, 1))
    assert _plan_and_deliver(states, airtimes, _room_for(7)) == [(7, 0.0, 0)]
    # station 0 is unservable in the next slot, so its part-sent burst is
    # skipped; the room ends the drain after station 1's first burst, and
    # station 0's next burst, skipped after it, is re-queued too
    airtimes[0][0] = None
    assert _plan_and_deliver(states, airtimes, _room_for(10)) == [(10, 0.0, 1)]
    assert state.requeued[0] == [[0, 3], [2, 10]]  # schedule index, count
    assert (state.cursor[0], state.sent[0]) == (3, 0)
    assert views.bursts(state, 0) == [[0.0, 0, 3], [period, 0, 10], [period, 1, 10]]
    assert _view(states, 0) == (23, 0.0)
    # re-queued bursts drain first; the remainder keeps its arrival time
    airtimes[0][0] = (7, PKT_US_MCS7)
    assert _plan_and_deliver(states, airtimes, _room_for(13)) == [
        (3, 0.0, 0), (10, period, 0)]
    assert views.bursts(state, 0) == [[period, 1, 10]]
    assert _view(states, 0) == (10, period)


def _pairs(state):
    values, counts = state.delay_pairs()
    return list(zip(values.tolist(), counts.tolist()))


def test_span_with_skipped_bursts_books_the_runs_between_them():
    # window: (TXOP 0: stations 0, 1, 2), (TXOP 1: 0, 1, 2), both arrived;
    # a hand-made re-queued burst to station 2, laid out after them in the
    # schedule (in the next AP's list), goes first; station 1 is unservable
    period = TIM.period_s
    window = [(n * period, sta) for n in range(2) for sta in range(3)]
    states = _twin_states(_hand_schedule(window, [(0.0, 2)]))
    state = states[0]
    for twin in states:
        twin.txop = 1
        twin.requeued[0] = [[6, 4]]
    state.counts[0] = 64
    states[1].heads[0] = 0.0
    airtimes = _one_ap_airtimes(stations=(0, 1, 2))
    airtimes[0][1] = None
    plan = plan_slot((0,), state, _links(airtimes)[0], PRE, _room_for(37))
    (tx,) = plan.transmissions
    ap, runs, window, requeued, packets = tx
    assert ap == 0
    # (lo, hi, head, tail) per run: the re-queued burst, then the window's
    # stretches around skipped bursts 1 and 4; the room cuts burst 5
    # after 3 packets
    assert runs == [(6, 7, 4, 4), (0, 1, 10, 10), (2, 4, 10, 10), (5, 6, 10, 3)]
    # where the queue ends: (cursor, sent), then the re-queued bursts
    assert (window, requeued) == ((5, 3), [[1, 10], [4, 10]])
    assert packets == plan.packets == 37
    assert views.taken(tx, state) == [(4, 0.0, 2), (10, 0.0, 0), (10, 0.0, 2),
                                      (10, period, 0), (3, period, 2)]
    _deliver(states, plan, 0.02)
    assert _pairs(state) == [(0.02, 4), (0.02, 10), (0.02, 10),
                             (0.02 - period, 10), (0.02 - period, 3)]
    # the skipped bursts are re-queued in order, the cut one stays at the cursor
    assert state.requeued[0] == [[1, 10], [4, 10]]
    assert (state.cursor[0], state.sent[0]) == (5, 3)
    assert views.bursts(state, 0) == [[0.0, 1, 10], [period, 1, 10], [period, 2, 7]]
    assert _view(states, 0) == (27, 0.0)


def test_skipped_part_sent_burst_and_trailing_skips_are_booked_in_order():
    states = _window_states(num_stations=2, num_txops=2)
    state = states[0]
    period = TIM.period_s
    airtimes = _one_ap_airtimes(stations=(0, 1))
    plan = plan_slot((0,), state, _links(airtimes)[0], PRE, _room_for(7))
    ((_, runs, _, _, _),) = plan.transmissions
    assert runs == [(0, 1, 10, 7)]
    _deliver(states, plan, 0.001)
    # station 0 unservable: its part-sent burst 0 and burst 2 are skipped
    airtimes[0][0] = None
    plan = plan_slot((0,), state, _links(airtimes)[0], PRE, _room_for(15))
    ((_, runs, window, _, _),) = plan.transmissions
    assert (runs, window) == ([(1, 2, 10, 10), (3, 4, 10, 5)], (3, 5))
    _deliver(states, plan, 0.002)
    assert state.requeued[0] == [[0, 3], [2, 10]]
    assert (state.cursor[0], state.sent[0]) == (3, 5)
    # station 1 unservable: the re-queued bursts go, and the window's one
    # burst, part-sent and skipped after them, is re-queued with its remainder
    airtimes[0][0], airtimes[0][1] = (7, PKT_US_MCS7), None
    plan = plan_slot((0,), state, _links(airtimes)[0], PRE, 3000.0)
    ((_, runs, window, requeued, _),) = plan.transmissions
    assert (runs, window, requeued) == ([(0, 1, 3, 3), (2, 3, 10, 10)], (4, 0), [[3, 5]])
    _deliver(states, plan, 0.003)
    assert _pairs(state) == [(0.001, 7), (0.002, 10), (0.002 - period, 5),
                             (0.003, 3), (0.003 - period, 10)]
    assert state.requeued[0] == [[3, 5]]
    assert views.bursts(state, 0) == [[period, 1, 5]]
    assert _view(states, 0) == (5, period)


def test_trailing_skipped_bursts_are_requeued_in_order():
    # window: (TXOP 0: stations 0-3), (TXOP 1: 0-3); burst 0 is cut after
    # 7 packets, then only station 1 is servable: the part-sent burst 0,
    # bursts 2-4 and the trailing bursts 6 and 7 are all re-queued, in FIFO
    # order, and the queue is the one before the slot less bursts 1 and 5
    states = _window_states(num_stations=4, num_txops=2)
    state = states[0]
    period = TIM.period_s
    airtimes = _one_ap_airtimes(stations=(0, 1, 2, 3))
    assert _plan_and_deliver(states, airtimes, _room_for(7)) == [(7, 0.0, 0)]
    before = views.bursts(state, 0)
    assert before == [[0.0, 0, 3]] + [[0.0, sta, 10] for sta in (1, 2, 3)] + [
        [period, sta, 10] for sta in range(4)]
    assert _view(states, 0) == (73, 0.0)
    for sta in (0, 2, 3):
        airtimes[0][sta] = None
    plan = plan_slot((0,), state, _links(airtimes)[0], PRE, 3000.0)
    ((_, runs, window, requeued, _),) = plan.transmissions
    assert (runs, window) == ([(1, 2, 10, 10), (5, 6, 10, 10)], (8, 0))
    assert requeued == [[0, 3], [2, 10], [3, 10], [4, 10], [6, 10], [7, 10]]
    _deliver(states, plan, 0.002)
    assert _pairs(state)[1:] == [(0.002, 10), (0.002 - period, 10)]
    assert views.bursts(state, 0) == [b for b in before if b[1] != 1]
    assert _view(states, 0) == (53, 0.0)
    # once servable, the re-queued bursts drain first, oldest first
    airtimes = _one_ap_airtimes(stations=(0, 1, 2, 3))
    assert _plan_and_deliver(states, airtimes, _room_for(53)) == [
        (3, 0.0, 0), (10, 0.0, 2), (10, 0.0, 3), (10, period, 0), (10, period, 2),
        (10, period, 3)]
    assert views.bursts(state, 0) == []
    assert _view(states, 0) == (0, math.inf)


def _make_state(kind, scenario, timing, traffic, gamma=20.0, k=3, seed=0,
                arrival_prob=0.0, num_txops=0):
    """A `kind` run's state over `num_txops` TXOPs of arrivals drawn at
    `arrival_prob` from the seed's traffic stream."""
    env = build_environment(SimulationConfig(scenario, timing, traffic, gamma, k, seed=seed))
    schedule = draw_arrivals(env.deployment, arrival_prob, views.traffic_rng(seed), num_txops)
    return SimState(schedule, traffic, timing.period_s, kind), env


def test_run_txop_empty_buffers():
    cfg, tim, tr = ScenarioConfig(), TimingConfig(), TrafficConfig()
    state, env = _make_state(NUMPK, cfg, tim, tr)
    rec = run_txop(state, NUMPK, env, tim, 0.0)
    assert rec.total_duration_us == 0.0
    assert rec.handshake_us == 0.0
    assert rec.slots == []


def test_run_txop_always_handshake_switch():
    cfg = ScenarioConfig()
    tim = TimingConfig(always_handshake=True)
    state, env = _make_state(NUMPK, cfg, tim, TrafficConfig())
    rec = run_txop(state, NUMPK, env, tim, 0.0)
    assert rec.total_duration_us == pytest.approx(tim.handshake_us)
    assert rec.slots == []


def test_run_txop_accounting_and_budget():
    cfg, tr = ScenarioConfig(), TrafficConfig(load_bps_per_sta=8e6)
    tim = TimingConfig()
    state, env = _make_state(NUMPK, cfg, tim, tr, arrival_prob=0.8, num_txops=50)
    slots = packets = 0
    for n in range(50):
        now = n * tim.period_s
        step_arrivals(state, n)
        rec = run_txop(state, NUMPK, env, tim, now)
        slots += len(rec.slots)
        packets += rec.packets_delivered
        assert rec.total_duration_us <= tim.txop_max_us + 1e-9
        recomputed = rec.handshake_us + sum(
            tim.map_tf_us + tim.te_us + tim.slot_overhead_us + s.duration_us
            for s in rec.slots)
        assert rec.total_duration_us == pytest.approx(recomputed, abs=1e-9)
        for slot in rec.slots:
            assert slot.duration_us <= tim.txop_max_us
    assert slots > 0 and packets > 0


def _next_arrival(fifo_txops, lo, hi, n):
    """Arrival time of the first burst after TXOP `n` in an AP's list
    fifo_txops[lo:hi] (+inf if none): the head of an AP with no packets."""
    later = [txop for txop in fifo_txops[lo:hi].tolist() if txop > n]
    return later[0] * TIM.period_s if later else math.inf


def _head_or_next(view, schedule, ap, n):
    """A reference buffer's (count, head), with an empty buffer's head at the
    AP's next arrival after TXOP `n` in `schedule`."""
    count, head = view
    if count:
        return view
    return count, _next_arrival(schedule.fifo_txops, *schedule.ap_bounds[ap:ap + 2], n)


def _kept_view(state, kind):
    """The half of the controller view a `kind` run keeps, counts or heads,
    as a list whichever container holds it."""
    return np.asarray(state.heads if kind.scores_waits else state.counts).tolist()


def _view_from_buffers(state):
    """The controller view rebuilt from the bursts themselves and the AP
    lists of the schedule."""
    queues = [views.bursts(state, ap) for ap in range(len(state.ends))]
    counts = [sum(batch[2] for batch in queue) for queue in queues]
    starts = [0] + state.ends[:-1]
    heads = [queue[0][0] if queue else
             _next_arrival(state.fifo_txops, lo, hi, state.txop)
             for queue, lo, hi in zip(queues, starts, state.ends)]
    return counts, heads


@pytest.mark.parametrize("cfg, load_bps, txops", [
    (ScenarioConfig(), 8e6, 300),
    (ScenarioConfig(subarea_rows=12, subarea_cols=12), 2e6, 150),
    # weak links: unservable stations leave skipped bursts ahead of the rest
    (ScenarioConfig(subarea_side_m=60.0, wall_count=5), 4e6, 300),
], ids=["3x3", "12x12", "weak-links"])
def test_controller_view_tracks_buffers(cfg, load_bps, txops):
    tim, tr = TimingConfig(), TrafficConfig(load_bps_per_sta=load_bps)
    p = arrival_probability(load_bps, tr.burst_packets, tr.packet_bytes,
                            tim.period_s)
    for kind in SchedulerKind:  # each kind's run keeps, and checks, its half
        state, env = _make_state(kind, cfg, tim, tr, seed=2, arrival_prob=p,
                                 num_txops=txops)
        delivered = 0
        for n in range(txops):
            now = n * tim.period_s
            step_arrivals(state, n)
            delivered += run_txop(state, kind, env, tim, now).packets_delivered
            counts, heads = _view_from_buffers(state)
            assert _kept_view(state, kind) == (heads if kind.scores_waits else counts), (kind, n)
            assert state.queued == sum(counts), (kind, n)
        assert delivered > 0
        assert state.queued > 0


@pytest.mark.parametrize("rows, cols, load_bps", [(3, 3, 1e6), (7, 8, 0.2e6)],
                         ids=["lists-3x3", "vectors-7x8"])
def test_run_keeps_only_the_view_half_its_kind_reads(monkeypatch, rows, cols, load_bps):
    # An OldPk run never adds arrivals to per-AP counts and a NumPk run never
    # moves a head: after every TXOP the half the kind does not read is None,
    # and the half it reads equals the one rebuilt from the buffers.
    scenario = ScenarioConfig(subarea_rows=rows, subarea_cols=cols)
    vector = scenario.num_aps > engine.LIST_VIEW_MAX_APS
    assert vector == (rows > 3)
    txops, checked, plain_run_txop = 100, 0, engine.run_txop

    def watched(state, kind, *args):
        nonlocal checked
        record = plain_run_txop(state, kind, *args)
        counts, heads = _view_from_buffers(state)
        if kind.scores_waits:
            kept, dropped, expected = state.heads, state.counts, heads
        else:
            kept, dropped, expected = state.counts, state.heads, counts
        assert dropped is None, kind
        assert isinstance(kept, np.ndarray) == vector
        assert np.asarray(kept).tolist() == expected, kind
        assert state.queued == sum(counts)
        checked += 1
        return record

    monkeypatch.setattr(engine, "run_txop", watched)
    for kind in SchedulerKind:
        checked = 0
        report = run_simulation(SimulationConfig(
            scenario, TimingConfig(num_txops=txops),
            TrafficConfig(load_bps_per_sta=load_bps), 20.0, 3, kind.value, seed=1))
        assert checked == txops and report.packets_delivered > 0, kind


@pytest.mark.parametrize("cfg", [
    ScenarioConfig(subarea_side_m=60.0, wall_count=5),
    ScenarioConfig(subarea_rows=7, subarea_cols=7, subarea_side_m=60.0, wall_count=5),
], ids=["lists-3x3", "vectors-7x7"])
def test_view_invariant_after_every_arrival_and_delivery(cfg):
    # weak links, so that slots skip and re-queue unservable bursts
    tim, tr, txops = TimingConfig(), TrafficConfig(load_bps_per_sta=4e6), 120
    p = arrival_probability(4e6, tr.burst_packets, tr.packet_bytes, tim.period_s)
    period, requeues = tim.period_s, 0
    for kind in SchedulerKind:
        state, env = _make_state(kind, cfg, tim, tr, seed=2, arrival_prob=p, num_txops=txops)
        assert state.vector_view == (cfg.num_aps > engine.LIST_VIEW_MAX_APS)
        kept = state.heads if kind.scores_waits else state.counts
        assert isinstance(kept, np.ndarray) == state.vector_view

        def check(txop_start):
            # each kind's run checks the half it keeps: the counts against
            # the buffers, the heads against the buffers' backlog and the
            # first unsent burst
            counts = _view_from_buffers(state)[0]
            assert state.queued == sum(counts)
            if not kind.scores_waits:
                assert _kept_view(state, kind) == counts, kind
                return
            for ap, (count, head) in enumerate(zip(counts, _kept_view(state, kind))):
                assert (count > 0) == (head <= txop_start), (kind, ap)
                # the first unsent burst: re-queued, else at the cursor
                if state.requeued[ap]:
                    first = state.requeued[ap][0][0]
                else:
                    first = state.cursor[ap] if state.cursor[ap] < state.ends[ap] else None
                assert head == (math.inf if first is None
                                else int(state.fifo_txops[first]) * period), (kind, ap)

        def deliver(plan, delivery_time_s, commit=state.deliver):
            nonlocal requeues
            commit(plan, delivery_time_s)
            requeues += sum(bool(requeued) for _, _, _, requeued, _ in plan.transmissions)
            check(n * period)

        state.deliver = deliver
        for n in range(txops):
            step_arrivals(state, n)
            check(n * period)
            run_txop(state, kind, env, tim, n * period)
    assert requeues > 0


def test_delay_percentile_is_nearest_rank():
    cfg, tim = ScenarioConfig(), TimingConfig(num_txops=300)
    rep = run_simulation(SimulationConfig(cfg, tim, TrafficConfig(load_bps_per_sta=6e6),
                                          20.0, 3, "oldpk-group", seed=4))
    delays = rep.delays_sorted_s.tolist()
    assert len(delays) > 100
    for q in (0.0, 0.5, 0.95, 0.99, 1.0):
        assert rep.delay_percentile(q) == nearest_rank_reference(delays, q)
    empty = replace(rep, delays_sorted_s=np.empty(0))
    for q in (0.0, 0.5, 1.0):
        assert math.isnan(empty.delay_percentile(q))


def test_simulation_zero_load():
    # a run that delivers nothing takes the same path as any other, without
    # a warning (the suite turns warnings into errors)
    cfg, tim, tr = ScenarioConfig(), TimingConfig(num_txops=50), TrafficConfig(load_bps_per_sta=0.0)
    for kind in SchedulerKind:
        rep = run_simulation(SimulationConfig(cfg, tim, tr, 20.0, 3, kind.value, seed=1))
        assert rep.throughput_bps == 0.0, kind
        assert math.isnan(rep.mean_delay_s), kind
        assert math.isnan(rep.delay_percentile(0.95)), kind
        assert rep.delays_sorted_s.dtype == np.float64, kind
        assert len(rep.delays_sorted_s) == 0, kind
        assert (rep.packets_arrived, rep.packets_delivered, rep.packets_remaining) == (0, 0, 0)
        assert np.all(rep.per_txop_occupancy == 0.0), kind


def test_delay_pairs_of_a_state_with_nothing_booked_are_empty():
    dep = _deployment()
    state = SimState(draw_arrivals(dep, 1.0, np.random.default_rng(0), 1),
                     TrafficConfig(), TIM.period_s, NUMPK)
    step_arrivals(state, 0)
    assert state.queued > 0 and not state.booked_at
    delays, counts = state.delay_pairs()
    assert (delays.dtype, delays.shape) == (np.float64, (0,))
    assert (counts.dtype, counts.shape) == (np.int64, (0,))


def test_simulation_conservation_and_occupancy():
    cfg, tim = ScenarioConfig(), TimingConfig(num_txops=300)
    for kind in ("numpk-single", "ctdma-oldpk", "oldpk-group"):
        tr = TrafficConfig(load_bps_per_sta=6e6)
        rep = run_simulation(SimulationConfig(cfg, tim, tr, 20.0, 3, kind, seed=3))
        assert rep.packets_arrived == rep.packets_delivered + rep.packets_remaining
        assert np.all(rep.per_txop_occupancy >= 0.0)
        assert np.all(rep.per_txop_occupancy <= 1.0)
        assert len(rep.per_txop_occupancy) == tim.num_txops


def test_simulation_determinism():
    cfg, tim, tr = ScenarioConfig(), TimingConfig(num_txops=200), TrafficConfig(load_bps_per_sta=6e6)
    a = run_simulation(SimulationConfig(cfg, tim, tr, 20.0, 3, "oldpk-single", seed=9))
    b = run_simulation(SimulationConfig(cfg, tim, tr, 20.0, 3, "oldpk-single", seed=9))
    assert a.throughput_bps == b.throughput_bps
    assert np.array_equal(a.delays_sorted_s, b.delays_sorted_s)
    assert np.array_equal(a.per_txop_occupancy, b.per_txop_occupancy)
    c = run_simulation(SimulationConfig(cfg, tim, tr, 20.0, 3, "oldpk-single", seed=10))
    assert not np.array_equal(a.delays_sorted_s, c.delays_sorted_s)


def test_fifo_delivery_per_ap():
    cfg, tim, tr = ScenarioConfig(), TimingConfig(num_txops=400), TrafficConfig(load_bps_per_sta=4e6)
    trace = []
    config = SimulationConfig(cfg, tim, tr, 20.0, 3, "numpk-group", seed=5)
    run_simulation(config, txop_trace=trace)
    source = views.fresh_state(config)
    last_arrival = {}
    last_delivery = {}
    handshake_s = tim.handshake_us * 1e-6
    slot_us = tim.map_tf_us + tim.te_us + tim.slot_overhead_us
    bursts = 0
    for rec in trace:
        consumed = rec.handshake_us
        for slot in rec.slots:
            consumed += slot_us + slot.duration_us  # summed as run_txop sums it
            delivery_s = rec.start_time_s + consumed * 1e-6
            for tx in slot.transmissions:
                ap = tx[0]
                for _, arrival_s, _ in views.taken(tx, source):
                    assert delivery_s >= arrival_s + handshake_s
                    assert arrival_s >= last_arrival.get(ap, -1.0) - 1e-12
                    assert delivery_s >= last_delivery.get(ap, -1.0) - 1e-12
                    last_arrival[ap] = arrival_s
                    last_delivery[ap] = delivery_s
                    bursts += 1
    assert bursts


def test_single_station_steady_state_closed_form():
    # one AP, one station, a burst every period, load far below capacity:
    # every burst is delivered in the first slot of its own TXOP, so each
    # packet's delay is handshake + TF + Te + preamble + 10 packets of airtime
    cfg = ScenarioConfig(subarea_rows=1, subarea_cols=1, stations_per_subarea=1)
    tim = TimingConfig(num_txops=100)
    tr = TrafficConfig(load_bps_per_sta=24e6)  # p = 1.0
    seed = 17
    rep = run_simulation(SimulationConfig(cfg, tim, tr, 20.0, 3, "numpk-single",
                                          seed=seed))
    env = build_environment(SimulationConfig(cfg, tim, tr, 20.0, 3, seed=seed))
    rssi = build_rssi_matrix(env.deployment, cfg)
    sinr = station_sinr_db(0, 0, (0,), rssi, cfg.noise_dbm)
    mcs = select_mcs(sinr, default_mcs_table())
    per_pkt_us = tr.packet_bits / data_rate_bps(mcs, default_mcs_table(), tim) * 1e6
    expected_us = (tim.handshake_us + tim.map_tf_us + tim.te_us
                   + tim.phy_preamble_us + 10 * per_pkt_us)
    assert rep.packets_delivered == 100 * 10
    assert rep.packets_remaining == 0
    delays = rep.delays_sorted_s
    assert delays[0] == pytest.approx(delays[-1], abs=1e-12)  # constant delay
    assert delays[0] == pytest.approx(expected_us * 1e-6, abs=1e-9)


def test_sr_beats_ctdma_on_default_grid():
    cfg, tim, tr = ScenarioConfig(), TimingConfig(num_txops=500), TrafficConfig(load_bps_per_sta=8e6)
    sr = run_simulation(SimulationConfig(cfg, tim, tr, 20.0, 3, "numpk-single", seed=1))
    ctdma = run_simulation(SimulationConfig(cfg, tim, tr, 20.0, 3, "ctdma-numpk",
                                            seed=1))
    assert sr.throughput_bps > ctdma.throughput_bps
    assert sr.delay_percentile(0.95) < ctdma.delay_percentile(0.95)


def test_txop_trace_collects_records():
    cfg, tim, tr = ScenarioConfig(), TimingConfig(num_txops=40), TrafficConfig(load_bps_per_sta=6e6)
    trace = []
    rep = run_simulation(SimulationConfig(cfg, tim, tr, 20.0, 3, "numpk-single",
                                          seed=2), txop_trace=trace)
    assert len(trace) == 40
    assert sum(rec.packets_delivered for rec in trace) == rep.packets_delivered


def test_kept_trace_does_not_pin_the_runs_state(monkeypatch):
    states = []  # weak references to each run's state

    class RecordedState(SimState):
        def __init__(self, *args):
            super().__init__(*args)
            states.append(weakref.ref(self))

    monkeypatch.setattr(engine, "SimState", RecordedState)
    config = SimulationConfig(ScenarioConfig(), TimingConfig(num_txops=200),
                              TrafficConfig(load_bps_per_sta=8e6), seed=2)
    trace = []
    run_simulation(config, txop_trace=trace)
    gc.collect()
    assert len(states) == 1 and states[0]() is None
    assert sum(len(rec.slots) for rec in trace) > 0  # the trace is still held


# ---------------------------------------------------------------------------
# Shared static environment: memoized builds, read-only arrays, leaner arrivals

class _DequeBuffer:
    """Reference: the per-AP FIFO as a deque of [arrival_s, station, count]
    bursts, one appended per arrival, with the plan walk and consume the
    engine used before its queues became cursors over the schedule."""

    def __init__(self):
        self.batches = deque()

    def append_burst(self, arrival_s, station, count):
        self.batches.append([arrival_s, station, count])

    def plan(self, rates, cap_us, preamble_us):
        """(segments, consume, airtime) of one AP's strict-FIFO drain."""
        acc = preamble_us
        segment_counts = {}
        consume = []
        for pos, (_, sta, n) in enumerate(self.batches):
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
        segments = [(sta, rates[sta][0], k) for sta, k in segment_counts.items()]
        return segments, consume, acc

    def consume(self, consumptions):
        batches = self.batches
        taken = [(batches[pos][0], batches[pos][1], k) for pos, k in consumptions]
        for pos, k in reversed(consumptions):
            if k == batches[pos][2]:
                del batches[pos]
            else:
                batches[pos][2] -= k
        return taken

    def view(self):
        return (sum(batch[2] for batch in self.batches),
                self.batches[0][0] if self.batches else math.inf)


def _loop_step_arrivals(buffers, deployment, traffic, arrival_prob, rng, now_s):
    """Reference: the per-station loop step_arrivals used to run, with one
    numpy-scalar association lookup and int() per arriving station."""
    u = rng.random(deployment.num_stations)
    appended = 0
    for sta in np.flatnonzero(u < arrival_prob):
        buffers[deployment.association[sta]].append_burst(now_s, int(sta),
                                                          traffic.burst_packets)
        appended += traffic.burst_packets
    return appended


@pytest.mark.parametrize("cfg", [
    ScenarioConfig(),
    ScenarioConfig(subarea_rows=12, subarea_cols=12),
    ScenarioConfig(subarea_side_m=60.0, wall_count=5),
], ids=["3x3", "12x12", "weak-links"])
@pytest.mark.parametrize("p", [0.0, 0.08, 1 / 3, 1.0])
def test_step_arrivals_matches_station_loop(cfg, p):
    env = build_environment(SimulationConfig(cfg, seed=5))
    tr = TrafficConfig()
    rng_new, rng_ref = np.random.default_rng(11), np.random.default_rng(11)
    schedule = draw_arrivals(env.deployment, p, rng_new, 6)
    states = _twin_states(schedule)
    new = states[0]
    num_aps = env.deployment.num_aps
    ref = [_DequeBuffer() for _ in range(num_aps)]
    for n in range(6):
        now = n * TIM.period_s
        got = step_arrivals(new, n)
        assert step_arrivals(states[1], n) == got
        want = _loop_step_arrivals(ref, env.deployment, tr, p, rng_ref, now)
        assert got == want and type(got) is type(want)
        # repr also tells a numpy integer station id from a Python int
        assert [repr(views.bursts(new, ap)) for ap in range(num_aps)] == \
            [repr(list(b.batches)) for b in ref]
        assert [_view(states, ap) for ap in range(num_aps)] == \
            [_head_or_next(b.view(), schedule, ap, n) for ap, b in enumerate(ref)]
    # the whole run was drawn before its first TXOP
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    assert any(new.counts) == (p > 0)
    if p == 1.0:
        assert sum(new.counts) == 6 * env.deployment.num_stations * tr.burst_packets


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cursor_queue_matches_deque_fifo(data):
    num_aps = data.draw(st.integers(1, 4), label="num_aps")
    association = data.draw(st.lists(st.integers(0, num_aps - 1), min_size=1,
                                     max_size=10), label="association")
    num_txops = data.draw(st.integers(1, 25), label="num_txops")
    p = data.draw(st.sampled_from([0.1, 0.5, 1.0]), label="p")
    burst = data.draw(st.integers(1, 12), label="burst_packets")
    # per-packet airtime of each station (us) whenever it is servable
    per_packet = data.draw(st.lists(st.floats(20.0, 1500.0),
                                    min_size=len(association),
                                    max_size=len(association)), label="per_packet")
    dep = Deployment(np.zeros((num_aps, 2)), np.zeros((len(association), 2)),
                     association, 0)
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    traffic = TrafficConfig(burst_packets=burst)
    schedule = draw_arrivals(dep, p, np.random.default_rng(seed), num_txops)
    states = _twin_states(schedule, traffic)
    state = states[0]
    rng_ref = np.random.default_rng(seed)  # the reference draws per TXOP
    ref = [_DequeBuffer() for _ in range(num_aps)]

    def assert_same_queues(n):
        for ap in range(num_aps):
            assert views.bursts(state, ap) == list(map(list, ref[ap].batches))
            assert _view(states, ap) == _head_or_next(ref[ap].view(), schedule, ap, n)

    for n in range(num_txops):
        assert step_arrivals(states[1], n) == step_arrivals(state, n) == _loop_step_arrivals(
            ref, dep, traffic, p, rng_ref, n * TIM.period_s)
        assert_same_queues(n)
        for _ in range(data.draw(st.integers(0, 3), label="slots")):
            members = tuple(data.draw(st.permutations(range(num_aps)), label="order")[
                :data.draw(st.integers(1, num_aps), label="size")])
            unservable = data.draw(st.sets(st.integers(0, len(association) - 1)),
                                   label="unservable")
            budget = data.draw(st.floats(0.0, TIM.txop_max_us), label="budget")
            airtimes = {ap: {sta: None if sta in unservable else (7, per_packet[sta])
                             for sta in dep.stations_by_ap[ap]} for ap in members}
            airtime_us, mcs = _links(airtimes)
            cap = budget - TIM.map_tf_us - TIM.te_us - TIM.slot_overhead_us
            plan = plan_slot(members, state, airtime_us, PRE, cap)
            # planning changes no state: a second plan of the same slot is
            # the same, although it reads the re-queued entries the first
            # plan's lists share
            again = plan_slot(members, state, airtime_us, PRE, cap)
            assert _committed(again) == _committed(plan)
            assert_same_queues(n)
            want = []
            if cap > TIM.phy_preamble_us:
                for ap in members:
                    segments, consume, acc = ref[ap].plan(airtimes[ap], cap,
                                                          TIM.phy_preamble_us)
                    if consume:
                        want.append((ap, segments, consume, acc))
            if not want:
                assert plan is None
                continue
            assert [(tx[0], views.segments(tx, state, mcs),
                     [k for k, _, _ in views.taken(tx, state)],
                     views.airtime_us(tx, state, airtime_us, TIM))
                    for tx in plan.transmissions] == [
                (ap, segments, [k for _, k in consume], acc)
                for ap, segments, consume, acc in want]
            for tx, (_, _, consume, _) in zip(plan.transmissions, want):
                ap, _, _, _, packets = tx
                # every recorded burst is the one the reference FIFO hands out
                assert ([(arrival, sta, k) for k, arrival, sta in views.taken(tx, state)]
                        == ref[ap].consume(consume))
                assert packets == sum(k for _, k in consume)
            _deliver(states, plan, n * TIM.period_s + 1.0)
            assert_same_queues(n)


def _committed(plan):
    """What `deliver` commits of `plan`, per AP."""
    return plan and [(ap, runs, window, requeued)
                     for ap, runs, window, requeued, _ in plan.transmissions]


def _run_outcome(cfg, kind, seed, tr, mcs_table=default_mcs_table(), txops=150):
    trace = []
    config = SimulationConfig(cfg, TimingConfig(num_txops=txops), tr, 20.0, 3, kind,
                              seed, mcs_table)
    rep = run_simulation(config, txop_trace=trace)
    assert rep.packets_delivered > 0
    source = views.fresh_state(config)
    taken = [[(tx[0], views.taken(tx, source)) for tx in slot.transmissions]
             for rec in trace for slot in rec.slots]
    return (rep.delays_sorted_s.tolist(), rep.per_txop_occupancy.tolist(),
            [rep.delay_percentile(q) for q in (0.5, 0.95, 0.99)],
            rep.mean_delay_s, rep.throughput_bps, rep.packets_arrived,
            rep.packets_remaining, taken)


@pytest.mark.parametrize("cfg", [
    ScenarioConfig(), ScenarioConfig(subarea_rows=6, subarea_cols=6),
], ids=["3x3", "6x6"])
def test_warm_memo_run_equals_cold_run(cfg):
    tr = TrafficConfig(load_bps_per_sta=6e6)
    kinds = [kind.value for kind in SchedulerKind]
    config = SimulationConfig(cfg, TimingConfig(num_txops=150), tr, 20.0, 3, seed=3)
    for i, kind in enumerate(kinds):
        engine.clear_memos()
        cold = _run_outcome(cfg, kind, 3, tr)
        engine.clear_memos()
        _run_outcome(cfg, kinds[i - 1], 3, tr)  # warms the memo with another kind
        shared = build_environment(config)
        assert _run_outcome(cfg, kind, 3, tr) == cold, kind
        assert build_environment(replace(config, scheduler=kind)) is shared


def test_memo_rebuilds_airtimes_for_new_mcs_table_or_packet_size():
    cfg, tr = ScenarioConfig(), TrafficConfig(load_bps_per_sta=6e6)
    table = default_mcs_table()
    stricter = McsTable(tuple(s + 6.0 for s in table.min_sinrs), table.bits_per_symbol)
    for mcs_table, traffic in ((stricter, tr),
                               (default_mcs_table(), replace(tr, packet_bytes=1000))):
        engine.clear_memos()
        first = _run_outcome(cfg, "numpk-group", 8, tr, txops=200)
        warm = _run_outcome(cfg, "numpk-group", 8, traffic, mcs_table, txops=200)
        engine.clear_memos()
        cold = _run_outcome(cfg, "numpk-group", 8, traffic, mcs_table, txops=200)
        assert warm == cold
        assert warm != first


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_block_draw_equals_per_txop_draws(data):
    # up to 20000: one-row blocks, and ids past 8 bits
    num_stations = data.draw(st.integers(1, 20000), label="num_stations")
    num_aps = data.draw(st.integers(1, min(num_stations, 300)), label="num_aps")
    p = data.draw(st.floats(0.0, 1.0), label="p")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    block = max(1, engine.ARRIVAL_BLOCK_DOUBLES // num_stations)
    # 0-2 whole blocks and a part block: runs ending on and across boundaries
    num_txops = (data.draw(st.integers(0, 2), label="blocks") * block
                 + data.draw(st.integers(0, block), label="rest"))
    association = np.random.default_rng(seed).integers(0, num_aps, num_stations)
    dep = Deployment(np.zeros((num_aps, 2)), np.zeros((num_stations, 2)),
                     association, 0)
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    schedule = draw_arrivals(dep, p, rng, num_txops)
    assert len(schedule.bounds) == num_txops + 1 and schedule.bounds[0] == 0
    assert schedule.aps.dtype == np.min_scalar_type(num_aps)
    draws = _reference_draws(rng_ref, num_stations, p, num_txops)
    for n, want in enumerate(draws):
        lo, hi = schedule.bounds[n], schedule.bounds[n + 1]
        assert schedule.aps[lo:hi].tolist() == association[want].tolist()
    assert schedule.bounds[-1] == len(schedule.aps)
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    _assert_fifo_lists(schedule, association, draws)


def _reference_draws(rng, num_stations, p, num_txops):
    """Each TXOP's arriving stations, drawn one `rng.random` call per TXOP."""
    return [np.flatnonzero(rng.random(num_stations) < p) for _ in range(num_txops)]


def _assert_fifo_lists(schedule, association, draws):
    """Each AP's FIFO list holds its arrivals of the reference per-TXOP
    `draws` in (TXOP, station) order, with the TXOP of each."""
    num_txops = len(draws)
    assert schedule.fifo_stations.dtype == np.min_scalar_type(len(association))
    assert schedule.fifo_txops.dtype == np.min_scalar_type(max(num_txops - 1, 0))
    assert (schedule.ap_bounds[-1] == len(schedule.fifo_stations)
            == len(schedule.fifo_txops) == schedule.bounds[-1])
    stations = np.concatenate([np.empty(0, np.int64)] + draws)
    txop_of = np.repeat(np.arange(num_txops),
                        np.array([len(want) for want in draws], np.int64))
    aps = association[stations]
    for ap in range(len(schedule.ap_bounds) - 1):
        lo, hi = schedule.ap_bounds[ap], schedule.ap_bounds[ap + 1]
        mine = aps == ap
        assert schedule.fifo_stations[lo:hi].tolist() == stations[mine].tolist()
        assert schedule.fifo_txops[lo:hi].tolist() == txop_of[mine].tolist()


def test_fifo_lists_span_many_blocks():
    # 33 whole blocks and a part block, TXOP ids past 16 bits
    num_stations, num_aps = 6, 3
    block = engine.ARRIVAL_BLOCK_DOUBLES // num_stations
    num_txops = (2 * 16 + 1) * block + 7
    assert num_txops > 1 << 16
    association = np.random.default_rng(3).integers(0, num_aps, num_stations)
    dep = Deployment(np.zeros((num_aps, 2)), np.zeros((num_stations, 2)),
                     association, 0)
    schedule = draw_arrivals(dep, 0.3, np.random.default_rng(4), num_txops)
    draws = _reference_draws(np.random.default_rng(4), num_stations, 0.3, num_txops)
    _assert_fifo_lists(schedule, association, draws)


def test_deployment_without_stations_draws_an_empty_schedule():
    dep = Deployment(np.zeros((2, 2)), np.zeros((0, 2)), [], 0)
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    schedule = draw_arrivals(dep, 0.5, rng, 3 * engine.ARRIVAL_BLOCK_DOUBLES + 1)
    assert rng.bit_generator.state == state  # as one rng.random(0) per TXOP
    assert len(schedule.bounds) == 3 * engine.ARRIVAL_BLOCK_DOUBLES + 2
    assert not schedule.bounds.any() and schedule.ap_bounds.tolist() == [0, 0, 0]
    assert len(schedule.aps) == len(schedule.fifo_stations) == len(schedule.fifo_txops) == 0


def test_draw_of_a_default_run_stays_small():
    # 90k arrivals: the one sort's int64 index and the TXOP-major ids trace
    # about 1.4 MB; grouping by AP in a per-AP copy loop traced 2.3 MB
    scenario = ScenarioConfig()
    dep = generate_grid_deployment(scenario, np.random.default_rng(1))
    p = arrival_probability(8e6, TrafficConfig().burst_packets,
                            TrafficConfig().packet_bytes, TIM.period_s)
    tracemalloc.start()
    try:
        schedule = draw_arrivals(dep, p, np.random.default_rng(1), 10_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(schedule.aps) > 80_000
    assert peak < 2_000_000


@pytest.mark.parametrize("traffic, txops", [
    (TrafficConfig(load_bps_per_sta=2e6), 150),
    (TrafficConfig(load_bps_per_sta=6e6, burst_packets=4), 150),
    (TrafficConfig(load_bps_per_sta=6e6, packet_bytes=1000), 150),
    # the same p as the first run: its schedule is shared, the bursts differ
    (TrafficConfig(load_bps_per_sta=12e6, burst_packets=20), 150),
    (TrafficConfig(load_bps_per_sta=6e6), 200),
], ids=["load", "burst", "packet-size", "same-p", "num-txops"])
def test_warm_schedule_run_equals_cold_run(traffic, txops):
    cfg, first_traffic = ScenarioConfig(), TrafficConfig(load_bps_per_sta=6e6)
    engine.clear_memos()
    first = _run_outcome(cfg, "oldpk-group", 3, first_traffic)
    warm = _run_outcome(cfg, "oldpk-group", 3, traffic, txops=txops)
    engine.clear_memos()
    cold = _run_outcome(cfg, "oldpk-group", 3, traffic, txops=txops)
    assert warm == cold
    assert warm != first


def test_arrival_schedule_is_shared_read_only_and_cleared(monkeypatch):
    drawn = []  # weak references: the memo holds the only strong one

    def recording(*args):
        assert all(ref() is None for ref in drawn)  # the stale one went first
        schedule = draw_arrivals(*args)
        drawn.append(weakref.ref(schedule))
        return schedule

    monkeypatch.setattr(engine, "draw_arrivals", recording)
    engine.clear_memos()
    config = SimulationConfig(ScenarioConfig(), TimingConfig(num_txops=50),
                              TrafficConfig(load_bps_per_sta=8e6), seed=4)
    for kind, gamma in (("numpk-single", 20.0), ("ctdma-oldpk", 20.0),
                        ("numpk-group", 10.0)):
        run_simulation(replace(config, scheduler=kind, gamma_db=gamma))
    assert len(drawn) == 1
    schedule = drawn[0]()
    for array in (schedule.aps, schedule.bounds, schedule.fifo_stations,
                  schedule.fifo_txops, schedule.ap_bounds):
        assert len(array) > 0
        with pytest.raises(ValueError):
            array[0] = array[0]
    del schedule
    run_simulation(replace(config, traffic=TrafficConfig(load_bps_per_sta=4e6)))
    assert len(drawn) == 2
    engine.clear_memos()
    assert drawn[1]() is None
    run_simulation(config)
    assert len(drawn) == 3


def test_memo_keeps_a_deployment_and_drops_it_before_the_next(monkeypatch):
    config = SimulationConfig(ScenarioConfig(), seed=1)
    engine.clear_memos()
    sweep = [replace(config, gamma_db=gamma, max_group_size=k)
             for gamma, k in ((5.0, 3), (20.0, 3), (20.0, 2))]
    kept = [weakref.ref(build_environment(point)) for point in sweep]
    for point, ref in zip(sweep, kept):  # every (gamma, K) of the seed stays
        assert build_environment(point) is ref()

    def checking(*args):
        assert all(ref() is None for ref in kept)
        return generate_grid_deployment(*args)

    monkeypatch.setattr(engine, "generate_grid_deployment", checking)
    build_environment(replace(config, seed=2))
    assert all(ref() is None for ref in kept)


def test_shared_environment_is_read_only():
    env = build_environment(SimulationConfig(ScenarioConfig(), seed=6))
    dep, groups = env.deployment, env.groups
    for array in (dep.ap_positions, dep.station_positions,
                  dep.association, groups.member_columns, groups.sizes):
        with pytest.raises(ValueError):
            array[0] = array[0]
    with pytest.raises(ValueError):
        dep.station_positions += 1.0


def test_airtime_table_of_a_12x12_deployment_stays_small():
    # The environment of a 12x12 deployment, as the memo keeps it: 144 APs,
    # 432 stations, 288 AP sets. It traces about 0.18 MB, most of it one
    # station-keyed airtime dict per set. Keeping the 0.47 MB RSSI matrix
    # and a second station -> MCS dict per set took 0.73 MB; two lists per
    # set indexed by station would take about 2 MB. A small build first does
    # the lazy set-up of the first call, which is not what is measured.
    engine.clear_memos()
    build_environment(SimulationConfig(ScenarioConfig(subarea_rows=1, subarea_cols=1)))
    scenario = ScenarioConfig(subarea_rows=12, subarea_cols=12)
    config = SimulationConfig(scenario, TIM, TrafficConfig(load_bps_per_sta=2e6), seed=901)
    tracemalloc.start()
    try:
        env = build_environment(config)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        engine.clear_memos()
    assert len(env.airtimes) == 288
    assert sum(len(airtime_us) for airtime_us in env.airtimes.values()) > 288 * 3
    assert traced < 0.3 * (1 << 20)


def test_gamma_below_mcs0_warns():
    cfg, tim, tr = ScenarioConfig(), TimingConfig(num_txops=20), TrafficConfig(load_bps_per_sta=1e6)
    with pytest.warns(UserWarning, match=r"-5 dB is below the lowest MCS threshold, 2 dB"):
        run_simulation(SimulationConfig(cfg, tim, tr, -5.0, 3, "numpk-group", seed=1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_simulation(SimulationConfig(cfg, tim, tr, 20.0, 3, "numpk-group", seed=1))
