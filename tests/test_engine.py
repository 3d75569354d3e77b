import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mapcsim import (ApBuffer, McsTable, ScenarioConfig, SchedulerKind,
                     SimulationConfig, TimingConfig, TrafficConfig,
                     arrival_probability, build_environment, data_rate_bps,
                     default_mcs_table, engine, generate_grid_deployment,
                     plan_slot, run_simulation, select_mcs, station_sinr_db,
                     step_arrivals)
from mapcsim.engine import SimState, run_txop
from oracles import nearest_rank_reference

TIM = TimingConfig()
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


def _buffers_and_deployment(seed=0, **cfg_kwargs):
    cfg = ScenarioConfig(**cfg_kwargs)
    dep = generate_grid_deployment(cfg, np.random.default_rng(seed))
    return [ApBuffer() for _ in range(dep.num_aps)], dep


def test_step_arrivals_p0_and_p1():
    buffers, dep = _buffers_and_deployment()
    traffic = TrafficConfig()
    rng = np.random.default_rng(1)
    assert step_arrivals(buffers, dep, traffic, 0.0, rng, 0.0) == 0
    assert all(b.count == 0 for b in buffers)
    added = step_arrivals(buffers, dep, traffic, 1.0, rng, 0.0)
    assert added == 27 * 10
    assert sum(b.count for b in buffers) == 270
    for b in buffers:
        assert all(batch[0] == 0.0 for batch in b.batches)
    # per-AP split: 3 stations x 10 packets each
    assert [b.count for b in buffers] == [30] * 9


def test_step_arrivals_empirical_frequency():
    buffers, dep = _buffers_and_deployment()
    traffic = TrafficConfig()
    rng = np.random.default_rng(7)
    periods = 20_000
    total = 0
    for n in range(periods):
        total += step_arrivals(buffers, dep, traffic, 0.25, rng, n * 0.005)
    freq = total / (periods * dep.num_stations * traffic.burst_packets)
    assert freq == pytest.approx(0.25, rel=0.01)


def _one_ap_airtimes(per_pkt_us=PKT_US_MCS7, mcs=7, stations=(0,)):
    return {0: {sta: (mcs, per_pkt_us) for sta in stations}}


def test_plan_slot_five_packet_ampdu():
    buf = ApBuffer()
    buf.append_burst(0.0, 0, 5)
    plan = plan_slot((0,), [buf], _one_ap_airtimes(), TIM, budget_us=3000.0)
    assert plan is not None
    assert plan.duration_us == pytest.approx(44 + 5 * PKT_US_MCS7, abs=0.1)
    assert plan.duration_us == pytest.approx(741.4, abs=0.1)
    (tx,) = plan.transmissions
    assert tx.segments == [(0, 7, 5)]
    assert tx.consume == [(0, 5)]


def test_plan_slot_nothing_fits():
    buf = ApBuffer()
    buf.append_burst(0.0, 0, 5)
    mcs0_rate = data_rate_bps(0, default_mcs_table(), TIM)
    per = 12000 / mcs0_rate * 1e6  # ~1395 us
    plan = plan_slot((0,), [buf], _one_ap_airtimes(per, mcs=0), TIM,
                     budget_us=200.0)
    assert plan is None
    assert buf.count == 5  # untouched


def test_plan_slot_duration_is_max_over_members():
    b0, b1 = ApBuffer(), ApBuffer()
    b0.append_burst(0.0, 0, 3)
    b1.append_burst(0.0, 1, 1)
    airtimes = {0: {0: (7, PKT_US_MCS7)}, 1: {1: (7, PKT_US_MCS7)}}
    plan = plan_slot((0, 1), [b0, b1], airtimes, TIM, budget_us=3000.0)
    assert plan.duration_us == pytest.approx(44 + 3 * PKT_US_MCS7, abs=1e-6)
    by_ap = {tx.ap: tx for tx in plan.transmissions}
    assert by_ap[0].airtime_us > by_ap[1].airtime_us  # AP1 idles after 1 packet


def test_plan_slot_splits_burst_at_budget():
    buf = ApBuffer()
    buf.append_burst(0.0, 0, 10)
    budget = TIM.map_tf_us + TIM.te_us + 44 + 7.5 * PKT_US_MCS7
    plan = plan_slot((0,), [buf], _one_ap_airtimes(), TIM, budget_us=budget)
    (tx,) = plan.transmissions
    assert tx.consume == [(0, 7)]
    taken = buf.consume(tx.consume)
    assert taken == [(0.0, 0, 7)]
    assert buf.count == 3
    assert buf.batches[0] == [0.0, 0, 3]  # remainder keeps its arrival time


def test_plan_slot_skips_unservable_station():
    buf = ApBuffer()
    buf.append_burst(0.0, 0, 2)   # station 0 below MCS 0 in this selection
    buf.append_burst(1.0, 1, 2)
    airtimes = {0: {0: None, 1: (7, PKT_US_MCS7)}}
    plan = plan_slot((0,), [buf], airtimes, TIM, budget_us=3000.0)
    (tx,) = plan.transmissions
    assert tx.segments == [(1, 7, 2)]
    assert tx.consume == [(1, 2)]
    buf.consume(tx.consume)
    # the unservable burst stays buffered, still first in line
    assert buf.count == 2
    assert list(buf.batches) == [[0.0, 0, 2]]


def test_plan_slot_strict_fifo_stops_at_first_misfit():
    buf = ApBuffer()
    buf.append_burst(0.0, 0, 3)
    buf.append_burst(1.0, 1, 1)
    # station 1 is fast, but the head burst's station fits only 2 packets
    slow = PKT_US_MCS7 * 4
    budget = TIM.map_tf_us + TIM.te_us + 44 + 2.2 * slow
    airtimes = {0: {0: (3, slow), 1: (10, 1.0)}}
    plan = plan_slot((0,), [buf], airtimes, TIM, budget_us=budget)
    (tx,) = plan.transmissions
    assert tx.consume == [(0, 2)]  # burst cut mid-way, later burst untouched


def test_ap_buffer_consume_across_batches():
    buf = ApBuffer()
    buf.append_burst(0.0, 0, 4)
    buf.append_burst(0.5, 1, 2)
    buf.append_burst(1.0, 0, 3)
    taken = buf.consume([(0, 4), (1, 2), (2, 1)])
    assert taken == [(0.0, 0, 4), (0.5, 1, 2), (1.0, 0, 1)]
    assert buf.count == 2
    assert list(buf.batches) == [[1.0, 0, 2]]

    # a skipped middle burst stays ahead of the split remainder
    buf = ApBuffer()
    buf.append_burst(0.0, 0, 4)
    buf.append_burst(0.5, 1, 2)
    buf.append_burst(1.0, 0, 3)
    taken = buf.consume([(0, 4), (2, 1)])
    assert taken == [(0.0, 0, 4), (1.0, 0, 1)]
    assert buf.count == 4
    assert list(buf.batches) == [[0.5, 1, 2], [1.0, 0, 2]]


def _make_state(scenario, timing, traffic, gamma=20.0, k=3, seed=0):
    from mapcsim.engine import _selection_airtimes

    env, rng = build_environment(scenario, gamma, k, seed)
    airtimes = _selection_airtimes(env, scenario, default_mcs_table(), timing,
                                   traffic.packet_bits)
    state = SimState(env.deployment.num_aps, airtimes, traffic.packet_bytes)
    return state, env, rng


def test_run_txop_empty_buffers():
    cfg, tim, tr = ScenarioConfig(), TimingConfig(), TrafficConfig()
    state, env, _ = _make_state(cfg, tim, tr)
    rec = run_txop(state, SchedulerKind.NUMPK_SINGLE, env.groups, tim, 0.0)
    assert rec.total_duration_us == 0.0
    assert rec.handshake_us == 0.0
    assert rec.slots == []


def test_run_txop_always_handshake_switch():
    cfg = ScenarioConfig()
    tim = TimingConfig(always_handshake=True)
    state, env, _ = _make_state(cfg, tim, TrafficConfig())
    rec = run_txop(state, SchedulerKind.NUMPK_SINGLE, env.groups, tim, 0.0)
    assert rec.total_duration_us == pytest.approx(tim.handshake_us)
    assert rec.slots == []


def test_run_txop_accounting_and_budget():
    cfg, tr = ScenarioConfig(), TrafficConfig(load_bps_per_sta=8e6)
    tim = TimingConfig()
    state, env, rng = _make_state(cfg, tim, tr)
    slots = packets = 0
    for n in range(50):
        now = n * tim.period_s
        step_arrivals(state.buffers, env.deployment, tr, 0.8, rng, now)
        rec = run_txop(state, SchedulerKind.NUMPK_SINGLE, env.groups, tim, now)
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


def _view_from_buffers(state):
    """The controller view rebuilt from the bursts themselves."""
    counts = [sum(batch[2] for batch in b.batches) for b in state.buffers]
    heads = [b.batches[0][0] if b.batches else None for b in state.buffers]
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
    for kind in SchedulerKind:
        state, env, rng = _make_state(cfg, tim, tr, seed=2)
        delivered = 0
        for n in range(txops):
            now = n * tim.period_s
            step_arrivals(state.buffers, env.deployment, tr, p, rng, now)
            delivered += run_txop(state, kind, env.groups, tim,
                                  now).packets_delivered
            assert (state.counts, state.heads) == _view_from_buffers(state), (
                kind, n)
        assert delivered > 0
        assert any(state.counts)


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
    cfg, tim, tr = ScenarioConfig(), TimingConfig(num_txops=50), TrafficConfig(load_bps_per_sta=0.0)
    rep = run_simulation(SimulationConfig(cfg, tim, tr, 20.0, 3, "numpk-single",
                                          seed=1))
    assert rep.throughput_bps == 0.0
    assert math.isnan(rep.mean_delay_s)
    assert math.isnan(rep.delay_percentile(0.95))
    assert rep.packets_arrived == 0
    assert np.all(rep.per_txop_occupancy == 0.0)


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
    log = []
    run_simulation(SimulationConfig(cfg, tim, tr, 20.0, 3, "numpk-group", seed=5),
                   delivery_log=log)
    assert log
    last_arrival = {}
    last_delivery = {}
    handshake_s = tim.handshake_us * 1e-6
    for ap, pkt, count in log:
        assert pkt.delivery_time_s >= pkt.arrival_time_s + handshake_s
        assert pkt.arrival_time_s >= last_arrival.get(ap, -1.0) - 1e-12
        assert pkt.delivery_time_s >= last_delivery.get(ap, -1.0) - 1e-12
        last_arrival[ap] = pkt.arrival_time_s
        last_delivery[ap] = pkt.delivery_time_s


def test_single_station_steady_state_closed_form():
    # one AP, one station, a burst every period, load far below capacity:
    # every burst is delivered in the first slot of its own TXOP, so each
    # packet's delay is handshake + TF + Te + preamble + 10 packets of airtime
    cfg = ScenarioConfig(subarea_rows=1, subarea_cols=1, stations_per_subarea=1)
    tim = TimingConfig(num_txops=100)
    tr = TrafficConfig(load_bps_per_sta=24e6)  # p = 1.0
    seed = 17
    log = []
    rep = run_simulation(SimulationConfig(cfg, tim, tr, 20.0, 3, "numpk-single",
                                          seed=seed), delivery_log=log)
    env, _ = build_environment(cfg, 20.0, 3, seed)
    sinr = station_sinr_db(0, 0, (0,), env.rssi_dbm, cfg.noise_dbm)
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


# ---------------------------------------------------------------------------
# Shared static environment: memoized builds, read-only arrays, leaner arrivals

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
    env, _ = build_environment(cfg, 20.0, 3, seed=5)
    tr = TrafficConfig()
    new, ref = (SimState(env.deployment.num_aps, {}, tr.packet_bytes)
                for _ in range(2))
    rng_new, rng_ref = np.random.default_rng(11), np.random.default_rng(11)
    for n in range(6):
        now = n * TIM.period_s
        got = step_arrivals(new.buffers, env.deployment, tr, p, rng_new, now)
        want = _loop_step_arrivals(ref.buffers, env.deployment, tr, p,
                                   rng_ref, now)
        assert got == want and type(got) is type(want)
        # repr also tells a numpy integer station id from a Python int
        assert [repr(list(b.batches)) for b in new.buffers] == \
            [repr(list(b.batches)) for b in ref.buffers]
        assert (new.counts, new.heads) == (ref.counts, ref.heads)
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    assert any(new.counts) == (p > 0)
    if p == 1.0:
        assert sum(new.counts) == 6 * env.deployment.num_stations * tr.burst_packets


def _run_outcome(cfg, kind, seed, tr, mcs_table=default_mcs_table(), txops=150):
    log = []
    rep = run_simulation(SimulationConfig(cfg, TimingConfig(num_txops=txops), tr,
                                          20.0, 3, kind, seed, mcs_table),
                         delivery_log=log)
    assert rep.packets_delivered > 0
    return (rep.delays_sorted_s.tolist(), rep.per_txop_occupancy.tolist(),
            [rep.delay_percentile(q) for q in (0.5, 0.95, 0.99)],
            rep.mean_delay_s, rep.throughput_bps, rep.packets_arrived,
            rep.packets_remaining, log)


@pytest.mark.parametrize("cfg", [
    ScenarioConfig(), ScenarioConfig(subarea_rows=6, subarea_cols=6),
], ids=["3x3", "6x6"])
def test_warm_memo_run_equals_cold_run(cfg):
    tr = TrafficConfig(load_bps_per_sta=6e6)
    kinds = [kind.value for kind in SchedulerKind]
    for i, kind in enumerate(kinds):
        engine.clear_memos()
        cold = _run_outcome(cfg, kind, 3, tr)
        engine.clear_memos()
        _run_outcome(cfg, kinds[i - 1], 3, tr)  # warms the memo with another kind
        shared = build_environment(cfg, 20.0, 3, 3)[0]
        assert _run_outcome(cfg, kind, 3, tr) == cold, kind
        assert build_environment(cfg, 20.0, 3, 3)[0] is shared


def test_memo_rebuilds_airtimes_for_new_mcs_table_or_packet_size():
    cfg, tr = ScenarioConfig(), TrafficConfig(load_bps_per_sta=6e6)
    stricter = McsTable(tuple(replace(e, min_sinr_db=e.min_sinr_db + 6.0)
                              for e in default_mcs_table().entries))
    for mcs_table, traffic in ((stricter, tr),
                               (default_mcs_table(), replace(tr, packet_bytes=1000))):
        engine.clear_memos()
        first = _run_outcome(cfg, "numpk-group", 8, tr, txops=200)
        warm = _run_outcome(cfg, "numpk-group", 8, traffic, mcs_table, txops=200)
        engine.clear_memos()
        cold = _run_outcome(cfg, "numpk-group", 8, traffic, mcs_table, txops=200)
        assert warm == cold
        assert warm != first


def test_shared_environment_is_read_only():
    env, _ = build_environment(ScenarioConfig(), 20.0, 3, seed=6)
    dep, groups = env.deployment, env.groups
    for array in (env.rssi_dbm, dep.ap_positions, dep.station_positions,
                  dep.association, groups.member_matrix, groups.sizes):
        with pytest.raises(ValueError):
            array[0] = array[0]
    with pytest.raises(ValueError):
        env.rssi_dbm += 1.0


def test_gamma_below_mcs0_warns():
    cfg, tim, tr = ScenarioConfig(), TimingConfig(num_txops=20), TrafficConfig(load_bps_per_sta=1e6)
    with pytest.warns(UserWarning, match=r"-5 dB is below the lowest MCS threshold, 2 dB"):
        run_simulation(SimulationConfig(cfg, tim, tr, -5.0, 3, "numpk-group", seed=1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_simulation(SimulationConfig(cfg, tim, tr, 20.0, 3, "numpk-group", seed=1))
