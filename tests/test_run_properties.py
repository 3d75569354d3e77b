"""Whole-run properties over small random configs: every scheduler kind on
grids of 1x1 to 4x4 APs, with random load, burst size, TXOP cap and
handshake switch, up to 200 TXOPs per run; per-station FIFO order and the
booked delays also on weak links and below the MCS-0 threshold."""

import warnings
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mapcsim import (SCHEDULER_NAMES, ScenarioConfig, SimulationConfig,
                     TimingConfig, TrafficConfig, arrival_probability,
                     build_environment, draw_arrivals, run_simulation)

PACKET_BITS = TrafficConfig().packet_bits


@st.composite
def configs(draw):
    burst = draw(st.integers(1, 12), label="burst_packets")
    top_load = burst * PACKET_BITS / TimingConfig().period_s  # the load of p = 1
    # p in whole per cent, so most runs carry traffic
    load = draw(st.integers(0, 99), label="p_percent") / 100 * top_load
    timing = TimingConfig(
        # above the 382 us of handshake, one slot's fixed frames and one
        # 1500 B packet at the top MCS
        txop_max_ms=draw(st.floats(0.382, 4.9), label="txop_max_ms"),
        num_txops=draw(st.integers(1, 200), label="num_txops"),
        always_handshake=draw(st.booleans(), label="always_handshake"))
    scenario = ScenarioConfig(subarea_rows=draw(st.integers(1, 4), label="rows"),
                              subarea_cols=draw(st.integers(1, 4), label="cols"))
    return SimulationConfig(scenario, timing,
                            TrafficConfig(load_bps_per_sta=load, burst_packets=burst),
                            seed=draw(st.integers(1, 50), label="seed"))


def _backlog_at_start(config, records):
    """Packets queued as each TXOP starts, after its arrivals: the run's
    schedule drawn again from the same seed, less what earlier TXOPs sent."""
    timing, traffic = config.timing, config.traffic
    env, rng = build_environment(config.scenario, config.gamma_db,
                                 config.max_group_size, config.seed)
    p = arrival_probability(traffic.load_bps_per_sta, traffic.burst_packets,
                            traffic.packet_bytes, timing.period_s)
    arrived = traffic.burst_packets * np.asarray(
        draw_arrivals(env.deployment, p, rng, timing.num_txops).bounds[1:])
    sent = np.cumsum([0] + [rec.packets_delivered for rec in records[:-1]])
    return (arrived - sent).tolist()


@settings(max_examples=40, deadline=None)
@given(configs())
def test_runs_conserve_packets_and_respect_the_txop(config):
    timing = config.timing
    for kind in SCHEDULER_NAMES:
        run = SimulationConfig(config.scenario, timing, config.traffic,
                               scheduler=kind, seed=config.seed)
        records = []
        report = run_simulation(run, txop_trace=records)
        assert report.packets_arrived == (report.packets_delivered
                                          + report.packets_remaining), kind
        assert len(records) == timing.num_txops
        # plan_slot admits a packet that fits to within 1e-9 of its airtime
        assert all(rec.total_duration_us <= timing.txop_max_us * (1 + 1e-9)
                   for rec in records), kind
        for rec, backlog in zip(records, _backlog_at_start(run, records)):
            charged = backlog > 0 or timing.always_handshake
            assert rec.handshake_us == (timing.handshake_us if charged else 0.0), kind
            if rec.slots:
                assert charged, kind
            if not charged:
                assert rec.total_duration_us == 0.0, kind


# (subarea side m, walls, gamma dB): the default geometry; weak links, on
# which some stations no set can serve; and gamma below the MCS-0
# threshold, on which a station unservable in one group is served by
# another set, after its bursts were skipped
GEOMETRIES = [(10.0, 3, 20.0), (60.0, 5, 20.0), (10.0, 3, -5.0)]


@settings(max_examples=150, deadline=None)
@given(configs(), st.sampled_from(GEOMETRIES))
def test_each_station_gets_its_bursts_in_arrival_order(config, geometry):
    side_m, walls, gamma_db = geometry
    scenario = replace(config.scenario, subarea_side_m=side_m, wall_count=walls)
    for kind in SCHEDULER_NAMES:
        run = SimulationConfig(scenario, config.timing, config.traffic,
                               gamma_db=gamma_db, scheduler=kind, seed=config.seed)
        records = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # gamma below MCS 0
            run_simulation(run, txop_trace=records)
        last_arrival: dict[int, float] = {}
        for n, rec in enumerate(records):
            for slot in rec.slots:
                for tx in slot.transmissions:
                    for _, arrival_s, sta in tx.taken:
                        assert arrival_s >= last_arrival.get(sta, arrival_s), (
                            kind, n, sta)
                        last_arrival[sta] = arrival_s


def _trace_delays(records, timing):
    """Every burst's (delay, packets) rebuilt from the trace: each slot's
    delivery instant summed as run_txop sums it, less the arrival time of
    each burst the slot sent from."""
    slot_us = timing.map_tf_us + timing.te_us + timing.slot_overhead_us
    values, counts = [], []
    for rec in records:
        consumed = rec.handshake_us
        for slot in rec.slots:
            consumed += slot_us + slot.duration_us
            delivery_s = rec.start_time_s + consumed * 1e-6
            for tx in slot.transmissions:
                for k, arrival_s, _ in tx.taken:
                    values.append(delivery_s - arrival_s)
                    counts.append(k)
    return np.repeat(np.asarray(values, dtype=float), np.asarray(counts, dtype=np.int64))


@settings(max_examples=60, deadline=None)
@given(configs(), st.sampled_from(GEOMETRIES))
def test_booked_delays_equal_the_trace(config, geometry):
    # the run books its runs per AP and slot and expands them after its
    # last TXOP; the trace lists every burst, so the two must agree exactly
    side_m, walls, gamma_db = geometry
    scenario = replace(config.scenario, subarea_side_m=side_m, wall_count=walls)
    for kind in SCHEDULER_NAMES:
        run = SimulationConfig(scenario, config.timing, config.traffic,
                               gamma_db=gamma_db, scheduler=kind, seed=config.seed)
        records = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # gamma below MCS 0
            report = run_simulation(run, txop_trace=records)
        delays = _trace_delays(records, config.timing)
        assert len(delays) == report.packets_delivered, kind
        assert np.array_equal(np.sort(delays), report.delays_sorted_s), kind
        if len(delays):
            assert float(delays.mean()) == report.mean_delay_s, kind
