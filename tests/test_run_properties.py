"""Whole-run properties over small random configs: every scheduler kind on
grids of 1x1 to 4x4 APs, with random load, burst size, TXOP cap and
handshake switch, up to 200 TXOPs per run; per-station FIFO order and the
booked delays also on weak links and below the MCS-0 threshold; and the
relations between kinds that hold by construction on random geometries of
up to 5x5 APs."""

import warnings
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapcsim import (SCHEDULER_NAMES, ScenarioConfig, SimulationConfig,
                     TimingConfig, TrafficConfig, run_simulation)
import views

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
    arrived = config.traffic.burst_packets * np.asarray(
        views.run_schedule(config).bounds[1:])
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
        source = views.fresh_state(run)
        last_arrival: dict[int, float] = {}
        for n, rec in enumerate(records):
            for slot in rec.slots:
                for tx in slot.transmissions:
                    for _, arrival_s, sta in views.taken(tx, source):
                        assert arrival_s >= last_arrival.get(sta, arrival_s), (
                            kind, n, sta)
                        last_arrival[sta] = arrival_s


def _trace_delays(records, timing, source):
    """Every burst's (delay, packets) rebuilt from the trace: each slot's
    delivery instant summed as run_txop sums it, less the arrival time of
    each burst the slot sent from, read through `source` (see views)."""
    slot_us = timing.map_tf_us + timing.te_us + timing.slot_overhead_us
    values, counts = [], []
    for rec in records:
        consumed = rec.handshake_us
        for slot in rec.slots:
            consumed += slot_us + slot.duration_us
            delivery_s = rec.start_time_s + consumed * 1e-6
            for tx in slot.transmissions:
                for k, arrival_s, _ in views.taken(tx, source):
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
        delays = _trace_delays(records, config.timing, views.fresh_state(run))
        assert len(delays) == report.packets_delivered, kind
        assert np.array_equal(np.sort(delays), report.delays_sorted_s), kind
        if len(delays):
            assert float(delays.mean()) == report.mean_delay_s, kind


NUMPK_KINDS = ("numpk-single", "numpk-group", "ctdma-numpk")
OLDPK_KINDS = ("oldpk-single", "oldpk-group", "ctdma-oldpk")


@st.composite
def geometries(draw):
    """A random small deployment, radio band, load, gamma and K."""
    scenario = ScenarioConfig(
        subarea_rows=draw(st.integers(1, 5), label="rows"),
        subarea_cols=draw(st.integers(1, 5), label="cols"),
        subarea_side_m=draw(st.floats(2.0, 60.0), label="subarea_side_m"),
        wall_count=draw(st.integers(0, 6), label="wall_count"),
        stations_per_subarea=draw(st.integers(1, 6), label="stations_per_subarea"),
        carrier_freq_ghz=draw(st.sampled_from([2.4, 5.0, 6.0]), label="carrier_freq_ghz"))
    burst = draw(st.sampled_from([1, 3, 10]), label="burst_packets")
    top_mbps = burst * PACKET_BITS / TimingConfig().period_s / 1e6  # the load of p = 1
    load_mbps = draw(st.floats(0.5, min(9.0, 0.999 * top_mbps)), label="load_mbps")
    return SimulationConfig(
        scenario, TimingConfig(num_txops=300),
        TrafficConfig(load_bps_per_sta=load_mbps * 1e6, burst_packets=burst),
        # in tenths of a dB: a float draw would sit at 0 dB in most examples
        gamma_db=draw(st.integers(-50, 200), label="gamma_tenths_db") / 10,
        max_group_size=draw(st.integers(1, 4), label="K"),
        seed=draw(st.integers(0, 10**6), label="seed"))


def _reports(config):
    """kind -> the report of every kind on `config`, as bytes and exact
    values: a NaN mean delay (nothing delivered) never equals itself, its
    repr does. Below the lowest MCS threshold every run must warn."""
    below = config.gamma_db < config.mcs_table.min_sinrs[0]
    reports = {}
    for kind in SCHEDULER_NAMES:
        with pytest.warns(UserWarning, match="below the lowest MCS") if below else nullcontext():
            report = run_simulation(replace(config, scheduler=kind))
        # d: packets are conserved and the TXOP is never overrun, up to
        # plan_slot's 1e-9 fit slack
        assert report.packets_arrived == (report.packets_delivered
                                          + report.packets_remaining), kind
        occupancy = report.per_txop_occupancy
        assert 0.0 <= occupancy.min() and occupancy.max() <= 1.0 + 1e-9, kind
        reports[kind] = (report.delays_sorted_s.tobytes(), occupancy.tobytes(),
                         repr(report.mean_delay_s), repr(report.throughput_bps),
                         report.packets_delivered, report.packets_remaining)
    return reports


@settings(max_examples=30)
@given(geometries())
def test_kinds_relate_alike_on_any_geometry(config):
    reports = _reports(config)
    # a: at K = 1 every group is a singleton; b: at 300 dB no two APs can
    # share a slot. Either way a kind's per-AP and per-Group rules pick the
    # same AP set as its c-TDMA one.
    for point in (replace(config, max_group_size=1), replace(config, gamma_db=300.0)):
        at_point = _reports(point)
        for kinds in (NUMPK_KINDS, OLDPK_KINDS):
            assert len({at_point[kind] for kind in kinds}) == 1, (point, kinds)
            # c: the c-TDMA kinds do not depend on gamma or K
            assert at_point[kinds[-1]] == reports[kinds[-1]], (point, kinds)
