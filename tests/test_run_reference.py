"""`run_simulation` against the from-scratch simulator of `run_reference.py`
over small random configs: grids of 1x1 to 4x4 APs, stations per subarea,
subarea side, walls, gamma (also below the MCS-0 threshold, where groups
hold stations no MCS serves), K, burst size, packet size, a shift of every
MCS threshold, load, TXOP cap, slot overhead and handshake switch, every
scheduler kind, 50-300 TXOPs per run; and a few shorter runs on 7x7 to 8x8
grids, where a run keeps its controller view in numpy vectors. Every TXOP,
the MCS of every A-MPDU segment and every report field must agree exactly."""

import math
import warnings
from dataclasses import fields, replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mapcsim import (SCHEDULER_NAMES, McsTable, MetricsReport, ScenarioConfig,
                     SimulationConfig, TimingConfig, TrafficConfig,
                     build_environment, build_rssi_matrix, data_rate_bps, default_mcs_table,
                     generate_grid_deployment, run_simulation)
from mapcsim.engine import LIST_VIEW_MAX_APS
import views
from run_reference import _link_airtimes, reference_run

MCS_TABLE = default_mcs_table()
DEFAULT_TIMING = TimingConfig()


@st.composite
def configs(draw, sides=st.integers(1, 4), stations=st.integers(1, 4),
            subarea_m=st.floats(5.0, 60.0), walls=st.integers(0, 6),
            txops=st.integers(50, 300), p_percent=st.integers(0, 99)):
    scenario = ScenarioConfig(
        subarea_rows=draw(sides, label="rows"),
        subarea_cols=draw(sides, label="cols"),
        stations_per_subarea=draw(stations, label="stations_per_subarea"),
        subarea_side_m=draw(subarea_m, label="subarea_side_m"),
        wall_count=draw(walls, label="wall_count"))
    burst = draw(st.integers(1, 12), label="burst_packets")
    packet_bytes = draw(st.integers(64, 1500), label="packet_bytes")
    packet_bits = packet_bytes * 8
    top_load = burst * packet_bits / DEFAULT_TIMING.period_s  # the load of p = 1
    # a shift moves which MCS each link gets, never a rate
    shift_db = draw(st.floats(-4.0, 8.0), label="mcs_shift_db")
    mcs_table = McsTable(tuple(s + shift_db for s in MCS_TABLE.min_sinrs),
                         MCS_TABLE.bits_per_symbol)
    overhead_us = draw(st.sampled_from([0.0, 16.0, 60.5]), label="slot_overhead_us")
    if draw(st.booleans(), label="exact_fit"):
        # a first slot with room for exactly a whole number of packets at
        # one MCS, which only plan_slot's 1e-9 fit slack lets through whole
        mcs = draw(st.integers(0, len(MCS_TABLE) - 1), label="mcs")
        packet_us = packet_bits / data_rate_bps(mcs, MCS_TABLE, DEFAULT_TIMING) * 1e6
        fixed_us = (DEFAULT_TIMING.handshake_us + DEFAULT_TIMING.map_tf_us
                    + DEFAULT_TIMING.te_us + overhead_us + DEFAULT_TIMING.phy_preamble_us)
        packets = draw(st.integers(1, int((4900.0 - fixed_us) // packet_us)), label="packets")
        txop_max_ms = (fixed_us + packets * packet_us) * 1e-3
    else:
        # above the 382 us of handshake, one slot's fixed frames and one
        # 1500 B packet (the largest drawn) at the top MCS, plus the slot
        # overhead
        txop_max_ms = draw(st.floats(0.383 + overhead_us * 1e-3, 4.9), label="txop_max_ms")
    timing = TimingConfig(
        txop_max_ms=txop_max_ms,
        slot_overhead_us=overhead_us,
        num_txops=draw(txops, label="num_txops"),
        always_handshake=draw(st.booleans(), label="always_handshake"))
    # p in whole per cent, so most runs carry traffic
    p = draw(p_percent, label="p_percent") / 100
    traffic = TrafficConfig(load_bps_per_sta=p * top_load, burst_packets=burst,
                            packet_bytes=packet_bytes)
    return SimulationConfig(scenario, timing, traffic,
                            # in tenths of a dB: a float draw would sit at 0 dB
                            # in most examples
                            gamma_db=draw(st.integers(-50, 300), label="gamma_tenths_db") / 10,
                            max_group_size=draw(st.integers(1, 4), label="K"),
                            seed=draw(st.integers(0, 10**6), label="seed"),
                            mcs_table=mcs_table)


def _engine_txops(records, source, config):
    """The trace in the reference's terms: per TXOP (handshake_us, slots,
    total_us), per slot (members, (ap, station, mcs, packets) per segment,
    duration_us), each segment's MCS the one whose per-packet airtime its
    station has in the set's dict of the run's airtime table (see views)."""
    airtimes = build_environment(config).airtimes
    return [(rec.handshake_us,
             [(slot.members,
               [(tx[0], sta, mcs, k) for tx in slot.transmissions
                for sta, mcs, k in views.segments(
                    tx, source, views.mcs_labels(airtimes[slot.members], config))],
               slot.duration_us) for slot in rec.slots],
             rec.total_duration_us) for rec in records]


def _with_reference_mcs(config, txops):
    """The reference's trace with each segment's MCS in the slot's AP set, as
    `run_reference._link_airtimes` works it out on the run's deployment."""
    deploy_ss, _ = np.random.SeedSequence(config.seed).spawn(2)
    deployment = generate_grid_deployment(config.scenario, np.random.default_rng(deploy_ss))
    rssi = build_rssi_matrix(deployment, config.scenario)
    links = {}

    def mcs(members, ap, sta):
        if members not in links:
            links[members] = _link_airtimes(members, rssi, deployment.stations_by_ap, config)
        return links[members][ap][sta][0]

    return [(handshake,
             [(members, [(ap, sta, mcs(members, ap, sta), k) for ap, sta, k in segments],
               duration) for members, segments, duration in slots],
             total) for handshake, slots, total in txops]


def _assert_same_report(report, want, kind):
    for field in fields(MetricsReport):
        got, expected = getattr(report, field.name), want[field.name]
        if isinstance(got, np.ndarray):
            assert got.dtype == expected.dtype, (kind, field.name)
            assert np.array_equal(got, expected), (kind, field.name)
        elif isinstance(got, float) and math.isnan(got):
            assert math.isnan(expected), (kind, field.name)
        else:
            assert (type(got), got) == (type(expected), expected), (kind, field.name)


@settings(max_examples=40, deadline=None)
@given(configs())
def test_runs_equal_the_reference_simulator(config):
    _assert_runs_equal_the_reference(config)


# 7x7 to 8x8 grids, more than LIST_VIEW_MAX_APS APs, where a run keeps its
# controller view in numpy vectors: a few short runs, on geometries where
# links are usable and on weak links, which re-queue unservable bursts.
def large_configs(subarea_m, walls):
    return configs(sides=st.integers(7, 8), stations=st.integers(1, 2),
                   subarea_m=subarea_m, walls=walls, txops=st.integers(20, 60),
                   p_percent=st.integers(5, 99))


@settings(max_examples=6, deadline=None)
@given(large_configs(st.floats(8.0, 20.0), st.integers(0, 2)))
def test_vector_view_runs_equal_the_reference_simulator(config):
    assert config.scenario.num_aps > LIST_VIEW_MAX_APS
    _assert_runs_equal_the_reference(config)


@settings(max_examples=6, deadline=None)
@given(large_configs(st.floats(50.0, 60.0), st.integers(4, 6)))
def test_vector_view_weak_link_runs_equal_the_reference_simulator(config):
    assert config.scenario.num_aps > LIST_VIEW_MAX_APS
    _assert_runs_equal_the_reference(config)


def _assert_runs_equal_the_reference(config):
    for kind in SCHEDULER_NAMES:
        run = replace(config, scheduler=kind)
        records = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # gamma below MCS 0
            report = run_simulation(run, txop_trace=records)
        want_txops, want = reference_run(run)
        want_txops = _with_reference_mcs(run, want_txops)
        got_txops = _engine_txops(records, views.fresh_state(run), run)
        assert len(got_txops) == len(want_txops), kind
        for n, (got, expected) in enumerate(zip(got_txops, want_txops)):
            assert got == expected, (kind, n)
        _assert_same_report(report, want, kind)
