"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The figure-level criteria
target qualitative orderings on fixed seeds; measured values are printed so
the magnitudes can be inspected. Single-deployment criteria use seed 1, the
suite-wide default.
"""

import csv
import math
import time

import numpy as np
import pytest

from mapcsim import (Campaign, ScenarioConfig, SchedulerKind,
                     SimulationConfig, TimingConfig, TrafficConfig,
                     build_rssi_matrix, draw_arrivals, generate_grid_deployment,
                     group_feasible, path_loss_db, run_campaign,
                     run_simulation, select_group, step_arrivals)
from mapcsim.engine import SimState
from mapcsim.stats import nearest_rank
from mapcsim.grouping import build_all_groups
from oracles import (feasible_family, feasible_reference, path_loss_reference,
                     select_reference)

SEED = 1
NOISE = -94.0


def _report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\n[criterion {criterion:2d}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_01_path_loss_unit_suite():
    start = time.perf_counter()
    points = [(d, fc, wn)
              for d in (0.3, 1.0, 2.0, 5.0, 9.999, 10.0, 10.001, 12.0, 20.0,
                        35.0, 60.0)
              for fc in (2.4, 5.0)
              for wn in (0, 3)]
    assert len(points) >= 20
    worst = 0.0
    for d, fc, wn in points:
        err = abs(path_loss_db(d, fc, wn) - path_loss_reference(d, fc, wn))
        worst = max(worst, err)
    assert worst < 0.01
    # hand-derived anchors
    assert path_loss_db(1, 2.4, 3) == pytest.approx(61.05, abs=0.01)
    assert path_loss_db(10, 2.4, 3) == pytest.approx(81.05, abs=0.01)
    assert path_loss_db(20, 5, 3) == pytest.approx(97.96, abs=0.01)
    # continuity at the breakpoint
    for bp in (5.0, 10.0):
        jump = abs(path_loss_db(bp - 1e-6, 5.0, 3, bp)
                   - path_loss_db(bp + 1e-6, 5.0, 3, bp))
        assert jump < 0.01
    elapsed = time.perf_counter() - start
    _report(1, elapsed < 1.0,
            f"{len(points)} points, max |err| {worst:.2e} dB, "
            f"breakpoint continuous, {elapsed:.2f}s (< 1s)")


def test_criterion_02_sinr_feasibility_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    checked = 0
    for _ in range(200):
        n_aps = int(rng.integers(2, 6))
        stas = int(rng.integers(1, 4))
        rssi = rng.uniform(-95, -40, size=(n_aps, n_aps * stas))
        by_ap = tuple(tuple(range(i * stas, (i + 1) * stas))
                      for i in range(n_aps))
        gamma = float(rng.choice([5.0, 10.0, 14.0, 20.0, 25.0])
                      + rng.uniform(-1, 1))
        for mask in range(1, 1 << n_aps):
            members = tuple(a for a in range(n_aps) if mask & (1 << a))
            assert group_feasible(members, rssi, by_ap, NOISE, gamma) == \
                feasible_reference(members, rssi, by_ap, NOISE, gamma)
            checked += 1
    elapsed = time.perf_counter() - start
    _report(2, elapsed < 10.0,
            f"200 instances, {checked} subsets agree with the brute-force "
            f"station loop, {elapsed:.2f}s (< 10s)")


def test_criterion_03_group_formation_soundness():
    start = time.perf_counter()
    cfg = ScenarioConfig()
    total_groups = 0
    for dep_seed in range(100):
        dep = generate_grid_deployment(cfg, np.random.default_rng(dep_seed))
        rssi = build_rssi_matrix(dep, cfg)
        groups = build_all_groups(rssi, dep, cfg.noise_dbm, 20.0, 3)
        family = feasible_family(9, rssi, dep.stations_by_ap, cfg.noise_dbm,
                                 20.0)
        assert len(groups.groups) <= 9
        for g in groups.groups:
            assert len(g) <= 3
            assert feasible_reference(g, rssi, dep.stations_by_ap,
                                      cfg.noise_dbm, 20.0)
            assert frozenset(g) in family
            total_groups += 1
    elapsed = time.perf_counter() - start
    _report(3, elapsed < 30.0,
            f"100 deployments, {total_groups} groups all sound, capped at 3, "
            f"within the enumerated feasible family, {elapsed:.2f}s (< 30s)")


def test_criterion_04_scheduler_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    from mapcsim.grouping import GroupSet

    n_aps = 9
    for state in range(10_000):
        member_lists = [(a,) for a in range(n_aps)]
        for _ in range(int(rng.integers(0, 5))):
            size = int(rng.integers(2, 4))
            member_lists.append(tuple(
                int(a) for a in rng.choice(n_aps, size=size, replace=False)))
        groups = GroupSet(member_lists)
        counts = [int(c) for c in rng.integers(0, 4, size=n_aps)]
        now = 1.0
        # discrete waits make ties common
        oldest = [None if c == 0 else now - float(rng.integers(0, 4)) / 200.0
                  for c in counts]
        heads = [math.inf if t is None else t for t in oldest]
        for kind in SchedulerKind:
            got = select_group(kind, groups, counts, heads, now)
            want = select_reference(kind.value, member_lists, counts, oldest,
                                    now)
            assert got == want, (kind, counts, oldest, member_lists, got, want)
    elapsed = time.perf_counter() - start
    _report(4, elapsed < 10.0,
            f"10000 random buffer states x 6 kinds match the exhaustive "
            f"scorer, {elapsed:.2f}s (< 10s)")


def test_criterion_05_traffic_calibration():
    cfg = ScenarioConfig()
    traffic = TrafficConfig(load_bps_per_sta=6e6)
    timing = TimingConfig()
    dep = generate_grid_deployment(cfg, np.random.default_rng(SEED))
    rng = np.random.default_rng(505)
    periods = 100_000
    p = 0.25  # 6 Mbps with 10 x 1500 B bursts every 5 ms
    state = SimState(draw_arrivals(dep, p, rng, periods), traffic, timing.period_s,
                     SchedulerKind.NUMPK_SINGLE)
    arrived_packets = 0
    for n in range(periods):
        arrived_packets += step_arrivals(state, n)
    bursts = arrived_packets / traffic.burst_packets
    freq = bursts / (periods * dep.num_stations)
    freq_err = abs(freq - p) / p
    offered_per_sta = (arrived_packets * traffic.packet_bits
                       / dep.num_stations / (periods * timing.period_s))
    load_err = abs(offered_per_sta - 6e6) / 6e6
    _report(5, freq_err < 0.01 and load_err < 0.01,
            f"burst frequency {freq:.5f} (target 0.25, rel err "
            f"{freq_err * 100:.3f}%), offered {offered_per_sta / 1e6:.4f} "
            f"Mbps/STA (rel err {load_err * 100:.3f}%), both < 1%")


def test_criterion_06_conservation_and_budget():
    cfg = ScenarioConfig()
    timing = TimingConfig(num_txops=2000)
    ok = True
    details = []
    for kind, load in (("numpk-single", 6e6), ("ctdma-oldpk", 8e6),
                       ("oldpk-group", 1e6)):
        trace = []
        rep = run_simulation(
            SimulationConfig(cfg, timing, TrafficConfig(load_bps_per_sta=load),
                             20.0, 3, kind, seed=SEED),
            txop_trace=trace)
        conserved = rep.packets_arrived == rep.packets_delivered + rep.packets_remaining
        within_cap = all(rec.total_duration_us <= timing.txop_max_us + 1e-9
                         for rec in trace)
        occ_ok = bool(np.all((rep.per_txop_occupancy >= 0.0)
                             & (rep.per_txop_occupancy <= 1.0)))
        ok = ok and conserved and within_cap and occ_ok
        details.append(f"{kind}@{load / 1e6:g}Mbps arrived={rep.packets_arrived}")
    _report(6, ok, "arrived = delivered + remaining, TXOPs <= 3 ms, "
                   "occupancy in [0,1] for " + "; ".join(details))


def _sweep(kind, gamma, k, loads, timing, cfg):
    out = {}
    for load in loads:
        rep = run_simulation(SimulationConfig(
            cfg, timing, TrafficConfig(load_bps_per_sta=load * 1e6), gamma, k,
            kind, seed=SEED))
        out[load] = rep
    return out


def test_criterion_07_throughput_delay_ordering():
    start = time.perf_counter()
    cfg = ScenarioConfig()
    timing = TimingConfig(num_txops=2000)
    loads = list(range(1, 10))
    sr_kinds = ("numpk-single", "numpk-group", "oldpk-single", "oldpk-group")
    ctdma_kinds = ("ctdma-numpk", "ctdma-oldpk")
    reports = {kind: _sweep(kind, 20.0, 3, loads, timing, cfg)
               for kind in sr_kinds + ctdma_kinds}
    sat_sr = {kind: reports[kind][9].throughput_bps for kind in sr_kinds}
    sat_ctdma = {kind: reports[kind][9].throughput_bps for kind in ctdma_kinds}
    thr_ok = max(sat_ctdma.values()) < min(sat_sr.values())
    delay_ok = all(
        reports[sr][load].mean_delay_s < reports[ct][load].mean_delay_s
        for sr in sr_kinds for ct in ctdma_kinds for load in (6, 8))
    elapsed = time.perf_counter() - start
    _report(7, thr_ok and delay_ok and elapsed < 120.0,
            f"saturation thr: c-TDMA max {max(sat_ctdma.values()) / 1e6:.1f} "
            f"Mbps < SR min {min(sat_sr.values()) / 1e6:.1f} Mbps; SR mean "
            f"delay < c-TDMA at 6 and 8 Mbps/STA; {elapsed:.0f}s (< 120s)")


def test_criterion_08_gamma_k_tradeoff():
    start = time.perf_counter()
    cfg = ScenarioConfig()
    timing = TimingConfig(num_txops=2000)
    loads = list(range(1, 10))
    curves = {(gamma, k): _sweep("numpk-single", gamma, k, loads, timing, cfg)
              for gamma in (14.0, 20.0) for k in (2, 3)}
    # saturation plateau, measured at the top load; 1% band treats the
    # stochastic plateau difference as equality
    sat_14_k2 = curves[(14.0, 2)][9].throughput_bps
    sat_14_k3 = curves[(14.0, 3)][9].throughput_bps
    low_gamma_ok = sat_14_k3 <= sat_14_k2 * 1.01
    # highest load where K=2 at gamma=20 still delivers ~everything offered
    offered = {load: load * 1e6 * cfg.num_stations for load in loads}
    presat = [load for load in loads
              if curves[(20.0, 2)][load].throughput_bps >= 0.95 * offered[load]]
    pivot = max(presat) if presat else loads[0]
    thr_k2 = curves[(20.0, 2)][pivot].throughput_bps
    thr_k3 = curves[(20.0, 3)][pivot].throughput_bps
    high_gamma_ok = thr_k3 >= thr_k2 * 0.99
    elapsed = time.perf_counter() - start
    _report(8, low_gamma_ok and high_gamma_ok and elapsed < 240.0,
            f"gamma=14: K3 {sat_14_k3 / 1e6:.2f} <= K2 {sat_14_k2 / 1e6:.2f} "
            f"Mbps (1% band); gamma=20 at {pivot} Mbps/STA: K3 "
            f"{thr_k3 / 1e6:.2f} >= K2 {thr_k2 / 1e6:.2f} Mbps; "
            f"{elapsed:.0f}s (< 240s)")


def test_criterion_09_random_deployment_cdfs(tmp_path):
    start = time.perf_counter()
    campaign = Campaign(timing=TimingConfig(num_txops=2000),
                        loads_mbps=(8.0,), gammas_db=(20.0,), k_values=(3,),
                        num_deployments=100, base_seed=SEED)
    paths = run_campaign(campaign, out_dir=tmp_path, workers=2)
    with open(paths["per_run"]) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 600
    medians = {}
    for kind in campaign.schedulers:
        samples = [float(r["p95_delay_s"]) for r in rows
                   if r["scheduler"] == kind]
        assert len(samples) == 100
        medians[kind] = nearest_rank(np.sort(samples), 0.5)
    sr_kinds = ("numpk-single", "numpk-group", "oldpk-single", "oldpk-group")
    gaps = [medians[ct] - medians[sr]
            for ct in ("ctdma-numpk", "ctdma-oldpk") for sr in sr_kinds]
    ctdma_right_of_sr = all(g > 0 for g in gaps)
    # number-of-packets policies beat oldest-packet ones, matched by class
    numpk_ok = (medians["numpk-single"] <= medians["oldpk-single"] + 1e-12
                and medians["numpk-group"] <= medians["oldpk-group"] + 1e-12
                and medians["ctdma-numpk"] <= medians["ctdma-oldpk"] + 1e-12)
    elapsed = time.perf_counter() - start
    _report(9, ctdma_right_of_sr and numpk_ok and elapsed < 300.0,
            f"100 deployments at 8 Mbps/STA: median p95 gap c-TDMA vs SR in "
            f"[{min(gaps) * 1e3:.1f}, {max(gaps) * 1e3:.1f}] ms (> 0); NumPk "
            f"median <= OldPk median per class; {elapsed:.0f}s "
            f"(< 300s at 2000 TXOPs)")


def test_criterion_10_campaign_determinism(tmp_path):
    campaign = Campaign(timing=TimingConfig(num_txops=150),
                        loads_mbps=(6.0,),
                        schedulers=("numpk-single", "ctdma-numpk"),
                        num_deployments=2, base_seed=3)
    first = run_campaign(campaign, out_dir=tmp_path / "a")
    second = run_campaign(campaign, out_dir=tmp_path / "b")
    identical = all(first[name].read_bytes() == second[name].read_bytes()
                    for name in first)
    _report(10, identical,
            "identical campaign config reruns produce byte-identical CSVs "
            f"({len(first)} files compared)")
