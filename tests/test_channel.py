import math

import numpy as np
import pytest

from mapcsim import (McsTable, ScenarioConfig, TimingConfig, build_rssi_matrix,
                     data_rate_bps, default_mcs_table, generate_grid_deployment,
                     group_feasible, group_sinr_db, path_loss_db, select_mcs,
                     station_sinr_db)
from oracles import feasible_reference, path_loss_reference, sinr_reference


def test_path_loss_hand_checked_points():
    assert path_loss_db(1, 2.4, 3) == pytest.approx(61.05, abs=1e-9)
    assert path_loss_db(10, 2.4, 3) == pytest.approx(81.05, abs=1e-9)
    # 40.05 + 26.375 + 10.536 + 21
    assert path_loss_db(20, 5, 3) == pytest.approx(97.96, abs=0.01)


def test_path_loss_matches_reference_grid():
    for d in (0.1, 0.5, 1, 3, 9.99, 10, 10.01, 15, 28.3, 100):
        for fc in (2.4, 5.0, 6.0):
            for wn in (0, 3, 7):
                assert path_loss_db(d, fc, wn) == pytest.approx(
                    path_loss_reference(d, fc, wn), abs=0.01)
    ds = np.array([[0.1, 9.99, 10.0], [10.01, 28.3, 100.0]])
    losses = path_loss_db(ds, 5.0, 3)
    assert losses.shape == ds.shape
    for d, loss in zip(ds.ravel(), losses.ravel()):
        assert loss == pytest.approx(path_loss_db(float(d), 5.0, 3), rel=0, abs=1e-12)


def test_path_loss_continuous_at_breakpoint():
    eps = 1e-6
    for bp in (5.0, 10.0):
        below = path_loss_db(bp - eps, 5.0, 3, bp)
        above = path_loss_db(bp + eps, 5.0, 3, bp)
        assert abs(below - above) < 0.01


def test_path_loss_monotone():
    ds = np.linspace(0.1, 60, 300)
    losses = [path_loss_db(d, 5.0, 3) for d in ds]
    assert all(b >= a for a, b in zip(losses, losses[1:]))
    assert path_loss_db(7, 5.0, 4) > path_loss_db(7, 5.0, 3)
    assert path_loss_db(7, 6.0, 3) > path_loss_db(7, 5.0, 3)


def test_path_loss_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        path_loss_db(0, 5.0, 3)
    with pytest.raises(ValueError):
        path_loss_db(-2, 5.0, 3)
    with pytest.raises(ValueError):
        path_loss_db(np.array([3.0, 0.0, 12.0]), 5.0, 3)


def test_rssi_matrix_values_and_shape():
    cfg = ScenarioConfig(carrier_freq_ghz=2.4)
    dep = generate_grid_deployment(cfg, np.random.default_rng(0))
    rssi = build_rssi_matrix(dep, cfg)
    assert rssi.shape == (9, 27)
    assert np.isfinite(rssi).all()
    for ap in range(dep.num_aps):
        for sta in range(dep.num_stations):
            d = np.hypot(*(dep.ap_positions[ap] - dep.station_positions[sta]))
            assert rssi[ap, sta] == pytest.approx(
                cfg.tx_power_dbm - path_loss_reference(d, 2.4, cfg.wall_count),
                abs=1e-9)


def test_rssi_at_ten_meters():
    # AP at (5,5), station at (5,15): 23 - 81.05 dBm
    cfg = ScenarioConfig(subarea_rows=1, subarea_cols=1, stations_per_subarea=1,
                         carrier_freq_ghz=2.4)
    dep = generate_grid_deployment(cfg, np.random.default_rng(0))
    dep.station_positions[0] = (5.0, 15.0)
    rssi = build_rssi_matrix(dep, cfg)
    assert rssi[0, 0] == pytest.approx(-58.05, abs=1e-9)


def test_rssi_finite_at_resampling_boundary():
    # closest allowed station: d = 0.1 m still yields a finite RSSI
    cfg = ScenarioConfig(subarea_rows=1, subarea_cols=1, stations_per_subarea=1)
    dep = generate_grid_deployment(cfg, np.random.default_rng(0))
    dep.station_positions[0] = (5.1, 5.0)
    rssi = build_rssi_matrix(dep, cfg)
    assert np.isfinite(rssi).all()
    assert rssi[0, 0] == pytest.approx(
        cfg.tx_power_dbm - path_loss_db(0.1, cfg.carrier_freq_ghz, cfg.wall_count))


def test_sinr_no_interferers_is_snr():
    rssi = np.array([[-58.05]])
    assert station_sinr_db(0, 0, (0,), rssi, -94.0) == pytest.approx(35.95, abs=1e-9)


def test_sinr_equal_power_interferer():
    rssi = np.array([[-60.0], [-60.0]])
    sinr = station_sinr_db(0, 0, (0, 1), rssi, -200.0)
    assert sinr == pytest.approx(0.0, abs=1e-6)


def test_sinr_linear_domain_sum():
    rssi = np.array([[-58.0], [-90.0]])
    sinr = station_sinr_db(0, 0, (0, 1), rssi, -94.0)
    assert sinr == pytest.approx(30.55, abs=0.05)
    assert sinr == pytest.approx(sinr_reference(0, 0, (0, 1), rssi, -94.0), abs=1e-12)
    # the station is also listed under AP 1, where AP 0 is the interferer
    yielded = list(group_sinr_db((0, 1), rssi, ((0,), (0,)), -94.0))
    assert [(ap, sta) for ap, sta, _ in yielded] == [(0, 0), (1, 0)]
    for ap, sta, value in yielded:
        assert value == pytest.approx(
            sinr_reference(ap, sta, (0, 1), rssi, -94.0), abs=1e-12)


def test_sinr_interferers_never_help():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = rng.integers(2, 6)
        rssi = rng.uniform(-95, -40, size=(n, 1))
        solo = station_sinr_db(0, 0, (0,), rssi, -94.0)
        group = station_sinr_db(0, 0, tuple(range(n)), rssi, -94.0)
        assert group <= solo + 1e-12


def _random_instance(rng, n_aps=4, stas=2):
    rssi = rng.uniform(-95, -45, size=(n_aps, n_aps * stas))
    stations_by_ap = tuple(tuple(range(i * stas, (i + 1) * stas))
                           for i in range(n_aps))
    return rssi, stations_by_ap


def test_group_feasible_matches_reference():
    rng = np.random.default_rng(21)
    for _ in range(50):
        rssi, by_ap = _random_instance(rng)
        gamma = rng.uniform(-5, 25)
        for mask in range(1, 1 << 4):
            members = tuple(a for a in range(4) if mask & (1 << a))
            assert group_feasible(members, rssi, by_ap, -94.0, gamma) == \
                feasible_reference(members, rssi, by_ap, -94.0, gamma)


def test_group_feasible_monotone_under_growth():
    # a feasible group stays feasible when members are removed
    rng = np.random.default_rng(22)
    for _ in range(50):
        rssi, by_ap = _random_instance(rng, n_aps=5)
        gamma = rng.uniform(0, 15)
        full = tuple(range(5))
        if not group_feasible(full, rssi, by_ap, -94.0, gamma):
            continue
        for mask in range(1, 1 << 5):
            members = tuple(a for a in range(5) if mask & (1 << a))
            assert group_feasible(members, rssi, by_ap, -94.0, gamma)


def test_group_feasible_trivial_cases():
    rssi = np.array([[-58.05, -70.0], [-80.0, -60.0]])
    by_ap = ((0,), (1,))
    assert group_feasible((0,), rssi, by_ap, -94.0, 20.0)       # SNR 35.95
    assert not group_feasible((0,), rssi, by_ap, -94.0, 36.0)
    assert group_feasible((0, 1), rssi, by_ap, -94.0, -1000.0)  # vacuous threshold
    with pytest.raises(ValueError):
        group_feasible((), rssi, by_ap, -94.0, 20.0)


def test_group_feasible_two_ap_boundary():
    # one station's SINR lands at 19.9 dB -> infeasible at gamma=20
    signal, noise = -55.0, -94.0
    target = 19.9
    interferer_mw = 10 ** (signal / 10) / 10 ** (target / 10) - 10 ** (noise / 10)
    interferer = 10 * math.log10(interferer_mw)
    rssi = np.array([[signal, -120.0], [interferer, -50.0]])
    by_ap = ((0,), (1,))  # AP1's own station is strong and barely interfered
    assert station_sinr_db(0, 0, (0, 1), rssi, noise) == pytest.approx(19.9, abs=1e-9)
    assert not group_feasible((0, 1), rssi, by_ap, noise, 20.0)
    assert group_feasible((0, 1), rssi, by_ap, noise, 19.89)


# ---------------------------------------------------------------------------
# link adaptation

def test_default_mcs_table_shape():
    table = default_mcs_table()
    assert len(table) == 11
    assert table.min_sinrs == (2, 5, 8, 11, 15, 18, 20, 22, 26, 28, 30)
    bits = [e.bits_per_symbol for e in table.entries]
    assert bits[0] == 117 and bits[7] == 1170 and bits[10] == 1755


def test_select_mcs_boundaries():
    table = default_mcs_table()
    assert select_mcs(-10.0, table) is None
    assert select_mcs(1.99, table) is None
    assert select_mcs(100.0, table) == 10
    assert select_mcs(18.0, table) == 5   # threshold inclusive
    assert select_mcs(17.99, table) == 4


def test_select_mcs_matches_linear_scan():
    table = default_mcs_table()
    rng = np.random.default_rng(4)
    for sinr in rng.uniform(-10, 60, size=10_000):
        expected = None
        for entry in table.entries:
            if sinr >= entry.min_sinr_db:
                expected = entry.index
        assert select_mcs(float(sinr), table) == expected


def test_data_rates():
    table = default_mcs_table()
    timing = TimingConfig()
    assert data_rate_bps(0, table, timing) == pytest.approx(8.60e6, rel=1e-3)
    assert data_rate_bps(7, table, timing) == pytest.approx(86.03e6, rel=1e-3)
    rates = [data_rate_bps(i, table, timing) for i in range(len(table))]
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_mcs_table_validation_and_roundtrip():
    table = default_mcs_table()
    again = McsTable.from_jsonable(table.to_jsonable())
    assert again == table
    rows = table.to_jsonable()
    rows[3][1] = rows[2][1]  # duplicate threshold
    with pytest.raises(ValueError):
        McsTable.from_jsonable(rows)
    # non-finite thresholds or payloads, and a payload that is not positive
    for pos, column, value in ((0, 1, float("nan")), (5, 1, float("nan")),
                               (10, 1, float("inf")), (0, 1, float("-inf")),
                               (3, 2, float("nan")), (10, 2, float("inf")),
                               (0, 2, 0.0), (0, 2, -117.0)):
        rows = table.to_jsonable()
        rows[pos][column] = value
        with pytest.raises(ValueError, match="MCS"):
            McsTable.from_jsonable(rows)
