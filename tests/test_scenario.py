import numpy as np
import pytest

from mapcsim import Deployment, ScenarioConfig, generate_grid_deployment, nearest_ap_association
from mapcsim.scenario import MIN_AP_STATION_DISTANCE_M


def test_default_grid_ap_positions():
    dep = generate_grid_deployment(ScenarioConfig(), np.random.default_rng(0))
    expected = [(5, 5), (15, 5), (25, 5), (5, 15), (15, 15), (25, 15),
                (5, 25), (15, 25), (25, 25)]
    assert dep.ap_positions.tolist() == [[float(x), float(y)] for x, y in expected]
    assert dep.num_aps == 9
    assert dep.num_stations == 27
    assert dep.sharing_ap_id == 4  # grid-center AP


def test_single_subarea():
    cfg = ScenarioConfig(subarea_rows=1, subarea_cols=1, stations_per_subarea=1)
    dep = generate_grid_deployment(cfg, np.random.default_rng(3))
    assert dep.ap_positions.tolist() == [[5.0, 5.0]]
    x, y = dep.station_positions[0]
    assert 0 <= x <= 10 and 0 <= y <= 10
    assert dep.association.tolist() == [0]
    assert dep.sharing_ap_id == 0


def test_same_seed_same_deployment():
    cfg = ScenarioConfig()
    a = generate_grid_deployment(cfg, np.random.default_rng(42))
    b = generate_grid_deployment(cfg, np.random.default_rng(42))
    assert np.array_equal(a.station_positions, b.station_positions)
    assert np.array_equal(a.association, b.association)
    # byte-identical via the JSON dump as well
    assert a.to_jsonable() == b.to_jsonable()


def test_stations_inside_their_subarea_and_off_the_ap():
    cfg = ScenarioConfig(stations_per_subarea=20)
    dep = generate_grid_deployment(cfg, np.random.default_rng(7))
    side = cfg.subarea_side_m
    for sta, ap in enumerate(dep.association):
        r, c = divmod(int(ap), cfg.subarea_cols)
        x, y = dep.station_positions[sta]
        assert c * side <= x <= (c + 1) * side
        assert r * side <= y <= (r + 1) * side
        d = np.hypot(*(dep.station_positions[sta] - dep.ap_positions[ap]))
        assert d >= MIN_AP_STATION_DISTANCE_M


def test_association_matches_subarea_membership():
    cfg = ScenarioConfig(stations_per_subarea=40)  # ~360 stations
    rng = np.random.default_rng(11)
    for _ in range(3):
        dep = generate_grid_deployment(cfg, rng)
        subarea = []
        for x, y in dep.station_positions:
            r = min(int(y // cfg.subarea_side_m), cfg.subarea_rows - 1)
            c = min(int(x // cfg.subarea_side_m), cfg.subarea_cols - 1)
            subarea.append(r * cfg.subarea_cols + c)
        assert dep.association.tolist() == subarea


def test_nearest_ap_zero_distance_and_tie_break():
    aps = np.array([[5.0, 5.0], [15.0, 5.0]])
    assert nearest_ap_association(aps, np.array([[5.0, 5.0]])).tolist() == [0]
    # equidistant station goes to the lowest AP id
    assert nearest_ap_association(aps, np.array([[10.0, 5.0]])).tolist() == [0]


def test_nearest_ap_requires_aps():
    with pytest.raises(ValueError):
        nearest_ap_association(np.empty((0, 2)), np.array([[1.0, 1.0]]))


def test_deployment_json_roundtrip(tmp_path):
    dep = generate_grid_deployment(ScenarioConfig(), np.random.default_rng(5))
    path = tmp_path / "deployment.json"
    dep.save_json(path)
    loaded = Deployment.load_json(path)
    assert np.array_equal(loaded.ap_positions, dep.ap_positions)
    assert np.array_equal(loaded.station_positions, dep.station_positions)
    assert np.array_equal(loaded.association, dep.association)
    assert loaded.sharing_ap_id == dep.sharing_ap_id
    # same deployment dumps to identical bytes
    path2 = tmp_path / "again.json"
    loaded.save_json(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(subarea_side_m=0)
    with pytest.raises(ValueError):
        ScenarioConfig(stations_per_subarea=0)
    with pytest.raises(ValueError):
        ScenarioConfig(breakpoint_m=-1)
    with pytest.raises(ValueError):
        ScenarioConfig(subarea_rows=0)
    # non-physical geometry: NaN path loss, or fewer than zero walls
    for freq in (-5.0, 0.0, float("nan")):
        with pytest.raises(ValueError, match="carrier_freq_ghz"):
            ScenarioConfig(carrier_freq_ghz=freq)
    with pytest.raises(ValueError, match="wall_count"):
        ScenarioConfig(wall_count=-1)
    ScenarioConfig(wall_count=0)
