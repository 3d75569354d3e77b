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
    assert np.array_equal(a.ap_positions, b.ap_positions)
    assert np.array_equal(a.station_positions, b.station_positions)
    assert np.array_equal(a.association, b.association)
    assert a.sharing_ap_id == b.sharing_ap_id


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


def _per_attempt_grid_deployment(config, rng):
    """Reference: the station placement loop generate_grid_deployment used to
    run, one `rng.random(2)` call, array and np.hypot per attempt."""
    side = config.subarea_side_m
    ap_positions = np.array([
        (c * side + side / 2.0, r * side + side / 2.0)
        for r in range(config.subarea_rows)
        for c in range(config.subarea_cols)
    ])
    stations = []
    for r in range(config.subarea_rows):
        for c in range(config.subarea_cols):
            ap_xy = ap_positions[r * config.subarea_cols + c]
            for _ in range(config.stations_per_subarea):
                while True:
                    xy = np.array([c * side, r * side]) + rng.random(2) * side
                    if np.hypot(*(xy - ap_xy)) >= MIN_AP_STATION_DISTANCE_M:
                        break
                stations.append(xy)
    return ap_positions, np.array(stations)


@pytest.mark.parametrize("side", [10.0, 60.0, 0.3, 0.25])
@pytest.mark.parametrize("rows, cols, per", [(1, 1, 1), (1, 3, 4), (3, 3, 3), (5, 4, 2),
                                             (12, 12, 3)])
def test_block_drawn_stations_equal_the_per_attempt_loop(rows, cols, per, side):
    # at 0.25-0.3 m subareas the 0.1 m minimum distance rejects about half
    # of the draws, so many pairs are used up by rejections
    cfg = ScenarioConfig(subarea_rows=rows, subarea_cols=cols, stations_per_subarea=per,
                         subarea_side_m=side)
    for seed in range(3):
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        dep = generate_grid_deployment(cfg, rng)
        ap_positions, station_positions = _per_attempt_grid_deployment(cfg, rng_ref)
        assert dep.ap_positions.tobytes() == ap_positions.tobytes()
        assert dep.station_positions.tobytes() == station_positions.tobytes()
        # the generator ends where the loop left it
        assert rng.bit_generator.state == rng_ref.bit_generator.state


def test_nearest_ap_zero_distance_and_tie_break():
    aps = np.array([[5.0, 5.0], [15.0, 5.0]])
    assert nearest_ap_association(aps, np.array([[5.0, 5.0]])).tolist() == [0]
    # equidistant station goes to the lowest AP id
    assert nearest_ap_association(aps, np.array([[10.0, 5.0]])).tolist() == [0]


def test_nearest_ap_requires_aps():
    with pytest.raises(ValueError):
        nearest_ap_association(np.empty((0, 2)), np.array([[1.0, 1.0]]))


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
    # non-finite geometry or radio constants: a NaN side never places a station
    for name in ("subarea_side_m", "carrier_freq_ghz", "tx_power_dbm",
                 "wall_count", "breakpoint_m", "noise_dbm"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=name):
                ScenarioConfig(**{name: value})
    ScenarioConfig(tx_power_dbm=-10.0, noise_dbm=-120.0)


def _valid_deployment_parts():
    dep = generate_grid_deployment(ScenarioConfig(), np.random.default_rng(5))
    return {"ap_positions": dep.ap_positions.tolist(),
            "station_positions": dep.station_positions.tolist(),
            "association": dep.association.tolist(),
            "sharing_ap_id": dep.sharing_ap_id}


@pytest.mark.parametrize("edit, match", [
    # station 0 would be filed under the last AP, and its arrivals fail later
    (lambda d: d["association"].__setitem__(0, -1), "association"),
    (lambda d: d["association"].__setitem__(0, 9), "association"),
    # the last station would belong to no AP
    (lambda d: d["association"].pop(), "association"),
    (lambda d: d["association"].append(0), "association"),
    # a NaN SINR would map to the top MCS
    (lambda d: d["station_positions"][0].__setitem__(0, float("nan")), "station_positions"),
    (lambda d: d["station_positions"][1].__setitem__(1, float("inf")), "station_positions"),
    (lambda d: d["ap_positions"][2].__setitem__(0, float("nan")), "ap_positions"),
    (lambda d: [xy.append(0.0) for xy in d["station_positions"]], "station_positions"),
    (lambda d: d.__setitem__("ap_positions", [0.0, 1.0]), "ap_positions"),
    # a fractional id would be truncated to another AP
    (lambda d: d["association"].__setitem__(slice(0, 3), [0.9, 1.5, 1]), "association"),
    (lambda d: d["association"].__setitem__(0, float("nan")), "association"),
    (lambda d: d["association"].__setitem__(0, "0"), "association"),
    (lambda d: d.__setitem__("sharing_ap_id", 0.7), "sharing_ap_id"),
    (lambda d: d.__setitem__("sharing_ap_id", None), "sharing_ap_id"),
    (lambda d: d.__setitem__("sharing_ap_id", [4]), "sharing_ap_id"),
], ids=["association-minus-1", "association-past-last-ap", "association-short",
        "association-long", "nan-station", "inf-station", "nan-ap",
        "station-3-coordinates", "ap-positions-1d", "association-fractional",
        "association-nan", "association-string", "sharing-fractional", "sharing-none",
        "sharing-list"])
def test_deployment_rejects_malformed_input(edit, match):
    parts = _valid_deployment_parts()
    Deployment(**parts)
    edit(parts)
    with pytest.raises(ValueError, match=match):
        Deployment(**parts)
