import numpy as np
import pytest

from mapcsim import (Deployment, GroupSet, ScenarioConfig, build_all_groups,
                     build_group, build_rssi_matrix, candidate_order,
                     generate_grid_deployment)
from oracles import feasible_family, feasible_reference

NOISE = -94.0


def _grid_env(seed=0, **cfg_kwargs):
    cfg = ScenarioConfig(**cfg_kwargs)
    dep = generate_grid_deployment(cfg, np.random.default_rng(seed))
    return cfg, dep, build_rssi_matrix(dep, cfg)


def test_candidate_order_far_aps_first():
    cfg, dep, rssi = _grid_env(seed=2)
    order = candidate_order(0, rssi, dep)
    assert sorted(order) == list(range(1, 9))
    # independent key computation: worst-case (max) RSSI over AP0's stations
    cols = list(dep.stations_by_ap[0])
    keys = {ap: max(rssi[ap, s] for s in cols) for ap in order}
    assert order == sorted(order, key=lambda ap: (keys[ap], ap))
    # adjacent APs (1, 3) are heard loudest, so they sort after the far
    # diagonal AP 8
    assert order.index(8) < order.index(1)
    assert order.index(8) < order.index(3)


def test_candidate_order_single_other_ap():
    cfg, dep, rssi = _grid_env(subarea_rows=1, subarea_cols=2)
    assert candidate_order(0, rssi, dep) == [1]
    assert candidate_order(1, rssi, dep) == [0]


def test_candidate_order_tie_breaks_by_id():
    # two identical interferer columns -> identical keys -> id order
    rssi = np.array([[-50.0], [-70.0], [-70.0]])
    import mapcsim.scenario as scen
    dep = scen.Deployment(np.array([[0.0, 0], [10.0, 0], [20.0, 0]]),
                          np.array([[1.0, 0]]), np.array([0]), 0)
    assert candidate_order(0, rssi, dep) == [1, 2]


def _tuple_key_order(ref_ap, rssi, dep):
    """candidate_order by its definition: the other APs sorted by the key
    (loudest RSSI at the reference's stations, AP id)."""
    stations = dep.stations_by_ap[ref_ap]
    if not stations:
        return []
    loudest = rssi[:, list(stations)].max(axis=1).tolist()
    others = [ap for ap in range(dep.num_aps) if ap != ref_ap]
    return sorted(others, key=lambda ap: (loudest[ap], ap))


@pytest.mark.parametrize("rows, cols, seed", [(3, 3, 0), (4, 5, 1), (6, 6, 2), (12, 12, 3)])
def test_candidate_order_equals_tuple_key_sort(rows, cols, seed):
    cfg, dep, rssi = _grid_env(seed=seed, subarea_rows=rows, subarea_cols=cols)
    # AP 1's stations moved to AP 0, so AP 1 has none and AP 0's columns are
    # not one run of station ids
    association = dep.association.copy()
    association[association == 1] = 0
    emptied = Deployment(dep.ap_positions, dep.station_positions, association, 0)
    assert emptied.stations_by_ap[1] == ()
    # the drawn RSSIs, then the same rounded to whole dB so that many tie
    for deployment in (dep, emptied):
        for matrix in (rssi, np.round(rssi)):
            expected = [_tuple_key_order(ref, matrix, deployment)
                        for ref in range(deployment.num_aps)]
            for ref in range(deployment.num_aps):
                assert candidate_order(ref, matrix, deployment) == expected[ref]
    assert candidate_order(1, rssi, emptied) == []


def test_candidate_order_ties_on_hand_made_rssi():
    # five APs with one station each; every AP is heard alike by some
    # reference, and AP 2 has no station at all
    import mapcsim.scenario as scen
    dep = scen.Deployment(np.zeros((5, 2)), np.zeros((4, 2)), np.array([0, 1, 3, 4]), 0)
    rssi = np.array([[-50.0, -60.0, -60.0, -0.0],
                     [-60.0, -50.0, -60.0, 0.0],
                     [-60.0, -60.0, -60.0, -70.0],
                     [-70.0, -60.0, -50.0, -0.0],
                     [-60.0, -70.0, -60.0, 0.0]])
    for ref in range(5):
        assert candidate_order(ref, rssi, dep) == _tuple_key_order(ref, rssi, dep)
    assert candidate_order(0, rssi, dep) == [3, 1, 2, 4]
    assert candidate_order(2, rssi, dep) == []


def test_build_group_gamma_extremes():
    cfg, dep, rssi = _grid_env(seed=5)
    hopeless = build_group(0, rssi, dep, NOISE, 1000.0, 3)
    assert hopeless == (0,)
    easy = build_group(0, rssi, dep, NOISE, -1000.0, 3)
    assert len(easy) == 3
    assert easy == (0,) + tuple(candidate_order(0, rssi, dep)[:2])


def test_build_group_replays_greedy_walk_against_oracle():
    rng = np.random.default_rng(31)
    for trial in range(30):
        cfg, dep, rssi = _grid_env(seed=100 + trial, subarea_rows=1,
                                   subarea_cols=5, stations_per_subarea=2)
        gamma = float(rng.uniform(5, 25))
        replays = []
        for ref in range(dep.num_aps):
            group = build_group(ref, rssi, dep, NOISE, gamma, 3)
            # independent replay: greedy walk checked with the brute-force
            # feasibility loop
            members = [ref]
            for cand in candidate_order(ref, rssi, dep):
                if len(members) >= 3:
                    break
                if feasible_reference(members + [cand], rssi,
                                      dep.stations_by_ap, NOISE, gamma):
                    members.append(cand)
            assert group == tuple(members)
            replays.append(tuple(members))
        # the stored groups: the replays with each unordered set kept once,
        # in first-seen order, so the lowest reference wins
        kept = []
        for members in replays:
            if all(set(members) != set(other) for other in kept):
                kept.append(members)
        assert build_all_groups(rssi, dep, NOISE, gamma, 3).groups == tuple(kept)


def test_build_all_groups_singletons_at_huge_gamma():
    cfg, dep, rssi = _grid_env(seed=1)
    gs = build_all_groups(rssi, dep, NOISE, 1000.0, 3)
    assert gs.groups == tuple((ap,) for ap in range(9))
    assert all(gs.contains_index[ap] == (ap,) for ap in range(9))


def test_build_all_groups_dedup_mutually_compatible_pair():
    # APs 300 m apart, each with one nearby station: mutually compatible,
    # so both references yield the same pair and dedup keeps one group
    import mapcsim.scenario as scen
    cfg = ScenarioConfig()
    dep = scen.Deployment(np.array([[0.0, 0.0], [300.0, 0.0]]),
                          np.array([[1.0, 0.0], [301.0, 0.0]]),
                          np.array([0, 1]), 0)
    rssi = build_rssi_matrix(dep, cfg)
    gs = build_all_groups(rssi, dep, NOISE, 20.0, 2)
    assert len(gs.groups) == 1
    assert set(gs.groups[0]) == {0, 1}
    assert gs.groups[0][0] == 0  # lowest reference kept
    assert gs.to_jsonable() == [{"reference_ap": 0, "members": [0, 1]}]
    assert gs.contains_index[0] == (0,) and gs.contains_index[1] == (0,)


def test_every_ap_appears_in_some_group():
    for seed in range(5):
        cfg, dep, rssi = _grid_env(seed=seed)
        gs = build_all_groups(rssi, dep, NOISE, 20.0, 3)
        assert set(gs.contains_index) == set(range(9))
        assert all(gs.contains_index[ap] for ap in range(9))
        assert len(gs.groups) <= 9


def test_groups_sound_and_within_enumerated_family():
    for seed in range(10):
        cfg, dep, rssi = _grid_env(seed=seed, subarea_rows=1, subarea_cols=5,
                                   stations_per_subarea=2)
        family = feasible_family(5, rssi, dep.stations_by_ap, NOISE, 15.0)
        gs = build_all_groups(rssi, dep, NOISE, 15.0, 3)
        for g in gs.groups:
            assert len(g) <= 3
            assert frozenset(g) in family


def test_group_determinism():
    cfg, dep, rssi = _grid_env(seed=3)
    a = build_all_groups(rssi, dep, NOISE, 20.0, 3)
    b = build_all_groups(rssi, dep, NOISE, 20.0, 3)
    assert a.groups == b.groups


def test_group_size_monotone_in_gamma():
    for seed in range(20):
        cfg, dep, rssi = _grid_env(seed=seed)
        for lo, hi in ((10.0, 14.0), (14.0, 20.0), (20.0, 26.0)):
            for ref in range(dep.num_aps):
                loose = build_group(ref, rssi, dep, NOISE, lo, 3)
                strict = build_group(ref, rssi, dep, NOISE, hi, 3)
                assert len(strict) <= len(loose)


def test_zero_station_reference_forms_singleton():
    # AP 1 has no stations: it still gets its own (singleton) group but can
    # join others' groups
    rssi = np.array([[-50.0, -50.0], [-90.0, -90.0]])
    import mapcsim.scenario as scen
    dep = scen.Deployment(np.array([[0.0, 0], [30.0, 0]]),
                          np.array([[1.0, 0], [2.0, 0]]),
                          np.array([0, 0]), 0)
    assert dep.stations_by_ap == ((0, 1), ())
    assert candidate_order(1, rssi, dep) == []
    # and with no station anywhere, no AP has a candidate
    bare = scen.Deployment(dep.ap_positions, np.zeros((0, 2)), [], 0)
    assert [candidate_order(ap, np.empty((2, 0)), bare) for ap in range(2)] == [[], []]
    gs = build_all_groups(rssi, dep, NOISE, 20.0, 3)
    by_ref = {g[0]: g for g in gs.groups}
    assert by_ref[1] == (1,)
    assert by_ref[0] == (0, 1)  # AP 1 joined: station SINRs stay above 20


def test_group_validation():
    with pytest.raises(ValueError):
        GroupSet([(0,), ()])  # empty group
    with pytest.raises(ValueError):
        GroupSet([(0, 1, 1)])  # duplicate member
