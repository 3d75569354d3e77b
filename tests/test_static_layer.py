"""The static layer of dense deployments, pinned where no campaign hash
looks: 12x12 grids at low gamma, where most AP pairs and many triples pass
the SINR test, with K 2-4, on the default geometry and with weak links.

Each case hashes the stored groups' member tuples and every AP set's
airtime dict with the MCS labels it implies, with floats by repr, so that one flipped SINR
threshold decision (a group member, or a station's MCS) changes the
digest. The digests were recorded with the earlier static stages, which
summed the SINR in numpy scalars and built the distances from
(AP x station x 2) difference arrays, so they hold the rewrite on Python
floats and in-place arrays to the same decisions. With weak links (60 m
cells, 5 walls) nearly every group is a singleton, so several K give one
digest there."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from mapcsim import (ScenarioConfig, SimulationConfig, TimingConfig,
                     TrafficConfig, build_all_groups, build_environment,
                     build_rssi_matrix, generate_grid_deployment)
from mapcsim.engine import clear_memos
import views

SCENARIOS = {
    "12x12": ScenarioConfig(subarea_rows=12, subarea_cols=12),
    "12x12-weak-links": ScenarioConfig(subarea_rows=12, subarea_cols=12,
                                       subarea_side_m=60.0, wall_count=5),
}
SEED = 2201
PINNED = {
    ("12x12", 5.0, 2):
        "6775d71b613d5c107b0f92c952b2f9400b15446832f49133cf4c0b3d8ba86b15",
    ("12x12", 5.0, 3):
        "a90b293fa20e06023df908695f2f2d682db68c67b52fe8f46951aa2f1c6e62c2",
    ("12x12", 5.0, 4):
        "7788c6bcb19efe435658c992370f67b641b25f17089c7a9ead45f8ba0f3b96e2",
    ("12x12", 10.0, 2):
        "6775d71b613d5c107b0f92c952b2f9400b15446832f49133cf4c0b3d8ba86b15",
    ("12x12", 10.0, 3):
        "16b2c1fd050267eff252153f851df4bff6f58b07d66993916017b624ccc0ec4f",
    ("12x12", 10.0, 4):
        "e2af12c508e5a3574a83f3fdaf8c89824a64241b63cba96e13023a55667199b5",
    ("12x12-weak-links", 5.0, 2):
        "2097eb7b1372a6603c1d506346828b2757ce27c82653e3f0f71d3d55a5824e7f",
    ("12x12-weak-links", 5.0, 3):
        "3961f8f9b3228268e96ebdcd45e30eca6d51562c472119fff069277b868efc5c",
    ("12x12-weak-links", 5.0, 4):
        "3961f8f9b3228268e96ebdcd45e30eca6d51562c472119fff069277b868efc5c",
    ("12x12-weak-links", 10.0, 2):
        "d188d360e71502bd0038f3adbbc94c546461fa39f9af8a61d71c13247ca8b722",
    ("12x12-weak-links", 10.0, 3):
        "d188d360e71502bd0038f3adbbc94c546461fa39f9af8a61d71c13247ca8b722",
    ("12x12-weak-links", 10.0, 4):
        "d188d360e71502bd0038f3adbbc94c546461fa39f9af8a61d71c13247ca8b722",
}


def _static_layer_digest(scenario, gamma_db, max_group_size):
    config = SimulationConfig(scenario, TimingConfig(), TrafficConfig(), gamma_db,
                              max_group_size, seed=SEED)
    env = build_environment(config)
    digest = hashlib.sha256(repr(env.groups.groups).encode())
    for members, airtime_us in env.airtimes.items():
        mcs = views.mcs_labels(airtime_us, config)
        digest.update(repr((members, airtime_us, mcs)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name, gamma_db, max_group_size", sorted(PINNED),
                         ids=[f"{n}-gamma{g:g}-K{k}" for n, g, k in sorted(PINNED)])
def test_static_layer_matches_recorded_digest(name, gamma_db, max_group_size):
    try:
        digest = _static_layer_digest(SCENARIOS[name], gamma_db, max_group_size)
    finally:
        clear_memos()
    assert digest == PINNED[name, gamma_db, max_group_size]


def test_dense_deployment_and_rssi_build_stay_small():
    # a 12x12 grid: 144 APs x 432 stations, so one (AP x station) float array
    # is 0.47 MB. The RSSI build holds three at its peak (the distances, the
    # loss and the beyond-breakpoint term), about 1.5 MB; building the
    # distances as (AP x station x 2) differences and the P' term through a
    # full-size np.where once took 3.4 MB. The group build needs no such
    # array: each walk reads its reference's few station columns, where an
    # all-references ranking pass once copied the whole matrix (0.64 MB). A
    # small build first does the lazy set-up of the first call, which is not
    # what is measured.
    small = ScenarioConfig(subarea_rows=1, subarea_cols=1)
    small_deployment = generate_grid_deployment(small, np.random.default_rng(0))
    small_rssi = build_rssi_matrix(small_deployment, small)
    build_all_groups(small_rssi, small_deployment, small.noise_dbm, 5.0, 3)
    scenario = SCENARIOS["12x12"]
    tracemalloc.start()
    try:
        deployment = generate_grid_deployment(scenario, np.random.default_rng(SEED))
        rssi = build_rssi_matrix(deployment, scenario)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        groups = build_all_groups(rssi, deployment, scenario.noise_dbm, 5.0, 3)
        _, group_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rssi.shape == (144, 432)
    assert peak < 2 << 20
    assert len(groups) == 144
    assert group_peak - base < 0.25 * (1 << 20)
