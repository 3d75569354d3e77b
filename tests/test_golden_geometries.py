"""Campaigns away from the default geometry still produce the per_run.csv
bytes recorded before the per-AP queues became cursors over the arrival
schedule. These are the runs that skip unservable bursts and re-queue them
(weak links, gamma below MCS 0) or split bursts on a larger grid, plus a
default-geometry run on a stricter MCS table and 1000 B packets; the
benchmark's workload hashes cover only the default geometry, MCS table and
packet size. A pool of two workers must write the same bytes."""

import hashlib
import warnings
from dataclasses import replace

import pytest

from mapcsim import (McsTable, ScenarioConfig, TimingConfig, TrafficConfig,
                     default_mcs_table)
from mapcsim.campaign import Campaign, run_campaign

TIMING = TimingConfig(num_txops=300)
STRICTER_MCS = McsTable(tuple(replace(e, min_sinr_db=e.min_sinr_db + 6.0)
                              for e in default_mcs_table().entries))

CASES = {
    "weak-links": (
        Campaign(scenario=ScenarioConfig(subarea_side_m=60.0, wall_count=5),
                 timing=TIMING, loads_mbps=(1.0, 4.0), num_deployments=2),
        "989e22ca756e8836bee53f34dab4859a0c8ca9cfc0cad930e11c60736edd904b"),
    "gamma-minus-5": (
        Campaign(timing=TIMING, loads_mbps=(1.0,), gammas_db=(-5.0,),
                 num_deployments=2),
        "01d9f5f0fe0f74b346d9e50dffe16811d0fb9ff9d72c0eb826182e237248186e"),
    "grid-6x6": (
        Campaign(scenario=ScenarioConfig(subarea_rows=6, subarea_cols=6),
                 timing=TIMING, loads_mbps=(2.0, 4.0), num_deployments=2),
        "797e7d666ca466f36d125198227893197491e8ec9e426cf30daceca54530e1ef"),
    "mcs-plus-6db-1000b": (
        Campaign(timing=TIMING, traffic=TrafficConfig(packet_bytes=1000),
                 mcs_table=STRICTER_MCS, loads_mbps=(2.0, 6.0), num_deployments=2),
        "a445c12b93e6f4fa2a0b3a9825cfbd4641670cfe0b1dcca5dbabee133698792e"),
}


@pytest.mark.parametrize("name, workers", [
    pytest.param(name, workers, id=name if workers == 1 else f"{name}-{workers}-workers")
    for workers in (1, 2) for name in sorted(CASES)])
def test_per_run_csv_matches_recorded_hash(name, workers, tmp_path):
    campaign, expected = CASES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # gamma below MCS 0
        paths = run_campaign(campaign, out_dir=tmp_path, workers=workers)
    assert hashlib.sha256(paths["per_run"].read_bytes()).hexdigest() == expected
