"""The benchmark's workloads still produce the per_run.csv bytes recorded in
bench/workloads.json, so a change that alters simulation output fails here
and not only in the benchmark."""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from mapcsim.campaign import campaign_from_dict, run_campaign

WORKLOADS = json.loads((Path(__file__).resolve().parents[1] / "bench"
                        / "workloads.json").read_text())["workloads"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_per_run_csv_matches_recorded_hash(name, tmp_path):
    workload = WORKLOADS[name]
    campaign = replace(campaign_from_dict(workload["campaign"]), base_seed=0)
    paths = run_campaign(campaign, out_dir=tmp_path)
    digest = hashlib.sha256(paths["per_run"].read_bytes()).hexdigest()
    assert digest == workload["expected_per_run_sha256"]["0"]
