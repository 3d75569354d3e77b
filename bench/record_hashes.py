#!/usr/bin/env python3
"""Record the expected per_run.csv sha256 of every workload for seeds 0-39.

    python3 bench/record_hashes.py

Writes the hashes into bench/workloads.json, where bench/run.py checks every
pass against them. Run it only after a change that is meant to alter the
simulated behaviour, and say so in that change: a speed-up must reproduce
the recorded hashes. Seeds outside the recorded range are still checked
for byte-identity across passes and for the per-row invariants.
"""

from __future__ import annotations

import hashlib
import json

import run

RECORDED_SEEDS = range(40)


def main() -> int:
    run.load_simulator()
    with open(run.WORKLOADS_FILE) as fh:
        doc = json.load(fh)
    with run.work_dir("record-hashes") as work:
        for name, workload in doc["workloads"].items():
            hashes = {}
            for seed in RECORDED_SEEDS:
                camp = run.build_campaign(workload, seed)
                _, data = run.campaign_pass(camp, work, workers=2)
                if run.bad_runs(data, camp.num_runs):
                    raise SystemExit(f"{name} seed {seed}: a run breaks an invariant")
                hashes[str(seed)] = hashlib.sha256(data).hexdigest()
            workload["expected_per_run_sha256"] = hashes
            print(f"{name}: recorded seeds {RECORDED_SEEDS.start}-{RECORDED_SEEDS.stop - 1}")
    with open(run.WORKLOADS_FILE, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
