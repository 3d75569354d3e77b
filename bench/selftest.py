#!/usr/bin/env python3
"""Smoke-sized self-test of the campaign benchmark.

    python3 bench/selftest.py

Shrinks every workload to one deployment of 20 TXOPs per run and checks:

- both trace modes print exactly the metrics BENCHMARK.json names, each with
  its unit, and report a correct result;
- a perturbed per_run.csv trips the output check, whether it breaks an
  invariant or only the recorded hash, and a wrong recorded hash fails every
  run of an invocation;
- without the simulator sources the command exits non-zero and prints no
  result.

Exits with status 1 on the first failed check. Takes about a minute.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import shutil
import subprocess
import sys

import run

SMOKE_SEED = 1


def smoke(workload: dict) -> dict:
    small = copy.deepcopy(workload)
    small["campaign"]["timing"]["num_txops"] = 20
    small["campaign"]["campaign"]["num_deployments"] = 1
    small.pop("expected_per_run_sha256", None)
    return small


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def check_metrics(workloads: dict, spec: dict, work) -> bytes:
    """Both trace modes print every named metric with its unit; returns one
    reference per_run.csv for the perturbation checks."""
    named = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    reference = b""
    for name, workload in workloads.items():
        for trace in (0, 1):
            result, report = run.measure(name, smoke(workload), SMOKE_SEED, 0,
                                         bool(trace), work / f"{name}-{trace}")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] > 0,
                   f"{name} trace {trace}: {report['problems']}")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(printed == named[trace],
                   f"{name} trace {trace}: printed {sorted(printed)} "
                   f"but BENCHMARK.json names {sorted(named[trace])}")
            expect(all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()),
                   f"{name} trace {trace}: a metric value is not a number")
            json.dumps(result, allow_nan=False)
            print(f"ok   {name} trace {trace}: {len(printed)} metrics with units")
        reference = (work / f"{name}-1" / "plain" / "per_run.csv").read_bytes()
    return reference


def perturbed(data: bytes, column: str, change) -> bytes:
    lines = data.decode().splitlines(keepends=True)
    header = lines[0].rstrip("\r\n").split(",")
    cells = lines[1].rstrip("\r\n").split(",")
    pos = header.index(column)
    cells[pos] = change(cells[pos])
    lines[1] = ",".join(cells) + "\r\n"
    return "".join(lines).encode()


def check_perturbations(data: bytes) -> None:
    num_runs = len(data.decode().splitlines()) - 1
    sha = hashlib.sha256(data).hexdigest()
    expect(run.OutputCheck(num_runs, sha).check("clean", data),
           "the unperturbed CSV fails its own hash")
    cases = {
        "packets_remaining + 1": ("packets_remaining", lambda v: str(int(v) + 1), 1),
        "occupancy 1.5": ("mean_occupancy", lambda v: "1.5", 1),
        "throughput digit": ("throughput_bps", lambda v: v[:-1] + str((int(v[-1]) + 1) % 10), 0),
    }
    for label, (column, change, broken_rows) in cases.items():
        bad = perturbed(data, column, change)
        expect(run.bad_runs(bad, num_runs) == broken_rows,
               f"{label}: expected {broken_rows} rows breaking an invariant")
        against_hash = run.OutputCheck(num_runs, sha)
        expect(not against_hash.check(label, bad) and against_hash.failed == num_runs,
               f"{label}: the recorded hash did not catch it")
        against_pass = run.OutputCheck(num_runs, None)
        against_pass.check("first pass", data)
        expect(not against_pass.check(label, bad),
               f"{label}: the cross-pass identity did not catch it")
        print(f"ok   perturbed CSV ({label}) trips the output check")


def check_wrong_hash(workloads: dict, work) -> None:
    name = next(iter(workloads))
    workload = smoke(workloads[name])
    workload["expected_per_run_sha256"] = {str(SMOKE_SEED): "0" * 64}
    result, _ = run.measure(name, workload, SMOKE_SEED, 0, False, work / "wrong")
    expect(not result["correct"] and result["failed"] == result["attempted"],
           "a wrong recorded hash did not fail every run")
    print("ok   a wrong recorded hash fails the invocation")


def check_bare_directory(workloads: dict, work) -> None:
    bare = work / "bare"
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload",
         next(iter(workloads)), "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=180)
    expect(done.returncode != 0 and '"correct"' not in done.stdout,
           f"bare directory: exit {done.returncode}, stdout {done.stdout!r}")
    print(f"ok   without src/ the command exits {done.returncode} with no result")


def main() -> int:
    run.load_simulator()
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    workloads = run.load_workloads()
    expect(sorted(workloads) == sorted(w["name"] for w in spec["workloads"]),
           "BENCHMARK.json and workloads.json name different workloads")
    with run.work_dir("selftest") as work:
        data = check_metrics(workloads, spec, work)
        check_perturbations(data)
        check_wrong_hash(workloads, work)
        check_bare_directory(workloads, work)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
