#!/usr/bin/env python3
"""One-process A/B of the simulator's runs: a parent tree against this one.

    python3 tools/ab_runs.py --parent REV --workload saturated-3x3 --seeds 41-44 --rounds 15

Loads REV's `src/mapcsim` (from `git archive REV`) as the package
`mapcsim_parent`, which works because every import inside `src/` is
relative, and this working tree's `src/mapcsim` as `mapcsim`, so both run
in one interpreter. `--parent WORKTREE` loads this working tree on both
sides, which gives the A/A noise floor. For each seed, both sides build
the campaign of WORKLOAD in `bench/workloads.json` (read only) with the
seed as its `base_seed`. Each round alternates which side goes first (the
parent in even rounds); a side's pass over a seed clears that side's memo
and times every run through that side's `campaign.execute_run`. The tool
keeps each run's best time over the rounds and prints, per seed, the
summed best times and the parent/change ratio of those sums (above 1: the
change is faster), then the median ratio over the seeds. It exits 1 if a
report row of any run differs between the sides, as `per_run.csv` would
write it, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
WORKTREE = "WORKTREE"

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import parse_seeds  # noqa: E402  (the seed syntax of bench_pairs)


def load_parent(rev: str, tmp: Path):
    """REV's `src/mapcsim`, or this working tree's for WORKTREE, imported
    as `mapcsim_parent` from a copy under `tmp`."""
    target = tmp / "mapcsim_parent"
    if rev == WORKTREE:
        shutil.copytree(ROOT / "src" / "mapcsim", target,
                        ignore=shutil.ignore_patterns("__pycache__"))
    else:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src/mapcsim"],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        (tmp / "src" / "mapcsim").rename(target)
    sys.path.insert(0, str(tmp))
    return importlib.import_module("mapcsim_parent")


def csv_line(row: dict) -> str:
    """`row` as per_run.csv writes it."""
    text = io.StringIO()
    csv.DictWriter(text, fieldnames=list(row)).writerow(row)
    return text.getvalue()


def time_pass(package, specs) -> tuple[list[float], list[str]]:
    """Every run of `specs` through `package`'s execute_run, memo cleared
    first: each run's wall seconds and its row as per_run.csv writes it."""
    package.engine.clear_memos()
    execute_run, clock = package.campaign.execute_run, time.perf_counter
    seconds, rows = [], []
    for spec in specs:
        start = clock()
        row = execute_run(spec)
        seconds.append(clock() - start)
        rows.append(csv_line(row))
    return seconds, rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True,
                        help=f"git revision of the parent side, or {WORKTREE} for an A/A")
    parser.add_argument("--workload", required=True, help="a workload of bench/workloads.json")
    parser.add_argument("--seeds", required=True, type=parse_seeds, metavar="A-B",
                        help="base seeds, A-B or a comma list")
    parser.add_argument("--rounds", type=int, default=15, help="timed passes per side and seed")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    workloads = json.loads((ROOT / "bench" / "workloads.json").read_text())["workloads"]
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r} (valid: {', '.join(workloads)})")
    data = workloads[args.workload]["campaign"]

    sys.path.insert(0, str(ROOT / "src"))
    change = importlib.import_module("mapcsim")
    with tempfile.TemporaryDirectory(prefix="ab_runs_") as tmp:
        try:
            parent = load_parent(args.parent, Path(tmp))
            packages = dict(zip(SIDES, (parent, change)))
            same, ratios = True, []
            for seed in args.seeds:
                specs = {side: package.campaign.enumerate_runs(
                    replace(package.campaign.campaign_from_dict(data), base_seed=seed))
                    for side, package in packages.items()}
                best = {side: [float("inf")] * len(specs[side]) for side in SIDES}
                for round_ in range(args.rounds):
                    rows = {}
                    for side in SIDES if round_ % 2 == 0 else SIDES[::-1]:
                        seconds, rows[side] = time_pass(packages[side], specs[side])
                        best[side] = list(map(min, best[side], seconds))
                    if rows["parent"] != rows["change"]:
                        same = False
                        print(f"seed {seed} round {round_}: report rows differ",
                              file=sys.stderr)
                total = {side: sum(best[side]) for side in SIDES}
                ratios.append(total["parent"] / total["change"])
                print(f"seed {seed}: {len(specs['change'])} runs, best of {args.rounds}: "
                      f"parent {total['parent']:.4f} s, change {total['change']:.4f} s, "
                      f"parent/change {ratios[-1]:.4f}")
            print(f"median parent/change over {len(ratios)} seeds: "
                  f"{statistics.median(ratios):.4f}; rows {'identical' if same else 'DIFFER'}")
        finally:
            if tmp in sys.path:
                sys.path.remove(tmp)
            for name in [name for name in sys.modules if name.split(".")[0] == "mapcsim_parent"]:
                del sys.modules[name]
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
