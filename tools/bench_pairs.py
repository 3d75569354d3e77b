#!/usr/bin/env python3
"""Alternating parent/change pairs of the repository benchmark.

    python3 tools/bench_pairs.py --parent REV --out BENCH_N.json --what TEXT \\
        --pairs dense-12x12:28101-28110 --pairs saturated-3x3:28001-28010 \\
        --traced dense-12x12:28111-28113 --traced saturated-3x3:28011-28013

Builds two sides in a temporary directory, each with this tree's `bench/`
and `configs/`, so both run the same benchmark code: the parent side's
`src/` comes from `git archive REV src`, the change side's from this
working tree. For each `--pairs WORKLOAD:SEEDS` it runs
`python3 bench/run.py --trace 0` once per seed on each side, one invocation
at a time, the parent first on odd seeds and the change first on even ones.
Then it runs one `--trace 1` invocation per side for each seed of each
`--traced WORKLOAD:SEEDS`, parent first. Seeds are `A-B` ranges or comma
lists. Every invocation runs for BENCHMARK.json's `run_seconds`.

It writes one JSON file with `what`, `command`, `how`, `parent`,
`change`, `summary` and `invocations`, rewritten after every invocation,
so a cut run keeps what it measured. An invocation keeps the last two
stdout lines of `bench/run.py` unedited, as `report` and `result`. Per
workload, the summary gives each end-to-end metric's median, inclusive
quartiles, min and max per side, the pairs the change wins (ties count for
neither side; the direction is the metric's `better` in BENCHMARK.json),
the relative change of the medians, the parent's interquartile range over
its median and the change / parent ratio of each pair; `traced` gives each
metric's median per side over the traced pairs, and their number.
`all_correct` (`traced_correct` for the traced runs) holds only when every
invocation reads `correct: true` and both sides wrote the same
`per_run.csv` hash for each seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
COMMAND = "python3 bench/run.py --workload W --seed S --seconds {seconds:g} --trace T"


def parse_seeds(text: str) -> list[int]:
    """`A-B` (inclusive) or a comma list of seeds."""
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def parse_workload_seeds(text: str) -> tuple[str, list[int]]:
    name, sep, seeds = text.rpartition(":")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEEDS, got {text!r}")
    return name, parse_seeds(seeds)


def pair_order(seed: int) -> tuple[str, str]:
    """The parent runs first on odd seeds, the change on even ones."""
    return SIDES if seed % 2 else SIDES[::-1]


def quartile_stats(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def _correct(inv: dict) -> bool:
    return bool(inv.get("result") and inv["result"].get("correct"))


def _sha(inv: dict) -> str | None:
    return (inv.get("report") or {}).get("report", {}).get("per_run_sha256")


def _src_sha256(invocations: list[dict], side: str) -> str | None:
    """The digest of the simulator sources a side's reports name."""
    return next((inv["report"]["report"]["environment"]["src_sha256"]
                 for inv in invocations if inv["side"] == side and inv["report"]), None)


def _value(inv: dict, metric: str) -> float:
    return inv["result"]["metrics"][metric]["value"]


def _side_pairs(invocations: list[dict], workload: str, trace: int) -> list[dict]:
    """{side: invocation} per seed run on both sides, in seed order."""
    by_seed: dict[int, dict] = {}
    for inv in invocations:
        if inv["workload"] == workload and inv["trace"] == trace:
            by_seed.setdefault(inv["seed"], {})[inv["side"]] = inv
    return [by_seed[s] for s in sorted(by_seed) if len(by_seed[s]) == len(SIDES)]


def _pairs_correct(pairs: list[dict]) -> bool:
    return all(_correct(p[side]) for p in pairs for side in SIDES) and all(
        _sha(p["parent"]) == _sha(p["change"]) for p in pairs)


def _measured(pairs: list[dict]) -> tuple[list[dict], dict]:
    """The pairs whose runs both read correct, and the metrics they report."""
    measured = [p for p in pairs if all(_correct(p[side]) for side in SIDES)]
    return measured, measured[0]["parent"]["result"]["metrics"] if measured else {}


def summarize(invocations: list[dict], better: dict[str, str]) -> dict:
    """Per workload, the paired comparison of the --trace 0 runs and the
    per-side medians of the --trace 1 runs (see the module docstring).
    `better` maps each metric to "higher" or "lower"."""
    summary = {}
    for workload in dict.fromkeys(inv["workload"] for inv in invocations):
        pairs = _side_pairs(invocations, workload, 0)
        entry: dict = {"seeds": [p["parent"]["seed"] for p in pairs],
                       "all_correct": bool(pairs) and _pairs_correct(pairs)}
        measured, metrics = _measured(pairs)
        for metric in metrics:
            sign = 1 if better[metric] == "higher" else -1
            parent = [_value(p["parent"], metric) for p in measured]
            change = [_value(p["change"], metric) for p in measured]
            wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            base = quartile_stats(parent)
            entry[metric] = {
                "better": better[metric],
                "parent": base,
                "change": quartile_stats(change),
                "change_wins": f"{wins}/{len(measured)}",
                "median_change": statistics.median(change) / base["median"] - 1,
                "parent_iqr_over_median": (base["q3"] - base["q1"]) / base["median"],
                "per_pair_ratio": [c / p for p, c in zip(parent, change)],
            }
        traced = _side_pairs(invocations, workload, 1)
        if traced:
            measured, metrics = _measured(traced)
            entry["traced"] = {"pairs": len(measured), "median": {
                metric: {side: statistics.median(_value(p[side], metric) for p in measured)
                         for side in SIDES}
                for metric in metrics}}
            entry["traced_correct"] = _pairs_correct(traced)
        summary[workload] = entry
    return summary


def build_sides(work: Path, parent_rev: str) -> dict[str, Path]:
    """The two side directories: src/ from `parent_rev` or from the working
    tree, bench/ and configs/ from the working tree."""
    ignore = shutil.ignore_patterns("__pycache__", ".bench_work")
    sides = {side: work / side for side in SIDES}
    for path in sides.values():
        for part in ("bench", "configs"):
            shutil.copytree(ROOT / part, path / part, ignore=ignore)
    shutil.copytree(ROOT / "src", sides["change"] / "src", ignore=ignore)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", parent_rev, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=BytesIO(archive)) as tar:
        tar.extractall(sides["parent"], filter="data")
    return sides


def run_invocation(side_dir: Path, side: str, workload: str, seed: int,
                   seconds: float, trace: int) -> dict:
    args = ["bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, *args], cwd=side_dir, env=env,
                          capture_output=True, text=True)
    inv = {"side": side, "workload": workload, "seed": seed, "trace": trace,
           "command": " ".join(["python3", *args]), "report": None, "result": None}
    lines = done.stdout.strip().splitlines()
    try:
        inv["report"], inv["result"] = (json.loads(line) for line in lines[-2:])
    except (ValueError, TypeError):  # fewer than two lines, or not JSON
        inv["report"] = inv["result"] = None
        inv["error"] = f"exit {done.returncode}: {done.stderr.strip()[-2000:]}"
    return inv


def describe(parent_commit: str, invocations: list[dict], pairs, traced) -> str:
    env = next((inv["report"]["report"]["environment"] for inv in invocations
                if inv["report"]), {})
    plan = "; ".join(f"{w} seeds {s[0]}-{s[-1]}" for w, s in pairs)
    text = (f"Each side is a copy of its tree's src/, bench/ and configs/ (bench/ and "
            f"configs/ from the working tree on both; the parent's src/ from git archive "
            f"of {parent_commit}, the change's from the working tree), run from its own "
            f"directory, one invocation at a time, by tools/bench_pairs.py on "
            f"{env.get('machine')} with {env.get('nproc')} CPUs (Python "
            f"{env.get('python')}, numpy {env.get('numpy')}). --trace 0 pairs: {plan}; "
            f"for odd seeds the parent runs first, for even seeds the change.")
    if traced:
        text += (" Then one --trace 1 run per side, parent first, for "
                 + "; ".join(f"{w} seed {s}" for w, s in traced) + ".")
    return text + (" Quartiles: statistics.quantiles(method='inclusive') over each "
                   "side's --trace 0 runs. 'traced' holds, per side, the median of each "
                   "metric over the correct --trace 1 pairs, and their count. 'report' and "
                   "'result' are the last two stdout lines of each invocation, unedited.")


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--what", required=True, help="what the change is and claims")
    parser.add_argument("--pairs", action="append", default=[], type=parse_workload_seeds,
                        metavar="WORKLOAD:SEEDS", help="--trace 0 pairs, one per seed")
    parser.add_argument("--traced", action="append", default=[], type=parse_workload_seeds,
                        metavar="WORKLOAD:SEEDS", help="--trace 1 pairs, one per seed")
    args = parser.parse_args(argv)
    seconds = benchmark["run_seconds"]
    better = {m["name"]: m["better"]
              for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    parent_commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", f"{args.parent}^{{commit}}"],
        capture_output=True, text=True, check=True).stdout.strip()
    schedule = [(w, s, 0) for w, seeds in args.pairs for s in seeds]
    schedule += [(w, s, 1) for w, seeds in args.traced for s in seeds]
    traced = [(w, s) for w, seeds in args.traced for s in seeds]
    invocations: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        sides = build_sides(Path(tmp), parent_commit)
        for workload, seed, trace in schedule:
            order = pair_order(seed) if trace == 0 else SIDES
            for side in order:
                inv = run_invocation(sides[side], side, workload, seed, seconds, trace)
                invocations.append(inv)
                print(f"{side} {workload} seed {seed} trace {trace}: "
                      f"correct={_correct(inv)}", file=sys.stderr, flush=True)
                out = {
                    "what": args.what,
                    "command": COMMAND.format(seconds=seconds),
                    "how": describe(parent_commit, invocations, args.pairs, traced),
                    "parent": {"commit": parent_commit,
                               "src_sha256": _src_sha256(invocations, "parent")},
                    "change": {"src_sha256": _src_sha256(invocations, "change")},
                    "summary": summarize(invocations, better),
                    "invocations": invocations,
                }
                args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if all(_correct(inv) for inv in invocations) else 1


if __name__ == "__main__":
    sys.exit(main())
