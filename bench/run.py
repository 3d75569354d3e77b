#!/usr/bin/env python3
"""Campaign benchmark for mapcsim.

    python3 bench/run.py --workload saturated-3x3 --seed 1 --seconds 55 --trace 0

Runs one workload of `bench/workloads.json` through the public
`mapcsim.campaign.run_campaign` entry point, with `--seed` as the campaign's
`base_seed`, for about `--seconds` seconds, checks every `per_run.csv` it
produced and prints, as the last line of standard output, one JSON object:

    {"correct": bool, "attempted": runs, "failed": runs, "metrics": {...}}

`--trace 0` reports the end-to-end metrics, measured on untraced 1-worker
passes: TXOP/s, set-up time, per-run wall time and memory. Times come from
the best time of every run segment (set-up, each TXOP) over repeated
rounds (see BestSegments), scaled by the host speed that a frozen copy of
the simulator shows in the same rounds (see measure_end_to_end).
`--trace 1` reports per-layer metrics from traced passes that wrap the
simulator's public functions from this directory (see layers.py), the
tracing overhead against untraced passes of the same invocation, and the
TXOP/s and pool busy ratio of a 2-worker pass. The line
before the result is a JSON report with the environment, pass counts, the
CSV hash and every metric the result line leaves out.

The simulator is imported from the `src/` directory next to this one; the
command exits with status 2 and prints no result when it is missing, and
with status 1 after the result when any output check failed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import mmap
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from layers import BUSY, CALLS, LAYERS, OUTCOME, PARENTS, SELF, LayerTrace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
WORKLOADS_FILE = BENCH_DIR / "workloads.json"
REFERENCE = BENCH_DIR / "reference"  # holds mapcsim_ref, see measure_end_to_end

TAIL_EXCESS = 10    # samples that must lie beyond the reported tail percentile
MIN_ROUNDS = 3      # measurement rounds made even when --seconds is too short
REFERENCE_EVERY = 3  # the reference pass runs every third run of the campaign
IMPORT_PROBE = ("import sys, time\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "start = time.perf_counter()\n"
                "import mapcsim\n"
                "print(time.perf_counter() - start)\n")


class SetupError(RuntimeError):
    """The benchmark cannot run here: no simulator sources or no workload."""


def load_simulator() -> None:
    """Import mapcsim from this checkout's src/, never from site-packages."""
    package = SRC / "mapcsim"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no simulator sources at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mapcsim

    if Path(mapcsim.__file__).resolve().parent != package.resolve():
        raise SetupError(f"mapcsim imported from {mapcsim.__file__}, "
                         f"not from {package}")


def load_reference():
    """The frozen copy of the simulator in reference/mapcsim_ref."""
    if str(REFERENCE) not in sys.path:
        sys.path.insert(0, str(REFERENCE))
    import mapcsim_ref

    return mapcsim_ref


def import_seconds() -> float:
    """Wall time of `import mapcsim` (numpy included) in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(done.stdout)


def load_workloads() -> dict:
    with open(WORKLOADS_FILE) as fh:
        return json.load(fh)["workloads"]


@contextmanager
def work_dir(name: str):
    """A scratch directory under WORK_ROOT, removed with WORK_ROOT (when no
    other invocation still uses it) on exit."""
    path = WORK_ROOT / f"{name}-{os.getpid()}"
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another invocation still uses it


def build_campaign(workload: dict, seed: int):
    """The workload's campaign file (repo format) with `seed` as base_seed."""
    from mapcsim.campaign import campaign_from_dict

    return replace(campaign_from_dict(workload["campaign"]), base_seed=seed)


# ---------------------------------------------------------------------------
# Clock marks of every run, also from pool workers: the start of
# campaign.execute_run, each engine.step_arrivals call (one per TXOP) and the
# end of execute_run. Consecutive marks bound a run's segments: its set-up
# (deployment, RSSI matrix, groups, airtime table), each TXOP, and the last
# TXOP with the post-loop delay sort and the report row.

_marks = None          # num_txops + 2 doubles per run_id in a shared mapping
_stride = 0            # marks per run
_next_mark = 0         # where the running run's next arrivals call goes
_execute_run = None    # the unwrapped campaign.execute_run
_step_arrivals = None  # the unwrapped engine.step_arrivals


def marking_execute_run(spec):
    """campaign.execute_run that marks its start and end.

    Module-level so fork-started pool workers can unpickle it by name; they
    write into the anonymous shared mapping inherited from the parent.
    """
    global _next_mark
    base = _stride * spec.run_id
    _next_mark = base + 1
    start = time.perf_counter()
    row = _execute_run(spec)
    _marks[base + _stride - 1] = time.perf_counter()
    _marks[base] = start
    return row


def marking_step_arrivals(*args, **kwargs):
    """engine.step_arrivals that marks the start of every TXOP."""
    global _next_mark
    _marks[_next_mark] = time.perf_counter()
    _next_mark += 1
    return _step_arrivals(*args, **kwargs)


@contextmanager
def recording_marks(camp, package=None):
    """Patch campaign.execute_run and engine.step_arrivals of `package`
    (mapcsim by default) to mark every run; yields a function that returns
    the last pass's marks as a (runs, num_txops + 2) array."""
    global _marks, _stride, _execute_run, _step_arrivals
    if package is None:
        import mapcsim as package
    campaign, engine = package.campaign, package.engine

    _stride = camp.timing.num_txops + 2
    buf = mmap.mmap(-1, 8 * _stride * camp.num_runs)  # MAP_SHARED: survives fork
    view = memoryview(buf).cast("d")
    _marks, _execute_run, _step_arrivals = view, campaign.execute_run, engine.step_arrivals
    campaign.execute_run = marking_execute_run
    engine.step_arrivals = marking_step_arrivals
    try:
        yield lambda: np.frombuffer(buf, dtype=float).reshape(camp.num_runs, _stride).copy()
    finally:
        campaign.execute_run = _execute_run
        engine.step_arrivals = _step_arrivals
        _marks = _execute_run = _step_arrivals = None
        view.release()
        buf.close()


class BestSegments:
    """Best time of every run segment over repeated passes of one kind.

    A shared host only ever slows code down, so the fastest time of each
    segment (one TXOP, one run's set-up) over the passes takes out every
    slow spell that did not cover that segment in all of them; it is a
    steadier figure of the code's cost than any whole pass. A pass's wall,
    scaled by its runs' best over observed segment time, is its wall with
    those spells taken out; `best_wall` is the lowest of those.
    """

    def __init__(self) -> None:
        self.best = None      # (runs, num_txops + 1) seconds
        self.walls: list[float] = []
        self.observed: list[float] = []  # summed run time of each pass

    def add(self, wall: float, marks) -> None:
        segments = np.diff(marks, axis=1)
        self.best = segments if self.best is None else np.minimum(self.best, segments)
        self.walls.append(wall)
        self.observed.append(float(segments.sum()))

    def run_s(self) -> list[float]:
        """Each run's best time: its best set-up, TXOPs and tail summed."""
        return [] if self.best is None else self.best.sum(axis=1).tolist()

    def setup_s(self) -> float:
        """Best set-up time summed over runs."""
        return 0.0 if self.best is None else float(self.best[:, 0].sum())

    def best_wall(self) -> float:
        best = sum(self.run_s())
        return min((wall * best / seen for wall, seen in zip(self.walls, self.observed)),
                   default=0.0)


# ---------------------------------------------------------------------------
# Passes

def campaign_pass(camp, out_dir: Path, workers: int) -> tuple[float, bytes]:
    """Wall seconds of one run_campaign call, and its per_run.csv bytes."""
    from mapcsim.campaign import run_campaign

    start = time.perf_counter()
    paths = run_campaign(camp, out_dir, workers=workers)
    wall = time.perf_counter() - start
    return wall, paths["per_run"].read_bytes()


# ---------------------------------------------------------------------------
# Output checks

COUNT_COLUMNS = ("packets_arrived", "packets_delivered", "packets_remaining")


def read_rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def bad_runs(data: bytes, num_runs: int) -> int:
    """Runs whose per_run.csv row is missing, extra or breaks an invariant:
    arrived = delivered + remaining, and occupancy within [0, 1]."""
    rows = read_rows(data)
    bad = abs(num_runs - len(rows))
    for row in rows:
        try:
            arrived, delivered, remaining = (int(row[c]) for c in COUNT_COLUMNS)
            occupancy = float(row["mean_occupancy"])
        except (KeyError, TypeError, ValueError):
            bad += 1
            continue
        if arrived != delivered + remaining or not 0.0 <= occupancy <= 1.0:
            bad += 1
    return bad


def packet_totals(data: bytes) -> dict[str, int]:
    rows = read_rows(data)
    return {c: sum(int(r[c]) for r in rows) for c in COUNT_COLUMNS}


class OutputCheck:
    """Checks every pass's per_run.csv and counts attempted and failed runs.

    Every pass must reproduce the first pass byte for byte (1 and 2 workers,
    traced and untraced) and, when the workload records a hash for this
    seed, that hash. A pass that raises or breaks the identity fails all its
    runs; otherwise each row breaking an invariant fails one run.
    """

    def __init__(self, num_runs: int, expected_sha256: str | None):
        self.num_runs = num_runs
        self.expected = expected_sha256
        self.reference: bytes | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def timed_pass(self, label: str, make_pass) -> float | None:
        """Run `make_pass() -> (wall, csv bytes)`; its wall time if it passed."""
        from mapcsim.campaign import CampaignRunError

        self.attempted += self.num_runs
        try:
            wall, data = make_pass()
        except CampaignRunError as exc:
            self.failed += self.num_runs
            self.problems.append(f"{label}: {exc}")
            return None
        return wall if self.check(label, data) else None

    def check(self, label: str, data: bytes) -> bool:
        sha = hashlib.sha256(data).hexdigest()
        if self.reference is None:
            self.reference = data
        if data != self.reference or (self.expected is not None
                                      and sha != self.expected):
            self.failed += self.num_runs
            self.problems.append(f"{label}: per_run.csv sha256 {sha} differs "
                                 f"from the reference or expected hash")
            return False
        bad = bad_runs(data, self.num_runs)
        if bad:
            self.failed += bad
            self.problems.append(f"{label}: {bad} runs break an invariant")
        return bad == 0

    @property
    def sha256(self) -> str | None:
        return None if self.reference is None else hashlib.sha256(self.reference).hexdigest()


# ---------------------------------------------------------------------------
# Measurement

def _repeat_until(deadline: float, min_rounds: int, one_round) -> int:
    """Call one_round at least min_rounds times, then while another round of
    the last round's length still ends before the deadline."""
    rounds, last = 0, 0.0
    while rounds < min_rounds or time.perf_counter() + last <= deadline:
        start = time.perf_counter()
        one_round()
        last = time.perf_counter() - start
        rounds += 1
    return rounds


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile that still
    has TAIL_EXCESS samples above it; the maximum when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_EXCESS:
        return (ordered[-1] if ordered else 0.0), 100.0
    return ordered[n - TAIL_EXCESS - 1], 100.0 * (n - TAIL_EXCESS) / n


def measure_end_to_end(camp, workload: dict, check: OutputCheck,
                       deadline: float, work: Path) -> tuple[dict, dict]:
    """An untimed 2-worker pass (warm-up; its CSV must equal the 1-worker
    ones), then rounds of a timed import, a 1-worker campaign pass and a
    reference pass, all with every run marked; each time is the best over
    the rounds, per segment (BestSegments).

    The reference pass runs every REFERENCE_EVERY-th run of the same
    campaign on reference/mapcsim_ref, a frozen copy of the simulator that
    no change to src/ touches. The shared host runs this process's CPU
    slower for spells of a minute or more, longer than an invocation, and
    code of the simulator's own kind slows with it more than any small
    probe does. So every time is divided by the host slowdown: the
    reference's best time over the workload's `reference_s`, a fixed figure
    set from invocations on the VM the benchmark was built on (see
    README.md, Noise).

    No timed pass runs workers in parallel: on a host with two or three
    CPUs their wall time measures the other tenants as much as the
    program, so the 2-worker rate is a per-layer figure (measure_layers).
    """
    check.timed_pass("2 workers", lambda: campaign_pass(camp, work / "w2", 2))
    imports: list[float] = []
    one, reference = BestSegments(), BestSegments()
    rss_base_mb = _max_rss_mb()
    rss_peak_mb = 0.0

    def one_round() -> None:
        nonlocal rss_peak_mb
        imports.append(import_seconds())
        with recording_marks(camp) as marks:
            wall = check.timed_pass("1 worker", lambda: campaign_pass(camp, work / "w1", 1))
            if wall is not None:
                one.add(wall, marks())
            if not rss_peak_mb:
                rss_peak_mb = _max_rss_mb()  # of the first 1-worker pass alone
        reference_pass()

    def reference_pass() -> None:
        # Loaded after the first 1-worker pass, so that pass's memory
        # figures do not include the copy.
        ref = load_reference()
        ref_camp = replace(ref.campaign.campaign_from_dict(workload["campaign"]),
                           base_seed=camp.base_seed)
        with recording_marks(ref_camp, ref) as marks:
            for spec in ref.campaign.enumerate_runs(ref_camp)[::REFERENCE_EVERY]:
                ref.campaign.execute_run(spec)
            reference.add(0.0, marks()[::REFERENCE_EVERY])

    rounds = _repeat_until(deadline, MIN_ROUNDS, one_round)
    txops = camp.num_runs * camp.timing.num_txops
    run_s = one.run_s()
    tail_s, tail_pct = tail(run_s)
    setup_s = min(imports) + one.setup_s()
    slowdown = sum(reference.run_s()) / workload["reference_s"]
    metrics = {
        "txops_per_s": (_ratio(txops, one.best_wall() / slowdown), "TXOP/s"),
        "setup_s": (setup_s / slowdown, "s"),
        "run_s_p50": (_median(run_s) / slowdown, "s"),
        "run_s_tail": (tail_s / slowdown, "s"),
        "peak_rss_mb": (rss_peak_mb, "MB"),
        "run_rss_mb": (rss_peak_mb - rss_base_mb, "MB"),
    }
    details = {
        "rounds": rounds,
        "txops_per_pass": txops,
        "walls_1w_s": one.walls,
        "run_time_1w_s": one.observed,          # summed segments of each round
        "run_time_reference_s": reference.observed,
        "reference_s": sum(reference.run_s()),
        "host_slowdown": slowdown,
        "unscaled": {"txops_per_s": _ratio(txops, one.best_wall()), "setup_s": setup_s,
                     "run_s_p50": _median(run_s), "run_s_tail": tail_s},
        "import_s": min(imports),
        "setup_runs_s": one.setup_s(),
        "rss_base_mb": rss_base_mb,
        "run_s_tail_percentile": tail_pct,
        "run_s_samples": len(run_s),
    }
    return metrics, details


def measure_layers(camp, check: OutputCheck, deadline: float,
                   work: Path) -> tuple[dict, dict]:
    """One 2-worker pass with run marks (its TXOP/s and pool busy ratio),
    then rounds of an untraced and a traced 1-worker pass; per-layer figures
    are per pass."""
    n = camp.num_runs
    trace = LayerTrace()
    untraced: list[float] = []
    traced: list[float] = []

    with recording_marks(camp) as marks:
        wall2 = check.timed_pass("2 workers", lambda: campaign_pass(camp, work / "w2", 2))
        busy = marks()
    pool_busy = _ratio(float((busy[:, -1] - busy[:, 0]).sum()), 2 * wall2) if wall2 else 0.0

    def one_round() -> None:
        wall = check.timed_pass("untraced", lambda: campaign_pass(camp, work / "plain", 1))
        if wall is not None:
            untraced.append(wall)
        with trace.installed():
            wall = check.timed_pass("traced", lambda: campaign_pass(camp, work / "traced", 1))
        if wall is not None:
            traced.append(wall)

    rounds = _repeat_until(deadline, 1, one_round)
    passes = max(len(traced), 1)
    acc = trace.acc
    metrics: dict[str, tuple[float, str]] = {}
    for name in LAYERS:
        metrics[f"{name}.calls"] = (acc[name][CALLS] / passes, "count")
        metrics[f"{name}.busy_s"] = (acc[name][BUSY] / passes / 1e9, "s")
        if name in PARENTS:
            metrics[f"{name}.self_s"] = (acc[name][SELF] / passes / 1e9, "s")

    def busy_s(*names: str) -> float:
        return sum(acc[name][BUSY] for name in names) / passes / 1e9

    traced_wall = sum(traced) / passes
    overhead = traced_wall - busy_s("campaign.execute_run")
    txops = acc["engine.run_txop"][CALLS] / passes
    slots = acc["engine.run_txop"][OUTCOME] / passes
    groups = acc["grouping.build_all_groups"][OUTCOME] / passes
    pre_loop = trace.pre_loop_ns / passes / 1e9
    post_loop = trace.post_loop_ns / passes / 1e9
    # Left unattributed: time inside run_simulation but outside its traced
    # children, pre_loop and post_loop, i.e. loop glue plus wrapper cost.
    attributed = (sum(acc[name][SELF] for name in LAYERS
                      if name != "engine.run_simulation") / passes / 1e9
                  + pre_loop + post_loop + overhead)
    packets = (packet_totals(check.reference) if check.reference
               else dict.fromkeys(COUNT_COLUMNS, 0))
    feasible = acc["channel.group_feasible"]
    plan = acc["engine.plan_slot"]
    metrics.update({
        "engine.pre_loop_s": (pre_loop, "s"),
        "engine.post_loop_s": (post_loop, "s"),
        "campaign.report_row_s": (busy_s("campaign.execute_run")
                                  - busy_s("engine.run_simulation"), "s"),
        "campaign.overhead_s": (overhead, "s"),
        "campaign.pool_busy_ratio": (pool_busy, "ratio"),
        "campaign.txops_per_s_2w": (_ratio(n * camp.timing.num_txops, wall2 or 0.0), "TXOP/s"),
        "engine.host_us_per_txop": (
            _ratio(busy_s("engine.step_arrivals", "engine.run_txop") * 1e6, txops), "us"),
        "engine.host_us_per_slot": (
            _ratio(busy_s("scheduling.select_group", "engine.plan_slot",
                          "engine.deliver") * 1e6, slots), "us"),
        "channel.group_feasible.accept_ratio": (
            _ratio(feasible[OUTCOME], feasible[CALLS]), "ratio"),
        "engine.plan_slot.useful_ratio": (_ratio(plan[OUTCOME], plan[CALLS]), "ratio"),
        "model.txops": (txops, "count"),
        "model.slots": (slots, "count"),
        "model.packets_arrived": (packets["packets_arrived"], "count"),
        "model.packets_delivered": (packets["packets_delivered"], "count"),
        "model.packets_remaining": (packets["packets_remaining"], "count"),
        "model.groups_formed": (groups, "count"),
        "model.mean_group_size": (_ratio(trace.group_members / passes, groups), "APs"),
        "trace.overhead_ratio": (_ratio(_median(traced), _median(untraced)), "ratio"),
        "trace.unattributed_share": (_ratio(traced_wall - attributed, traced_wall), "ratio"),
    })
    details = {
        "rounds": rounds,
        "walls_untraced_s": untraced,
        "walls_traced_s": traced,
        "wall_2w_s": wall2,
    }
    return metrics, details


# ---------------------------------------------------------------------------
# Environment and entry point

def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def source_sha256() -> str:
    """Digest of the simulator sources, which identifies the code measured
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "mapcsim").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, loadavg: tuple[float, float, float]) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_at_start": loadavg,
        "git_sha": _git_sha(),
        "src_sha256": source_sha256(),
        "seed": seed,
    }


def measure(name: str, workload: dict, seed: int, seconds: float, trace: bool,
            work: Path) -> tuple[dict, dict]:
    """Run one benchmark invocation; returns (result line, report)."""
    loadavg = os.getloadavg()
    deadline = time.perf_counter() + seconds
    camp = build_campaign(workload, seed)
    expected = workload.get("expected_per_run_sha256", {}).get(str(seed))
    check = OutputCheck(camp.num_runs, expected)
    if trace:
        metrics, details = measure_layers(camp, check, deadline, work)
    else:
        metrics, details = measure_end_to_end(camp, workload, check, deadline, work)
    correct = check.failed == 0 and check.reference is not None
    result = {
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {
        "workload": name,
        "trace": int(trace),
        "environment": environment(seed, loadavg),
        "runs_per_pass": camp.num_runs,
        "num_txops": camp.timing.num_txops,
        "per_run_sha256": check.sha256,
        "expected_sha256": expected,
        "failed_frac": {"value": _ratio(check.failed, check.attempted), "unit": "ratio"},
        "problems": check.problems,
        **details,
    }
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_simulator()
        workloads = load_workloads()
        if args.workload not in workloads:
            raise SetupError(f"unknown workload {args.workload!r} "
                             f"(known: {', '.join(workloads)})")
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with work_dir(args.workload) as work:
        result, report = measure(args.workload, workloads[args.workload],
                                 args.seed, args.seconds, bool(args.trace), work)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    if not result["correct"]:
        print("error: output check failed: " + "; ".join(report["problems"]),
              file=sys.stderr)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
