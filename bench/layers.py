"""Per-layer tracing of a campaign pass, done from outside the simulator.

`LayerTrace.installed()` replaces each traced public function with a timing
wrapper in the module namespace where its caller looks the name up (for
example `engine.step_arrivals`, which `run_simulation` calls), and restores
the originals on exit. Nothing under `src/` is changed.

Memory stays bounded: each layer keeps four integer accumulators (calls,
busy ns, self ns, outcome count) plus a few per-run marks, whatever the
campaign size. Self time is busy time minus the busy time of traced calls
made from inside it, tracked on a stack of child-time accumulators.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# Metric-name prefix -> (module holding the looked-up name, attribute).
# Callers: run_campaign -> execute_run -> run_simulation -> build_environment
# (-> generate_grid_deployment, build_rssi_matrix, build_all_groups ->
# group_feasible), step_arrivals, run_txop (-> select_group, plan_slot,
# SimState.deliver).
TARGETS = (
    ("scenario.generate_grid_deployment", "engine", "generate_grid_deployment"),
    ("channel.build_rssi_matrix", "engine", "build_rssi_matrix"),
    ("channel.group_feasible", "grouping", "group_feasible"),
    ("grouping.build_all_groups", "engine", "build_all_groups"),
    ("engine.build_environment", "engine", "build_environment"),
    ("engine.step_arrivals", "engine", "step_arrivals"),
    ("engine.run_txop", "engine", "run_txop"),
    ("scheduling.select_group", "engine", "select_group"),
    ("engine.plan_slot", "engine", "plan_slot"),
    ("engine.deliver", "engine.SimState", "deliver"),
    ("engine.run_simulation", "campaign", "run_simulation"),
    ("campaign.execute_run", "campaign", "execute_run"),
)
LAYERS = tuple(name for name, _, _ in TARGETS)
# Layers that make traced calls of their own, so self_s differs from busy_s.
PARENTS = ("grouping.build_all_groups", "engine.build_environment",
           "engine.run_txop", "engine.run_simulation", "campaign.execute_run")
CALLS, BUSY, SELF, OUTCOME = range(4)


def _resolve(path: str):
    from mapcsim import campaign, engine, grouping

    modules = {"engine": engine, "grouping": grouping, "campaign": campaign}
    head, _, attr = path.partition(".")
    owner = modules[head]
    return getattr(owner, attr) if attr else owner


class LayerTrace:
    """Accumulates per-layer calls, busy and self time over traced passes."""

    def __init__(self) -> None:
        self.acc = {name: [0, 0, 0, 0] for name in LAYERS}
        self.pre_loop_ns = 0    # run_simulation entry -> first step_arrivals, minus build_environment
        self.post_loop_ns = 0   # end of the last run_txop -> run_simulation exit
        self.group_members = 0  # summed sizes of every group formed
        self._stack: list[int] = []
        self._env_ns = 0
        self._first_step_ns: int | None = None
        self._last_txop_end_ns = 0

    def _wrap(self, name, fn, outcome=None, hook=None):
        acc = self.acc[name]
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                acc[CALLS] += 1
                acc[BUSY] += elapsed
                acc[SELF] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if outcome is not None:
                acc[OUTCOME] += outcome(result)
            if hook is not None:
                hook(start, start + elapsed)
            return result

        return traced

    # Hooks for the derived engine metrics. build_environment, the first
    # step_arrivals and the last run_txop of a run all happen inside one
    # run_simulation call, which closes the run in _end_run.
    def _env_done(self, start: int, end: int) -> None:
        self._env_ns = end - start

    def _step_started(self, start: int, end: int) -> None:
        if self._first_step_ns is None:
            self._first_step_ns = start

    def _txop_done(self, start: int, end: int) -> None:
        self._last_txop_end_ns = end

    def _end_run(self, start: int, end: int) -> None:
        self.pre_loop_ns += self._first_step_ns - start - self._env_ns
        self.post_loop_ns += end - self._last_txop_end_ns
        self._first_step_ns = None

    def _count_members(self, groups) -> int:
        self.group_members += sum(len(g) for g in groups.groups)
        return len(groups)

    @contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        outcomes = {
            "channel.group_feasible": bool,
            "grouping.build_all_groups": self._count_members,
            "engine.run_txop": lambda record: len(record.slots),
            "engine.plan_slot": lambda plan: plan is not None,
        }
        hooks = {
            "engine.build_environment": self._env_done,
            "engine.step_arrivals": self._step_started,
            "engine.run_txop": self._txop_done,
            "engine.run_simulation": self._end_run,
        }
        saved = []
        try:
            for name, owner_path, attr in TARGETS:
                owner = _resolve(owner_path)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original,
                                                outcomes.get(name),
                                                hooks.get(name)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self._stack.clear()
