"""Per-slot group selection: one rule, two metrics x two scopes.

Every scheduler scores each AP by one metric: its queued packets (NumPk*) or
how long its oldest packet has waited (OldPk*). Per-Group kinds (*Group)
then pick the stored group with the best size-normalized score, so small
groups do not starve. Per-AP kinds (*Single) pick the single neediest
backlogged AP and then the group containing it with the best summed score.
The two c-TDMA baselines are per-AP kinds that schedule that AP alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .grouping import GroupSet


class SchedulerKind(enum.Enum):
    NUMPK_SINGLE = "numpk-single"
    NUMPK_GROUP = "numpk-group"
    OLDPK_SINGLE = "oldpk-single"
    OLDPK_GROUP = "oldpk-group"
    CTDMA_NUMPK = "ctdma-numpk"
    CTDMA_OLDPK = "ctdma-oldpk"

    def __init__(self, value: str) -> None:
        # The kind's name states its two facts: the metric (NumPk counts
        # queued packets, OldPk head-of-line waits) and the scope (per-Group
        # kinds rank whole groups, the others start from the top AP).
        self.scores_waits = "oldpk" in value
        self.per_group = value.endswith("-group")
        self.is_ctdma = value.startswith("ctdma")


SCHEDULER_NAMES = tuple(kind.value for kind in SchedulerKind)


@dataclass
class BufferSummary:
    """Controller view of all AP buffers at a slot decision instant.

    counts[ap] packets queued; oldest_arrival[ap] is the head-of-line arrival
    time in seconds, or None when the buffer is empty. `now` is the decision
    time, so now - oldest_arrival is the head-of-line waiting time.
    """

    now: float
    counts: Sequence[int]
    oldest_arrival: Sequence[float | None]

    def waits(self) -> list[float]:
        """Waiting time of the oldest packet per AP; 0.0 for empty buffers."""
        return [0.0 if t is None else self.now - t for t in self.oldest_arrival]


def _argmax_backlogged(scores: Sequence[float], counts: Sequence[int]) -> int:
    """Index of the highest score among APs with packets; lowest id on ties."""
    best = -1
    best_score = 0.0
    for ap, count in enumerate(counts):
        if count > 0 and (best < 0 or scores[ap] > best_score):
            best = ap
            best_score = scores[ap]
    return best


def _best_group(groups: GroupSet, indices: Sequence[int],
                score) -> tuple[int, ...]:
    """Highest-scoring group among `indices`; lowest group index on ties."""
    best_members: tuple[int, ...] = ()
    best_score = float("-inf")
    for gi in indices:
        members = groups.groups[gi].members
        s = score(members)
        if s > best_score:
            best_score = s
            best_members = members
    return best_members


def select_group(kind: SchedulerKind, groups: GroupSet,
                 buffers: BufferSummary) -> tuple[int, ...] | None:
    """AP set to serve in the next coordinated slot, or None if all buffers
    are empty. c-TDMA kinds return singletons; the others return the member
    set of one stored group."""
    counts = buffers.counts
    if not any(counts):
        return None
    # empty APs score 0 under both metrics
    scores = buffers.waits() if kind.scores_waits else counts
    if kind.per_group:
        return _best_group(groups, range(len(groups.groups)),
                           lambda m: sum(scores[ap] for ap in m) / len(m))
    top_ap = _argmax_backlogged(scores, counts)
    if kind.is_ctdma:
        return (top_ap,)
    return _best_group(groups, groups.contains_index[top_ap],
                       lambda m: sum(scores[ap] for ap in m))
