"""Per-slot group selection policies.

Four spatial-reuse policies pick one of the precomputed SR-compatible groups
per coordinated slot, driven either by buffer occupancy (NumPk*) or by how
long the oldest packet has waited (OldPk*). The *Single variants first pick
the single neediest AP and then the best group containing it; the *Group
variants score whole groups directly, normalized by group size so small
groups do not starve. The two c-TDMA baselines always schedule exactly one
AP per slot.
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

    @property
    def is_ctdma(self) -> bool:
        return self in (SchedulerKind.CTDMA_NUMPK, SchedulerKind.CTDMA_OLDPK)


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

    if kind is SchedulerKind.CTDMA_NUMPK:
        return (_argmax_backlogged(counts, counts),)
    if kind is SchedulerKind.CTDMA_OLDPK:
        return (_argmax_backlogged(buffers.waits(), counts),)

    all_indices = range(len(groups.groups))
    if kind is SchedulerKind.NUMPK_SINGLE:
        top_ap = _argmax_backlogged(counts, counts)
        return _best_group(groups, groups.contains_index[top_ap],
                           lambda m: sum(counts[ap] for ap in m))
    if kind is SchedulerKind.NUMPK_GROUP:
        return _best_group(groups, all_indices,
                           lambda m: sum(counts[ap] for ap in m) / len(m))

    waits = buffers.waits()  # empty APs contribute 0 to the aggregates
    if kind is SchedulerKind.OLDPK_SINGLE:
        top_ap = _argmax_backlogged(waits, counts)
        return _best_group(groups, groups.contains_index[top_ap],
                           lambda m: sum(waits[ap] for ap in m))
    if kind is SchedulerKind.OLDPK_GROUP:
        return _best_group(groups, all_indices,
                           lambda m: sum(waits[ap] for ap in m) / len(m))
    raise ValueError(f"unknown scheduler kind: {kind}")
