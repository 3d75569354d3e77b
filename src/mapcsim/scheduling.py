"""Per-slot group selection: one rule, two metrics x two scopes.

Every scheduler scores each AP by one metric: its queued packets (NumPk*) or
how long its oldest packet has waited (OldPk*). Per-Group kinds (*Group)
then pick the stored group with the best size-normalized score, so small
groups do not starve. Per-AP kinds (*Single) pick the single neediest
backlogged AP and then the group containing it with the best summed score.
The two c-TDMA baselines are per-AP kinds that schedule that AP alone.

An empty buffer's head-of-line arrival is +inf, so the OldPk per-AP kinds
find their AP, the one with the oldest head, as min() of the heads and
work out waits only for the members of the groups holding it.
"""

from __future__ import annotations

import enum
from math import inf
from typing import Mapping, Sequence

import numpy as np

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


def head_waits(heads: Sequence[float], now: float) -> list[float]:
    """Waiting time at `now` of each AP's oldest packet, from its head-of-line
    arrival time; 0.0 for an empty buffer, whose head is +inf."""
    return [0.0 if t == inf else now - t for t in heads]


def _best_summed_group(groups: GroupSet, indices: Sequence[int],
                       scores: Sequence[float] | Mapping[int, float]) -> tuple[int, ...]:
    """Group among `indices` with the highest summed member score; lowest
    group index on ties. Members are added left to right, not by the
    built-in sum, which compensates float sums from Python 3.12 on."""
    member_tuples = groups.member_tuples
    best_members: tuple[int, ...] = ()
    best_score = float("-inf")
    for gi in indices:
        members = member_tuples[gi]
        s = 0
        for ap in members:
            s += scores[ap]
        if s > best_score:
            best_score = s
            best_members = members
    return best_members


# Largest group count scored by the plain loop; larger sets are scored by
# numpy column sums. Per call on default-geometry deployments (Python 3.11,
# numpy 2.4, 2-vCPU x86_64 VM) the loop takes 1.8-2.5 us at 8 groups (3x3)
# against 7.3-7.9 for numpy, the two are about even at 30-42 groups, and at
# 144 groups (12x12) the loop takes 31-38 us against 15-16.
LOOP_MAX_GROUPS = 32


def _best_mean_group_loop(groups: GroupSet, scores: Sequence[float]) -> tuple[int, ...]:
    """Group with the highest mean member score; lowest group index on ties.

    Each group's members are added left to right and the sum divided by
    the group size: the float operations of `_best_mean_group_numpy`, in
    its order, so both pick the same group."""
    best_members: tuple[int, ...] = ()
    best_mean = float("-inf")
    for members in groups.member_tuples:
        total = 0
        for ap in members:
            total += scores[ap]
        mean = total / len(members)
        if mean > best_mean:
            best_mean = mean
            best_members = members
    return best_members


def _best_mean_group_numpy(groups: GroupSet, scores: Sequence[float]) -> tuple[int, ...]:
    """`_best_mean_group_loop` over all groups at once.

    Each group's members are summed left to right, one matrix column at a
    time. Padding (-1) reads the 0.0 appended after the last AP, and adding
    0.0 leaves a sum unchanged.
    """
    padded = np.zeros(len(scores) + 1)
    padded[:-1] = scores
    by_member = padded[groups.member_matrix]
    total = by_member[:, 0]
    for col in range(1, by_member.shape[1]):
        total = total + by_member[:, col]
    return groups.member_tuples[int(np.argmax(total / groups.sizes))]


def select_group(kind: SchedulerKind, groups: GroupSet, counts: Sequence[int],
                 heads: Sequence[float], now: float) -> tuple[int, ...] | None:
    """AP set to serve in the slot decided at `now`, or None if all buffers
    are empty. The controller's view of the buffers is two per-AP lists:
    `counts`, packets queued, and `heads`, head-of-line arrival times in
    seconds (+inf for an empty buffer); a run passes its live lists
    (SimState.counts, .heads). c-TDMA kinds return singletons; the others
    return the member set of one stored group."""
    if not any(counts):
        return None
    if kind.per_group:  # two scorers that agree exactly; the faster by set size
        # empty APs score 0 under both metrics
        scores = head_waits(heads, now) if kind.scores_waits else counts
        if len(groups.member_tuples) <= LOOP_MAX_GROUPS:
            return _best_mean_group_loop(groups, scores)
        return _best_mean_group_numpy(groups, scores)
    if kind.scores_waits:
        # The top wait is the oldest head's, and an empty buffer's head is
        # +inf, so that AP is backlogged; equal heads go to the lowest id.
        # Distinct heads lie whole periods apart, so `now - head` cannot
        # round two of them to a tie.
        top_ap = heads.index(min(heads))
        if kind.is_ctdma:
            return (top_ap,)
        # only the members of the groups holding that AP need a wait
        holders, member_tuples = groups.contains_index[top_ap], groups.member_tuples
        waits = {ap: 0.0 if heads[ap] == inf else now - heads[ap]
                 for gi in holders for ap in member_tuples[gi]}
        return _best_summed_group(groups, holders, waits)
    # Only a backlogged AP has a positive count, so the first maximum is the
    # backlogged AP with the most packets and the lowest id.
    top_ap = counts.index(max(counts))
    if kind.is_ctdma:
        return (top_ap,)
    return _best_summed_group(groups, groups.contains_index[top_ap], counts)
