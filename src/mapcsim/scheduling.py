"""Per-slot group selection: one rule, two metrics x two scopes.

Every scheduler scores each AP by one metric: its queued packets (NumPk*) or
how long its oldest packet has waited (OldPk*). Per-Group kinds (*Group)
then pick the stored group with the best size-normalized score, so small
groups do not starve. Per-AP kinds (*Single) pick the single neediest
backlogged AP and then the group containing it with the best summed score.
The two c-TDMA baselines are per-AP kinds that schedule that AP alone.

An AP's head is the arrival time of its first unsent burst, arrived or
not (+inf once its arrivals are spent). A burst still to come arrives after
every decision instant, so a head at or before `now` is a backlogged AP's
and waits `now - head`, and any other waits 0.0: NumPk reads only the
counts, OldPk only the heads, and a run keeps only the half its kind reads.
With an AP backlogged, as the caller guarantees, the OldPk per-AP kinds
find theirs, the one with the oldest head, as the first minimum of the
heads, and work out waits only for the members of the groups holding it.
The view comes as lists (small grids, scored by Python loops) or as numpy
vectors (large grids, scored by argmax, argmin and numpy column sums); both
give the same pick.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:
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
    arrival time; 0.0 for a head after `now`, which in a run is an AP with no
    packets queued (its head +inf or a burst still to come)."""
    return [now - t if t <= now else 0.0 for t in heads]


def _best_summed_group(groups: GroupSet, indices: Sequence[int],
                       scores: Sequence[float] | Mapping[int, float]) -> tuple[int, ...]:
    """Group among `indices` with the highest summed member score; lowest
    group index on ties. Members are added left to right, not by the
    built-in sum, which compensates float sums from Python 3.12 on."""
    member_tuples = groups.groups
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


def _best_mean_group_loop(groups: GroupSet, scores: Sequence[float]) -> tuple[int, ...]:
    """Group with the highest mean member score; lowest group index on ties.

    Each group's members are added left to right and the sum divided by
    the group size: the float operations of `_best_mean_group_numpy`, in
    its order, so both pick the same group."""
    best_members: tuple[int, ...] = ()
    best_mean = float("-inf")
    for members in groups.groups:
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

    Each group's members are summed left to right, one row of member
    indices at a time. Padding (-1) reads the 0.0 appended after the last
    AP, and adding 0.0 leaves a sum unchanged.
    """
    padded = np.zeros(len(scores) + 1)
    padded[:-1] = scores
    by_member = padded.take(groups.member_columns)
    total = by_member[0]
    for row in by_member[1:]:
        total += row
    total /= groups.sizes
    return groups.groups[int(total.argmax())]


def select_group(kind: SchedulerKind, groups: GroupSet, counts: Sequence[int] | None,
                 heads: Sequence[float] | None, now: float) -> tuple[int, ...]:
    """AP set to serve in the slot decided at `now`; at least one AP must
    hold packets. The controller's view of the buffers is, per AP, `counts`,
    packets queued, and `heads`, head-of-line arrival times in seconds: a
    run passes its live view (SimState.counts, .heads), lists or, on large
    grids, numpy vectors, scored by a Python loop or by numpy. Only the half
    the kind reads is needed; a run passes None for the other. A head after
    `now` (+inf, or a burst still to come) waits 0.0. c-TDMA kinds return
    singletons; the others return the member set of one stored group."""
    vector = isinstance(heads if kind.scores_waits else counts, np.ndarray)
    if kind.per_group:
        # empty APs score 0 under both metrics; the two scorers agree exactly
        if not kind.scores_waits:
            scores = counts
        elif vector:
            scores = np.maximum(now - heads, 0.0)
        else:
            scores = head_waits(heads, now)
        return (_best_mean_group_numpy if vector else _best_mean_group_loop)(groups, scores)
    if kind.scores_waits:
        # The oldest head is a backlogged AP's: a burst still to come arrives
        # after every queued one. Equal heads go to the lowest id. Distinct
        # heads lie whole periods apart, so `now - head` cannot round two of
        # them to a tie.
        top_ap = int(heads.argmin()) if vector else heads.index(min(heads))
        if kind.is_ctdma:
            return (top_ap,)
        # only the members of the groups holding that AP need a wait
        holders, member_tuples = groups.contains_index[top_ap], groups.groups
        waits = {ap: now - heads[ap] if heads[ap] <= now else 0.0
                 for gi in holders for ap in member_tuples[gi]}
        return _best_summed_group(groups, holders, waits)
    # Only a backlogged AP has a positive count, so the first maximum is the
    # backlogged AP with the most packets and the lowest id.
    top_ap = int(counts.argmax()) if vector else counts.index(max(counts))
    if kind.is_ctdma:
        return (top_ap,)
    return _best_summed_group(groups, groups.contains_index[top_ap], counts)
