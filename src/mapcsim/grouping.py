"""Greedy formation of SR-compatible AP groups, capped at K members.

The central controller builds one candidate group per reference AP: starting
from the reference, it walks the other APs ordered by how weakly the
reference's own stations hear them (worst case station first) and keeps a
candidate only if the whole tentative group stays SINR-feasible for every
involved station. Rejected candidates are not retried; the walk stops once
the group holds K members. Identical member sets produced from different
references collapse to a single group. A group is its member tuple, the
reference first, then the accepted candidates in walk order.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from .channel import group_feasible
from .scenario import Deployment


@dataclass
class GroupSet:
    """The stored AP sets plus lookups the scheduler builds once: the groups
    holding each AP, and a K x G matrix whose row c holds each group's c-th
    member (-1 for a group of c members or fewer), with the vector of group
    sizes. Takes any iterable of member sequences and keeps them as tuples of
    Python ints; a bool, a non-integer or a negative id is refused."""

    groups: tuple[tuple[int, ...], ...]
    contains_index: dict[int, tuple[int, ...]] = field(init=False)
    member_columns: np.ndarray = field(init=False, repr=False, compare=False)
    sizes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.groups = tuple(map(_member_ids, self.groups))
        index: dict[int, list[int]] = {}
        width = max((len(g) for g in self.groups), default=0)
        self.member_columns = np.full((width, len(self.groups)), -1, dtype=np.intp)
        for gi, members in enumerate(self.groups):
            for ap in members:
                index.setdefault(ap, []).append(gi)
            self.member_columns[:len(members), gi] = members
        self.contains_index = {ap: tuple(gis) for ap, gis in index.items()}
        self.sizes = np.array([len(g) for g in self.groups], dtype=float)

    def __len__(self) -> int:
        return len(self.groups)

    def to_jsonable(self) -> list[dict[str, Any]]:
        return [{"reference_ap": members[0], "members": list(members)}
                for members in self.groups]


def _member_ids(members: Iterable[Any]) -> tuple[int, ...]:
    """One or more distinct AP ids as Python ints; raises ValueError naming
    the group otherwise (-1 pads `member_columns`)."""
    members = tuple(members)
    if not all(isinstance(ap, numbers.Integral) and not isinstance(ap, bool) and ap >= 0
               for ap in members):
        raise ValueError(f"group {members} must hold integer AP ids >= 0")
    ids = tuple(map(operator.index, members))
    if not ids or len(set(ids)) != len(ids):
        raise ValueError(f"group {members} must hold one or more distinct APs")
    return ids


def candidate_order(ref_ap: int, rssi_dbm: np.ndarray,
                    deployment: Deployment) -> list[int]:
    """Other APs sorted by the strongest RSSI any of the reference's stations
    sees from them, weakest first (ties by lowest AP id).

    The max over stations is the worst-case victim; an AP with no stations
    yields no candidates (it can only form its own singleton group).
    """
    stations = deployment.stations_by_ap[ref_ap]
    if not stations:
        return []
    # a stable sort keeps equal RSSIs in AP id order
    order = np.argsort(rssi_dbm[:, list(stations)].max(axis=1), kind="stable")
    return [ap for ap in order.tolist() if ap != ref_ap]


def build_group(ref_ap: int, rssi_dbm: np.ndarray, deployment: Deployment,
                noise_dbm: float, gamma_db: float, max_size: int) -> tuple[int, ...]:
    """Grow a group greedily from `ref_ap` up to `max_size` members and
    return its member tuple, reference first.

    Each candidate is added tentatively and kept only if every station of
    every member (new and old) still clears gamma, which enforces
    compatibility in both directions.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    members = [ref_ap]
    for candidate in candidate_order(ref_ap, rssi_dbm, deployment):
        if len(members) >= max_size:
            break
        tentative = members + [candidate]
        if group_feasible(tentative, rssi_dbm, deployment.stations_by_ap,
                          noise_dbm, gamma_db):
            members = tentative
    return tuple(members)


def build_all_groups(rssi_dbm: np.ndarray, deployment: Deployment,
                     noise_dbm: float, gamma_db: float, max_size: int) -> GroupSet:
    """One greedy group per reference AP, with duplicate member sets (as
    unordered sets) collapsed onto the lowest reference id."""
    first: dict[frozenset[int], tuple[int, ...]] = {}
    for ref_ap in range(deployment.num_aps):
        members = build_group(ref_ap, rssi_dbm, deployment, noise_dbm, gamma_db,
                              max_size)
        first.setdefault(frozenset(members), members)
    return GroupSet(first.values())
