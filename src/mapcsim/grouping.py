"""Greedy formation of SR-compatible AP groups, capped at K members.

The central controller builds one candidate group per reference AP: starting
from the reference, it walks the other APs ordered by how weakly the
reference's own stations hear them (worst case station first) and keeps a
candidate only if the whole tentative group stays SINR-feasible for every
involved station. Rejected candidates are not retried; the walk stops once
the group holds K members. Identical member sets produced from different
references collapse to a single group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .channel import group_feasible
from .scenario import Deployment


@dataclass(frozen=True)
class Group:
    reference_ap: int
    members: tuple[int, ...]  # insertion order: reference first, then accepted candidates

    def __post_init__(self) -> None:
        if self.reference_ap not in self.members:
            raise ValueError("reference AP must be a group member")
        if len(set(self.members)) != len(self.members):
            raise ValueError("group members must be distinct")

    def __len__(self) -> int:
        return len(self.members)


@dataclass
class GroupSet:
    """The stored groups plus lookups the scheduler builds once: each
    group's member tuple, the groups holding each AP, and a K x G matrix
    whose row c holds each group's c-th member (-1 for a group of c members
    or fewer), with the vector of group sizes."""

    groups: list[Group]
    member_tuples: tuple[tuple[int, ...], ...] = field(init=False, repr=False,
                                                       compare=False)
    contains_index: dict[int, tuple[int, ...]] = field(init=False)
    member_columns: np.ndarray = field(init=False, repr=False, compare=False)
    sizes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index: dict[int, list[int]] = {}
        width = max((len(g) for g in self.groups), default=0)
        self.member_columns = np.full((width, len(self.groups)), -1, dtype=np.intp)
        for gi, group in enumerate(self.groups):
            for ap in group.members:
                index.setdefault(ap, []).append(gi)
            self.member_columns[:len(group), gi] = group.members
        self.member_tuples = tuple(g.members for g in self.groups)
        self.contains_index = {ap: tuple(gis) for ap, gis in index.items()}
        self.sizes = np.array([len(g) for g in self.groups], dtype=float)

    def __len__(self) -> int:
        return len(self.groups)

    def to_jsonable(self) -> list[dict[str, Any]]:
        return [{"reference_ap": g.reference_ap, "members": list(g.members)}
                for g in self.groups]


def candidate_orders(rssi_dbm: np.ndarray, deployment: Deployment) -> list[list[int]]:
    """`candidate_order` of every reference AP, in one pass: one max over
    each AP's station columns, then one stable argsort of all the keys."""
    stations_by_ap = deployment.stations_by_ap
    orders: list[list[int]] = [[] for _ in stations_by_ap]
    refs = [ap for ap, stations in enumerate(stations_by_ap) if stations]
    if not refs:
        return orders
    columns = [sta for stations in stations_by_ap for sta in stations]
    starts = np.cumsum([0] + [len(stations_by_ap[ap]) for ap in refs[:-1]])
    # loudest[a, k]: the strongest RSSI any station of refs[k] hears from AP a
    loudest = np.maximum.reduceat(rssi_dbm[:, columns], starts, axis=1)
    # a stable sort keeps equal RSSIs in AP id order
    ranked = np.argsort(loudest, axis=0, kind="stable").T.tolist()
    for ref, order in zip(refs, ranked):
        orders[ref] = [ap for ap in order if ap != ref]
    return orders


def candidate_order(ref_ap: int, rssi_dbm: np.ndarray,
                    deployment: Deployment) -> list[int]:
    """Other APs sorted by the strongest RSSI any of the reference's stations
    sees from them, weakest first (ties by lowest AP id).

    The max over stations is the worst-case victim; an AP with no stations
    yields no candidates (it can only form its own singleton group).
    """
    return candidate_orders(rssi_dbm, deployment)[ref_ap]


def _grow(ref_ap: int, order: list[int], rssi_dbm: np.ndarray, deployment: Deployment,
          noise_dbm: float, gamma_db: float, max_size: int) -> Group:
    """The greedy walk of `build_group` over the candidates in `order`."""
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    members = [ref_ap]
    for candidate in order:
        if len(members) >= max_size:
            break
        tentative = members + [candidate]
        if group_feasible(tentative, rssi_dbm, deployment.stations_by_ap,
                          noise_dbm, gamma_db):
            members = tentative
    return Group(ref_ap, tuple(members))


def build_group(ref_ap: int, rssi_dbm: np.ndarray, deployment: Deployment,
                noise_dbm: float, gamma_db: float, max_size: int) -> Group:
    """Grow a group greedily from `ref_ap` up to `max_size` members.

    Each candidate is added tentatively and kept only if every station of
    every member (new and old) still clears gamma, which enforces
    compatibility in both directions.
    """
    return _grow(ref_ap, candidate_order(ref_ap, rssi_dbm, deployment), rssi_dbm,
                 deployment, noise_dbm, gamma_db, max_size)


def build_all_groups(rssi_dbm: np.ndarray, deployment: Deployment,
                     noise_dbm: float, gamma_db: float, max_size: int) -> GroupSet:
    """One greedy group per reference AP, with duplicate member sets (as
    unordered sets) collapsed onto the lowest reference id."""
    groups: list[Group] = []
    seen: set[frozenset[int]] = set()
    orders = candidate_orders(rssi_dbm, deployment)
    for ref_ap, order in enumerate(orders):
        group = _grow(ref_ap, order, rssi_dbm, deployment, noise_dbm, gamma_db,
                      max_size)
        key = frozenset(group.members)
        if key not in seen:
            seen.add(key)
            groups.append(group)
    return GroupSet(groups)
