"""Deployment construction: AP grid, random station placement, association."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .config import ScenarioConfig

# Stations are resampled if they land closer than this to their AP, to keep
# the path-loss model away from its d -> 0 singularity.
MIN_AP_STATION_DISTANCE_M = 0.1


def _whole_ids(values: Any, name: str) -> np.ndarray:
    """`values` as an int array; raises unless each entry is a whole number,
    an int or a finite float with no fraction, so that an id of 1.5 is an
    error and never AP 1."""
    ids = np.asarray(values)
    if ids.size and not (ids.dtype.kind in "iu" or (
            ids.dtype.kind == "f" and np.isfinite(ids).all() and (ids == np.floor(ids)).all())):
        raise ValueError(f"{name}: AP ids must be whole numbers")
    return ids.astype(int)


@dataclass
class Deployment:
    """AP and station positions (meters) with the station -> AP association."""

    ap_positions: np.ndarray       # (A, 2)
    station_positions: np.ndarray  # (S, 2)
    association: np.ndarray        # (S,) AP id per station
    sharing_ap_id: int
    stations_by_ap: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self) -> None:
        self.ap_positions = np.asarray(self.ap_positions, dtype=float)
        self.station_positions = np.asarray(self.station_positions, dtype=float)
        for name in ("ap_positions", "station_positions"):
            xy = getattr(self, name)
            if xy.ndim != 2 or xy.shape[1] != 2 or not np.isfinite(xy).all():
                raise ValueError(f"{name} must be an (N, 2) array of finite coordinates")
        self.association = _whole_ids(self.association, "association")
        sharing = _whole_ids(self.sharing_ap_id, "sharing_ap_id")
        if sharing.ndim:
            raise ValueError("sharing_ap_id must be one AP id")
        self.sharing_ap_id = int(sharing)
        if not 0 <= self.sharing_ap_id < len(self.ap_positions):
            raise ValueError("sharing_ap_id is not a valid AP id")
        # the airtime table keys links by station alone: each has exactly one AP
        if (self.association.shape != (len(self.station_positions),)
                or not ((self.association >= 0) & (self.association < self.num_aps)).all()):
            raise ValueError(f"association must give each of the {self.num_stations} "
                             f"stations an AP id in [0, {self.num_aps})")
        groups: list[list[int]] = [[] for _ in range(len(self.ap_positions))]
        for sta, ap in enumerate(self.association.tolist()):
            groups[ap].append(sta)
        self.stations_by_ap = tuple(tuple(g) for g in groups)

    @property
    def num_aps(self) -> int:
        return len(self.ap_positions)

    @property
    def num_stations(self) -> int:
        return len(self.station_positions)


def nearest_ap_association(ap_positions: np.ndarray,
                           station_positions: np.ndarray) -> np.ndarray:
    """Map each station to the closest AP; ties go to the lowest AP id.

    The squared distances are summed as dx^2 + dy^2 in a (station x AP)
    array, worked on in place."""
    ap_positions = np.asarray(ap_positions, dtype=float)
    station_positions = np.asarray(station_positions, dtype=float)
    if len(ap_positions) == 0:
        raise ValueError("at least one AP is required for association")
    dist_sq = np.subtract.outer(station_positions[:, 0], ap_positions[:, 0])
    np.square(dist_sq, out=dist_sq)
    dy = np.subtract.outer(station_positions[:, 1], ap_positions[:, 1])
    np.square(dy, out=dy)
    dist_sq += dy
    return dist_sq.argmin(axis=1)  # argmin takes the first (lowest id) on ties


def generate_grid_deployment(config: ScenarioConfig,
                             rng: np.random.Generator) -> Deployment:
    """One AP at the center of each subarea, N stations uniform inside it.

    AP ids run row-major (x fastest); station ids are grouped by subarea in
    the same order. The sharing AP is the grid-center one. Each station
    takes uniform (x, y) pairs in turn until one lands at least
    MIN_AP_STATION_DISTANCE_M from its AP; a rejected pair is used up and
    the station takes the next. The pairs come in blocks of one per station
    still to place, which draw from `rng` what one `rng.random(2)` call per
    attempt would, so the positions and the generator's final state are
    those of a per-attempt loop.
    """
    side = config.subarea_side_m
    cells = [(r, c) for r in range(config.subarea_rows) for c in range(config.subarea_cols)]
    ap_positions = np.array([(c * side + side / 2.0, r * side + side / 2.0)
                             for r, c in cells])
    per = config.stations_per_subarea
    corners = np.array([(c * side, r * side) for r, c in cells]).repeat(per, axis=0)
    own_ap = ap_positions.repeat(per, axis=0)
    station_positions = np.empty_like(corners)
    placed = 0
    while placed < len(corners):
        offsets = rng.random((len(corners) - placed, 2)) * side
        used = 0
        while used < len(offsets):
            tried = len(offsets) - used
            xy = corners[placed:placed + tried] + offsets[used:]
            gap = xy - own_ap[placed:placed + tried]
            fits = np.hypot(gap[:, 0], gap[:, 1]) >= MIN_AP_STATION_DISTANCE_M
            kept = tried if fits.all() else int(fits.argmin())
            station_positions[placed:placed + kept] = xy[:kept]
            placed += kept
            used += kept + 1  # the first rejected pair, if any, is used up
    association = nearest_ap_association(ap_positions, station_positions)
    sharing_ap = (config.subarea_rows // 2) * config.subarea_cols + config.subarea_cols // 2
    return Deployment(ap_positions, station_positions, association, sharing_ap)
