"""Deployment construction: AP grid, random station placement, association."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .config import ScenarioConfig

# Stations are resampled if they land closer than this to their AP, to keep
# the path-loss model away from its d -> 0 singularity.
MIN_AP_STATION_DISTANCE_M = 0.1


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
        self.association = np.asarray(self.association, dtype=int)
        if not 0 <= self.sharing_ap_id < len(self.ap_positions):
            raise ValueError("sharing_ap_id is not a valid AP id")
        groups: list[list[int]] = [[] for _ in range(len(self.ap_positions))]
        for sta, ap in enumerate(self.association):
            groups[ap].append(sta)
        self.stations_by_ap = tuple(tuple(g) for g in groups)

    @property
    def num_aps(self) -> int:
        return len(self.ap_positions)

    @property
    def num_stations(self) -> int:
        return len(self.station_positions)

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "ap_positions": self.ap_positions.tolist(),
            "station_positions": self.station_positions.tolist(),
            "association": self.association.tolist(),
            "sharing_ap_id": self.sharing_ap_id,
        }

    @classmethod
    def from_jsonable(cls, data: dict[str, Any]) -> "Deployment":
        return cls(
            ap_positions=np.array(data["ap_positions"], dtype=float),
            station_positions=np.array(data["station_positions"], dtype=float),
            association=np.array(data["association"], dtype=int),
            sharing_ap_id=int(data["sharing_ap_id"]),
        )

    def save_json(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_jsonable(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load_json(cls, path: str | Path) -> "Deployment":
        with open(path) as fh:
            return cls.from_jsonable(json.load(fh))


def nearest_ap_association(ap_positions: np.ndarray,
                           station_positions: np.ndarray) -> np.ndarray:
    """Map each station to the closest AP; ties go to the lowest AP id."""
    ap_positions = np.asarray(ap_positions, dtype=float)
    station_positions = np.asarray(station_positions, dtype=float)
    if len(ap_positions) == 0:
        raise ValueError("at least one AP is required for association")
    diff = station_positions[:, None, :] - ap_positions[None, :, :]
    dist_sq = (diff ** 2).sum(axis=2)
    return dist_sq.argmin(axis=1)  # argmin takes the first (lowest id) on ties


def generate_grid_deployment(config: ScenarioConfig,
                             rng: np.random.Generator) -> Deployment:
    """One AP at the center of each subarea, N stations uniform inside it.

    AP ids run row-major (x fastest); station ids are grouped by subarea in
    the same order. The sharing AP is the grid-center one.
    """
    side = config.subarea_side_m
    ap_positions = np.array([
        (c * side + side / 2.0, r * side + side / 2.0)
        for r in range(config.subarea_rows)
        for c in range(config.subarea_cols)
    ])
    stations = []
    for r in range(config.subarea_rows):
        for c in range(config.subarea_cols):
            ap_xy = ap_positions[r * config.subarea_cols + c]
            for _ in range(config.stations_per_subarea):
                while True:
                    xy = np.array([c * side, r * side]) + rng.random(2) * side
                    if np.hypot(*(xy - ap_xy)) >= MIN_AP_STATION_DISTANCE_M:
                        break
                stations.append(xy)
    station_positions = np.array(stations)
    association = nearest_ap_association(ap_positions, station_positions)
    sharing_ap = (config.subarea_rows // 2) * config.subarea_cols + config.subarea_cols // 2
    return Deployment(ap_positions, station_positions, association, sharing_ap)
