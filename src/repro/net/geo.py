"""Geographic primitives: positions, great-circle distance, named regions.

Latitude/longitude are in degrees.  Geographic placement drives both the
network latency model (messages between Scotland and Australia are slow) and
the contextual layer (Bob's GPS position, distances to Janetta's).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

EARTH_RADIUS_KM = 6371.0


@dataclass(frozen=True)
class Position:
    """A point on the globe in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon}")

    def distance_km(self, other: "Position") -> float:
        return haversine_km(self, other)

    def offset_km(self, north_km: float, east_km: float) -> "Position":
        """Approximate local offset; accurate for the city-scale moves we use."""
        dlat = north_km / 111.32
        dlon = east_km / (111.32 * max(math.cos(math.radians(self.lat)), 1e-9))
        lat = max(-90.0, min(90.0, self.lat + dlat))
        lon = ((self.lon + dlon + 180.0) % 360.0) - 180.0
        return Position(lat, lon)


def haversine_km(a: Position, b: Position) -> float:
    """Great-circle distance between two positions in kilometres."""
    lat1, lon1, lat2, lon2 = map(math.radians, (a.lat, a.lon, b.lat, b.lon))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


@dataclass(frozen=True)
class Region:
    """A named lat/lon bounding box, used by placement constraints (§4.4)."""

    name: str
    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def contains(self, pos: Position) -> bool:
        return (
            self.lat_min <= pos.lat <= self.lat_max
            and self.lon_min <= pos.lon <= self.lon_max
        )

    def random_position(self, rng: random.Random) -> Position:
        return Position(
            rng.uniform(self.lat_min, self.lat_max),
            rng.uniform(self.lon_min, self.lon_max),
        )

    @property
    def centre(self) -> Position:
        return Position(
            (self.lat_min + self.lat_max) / 2.0,
            (self.lon_min + self.lon_max) / 2.0,
        )


def region_for(
    pos: Position, regions: "list[Region] | None" = None
) -> "Region | None":
    """First region (in listing order) containing ``pos``, or None.

    Listing order matters because the world regions overlap (Scotland
    lies inside Europe's box); callers that care list the specific
    region first, as WORLD_REGIONS does.
    """
    for region in WORLD_REGIONS if regions is None else regions:
        if region.contains(pos):
            return region
    return None


def region_of(position: Position) -> str:
    """The name of ``position``'s world region, ``"other"`` outside all."""
    region = region_for(position)
    return "other" if region is None else region.name


# A handful of world regions used throughout examples and benchmarks.
SCOTLAND = Region("scotland", 55.0, 58.7, -7.5, -1.8)
EUROPE = Region("europe", 36.0, 60.0, -10.0, 30.0)
AUSTRALIA = Region("australia", -43.0, -12.0, 113.0, 153.0)
NORTH_AMERICA = Region("north-america", 25.0, 55.0, -125.0, -70.0)
ASIA = Region("asia", 5.0, 45.0, 70.0, 140.0)

WORLD_REGIONS = [SCOTLAND, EUROPE, AUSTRALIA, NORTH_AMERICA, ASIA]
