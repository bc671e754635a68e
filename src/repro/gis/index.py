"""A grid spatial index for nearest/range queries over points."""

from __future__ import annotations

import math
from typing import Any, Iterable

from repro.net.geo import Position, haversine_km


class GridIndex:
    """Buckets items by lat/lon cell; queries scan only nearby cells.

    ``cell_deg`` trades memory against query cost; the default 0.01 degrees
    is roughly a 1 km cell at mid latitudes, right for city-scale queries.
    """

    def __init__(self, cell_deg: float = 0.01):
        if cell_deg <= 0:
            raise ValueError("cell size must be positive")
        self.cell_deg = cell_deg
        self._cells: dict[tuple[int, int], list[tuple[Position, Any]]] = {}
        self._count = 0

    def _cell_of(self, pos: Position) -> tuple[int, int]:
        return (
            int(math.floor(pos.lat / self.cell_deg)),
            int(math.floor(pos.lon / self.cell_deg)),
        )

    def insert(self, pos: Position, item: Any) -> None:
        self._cells.setdefault(self._cell_of(pos), []).append((pos, item))
        self._count += 1

    def remove(self, pos: Position, item: Any) -> bool:
        cell = self._cells.get(self._cell_of(pos))
        if not cell:
            return False
        for index, (stored_pos, stored) in enumerate(cell):
            if stored is item and stored_pos == pos:
                del cell[index]
                self._count -= 1
                return True
        return False

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    def _cells_within(self, pos: Position, radius_km: float) -> Iterable[list]:
        lat_span = radius_km / 111.32
        lon_span = radius_km / (111.32 * max(math.cos(math.radians(pos.lat)), 0.01))
        lat_cells = int(math.ceil(lat_span / self.cell_deg))
        lon_cells = int(math.ceil(lon_span / self.cell_deg))
        centre_lat, centre_lon = self._cell_of(pos)
        if len(self._cells) < (2 * lat_cells + 1) * (2 * lon_cells + 1):
            # Fewer occupied cells than cells in reach: visit those, in the walk's order.
            for lat, lon in sorted(self._cells):
                if abs(lat - centre_lat) <= lat_cells and abs(lon - centre_lon) <= lon_cells:
                    yield self._cells[lat, lon]
            return
        for dlat in range(-lat_cells, lat_cells + 1):
            for dlon in range(-lon_cells, lon_cells + 1):
                cell = self._cells.get((centre_lat + dlat, centre_lon + dlon))
                if cell:
                    yield cell

    def within(self, pos: Position, radius_km: float) -> list[tuple[float, Any]]:
        """All items within ``radius_km``, as (distance_km, item), nearest first.

        Cells in reach are visited in (lat, lon) order, walking the occupied
        ones when they are fewer; equal distances keep that order.
        """
        hits: list[tuple[float, Any]] = []
        for cell in self._cells_within(pos, radius_km):
            for stored_pos, item in cell:
                distance = haversine_km(pos, stored_pos)
                if distance <= radius_km:
                    hits.append((distance, item))
        hits.sort(key=lambda pair: pair[0])
        return hits

    def nearest(self, pos: Position, max_radius_km: float = 50.0) -> tuple[float, Any] | None:
        """The closest item within ``max_radius_km``, or None."""
        radius = self.cell_deg * 111.32  # start with one cell's reach
        while radius <= max_radius_km:
            hits = self.within(pos, radius)
            if hits:
                return hits[0]
            radius *= 2
        hits = self.within(pos, max_radius_km)
        return hits[0] if hits else None
