"""City models: streets, places, and the St Andrews of the paper's example."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.gis.index import GridIndex
from repro.gis.logical import StreetMap
from repro.gis.places import OpeningHours, Place
from repro.net.geo import Position, Region


@dataclass
class City:
    """A named region with streets and places of interest."""

    name: str
    region: Region
    street_map: StreetMap
    places: list[Place] = field(default_factory=list)
    place_index: GridIndex = field(default_factory=lambda: GridIndex(cell_deg=0.005))

    def add_place(self, place: Place) -> Place:
        self.places.append(place)
        self.place_index.insert(place.position, place)
        return place

    def nearest_place(
        self, pos: Position, kind: str | None = None, max_radius_km: float = 10.0
    ) -> tuple[float, Place] | None:
        hits = self.place_index.within(pos, max_radius_km)
        for distance, place in hits:
            if kind is None or place.kind == kind:
                return distance, place
        return None

    def random_position(self, rng: random.Random) -> Position:
        return self.region.random_position(rng)


def make_st_andrews() -> City:
    """The paper's own stage: North Street, Market Street, Janetta's."""
    region = Region("st-andrews", 56.3330, 56.3460, -2.8130, -2.7780)
    streets = StreetMap("st-andrews", capture_radius_km=0.2)
    north_street = Position(56.3412, -2.7952)
    south_street = Position(56.3385, -2.7968)
    market_street = Position(56.3399, -2.7954)
    the_scores = Position(56.3437, -2.8005)
    streets.add_street("North Street", north_street)
    streets.add_street("South Street", south_street)
    streets.add_street("Market Street", market_street)
    streets.add_street("The Scores", the_scores)

    city = City("st-andrews", region, streets)
    city.add_place(
        Place(
            "Janetta's",
            Position(56.3400, -2.7940),
            "ice-cream-shop",
            OpeningHours.from_hours(9.0, 17.0),
            street="Market Street",
        )
    )
    city.add_place(
        Place(
            "The Seafood Ristorante",
            Position(56.3430, -2.8010),
            "restaurant",
            OpeningHours.from_hours(12.0, 22.0),
            street="The Scores",
        )
    )
    city.add_place(
        Place(
            "Northpoint Cafe",
            Position(56.3414, -2.7960),
            "cafe",
            OpeningHours.from_hours(8.0, 18.0),
            street="North Street",
        )
    )
    city.add_place(
        Place(
            "University Library",
            Position(56.3408, -2.7995),
            "library",
            OpeningHours.from_hours(8.0, 22.0),
            street="North Street",
        )
    )
    return city


_PLACE_KINDS = (
    "ice-cream-shop",
    "restaurant",
    "cafe",
    "library",
    "shop",
    "cinema",
)


def make_synthetic_city(
    name: str,
    rng: random.Random,
    centre: Position | None = None,
    streets: int = 12,
    places: int = 30,
    span_km: float = 4.0,
) -> City:
    """A generated city for population-scale benchmarks."""
    centre = centre or Position(rng.uniform(-50, 55), rng.uniform(-120, 120))
    half_deg_lat = span_km / 2 / 111.32
    half_deg_lon = half_deg_lat * 1.6
    region = Region(
        name,
        centre.lat - half_deg_lat,
        centre.lat + half_deg_lat,
        centre.lon - half_deg_lon,
        centre.lon + half_deg_lon,
    )
    street_map = StreetMap(name, capture_radius_km=0.3)
    street_centres = []
    for index in range(streets):
        pos = region.random_position(rng)
        street_map.add_street(f"{name}-street-{index}", pos)
        street_centres.append(pos)

    city = City(name, region, street_map)
    for index in range(places):
        anchor = street_centres[rng.randrange(len(street_centres))]
        pos = anchor.offset_km(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        opens = rng.uniform(7.0, 11.0)
        closes = rng.uniform(16.0, 23.0)
        city.add_place(
            Place(
                f"{name}-place-{index}",
                pos,
                rng.choice(_PLACE_KINDS),
                OpeningHours.from_hours(opens, closes),
            )
        )
    return city
