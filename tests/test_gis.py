"""Tests for the GIS substrate: index, places, logical locations, travel."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gis import GridIndex, OpeningHours, Place, StreetMap, travel_time_s
from repro.net.geo import Position, haversine_km
from repro.sensors.city import make_synthetic_city


class TestGridIndex:
    def test_insert_and_range_query(self):
        index = GridIndex()
        origin = Position(56.34, -2.79)
        index.insert(origin.offset_km(0.1, 0.0), "near")
        index.insert(origin.offset_km(5.0, 5.0), "far")
        hits = index.within(origin, 1.0)
        assert [item for _, item in hits] == ["near"]

    def test_results_sorted_by_distance(self):
        index = GridIndex()
        origin = Position(56.34, -2.79)
        index.insert(origin.offset_km(0.5, 0.0), "mid")
        index.insert(origin.offset_km(0.1, 0.0), "close")
        index.insert(origin.offset_km(0.9, 0.0), "edge")
        hits = index.within(origin, 2.0)
        assert [item for _, item in hits] == ["close", "mid", "edge"]

    def test_nearest_expands_search(self):
        index = GridIndex()
        origin = Position(56.34, -2.79)
        index.insert(origin.offset_km(8.0, 0.0), "only")
        hit = index.nearest(origin, max_radius_km=20.0)
        assert hit is not None and hit[1] == "only"

    def test_nearest_respects_max_radius(self):
        index = GridIndex()
        origin = Position(56.34, -2.79)
        index.insert(origin.offset_km(30.0, 0.0), "too-far")
        assert index.nearest(origin, max_radius_km=10.0) is None

    def test_remove(self):
        index = GridIndex()
        pos = Position(1.0, 1.0)
        index.insert(pos, "x")
        assert index.remove(pos, "x")
        assert not index.remove(pos, "x")
        assert len(index) == 0

    @given(
        st.lists(
            st.tuples(st.floats(-0.4, 0.4), st.floats(-0.4, 0.4)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_within_matches_brute_force(self, offsets):
        origin = Position(50.0, 10.0)
        index = GridIndex()
        points = []
        for north, east in offsets:
            pos = origin.offset_km(north * 10, east * 10)
            index.insert(pos, (north, east))
            points.append(pos)
        radius = 3.0
        expected = sorted(
            haversine_km(origin, p) for p in points if haversine_km(origin, p) <= radius
        )
        actual = [d for d, _ in index.within(origin, radius)]
        assert len(actual) == len(expected)
        assert actual == pytest.approx(expected)


def grid_reach(index, pos, radius_km):
    """The cells a plain grid walk visits around ``pos``, in its order."""
    lat_span = radius_km / 111.32
    lon_span = radius_km / (111.32 * max(math.cos(math.radians(pos.lat)), 0.01))
    lat_cells = int(math.ceil(lat_span / index.cell_deg))
    lon_cells = int(math.ceil(lon_span / index.cell_deg))
    centre_lat, centre_lon = index._cell_of(pos)
    return [
        (centre_lat + dlat, centre_lon + dlon)
        for dlat in range(-lat_cells, lat_cells + 1)
        for dlon in range(-lon_cells, lon_cells + 1)
    ]


def walked_within(index, pos, radius_km):
    """``GridIndex.within`` by the plain grid walk: the reference."""
    hits = []
    for key in grid_reach(index, pos, radius_km):
        for stored_pos, item in index._cells.get(key, ()):
            distance = haversine_km(pos, stored_pos)
            if distance <= radius_km:
                hits.append((distance, item))
    hits.sort(key=lambda pair: pair[0])
    return hits


def walked_nearest(index, pos, max_radius_km):
    radius = index.cell_deg * 111.32
    while radius <= max_radius_km:
        hits = walked_within(index, pos, radius)
        if hits:
            return hits[0]
        radius *= 2
    hits = walked_within(index, pos, max_radius_km)
    return hits[0] if hits else None


class TestOccupiedCellWalk:
    """``within`` walks the occupied cells when there are fewer of those
    than cells in reach; hits and their tie order must not change."""

    RADII = [0.0, 0.05, 0.3, 1.0, 4.0, 40.0]  # the last reaches past every point
    ORIGIN = Position(56.34, -2.79)

    def populated(self, rng, points, spread_km, cell_deg):
        index = GridIndex(cell_deg=cell_deg)
        positions = []
        for n in range(points):
            if positions and rng.random() < 0.2:
                pos = rng.choice(positions)  # an identical position: a tie
            else:
                pos = self.ORIGIN.offset_km(
                    rng.uniform(-spread_km, spread_km), rng.uniform(-spread_km, spread_km)
                )
            positions.append(pos)
            index.insert(pos, f"item-{n}")
        return index, positions

    @pytest.mark.parametrize(
        "points,spread_km,cell_deg", [(12, 15.0, 0.01), (600, 2.0, 0.005), (200, 0.5, 0.01)]
    )
    def test_within_equals_the_grid_walk(self, points, spread_km, cell_deg):
        rng = random.Random(points)
        index, positions = self.populated(rng, points, spread_km, cell_deg)
        branches = set()
        probes = [self.ORIGIN, *rng.sample(positions, 5)]
        for pos in probes:
            for radius in self.RADII:
                branches.add(len(index._cells) < len(grid_reach(index, pos, radius)))
                assert index.within(pos, radius) == walked_within(index, pos, radius)
            assert index.nearest(pos, 20.0) == walked_nearest(index, pos, 20.0)
        assert branches == {True, False}  # both walks ran

    @given(
        st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)), min_size=1, max_size=25),
        st.sampled_from([0.0, 0.2, 1.0, 3.0, 50.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_within_equals_the_grid_walk_on_random_points(self, offsets, radius):
        index = GridIndex(cell_deg=0.01)
        for n, (north, east) in enumerate(offsets + offsets[:3]):  # repeats tie
            index.insert(self.ORIGIN.offset_km(north, east), n)
        assert index.within(self.ORIGIN, radius) == walked_within(index, self.ORIGIN, radius)

    def test_equal_distances_in_different_cells_keep_the_walk_order(self):
        index = GridIndex(cell_deg=0.01)
        lat, lon = self.ORIGIN.lat, self.ORIGIN.lon
        # Mirrored in longitude: exactly the same distance, cells apart,
        # inserted east first so insertion order is not the walk's order.
        for n, step in enumerate((0.05, 0.03, 0.01)):
            index.insert(Position(lat, lon + step), f"east-{n}")
            index.insert(Position(lat, lon - step), f"west-{n}")
        for radius in (1.0, 5.0):
            hits = index.within(self.ORIGIN, radius)
            assert hits == walked_within(index, self.ORIGIN, radius)
            assert len({d for d, _ in hits}) < len(hits)  # the ties are real
            assert [item for _, item in hits][:2] == ["west-2", "east-2"]

    def test_city_nearest_place_of_a_kind(self):
        city = make_synthetic_city("town", random.Random(5), centre=self.ORIGIN, places=40)
        rng = random.Random(6)
        for _ in range(25):
            pos = city.random_position(rng)
            for kind in ("ice-cream-shop", "cafe", "cinema", None):
                expected = next(
                    (
                        (distance, place)
                        for distance, place in walked_within(city.place_index, pos, 10.0)
                        if kind is None or place.kind == kind
                    ),
                    None,
                )
                assert city.nearest_place(pos, kind=kind) == expected


class TestOpeningHours:
    def test_open_within_hours(self):
        hours = OpeningHours.from_hours(9.0, 17.0)
        assert hours.is_open_at(10 * 3600.0)
        assert not hours.is_open_at(8 * 3600.0)
        assert not hours.is_open_at(17 * 3600.0)

    def test_wraps_to_next_day(self):
        hours = OpeningHours.from_hours(9.0, 17.0)
        day2_noon = 86400.0 + 12 * 3600.0
        assert hours.is_open_at(day2_noon)

    def test_seconds_until_close(self):
        hours = OpeningHours.from_hours(9.0, 17.0)
        assert hours.seconds_until_close(16 * 3600.0) == pytest.approx(3600.0)
        assert hours.seconds_until_close(18 * 3600.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            OpeningHours.from_hours(17.0, 9.0)
        with pytest.raises(ValueError):
            OpeningHours(-1.0, 3600.0)

    def test_place_delegates(self):
        place = Place(
            "Janetta's",
            Position(56.34, -2.794),
            "ice-cream-shop",
            OpeningHours.from_hours(9.0, 17.0),
        )
        assert place.is_open_at(12 * 3600.0)
        assert not place.is_open_at(20 * 3600.0)


class TestStreetMap:
    def test_locates_on_street(self):
        streets = StreetMap("st-andrews", capture_radius_km=0.2)
        streets.add_street("North Street", Position(56.3412, -2.7952))
        location = streets.locate(Position(56.3413, -2.7950))
        assert location.street == "North Street"
        assert location.city == "st-andrews"

    def test_off_street_falls_back_to_city(self):
        streets = StreetMap("st-andrews", capture_radius_km=0.1)
        streets.add_street("North Street", Position(56.3412, -2.7952))
        location = streets.locate(Position(56.40, -2.60))
        assert location.street == ""
        assert location.city == "st-andrews"

    def test_nearest_street_wins(self):
        streets = StreetMap("town", capture_radius_km=0.3)
        streets.add_street("A", Position(56.3400, -2.7950))
        streets.add_street("B", Position(56.3430, -2.7950))
        assert streets.locate(Position(56.3401, -2.7950)).street == "A"
        assert streets.locate(Position(56.3429, -2.7950)).street == "B"

    def test_logical_containment_levels(self):
        from repro.gis import LogicalLocation

        a = LogicalLocation("North Street", "centre", "st-andrews")
        b = LogicalLocation("North Street", "centre", "st-andrews")
        c = LogicalLocation("Market Street", "centre", "st-andrews")
        d = LogicalLocation("High Street", "west", "dundee")
        assert a.contains_level(b) == "street"
        assert a.contains_level(c) == "area"
        assert a.contains_level(d) is None


class TestTravelTime:
    def test_walking_takes_longer_than_driving(self):
        a = Position(56.34, -2.79)
        b = Position(56.35, -2.80)
        assert travel_time_s(a, b, "foot") > travel_time_s(a, b, "car")

    def test_zero_distance(self):
        p = Position(1.0, 1.0)
        assert travel_time_s(p, p) == 0.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            travel_time_s(Position(0, 0), Position(1, 1), "teleport")

    def test_magnitude_sanity(self):
        # ~1 km walk with detour factor ~ 16 minutes at 4.8 km/h
        a = Position(56.34, -2.79)
        b = a.offset_km(1.0, 0.0)
        minutes = travel_time_s(a, b, "foot") / 60.0
        assert 12 < minutes < 20
