"""Tests for type projection over events (§5's matchlet data binding)."""

import pytest

from repro.events.model import make_event
from repro.matching.bindings import EventProjection, project_event, projects_event
from repro.xmlkit.projection import ProjectionError


class LocationReading(EventProjection):
    subject: str
    lat: float
    lon: float
    accuracy_m: float = 10.0


class WeatherReading(EventProjection):
    area: str
    temperature_c: float
    humidity: float = 0.0


class TestEventProjection:
    def test_binds_typed_fields(self):
        event = make_event(
            "user-location", subject="bob", lat=56.34, lon=-2.79, accuracy_m=5.0
        )
        reading = project_event(LocationReading, event)
        assert reading.subject == "bob"
        assert reading.lat == pytest.approx(56.34)
        assert isinstance(reading.lat, float)
        assert reading.accuracy_m == 5.0

    def test_defaults_fill_missing_optionals(self):
        event = make_event("user-location", subject="bob", lat=1.0, lon=2.0)
        reading = project_event(LocationReading, event)
        assert reading.accuracy_m == 10.0

    def test_missing_required_field_raises(self):
        event = make_event("user-location", subject="bob", lat=1.0)
        with pytest.raises(ProjectionError):
            project_event(LocationReading, event)

    def test_extra_attributes_ignored(self):
        """Schema evolution: a v2 sensor adds fields; v1 projections hold."""
        event = make_event(
            "user-location", subject="bob", lat=1.0, lon=2.0,
            heading=90.0, battery_pct=80, firmware="2.1.0",
        )
        reading = project_event(LocationReading, event)
        assert reading.subject == "bob"

    def test_projects_event_convenience(self):
        weather = make_event("weather", area="st-andrews", temperature_c=20.0)
        location = make_event("user-location", subject="bob", lat=1.0, lon=2.0)
        assert projects_event(WeatherReading, weather)
        assert not projects_event(WeatherReading, location)
        assert projects_event(LocationReading, location)

    def test_int_and_bool_conversion(self):
        class Sighting(EventProjection):
            reader: str
            count: int
            confirmed: bool

        event = make_event("rfid", reader="door-1", count=3, confirmed=True)
        sighting = project_event(Sighting, event)
        assert sighting.count == 3
        assert sighting.confirmed is True

    def test_type_mismatch_raises(self):
        class Strict(EventProjection):
            value: float

        event = make_event("t", value="not-a-number")
        with pytest.raises(ProjectionError):
            project_event(Strict, event)

    def test_usable_inside_rule_guards(self):
        """The §5 use case: a guard binding typed views over raw events."""
        from repro.knowledge import KnowledgeBase
        from repro.matching import EventPattern, MatchingEngine, Rule
        from repro.simulation import Simulator

        def warm_enough(bindings, ctx):
            reading = project_event(WeatherReading, bindings["w"])
            return reading.temperature_c >= 18.0

        rule = Rule(
            name="typed-guard",
            events=(EventPattern("w", "weather"),),
            window_s=10.0,
            guards=(warm_enough,),
            action=lambda b, c: make_event("ok", time=c.now),
        )
        engine = MatchingEngine(Simulator(), KnowledgeBase(), [rule])
        cold = make_event("weather", area="x", temperature_c=10.0)
        warm = make_event("weather", area="x", temperature_c=21.0)
        assert engine.ingest(cold) == []
        assert len(engine.ingest(warm)) == 1

    def test_wire_equivalence(self):
        """Binding is identical for local events and XML round-tripped ones."""
        from repro.xmlkit import parse, to_string
        from repro.xmlkit.codec import notification_from_xml, notification_to_xml

        event = make_event(
            "user-location", subject="bob", lat=56.34, lon=-2.79, accuracy_m=3.0
        )
        wire = notification_from_xml(parse(to_string(notification_to_xml(event))))
        local_view = project_event(LocationReading, event)
        wire_view = project_event(LocationReading, wire)
        assert (local_view.subject, local_view.lat, local_view.lon) == (
            wire_view.subject,
            wire_view.lat,
            wire_view.lon,
        )


class TestProjectionRules:
    """Event bindings follow §3's projection rules (xmlkit.projection)."""

    def test_float_into_int_field_raises(self):
        class Counted(EventProjection):
            count: int

        with pytest.raises(ProjectionError):
            project_event(Counted, make_event("t", count=3.7))

    def test_unreadable_value_binds_the_default(self):
        class Reading(EventProjection):
            value: float = -1.0

        assert project_event(Reading, make_event("t", value="n/a")).value == -1.0

    def test_yes_binds_true(self):
        class Flag(EventProjection):
            confirmed: bool

        assert project_event(Flag, make_event("t", confirmed="yes")).confirmed is True
        assert project_event(Flag, make_event("t", confirmed=" NO ")).confirmed is False

    def test_keyword_construction_and_equality(self):
        event = make_event("user-location", subject="bob", lat=1.0, lon=2.0)
        built = LocationReading(subject="bob", lat=1.0, lon=2.0, accuracy_m=10.0)
        assert project_event(LocationReading, event) == built
        assert built != LocationReading(subject="eve", lat=1.0, lon=2.0, accuracy_m=10.0)
