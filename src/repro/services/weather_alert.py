"""A third service on the same infrastructure: per-user weather alerts.

Demonstrates §4.8's point — new services reuse the event system, matchlet
hosting and knowledge base; this one is a two-stream join (weather +
location) against per-user thresholds.
"""

from __future__ import annotations

from repro.events.filters import Filter, type_is
from repro.events.model import make_event
from repro.matching.patterns import EventPattern, FactPattern, Ref
from repro.matching.rules import Rule, RuleContext, reads
from repro.net.geo import Position
from repro.services.infrastructure import ContextualService


class WeatherAlertService(ContextualService):
    """Alert users when their local temperature crosses their threshold."""

    name = "weather-alert"

    def __init__(self, locality_km: float = 25.0):
        self.locality_km = locality_km

    def subscriptions(self) -> list[Filter]:
        return [
            Filter(type_is("weather")),
            Filter(type_is("user-location")),
            Filter(type_is("kb-update")),
        ]

    def knowledge_keys(self, subjects: list[str]) -> list[tuple[str, str]]:
        return [(subject, "alert-temp-above") for subject in subjects]

    def build_rules(self, extras: dict) -> list[Rule]:
        locality_km = self.locality_km

        @reads("weather", "loc")
        def colocated(bindings, ctx: RuleContext) -> bool:
            weather = bindings["weather"]
            location = bindings["loc"]
            return (
                Position(float(weather["lat"]), float(weather["lon"])).distance_km(
                    Position(float(location["lat"]), float(location["lon"]))
                )
                <= locality_km
            )

        @reads("weather", "threshold")
        def above_threshold(bindings, ctx: RuleContext) -> bool:
            return float(bindings["weather"]["temperature_c"]) >= float(
                bindings["threshold"]
            )

        def alert(bindings, ctx: RuleContext):
            return make_event(
                "suggestion",
                time=ctx.now,
                service=self.name,
                user=str(bindings["loc"]["subject"]),
                temperature_c=float(bindings["weather"]["temperature_c"]),
                area=str(bindings["weather"]["area"]),
                reason="temperature-above-threshold",
            )

        rule = Rule(
            name="weather-alert",
            events=(
                EventPattern("weather", "weather"),
                EventPattern("loc", "user-location"),
            ),
            window_s=600.0,
            facts=(
                FactPattern(
                    "threshold",
                    subject=Ref("loc", "subject"),
                    predicate="alert-temp-above",
                ),
            ),
            guards=(colocated, above_threshold),
            action=alert,
            cooldown_s=3600.0,
            correlation_key=lambda bindings: str(bindings["loc"]["subject"]),
        )
        return [rule]
