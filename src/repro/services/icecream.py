"""The paper's running example as an executable service (§1.1).

Correlates, within a five-minute window: two friends' locations, the local
temperature, their preferences/nationality/free time from the knowledge
base, and an open ice-cream shop near both — and synthesises a meetup
suggestion to each of them.  "Bob is Scottish and therefore regards 20 deg
as hot."
"""

from __future__ import annotations

from repro.events.filters import Filter, type_is
from repro.events.model import make_event
from repro.gis.geometry import travel_time_s
from repro.matching.patterns import EventPattern, FactPattern, Ref
from repro.matching.rules import Rule, RuleContext, reads
from repro.net.geo import Position
from repro.sensors.city import City
from repro.services.infrastructure import ContextualService

HOT_THRESHOLDS_C = {"scottish": 20.0, "default": 25.0}
MAX_TRAVEL_S = 900.0  # both parties must reach the shop within 15 minutes
# Calibrated to the paper's own numbers: the 16:45 correlation proposes a
# 16:55 meeting at a shop that shuts at 17:00 — about a minute of slack.
ARRIVAL_BUFFER_S = 60.0


def hot_threshold_for(nationality: str) -> float:
    return HOT_THRESHOLDS_C.get(nationality.lower(), HOT_THRESHOLDS_C["default"])


def _position(event) -> Position:
    return Position(float(event["lat"]), float(event["lon"]))


class IceCreamMeetupService(ContextualService):
    """Suggest ice-cream meetups between nearby friends on hot days."""

    name = "icecream-meetup"

    def __init__(self, city: City, max_travel_s: float = MAX_TRAVEL_S):
        self.city = city
        self.max_travel_s = max_travel_s

    # ------------------------------------------------------------------
    def subscriptions(self) -> list[Filter]:
        return [
            Filter(type_is("user-location")),
            Filter(type_is("weather")),
            Filter(type_is("kb-update")),
        ]

    def knowledge_keys(self, subjects: list[str]) -> list[tuple[str, str]]:
        keys = []
        for subject in subjects:
            keys.extend(
                [
                    (subject, "likes"),
                    (subject, "knows"),
                    (subject, "nationality"),
                    (subject, "on-holiday"),
                    (subject, "free-time"),
                    (subject, "travel-mode"),
                ]
            )
        return keys

    # ------------------------------------------------------------------
    def build_rules(self, extras: dict) -> list[Rule]:
        city = self.city

        @reads("loc_a", "loc_b")
        def distinct_people(bindings, ctx: RuleContext) -> bool:
            return bindings["loc_a"]["subject"] != bindings["loc_b"]["subject"]

        @reads("weather", "loc_a", "loc_b")
        def weather_is_local(bindings, ctx: RuleContext) -> bool:
            """The reading must come from near the pair, not another city."""
            weather_pos = _position(bindings["weather"])
            return (
                weather_pos.distance_km(_position(bindings["loc_a"])) < 25.0
                and weather_pos.distance_km(_position(bindings["loc_b"])) < 25.0
            )

        @reads("weather", "nationality_a")
        def hot_for_a(bindings, ctx: RuleContext) -> bool:
            nationality = str(bindings.get("nationality_a") or "")
            return float(bindings["weather"]["temperature_c"]) >= hot_threshold_for(
                nationality
            )

        @reads("loc_a")
        def a_has_spare_time(bindings, ctx: RuleContext) -> bool:
            """'Bob likes ice cream ... when he has spare time to eat it.'"""
            subject = str(bindings["loc_a"]["subject"])
            return ctx.kb.holds(subject, "on-holiday", True, at_time=ctx.now) or ctx.kb.holds(
                subject, "free-time", True, at_time=ctx.now
            )

        @reads("loc_a")
        def shop_reachable(bindings, ctx: RuleContext) -> bool:
            """A's nearest shop, open and reachable by A before it closes; stash it."""
            pos_a = _position(bindings["loc_a"])
            hit = city.nearest_place(pos_a, kind="ice-cream-shop")
            if hit is None:
                return False
            _, shop = hit
            if not shop.is_open_at(ctx.now):
                return False
            limit = min(self.max_travel_s, shop.hours.seconds_until_close(ctx.now) - ARRIVAL_BUFFER_S)
            t_a = travel_time_s(pos_a, shop.position, str(bindings["loc_a"].get("mode", "foot")))
            if t_a > limit:
                return False
            bindings["shop"], bindings["limit_s"], bindings["arrival_s"] = shop, limit, t_a
            return True

        @reads("loc_a", "loc_b")
        def b_reaches_shop(bindings, ctx: RuleContext) -> bool:
            """B reaches A's shop in time too; the later arrival sets the meeting."""
            loc_b = bindings["loc_b"]
            t_b = travel_time_s(_position(loc_b), bindings["shop"].position, str(loc_b.get("mode", "foot")))
            bindings["arrival_s"] = max(bindings["arrival_s"], t_b)
            return t_b <= bindings["limit_s"]

        def suggest(bindings, ctx: RuleContext):
            shop = bindings["shop"]
            a = str(bindings["loc_a"]["subject"])
            b = str(bindings["loc_b"]["subject"])
            meet_at = ctx.now + bindings["arrival_s"] + ARRIVAL_BUFFER_S
            return [
                make_event(
                    "suggestion",
                    time=ctx.now,
                    service=self.name,
                    user=user,
                    friend=other,
                    place=shop.name,
                    street=shop.street,
                    meet_at=meet_at,
                    reason="hot-day-icecream",
                )
                for user, other in ((a, b), (b, a))
            ]

        rule = Rule(
            name="icecream-meetup",
            events=(
                EventPattern("loc_a", "user-location"),
                EventPattern("loc_b", "user-location"),
                EventPattern("weather", "weather"),
            ),
            window_s=300.0,  # the paper's 16:45-16:50 interval
            facts=(
                FactPattern(
                    "a_likes",
                    subject=Ref("loc_a", "subject"),
                    predicate="likes",
                    object="ice-cream",
                ),
                FactPattern(
                    "a_knows_b",
                    subject=Ref("loc_a", "subject"),
                    predicate="knows",
                    object=Ref("loc_b", "subject"),
                ),
                FactPattern(
                    "nationality_a",
                    subject=Ref("loc_a", "subject"),
                    predicate="nationality",
                    required=False,
                    default="",
                ),
            ),
            guards=(
                distinct_people,
                weather_is_local,
                hot_for_a,
                a_has_spare_time,
                shop_reachable,
                b_reaches_shop,
            ),
            action=suggest,
            cooldown_s=1800.0,
            correlation_key=lambda bindings: tuple(
                sorted(
                    (
                        str(bindings["loc_a"]["subject"]),
                        str(bindings["loc_b"]["subject"]),
                    )
                )
            ),
        )
        return [rule]
