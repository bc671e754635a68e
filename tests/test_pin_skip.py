"""Skipping a pin that a fact pattern vetoes changes no outcome.

``MatchingEngine`` runs each fact pattern and guard at the shallowest
join level where what it reads is bound, so a required fact pattern about
the pinned event's own attribute, with a literal (or no) object, runs at
level 0: when it has no valid fact at the event's instant, no join pinned
there is enumerated.  Here a seeded stream runs through the two services'
rules plus synthetic rules built to trip that up — an optional leading
pattern, a callable subject or object, events missing the attribute a
pattern reads — while facts become valid and expire mid-stream.  The
engine must synthesise exactly what an engine running every check at the
leaf does (``tests/helpers.leaf_only_placement``), with every counter
equal except the joins and window entries it no longer enumerates (and
the link lookups those made), and must enumerate strictly fewer joins.
"""

import dataclasses
import random

import pytest

from repro.events.model import make_event
from repro.knowledge import Fact, KnowledgeBase
from repro.matching import EventPattern, FactPattern, MatchingEngine, Ref, Rule
from repro.sensors.city import make_st_andrews
from repro.services import IceCreamMeetupService, WeatherAlertService
from repro.simulation import Simulator
from tests.helpers import leaf_only_placement

START_S = 13 * 3600.0
PEOPLE = [f"p{i}" for i in range(10)]
PINGERS = ["s1", "s2", 3]
SKIPPED_WORK = {"candidate_joins", "window_scanned", "kb_link_queries", "kb_link_memo_hits"}


def synthetic_rules():
    def hit(kind):
        return lambda b, ctx: make_event(kind, time=ctx.now, n=len(b))

    return [
        Rule(
            # Leading required literal pattern, then a callable subject.
            name="armed",
            events=(EventPattern("a", "ping"), EventPattern("loc", "user-location")),
            window_s=120.0,
            facts=(
                FactPattern("armed", subject=Ref("a", "subject"), predicate="armed", object=True),
                FactPattern("likes", subject=lambda b: b["loc"]["subject"], predicate="likes"),
            ),
            action=hit("armed-hit"),
            cooldown_s=20.0,
        ),
        Rule(
            # An optional leading pattern ends the run before the veto.
            name="optional-first",
            events=(EventPattern("p", "ping"),),
            window_s=60.0,
            facts=(
                FactPattern("tag", subject=Ref("p", "subject"), predicate="tag",
                            required=False, default="none"),
                FactPattern("armed", subject=Ref("p", "subject"), predicate="armed", object=True),
            ),
            action=hit("tagged"),
        ),
        Rule(
            # A callable leading subject is never consulted.
            name="callable-first",
            events=(EventPattern("c", "ping"), EventPattern("w", "weather")),
            window_s=90.0,
            facts=(
                FactPattern("armed", subject=lambda b: b["c"]["subject"], predicate="armed",
                            object=True),
            ),
            action=hit("callable-hit"),
            cooldown_s=10.0,
        ),
        Rule(
            # A callable object may read what the enumeration binds.
            name="callable-object",
            events=(EventPattern("c", "ping"), EventPattern("w", "weather")),
            window_s=90.0,
            facts=(
                FactPattern("armed", subject=Ref("c", "subject"), predicate="armed",
                            object=lambda b: "w" in b),
            ),
            action=hit("callable-object-hit"),
            cooldown_s=10.0,
        ),
    ]


def knowledge(rng):
    facts = []
    for name in PEOPLE:
        if rng.random() < 0.5:
            facts.append(Fact(name, "likes", "ice-cream"))
        facts.append(Fact(name, "nationality", rng.choice(["scottish", "french"])))
        facts.extend(Fact(name, "knows", other) for other in rng.sample(PEOPLE, 4) if other != name)
        for predicate, value in (("free-time", True), ("alert-temp-above", rng.uniform(18.0, 24.0))):
            since = START_S + rng.uniform(-200.0, 900.0)
            facts.append(Fact(name, predicate, value, valid_from=since, valid_to=since + 300.0))
    for name in PINGERS:
        since = START_S + rng.uniform(0.0, 600.0)
        facts.append(Fact(str(name), "armed", True, valid_from=since, valid_to=since + 200.0))
    facts.append(Fact(PINGERS[0], "tag", "red"))  # the others take the default
    return facts


def stream(rng, count=700):
    shop = (56.3400, -2.7940)
    t = START_S
    for _ in range(count):
        t += rng.expovariate(1 / 1.5)
        roll = rng.random()
        if roll < 0.6:
            event = make_event(
                "user-location", time=t, subject=rng.choice(PEOPLE),
                lat=shop[0] + rng.uniform(-0.002, 0.002), lon=shop[1] + rng.uniform(-0.003, 0.003),
                mode="foot",
            )
        elif roll < 0.75:
            event = make_event(
                "weather", time=t, area="st-andrews", lat=shop[0], lon=shop[1],
                temperature_c=rng.uniform(17.0, 30.0),
            )
        elif roll < 0.95:
            event = make_event("ping", time=t, subject=rng.choice(PINGERS))
        else:
            event = make_event("ping", time=t)  # no subject to resolve
        yield t, event


def engines(seed):
    sim = Simulator(seed=seed)
    sim.run(until=START_S)
    city = make_st_andrews()
    facts = knowledge(random.Random(f"facts:{seed}"))
    built = []
    for _ in range(2):
        kb = KnowledgeBase()
        for fact in facts:
            kb.add(fact)
        services = [IceCreamMeetupService(city), WeatherAlertService()]
        rules = [rule for s in services for rule in s.build_rules({})] + synthetic_rules()
        built.append(MatchingEngine(sim, kb, rules))
    return sim, built


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_skipping_vetoed_pins_changes_no_outcome(seed, monkeypatch):
    sim, (engine, reference) = engines(seed)
    monkeypatch.setattr(reference, "_place", leaf_only_placement)
    produced = []
    for t, event in stream(random.Random(f"stream:{seed}")):
        sim.run(until=t)
        got = engine.ingest(event)
        assert got == reference.ingest(event), event
        produced.extend(got)

    stats, ref_stats = dataclasses.asdict(engine.stats), dataclasses.asdict(reference.stats)
    for field in stats.keys() - SKIPPED_WORK:
        assert stats[field] == ref_stats[field], field
    assert stats["candidate_joins"] < ref_stats["candidate_joins"]
    # The stream exercised what it was built for.
    kinds = {e["type"] for e in produced} | {e.get("reason") for e in produced}
    assert {"armed-hit", "tagged", "callable-hit", "callable-object-hit",
            "hot-day-icecream", "temperature-above-threshold"} <= kinds
    assert stats["guard_errors"] > 0
