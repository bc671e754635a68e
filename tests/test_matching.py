"""Tests for the matching engine: patterns, windows, rules, discovery."""

import random

import pytest

from repro.events.filters import eq, gt
from repro.events.model import make_event
from repro.knowledge import Fact, KnowledgeBase
from repro.matching import (
    EventPattern,
    FactPattern,
    Matchlet,
    MatchingEngine,
    Ref,
    Rule,
    TimeWindowBuffer,
)
from repro.simulation import Simulator


def suggestion_action(bindings, ctx):
    return make_event("suggestion", time=ctx.now, user=str(bindings["a"]["subject"]))


def two_pattern_rule(window=60.0, **kwargs):
    return Rule(
        name="pair",
        events=(
            EventPattern("a", "alpha"),
            EventPattern("b", "beta"),
        ),
        window_s=window,
        action=suggestion_action,
        **kwargs,
    )


class TestTimeWindowBuffer:
    def test_eviction_by_time(self):
        buffer = TimeWindowBuffer(window_s=10.0)
        buffer.add(0.0, make_event("x", n=1))
        buffer.add(5.0, make_event("x", n=2))
        buffer.add(12.0, make_event("x", n=3))
        assert [e["n"] for e in buffer.recent(12.0)] == [3, 2]

    def test_bounded_by_max_items(self):
        buffer = TimeWindowBuffer(window_s=1000.0, max_items=3)
        for n in range(5):
            buffer.add(float(n), make_event("x", n=n))
        assert len(buffer) == 3

    def test_recent_is_newest_first_with_limit(self):
        buffer = TimeWindowBuffer(window_s=100.0)
        for n in range(5):
            buffer.add(float(n), make_event("x", n=n))
        assert [e["n"] for e in buffer.recent(5.0, limit=2)] == [4, 3]

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            TimeWindowBuffer(0.0)

    @pytest.mark.parametrize("falsy", [0, "", False, 0.0])
    def test_falsy_subject_is_one_entity(self, falsy):
        """A subject of 0 (a numeric sensor id) or "" is an entity like any
        other: its fixes share one head, not one head per event."""
        buffer = TimeWindowBuffer(window_s=100.0)
        for t in (1.0, 2.0, 3.0):
            buffer.add(t, make_event("fix", n=int(t), subject=falsy))
        buffer.add(4.0, make_event("fix", n=4, subject=7))
        assert [(e["subject"], e["n"]) for e in buffer.recent_distinct(5.0)] == [
            (7, 4),
            (falsy, 3),
        ]
        heads = buffer.heads_for_subjects(5.0, {str(falsy)})
        assert [e["n"] for e in heads] == [3]

    def test_falsy_area_is_one_entity(self):
        buffer = TimeWindowBuffer(window_s=100.0)
        for t in (1.0, 2.0):
            buffer.add(t, make_event("weather", n=int(t), area=0))
        assert [e["n"] for e in buffer.recent_distinct(5.0)] == [2]


class TestEventPattern:
    def test_type_and_constraints(self):
        pattern = EventPattern("w", "weather", (gt("temp", 18.0),))
        assert pattern.matches(make_event("weather", temp=20.0))
        assert not pattern.matches(make_event("weather", temp=10.0))
        assert not pattern.matches(make_event("other", temp=20.0))

    def test_needs_alias(self):
        with pytest.raises(ValueError):
            EventPattern("", "weather")


class TestRuleValidation:
    def test_needs_events_and_window(self):
        with pytest.raises(ValueError):
            Rule(name="r", events=(), window_s=10.0, action=lambda b, c: None)
        with pytest.raises(ValueError):
            Rule(
                name="r",
                events=(EventPattern("a", "x"),),
                window_s=0.0,
                action=lambda b, c: None,
            )

    def test_duplicate_aliases_rejected(self):
        with pytest.raises(ValueError):
            Rule(
                name="r",
                events=(EventPattern("a", "x"), EventPattern("a", "y")),
                window_s=10.0,
                action=lambda b, c: None,
            )


class TestMatchingEngine:
    def test_single_pattern_fires_immediately(self):
        sim = Simulator()
        engine = MatchingEngine(
            sim,
            KnowledgeBase(),
            [
                Rule(
                    name="solo",
                    events=(EventPattern("a", "alpha"),),
                    window_s=10.0,
                    action=suggestion_action,
                )
            ],
        )
        out = engine.ingest(make_event("alpha", subject="bob"))
        assert len(out) == 1
        assert out[0].event_type == "suggestion"

    def test_join_within_window(self):
        sim = Simulator()
        engine = MatchingEngine(sim, KnowledgeBase(), [two_pattern_rule()])
        assert engine.ingest(make_event("alpha", subject="bob")) == []
        sim.run_for(30.0)
        out = engine.ingest(make_event("beta", subject="anna"))
        assert len(out) == 1

    def test_no_join_outside_window(self):
        sim = Simulator()
        engine = MatchingEngine(sim, KnowledgeBase(), [two_pattern_rule(window=20.0)])
        engine.ingest(make_event("alpha", subject="bob"))
        sim.run_for(30.0)
        assert engine.ingest(make_event("beta", subject="anna")) == []

    def test_constraint_filters_candidates(self):
        sim = Simulator()
        rule = Rule(
            name="hot",
            events=(
                EventPattern("a", "alpha"),
                EventPattern("w", "weather", (gt("temp", 18.0),)),
            ),
            window_s=60.0,
            action=suggestion_action,
        )
        engine = MatchingEngine(sim, KnowledgeBase(), [rule])
        engine.ingest(make_event("alpha", subject="bob"))
        assert engine.ingest(make_event("weather", temp=15.0)) == []
        assert len(engine.ingest(make_event("weather", temp=21.0))) == 1

    def test_fact_pattern_joins_kb(self):
        sim = Simulator()
        kb = KnowledgeBase()
        kb.add(Fact("bob", "likes", "ice-cream"))
        rule = Rule(
            name="liker",
            events=(EventPattern("a", "alpha"),),
            window_s=10.0,
            facts=(
                FactPattern(
                    "pref",
                    subject=Ref("a", "subject"),
                    predicate="likes",
                    object="ice-cream",
                ),
            ),
            action=suggestion_action,
        )
        engine = MatchingEngine(sim, kb, [rule])
        assert len(engine.ingest(make_event("alpha", subject="bob"))) == 1
        assert engine.ingest(make_event("alpha", subject="carol")) == []

    def test_optional_fact_binds_default(self):
        sim = Simulator()
        captured = {}

        def capture(bindings, ctx):
            captured.update(bindings)
            return None

        rule = Rule(
            name="opt",
            events=(EventPattern("a", "alpha"),),
            window_s=10.0,
            facts=(
                FactPattern(
                    "nat",
                    subject=Ref("a", "subject"),
                    predicate="nationality",
                    required=False,
                    default="unknown",
                ),
            ),
            action=capture,
        )
        MatchingEngine(sim, KnowledgeBase(), [rule]).ingest(
            make_event("alpha", subject="bob")
        )
        assert captured["nat"] == "unknown"

    def test_fact_validity_respected(self):
        sim = Simulator()
        kb = KnowledgeBase()
        kb.add(Fact("bob", "on-holiday", True, valid_from=100.0, valid_to=200.0))
        rule = Rule(
            name="holiday",
            events=(EventPattern("a", "alpha"),),
            window_s=10.0,
            facts=(
                FactPattern(
                    "h", subject=Ref("a", "subject"), predicate="on-holiday"
                ),
            ),
            action=suggestion_action,
        )
        engine = MatchingEngine(sim, kb, [rule])
        assert engine.ingest(make_event("alpha", subject="bob")) == []  # t=0
        sim.run_for(150.0)
        assert len(engine.ingest(make_event("alpha", subject="bob"))) == 1

    def test_guard_vetoes(self):
        sim = Simulator()
        rule = two_pattern_rule()
        vetoing = Rule(
            name="veto",
            events=rule.events,
            window_s=rule.window_s,
            guards=(lambda b, c: False,),
            action=suggestion_action,
        )
        engine = MatchingEngine(sim, KnowledgeBase(), [vetoing])
        engine.ingest(make_event("alpha", subject="bob"))
        assert engine.ingest(make_event("beta", subject="anna")) == []

    def test_guard_exception_counts_not_crashes(self):
        sim = Simulator()
        exploding = Rule(
            name="boom",
            events=(EventPattern("a", "alpha"),),
            window_s=10.0,
            guards=(lambda b, c: 1 / 0,),
            action=suggestion_action,
        )
        engine = MatchingEngine(sim, KnowledgeBase(), [exploding])
        assert engine.ingest(make_event("alpha", subject="bob")) == []
        assert engine.stats.guard_errors == 1

    def test_cooldown_suppresses_repeats(self):
        sim = Simulator()
        rule = Rule(
            name="once",
            events=(EventPattern("a", "alpha"),),
            window_s=10.0,
            action=suggestion_action,
            cooldown_s=100.0,
        )
        engine = MatchingEngine(sim, KnowledgeBase(), [rule])
        assert len(engine.ingest(make_event("alpha", subject="bob"))) == 1
        sim.run_for(5.0)
        assert engine.ingest(make_event("alpha", subject="bob")) == []
        assert engine.stats.suppressed_by_cooldown == 1
        sim.run_for(101.0)
        assert len(engine.ingest(make_event("alpha", subject="bob"))) == 1

    def test_cooldown_is_per_key(self):
        sim = Simulator()
        rule = Rule(
            name="per-user",
            events=(EventPattern("a", "alpha"),),
            window_s=10.0,
            action=suggestion_action,
            cooldown_s=100.0,
        )
        engine = MatchingEngine(sim, KnowledgeBase(), [rule])
        assert len(engine.ingest(make_event("alpha", subject="bob"))) == 1
        assert len(engine.ingest(make_event("alpha", subject="anna"))) == 1

    def test_add_remove_rule(self):
        sim = Simulator()
        engine = MatchingEngine(sim, KnowledgeBase())
        rule = two_pattern_rule()
        engine.add_rule(rule)
        assert "pair" in engine.rules
        with pytest.raises(ValueError):
            engine.add_rule(rule)
        assert engine.remove_rule("pair")
        assert not engine.remove_rule("pair")

    @pytest.mark.parametrize("indexed", [True, False])
    def test_an_action_may_remove_a_later_rule_mid_ingest(self, indexed):
        sim = Simulator()
        engine = MatchingEngine(sim, KnowledgeBase(), indexed=indexed)

        def remove_second(bindings, ctx):
            engine.remove_rule("second")
            return make_event("first-hit", time=ctx.now)

        for name, action in (("first", remove_second), ("second", suggestion_action)):
            engine.add_rule(Rule(name=name, events=(EventPattern("a", "alpha"),),
                                 window_s=60.0, action=action))
        out = engine.ingest(make_event("alpha", subject="bob"))
        assert [e.event_type for e in out] == ["first-hit"]
        assert list(engine.rules) == ["first"]

    @pytest.mark.parametrize("indexed", [True, False])
    def test_an_action_removing_its_own_rule_ends_the_join(self, indexed):
        sim = Simulator()
        engine = MatchingEngine(sim, KnowledgeBase(), indexed=indexed)
        fired = []

        def once(bindings, ctx):
            fired.append(bindings["b"]["subject"])
            engine.remove_rule("once")

        engine.add_rule(Rule(
            name="once",
            events=(EventPattern("a", "alpha"), EventPattern("b", "beta"),
                    EventPattern("c", "gamma")),
            window_s=60.0,
            action=once,
        ))
        for kind, subject in (("beta", "b1"), ("beta", "b2"), ("gamma", "c1")):
            engine.ingest(make_event(kind, subject=subject))
        assert engine.ingest(make_event("alpha", subject="a1")) == []
        assert len(fired) == 1 and "once" not in engine.rules

    def test_a_removed_rules_cooldowns_go_with_it(self):
        sim = Simulator()
        engine = MatchingEngine(sim, KnowledgeBase())

        def fresh():
            return Rule(name="r", events=(EventPattern("a", "alpha"),), window_s=10.0,
                        action=suggestion_action, cooldown_s=100.0)

        engine.add_rule(fresh())
        assert len(engine.ingest(make_event("alpha", subject="bob"))) == 1
        engine.remove_rule("r")
        engine.add_rule(fresh())
        sim.run_for(5.0)
        assert len(engine.ingest(make_event("alpha", subject="bob"))) == 1
        assert engine.stats.suppressed_by_cooldown == 0

    def test_a_rule_without_a_cooldown_records_no_firings(self):
        sim = Simulator()
        rule = Rule(name="free", events=(EventPattern("a", "alpha"),), window_s=10.0,
                    action=suggestion_action)
        engine = MatchingEngine(sim, KnowledgeBase(), [rule])
        for n in range(1000):
            engine.ingest(make_event("alpha", subject=f"user-{n}"))
        assert engine.stats.matches == 1000
        assert engine._last_fired == {"free": {}}  # one empty book: nothing to suppress


CHURN_TYPES = ("alpha", "beta", "gamma")


def churn_rule(engine, index: int, removed_later: list) -> Rule:
    """Rule ``r<index>`` of the churn test's six: one pattern or a join,
    with or without constraints and a cooldown.  ``r3``'s action removes
    ``r4``, noting in ``removed_later`` each time ``r4`` came after it."""

    def emit(bindings, ctx):
        subjects = sorted(str(bindings[p.alias]["subject"]) for p in events)
        return make_event("hit", time=ctx.now, rule=f"r{index}", subjects=",".join(subjects))

    def emit_and_remove_r4(bindings, ctx):
        order = list(engine.rules)
        if engine.remove_rule("r4") and order.index("r4") > order.index("r3"):
            removed_later.append(ctx.now)
        return emit(bindings, ctx)

    events, cooldown_s, action = {
        0: ((EventPattern("a", "alpha"),), 0.0, emit),
        1: ((EventPattern("a", "alpha", (gt("level", 1),)), EventPattern("b", "beta")), 0.0, emit),
        2: ((EventPattern("a", "beta", (eq("level", 2),)),), 20.0, emit),
        3: ((EventPattern("a", "gamma"), EventPattern("b", "alpha")), 0.0, emit_and_remove_r4),
        4: ((EventPattern("a", "alpha", (gt("level", 0),)),), 10.0, emit),
        5: ((EventPattern("x", "gamma"), EventPattern("y", "gamma", (gt("level", 1),))), 0.0, emit),
    }[index]
    return Rule(name=f"r{index}", events=events, window_s=10.0, action=action,
                cooldown_s=cooldown_s)


def run_churn(indexed: bool, seed: int) -> tuple:
    """Seeded rule churn between events: the outputs, the stats, how many
    rules were added again under a name used before, and how many actions
    removed a later rule mid-ingest."""
    rng = random.Random(seed)
    sim = Simulator()
    engine = MatchingEngine(sim, KnowledgeBase(), indexed=indexed)
    removed_later: list = []
    used: set[str] = set()
    re_added = 0
    outputs = []
    for _ in range(400):
        roll, name = rng.random(), f"r{rng.randrange(6)}"
        if roll < 0.15:
            if name not in engine.rules:
                re_added += name in used
                used.add(name)
                engine.add_rule(churn_rule(engine, int(name[1:]), removed_later))
        elif roll < 0.25:
            engine.remove_rule(name)
        else:
            event = make_event(rng.choice(CHURN_TYPES), subject=f"s{rng.randrange(4)}",
                               level=rng.randrange(4))
            outputs.append([dict(e) for e in engine.ingest(event)])
        sim.run_for(rng.choice((0.0, 0.5, 2.0)))
    return outputs, engine.stats, re_added, len(removed_later)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rule_churn_pins_the_same_in_both_modes(seed):
    """Adding and removing rules between events, adding a name again and
    removing a later rule from an action: the one-bucket scan and the
    per-type buckets give the same outputs, in the same order, and the
    same stats."""
    outputs, stats, re_added, removed_later = run_churn(True, seed)
    assert (outputs, stats) == run_churn(False, seed)[:2]
    assert sum(map(len, outputs)) > 50 and stats.suppressed_by_cooldown > 0
    assert re_added > 0 and removed_later > 0


class TestMatchlet:
    def test_emits_synthesized_events_downstream(self):
        from repro.pipelines.component import Probe

        sim = Simulator()
        matchlet = Matchlet(
            sim,
            KnowledgeBase(),
            [
                Rule(
                    name="solo",
                    events=(EventPattern("a", "alpha"),),
                    window_s=10.0,
                    action=suggestion_action,
                )
            ],
        )
        probe = Probe()
        matchlet.connect(probe)
        matchlet.put(make_event("alpha", subject="bob"))
        matchlet.put(make_event("noise"))
        assert len(probe.events) == 1
        assert probe.events[0].event_type == "suggestion"


class TestDiscovery:
    def make_stack(self):
        from repro.cingal import ThinServer
        from repro.matching.discovery import DiscoveryMatchlet, matchlet_code_guid
        from repro.net import FixedLatency, Network, Position
        from repro.overlay import fast_build
        from repro.storage import attach_storage

        sim = Simulator(seed=6)
        network = Network(sim, latency=FixedLatency(0.01))
        nodes = fast_build(sim, network, 12)
        storages = attach_storage(nodes)
        server = ThinServer(sim, network, Position(56.3, -2.8), "disc-key")
        discovery = DiscoveryMatchlet(server, storages[0], known_types={"known"})
        server.local_bus.subscribe(discovery)
        return sim, server, storages, discovery

    def store_handler_bundle(self, sim, storages, event_type="uv-index"):
        from repro.cingal.bundle import make_bundle
        from repro.matching.discovery import matchlet_code_guid
        from repro.xmlkit import to_string
        from tests.helpers import resolve

        bundle = make_bundle(
            f"handler:{event_type}", "probe", key="disc-key"
        )
        xml_text = to_string(bundle.to_xml()).encode()
        resolve(
            sim,
            storages[3].put_named(matchlet_code_guid(event_type), xml_text),
        )

    def test_unknown_type_triggers_fetch_and_deploy(self):
        sim, server, storages, discovery = self.make_stack()
        self.store_handler_bundle(sim, storages)
        server.local_bus.put(make_event("uv-index", value=7))
        sim.run_for(10.0)
        assert discovery.deployed == ["uv-index"]
        handler = server.components["handler:uv-index"]
        assert len(handler.events) == 1  # the triggering event was replayed

    def test_subsequent_events_flow_to_deployed_handler(self):
        sim, server, storages, discovery = self.make_stack()
        self.store_handler_bundle(sim, storages)
        server.local_bus.put(make_event("uv-index", value=7))
        sim.run_for(10.0)
        server.local_bus.put(make_event("uv-index", value=8))
        sim.run_for(1.0)
        assert len(server.components["handler:uv-index"].events) == 2

    def test_no_code_in_storage_is_remembered(self):
        sim, server, storages, discovery = self.make_stack()
        server.local_bus.put(make_event("mystery", value=1))
        sim.run_for(10.0)
        assert discovery.failures and discovery.failures[0][0] == "mystery"
        failures_before = len(discovery.failures)
        server.local_bus.put(make_event("mystery", value=2))
        sim.run_for(1.0)  # inside negative TTL: no refetch
        assert len(discovery.failures) == failures_before

    def test_known_types_ignored(self):
        sim, server, storages, discovery = self.make_stack()
        server.local_bus.put(make_event("known", value=1))
        sim.run_for(5.0)
        assert discovery.deployed == []
        assert discovery.failures == []
