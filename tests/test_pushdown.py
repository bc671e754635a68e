"""Pushing each check up to where its reads are bound changes no outcome.

``MatchingEngine`` runs each fact pattern and guard at the shallowest
enumeration level at which everything it reads is bound.  Here random
two- and three-pattern rules run against a twin engine that runs every
check at the leaf, in rule order (``tests/helpers.leaf_only_placement``),
with the combination budget far above the pool product.  The guards read
one alias, two aliases or a fact alias; some are undeclared, some stash
bindings for the action, and the last may raise on one subject.  Facts
include callable operands.  Both engines must synthesise the same events
and count the same matches, suppressions and guard errors, and the
push-down engine may not reach more leaves.

Every declared guard passes when an alias it reads is missing, so a check
run before its reads are bound shows as a wrong answer, not a raise.

The two stated differences each get one constructed rule below: where the
budget binds, push-down examines more combinations; and a clean failure
that prunes past a rule-order-earlier check that would raise counts fewer
guard errors.  The bounded default profile of ``tests/conftest.py`` runs
the property here; ``--hypothesis-profile=nightly`` runs it long.
"""

import dataclasses
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.events.model import make_event
from repro.knowledge import Fact, KnowledgeBase
from repro.matching import EventPattern, FactPattern, MatchingEngine, Ref, Rule, reads
from repro.sensors.city import make_st_andrews
from repro.services import IceCreamMeetupService
from repro.simulation import Simulator
from tests.helpers import leaf_only_placement

ALIASES = ("e0", "e1", "e2")
TYPES = ("ping", "pong")
SUBJECTS = ("s0", "s1", "s2", 3)  # an int subject: facts store its str()
EQUAL_STATS = ("matches", "synthesized", "suppressed_by_cooldown", "guard_errors")
UNBUDGETED = 10**6


def declared(condition, *aliases):
    """A guard over ``aliases`` that passes vacuously while one is unbound."""
    return reads(*aliases)(
        lambda b, ctx: any(alias not in b for alias in aliases) or condition(b)
    )


def stasher(alias, key):
    @reads(alias)
    def stash(b, ctx):
        if alias in b and b[alias]["v"] % 2:
            b[key] = b[alias]["v"]
        return True

    return stash


def raiser(alias):
    @reads(alias)
    def raise_on_s0(b, ctx):
        if b[alias]["subject"] == "s0":
            raise ValueError("s0 is malformed")
        return True

    return raise_on_s0


def make_fact(name, kind, alias, other):
    if kind == "literal":
        return FactPattern(name, Ref(alias, "subject"), "likes", object="yes")
    if kind == "link":
        return FactPattern(name, Ref(alias, "subject"), "knows", object=Ref(other, "subject"))
    if kind == "open":
        return FactPattern(name, Ref(alias, "subject"), "level")
    if kind == "optional":
        return FactPattern(name, Ref(alias, "subject"), "level", required=False, default=-1)
    if kind == "callable-subject":
        return FactPattern(name, lambda b: b[alias]["subject"], "likes", object="yes")
    # A callable object that reads whether another alias is bound yet.
    return FactPattern(
        name, Ref(alias, "subject"), "likes", object=lambda b: "yes" if other in b else "no"
    )


def make_guard(kind, key, pick, aliases, fact_aliases):
    a, c = pick(aliases), pick(aliases)
    if kind == "one":
        return declared(lambda b: b[a]["v"] % 3 != 0, a)
    if kind == "two":
        return declared(lambda b: (b[a]["v"] + b[c]["v"]) % 2 == 0, a, c)
    if kind == "fact" and fact_aliases:
        f = pick(fact_aliases)
        return declared(lambda b: str(b[f]) not in {"2", "s1"}, f)
    if kind == "stash":
        return stasher(a, key)
    return lambda b, ctx: b["e0"]["v"] != 7  # undeclared: runs at the leaf


def make_rule(name, pick):
    """One random rule; ``pick`` chooses among a list's items."""
    aliases = ALIASES[: pick([2, 3])]
    facts = tuple(
        make_fact(
            f"f{j}",
            pick(["literal", "link", "open", "optional", "callable-subject", "callable-object"]),
            pick(aliases),
            pick(aliases),
        )
        for j in range(pick([0, 1, 2]))
    )
    fact_aliases = [f.alias for f in facts]
    guards = [
        make_guard(pick(["one", "two", "fact", "stash", "undeclared"]), f"stash{k}",
                   pick, aliases, fact_aliases)
        for k in range(pick([0, 1, 2, 3]))
    ]
    if pick([False, True]):
        # Last in rule order, so no clean failure can prune past it.
        guards.append(raiser(pick(aliases)))

    def hit(b, ctx):
        return make_event(
            "hit", time=ctx.now, rule=name,
            subjects=",".join(str(b[alias]["subject"]) for alias in aliases),
            values=",".join(str(b[alias]["v"]) for alias in aliases),
            facts=",".join(str(b[alias]) for alias in fact_aliases),
            stash=",".join(f"{k}={v}" for k, v in sorted(b.items()) if k.startswith("stash")),
        )

    return Rule(
        name=name,
        events=tuple(EventPattern(alias, pick(TYPES)) for alias in aliases),
        window_s=10.0,
        facts=facts,
        guards=tuple(guards),
        action=hit,
        cooldown_s=pick([0.0, 4.0]),
        max_combinations=UNBUDGETED,
    )


def knowledge(rng):
    facts = []
    for subject in SUBJECTS:
        name = str(subject)
        if rng.random() < 0.6:
            facts.append(Fact(name, "likes", "yes"))
        facts.extend(Fact(name, "knows", str(other)) for other in SUBJECTS if rng.random() < 0.5)
        since = rng.uniform(-5.0, 40.0)
        facts.append(Fact(name, "level", rng.randrange(4), valid_from=since, valid_to=since + 20.0))
    return facts


def run_pair(rules, seed, events=60):
    """The push-down engine and its leaf-only twin after one stream."""
    rng = random.Random(seed)
    facts = knowledge(rng)
    sim = Simulator(seed=0)
    pair = []
    for _ in range(2):
        kb = KnowledgeBase()
        for fact in facts:
            kb.add(fact)
        pair.append(MatchingEngine(sim, kb, rules))
    engine, twin = pair
    twin._place = leaf_only_placement
    t = 0.0
    for _ in range(events):
        t += rng.uniform(0.1, 2.0)
        sim.run(until=t)
        event = make_event(rng.choice(TYPES), time=t, subject=rng.choice(SUBJECTS),
                           v=rng.randrange(10))
        assert engine.ingest(event) == twin.ingest(event), event
    return engine, twin


def assert_same_outcome(engine, twin):
    stats, twin_stats = dataclasses.asdict(engine.stats), dataclasses.asdict(twin.stats)
    for field in EQUAL_STATS:
        assert stats[field] == twin_stats[field], field
    assert stats["candidate_joins"] <= twin_stats["candidate_joins"]


@pytest.mark.parametrize("seed", range(40))
def test_random_rules_match_the_leaf_only_twin(seed):
    rng = random.Random(f"rules:{seed}")
    rules = [make_rule(f"r{i}", rng.choice) for i in range(2)]
    assert_same_outcome(*run_pair(rules, seed))


@given(st.data(), st.integers(0, 2**16))
def test_random_rules_match_the_leaf_only_twin_property(data, seed):
    rules = [make_rule(f"r{i}", lambda items: data.draw(st.sampled_from(items)))
             for i in range(2)]
    assert_same_outcome(*run_pair(rules, seed))


def test_the_seeded_rules_exercise_what_they_are_for():
    totals = dict.fromkeys(("matches", "suppressed_by_cooldown", "guard_errors", "pruned"), 0)
    for seed in range(40):
        rng = random.Random(f"rules:{seed}")
        engine, twin = run_pair([make_rule(f"r{i}", rng.choice) for i in range(2)], seed)
        for field in ("matches", "suppressed_by_cooldown", "guard_errors"):
            totals[field] += getattr(engine.stats, field)
        totals["pruned"] += twin.stats.candidate_joins - engine.stats.candidate_joins
    assert all(totals.values()), totals


def pinned_stream(engine, sim, pongs, pangs):
    """Fill the windows, then pin one ping against them."""
    for index, (subject, v) in enumerate(pongs + pangs):
        sim.run(until=float(index))
        kind = "pong" if index < len(pongs) else "pang"
        engine.ingest(make_event(kind, time=sim.now, subject=subject, v=v))
    sim.run(until=sim.now + 1.0)
    return engine.ingest(make_event("ping", time=sim.now, subject="p", v=0))


def test_where_the_budget_binds_pushdown_examines_more_combinations():
    # Only the oldest pong passes; newest-first, it is the last in its pool.
    rule = Rule(
        name="needle",
        events=(EventPattern("a", "ping"), EventPattern("b", "pong"), EventPattern("c", "pang")),
        window_s=60.0,
        guards=(reads("b")(lambda b, ctx: b["b"]["v"] == 1),),
        action=lambda b, ctx: make_event("found", time=ctx.now, b=b["b"]["subject"]),
        max_combinations=4,
    )
    pongs = [("b0", 1), ("b1", 0), ("b2", 0), ("b3", 0)]
    pangs = [(f"c{i}", 0) for i in range(4)]
    outputs = {}
    for leaf_only in (False, True):
        sim = Simulator(seed=0)
        engine = MatchingEngine(sim, KnowledgeBase(), [rule])
        if leaf_only:
            engine._place = leaf_only_placement
        outputs[leaf_only] = pinned_stream(engine, sim, pongs, pangs)
        assert engine.stats.candidate_joins == 4  # both spend the whole budget
    assert {e["b"] for e in outputs[False]} == {"b0"}
    assert outputs[True] == []


def test_a_clean_failure_prunes_past_a_raise_and_counts_fewer_guard_errors():
    def boom(b, ctx):
        raise ValueError("reads both")

    rule = Rule(
        name="pruned",
        events=(EventPattern("a", "ping"), EventPattern("b", "pong")),
        window_s=60.0,
        guards=(reads("a", "b")(boom), reads("a")(lambda b, ctx: False)),
        action=lambda b, ctx: make_event("never", time=ctx.now),
    )
    errors = {}
    for leaf_only in (False, True):
        sim = Simulator(seed=0)
        engine = MatchingEngine(sim, KnowledgeBase(), [rule])
        if leaf_only:
            engine._place = leaf_only_placement
        assert pinned_stream(engine, sim, [("b0", 0), ("b1", 0)], []) == []
        errors[leaf_only] = engine.stats.guard_errors
    assert errors == {False: 0, True: 2}


def test_a_stash_vanishes_on_backtrack():
    # Newest first: b1 stashes its odd value, then its sibling b0 must not see it.
    rule = Rule(
        name="stash",
        events=(EventPattern("a", "ping"), EventPattern("b", "pong"), EventPattern("c", "pang")),
        window_s=60.0,
        guards=(stasher("b", "odd"),),
        action=lambda b, ctx: make_event("seen", time=ctx.now, b=b["b"]["subject"], odd=b.get("odd", 0)),
    )
    sim = Simulator(seed=0)
    engine = MatchingEngine(sim, KnowledgeBase(), [rule])
    out = pinned_stream(engine, sim, [("b0", 2), ("b1", 1)], [("c0", 0)])
    assert [(e["b"], e["odd"]) for e in out] == [("b1", 1), ("b0", 0)]


def test_icecream_checks_run_where_their_reads_are_bound():
    (rule,) = IceCreamMeetupService(make_st_andrews()).build_rules({})
    engine = MatchingEngine(Simulator(seed=0), KnowledgeBase(), [rule])

    def names(level):
        return [getattr(check, "alias", None) or check.__name__ for check in level]

    assert [names(level) for level in engine._plan(rule, "loc_a").checks] == [
        ["a_likes", "nationality_a", "a_has_spare_time", "shop_reachable"],
        ["a_knows_b", "distinct_people", "b_reaches_shop"],
        ["weather_is_local", "hot_for_a"],
    ]
    assert [names(level) for level in engine._plan(rule, "weather").checks] == [
        [],
        ["a_likes", "nationality_a", "hot_for_a", "a_has_spare_time", "shop_reachable"],
        ["a_knows_b", "distinct_people", "weather_is_local", "b_reaches_shop"],
    ]


def test_removing_a_rule_drops_its_plans():
    def rule(*guards):
        return Rule(
            name="r",
            events=(EventPattern("a", "ping"), EventPattern("b", "pong")),
            window_s=60.0,
            guards=guards,
            action=lambda b, ctx: make_event("hit", time=ctx.now),
        )

    sim = Simulator(seed=0)
    engine = MatchingEngine(sim, KnowledgeBase(), [rule(reads("a")(lambda b, ctx: False))])
    assert pinned_stream(engine, sim, [("b0", 0)], []) == []
    engine.remove_rule("r")
    engine.add_rule(rule())
    engine.ingest(make_event("pong", time=sim.now, subject="b1", v=0))
    assert len(engine.ingest(make_event("ping", time=sim.now, subject="q", v=0))) == 1


def test_a_guard_reading_an_unknown_alias_is_refused():
    with pytest.raises(ValueError, match="typo"):
        Rule(
            name="declared",
            events=(EventPattern("a", "ping"),),
            window_s=1.0,
            guards=(reads("a", "typo")(lambda b, ctx: True),),
            action=lambda b, ctx: None,
        )
