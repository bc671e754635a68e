"""The broker's subscription index partitioned by pinned subject, and the
poset's intersection pruned by pins.

Plan-less ``ShardedSubscriptionIndex()`` — the index ``BrokerNode`` builds
for its subscription table — keeps one private ``PredicateIndex`` per
pinned subject and one shared index for everything else.  It must answer
exactly what a bare ``PredicateIndex`` answers (which subject an awkward
filter or event belongs to is where it could go wrong), keep no partition
whose last filter has left, and do a small fraction of the monolith's
candidate work on a city-shaped population.  The covering posets are not
partitioned: one ``CoveringPoset`` files each entry under its pin, the key
of its first ``=``, so a probe pinned to one subject meets that subject's
bucket and the pin-free entries (its answers are property-tested in
``tests/test_poset_properties.py``).  Here that is held to counts: of the
entries a pinned probe's intersection queries check, and, on a churning
mesh, of exact checks between filters of two different subjects — none.
"""

import random
from collections import Counter

import pytest

from repro.events import index as index_module
from repro.events.broker import BrokerNode, SienaClient, build_broker_mesh
from repro.events.filters import Constraint, Filter, Op, eq, exists, gt, lt, pinned_subject
from repro.events.index import CoveringPoset, PredicateIndex
from repro.events.model import Notification, make_event
from repro.events.sharding import ShardedSubscriptionIndex
from repro.net import FixedLatency, Network, Position
from repro.simulation import Simulator
from tests.test_index_equivalence import random_constraint, random_filter, random_value

# Subject values that equality folds (2 == 2.0, 0 == -0.0), keeps apart (True != 1)
# or that look alike only as text; "nobody" is never pinned by a filter.
SUBJECTS = [2, 2.0, True, 1, 1.0, False, 0, -0.0, "2", "a", "ab", ""]


def awkward_filter(rng: random.Random) -> Filter:
    roll = rng.random()
    if roll < 0.35:
        return random_filter(rng)  # all ten operators, `type` among the names
    extra = [random_constraint(rng) for _ in range(rng.randint(0, 2))]
    if roll < 0.7:
        pins = [eq("type", rng.choice(SUBJECTS))]
    elif roll < 0.85:  # two equalities on the subject in one filter
        pins = [eq("type", rng.choice(SUBJECTS)), eq("type", rng.choice(SUBJECTS))]
    else:  # a subject constraint that pins nothing
        op = rng.choice([Op.NE, Op.LT, Op.GE, Op.EXISTS, Op.PREFIX])
        value = None if op is Op.EXISTS else "a" if op is Op.PREFIX else rng.choice(SUBJECTS)
        pins = [Constraint("type", op, value)]
    constraints = pins + extra
    rng.shuffle(constraints)
    return Filter(*constraints)


def awkward_event(rng: random.Random) -> Notification:
    attrs = {name: random_value(rng) for name in rng.sample(["subject", "temp", "label", "flag"], 2)}
    roll = rng.random()
    if roll < 0.15:
        return Notification(attrs)  # no subject at all
    if roll < 0.25:
        return make_event("nobody", **attrs)
    return make_event(rng.choice(SUBJECTS), **attrs)


def payloads(index, matched_sets):
    return [{index.payload(rid) for rid in matched} for matched in matched_sets]


class TestEqualsTheMonolith:
    @pytest.mark.parametrize("seed", range(10))
    def test_every_read_agrees_under_churn(self, seed):
        rng = random.Random(seed)
        mono, parted = PredicateIndex(), ShardedSubscriptionIndex()
        live = []
        used = set()
        for _round in range(8):
            for _ in range(rng.randint(20, 80)):
                if live and rng.random() < 0.4:
                    mid, rid = live.pop(rng.randrange(len(live)))
                    assert parted.filter_of(rid) == mono.filter_of(mid)
                    assert parted.remove(rid) == mono.remove(mid)
                else:
                    f = awkward_filter(rng)
                    used |= {c.op for c in f.constraints}
                    tag = rng.randrange(12)  # payloads repeat, as sources do
                    live.append((mono.add(f, payload=tag), parted.add(f, payload=tag)))
            assert len(parted) == len(mono) == len(live)
            events = [awkward_event(rng) for _ in range(rng.randint(1, 40))]
            expect = [{mono.payload(fid) for fid in mono.match(e)} for e in events]
            assert payloads(parted, [parted.match(e) for e in events]) == expect
            for vectorized in (False, None):
                assert payloads(parted, parted.match_batch(events, vectorized=vectorized)) == expect
            assert parted.holders(events) == mono.holders(events) == expect
            assert parted.holders(events[:1]) == expect[:1]
        assert used == set(Op)

    def test_folded_and_separate_subjects(self):
        parted = ShardedSubscriptionIndex()
        parted.add(Filter(eq("type", 2)), payload="int")
        parted.add(Filter(eq("type", 2.0)), payload="float")
        parted.add(Filter(eq("type", True)), payload="bool")
        parted.add(Filter(eq("type", "2")), payload="text")
        assert len(parted.partitions) == 3  # 2 and 2.0 share one
        assert parted.holders([make_event(2), make_event(2.0)]) == [{"int", "float"}] * 2
        assert parted.holders([make_event(True), make_event(1)]) == [{"bool"}, set()]
        assert parted.holders([make_event("2")]) == [{"text"}]


class TestPartitionsComeAndGo:
    def test_a_partition_leaves_with_its_last_filter(self):
        parted = ShardedSubscriptionIndex()
        wild = parted.add(Filter(gt("strength", 1.0)), payload="wild")
        event = make_event("door", strength=5.0)
        ops = 0
        for _cycle in range(3):  # create -> empty -> re-create the same subject
            first = parted.add(Filter(eq("type", "door"), gt("strength", 2.0)), payload="a")
            second = parted.add(Filter(eq("type", "door"), lt("strength", 9.0)), payload="b")
            assert len(parted) == 3 and set(parted.partitions) == {"s:door"}
            assert parted.holders([event]) == [{"wild", "a", "b"}]
            ops += 5  # the wildcard's one constraint, two per pinned filter
            assert parted.ops == ops
            assert parted.remove(first) == "a"
            assert parted.remove(second) == "b"
            assert len(parted) == 1 and not parted.partitions
            assert parted.holders([event]) == [{"wild"}]
            ops += 1
            assert parted.ops == ops
        assert parted.remove(wild) == "wild"
        assert len(parted) == 0 and parted.holders([event]) == [set()]

    def test_subject_churn_on_a_broker_leaves_no_partition_behind(self):
        sim = Simulator(seed=3)
        network = Network(sim, FixedLatency(0.01))
        broker = BrokerNode(sim, network, Position(0, 0))
        client = SienaClient(sim, network, Position(0, 1), broker)
        publisher = SienaClient(sim, network, Position(1, 0), broker)
        client.subscribe(Filter(exists("strength")))
        for visit in range(30):  # a mobile user's interest moves from place to place
            here = Filter(eq("type", f"place-{visit % 7}"), gt("strength", 1.0))
            client.subscribe(here)
            sim.run_for(1.0)
            publisher.publish(make_event(f"place-{visit % 7}", strength=2.0, seq=visit))
            sim.run_for(1.0)
            assert len(broker.subs.index) == 2 and len(broker.subs.index.partitions) == 1
            client.unsubscribe(here)
            sim.run_for(1.0)
            broker.check_invariants()
            assert len(broker.subs.index) == 1 and not broker.subs.index.partitions
        assert [n["seq"] for _, n in client.received] == list(range(30))


def test_city_shaped_population_sweeps_a_twentieth_of_the_monolith():
    # The budget's city_edge population in small: 144 subjects, a narrow
    # strength band per subscription, one in fifty watching every subject.
    rng = random.Random(22)
    subjects = [f"kind-{i % 6}@street-{i // 6}" for i in range(144)]
    mono = PredicateIndex()
    sim = Simulator(seed=1)
    default = BrokerNode(sim, Network(sim, FixedLatency(0.01)), Position(0, 0)).subs.index
    for i in range(14_400):
        if i % 50 == 0:
            f = Filter(gt("strength", rng.uniform(11.0, 11.95)))
        else:
            low = rng.uniform(0.0, 10.5)
            f = Filter(
                eq("type", subjects[i % 144]),
                gt("strength", low),
                lt("strength", low + rng.uniform(0.3, 1.2)),
            )
        mono.add(f, payload=i % 200)
        default.add(f, payload=i % 200)
    events = [make_event(subjects[i % 144], strength=rng.uniform(0.0, 12.0)) for i in range(288)]
    assert default.holders(events) == mono.holders(events)
    assert default.ops * 20 <= mono.ops


def test_mesh_churn_makes_no_cross_subject_exact_check(monkeypatch):
    # A count, not a speed: filters pinned to different subjects neither
    # cover nor intersect, so no exact check may compare two of them.
    checks = Counter()
    for name in ("filter_covers", "filters_intersect"):
        def counted(a, b, exact=getattr(index_module, name), name=name):
            subjects = {pinned_subject(a), pinned_subject(b)}
            checks[name, "wildcard" if None in subjects else len(subjects)] += 1
            return exact(a, b)

        monkeypatch.setattr(index_module, name, counted)
    rng = random.Random(27)
    sim = Simulator(seed=27)
    network = Network(sim, FixedLatency(0.01))
    brokers = build_broker_mesh(sim, network, count=5, extra_links=2, adv_pruned=True)
    subjects = [f"kind-{i % 3}@street-{i // 3}" for i in range(12)]
    gateways = [SienaClient(sim, network, Position(0, g), brokers[g % 5]) for g in range(4)]
    users = [SienaClient(sim, network, Position(1, u), brokers[u % 5]) for u in range(20)]
    for g, gateway in enumerate(gateways):
        for subject in subjects[g::4]:
            gateway.advertise(Filter(eq("type", subject)))

    def band(slot: int) -> Filter:
        if slot % 25 == 0:
            return Filter(gt("strength", rng.uniform(11.0, 12.0)))
        low = rng.uniform(0.0, 10.0)
        return Filter(eq("type", subjects[slot % 12]), gt("strength", low), lt("strength", low + 1.0))

    live = [(rng.randrange(20), band(slot)) for slot in range(150)]
    for user, f in live:
        users[user].subscribe(f)
    sim.run_for(2.0)
    for round_no in range(4):
        for slot in rng.sample([s for s in range(150) if s % 25], 10):
            user, f = live[slot]
            users[user].unsubscribe(f)
            live[slot] = (rng.randrange(20), band(slot))
            users[live[slot][0]].subscribe(live[slot][1])
        flapped = Filter(eq("type", subjects[round_no % 3 * 4]))
        gateways[0].unadvertise(flapped)
        sim.run_for(2.0)
        gateways[0].advertise(flapped)
        sim.run_for(2.0)
    for broker in brokers:
        broker.check_invariants()
    assert checks["filter_covers", 2] == checks["filters_intersect", 2] == 0
    assert checks["filter_covers", 1] > 100 and checks["filters_intersect", 1] > 100


def test_a_pinned_probe_checks_only_its_subject_and_the_pin_free(monkeypatch):
    # A count, not a speed: 48 subjects x 20 adverts, each pinned by its
    # first ``=`` (a second ``=`` on ``room`` must not decide its bucket),
    # and three pin-free adverts filed among them.
    met: list[Filter] = []

    def counted(stored, probe, exact=index_module.filters_intersect):
        met.append(stored)
        return exact(stored, probe)

    poset = CoveringPoset()
    free = [Filter(gt("strength", 3.0 + k)) for k in range(3)]
    own: list[Filter] = []
    ids = {}
    for subject in range(48):
        if subject % 16 == 0:
            ids[free[subject // 16]] = poset.add(free[subject // 16])
        for level in range(20):
            pins = eq("type", f"kind-{subject}"), eq("room", f"room-{level % 4}")
            advert = Filter(*pins, gt("strength", float(level)))
            ids[advert] = poset.add(advert)
            if subject == 7:
                own.append(advert)
    monkeypatch.setattr(index_module, "filters_intersect", counted)
    allowed = {id(f) for f in own + free}
    for probe, want in (
        (Filter(eq("type", "kind-7"), lt("strength", -1.0)), []),  # meets nothing: every candidate is checked
        (Filter(eq("type", "kind-7"), lt("strength", 5.5)), [*free, *own[:6]]),
    ):
        met.clear()
        assert poset.intersecting(probe) == sorted(ids[f] for f in want)
        assert sorted(map(id, met)) == sorted(allowed)
        met.clear()
        assert poset.intersecting_any(probe) is bool(want)
        assert set(map(id, met)) <= allowed and (want or len(met) == len(allowed))
    met.clear()
    assert poset.intersecting(Filter(eq("type", "kind-7"), eq("type", "kind-8"))) == []
    assert not met  # a probe that matches nothing checks nothing
    assert len(poset.intersecting(Filter(exists("type"), lt("strength", 0.5)))) == 48
    assert len(met) == len(poset)  # a probe pinning no name meets every entry
