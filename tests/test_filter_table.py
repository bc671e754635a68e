"""``FilterTable`` in isolation, and its auditor under broker churn.

Two layers:

* direct unit tests of :class:`~repro.events.table.FilterTable` with a
  stub owner (an address, a set of links and a list that collects what
  would have been sent) — path narrowing/widening, what a retraction
  restores, and what a forgotten link leaves behind;
* a seeded churn script on a small cyclic mesh, per routing mode, that
  calls :meth:`BrokerNode.check_invariants` on every broker after every
  settled step — the delivery-equivalence suites cannot see tables that
  drift while deliveries happen to stay right.

Plus the regressions for the sub/advert asymmetries the one-table
refactor removed.
"""

import random

import pytest

from repro.events.broker import BrokerNode, SienaClient, build_broker_tree
from repro.events.failure import Resync
from repro.events.filters import Filter, eq, gt, type_is
from repro.events.model import make_event
from repro.events.sharding import ShardedSubscriptionIndex, ShardPlan
from repro.events.subscriptions import Subscription
from repro.events.table import FilterTable
from repro.events.wire import Subscribe, Unsubscribe
from repro.net import FixedLatency, Network, Position
from repro.simulation import Simulator
from tests.test_index_equivalence import random_filter as any_operator_filter
from tests.test_index_equivalence import random_notification

ME, N, S1, S2, S3, S4 = "me", "n", "s1", "s2", "s3", "s4"

WIDE = Filter(type_is("weather"))
NARROW_A = Filter(type_is("weather"), gt("temp", 10.0))
NARROW_B = Filter(type_is("weather"), eq("city", "fife"))
OTHER = Filter(type_is("gps"))


def make_table(indexed=True, links=(N,), **options):
    outbox: list = []
    table = FilterTable(
        ME, set(links), lambda neighbour, msg: outbox.append((neighbour, msg)),
        Subscribe, Unsubscribe, indexed=indexed, covering_enabled=True, **options,
    )
    return table, outbox


@pytest.fixture(params=[True, False], ids=["indexed", "naive"])
def indexed(request):
    return request.param


class TestPaths:
    def test_arrivals_only_narrow_and_resets_only_widen(self, indexed):
        table, outbox = make_table(indexed)
        assert table.store(S1, WIDE, ("a", "b", "c"))
        assert outbox == [(N, Subscribe(WIDE, ("a", "b", "c", ME)))]

        # A second chain narrows the stored path to the intersection and
        # tells the neighbour; the wider chain arriving again changes nothing.
        assert not table.store(S1, WIDE, ("a", "c"))
        assert table.paths[(S1, WIDE)] == ("a", "c")
        assert table.sent[N][WIDE] == frozenset({"a", "c"})
        assert outbox[-1] == (N, Subscribe(WIDE, ("a", "c", ME)))
        before = len(outbox)
        table.store(S1, WIDE, ("a", "b", "c"))
        assert table.paths[(S1, WIDE)] == ("a", "c") and len(outbox) == before

        # A reset must be a strict superset, and then replaces the path.
        for ignored in (("a",), ("a", "c"), ("a", "x")):
            table.store(S1, WIDE, ignored, path_reset=True)
            assert table.paths[(S1, WIDE)] == ("a", "c")
        table.store(S1, WIDE, ("a", "b", "c"), path_reset=True)
        assert table.paths[(S1, WIDE)] == ("a", "b", "c")
        assert table.check() == []

    def test_removal_rewidens_the_surviving_copy(self, indexed):
        table, outbox = make_table(indexed)
        table.store(S1, WIDE, ("a", "b"))
        table.store(S2, WIDE, ("b", "c"))  # narrows what N was told to {b}
        assert table.sent[N][WIDE] == frozenset({"b"})
        assert table.remove(S2, WIDE)
        assert table.sent[N][WIDE] == frozenset({"a", "b"})
        assert outbox[-1] == (N, Subscribe(WIDE, ("a", "b", ME), True))
        assert table.check() == []

    def test_reflections_and_on_path_neighbours_are_skipped(self, indexed):
        table, outbox = make_table(indexed)
        assert not table.store(S1, WIDE, ("a", ME, "b"))
        assert table.by_source == {} and outbox == []
        table.store(S1, WIDE, ("a", N))
        assert table.forwarded.get(N, []) == [] and outbox == []


class TestRetraction:
    def test_retract_restores_exactly_the_covered_set(self, indexed):
        table, outbox = make_table(indexed)
        table.store(S1, WIDE)
        table.store(S2, NARROW_A)
        table.store(S3, NARROW_B)
        table.store(S4, OTHER)
        table.store(N, Filter(type_is("weather"), eq("city", "leven")))
        assert table.forwarded[N] == [WIDE, OTHER]  # the narrow ones are masked
        masked = {table.poset.payload(pid) for pid in table.poset.covered_by(WIDE)}

        del outbox[:]
        assert table.remove(S1, WIDE)
        assert outbox[0] == (N, Unsubscribe(WIDE))
        restored = {msg.filter for _, msg in outbox[1:]}
        assert restored == {NARROW_A, NARROW_B}  # not OTHER, not N's own filter
        if indexed:
            assert restored == {f for src, f in masked if src not in (S1, N)}
        assert sorted(map(repr, table.forwarded[N])) == sorted(
            map(repr, [OTHER, NARROW_A, NARROW_B])
        )
        assert table.check() == []

    def test_removing_an_absent_entry_is_a_no_op(self, indexed):
        table, outbox = make_table(indexed)
        table.store(S1, WIDE)
        del outbox[:]
        assert not table.remove(S2, WIDE)
        assert not table.remove(S1, OTHER)
        assert outbox == [] and table.forwarded[N] == [WIDE]

    def test_emptied_source_leaves_no_key(self, indexed):
        table, _ = make_table(indexed)
        table.store(S1, WIDE)
        table.remove(S1, WIDE)
        assert table.by_source == {} and table.paths == {} and table.sources == {}


class TestLinks:
    def test_forget_leaves_no_key_in_any_book(self, indexed):
        table, _ = make_table(indexed, links=(N, "m"))
        table.store(S1, WIDE)
        table.store(S2, OTHER)
        table.forget(N)
        for book in (table.forwarded, table.fwd_posets, table.fwd_ids, table.sent):
            assert N not in book
        assert table.forwarded["m"] == [WIDE, OTHER]

    def test_reset_then_sync_replays_the_store(self, indexed):
        table, outbox = make_table(indexed)
        table.store(S1, WIDE)
        table.store(N, OTHER)  # never echoed back to where it came from
        del outbox[:]
        table.sync(N)
        assert outbox == []  # the books say N already holds it
        table.reset(N)
        assert table.forwarded[N] == []
        table.sync(N)
        assert outbox == [(N, Subscribe(WIDE, (ME,)))]
        assert table.check() == []

    def test_blocked_filters_stay_parked_until_forwarded(self, indexed):
        parked = {OTHER}
        table, outbox = make_table(
            indexed, blocked=lambda neighbour, filter: filter in parked
        )
        table.store(S1, OTHER)
        table.store(S2, WIDE)
        assert table.forwarded[N] == [WIDE]
        table.forward(N, OTHER, table.paths[(S1, OTHER)])
        assert table.check() == [f"{OTHER!r} forwarded toward {N!r} while blocked"]
        parked.clear()
        assert table.check() == []

    def test_records_expose_their_filter(self):
        table, _ = make_table(record=Subscription.fresh)
        table.store(S1, WIDE)
        (record,) = table.by_source[S1]
        assert record.filter == WIDE and record.subscriber == S1
        assert table.filters_from(S1) == [WIDE]


class TestInterested:
    """The one query publications are routed by (`FilterTable.interested`)."""

    SOURCES = [f"s{i}" for i in range(12)]

    def populated(self, seed, **options):
        rng = random.Random(seed)
        table, _ = make_table(links=(), **options)
        for _ in range(150):
            table.store(rng.choice(self.SOURCES), any_operator_filter(rng))
        # Churn, so by-source order is not simply first-store order.
        for source, filter in rng.sample(list(table.entries()), 40):
            table.remove(source, filter)
        for _ in range(30):
            table.store(rng.choice(self.SOURCES), any_operator_filter(rng))
        return table, [random_notification(rng) for _ in range(60)]

    @staticmethod
    def reference(table, notification, exclude=None):
        """What the definition says, straight off the by-source lists."""
        return [
            source
            for source in table.by_source
            if source != exclude
            and any(f.matches(notification) for f in table.filters_from(source))
        ]

    @pytest.mark.parametrize("seed", range(8))
    def test_naive_indexed_and_sharded_agree_with_the_definition(self, seed):
        variants = {
            "naive": dict(indexed=False),
            "indexed": dict(indexed=True),
            "sharded": dict(indexed=True, index=ShardedSubscriptionIndex(ShardPlan(3))),
            "records": dict(indexed=False, record=Subscription.fresh),
        }
        answers = {}
        for name, options in variants.items():
            table, notifications = self.populated(seed, **options)
            expected = [self.reference(table, n) for n in notifications]
            assert len({tuple(e) for e in expected}) > 20  # the workload discriminates
            # One notification at a time, and the same ones as one batch.
            assert [table.interested([n])[0] for n in notifications] == expected, name
            assert table.interested(notifications) == expected, name
            assert table.interested(tuple(notifications[:1])) == expected[:1], name
            assert [table.matches(n) for n in notifications] == [bool(e) for e in expected]
            answers[name] = expected
        assert len({repr(a) for a in answers.values()}) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_exclude_drops_exactly_that_source(self, seed, indexed):
        table, notifications = self.populated(seed, indexed=indexed)
        for exclude in (self.SOURCES[0], self.SOURCES[7], "nobody", None):
            expected = [self.reference(table, n, exclude) for n in notifications]
            assert table.interested(notifications, exclude=exclude) == expected
            assert all(exclude not in dests for dests in expected)
            assert [table.interested([n], exclude=exclude)[0] for n in notifications] == expected

    def test_order_is_by_source_insertion_order(self, indexed):
        table, _ = make_table(indexed, links=())
        event = make_event("weather", temp=20.0, city="fife")
        for source in ("s3", "s1", "s2"):
            table.store(source, WIDE)
        table.store("s1", NARROW_A)  # a second match does not repeat s1
        table.store("s0", OTHER)  # holds nothing that matches
        assert table.interested([event]) == [["s3", "s1", "s2"]]
        # A source that empties and returns goes to the back of the line.
        table.remove("s3", WIDE)
        table.store("s3", NARROW_B)
        assert table.interested([event, event], exclude="s2") == [["s1", "s3"]] * 2
        assert table.interested([]) == []
        assert table.interested([make_event("rfid")]) == [[]]


class TestAudit:
    def test_check_names_each_kind_of_drift(self, indexed):
        table, _ = make_table(indexed)
        table.store(S1, WIDE)
        assert table.check() == []
        del table.sent[N][WIDE]
        assert any("sent paths" in p for p in table.check())
        table.sent[N][WIDE] = frozenset()
        table.by_source[S1].clear()
        problems = table.check()
        assert any("empty by-source list" in p for p in problems)
        assert any("paths out of step" in p for p in problems)
        assert any("unjustified" in p for p in problems)


# ----------------------------------------------------------------------
# Regressions: asymmetries between the two hand-mirrored halves
# ----------------------------------------------------------------------
def small_world(count=2, **options):
    sim = Simulator(seed=3)
    net = Network(sim, latency=FixedLatency(0.01))
    brokers = [BrokerNode(sim, net, Position(i, i), **options) for i in range(count)]
    return sim, net, brokers


class TestSymmetry:
    @pytest.mark.parametrize("indexed", [True, False], ids=["indexed", "naive"])
    def test_withdrawn_client_advert_leaves_no_source_key(self, indexed):
        """An emptied ``adverts_by_source`` list used to stay behind for
        every client that ever advertised, for link syncs to walk forever."""
        sim, net, (a, b) = small_world(indexed=indexed)
        a.connect(b)
        producer = SienaClient(sim, net, Position(0, 1), a)
        subscriber = SienaClient(sim, net, Position(0, 2), a)
        producer.advertise(WIDE)
        subscriber.subscribe(WIDE)
        sim.run_for(1.0)
        assert set(a.adverts_by_source) == {producer.addr}
        producer.unadvertise(WIDE)
        subscriber.unsubscribe(WIDE)
        sim.run_for(1.0)
        assert a.adverts_by_source == {} and a.subs_by_source == {}
        assert b.adverts_by_source == {} and b.subs_by_source == {}

    def test_fresh_link_has_both_forwarding_books(self):
        """``restore_link`` used to seed ``forwarded`` only, so reading
        the advert book of a fresh link raised ``KeyError``."""
        _, _, (a, b) = small_world()
        a.restore_link(b.addr)
        assert a.forwarded[b.addr] == []
        assert a.adverts_forwarded[b.addr] == []

    def test_unknown_builder_option_is_refused_by_the_broker(self):
        sim = Simulator(seed=0)
        with pytest.raises(TypeError, match="rv_refresh"):
            build_broker_tree(sim, Network(sim), 2, rv_refresh=1.0)


# ----------------------------------------------------------------------
# Seeded churn with the auditor on
# ----------------------------------------------------------------------
MODES = {
    "naive": dict(indexed=False),
    "indexed": dict(indexed=True),
    "adv_pruned": dict(indexed=True, adv_pruned=True),
}
TYPES = ["weather", "gps", "rfid"]
TREE = [(1, 0), (2, 0), (3, 1), (4, 1)]
CHORDS = [(2, 3), (4, 0)]


def random_filter(rng: random.Random) -> Filter:
    constraints = [type_is(rng.choice(TYPES))]
    roll = rng.random()
    if roll < 0.35:
        constraints.append(gt("level", float(rng.randrange(4))))
    elif roll < 0.5:
        constraints.append(eq("room", rng.choice(["lab", "cafe"])))
    return Filter(*constraints)


def churn_script(seed: int, steps: int = 45) -> list[tuple]:
    """Pure data, so every mode runs the same ops in the same order."""
    rng = random.Random(seed)
    ops = []
    for _ in range(steps):
        roll = rng.random()
        client = rng.randrange(10)
        pair = tuple(rng.sample(range(5), 2))
        if roll < 0.3:
            ops.append(("subscribe", client, random_filter(rng)))
        elif roll < 0.45:
            ops.append(("unsubscribe", client, rng.random()))
        elif roll < 0.6:
            ops.append(("advertise", client, random_filter(rng)))
        elif roll < 0.7:
            ops.append(("unadvertise", client, rng.random()))
        elif roll < 0.85:
            ops.append(("toggle_link", *pair))
        else:
            ops.append(("drop_restore", *pair))
    return ops


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(6))
def test_churn_keeps_every_table_sound(mode, seed):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(0.01))
    brokers = [BrokerNode(sim, net, Position(i, -i), **MODES[mode]) for i in range(5)]
    for i, j in TREE + CHORDS:
        brokers[i].connect(brokers[j])
    clients = [SienaClient(sim, net, Position(i, 7), brokers[i % 5]) for i in range(10)]
    live: dict = {"subscribe": {c.addr: [] for c in clients}, "advertise": {c.addr: [] for c in clients}}

    def settle_and_audit(step):
        sim.run_for(2.0)
        for broker in brokers:
            try:
                broker.check_invariants()
            except AssertionError as drift:
                raise AssertionError(f"after step {step}: {drift}") from None

    settle_and_audit("build")
    for number, (op, *args) in enumerate(churn_script(seed)):
        if op in ("subscribe", "advertise"):
            client, filter = clients[args[0]], args[1]
            getattr(client, op)(filter)
            live[op][client.addr].append(filter)
        elif op in ("unsubscribe", "unadvertise"):
            client = clients[args[0]]
            held = live[op[2:]][client.addr]
            if held:
                getattr(client, op)(held.pop(int(args[1] * len(held))))
        elif op == "toggle_link":
            a, b = brokers[args[0]], brokers[args[1]]
            if b.addr in a.neighbours:
                a.disconnect(b)
            else:
                a.connect(b)
        else:  # one side drops the link, then heals it the detector's way
            a, b = brokers[args[0]], brokers[args[1]]
            if b.addr in a.neighbours:
                a.drop_link(b.addr)
                settle_and_audit((number, op, "dropped"))
                a.send(b.addr, Resync(), size_bytes=64)
                a.restore_link(b.addr)
        settle_and_audit((number, op))

    # Withdraw everything.  (Not asserted: that the tables come back to
    # empty — link toggling on a cycle can leave brokers holding each
    # other's copies of a departed filter, at the parent commit too.)
    for kind, undo in (("subscribe", "unsubscribe"), ("advertise", "unadvertise")):
        for client in clients:
            for filter in live[kind][client.addr]:
                getattr(client, undo)(filter)
    settle_and_audit("teardown")
