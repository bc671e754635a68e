"""Tests for the Siena broker network, the Elvin baseline, and mobility."""

import pytest

from repro.events.broker import BrokerNode, SienaClient, build_broker_tree
from repro.events.elvin import ElvinClient, ElvinServer
from repro.events.filters import Filter, eq, gt, type_is
from repro.events.mobility import MobileClient
from repro.events.model import make_event
from repro.events.subscriptions import Subscription
from repro.events.table import FilterTable
from repro.events.wire import (
    Notify,
    NotifyBatch,
    Publish,
    PublishBatch,
    Subscribe,
    Unsubscribe,
)
from repro.net import FixedLatency, Network, Position
from repro.simulation import Simulator


def make_world(brokers=4, seed=0):
    sim = Simulator(seed=seed)
    network = Network(sim, latency=FixedLatency(0.01))
    tree = build_broker_tree(sim, network, brokers)
    return sim, network, tree


def client_at(sim, network, broker, lat=10.0, lon=10.0):
    return SienaClient(sim, network, Position(lat, lon), broker)


class TestSienaBasics:
    def test_subscribe_then_receive(self):
        sim, network, brokers = make_world()
        sub = client_at(sim, network, brokers[0])
        pub = client_at(sim, network, brokers[-1])
        sub.subscribe(Filter(type_is("weather")))
        sim.run_for(1.0)
        pub.publish(make_event("weather", temp=19.0))
        sim.run_for(1.0)
        assert len(sub.received) == 1
        assert sub.received[0][1]["temp"] == 19.0

    def test_content_filtering(self):
        sim, network, brokers = make_world()
        sub = client_at(sim, network, brokers[1])
        pub = client_at(sim, network, brokers[2])
        sub.subscribe(Filter(type_is("weather"), gt("temp", 18.0)))
        sim.run_for(1.0)
        pub.publish(make_event("weather", temp=15.0))
        pub.publish(make_event("weather", temp=21.0))
        sim.run_for(1.0)
        assert len(sub.received) == 1
        assert sub.received[0][1]["temp"] == 21.0

    def test_no_subscription_no_delivery(self):
        sim, network, brokers = make_world()
        sub = client_at(sim, network, brokers[0])
        pub = client_at(sim, network, brokers[1])
        pub.publish(make_event("weather", temp=30.0))
        sim.run_for(1.0)
        assert sub.received == []

    def test_multiple_subscribers_fanout(self):
        sim, network, brokers = make_world(brokers=5)
        subs = [client_at(sim, network, b) for b in brokers]
        for sub in subs:
            sub.subscribe(Filter(type_is("alert")))
        sim.run_for(1.0)
        pub = client_at(sim, network, brokers[0])
        pub.publish(make_event("alert"))
        sim.run_for(1.0)
        assert all(len(s.received) == 1 for s in subs)

    def test_publisher_does_not_receive_own_events_unsubscribed(self):
        sim, network, brokers = make_world()
        pub = client_at(sim, network, brokers[0])
        pub.publish(make_event("x"))
        sim.run_for(1.0)
        assert pub.received == []

    def test_unsubscribe_stops_delivery(self):
        sim, network, brokers = make_world()
        sub = client_at(sim, network, brokers[0])
        pub = client_at(sim, network, brokers[2])
        f = Filter(type_is("tick"))
        sub.subscribe(f)
        sim.run_for(1.0)
        pub.publish(make_event("tick"))
        sim.run_for(1.0)
        sub.unsubscribe(f)
        sim.run_for(1.0)
        pub.publish(make_event("tick"))
        sim.run_for(1.0)
        assert len(sub.received) == 1

    def test_unsubscribe_preserves_other_subscriptions(self):
        """Removing a covering filter must re-expose covered ones."""
        sim, network, brokers = make_world()
        broad_sub = client_at(sim, network, brokers[0])
        narrow_sub = client_at(sim, network, brokers[0])
        pub = client_at(sim, network, brokers[-1])
        broad = Filter(type_is("weather"))
        narrow = Filter(type_is("weather"), gt("temp", 18.0))
        broad_sub.subscribe(broad)
        sim.run_for(1.0)
        narrow_sub.subscribe(narrow)  # covered: not forwarded upstream
        sim.run_for(1.0)
        broad_sub.unsubscribe(broad)
        sim.run_for(1.0)
        pub.publish(make_event("weather", temp=25.0))
        sim.run_for(1.0)
        assert len(narrow_sub.received) == 1
        assert broad_sub.received == []


class TestCoveringPropagation:
    def test_covered_subscription_not_forwarded(self):
        sim, network, brokers = make_world(brokers=2)
        edge = brokers[1]
        sub1 = client_at(sim, network, edge)
        sub2 = client_at(sim, network, edge)
        sub1.subscribe(Filter(type_is("weather")))
        sim.run_for(1.0)
        upstream_filters = len(edge.forwarded[brokers[0].addr])
        sub2.subscribe(Filter(type_is("weather"), gt("temp", 20.0)))
        sim.run_for(1.0)
        assert len(edge.forwarded[brokers[0].addr]) == upstream_filters

    def test_uncovered_subscription_is_forwarded(self):
        sim, network, brokers = make_world(brokers=2)
        edge = brokers[1]
        sub = client_at(sim, network, edge)
        sub.subscribe(Filter(type_is("weather")))
        sim.run_for(1.0)
        before = len(edge.forwarded[brokers[0].addr])
        sub.subscribe(Filter(type_is("location")))
        sim.run_for(1.0)
        assert len(edge.forwarded[brokers[0].addr]) == before + 1

    def test_notification_pruned_from_uninterested_subtree(self):
        sim, network, brokers = make_world(brokers=7)
        # subscriber deep in one subtree; publisher in another
        sub = client_at(sim, network, brokers[4])
        pub = client_at(sim, network, brokers[5])
        sub.subscribe(Filter(type_is("rare")))
        sim.run_for(1.0)
        processed_before = {b.addr: b.notifications_processed for b in brokers}
        pub.publish(make_event("common"))  # nobody subscribed
        sim.run_for(1.0)
        touched = [
            b for b in brokers
            if b.notifications_processed > processed_before[b.addr]
        ]
        # Only the publisher's own broker sees an event nobody wants.
        assert len(touched) == 1


class TestTopologyIdempotence:
    def test_connect_twice_is_a_noop(self):
        sim, network, brokers = make_world(brokers=2)
        a, b = brokers
        sub = client_at(sim, network, a)
        pub = client_at(sim, network, b)
        sub.subscribe(Filter(type_is("weather")))
        pub.advertise(Filter(type_is("weather")))
        sim.run_for(1.0)
        counts = dict(a.control_counts), dict(b.control_counts)
        forwarded = [list(fs) for fs in a.forwarded.values()]
        a.connect(b)  # already linked: no state re-exchange
        sim.run_for(1.0)
        assert (dict(a.control_counts), dict(b.control_counts)) == counts
        assert [list(fs) for fs in a.forwarded.values()] == forwarded
        pub.publish(make_event("weather", temp=20.0))
        sim.run_for(1.0)
        assert len(sub.received) == 1

    def test_connect_twice_reversed_is_a_noop(self):
        sim, network, brokers = make_world(brokers=2)
        a, b = brokers
        sub = client_at(sim, network, a)
        sub.subscribe(Filter(type_is("weather")))
        sim.run_for(1.0)
        counts = dict(b.control_counts)
        b.connect(a)  # the seed linked a→b; the swapped call is the same link
        sim.run_for(1.0)
        assert dict(b.control_counts) == counts
        assert all(len(fs) == len(set(fs)) for fs in a.forwarded.values())

    def test_disconnect_non_neighbour_is_a_noop(self):
        sim, network, brokers = make_world(brokers=4)
        # With branching 3, brokers 1..3 all hang off 0: 1 and 2 are not
        # neighbours of each other.
        one, two = brokers[1], brokers[2]
        assert two.addr not in one.neighbours
        sub = client_at(sim, network, one)
        pub = client_at(sim, network, two)
        sub.subscribe(Filter(type_is("weather")))
        sim.run_for(1.0)
        stored = {addr: len(subs) for addr, subs in brokers[0].subs_by_source.items()}
        one.disconnect(two)
        sim.run_for(1.0)
        assert {
            addr: len(subs) for addr, subs in brokers[0].subs_by_source.items()
        } == stored
        pub.publish(make_event("weather", temp=20.0))
        sim.run_for(1.0)
        assert len(sub.received) == 1

    def test_disconnect_twice_is_a_noop(self):
        sim, network, brokers = make_world(brokers=2)
        a, b = brokers
        sub = client_at(sim, network, a)
        sub.subscribe(Filter(type_is("weather")))
        sim.run_for(1.0)
        a.disconnect(b)
        sim.run_for(1.0)
        counts = dict(a.control_counts), dict(b.control_counts)
        b.disconnect(a)
        sim.run_for(1.0)
        assert (dict(a.control_counts), dict(b.control_counts)) == counts


THREE = [Filter(type_is(kind)) for kind in ("weather", "gps", "rfid")]


@pytest.fixture(params=[True, False], ids=["indexed", "naive"])
def table(request):
    """A table whose three filters from ``s1`` are all forwarded to ``n``."""
    table = FilterTable(
        "me", {"n"}, lambda neighbour, msg: None, Subscribe, Unsubscribe,
        indexed=request.param, covering_enabled=True, record=Subscription.fresh,
    )
    for filter in THREE:
        table.store("s1", filter)
    table.store("s2", THREE[1])
    assert table.check() == []
    return table


class TestAudit:
    """Books the audit used to let drift in one mode or the other."""

    def test_missing_per_source_advert_posets_are_reported(self):
        sim, network, brokers = make_world(brokers=2)
        producer = client_at(sim, network, brokers[0])
        producer.advertise(Filter(type_is("weather")))
        sim.run_for(1.0)
        broker = brokers[0]
        broker.check_invariants()
        assert broker._adv_intersects(producer.addr, Filter(type_is("weather")))
        broker._adv_in.clear()
        broker._adv_in_ids.clear()
        with pytest.raises(AssertionError, match="per-source posets"):
            broker.check_invariants()

    def test_a_naive_table_audits_its_sources_book(self):
        table = FilterTable(
            "me", {"n"}, lambda neighbour, msg: None, Subscribe, Unsubscribe,
            indexed=False, covering_enabled=True,
        )
        table.store("s1", Filter(type_is("weather")))
        assert table.check() == []
        table.sources.clear()
        assert "sources out of step with the store" in table.check()

    # ``remove`` finds a record by the identity of the object the store
    # poset holds, so the audit holds that identity, and each link's ids.
    def test_a_record_the_poset_does_not_hold_is_named(self, table):
        (record,) = table.by_source["s2"]
        table.by_source["s2"][0] = Subscription(record.sub_id, Filter(type_is("gps")), "s2")
        assert table.check() == [
            f"{THREE[1]!r} from 's2' is not the object the poset holds"
        ]

    def test_a_forward_id_naming_another_filter_is_named(self, table):
        ids = table.fwd_ids["n"]
        ids[THREE[0]], ids[THREE[2]] = ids[THREE[2]], ids[THREE[0]]
        assert table.check() == ["link poset out of step with forwards toward 'n'"]

    def test_a_stale_forward_id_is_named(self, table):
        ids = table.fwd_ids["n"]
        pid = ids[THREE[1]]
        table.fwd_posets["n"].remove(pid)
        table.fwd_posets["n"].add(THREE[1])  # same size, a new id
        assert table.check() == ["link poset out of step with forwards toward 'n'"]

    def test_a_sent_path_without_a_forward_is_named(self, table):
        table.sent["n"][Filter(type_is("mail"))] = frozenset()
        assert table.check() == ["sent paths out of step with forwards toward 'n'"]

    def test_removing_the_middle_record_keeps_the_rest_in_order(self, table):
        records = table.by_source["s1"]
        first, _middle, last = records
        kept = {
            "s2": list(table.by_source["s2"]),
            "paths": dict(table.paths),
            "entries": dict(table.entry_ids),
            "poset": dict(table.poset_ids),
        }
        # An equal filter, not the stored object, names the entry.
        assert table.remove("s1", Filter(type_is("gps")))
        assert table.by_source["s1"] is records
        assert len(records) == 2 and records[0] is first and records[1] is last
        assert table.by_source["s2"] == kept["s2"]
        for name, book in (("paths", table.paths), ("entries", table.entry_ids), ("poset", table.poset_ids)):
            assert book == {k: v for k, v in kept[name].items() if k != ("s1", THREE[1])}, name
        assert table.sources[THREE[1]] == {"s2"}
        assert table.forwarded["n"] == THREE  # s2's copy keeps gps forwarded
        assert table.check() == []


class TestWireForms:
    """Which message types leave a broker, per inbound form and ``batched``.

    The rule: a destination gets one ``Notify``/``Publish`` per item,
    unless the items came in as a ``PublishBatch`` *and* the broker is
    ``batched`` — then one ``NotifyBatch``/``PublishBatch``, even when a
    single item survives.  Proxied clients are buffered, never sent to.
    """

    def world(self, batched):
        sim = Simulator(seed=0)
        network = Network(sim, latency=FixedLatency(0.01))
        edge, far = (
            BrokerNode(sim, network, Position(i, i), batched=batched) for i in range(2)
        )
        edge.connect(far)
        publisher = client_at(sim, network, edge)
        local = client_at(sim, network, edge)
        remote = client_at(sim, network, far)
        roamer = MobileClient(sim, network, Position(5, 5), edge)
        for client in (local, remote, roamer):
            client.subscribe(Filter(type_is("mail")))
        sim.run_for(1.0)
        roamer.move_out()
        sim.run_for(1.0)
        sent = []
        wire_send = edge.send

        def recording_send(dst, payload, size_bytes=256):
            sent.append((dst, payload))
            return wire_send(dst, payload, size_bytes)

        edge.send = recording_send
        return sim, edge, far, publisher, local, remote, roamer, sent

    @pytest.mark.parametrize("batched", [False, True], ids=["unbatched", "batched"])
    def test_single_publish_leaves_as_singles(self, batched):
        sim, edge, far, publisher, local, remote, roamer, sent = self.world(batched)
        event = make_event("mail", n=1)
        publisher.publish(event)
        sim.run_for(1.0)
        assert sent == [
            (local.addr, Notify(event)),
            (far.addr, Publish(event, (publisher.addr, 0))),
        ]
        assert edge.proxies[roamer.addr] == [event]
        assert [n for _, n in remote.received] == [event]

    def test_batch_unbundles_when_the_broker_is_not_batched(self):
        sim, edge, far, publisher, local, remote, roamer, sent = self.world(False)
        events = [make_event("mail", n=n) for n in range(3)]
        publisher.publish_batch(events)
        sim.run_for(1.0)
        assert sent == [
            message
            for seq, event in enumerate(events)
            for message in (
                (local.addr, Notify(event)),
                (far.addr, Publish(event, (publisher.addr, seq))),
            )
        ]
        assert edge.proxies[roamer.addr] == events
        assert [n for _, n in remote.received] == events

    def test_batch_stays_one_message_per_destination_when_batched(self):
        sim, edge, far, publisher, local, remote, roamer, sent = self.world(True)
        events = [make_event("mail", n=0), make_event("spam"), make_event("mail", n=2)]
        publisher.publish_batch(events)
        sim.run_for(1.0)
        mail = [events[0], events[2]]
        assert sent == [
            (local.addr, NotifyBatch(tuple(mail))),
            (
                far.addr,
                PublishBatch(((mail[0], (publisher.addr, 0)), (mail[1], (publisher.addr, 2)))),
            ),
        ]
        assert edge.proxies[roamer.addr] == mail
        assert [n for _, n in remote.received] == mail
        assert edge.notifications_processed == 3 and edge.notifications_delivered == 2

    def test_one_survivor_of_a_batch_still_travels_as_a_batch(self):
        sim, edge, far, publisher, local, remote, roamer, sent = self.world(True)
        event = make_event("mail", n=7)
        publisher.publish(event)  # pub_id (publisher, 0), seen below as a duplicate
        sim.run_for(1.0)
        del sent[:]
        fresh = make_event("mail", n=8)
        publisher.send(
            edge.addr,
            PublishBatch(((event, (publisher.addr, 0)), (fresh, (publisher.addr, 1)))),
        )
        sim.run_for(1.0)
        assert sent == [
            (local.addr, NotifyBatch((fresh,))),
            (far.addr, PublishBatch(((fresh, (publisher.addr, 1)),))),
        ]
        assert edge.duplicates_suppressed == 1
        assert edge.proxies[roamer.addr] == [event, fresh]


class TestElvinBaseline:
    def test_centralised_delivery(self):
        sim = Simulator(seed=0)
        network = Network(sim, latency=FixedLatency(0.01))
        server = ElvinServer(sim, network, Position(0, 0))
        sub = ElvinClient(sim, network, Position(1, 1), server)
        pub = ElvinClient(sim, network, Position(2, 2), server)
        sub.subscribe(Filter(type_is("news")))
        sim.run_for(1.0)
        pub.publish(make_event("news"))
        sim.run_for(1.0)
        assert len(sub.received) == 1

    def test_server_processes_every_publication(self):
        sim = Simulator(seed=0)
        network = Network(sim, latency=FixedLatency(0.01))
        server = ElvinServer(sim, network, Position(0, 0))
        clients = [ElvinClient(sim, network, Position(1, i), server) for i in range(5)]
        for client in clients:
            client.subscribe(Filter(type_is("t")))
        sim.run_for(1.0)
        for client in clients:
            client.publish(make_event("t"))
        sim.run_for(1.0)
        assert server.notifications_processed == 5
        # every client (including publisher) matched each event
        assert server.notifications_delivered == 25

    def test_unsubscribe(self):
        sim = Simulator(seed=0)
        network = Network(sim, latency=FixedLatency(0.01))
        server = ElvinServer(sim, network, Position(0, 0))
        sub = ElvinClient(sim, network, Position(1, 1), server)
        f = Filter(type_is("x"))
        sub.subscribe(f)
        sim.run_for(1.0)
        sub.unsubscribe(f)
        sim.run_for(1.0)
        sub2 = ElvinClient(sim, network, Position(1, 2), server)
        sub2.publish(make_event("x"))
        sim.run_for(1.0)
        assert sub.received == []


class TestMobility:
    def test_events_buffered_while_disconnected(self):
        sim, network, brokers = make_world(brokers=3)
        mobile = MobileClient(sim, network, Position(10, 10), brokers[1])
        pub = client_at(sim, network, brokers[2])
        mobile.subscribe(Filter(type_is("mail")))
        sim.run_for(1.0)
        mobile.move_out()
        sim.run_for(1.0)
        pub.publish(make_event("mail", n=1))
        pub.publish(make_event("mail", n=2))
        sim.run_for(1.0)
        assert mobile.received == []  # disconnected
        mobile.move_in(brokers[0])  # reappears elsewhere
        sim.run_for(2.0)
        assert sorted(e["n"] for _, e in mobile.received) == [1, 2]

    def test_after_move_in_new_events_flow_via_new_broker(self):
        sim, network, brokers = make_world(brokers=3)
        mobile = MobileClient(sim, network, Position(10, 10), brokers[1])
        pub = client_at(sim, network, brokers[2])
        mobile.subscribe(Filter(type_is("mail")))
        sim.run_for(1.0)
        mobile.move_out()
        sim.run_for(1.0)
        mobile.move_in(brokers[0])
        sim.run_for(2.0)
        pub.publish(make_event("mail", n=3))
        sim.run_for(1.0)
        assert [e["n"] for _, e in mobile.received] == [3]

    def test_without_proxy_events_are_lost(self):
        """The baseline the proxy fixes: crash without move-out loses events."""
        sim, network, brokers = make_world(brokers=3)
        plain = SienaClient(sim, network, Position(10, 10), brokers[1])
        pub = client_at(sim, network, brokers[2])
        plain.subscribe(Filter(type_is("mail")))
        sim.run_for(1.0)
        plain.crash()
        pub.publish(make_event("mail", n=1))
        sim.run_for(1.0)
        plain.recover()
        sim.run_for(1.0)
        assert plain.received == []
