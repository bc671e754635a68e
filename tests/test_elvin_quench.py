"""Elvin quench: client-side suppression driven by server snapshots.

The server summarises its subscription table as the set of pinned
``type`` values plus an any-wildcard flag (the same conservative logic
the rendezvous layer uses for ``filter_key``).  Publishers that opt in
drop notifications no subscription could possibly match before they
reach the wire — and deliveries must stay byte-identical to a run
without quenching.
"""

import random

import pytest

from repro.events.elvin import (
    ElvinClient,
    ElvinServer,
    ElvinSubscribeBatch,
)
from repro.events.filters import Constraint, Filter, Op
from repro.events.model import make_event
from repro.events.wire import Advertise, Notify, NotifyBatch, Publish, PublishBatch, Subscribe
from repro.net import FixedLatency, Network, Position
from repro.net.host import Host
from repro.simulation import Simulator

SUBJECTS = ["news", "traffic", "weather", "sport", "finance", "music"]


def _scene():
    sim = Simulator(seed=7)
    network = Network(sim, latency=FixedLatency(0.01))
    server = ElvinServer(sim, network, Position(0, 0))
    return sim, network, server


def _typed(subject, **extra):
    constraints = [Constraint("type", Op.EQ, subject)]
    for name, (op, value) in extra.items():
        constraints.append(Constraint(name, op, value))
    return Filter(*constraints)


def _random_event(rng):
    # Half the subjects are never subscribed to, so quenching has
    # real traffic to suppress.
    subject = rng.choice(SUBJECTS + ["noise-a", "noise-b", "noise-c"])
    return make_event(subject, strength=rng.uniform(0.0, 10.0))


def _run_churn(quench: bool):
    rng = random.Random(21)
    sim, network, server = _scene()
    subscribers = [ElvinClient(sim, network, Position(1, i), server) for i in range(4)]
    publishers = [ElvinClient(sim, network, Position(2, i), server) for i in range(3)]
    if quench:
        for pub in publishers:
            pub.request_quench()
        sim.run_for(1.0)
    subs = [
        _typed(SUBJECTS[i % len(SUBJECTS)], strength=(Op.GT, float(i)))
        for i in range(8)
    ]
    for i, f in enumerate(subs):
        subscribers[i % len(subscribers)].subscribe(f)
    sim.run_for(1.0)
    for _ in range(60):
        rng.choice(publishers).publish(_random_event(rng))
    sim.run_for(2.0)
    # Churn: drop half the subscriptions, then publish again.
    for i, f in enumerate(subs[:4]):
        subscribers[i % len(subscribers)].unsubscribe(f)
    sim.run_for(1.0)
    batch = [_random_event(rng) for _ in range(40)]
    publishers[0].publish_batch(batch)
    sim.run_for(2.0)
    deliveries = [
        sorted(sorted(n.items()) for _, n in c.received) for c in subscribers
    ]
    suppressed = sum(p.quenched for p in publishers)
    return deliveries, suppressed, server.notifications_processed


class TestQuenchEquivalence:
    def test_quenched_run_delivers_identically(self):
        plain, plain_suppressed, plain_processed = _run_churn(quench=False)
        quenched, suppressed, processed = _run_churn(quench=True)
        assert quenched == plain
        assert plain_suppressed == 0
        # The quenched run really dropped traffic client-side: fewer
        # notifications reached the server, by exactly the count the
        # publishers suppressed.
        assert suppressed > 0
        assert processed == plain_processed - suppressed


class TestQuenchSemantics:
    def test_wildcard_subscription_disables_suppression(self):
        sim, network, server = _scene()
        sub = ElvinClient(sim, network, Position(1, 1), server)
        pub = ElvinClient(sim, network, Position(2, 2), server)
        pub.request_quench()
        sub.subscribe(Filter(Constraint("strength", Op.GT, 5.0)))
        sim.run_for(1.0)
        assert pub.quench is not None and pub.quench.any_wildcard
        pub.publish(make_event("anything", strength=1.0))
        sim.run_for(1.0)
        assert pub.quenched == 0
        assert server.notifications_processed == 1

    def test_numeric_subjects_fold_across_int_and_float(self):
        # A subscription pinned to type == 2 must not quench events
        # published with type 2.0 — matching treats them as equal.
        sim, network, server = _scene()
        sub = ElvinClient(sim, network, Position(1, 1), server)
        pub = ElvinClient(sim, network, Position(2, 2), server)
        pub.request_quench()
        sub.subscribe(Filter(Constraint("type", Op.EQ, 2)))
        sim.run_for(1.0)
        # make_event always sets type to a string, so build the
        # numeric-subject events explicitly.
        from repro.events.model import Notification

        pub.publish(make_event("ignored"))
        pub.publish(Notification({"type": 2.0}))
        pub.publish(Notification({"type": 3.0}))
        sim.run_for(1.0)
        assert pub.quenched == 2  # "ignored" and 3.0; 2.0 went through
        assert server.notifications_processed == 1
        assert len(sub.received) == 1

    def test_unsubscribe_restores_suppression(self):
        sim, network, server = _scene()
        sub = ElvinClient(sim, network, Position(1, 1), server)
        pub = ElvinClient(sim, network, Position(2, 2), server)
        pub.request_quench()
        f = _typed("news")
        sub.subscribe(f)
        sim.run_for(1.0)
        pub.publish(make_event("news"))
        sim.run_for(1.0)
        assert pub.quenched == 0
        sub.unsubscribe(f)
        sim.run_for(1.0)
        assert pub.quench is not None and not pub.quench.types
        pub.publish(make_event("news"))
        sim.run_for(1.0)
        assert pub.quenched == 1
        assert server.notifications_processed == 1

    def test_event_without_type_quenched_unless_wildcard(self):
        from repro.events.model import Notification

        sim, network, server = _scene()
        sub = ElvinClient(sim, network, Position(1, 1), server)
        pub = ElvinClient(sim, network, Position(2, 2), server)
        pub.request_quench()
        sub.subscribe(_typed("news"))
        sim.run_for(1.0)
        pub.publish(Notification({"strength": 1.0}))
        sim.run_for(1.0)
        assert pub.quenched == 1


class TestQuenchBatching:
    def test_subscription_batch_pushes_snapshot_once(self):
        sim, network, server = _scene()
        sub = ElvinClient(sim, network, Position(1, 1), server)
        pub = ElvinClient(sim, network, Position(2, 2), server)
        pub.request_quench()
        sim.run_for(1.0)
        pushes_after_optin = server.quench_pushes
        assert pushes_after_optin == 1
        filters = [_typed(s) for s in SUBJECTS]
        sub.subscribe_batch(filters)
        sim.run_for(1.0)
        # One batch, one recompute, one push — not one per filter.
        assert server.quench_pushes == pushes_after_optin + 1
        assert pub.quench is not None
        assert len(pub.quench.types) == len(SUBJECTS)
        # The same changes as individual messages push once per change.
        sim2, network2, server2 = _scene()
        sub2 = ElvinClient(sim2, network2, Position(1, 1), server2)
        pub2 = ElvinClient(sim2, network2, Position(2, 2), server2)
        pub2.request_quench()
        sim2.run_for(1.0)
        for f in [_typed(s) for s in SUBJECTS]:
            sub2.subscribe(f)
        sim2.run_for(1.0)
        assert server2.quench_pushes == 1 + len(SUBJECTS)

    def test_batch_applies_subscribes_then_unsubscribes(self):
        sim, network, server = _scene()
        sub = ElvinClient(sim, network, Position(1, 1), server)
        pub = ElvinClient(sim, network, Position(2, 2), server)
        old = _typed("news")
        sub.subscribe(old)
        sim.run_for(1.0)
        sub.subscribe_batch([_typed("traffic"), _typed("weather")], [old])
        sim.run_for(1.0)
        assert server.subscriptions[sub.addr] == [_typed("traffic"), _typed("weather")]
        pub.publish(make_event("news"))
        pub.publish(make_event("traffic"))
        sim.run_for(1.0)
        assert [sorted(n.items()) for _, n in sub.received] == [
            sorted(make_event("traffic").items())
        ]

    def test_fully_quenched_batch_sends_nothing(self):
        sim, network, server = _scene()
        sub = ElvinClient(sim, network, Position(1, 1), server)
        pub = ElvinClient(sim, network, Position(2, 2), server)
        pub.request_quench()
        sub.subscribe(_typed("news"))
        sim.run_for(1.0)
        pub.publish_batch([make_event("noise-a"), make_event("noise-b")])
        sim.run_for(1.0)
        assert pub.quenched == 2
        assert server.notifications_processed == 0

    def test_wire_batch_message_roundtrip(self):
        msg = ElvinSubscribeBatch((_typed("a"),), (_typed("b"),))
        assert msg.subscribes[0] == _typed("a")
        assert msg.unsubscribes[0] == _typed("b")


class _Tap(Host):
    """A bare host recording everything it is sent."""

    def __init__(self, sim, network):
        super().__init__(sim, network, Position(3, 3))
        self.heard = []

    def handle_message(self, src, payload):
        self.heard.append(payload)


class TestSharedWireVocabulary:
    """The server speaks ``repro.events.wire``, not a dialect of its own."""

    @pytest.mark.parametrize(
        "batched, burst, expect",
        [
            (False, False, [Notify]),
            (True, False, [Notify]),
            (False, True, [Notify, Notify]),
            (True, True, [NotifyBatch]),
        ],
    )
    def test_wire_types_leaving_the_server(self, batched, burst, expect):
        sim = Simulator(seed=7)
        network = Network(sim, latency=FixedLatency(0.01))
        server = ElvinServer(sim, network, Position(0, 0), batched=batched)
        tap = _Tap(sim, network)
        tap.send(server.addr, Subscribe(_typed("news")))
        sim.run_for(1.0)
        if burst:
            events = (make_event("news", n=1), make_event("noise"), make_event("news", n=2))
            tap.send(server.addr, PublishBatch(tuple((event, None) for event in events)))
        else:
            tap.send(server.addr, Publish(make_event("news")))
        sim.run_for(1.0)
        assert [type(payload) for payload in tap.heard] == expect
        assert server.notifications_processed == (3 if burst else 1)

    def test_client_publishes_untagged_shared_messages(self):
        sim, network, server = _scene()
        tap = _Tap(sim, network)
        client = ElvinClient(sim, network, Position(1, 1), tap)  # "server" is the tap
        client.subscribe(_typed("news"))
        client.publish(make_event("news"))
        client.publish_batch([make_event("news"), make_event("sport")])
        sim.run_for(1.0)
        subscribe, publish, batch = tap.heard
        assert [type(payload) for payload in tap.heard] == [Subscribe, Publish, PublishBatch]
        # One server, no redundant paths: nothing to stamp for dedup.
        assert publish.pub_id is None
        assert [pub_id for _, pub_id in batch.items] == [None, None]

    def test_unknown_payload_still_raises(self):
        _, _, server = _scene()
        with pytest.raises(TypeError, match="unknown elvin message"):
            server.handle_message(server.addr, Advertise(_typed("news")))
