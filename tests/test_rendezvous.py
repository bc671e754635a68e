"""Rendezvous routing (routing="dht"): keys, trees, re-rooting, teardown.

The equivalence suites already pin that dht mode delivers exactly like
flooding under churn; this module pins the mechanisms underneath —
stable key derivation (the hash contract every broker must agree on),
tree-based delivery, root re-election after a crash, the fast-built
fleet's O(log N) control state, and the Pastry-side teardown hygiene a
departed node must observe so keys re-root instead of pointing at a
ghost.
"""

import random

import pytest

from repro.events.broker import BrokerNode, SienaClient, build_dht_fleet
from repro.events.elvin import ElvinClient, ElvinServer
from repro.events.failure import HeartbeatConfig, install_detectors
from repro.events.filters import Constraint, Filter, Op
from repro.events.filters import pinned_subject
from repro.events.model import Notification, make_event
from repro.events.rendezvous import (
    WILDCARD_KEY,
    RvJoin,
    advert_key,
    canonical_subject,
    filter_key,
    publication_keys,
    signature_key,
    subject_key,
)
from repro.ids import guid_from_name
from repro.net import FixedLatency, Network, Position
from repro.overlay.api import OverlayApplication
from repro.events.sharding import ShardPlan
from repro.overlay.pastry import fast_build
from repro.simulation import Simulator
from tests.test_dedup_properties import random_filter

FAST = HeartbeatConfig(interval=0.25, miss_limit=3)


# ----------------------------------------------------------------------
# Key derivation: the contract every broker must compute identically
# ----------------------------------------------------------------------
class TestKeyDerivation:
    def test_numeric_family_collapses_int_and_float(self):
        # 1 == 1.0 in the matching fabric, so they must share a key.
        assert subject_key(1) == subject_key(1.0)
        assert canonical_subject(3) == canonical_subject(3.0)

    def test_bool_is_its_own_family(self):
        assert subject_key(True) != subject_key(1)
        assert subject_key(False) != subject_key(0)

    def test_string_never_collides_with_number(self):
        assert subject_key("1") != subject_key(1)

    def test_huge_int_beyond_float_range_is_stable(self):
        huge = 10**400
        assert subject_key(huge) == subject_key(huge)
        assert subject_key(huge) != subject_key(huge + 1)

    def test_typed_filter_joins_its_subject_tree(self):
        f = Filter(Constraint("type", Op.EQ, "presence"))
        assert filter_key(f) == subject_key("presence")

    def test_untyped_filter_joins_the_wildcard_tree(self):
        assert filter_key(Filter(Constraint("room", Op.EXISTS))) == WILDCARD_KEY
        # A type constraint that is not equality cannot pin a subject.
        assert (
            filter_key(Filter(Constraint("type", Op.PREFIX, "pre")))
            == WILDCARD_KEY
        )

    def test_signature_key_is_order_independent(self):
        a = Constraint("room", Op.EQ, "lab")
        b = Constraint("strength", Op.GT, 2.0)
        assert signature_key(Filter(a, b)) == signature_key(Filter(b, a))

    def test_advert_key_prefers_subject_falls_back_to_signature(self):
        typed = Filter(Constraint("type", Op.EQ, "rfid"))
        assert advert_key(typed) == subject_key("rfid")
        untyped = Filter(Constraint("room", Op.EQ, "lab"))
        assert advert_key(untyped) == signature_key(untyped)
        assert advert_key(untyped) != WILDCARD_KEY

    def test_publication_routes_to_subject_and_wildcard(self):
        typed = make_event("gps", n=1)
        assert publication_keys(typed) == (subject_key("gps"), WILDCARD_KEY)
        untyped = Notification({"n": 1})
        assert publication_keys(untyped) == (WILDCARD_KEY,)

    def test_keys_are_pure_functions_of_the_value(self):
        # "Across brokers" reduces to purity: the derivation reads no
        # per-broker state, so two computations are two brokers.
        assert subject_key("weather") == guid_from_name(
            "rv:subject:" + canonical_subject("weather")
        )

    # "The subject a filter pins" has one owner, filters.pinned_subject:
    # rendezvous keys, shard ownership and Elvin's quench snapshot must
    # all partition the filter population the same way.
    @pytest.mark.parametrize("seed", range(10))
    def test_wildcard_means_the_same_to_every_partitioner(self, seed):
        rng = random.Random(seed)
        plan = ShardPlan(5)
        for _ in range(60):
            f = random_filter(rng)
            wildcard = pinned_subject(f) is None
            assert (filter_key(f) == WILDCARD_KEY) == wildcard
            assert (plan.shard_of_filter(f) is None) == wildcard
            if not wildcard:
                assert advert_key(f) == filter_key(f)
                assert plan.shard_of_filter(f) == plan.owner(pinned_subject(f))

    def test_one_and_one_point_zero_agree_everywhere_true_stays_apart(self):
        plan = ShardPlan(64)  # enough shards that distinct subjects split
        one, float_one, true = (
            Filter(Constraint("type", Op.EQ, value)) for value in (1, 1.0, True)
        )
        assert pinned_subject(one) == pinned_subject(float_one) != pinned_subject(true)
        assert filter_key(one) == filter_key(float_one) != filter_key(true)
        assert advert_key(one) == advert_key(float_one) != advert_key(true)
        assert plan.shard_of_filter(one) == plan.shard_of_filter(float_one)
        assert plan.shard_of_filter(one) == plan.shard_of_event(make_event(1.0))
        assert plan.shard_of_filter(true) == plan.shard_of_event(make_event(True))

    @pytest.mark.parametrize("seed", range(5))
    def test_elvin_quench_snapshot_is_the_pinned_subjects(self, seed):
        rng = random.Random(seed)
        sim = Simulator(seed=seed)
        network = Network(sim, latency=FixedLatency(0.01))
        server = ElvinServer(sim, network, Position(0, 0))
        client = ElvinClient(sim, network, Position(1, 1), server)
        filters = [random_filter(rng) for _ in range(rng.randrange(1, 6))]
        for f in filters:
            client.subscribe(f)
        client.request_quench()
        sim.run_for(1.0)
        pinned = {pinned_subject(f) for f in filters}
        assert client.quench.types == pinned - {None}
        assert client.quench.any_wildcard == (None in pinned)


# ----------------------------------------------------------------------
# Shared world builders
# ----------------------------------------------------------------------
def make_world(n_brokers: int, detectors: bool = False):
    sim = Simulator(seed=3)
    network = Network(sim, latency=FixedLatency(0.01))
    brokers = [
        BrokerNode(
            sim,
            network,
            Position(1.0, float(i)),
            indexed=True,
            routing="dht",
        )
        for i in range(n_brokers)
    ]
    for i in range(1, n_brokers):
        brokers[i].connect(brokers[(i - 1) // 2])
    if detectors:
        install_detectors(brokers, FAST)
    sim.run_for(5.0)  # membership gossip converges
    return sim, network, brokers


def root_index(brokers, key):
    roots = [i for i, b in enumerate(brokers) if b.rv.is_root(key)]
    assert len(roots) == 1, roots  # a converged view elects exactly one
    return roots[0]


# ----------------------------------------------------------------------
# Tree delivery and re-rooting
# ----------------------------------------------------------------------
class TestRendezvousDelivery:
    def test_converged_component_agrees_on_one_root_per_key(self):
        _, _, brokers = make_world(7)
        for value in ("presence", "weather", 42, True):
            root_index(brokers, subject_key(value))
        root_index(brokers, WILDCARD_KEY)

    def test_typed_subscription_hears_typed_traffic(self):
        sim, network, brokers = make_world(6)
        sub = SienaClient(sim, network, Position(2.0, 0.0), brokers[5])
        pub = SienaClient(sim, network, Position(2.0, 1.0), brokers[3])
        sub.subscribe(Filter(Constraint("type", Op.EQ, "t")))
        sim.run_for(2.0)
        for n in range(3):
            pub.publish(make_event("t", n=n))
            sim.run_for(1.0)
        assert [n["n"] for _, n in sub.received] == [0, 1, 2]

    def test_wildcard_subscription_hears_typed_traffic(self):
        sim, network, brokers = make_world(6)
        sub = SienaClient(sim, network, Position(2.0, 0.0), brokers[4])
        pub = SienaClient(sim, network, Position(2.0, 1.0), brokers[2])
        sub.subscribe(Filter(Constraint("room", Op.EXISTS)))
        sim.run_for(2.0)
        pub.publish(make_event("t", room="lab"))
        sim.run_for(2.0)
        assert [n["room"] for _, n in sub.received] == ["lab"]

    def test_root_crash_re_roots_and_delivery_resumes(self):
        sim, network, brokers = make_world(8, detectors=True)
        key = subject_key("t")
        root = root_index(brokers, key)
        # Attach the clients away from the root so crashing it kills
        # neither endpoint.
        others = [i for i in range(len(brokers)) if i != root]
        sub = SienaClient(sim, network, Position(2.0, 0.0), brokers[others[0]])
        pub = SienaClient(sim, network, Position(2.0, 1.0), brokers[others[-1]])
        sub.subscribe(Filter(Constraint("type", Op.EQ, "t")))
        sim.run_for(2.0)
        pub.publish(make_event("t", n=0))
        sim.run_for(2.0)
        brokers[root].crash()
        sim.run_for(4.0)  # lazy eviction + refresh regraft the tree
        survivors = [b for i, b in enumerate(brokers) if i != root]
        assert root_index(survivors, key) is not None  # a new root exists
        pub.publish(make_event("t", n=1))
        sim.run_for(2.0)
        assert [n["n"] for _, n in sub.received] == [0, 1]

    def test_administrative_disconnect_detours_around_the_pair(self):
        sim, network, brokers = make_world(5)
        sub = SienaClient(sim, network, Position(2.0, 0.0), brokers[4])
        pub = SienaClient(sim, network, Position(2.0, 1.0), brokers[3])
        sub.subscribe(Filter(Constraint("type", Op.EQ, "t")))
        sim.run_for(2.0)
        brokers[1].disconnect(brokers[0])
        sim.run_for(2.0)
        pub.publish(make_event("t", n=7))
        sim.run_for(2.0)
        assert [n["n"] for _, n in sub.received] == [7]


class TestRvDispatch:
    """``Rv*`` messages reach the engine through the broker's one
    dispatch table — and only a dht broker's table holds them."""

    def test_flood_broker_refuses_rendezvous_messages(self):
        sim = Simulator(seed=3)
        network = Network(sim, latency=FixedLatency(0.01))
        broker = BrokerNode(sim, network, Position(1.0, 0.0))
        with pytest.raises(TypeError, match="unknown broker message"):
            broker.handle_message(broker.addr, RvJoin(WILDCARD_KEY, 1))

    def test_dht_broker_routes_a_join_toward_the_root(self):
        sim, _, brokers = make_world(5)
        key = subject_key("presence")
        root = root_index(brokers, key)
        entry = brokers[(root + 1) % len(brokers)]
        outsider = brokers[(root + 2) % len(brokers)].addr
        entry.handle_message(outsider, RvJoin(key, 1))
        assert outsider in entry.rv.trees[key]  # grafted where it entered
        sim.run_for(1.0)
        assert entry.addr in brokers[root].rv.trees[key]  # and on to the root


# ----------------------------------------------------------------------
# Fast-built fleet: the scale regime's control-state contract
# ----------------------------------------------------------------------
class TestDhtFleet:
    def test_fleet_delivers_and_keeps_sublinear_state(self):
        sim = Simulator(seed=9)
        network = Network(sim, latency=FixedLatency(0.01))
        brokers = build_dht_fleet(sim, network, 64)
        sub = SienaClient(sim, network, Position(2.0, 0.0), brokers[10])
        pub = SienaClient(sim, network, Position(2.0, 1.0), brokers[50])
        sub.subscribe(Filter(Constraint("type", Op.EQ, "t")))
        sim.run_for(2.0)
        for n in range(3):
            pub.publish(make_event("t", n=n))
            sim.run_for(1.0)
        assert [n["n"] for _, n in sub.received] == [0, 1, 2]
        # The directory regime is off: state is leaf + prefix entries
        # plus local interest and tree edges — far below fleet size.
        assert all(len(b.rv.directory) == 0 for b in brokers)
        assert max(b.control_state_size() for b in brokers) < len(brokers) // 2

    def test_fleet_agrees_on_roots(self):
        sim = Simulator(seed=9)
        network = Network(sim, latency=FixedLatency(0.01))
        brokers = build_dht_fleet(sim, network, 48)
        for value in ("a", "b", 3.5):
            root_index(brokers, subject_key(value))


# ----------------------------------------------------------------------
# Pastry teardown hygiene: a departed node must vanish everywhere
# ----------------------------------------------------------------------
class _Recorder(OverlayApplication):
    def __init__(self):
        self.delivered = []

    def on_deliver(self, key, payload, ctx):
        self.delivered.append((key, payload))


class TestPastryLeaveHygiene:
    def test_leave_unregisters_and_keys_re_root(self):
        sim = Simulator(seed=4)
        network = Network(sim, latency=FixedLatency(0.01))
        nodes = fast_build(sim, network, 24)
        recorders = {}
        for node in nodes:
            recorders[node.addr] = _Recorder()
            node.register_app("probe", recorders[node.addr])
        departing = nodes[7]
        key = departing.node_id  # its own id: certainly rooted at it
        nodes[0].route(key, "before", app="probe")
        sim.run_for(2.0)
        assert recorders[departing.addr].delivered, "probe must land at root"

        departing.leave()
        sim.run_for(5.0)
        # The host table forgets the node entirely — liveness probes see
        # it gone, not merely dead.
        assert network.host(departing.addr) is None
        # No survivor retains the departed node in leaf set or table.
        for node in nodes:
            if node is departing:
                continue
            held = set(node.leaf_set.members()) | set(node.routing_table)
            assert all(d.addr != departing.addr for d in held)
        # The key re-roots at the numerically closest survivor.
        survivors = [n for n in nodes if n is not departing]
        expected = min(
            survivors,
            key=lambda n: (key.ring_distance(n.node_id), n.node_id.value),
        )
        nodes[0].route(key, "after", app="probe")
        sim.run_for(2.0)
        assert ("after" in [p for _, p in recorders[expected.addr].delivered])
        assert all(
            p != "after"
            for _, p in recorders[departing.addr].delivered
        )

    def test_leave_stops_the_maintenance_task(self):
        sim = Simulator(seed=4)
        network = Network(sim, latency=FixedLatency(0.01))
        nodes = fast_build(sim, network, 8)
        nodes[3].leave()
        # Several maintenance periods after departure: the stopped timer
        # must neither fire nor resurrect the unregistered address.
        sim.run_for(60.0)
        assert network.host(nodes[3].addr) is None
