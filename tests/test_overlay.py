"""Tests for Pastry routing: delivery at the key's root, joins, churn."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ids import GUID_BITS, Guid, random_guid
from repro.net import FixedLatency, Network, Position
from repro.overlay import (
    NodeDescriptor,
    OverlayApplication,
    PastryNode,
    build_overlay,
    fast_build,
)
from repro.events.broker import build_dht_fleet
from repro.overlay.node_state import LeafSet, RoutingTable
from repro.overlay.node_state import CONVERGED_PREFIX_ROWS, fill_converged
from repro.simulation import Simulator


class CollectorApp(OverlayApplication):
    def __init__(self):
        self.delivered = []

    def on_deliver(self, key, payload, ctx):
        self.delivered.append((key, payload, ctx))


def expected_root(nodes, key):
    """Ground truth: the live node numerically closest to the key."""
    live = [n for n in nodes if n.alive]
    return min(live, key=lambda n: (key.ring_distance(n.node_id), n.node_id.value))


def make_overlay(count, seed=0):
    sim = Simulator(seed=seed)
    network = Network(sim, latency=FixedLatency(0.01))
    nodes = fast_build(sim, network, count)
    apps = {}
    for node in nodes:
        app = CollectorApp()
        node.register_app("test", app)
        apps[node.addr] = app
    return sim, network, nodes, apps


class TestRoutingState:
    def test_routing_table_slot_assignment(self):
        owner = NodeDescriptor(Guid.from_hex("a" * 32), 0, Position(0, 0))
        table = RoutingTable(owner)
        other = NodeDescriptor(Guid.from_hex("ab" + "c" * 30), 1, Position(1, 1))
        assert table.add(other)
        assert table.entry(1, 0xB) == other

    def test_routing_table_rejects_self(self):
        owner = NodeDescriptor(Guid.from_hex("a" * 32), 0, Position(0, 0))
        table = RoutingTable(owner)
        assert not table.add(owner)

    def test_routing_table_prefers_closer_node(self):
        owner = NodeDescriptor(Guid.from_hex("a" * 32), 0, Position(0, 0))
        table = RoutingTable(owner)
        far = NodeDescriptor(Guid.from_hex("b" + "0" * 31), 1, Position(40, 40))
        near = NodeDescriptor(Guid.from_hex("b" + "1" * 31), 2, Position(1, 1))
        table.add(far)
        assert table.add(near)
        assert table.entry(0, 0xB) == near

    def test_routing_table_remove(self):
        owner = NodeDescriptor(Guid.from_hex("a" * 32), 0, Position(0, 0))
        table = RoutingTable(owner)
        other = NodeDescriptor(Guid.from_hex("b" + "0" * 31), 1, Position(1, 1))
        table.add(other)
        table.remove(other.guid)
        assert table.entry(0, 0xB) is None
        assert len(table) == 0

    def test_leaf_set_keeps_closest_per_side(self):
        owner = NodeDescriptor(Guid(1000), 0, Position(0, 0))
        leaf = LeafSet(owner, size=4)
        for value in [1001, 1002, 1003, 999, 998, 997]:
            leaf.add(NodeDescriptor(Guid(value), value, Position(0, 0)))
        kept = {d.guid.value for d in leaf.members()}
        assert kept == {1001, 1002, 999, 998}

    def test_leaf_set_closest_agrees_with_ring_distance(self):
        owner = NodeDescriptor(Guid(1000), 0, Position(0, 0))
        leaf = LeafSet(owner, size=4)
        for value in [900, 950, 1100, 1200]:
            leaf.add(NodeDescriptor(Guid(value), value, Position(0, 0)))
        assert leaf.closest(Guid(1095)).guid.value == 1100
        assert leaf.closest(Guid(1001)).guid.value == 1000  # owner wins

    def test_leaf_set_covers_small_network(self):
        owner = NodeDescriptor(Guid(1000), 0, Position(0, 0))
        leaf = LeafSet(owner, size=8)
        leaf.add(NodeDescriptor(Guid(2000), 1, Position(0, 0)))
        assert leaf.covers(Guid(999999))  # not saturated -> covers all

    def test_leaf_set_closest_k_ordering(self):
        owner = NodeDescriptor(Guid(1000), 0, Position(0, 0))
        leaf = LeafSet(owner, size=4)
        for value in [990, 995, 1005, 1010]:
            leaf.add(NodeDescriptor(Guid(value), value, Position(0, 0)))
        closest = leaf.closest_k(Guid(1004), 3)
        assert [d.guid.value for d in closest] == [1005, 1000, 1010]

    @given(st.lists(st.integers(0, (1 << GUID_BITS) - 1), min_size=1, max_size=30, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_leaf_set_never_exceeds_size(self, values):
        owner = NodeDescriptor(Guid(0), 0, Position(0, 0))
        leaf = LeafSet(owner, size=8)
        for value in values:
            if value != 0:
                leaf.add(NodeDescriptor(Guid(value), value, Position(0, 0)))
        assert len(leaf) <= 8


class TestFillConverged:
    """The one ring fill behind ``fast_build`` and ``build_dht_fleet``."""

    @staticmethod
    def synthetic(count, seed=0):
        rng = Simulator(seed=seed).rng_for("synthetic")
        descriptors = [
            NodeDescriptor(random_guid(rng), addr, Position(rng.uniform(-60, 60), rng.uniform(-170, 170)))
            for addr in range(count)
        ]
        states = [(LeafSet(d), RoutingTable(d)) for d in descriptors]
        fill_converged(states)
        return descriptors, states

    @pytest.mark.parametrize("count", [1, 2, 5, 9, 80])
    def test_every_leaf_set_is_the_ring_neighbourhood(self, count):
        descriptors, states = self.synthetic(count)
        ring = sorted(descriptors, key=lambda d: d.guid.value)
        for leaf, _ in states:
            at = ring.index(leaf.owner)
            reach = min(leaf.size // 2, count - 1)
            expect = {
                ring[(at + step) % count].guid
                for offset in range(1, reach + 1)
                for step in (offset, -offset)
            }
            assert {d.guid for d in leaf.members()} == expect

    def test_every_prefix_slot_shares_its_rows_prefix(self):
        descriptors, states = self.synthetic(80)
        filled = 0
        for _, table in states:
            owner = table.owner
            for row in range(len(owner.guid.hex)):
                for col, entry in table.row(row).items():
                    assert row < CONVERGED_PREFIX_ROWS
                    assert owner.guid.shared_prefix_len(entry.guid) == row
                    assert entry.guid.digit(row) == col != owner.guid.digit(row)
                    # Pastry's proximity heuristic: the closest node of the
                    # bucket (80 nodes never overfill one past the cap).
                    bucket = [
                        d for d in descriptors
                        if d.guid.hex.startswith(owner.guid.hex[:row] + f"{col:x}")
                    ]
                    assert entry == min(bucket, key=lambda d: owner.position.distance_km(d.position))
                    filled += 1
            # ... and no reachable bucket of the first row is left empty.
            first_digits = {d.guid.digit(0) for d in descriptors} - {owner.guid.digit(0)}
            assert set(table.row(0)) == first_digits
        assert filled

    @pytest.mark.parametrize("count", [3, 24, 70])
    def test_both_fast_built_fleets_agree_on_one_root_per_key(self, count):
        def walk(start, step):
            """Follow ``step`` (addr -> next addr or None) to the root."""
            addr, hops = start, 0
            while (nxt := step(addr)) is not None:
                addr, hops = nxt, hops + 1
                assert hops <= count
            return addr

        sim = Simulator(seed=5)
        network = Network(sim, latency=FixedLatency(0.01))
        nodes = {n.addr: n for n in fast_build(sim, network, count)}
        brokers = {b.addr: b for b in build_dht_fleet(sim, network, count)}
        rng = sim.rng_for("keys")
        for _ in range(10):
            key = random_guid(rng)

            def pastry_step(addr):
                hop = nodes[addr]._next_hop(key)
                return None if hop is None else hop.addr

            root = expected_root(list(nodes.values()), key)
            assert {walk(addr, pastry_step) for addr in nodes} == {root.addr}
            closest = min(
                brokers.values(),
                key=lambda b: (key.ring_distance(b.rv.guid), b.rv.guid.value),
            )
            assert {
                walk(addr, lambda a: brokers[a].rv.next_hop(key)) for addr in brokers
            } == {closest.addr}


class TestFastBuildRouting:
    @pytest.mark.parametrize("count", [4, 16, 50])
    def test_delivers_at_numerically_closest_node(self, count):
        sim, network, nodes, apps = make_overlay(count)
        rng = sim.rng_for("keys")
        for _ in range(20):
            key = random_guid(rng)
            origin = nodes[rng.randrange(len(nodes))]
            origin.route(key, "probe", "test")
            sim.run_for(30.0)
            root = expected_root(nodes, key)
            assert apps[root.addr].delivered, f"no delivery for {key!r}"
            delivered_key, payload, ctx = apps[root.addr].delivered.pop()
            assert delivered_key == key
            assert payload == "probe"

    def test_path_records_route(self):
        sim, network, nodes, apps = make_overlay(32)
        key = random_guid(sim.rng_for("k"))
        origin = nodes[0]
        origin.route(key, "p", "test")
        sim.run_for(30.0)
        root = expected_root(nodes, key)
        _, _, ctx = apps[root.addr].delivered[0]
        assert ctx.path[0] == origin.addr
        assert ctx.path[-1] == root.addr
        assert ctx.hops == len(ctx.path) - 1

    def test_route_hops_scale_logarithmically(self):
        sim, network, nodes, apps = make_overlay(128)
        rng = sim.rng_for("keys")
        hops = []
        for _ in range(30):
            key = random_guid(rng)
            nodes[rng.randrange(len(nodes))].route(key, "x", "test")
            sim.run_for(30.0)
            root = expected_root(nodes, key)
            if apps[root.addr].delivered:
                _, _, ctx = apps[root.addr].delivered.pop()
                hops.append(ctx.hops)
        assert hops
        # log16(128) ~ 1.75; allow generous headroom but far below N.
        assert sum(hops) / len(hops) < 6

    def test_routing_skips_dead_nodes(self):
        sim, network, nodes, apps = make_overlay(30)
        rng = sim.rng_for("keys")
        key = random_guid(rng)
        true_root = expected_root(nodes, key)
        true_root.crash()
        origin = next(n for n in nodes if n.alive)
        origin.route(key, "failover", "test")
        sim.run_for(30.0)
        new_root = expected_root(nodes, key)
        assert apps[new_root.addr].delivered


class TestJoinProtocol:
    def test_join_converges_to_fast_build_roots(self):
        sim = Simulator(seed=42)
        network = Network(sim, latency=FixedLatency(0.01))
        nodes = build_overlay(sim, network, 12)
        assert all(node.joined for node in nodes)
        apps = {}
        for node in nodes:
            app = CollectorApp()
            node.register_app("test", app)
            apps[node.addr] = app
        rng = sim.rng_for("probe")
        for _ in range(15):
            key = random_guid(rng)
            nodes[rng.randrange(len(nodes))].route(key, "j", "test")
            sim.run_for(30.0)
            root = expected_root(nodes, key)
            assert apps[root.addr].delivered
            apps[root.addr].delivered.clear()

    def test_single_node_overlay_delivers_to_self(self):
        sim = Simulator()
        network = Network(sim, latency=FixedLatency(0.01))
        node = PastryNode(sim, network, Position(0, 0))
        node.join(None)
        app = CollectorApp()
        node.register_app("test", app)
        key = random_guid(sim.rng_for("k"))
        node.route(key, "solo", "test")
        sim.run_for(30.0)
        assert app.delivered

    def test_graceful_leave_removes_from_peers(self):
        sim = Simulator(seed=7)
        network = Network(sim, latency=FixedLatency(0.01))
        nodes = build_overlay(sim, network, 8)
        leaver = nodes[3]
        leaver.leave()
        sim.run_for(5.0)
        for node in nodes:
            if node is leaver or not node.alive:
                continue
            assert leaver.node_id not in node.leaf_set
            assert all(d.guid != leaver.node_id for d in node.routing_table)

    def test_maintenance_repairs_leaf_set_after_crash(self):
        sim = Simulator(seed=9)
        network = Network(sim, latency=FixedLatency(0.01))
        nodes = fast_build(sim, network, 20)
        victim = nodes[5]
        victim.crash()
        sim.run_for(120.0)  # several maintenance rounds
        for node in nodes:
            if node.alive:
                assert victim.node_id not in node.leaf_set
