"""Pastry-style deterministic prefix routing over the simulated network.

Implements the Plaxton-derived scheme the paper's storage layer assumes
(§3, §4.5): 128-bit node ids, a prefix routing table, a leaf set, message
driven join, and leaf-set maintenance under churn.  Routing resolves any key
to the live node whose id is numerically closest — deterministically, which
is the property experiment E5 contrasts with the Freenet baseline.

Failure detection at the *routing* level uses local liveness checks against
the simulated network registry (a perfect failure detector), a standard
simulation idealisation; end-to-end failure *recovery* (re-replication,
constraint repair) is measured at the application layer where the paper
locates it (§4.4, §4.6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.ids import Guid, random_guid
from repro.net.geo import WORLD_REGIONS, Position
from repro.net.host import Host
from repro.net.network import Address, Network
from repro.overlay.api import NodeDescriptor, OverlayApplication, RouteContext
from repro.overlay.node_state import LeafSet, RoutingTable, fill_converged
from repro.simulation import PeriodicTask, Simulator


# ----------------------------------------------------------------------
# Wire messages
# ----------------------------------------------------------------------
@dataclass
class RouteMsg:
    key: Guid
    app: str
    payload: Any
    source: Address
    hops: int = 0
    path: list = field(default_factory=list)
    size_bytes: int = 256
    # Every node a message passes learns the originator, which keeps
    # routing tables populated as traffic flows (Pastry's passive repair).
    origin: "NodeDescriptor | None" = None


@dataclass
class MaintProbe:
    """Active routing-table repair: probe a random key, learn the root."""

    origin: NodeDescriptor


@dataclass
class JoinRequest:
    joiner: NodeDescriptor
    hops: int = 0


@dataclass
class StateSnapshot:
    sender: NodeDescriptor
    table_entries: list
    leaf_entries: list
    is_root: bool


@dataclass
class Announce:
    descriptor: NodeDescriptor


@dataclass
class Leave:
    guid: Guid


@dataclass
class LeafSetRequest:
    requester: NodeDescriptor


@dataclass
class LeafSetReply:
    members: list


@dataclass
class AppDirect:
    """Point-to-point envelope delivered to a named application."""

    app: str
    payload: Any
    size_bytes: int = 256


class PastryNode(Host):
    """One overlay node: routing state + application registry."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        position: Position,
        node_id: Guid | None = None,
        leaf_size: int = 8,
        maintenance_interval: float = 30.0,
    ):
        super().__init__(sim, network, position)
        self.node_id = node_id if node_id is not None else random_guid(sim.rng_for(f"nodeid-{self.addr}"))
        self.descriptor = NodeDescriptor(self.node_id, self.addr, position)
        self.routing_table = RoutingTable(self.descriptor)
        self.leaf_set = LeafSet(self.descriptor, size=leaf_size)
        self.apps: dict[str, OverlayApplication] = {}
        self.joined = False
        self.on_joined: list[Callable[[PastryNode], None]] = []
        self.routes_delivered = 0
        self.routes_forwarded = 0
        self._maint_rng = sim.rng_for(f"maint-{self.addr}")
        self._maintenance = PeriodicTask(
            sim,
            maintenance_interval,
            self._maintain,
            jitter=0.2,
            rng=self._maint_rng,
        )

    # ------------------------------------------------------------------
    # Applications
    # ------------------------------------------------------------------
    def register_app(self, name: str, app: OverlayApplication) -> None:
        if name in self.apps:
            raise ValueError(f"app already registered: {name}")
        self.apps[name] = app

    # ------------------------------------------------------------------
    # Liveness oracle + state hygiene
    # ------------------------------------------------------------------
    def _is_live(self, descriptor: NodeDescriptor) -> bool:
        host = self.network.host(descriptor.addr)
        return host is not None and host.alive

    def _evict(self, descriptor: NodeDescriptor) -> None:
        self.routing_table.remove(descriptor.guid)
        if self.leaf_set.remove(descriptor.guid):
            for app in self.apps.values():
                app.on_neighbour_change(False, descriptor)

    def _learn(self, descriptor: NodeDescriptor) -> None:
        if descriptor.guid == self.node_id or not self._is_live(descriptor):
            return
        self.routing_table.add(descriptor)
        if self.leaf_set.add(descriptor):
            for app in self.apps.values():
                app.on_neighbour_change(True, descriptor)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, key: Guid, payload: Any, app: str, size_bytes: int = 256) -> None:
        """Originate a message keyed on ``key`` for application ``app``."""
        msg = RouteMsg(
            key, app, payload, self.addr, size_bytes=size_bytes, origin=self.descriptor
        )
        self._process_route(msg)

    def _next_hop(self, key: Guid) -> NodeDescriptor | None:
        """Pastry's routing decision: leaf set, then prefix table, then rare case."""
        if self.leaf_set.covers(key):
            best = self.leaf_set.closest(key)
            while best.guid != self.node_id and not self._is_live(best):
                self._evict(best)
                best = self.leaf_set.closest(key)
            return None if best.guid == self.node_id else best
        shared = self.node_id.shared_prefix_len(key)
        entry = self.routing_table.entry(shared, key.digit(shared))
        if entry is not None:
            if self._is_live(entry):
                return entry
            self._evict(entry)
        # Rare case: any known node sharing >= `shared` digits and strictly
        # closer to the key than we are.
        own_distance = self.node_id.ring_distance(key)
        best: NodeDescriptor | None = None
        best_key = (own_distance, self.node_id.value)
        for candidate in list(self.routing_table) + self.leaf_set.members():
            if candidate.guid.shared_prefix_len(key) < shared:
                continue
            cand_key = (candidate.guid.ring_distance(key), candidate.guid.value)
            if cand_key < best_key and self._is_live(candidate):
                best = candidate
                best_key = cand_key
        return best

    def _process_route(self, msg: RouteMsg) -> None:
        msg.path.append(self.addr)
        if msg.origin is not None and msg.origin.guid != self.node_id:
            self._learn(msg.origin)
        if msg.app == "__maint__":
            self._process_maint_route(msg)
            return
        app = self.apps.get(msg.app)
        ctx = RouteContext(msg.key, msg.source, msg.hops, msg.path)
        if app is not None:
            replacement = app.on_forward(msg.key, msg.payload, ctx)
            if replacement is None:
                return
            msg.payload = replacement
        nxt = self._next_hop(msg.key)
        if nxt is None:
            self.routes_delivered += 1
            if app is not None:
                app.on_deliver(msg.key, msg.payload, ctx)
            return
        self.routes_forwarded += 1
        msg.hops += 1
        self.send(nxt.addr, msg, size_bytes=msg.size_bytes)

    # ------------------------------------------------------------------
    # Join / leave
    # ------------------------------------------------------------------
    def join(self, bootstrap: Address | None) -> None:
        """Join via ``bootstrap``; None bootstraps a brand-new overlay."""
        if bootstrap is None:
            self.joined = True
            for hook in self.on_joined:
                hook(self)
            return
        self.send(bootstrap, JoinRequest(self.descriptor))

    def _handle_join(self, msg: JoinRequest) -> None:
        """Forward the join toward the joiner's id, streaming state back."""
        nxt = self._next_hop(msg.joiner.guid)
        snapshot = StateSnapshot(
            sender=self.descriptor,
            table_entries=list(self.routing_table),
            leaf_entries=self.leaf_set.members(),
            is_root=nxt is None,
        )
        self.send(msg.joiner.addr, snapshot, size_bytes=2048)
        self._learn(msg.joiner)
        if nxt is not None:
            msg.hops += 1
            self.send(nxt.addr, msg)

    def _handle_snapshot(self, msg: StateSnapshot) -> None:
        self._learn(msg.sender)
        for descriptor in msg.table_entries + msg.leaf_entries:
            self._learn(descriptor)
        if msg.is_root and not self.joined:
            self.joined = True
            announcement = Announce(self.descriptor)
            for descriptor in set(list(self.routing_table) + self.leaf_set.members()):
                self.send(descriptor.addr, announcement)
            for hook in self.on_joined:
                hook(self)

    def leave(self) -> None:
        """Graceful departure: tell everyone we know, then go dark (§4.4).

        The teardown also purges the node from the network's host table
        (so liveness probes see it gone, not merely dead) and stops the
        maintenance timer — a departed node must not linger as a
        routable entry anywhere, or keys whose root it was would never
        re-root.
        """
        notice = Leave(self.node_id)
        for descriptor in set(list(self.routing_table) + self.leaf_set.members()):
            self.send(descriptor.addr, notice)
        self._maintenance.stop()
        self.crash()
        self.network.unregister(self.addr)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _process_maint_route(self, msg: RouteMsg) -> None:
        """Route a maintenance probe; the root answers with its state."""
        nxt = self._next_hop(msg.key)
        if nxt is None:
            probe: MaintProbe = msg.payload
            if probe.origin.guid != self.node_id:
                self.send(
                    probe.origin.addr,
                    StateSnapshot(
                        sender=self.descriptor,
                        table_entries=list(self.routing_table),
                        leaf_entries=self.leaf_set.members(),
                        is_root=False,
                    ),
                    size_bytes=2048,
                )
            return
        msg.hops += 1
        self.send(nxt.addr, msg, size_bytes=msg.size_bytes)

    def _maintain(self) -> None:
        if not self.alive:
            return
        for member in self.leaf_set.members():
            if not self._is_live(member):
                self._evict(member)
        if not self.leaf_set.is_saturated():
            for extreme in self.leaf_set.extremes():
                self.send(extreme.addr, LeafSetRequest(self.descriptor))
        # Active routing-table repair: probe a random key; everyone on the
        # path learns us, and the key's root sends its state back.
        probe_key = random_guid(self._maint_rng)
        self.route(probe_key, MaintProbe(self.descriptor), "__maint__", size_bytes=64)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def send_to_app(self, dst: Address, app: str, payload: Any, size_bytes: int = 256) -> bool:
        """Send a point-to-point message to application ``app`` at ``dst``."""
        return self.send(dst, AppDirect(app, payload, size_bytes), size_bytes=size_bytes)

    def handle_message(self, src: Address, payload: Any) -> None:
        if isinstance(payload, AppDirect):
            app = self.apps.get(payload.app)
            if app is not None:
                app.on_direct(src, payload.payload)
        elif isinstance(payload, RouteMsg):
            self._process_route(payload)
        elif isinstance(payload, JoinRequest):
            self._handle_join(payload)
        elif isinstance(payload, StateSnapshot):
            self._handle_snapshot(payload)
        elif isinstance(payload, Announce):
            self._learn(payload.descriptor)
        elif isinstance(payload, Leave):
            descriptor = None
            for candidate in list(self.routing_table) + self.leaf_set.members():
                if candidate.guid == payload.guid:
                    descriptor = candidate
                    break
            if descriptor is not None:
                self._evict(descriptor)
        elif isinstance(payload, LeafSetRequest):
            self._learn(payload.requester)
            self.send(src, LeafSetReply(self.leaf_set.members() + [self.descriptor]))
        elif isinstance(payload, LeafSetReply):
            for descriptor in payload.members:
                self._learn(descriptor)
        else:
            raise TypeError(f"unknown overlay message: {payload!r}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PastryNode {self.node_id.hex[:8]}.. addr={self.addr!r}>"


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def build_overlay(
    sim: Simulator,
    network: Network,
    count: int,
    leaf_size: int = 8,
    join_spacing: float = 0.5,
) -> list[PastryNode]:
    """Build an overlay through the real join protocol, one node at a time."""
    rng = sim.rng_for("overlay-build")
    nodes: list[PastryNode] = []
    for i in range(count):
        region = WORLD_REGIONS[i % len(WORLD_REGIONS)]
        node = PastryNode(sim, network, region.random_position(rng), leaf_size=leaf_size)
        bootstrap = nodes[rng.randrange(len(nodes))].addr if nodes else None
        sim.schedule(i * join_spacing, node.join, bootstrap)
        nodes.append(node)
    sim.run(until=sim.now + count * join_spacing + 60.0)
    return nodes


def fast_build(sim: Simulator, network: Network, count: int) -> list[PastryNode]:
    """Construct a converged overlay from global knowledge.

    Produces the same routing state the join protocol converges to (tests
    validate the equivalence on small networks) at O(N log N) cost
    (:func:`~repro.overlay.node_state.fill_converged`), so the
    large-population benchmarks don't spend their budget on joins.
    """
    rng = sim.rng_for("overlay-fast-build")
    nodes: list[PastryNode] = []
    for i in range(count):
        region = WORLD_REGIONS[i % len(WORLD_REGIONS)]
        node = PastryNode(sim, network, region.random_position(rng))
        node.joined = True
        nodes.append(node)
    fill_converged([(node.leaf_set, node.routing_table) for node in nodes])
    return nodes
