"""Scribe-style rendezvous routing for the broker fabric (routing="dht").

Flooding keeps O(global filters) control state on every broker, which
caps overlay size.  This module gives :class:`~repro.events.broker.
BrokerNode` a third routing mode built on the seed's Pastry machinery
(:mod:`repro.overlay.node_state`): every event subject — and every
filter signature — hashes to a 128-bit key, the key's numerically
closest broker is that key's *rendezvous root*, and a per-key multicast
tree rooted there carries the traffic.  A broker's control state is its
Pastry routing state (leaf set + prefix table, O(log N)) plus its local
interest and the tree edges passing through it — never the global
filter population.

Key derivation (the contract the dedup property suite pins):

* a subscription whose filter constrains ``type`` with equality joins
  the *subject key* of that type value; every other filter joins the
  shared *wildcard key* (nothing can be excluded for it, so its tree is
  the conservative catch-all);
* a publication routes to its subject key (when it carries a ``type``
  attribute) **and** to the wildcard key, so wildcard subscribers see
  typed traffic too;
* which subject a filter pins, and its canonical family-first form
  (bool / numeric / string, so ``1 == 1.0`` hashes identically while
  ``True`` never collides with ``1`` — exactly the equality the
  matching fabric applies), are :func:`repro.events.filters.
  pinned_subject` and :func:`~repro.events.filters.canonical_subject`:
  shard ownership and Elvin's quench partition by the same two
  functions, this module only hashes their result to a key;
* advertisements route to the subject key, falling back to the filter
  *signature* key for untyped shapes, and are stored at the root as a
  discovery registry.

Delivery correctness does not depend on tree precision: every broker a
publication touches runs it through the ordinary local routing step
(``BrokerNode._route``), whose per-origin dedup
(:class:`~repro.events.failure.OriginFloorCache`) makes redundant
copies — type-key/wildcard-key overlap, stale tree edges during churn,
detour routes around failed links — collapse to exactly-once per
client.

Membership has two regimes:

* **Dynamically assembled fleets** (the equivalence suites): overlay
  links double as a gossip graph.  Each ``connect()`` exchanges
  ``RvHello`` membership snapshots, and genuinely new descriptors are
  flooded as ``RvAnnounce`` epidemics (scoped by per-origin sequence
  numbers), so a connected component converges to a shared ring view
  and components stay mutually invisible until a link merges them —
  matching flooding's no-cross-component delivery.  The ``directory``
  bookkeeping behind this is O(component) and is what keeps snapshot
  exchange lossless at test scale.
* **Fleet scale** (bench_e5's scale phase): ``build_dht_fleet`` in
  :mod:`repro.events.broker` pre-populates leaf sets and prefix tables
  from global knowledge (:func:`repro.overlay.node_state.
  fill_converged`) — the converged state Pastry's join protocol
  maintains with O(log N) entries — and the directory stays empty, so
  the measured per-broker state is the honest Pastry footprint.

Repair composes with the failure detector: a declared-dead neighbour is
evicted from the ring view when its host really died, or marked
*unreachable* (route around the pair, keep the ring view) when only the
link failed; either way every local interest re-grafts immediately and
again on the periodic refresh, and stale tree children age out — the
leaf-set-repair-as-heal-path the roadmap asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.events.failure import OriginFloorCache
from repro.events.filters import Filter, _signature, canonical_subject, pinned_subject
from repro.ids import Guid, guid_from_name
from repro.net.network import Address
from repro.overlay.api import NodeDescriptor
from repro.overlay.node_state import LeafSet, RoutingTable
from repro.simulation import PeriodicTask

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.events.broker import BrokerNode
    from repro.events.model import Notification

# A routed message that crosses more hops than this is dropped: greedy
# routing on consistent views strictly shrinks ring distance every hop,
# so the limit only ever fires while detour routing around failed links
# runs on inconsistent views.
RV_HOP_LIMIT = 32

# Soft-state refresh period (seconds): paces tree re-join and advert
# re-registration.  Lower heals partitions and crashed roots faster,
# higher cuts steady-state control traffic.  A tree child not re-joined
# within CHILD_TTL has left.
REFRESH_INTERVAL = 1.0
CHILD_TTL = 3.5 * REFRESH_INTERVAL


# ----------------------------------------------------------------------
# Key derivation
# ----------------------------------------------------------------------
_subject_key_cache: dict[str, Guid] = {}


def _canon_key(canon: str) -> Guid:
    """The rendezvous key of one canonical subject string."""
    key = _subject_key_cache.get(canon)
    if key is None:
        key = guid_from_name(f"rv:subject:{canon}")
        _subject_key_cache[canon] = key
    return key


def subject_key(value: Any) -> Guid:
    """The rendezvous key of one event subject (``type`` value)."""
    return _canon_key(canonical_subject(value))


WILDCARD_KEY = guid_from_name("rv:wildcard")


def filter_key(filter: Filter) -> Guid:
    """The key a subscription with this filter joins: the tree of the
    subject it pins, or the wildcard tree when it pins none."""
    canon = pinned_subject(filter)
    return WILDCARD_KEY if canon is None else _canon_key(canon)


def signature_key(filter: Filter) -> Guid:
    """A stable key derived from the filter's full signature.

    Used for untyped advertisements: brokers registering the same shape
    must land on the same discovery root, so the key is built from the
    canonicalised, order-independent constraint signature.
    """
    parts = sorted(
        f"{name}|{op.name}|{canonical_subject(value)}"
        for name, op, _tag, value in _signature(filter)
    )
    return guid_from_name("rv:sig:" + ";".join(parts))


def advert_key(filter: Filter) -> Guid:
    """The discovery root for one advertised filter."""
    canon = pinned_subject(filter)
    return signature_key(filter) if canon is None else _canon_key(canon)


def publication_keys(notification: "Notification") -> tuple[Guid, ...]:
    """Every key a publication must reach: its subject plus the wildcard."""
    if "type" in notification:
        return (subject_key(notification["type"]), WILDCARD_KEY)
    return (WILDCARD_KEY,)


# ----------------------------------------------------------------------
# Wire messages
# ----------------------------------------------------------------------
@dataclass(slots=True)
class RvHello:
    """Full membership snapshot pushed over a new/restored overlay link."""

    descriptors: tuple


@dataclass(slots=True)
class RvAnnounce:
    """Membership epidemic: descriptors flooded over overlay links.

    Scoped by ``(origin, seq)``: each broker forwards a given origin's
    announces at most once per sequence number, so the flood terminates
    after one traversal of the component.
    """

    descriptors: tuple
    origin: Address
    seq: int


@dataclass(slots=True)
class RvJoin:
    """Graft toward a key's root; every hop records the sender as a
    tree child for the key.  Joins run end to end on every refresh, so
    the timestamps double as the tree's liveness signal."""

    key: Guid
    hops: int = 0


@dataclass(slots=True)
class RvPublish:
    """A publication routed toward its key's rendezvous root."""

    key: Guid
    notification: Any
    pub_id: tuple
    hops: int = 0


@dataclass(slots=True)
class RvMulticast:
    """A publication flowing down one key's multicast tree."""

    key: Guid
    notification: Any
    pub_id: tuple
    hops: int = 0


@dataclass(slots=True)
class RvAdvertise:
    """Register an advertised filter at its discovery root."""

    key: Guid
    advertiser: Address
    filter: Filter
    hops: int = 0


@dataclass(slots=True)
class RvUnadvertise:
    key: Guid
    advertiser: Address
    filter: Filter
    hops: int = 0


class RendezvousEngine:
    """Per-broker rendezvous state machine (one per ``routing="dht"`` broker).

    Owns the broker's Pastry view (leaf set + prefix routing table +
    membership directory), its per-key multicast tree state, and the
    soft-state refresh loop that keeps both alive under churn.  The
    owning :class:`~repro.events.broker.BrokerNode` delegates here
    instead of flooding: subscriptions join their subject key's tree,
    advertisements register at the key's root, publications route
    point-to-point toward the root and fan down the tree.  Inbound
    ``Rv*`` messages arrive through the broker's own dispatch table,
    which takes :meth:`handlers` at construction.

    The flooding ablation is simply ``routing="flood"`` on the broker;
    E5's ``dht_scale`` phase prices the two against each other.
    """

    def __init__(self, broker: "BrokerNode"):
        self.broker = broker
        self.sim = broker.sim
        self.network = broker.network
        self.guid = guid_from_name(f"rv:node:{int(broker.addr)}")
        self.descriptor = NodeDescriptor(self.guid, broker.addr, broker.position)
        self.leaf = LeafSet(self.descriptor)
        self.table = RoutingTable(self.descriptor)
        # Every live member of our component, keyed by address — the
        # lossless bookkeeping behind snapshot exchange.  Empty on
        # fast-built fleets (see the module docstring's two regimes).
        self.directory: dict[Address, NodeDescriptor] = {}
        # Live peers whose *direct link* to us failed (detector-declared
        # dead but the host answers): route around them, keep them in
        # the ring view so root determination stays globally consistent.
        self.unreachable: set[Address] = set()
        # Local interest: key -> count of local client subscriptions.
        self.local_keys: dict[Guid, int] = {}
        # Locally advertised shapes, re-registered on every refresh.
        self.local_adverts: dict[tuple[Address, Filter], Guid] = {}
        # Tree state per key, held as root or forwarder: the children
        # recorded from join paths, child addr -> last join time.
        self.trees: dict[Guid, dict[Address, float]] = {}
        # Advert registry held while we are a key's root.
        self.root_adverts: dict[Guid, set[tuple[Address, Filter]]] = {}
        # Per-key forwarding dedup for multicasts (loops under churn).
        self._mcast_seen: dict[Guid, OriginFloorCache] = {}
        self._announce_seq = 0
        self._announce_floor: dict[Address, int] = {}
        broker.on_recover_hooks.append(self._on_recover)
        self._refresh = PeriodicTask(self.sim, REFRESH_INTERVAL, self._refresh_tick)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def _is_live(self, addr: Address) -> bool:
        host = self.network.host(addr)
        return host is not None and host.alive

    def _learn(self, descriptor: NodeDescriptor) -> bool:
        """Absorb one descriptor; True when it was genuinely new."""
        if descriptor.addr == self.broker.addr:
            return False
        if not self._is_live(descriptor.addr):
            return False
        fresh = descriptor.addr not in self.directory
        self.directory[descriptor.addr] = descriptor
        self.leaf.add(descriptor)
        self.table.add(descriptor)
        return fresh

    def _evict(self, addr: Address) -> None:
        self.unreachable.discard(addr)
        descriptor = self.directory.pop(addr, None)
        if descriptor is not None:
            self.leaf.remove(descriptor.guid)
            self.table.remove(descriptor.guid)

    def hello(self, neighbour: Address) -> None:
        """Push our membership snapshot over a new/restored overlay link."""
        self.unreachable.discard(neighbour)
        snapshot = tuple(self.directory.values()) + (self.descriptor,)
        self.broker._send_control(neighbour, RvHello(snapshot))
        self.regraft()

    def on_link_down(self, neighbour: Address) -> None:
        """The broker dropped a link (detector or administrative).

        A dead host leaves the ring; a live one only loses its direct
        pair with us — evicting it would fork the ring view and split
        roots, so it is merely routed around until the link restores.
        """
        if not self._is_live(neighbour):
            self._evict(neighbour)
        else:
            self.unreachable.add(neighbour)
        self.regraft()

    def _flood_announce(self, descriptors: tuple) -> None:
        self._announce_seq += 1
        msg = RvAnnounce(descriptors, self.broker.addr, self._announce_seq)
        for neighbour in self.broker.neighbours:
            self.broker._send_control(neighbour, msg)

    def _handle_hello(self, src: Address, msg: RvHello) -> None:
        self.unreachable.discard(src)
        fresh = tuple(d for d in msg.descriptors if self._learn(d))
        if fresh:
            # Announce the newly merged members (and ourselves) to the
            # whole component, so both sides of the merge converge.
            self._flood_announce(fresh + (self.descriptor,))
            self.regraft()

    def _handle_announce(self, src: Address, msg: RvAnnounce) -> None:
        if msg.seq <= self._announce_floor.get(msg.origin, 0):
            return
        self._announce_floor[msg.origin] = msg.seq
        fresh = [d for d in msg.descriptors if self._learn(d)]
        for neighbour in self.broker.neighbours:
            if neighbour != src:
                self.broker._send_control(neighbour, msg)
        if fresh:
            self.regraft()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _metric(self, guid: Guid, key: Guid) -> tuple:
        return (key.ring_distance(guid), guid.value)

    def next_hop(self, key: Guid) -> Address | None:
        """The next broker toward ``key``'s root; None when we act as root.

        Greedy over the union of leaf set, prefix table, and directory:
        ring distance strictly shrinks every hop on consistent views, so
        routing terminates at the globally closest live broker.  Dead
        candidates are evicted lazily; live-but-unreachable ones are
        skipped, and when only such a candidate beats us we *detour*
        through the best reachable one (bounded by ``RV_HOP_LIMIT``)
        instead of wrongly crowning ourselves root.
        """
        while True:
            candidates: dict[Address, NodeDescriptor] = {}
            for descriptor in self.leaf.members():
                candidates[descriptor.addr] = descriptor
            for descriptor in self.table:
                candidates[descriptor.addr] = descriptor
            candidates.update(self.directory)
            dead = [a for a in candidates if not self._is_live(a)]
            if not dead:
                break
            for addr in dead:
                candidates.pop(addr)
                self._evict(addr)
        mine = self._metric(self.guid, key)
        best = None
        best_metric = mine
        blocked_closer = False
        reachable: list[tuple[tuple, Address]] = []
        for addr, descriptor in candidates.items():
            metric = self._metric(descriptor.guid, key)
            if addr in self.unreachable:
                if metric < mine:
                    blocked_closer = True
                continue
            reachable.append((metric, addr))
            if metric < best_metric:
                best_metric = metric
                best = addr
        if best is not None:
            return best
        if blocked_closer and reachable:
            # Not the true root, but every closer candidate lost its
            # direct pair with us: detour via the closest reachable
            # peer, which can still reach the root directly.
            return min(reachable)[0]
        return None

    def is_root(self, key: Guid) -> bool:
        return self.next_hop(key) is None

    # ------------------------------------------------------------------
    # Interest (joins/leaves driven by the broker's subscription store)
    # ------------------------------------------------------------------
    def on_subscribe(self, filter: Filter) -> None:
        key = filter_key(filter)
        self.local_keys[key] = self.local_keys.get(key, 0) + 1
        self._graft(key)

    def on_unsubscribe(self, filter: Filter) -> None:
        key = filter_key(filter)
        count = self.local_keys.get(key, 0) - 1
        if count <= 0:
            self.local_keys.pop(key, None)
        else:
            self.local_keys[key] = count
        # No upward prune: local matching already excludes the departed
        # subscription, and the tree edge ages out via the child TTL.

    def on_advertise(self, source: Address, filter: Filter) -> None:
        key = advert_key(filter)
        self.local_adverts[(source, filter)] = key
        self._route_advert(None, RvAdvertise(key, self.broker.addr, filter))

    def on_unadvertise(self, source: Address, filter: Filter) -> None:
        key = self.local_adverts.pop((source, filter), None)
        if key is not None:
            self._route_advert(None, RvUnadvertise(key, self.broker.addr, filter))

    def _graft(self, key: Guid) -> None:
        nxt = self.next_hop(key)
        if nxt is not None:
            self.broker._send_control(nxt, RvJoin(key, 1))

    def regraft(self) -> None:
        """Re-route every local interest end to end.

        Runs on every membership change and every refresh tick: after a
        merge, a crash, a recovery, or a re-rooting, the join paths are
        rebuilt from the current ring view, and the refresh timestamps
        keep live tree edges from aging out.
        """
        for key in self.local_keys:
            self._graft(key)
        for (_, filter), key in self.local_adverts.items():
            self._route_advert(None, RvAdvertise(key, self.broker.addr, filter))

    def _handle_join(self, src: Address, msg: RvJoin) -> None:
        self.trees.setdefault(msg.key, {})[src] = self.sim.now
        nxt = self.next_hop(msg.key)
        if nxt is not None and nxt != src and msg.hops < RV_HOP_LIMIT:
            self.broker._send_control(nxt, RvJoin(msg.key, msg.hops + 1))

    # ------------------------------------------------------------------
    # Advertisement registry
    # ------------------------------------------------------------------
    def _route_advert(
        self, src: Address | None, msg: RvAdvertise | RvUnadvertise
    ) -> None:
        """One step toward ``msg.key``'s root, where it registers.

        ``src`` is the hop it arrived from, ``None`` when it originates
        here; never bounced back to ``src``, dropped at the hop limit.
        """
        nxt = self.next_hop(msg.key)
        if nxt is None:
            self._register_advert(msg)
        elif nxt != src and msg.hops < RV_HOP_LIMIT:
            self.broker._send_control(
                nxt, type(msg)(msg.key, msg.advertiser, msg.filter, msg.hops + 1)
            )

    def _register_advert(self, msg: RvAdvertise | RvUnadvertise) -> None:
        entry = (msg.advertiser, msg.filter)
        if isinstance(msg, RvAdvertise):
            self.root_adverts.setdefault(msg.key, set()).add(entry)
            return
        registry = self.root_adverts.get(msg.key)
        if registry is not None:
            registry.discard(entry)
            if not registry:
                del self.root_adverts[msg.key]

    # ------------------------------------------------------------------
    # Publication flow
    # ------------------------------------------------------------------
    def publish(self, notification: "Notification", pub_id: tuple) -> None:
        """Route a locally-originated publication to every relevant root."""
        for key in publication_keys(notification):
            self._route_publication(key, notification, pub_id, 0)

    def _route_publication(
        self, key: Guid, notification: "Notification", pub_id: tuple, hops: int
    ) -> None:
        nxt = self.next_hop(key)
        if nxt is None:
            self._forward_down(key, notification, pub_id, hops, exclude=None)
        elif hops < RV_HOP_LIMIT:
            self.broker.send(
                nxt,
                RvPublish(key, notification, pub_id, hops + 1),
                size_bytes=notification.size_bytes(),
            )

    def _handle_publish(self, src: Address, msg: RvPublish) -> None:
        # Every hop runs the local matching path: dedup makes it
        # idempotent, and en-route brokers with matching local interest
        # deliver early even while their tree graft is still converging.
        self.broker._route(src, ((msg.notification, msg.pub_id),), False)
        self._route_publication(msg.key, msg.notification, msg.pub_id, msg.hops)

    def _handle_multicast(self, src: Address, msg: RvMulticast) -> None:
        self.broker._route(src, ((msg.notification, msg.pub_id),), False)
        self._forward_down(
            msg.key, msg.notification, msg.pub_id, msg.hops, exclude=src
        )

    def _forward_down(
        self,
        key: Guid,
        notification: "Notification",
        pub_id: tuple,
        hops: int,
        exclude: Address | None,
    ) -> None:
        seen = self._mcast_seen.get(key)
        if seen is None:
            seen = OriginFloorCache(ttl=self.broker.seen_ttl)
            self._mcast_seen[key] = seen
        if seen.seen(pub_id, self.sim.now):
            return
        children = self.trees.get(key)
        if children is None or hops >= RV_HOP_LIMIT:
            return
        size = notification.size_bytes()
        for child in list(children):
            if child == exclude or child in self.unreachable:
                continue
            if not self._is_live(child):
                del children[child]
                continue
            self.broker.send(
                child,
                RvMulticast(key, notification, pub_id, hops + 1),
                size_bytes=size,
            )

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def _refresh_tick(self) -> None:
        if not self.broker.alive:
            return
        now = self.sim.now
        for key, children in list(self.trees.items()):
            for child, stamp in list(children.items()):
                if now - stamp > CHILD_TTL or not self._is_live(child):
                    del children[child]
            if not children:
                del self.trees[key]
        for key in list(self.root_adverts):
            if not self.is_root(key):
                # Re-rooted away from us: our registry copy is stale.
                del self.root_adverts[key]
        for seen in self._mcast_seen.values():
            seen.expire(now)
        self.regraft()

    def _on_recover(self, _host) -> None:
        """Broker restart: drop everything learned before the outage.

        Local interest (``local_keys``/``local_adverts``) survives — it
        mirrors the broker's subscription store, which a crash does not
        clear — while ring view and tree state rebuild from the hellos
        the failure detectors trigger as links restore.
        """
        self.directory.clear()
        self.unreachable.clear()
        self.leaf = LeafSet(self.descriptor)
        self.table = RoutingTable(self.descriptor)
        self.trees.clear()
        self.root_adverts.clear()
        self._mcast_seen.clear()
        self._announce_floor.clear()

    def stop(self) -> None:
        self._refresh.stop()

    # ------------------------------------------------------------------
    # Accounting and dispatch
    # ------------------------------------------------------------------
    def state_size(self) -> int:
        """Control-state entries this broker holds for rendezvous routing."""
        return (
            len(self.leaf.members())
            + len(self.table)
            + len(self.directory)
            + len(self.local_keys)
            + len(self.local_adverts)
            + sum(len(children) for children in self.trees.values())
            + sum(len(entries) for entries in self.root_adverts.values())
        )

    def handlers(self) -> dict[type, Callable[[Address, Any], None]]:
        """The ``Rv*`` dispatch entries a dht broker adds to its own."""
        return {
            RvPublish: self._handle_publish,
            RvMulticast: self._handle_multicast,
            RvJoin: self._handle_join,
            RvHello: self._handle_hello,
            RvAnnounce: self._handle_announce,
            RvAdvertise: self._route_advert,
            RvUnadvertise: self._route_advert,
        }
