"""Siena-style content-based broker network over trees *and* meshes.

Subscriptions propagate through the broker graph with covering-based
pruning; notifications follow the reverse paths of the subscriptions they
match.  No broker sees traffic its subtree did not ask for — the property
that lets the per-broker load stay flat as the population grows (E4).

A broker is two :class:`~repro.events.table.FilterTable` instances — one
for subscriptions, one for advertisements — plus what really differs
between the kinds: subscriptions drive delivery and can be held back by
advertisement pruning, advertisements unblock and re-prune them.  The
wire messages live in :mod:`repro.events.wire`.

Overlays may contain cycles.  Three mechanisms make routing on a mesh
converge the way it does on a tree:

* **Hop-count-tagged source paths** — every ``Subscribe``/``Advertise``
  carries the tuple of brokers it has traversed.  A broker never
  forwards control state to a neighbour already on its path and never
  stores a reflection of its own forwarding, so the control-plane flood
  terminates and installs, at every broker, one reverse-path entry per
  incoming direction — redundant state that later link failures simply
  prune.  Paths narrow on duplicate arrivals and re-widen on removals
  (:mod:`repro.events.table` has the argument for convergence).

* **Per-source reverse-path forwarding with first-hop wins** — every
  publication carries an id ``(origin address, sequence)``; each broker
  tracks, per origin, a sequence *floor* plus the out-of-order ids above
  it (:class:`~repro.events.failure.OriginFloorCache`) and processes
  only the first copy to arrive, dropping the rest
  (``duplicates_suppressed`` counts them).  Each publisher's traffic
  therefore follows an implicit spanning tree of the mesh rooted at its
  first-hop broker, and every matching client receives exactly one copy
  no matter how many redundant links the publication crossed.  The
  duplicate state is bounded by the count of origins active within
  ``seen_ttl`` — not by a fixed-size guess — and the safety contract is
  explicit: ``seen_ttl`` must exceed a publication's worst transit.

* **Link-failure survival and self-healing** —
  :meth:`BrokerNode.disconnect` withdraws only the state the dead link
  carried; the entries installed through surviving directions keep
  routing, so traffic re-converges over the remaining paths without a
  full state rebuild.  On a mesh with a redundant link, killing either
  copy of the redundancy loses nothing (the E5 fault-tolerance phase
  measures this against the tree variant, which partitions).  Each side
  of a link can also be torn down *one-sidedly*
  (:meth:`BrokerNode.drop_link`) and re-joined with a full state
  exchange (:meth:`BrokerNode.restore_link`) — the primitives a
  :class:`~repro.events.failure.FailureDetector` drives when its
  heartbeats stop (or resume) crossing a link, making the overlay
  self-healing without any caller noticing the failure first.

Dispatch runs through the predicate-indexed matching fabric
(:mod:`repro.events.index`): publications are routed with a counting
:class:`~repro.events.index.PredicateIndex` over the subscription store,
and covering decisions (forwarding suppression, unmasking on removal)
are :class:`~repro.events.index.CoveringPoset` lookups — both
partitioned by subject (:mod:`repro.events.sharding`).  ``indexed=False``
scans instead (:class:`~repro.events.index.ScanStore`), the reference the
equivalence suites compare against, just as ``covering_enabled=False``
keeps the no-covering baseline (benchmark A1).

Two routing behaviours complete Siena's advertisement/subscription
interaction:

* **Advertisement-pruned subscription forwarding** (``adv_pruned=True``)
  — a subscription travels toward a neighbour only when that
  neighbour's subtree has advertised a filter intersecting it
  (:func:`~repro.events.filters.filters_intersect`; a ``False``
  intersection answer is exact, so pruning can never lose advertised
  traffic).  An advertisement arriving later re-forwards the
  subscriptions it unblocks; an unadvertise retracts the subscriptions
  the withdrawn filter alone was justifying.  Producers must advertise
  before publishing for deliveries to be mode-independent — the Siena
  contract — and the E5 benchmark quantifies the Subscribe-forwarding
  reduction on producer-sparse trees.

* **Dynamic topologies** — :meth:`BrokerNode.connect` exchanges the
  complete current subscription/advertisement state between the two
  brokers (advertisements first, so pruning decisions on the far side
  see them), letting subtrees join after traffic has started and still
  converge to delivery-equivalent routing state;
  :meth:`BrokerNode.disconnect` withdraws everything the departing link
  carried, propagating the retractions onward.

``tests/test_broker_topology_equivalence.py`` holds all of it to
randomized delivery equivalence across {naive, indexed,
indexed+adv_pruned} and across join orders.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import TYPE_CHECKING, Callable

from repro.events.failure import (
    Heartbeat,
    OriginFloorCache,
    Resync,
    install_detectors,
)
from repro.events.filters import Filter, eq, exists
from repro.events.index import CoveringPoset, ScanStore
from repro.events.placement import plan_extra_links
from repro.events.model import Notification
from repro.events.rendezvous import RendezvousEngine
from repro.events.sharding import ShardedSubscriptionIndex, ShardPlan
from repro.events.subscriptions import Subscription
from repro.events.table import FilterTable
from repro.events.wire import (
    Advertise,
    MoveIn,
    MoveOut,
    Notify,
    NotifyBatch,
    Publish,
    PublishBatch,
    Subscribe,
    Transfer,
    TransferRequest,
    Unadvertise,
    Unsubscribe,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.events.failure import FailureDetector, HeartbeatConfig
    from repro.evolution.advertisement import BrokerMetrics
from repro.net.geo import WORLD_REGIONS, Position
from repro.net.host import Host
from repro.net.network import Address, Network
from repro.overlay.node_state import fill_converged
from repro.simulation import Simulator

ROUTING_MODES = ("flood", "dht")


class BrokerNode(Host):
    """One broker in the overlay (tree or mesh).

    Every optimisation is a constructor knob, each preserving delivery
    semantics exactly (the equivalence suites pin this) while changing
    what the hot paths cost.  Knob by knob:

    ``covering_enabled`` (default ``True``) — Siena's covering
      optimisation on forwarded control state; ``False`` (exact-duplicate
      suppression only) is the ablation measured in benchmark A1.
    ``indexed`` (default ``True``) — the counting
      :class:`~repro.events.index.PredicateIndex` and covering posets;
      ``False`` puts a :class:`~repro.events.index.ScanStore` in each
      place, the "naive" reference of the equivalence suites.
    ``adv_pruned`` (default ``False``) — advertisement-pruned
      subscription forwarding, benchmark E5's ablation: subscriptions
      travel only toward advertising subtrees.  Deliveries stay
      identical for producers that advertise before publishing;
      unadvertised traffic is only guaranteed local delivery (see
      ``advert_on_first_publish``).
    ``batched`` (default ``False``) — the PublishBatch fast path:
      an inbound burst is routed as one batch (one ``match_batch``
      sweep) and leaves as one batch per destination (what the budget
      benchmark's ``city_edge`` and ``mesh_churn`` run).  Off, a burst
      is routed item by item — the same accept → route → deliver path
      with batches of one, identically.
    ``advert_on_first_publish`` (default ``False``) — legacy-producer
      escape hatch under ``adv_pruned``: synthesise an advertisement
      from the first unadvertised publication's shape.
    ``seen_ttl`` (default ``30.0`` s) — per-origin publication dedup
      horizon (:class:`~repro.events.failure.OriginFloorCache`); must
      exceed a publication's worst transit for exactly-once processing
      on cyclic overlays.
    ``routing`` (default ``"flood"``) — ``"flood"`` is Siena's
      subscription flooding; ``"dht"`` replaces the control-state flood
      with Scribe-style rendezvous trees on Pastry state
      (:mod:`repro.events.rendezvous`), measured against flooding in
      benchmark E5's ``dht_scale`` phase.
    ``shards`` (default ``1``) — how finely the subscription index
      (:class:`~repro.events.sharding.ShardedSubscriptionIndex`) is
      partitioned.  At ``1`` every pinned subject has its own private
      index, so an event sweeps only its subject's filters plus the
      shared wildcards.  ``n > 1`` folds subjects onto ``n`` hash-ring
      shards, the placement a ``ShardRouter`` fleet uses across
      processes; in one process that only coarsens the partition
      (measured in ``docs/evidence/PR-22.md``).  Requires ``indexed``.

    All knobs compose with mesh overlays — cycles are handled by
    path-tagged control state and the per-origin dedup floor — and with
    an attached :class:`~repro.events.failure.FailureDetector`, which
    drives the one-sided :meth:`drop_link`/:meth:`restore_link`
    primitives when heartbeats stop (or resume) crossing a link.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        position: Position,
        covering_enabled: bool = True,
        indexed: bool = True,
        adv_pruned: bool = False,
        batched: bool = False,
        advert_on_first_publish: bool = False,
        seen_ttl: float = 30.0,
        routing: str = "flood",
        shards: int = 1,
    ):
        super().__init__(sim, network, position)
        if routing not in ROUTING_MODES:
            raise ValueError(f"unknown routing mode: {routing!r}")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if shards > 1 and not indexed:
            raise ValueError("sharded matching requires indexed=True")
        self.covering_enabled = covering_enabled
        self.adv_pruned = adv_pruned
        # Routing mode: "flood" is Siena's subscription flooding (with
        # or without adv_pruned); "dht" replaces the control-state flood
        # with Scribe-style rendezvous trees on Pastry routing state
        # (repro.events.rendezvous) — overlay links then only carry the
        # membership gossip and heartbeats, while subscriptions stay
        # local and publications travel point-to-point along the DHT.
        self.routing = routing
        # Read only by _accept: whether an inbound PublishBatch is routed
        # (and forwarded) whole or item by item — deliveries are
        # identical either way (the batch-equivalence suite pins this).
        self.batched = batched
        # Legacy-producer escape hatch for advertisement pruning: when a
        # directly-attached client publishes without ever advertising,
        # synthesise an advertisement from the publication's shape so
        # remote subscriptions get routed toward this broker.  The first
        # publication may still miss remote subscribers (the synthesised
        # advert races outward); later ones ride the unblocked routes.
        self.advert_on_first_publish = advert_on_first_publish
        self.seen_ttl = seen_ttl
        # Broker→neighbour control traffic by message type — the E5
        # benchmark reads the Subscribe row to price routing-table upkeep.
        self.control_counts: Counter[str] = Counter()
        self.neighbours: set[Address] = set()
        self.client_addrs: set[Address] = set()
        # The two filter tables.  They flood over the overlay links only
        # in flood mode: in dht mode interest is grafted and adverts
        # register at their discovery root, so no filter crosses a link.
        # The subscription index is partitioned by event subject so each
        # publication sweeps only its own subject's candidate pools
        # (repro.events.sharding) — one partition per subject, or per
        # shard of a plan when shards > 1; deliveries are identical.
        self.shards = shards
        links = self.neighbours if routing == "flood" else frozenset()
        plan = ShardPlan(shards) if shards > 1 else None
        poset_type = CoveringPoset if indexed else ScanStore
        self.subs = FilterTable(
            self.addr, links, self._send_control, Subscribe, Unsubscribe,
            indexed=indexed, covering_enabled=covering_enabled,
            index=ShardedSubscriptionIndex(plan) if indexed else ScanStore(),
            record=Subscription.fresh,
            blocked=self._sub_blocked if adv_pruned else None,
        )
        self.adverts = FilterTable(
            self.addr, links, self._send_control, Advertise, Unadvertise,
            indexed=indexed, covering_enabled=covering_enabled,
        )
        # The tables' own dicts under the names the suites and management
        # tooling read ("who produces weather events?") — the same
        # objects, never copies.
        self.subs_by_source = self.subs.by_source
        self.forwarded = self.subs.forwarded
        self._sub_paths = self.subs.paths
        self._fwd_sent = self.subs.sent
        self.adverts_by_source = self.adverts.by_source
        self.adverts_forwarded = self.adverts.forwarded
        self._adv_paths = self.adverts.paths
        self._advfwd_sent = self.adverts.sent
        # Mobikit proxies: disconnected client -> buffered notifications.
        self.proxies: dict[Address, list[Notification]] = {}
        self.notifications_processed = 0
        self.notifications_delivered = 0
        # Per-source posets over the advertisements received *from* each
        # source — the "does this subtree produce anything the
        # subscription wants?" query behind advertisement pruning.
        self._adv_in: defaultdict[Address, CoveringPoset] = defaultdict(poset_type)
        self._adv_in_ids: dict[tuple[Address, Filter], int] = {}
        # Publication duplicate suppression: per-origin sequence floors
        # with TTL expiry.  First copy wins; every later copy arriving
        # over a redundant path is dropped here.
        self.pub_dedup = OriginFloorCache(ttl=seen_ttl)
        self._pub_seq = 0
        self.duplicates_suppressed = 0
        # Advertisements synthesised by advert_on_first_publish, so one
        # publication shape registers (and floods) only once per client.
        self._auto_adverts: set[tuple[Address, Filter]] = set()
        # Set by an attached FailureDetector; inbound Heartbeats route
        # there, and connect()/disconnect() report intentional topology
        # changes so they are never mistaken for failures.
        self.failure_detector: "FailureDetector | None" = None
        # Set by an attached BrokerMetrics; the publication paths feed it
        # every processed notification so it can age the traffic.
        self.metrics: "BrokerMetrics | None" = None
        # The rendezvous engine exists only in dht mode.
        self.rv: RendezvousEngine | None = (
            RendezvousEngine(self) if routing == "dht" else None
        )
        # No wire class is subclassed, so dispatch is one dict lookup on
        # the payload's exact type.  A dht broker adds the engine's
        # ``Rv*`` entries; to a flood broker those stay unknown messages.
        self._handlers: dict[type, Callable[[Address, object], None]] = {
            Subscribe: self._on_subscribe,
            Unsubscribe: self._on_unsubscribe,
            Advertise: self._on_advertise,
            Unadvertise: self._on_unadvertise,
            Publish: self._on_publish,
            PublishBatch: self._on_publish_batch,
            Heartbeat: self._on_heartbeat,
            Resync: self._on_resync,
            MoveOut: self._on_move_out,
            MoveIn: self._on_move_in,
            TransferRequest: self._on_transfer_request,
            Transfer: self._on_transfer,
        }
        if self.rv is not None:
            self._handlers.update(self.rv.handlers())

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def connect(self, other: "BrokerNode") -> None:
        """Link two brokers and exchange their full routing state.

        Each side pushes every advertisement and subscription it stores
        (advertisements first, so advertisement-pruned forwarding
        decisions on the receiving side can already see them), exactly
        as if the filters were arriving fresh — covering suppression
        and pruning apply as usual.  A subtree connected after traffic
        has started therefore converges to the same delivery behaviour
        as one present from the start.  Idempotent: connecting an
        already-linked pair is a no-op (no state re-exchange).

        Repairing a *half-dropped* link (one side tore it down with
        :meth:`drop_link`, the other never noticed) works too: the side
        that kept the link replays its state with cleared per-link
        bookkeeping — its records of what the far side holds are stale —
        exactly as a :class:`~repro.events.failure.Resync` would.
        """
        if other.addr in self.neighbours and self.addr in other.neighbours:
            return
        for near, far in ((self, other), (other, self)):
            near.neighbours.add(far.addr)
            near._reset_and_sync(far.addr)
            if near.failure_detector is not None:
                near.failure_detector.watch(far.addr)

    def disconnect(self, other: "BrokerNode") -> None:
        """Tear down the link and withdraw the state it carried.

        Both ends drop what they forwarded across the link, remove the
        subscriptions/advertisements the departing neighbour had sent,
        and propagate the retractions onward — the inverse of
        :meth:`connect`'s state exchange.  On a mesh, entries installed
        through surviving directions are untouched, so traffic
        re-converges over the remaining paths without a state rebuild.
        Idempotent: disconnecting a non-neighbour is a no-op.
        """
        if self.failure_detector is not None:
            self.failure_detector.forget(other.addr)
        if other.failure_detector is not None:
            other.failure_detector.forget(self.addr)
        self.drop_link(other.addr)
        other.drop_link(self.addr)

    def drop_link(self, neighbour: Address) -> None:
        """One-sided link teardown: withdraw the state the link carried.

        This is :meth:`disconnect`'s half that a failure detector can
        drive without reaching the (unreachable) far side: forget what
        was forwarded across the link, remove what the neighbour had
        sent, and propagate the retractions onward.  Idempotent.
        """
        if neighbour not in self.neighbours:
            return
        self.neighbours.discard(neighbour)
        self._forget_neighbour(neighbour)
        if self.rv is not None:
            self.rv.on_link_down(neighbour)

    def restore_link(self, neighbour: Address) -> None:
        """One-sided link (re-)establishment with full state push.

        The :meth:`connect` half a failure detector drives when a
        suspected neighbour's heartbeats resume: record the link and
        push every stored advertisement and subscription toward it, as
        if each were arriving fresh.  Idempotent.
        """
        if neighbour in self.neighbours:
            return
        self.neighbours.add(neighbour)
        self._reset_and_sync(neighbour)

    def _reset_and_sync(self, neighbour: Address) -> None:
        """Start the link's forwarding books afresh and push everything.

        A new link has no books yet; when the far side dropped its half
        of a link we kept, our records of what it holds are stale and
        would suppress the re-push, so they are discarded first.
        """
        self.adverts.reset(neighbour)
        self.subs.reset(neighbour)
        if self.rv is not None:
            # No filter state crosses links in dht mode; a new/restored
            # link instead exchanges membership snapshots, from which
            # both sides re-graft their rendezvous trees.
            self.rv.hello(neighbour)
            return
        self.adverts.sync(neighbour)
        self.subs.sync(neighbour)  # blocked ones follow their advertisements

    def _forget_neighbour(self, neighbour: Address) -> None:
        self.subs.forget(neighbour)
        self.adverts.forget(neighbour)
        for filter in self.subs.filters_from(neighbour):
            self._remove_subscription(neighbour, filter)
        for filter in self.adverts.filters_from(neighbour):
            self._remove_advertisement(neighbour, filter)

    def attach_client(self, client_addr: Address) -> None:
        self.client_addrs.add(client_addr)

    def _send_control(self, neighbour: Address, payload) -> None:
        self.control_counts[type(payload).__name__] += 1
        self.send(neighbour, payload, size_bytes=128)

    # ------------------------------------------------------------------
    # Subscriptions: the table, plus the rendezvous hooks
    # ------------------------------------------------------------------
    def _store_subscription(
        self,
        source: Address,
        filter: Filter,
        path: tuple[Address, ...] = (),
        path_reset: bool = False,
    ) -> None:
        if self.subs.store(source, filter, path, path_reset) and self.rv is not None:
            self.rv.on_subscribe(filter)

    def _remove_subscription(self, source: Address, filter: Filter) -> None:
        if self.subs.remove(source, filter) and self.rv is not None:
            self.rv.on_unsubscribe(filter)

    # ------------------------------------------------------------------
    # Advertisements: the table, plus what they do to subscriptions
    # ------------------------------------------------------------------
    def _store_advertisement(
        self,
        source: Address,
        filter: Filter,
        path: tuple[Address, ...] = (),
        path_reset: bool = False,
    ) -> None:
        if not self.adverts.store(source, filter, path, path_reset):
            return
        self._adv_in_ids[(source, filter)] = self._adv_in[source].add(filter)
        if self.rv is not None:
            self.rv.on_advertise(source, filter)
        if self.adv_pruned and source in self.neighbours:
            # Deferred re-propagation: the new advertisement may unblock
            # subscriptions previously pruned toward its source.
            self._unblock_subscriptions(source, filter)

    def _remove_advertisement(self, source: Address, filter: Filter) -> None:
        if not self.adverts.remove(source, filter):
            return
        poset = self._adv_in[source]
        poset.remove(self._adv_in_ids.pop((source, filter)))
        if not poset:
            del self._adv_in[source]
        if self.rv is not None:
            self.rv.on_unadvertise(source, filter)
        if self.adv_pruned and source in self.neighbours:
            # Symmetric retraction: subscriptions only this advertisement
            # justified are withdrawn from its source again.
            self._reprune_subscriptions(source, filter)

    def _adv_intersects(self, neighbour: Address, filter: Filter) -> bool:
        """Has ``neighbour`` advertised anything intersecting ``filter``?"""
        poset = self._adv_in.get(neighbour)
        return poset is not None and poset.intersecting_any(filter)

    def _sub_blocked(self, neighbour: Address, filter: Filter) -> bool:
        """Should forwarding ``filter`` toward ``neighbour`` be withheld?

        Under ``adv_pruned`` (the only mode that hands this predicate to
        the subscription table): while no advertisement from that
        neighbour intersects the subscription — i.e. while its subtree
        provably produces nothing the subscription wants.
        """
        return not self._adv_intersects(neighbour, filter)

    def _covered_by_peer_advert(self, source: Address, filter: Filter) -> bool:
        """Is ``filter`` covered by another advertisement from ``source``?

        Used to skip unblock/re-prune scans: a covering advertisement
        from the same source admits a superset of notifications, so it
        already justifies (or keeps justifying) every subscription the
        covered one could.
        """
        own = self._adv_in_ids.get((source, filter))
        poset = self._adv_in.get(source)
        return poset is not None and any(pid != own for pid in poset.covering(filter))

    def _unblock_subscriptions(self, neighbour: Address, advert: Filter) -> None:
        """Forward the stored subscriptions a new advertisement unblocks.

        Any subscription the store poset finds intersecting it now has a producer
        in the neighbour's subtree; each is offered in by-source order, as a store
        sweep would (covering suppression depends on order), and idempotently by
        the table's suppression.  A covering advertisement already stored from
        the same neighbour means every such subscription was unblocked before — skip.
        """
        if self._covered_by_peer_advert(neighbour, advert):
            return
        rank = {source: i for i, source in enumerate(self.subs.by_source) if source != neighbour}
        hits = [key for key in map(self.subs.poset.payload, self.subs.poset.intersecting(advert)) if key[0] in rank]
        for source, filter in sorted(hits, key=lambda key: rank[key[0]]):  # stable: ids keep in-source order
            self.subs.forward(neighbour, filter, self._sub_paths[(source, filter)])

    def _reprune_subscriptions(self, neighbour: Address, advert: Filter) -> None:
        """Retract forwarded subscriptions a withdrawn advert justified.

        Symmetric to :meth:`_unblock_subscriptions`: a subscription
        forwarded toward the neighbour is withdrawn once no remaining
        advertisement from that neighbour (the link poset names them)
        intersects it.  Subscriptions the retracted one was masking need no
        restore — anything they intersect, it intersects too.
        """
        if self._covered_by_peer_advert(neighbour, advert):
            return
        poset = self.subs.fwd_posets[neighbour]
        for filter in [poset.filter_of(pid) for pid in poset.intersecting(advert)]:
            if not self._adv_intersects(neighbour, filter):  # else another advert justifies it
                self.subs.withdraw(neighbour, filter)

    def advertisements(self) -> list[Filter]:
        """Every advertisement this broker knows about (all sources)."""
        return [f for filters in self.adverts_by_source.values() for f in filters]

    def advertised(self, notification: Notification) -> bool:
        """Would this notification fall under some known advertisement?"""
        return self.adverts.matches(notification)

    def control_state_size(self) -> int:
        """Routing-relevant control entries held by this broker.

        The E5 scale phase's comparison metric.  Flood modes count every
        stored and forwarded filter (subscriptions and advertisements) —
        the O(global filters) burden rendezvous routing exists to shed.
        dht mode counts the rendezvous engine's membership, tree, and
        registry entries plus the broker's own local filter store.
        """
        local = self.subs.stored_count() + self.adverts.stored_count()
        if self.rv is not None:
            return local + self.rv.state_size()
        return local + self.subs.forwarded_count() + self.adverts.forwarded_count()

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` if any routing table has drifted.

        Both tables audit their own books (:meth:`FilterTable.check`,
        which also holds every forwarded subscription to being unblocked
        under ``adv_pruned``); here the per-source advertisement posets
        are held to the advertisement store.
        """
        problems = [f"subs: {p}" for p in self.subs.check()]
        problems += [f"adverts: {p}" for p in self.adverts.check()]
        # The posets hold every stored advertisement, each under its source.
        per_source = Counter(source for source, _ in self._adv_in_ids)
        if (
            self._adv_in_ids.keys() != self._adv_paths.keys()
            or {source: len(poset) for source, poset in self._adv_in.items()} != per_source
        ):
            problems.append("adverts: per-source posets out of step with the store")
        if problems:
            raise AssertionError(f"broker {self.addr!r}: " + "; ".join(problems))

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------
    def inject_publication(
        self,
        source: Address | None,
        notification: Notification,
        pub_id: tuple[Address, int] | None = None,
    ) -> None:
        """Entry point for first-hop traffic (clients, local producers)."""
        self._accept(source, ((notification, pub_id),), False)

    def _accept(self, source: Address | None, items: tuple | list, batch: bool) -> None:
        """Take in ``(notification, pub_id)`` pairs arriving from ``source``.

        A lone publication is a batch of one with ``batch`` false.  This
        is the only place the publication path reads the routing mode
        and the ``batched`` knob:

        * flood, a batch inbound under ``batched`` — one :meth:`_route`
          for the whole burst;
        * flood, otherwise — one :meth:`_route` per item (a batch is just
          its publications in order);
        * dht — per item, the local :meth:`_route` step runs first, so
          attached subscribers hear without a round trip, then the
          rendezvous engine routes a copy toward each key's root for
          tree multicast (``OriginFloorCache`` collapses any echo).
        """
        if self.rv is not None:
            for notification, pub_id in items:
                if pub_id is None:
                    pub_id = self._next_pub_id()
                self._route(source, ((notification, pub_id),), False)
                self.rv.publish(notification, pub_id)
        elif batch and self.batched:
            self._route(source, items, True)
        else:
            for item in items:
                self._route(source, (item,), False)

    def _next_pub_id(self) -> tuple[Address, int]:
        """The stamp for an untagged publication (a legacy producer's
        bare ``Publish``, the broker's own digests), so every copy this
        broker forwards is recognisable if a cycle routes it back."""
        pub_id = (self.addr, self._pub_seq)
        self._pub_seq += 1
        return pub_id

    def _route(self, source: Address | None, items: tuple | list, batch: bool) -> None:
        """Admit each publication, ask the table once, deliver per destination.

        Admission runs per item in order — first copy wins, the rest are
        dropped — and reads only per-publication state, so its outcome
        cannot depend on how the items were grouped.  The admitted items
        share one :meth:`FilterTable.interested` query, and every
        destination gets its matched subset in publish order; ``batch``
        only picks the wire form (:meth:`_deliver`).
        """
        admitted: list[tuple[Notification, tuple[Address, int]]] = []
        for notification, pub_id in items:
            if pub_id is None:
                pub_id = self._next_pub_id()
            if self.pub_dedup.seen(pub_id, self.sim.now):
                self.duplicates_suppressed += 1
                continue
            self.notifications_processed += 1
            if self.metrics is not None:
                self.metrics.observe(notification)
            if self.advert_on_first_publish:
                self._maybe_auto_advertise(source, notification)
            admitted.append((notification, pub_id))
        if not admitted:
            return
        interested = self.subs.interested(
            [notification for notification, _ in admitted], exclude=source
        )
        per_dest: dict[Address, list] = {}
        for item, dests in zip(admitted, interested):
            for dest in dests:
                per_dest.setdefault(dest, []).append(item)
        for dest, group in per_dest.items():
            self._deliver(dest, group, batch)

    def _maybe_auto_advertise(self, source: Address, notification: Notification) -> None:
        """Synthesise an advertisement for a non-advertising local producer.

        Only first-hop traffic qualifies (``source`` is an attached
        client): remote publications were either advertised at their own
        first hop or are legacy traffic whose broker carries this knob.
        The synthesised filter is the publication's type equality when a
        ``type`` attribute is present — the shape adv_pruned routing
        prunes on — falling back to the attribute-existence skeleton.
        """
        if source not in self.client_addrs:
            return
        if "type" in notification:
            advert = Filter(eq("type", notification["type"]))
        else:
            advert = Filter(*(exists(name) for name in sorted(notification.keys())))
        key = (source, advert)
        if key in self._auto_adverts:
            return
        self._auto_adverts.add(key)
        self._store_advertisement(source, advert)

    def _deliver(self, dest: Address, items: list, batch: bool) -> None:
        """Hand one destination its publish-ordered ``items``.

        Proxies buffer.  Clients and neighbours get one :class:`Notify` /
        :class:`Publish` per item (pub_ids intact for the next hop's
        dedup) — or, when the items came in as a batch under ``batched``,
        a single :class:`NotifyBatch` / :class:`PublishBatch`, even with
        one survivor.
        """
        if dest in self.proxies:
            self.proxies[dest].extend(notification for notification, _ in items)
        elif dest in self.client_addrs:
            self.notifications_delivered += len(items)
            if batch:
                self.send(
                    dest,
                    NotifyBatch(tuple(notification for notification, _ in items)),
                    size_bytes=sum(notification.size_bytes() for notification, _ in items),
                )
            else:
                for notification, _ in items:
                    self.send(dest, Notify(notification), size_bytes=notification.size_bytes())
        elif dest in self.neighbours:
            if batch:
                self.send(
                    dest,
                    PublishBatch(tuple(items)),
                    size_bytes=sum(notification.size_bytes() for notification, _ in items),
                )
            else:
                for notification, pub_id in items:
                    self.send(
                        dest, Publish(notification, pub_id), size_bytes=notification.size_bytes()
                    )

    # ------------------------------------------------------------------
    # Message handlers: ``type(payload)`` -> one of these (see __init__)
    # ------------------------------------------------------------------
    def _on_subscribe(self, src: Address, msg: Subscribe) -> None:
        self._store_subscription(src, msg.filter, msg.path, msg.path_reset)

    def _on_unsubscribe(self, src: Address, msg: Unsubscribe) -> None:
        self._remove_subscription(src, msg.filter)

    def _on_advertise(self, src: Address, msg: Advertise) -> None:
        self._store_advertisement(src, msg.filter, msg.path, msg.path_reset)

    def _on_unadvertise(self, src: Address, msg: Unadvertise) -> None:
        self._remove_advertisement(src, msg.filter)

    def _on_publish(self, src: Address, msg: Publish) -> None:
        self._accept(src, ((msg.notification, msg.pub_id),), False)

    def _on_publish_batch(self, src: Address, msg: PublishBatch) -> None:
        self._accept(src, msg.items, True)

    def _on_heartbeat(self, src: Address, msg: Heartbeat) -> None:
        if self.failure_detector is not None:
            self.failure_detector.on_heartbeat(src, msg)

    def _on_resync(self, src: Address, msg: Resync) -> None:
        """The neighbour reset our link and is about to replay its state.

        Everything this link previously told us is stale on both
        directions: the inbound entries it may have retracted during the
        outage (those Unsubscribe/Unadvertise messages died with the
        link) are withdrawn, and the outbound bookkeeping claiming it
        still holds our filters is cleared before the full re-push.  The
        sender's replay follows this message on the same FIFO link, so
        its live state is restored immediately after.  Ignored when we
        do not consider ``src`` a neighbour (our own detector dropped
        the link, taking all of this state with it, and will resync when
        it notices the revival itself).
        """
        if src not in self.neighbours:
            return
        self._forget_neighbour(src)
        self._reset_and_sync(src)

    # Mobility (Mobikit §3: static proxies for mobile entities)
    def _on_move_out(self, client: Address, msg: MoveOut) -> None:
        if client in self.client_addrs:
            self.proxies.setdefault(client, [])

    def _on_move_in(self, src: Address, msg: MoveIn) -> None:
        self.attach_client(msg.client)
        for filter in msg.filters:
            self._store_subscription(msg.client, filter)
        if msg.old_broker is not None and msg.old_broker != self.addr:
            self.send(msg.old_broker, TransferRequest(msg.client, self.addr))
        elif msg.client in self.proxies:
            self._flush_proxy(msg.client)

    def _on_transfer_request(self, src: Address, msg: TransferRequest) -> None:
        buffered = tuple(self.proxies.pop(msg.client, ()))
        filters = tuple(self.subs.filters_from(msg.client))
        self.client_addrs.discard(msg.client)
        for filter in filters:
            self._remove_subscription(msg.client, filter)
        # A service migration names a successor endpoint: the buffered
        # notifications belong to the replacement instance, not to the
        # torn-down original.
        recipient = msg.successor if msg.successor is not None else msg.client
        self.send(msg.new_broker, Transfer(recipient, buffered, filters), size_bytes=512)

    def _on_transfer(self, src: Address, msg: Transfer) -> None:
        # Defensive re-registration: the Transfer is self-contained, so
        # the handover holds even if the MoveIn carried a stale filter
        # list (registering an already-known filter is a no-op).  Only
        # while the client is still attached here, though — a late
        # Transfer for a client that has already moved on again must not
        # resurrect it with ghost subscriptions.
        if msg.client in self.client_addrs:
            for filter in msg.filters:
                self._store_subscription(msg.client, filter)
        for notification in msg.buffered:
            if msg.client in self.proxies:
                # The client went dark again before the handover landed:
                # keep buffering rather than sending into the void.
                self.proxies[msg.client].append(notification)
            else:
                self.notifications_delivered += 1
                self.send(msg.client, Notify(notification), size_bytes=notification.size_bytes())

    def _flush_proxy(self, client: Address) -> None:
        for notification in self.proxies.pop(client, []):
            self.notifications_delivered += 1
            self.send(client, Notify(notification), size_bytes=notification.size_bytes())

    def handle_message(self, src: Address, payload) -> None:
        handler = self._handlers.get(type(payload))
        if handler is None:
            raise TypeError(f"unknown broker message: {payload!r}")
        handler(src, payload)


class SienaClient(Host):
    """An event producer/consumer attached to one broker.

    The client side of the paper's access protocol: :meth:`subscribe` /
    :meth:`unsubscribe` register interest, :meth:`advertise` /
    :meth:`unadvertise` declare publication shapes (what ``adv_pruned``
    brokers route by), :meth:`publish` stamps a per-client sequence id
    (the overlay's exactly-once dedup key) and :meth:`publish_batch`
    sends a burst as one wire message for the broker's ``batched``
    path.  Deliveries land in :attr:`received` as ``(sim-time,
    notification)`` pairs and fan out to any registered
    :attr:`handlers`.  Mobility (MoveIn/MoveOut hand-off between
    brokers) lives in :class:`~repro.events.mobility.MobileClient`.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        position: Position,
        broker: BrokerNode,
    ):
        super().__init__(sim, network, position)
        self.broker_addr = broker.addr
        broker.attach_client(self.addr)
        self.filters: list[Filter] = []
        self.received: list[tuple[float, Notification]] = []
        self.handlers: list[Callable[[Notification], None]] = []
        self._pub_seq = 0

    def subscribe(self, filter: Filter) -> None:
        self.filters.append(filter)
        self.send(self.broker_addr, Subscribe(filter), size_bytes=128)

    def unsubscribe(self, filter: Filter) -> None:
        if filter in self.filters:
            self.filters.remove(filter)
        self.send(self.broker_addr, Unsubscribe(filter), size_bytes=128)

    def advertise(self, filter: Filter) -> None:
        """Declare what this client will publish (§3's advertisements)."""
        self.send(self.broker_addr, Advertise(filter), size_bytes=128)

    def unadvertise(self, filter: Filter) -> None:
        self.send(self.broker_addr, Unadvertise(filter), size_bytes=128)

    def publish(self, notification: Notification) -> None:
        pub_id = (self.addr, self._pub_seq)
        self._pub_seq += 1
        self.send(
            self.broker_addr,
            Publish(notification, pub_id),
            size_bytes=notification.size_bytes(),
        )

    def publish_batch(self, notifications: list) -> None:
        """Publish a burst as one wire message, pub_ids stamped in order.

        The sequence numbers are exactly those ``publish`` would have
        assigned, so dedup state downstream cannot tell the difference.
        """
        items = []
        for notification in notifications:
            items.append((notification, (self.addr, self._pub_seq)))
            self._pub_seq += 1
        self.send(
            self.broker_addr,
            PublishBatch(tuple(items)),
            size_bytes=sum(n.size_bytes() for n in notifications),
        )

    def handle_message(self, src: Address, payload) -> None:
        if isinstance(payload, Notify):
            self.received.append((self.sim.now, payload.notification))
            for handler in list(self.handlers):
                handler(payload.notification)
        elif isinstance(payload, NotifyBatch):
            for notification in payload.notifications:
                self.received.append((self.sim.now, notification))
                for handler in list(self.handlers):
                    handler(notification)


def build_broker_tree(
    sim: Simulator,
    network: Network,
    count: int,
    branching: int = 3,
    heartbeat: "HeartbeatConfig | None" = None,
    **broker_options,
) -> list[BrokerNode]:
    """A tree-shaped (hence acyclic) broker overlay spread across regions.

    Passing a :class:`~repro.events.failure.HeartbeatConfig` as
    ``heartbeat`` attaches a failure detector to every broker, making
    the overlay self-healing out of the box.  ``broker_options`` pass
    through to every :class:`BrokerNode` — see its docstring for what
    each ablates and its default.
    """
    rng = sim.rng_for("broker-build")
    brokers = [
        BrokerNode(
            sim,
            network,
            WORLD_REGIONS[i % len(WORLD_REGIONS)].random_position(rng),
            **broker_options,
        )
        for i in range(count)
    ]
    for index in range(1, count):
        parent = brokers[(index - 1) // branching]
        brokers[index].connect(parent)
    if heartbeat is not None:
        install_detectors(brokers, heartbeat)
    return brokers


def build_broker_mesh(
    sim: Simulator,
    network: Network,
    count: int,
    branching: int = 3,
    extra_links: int = 2,
    heartbeat: "HeartbeatConfig | None" = None,
    placement: str = "latency",
    **broker_options,
) -> list[BrokerNode]:
    """A broker mesh: the :func:`build_broker_tree` overlay plus
    ``extra_links`` redundant links between non-adjacent brokers.

    Every extra link closes a cycle, so any single link on that cycle
    can fail without partitioning the overlay — the fault-tolerance
    property the E5 benchmark's failure phase measures.  Where the
    links land is the ``placement`` policy:

    * ``"latency"`` (default) — the greedy latency/disjointness-aware
      plan from :func:`repro.events.placement.plan_extra_links`: each
      chord maximizes newly-protected tree edges subject to a direct
      latency at most ``STRETCH_BOUND`` (3) mean tree-link delays.
      Deterministic given broker positions (which the builder draws
      from ``sim.rng_for``, so the same simulator seed still yields the
      same mesh).
    * ``"random"`` — uniformly random non-adjacent pairs, seeded
      through ``sim.rng_for``; the ablation the E5 placement phase
      prices the planner against.

    ``branching`` (default 3) shapes the underlying tree and
    ``extra_links`` (default 2) counts the chords; ``heartbeat`` and
    ``broker_options`` are :func:`build_broker_tree`'s.
    """
    brokers = build_broker_tree(
        sim, network, count, branching=branching, heartbeat=heartbeat,
        **broker_options,
    )
    if placement == "latency":
        tree_edges = [(index, (index - 1) // branching) for index in range(1, count)]
        plan = plan_extra_links(
            [broker.position for broker in brokers],
            tree_edges,
            extra_links,
            network.latency,
        )
        for i, j in plan:
            brokers[i].connect(brokers[j])
        return brokers
    if placement != "random":
        raise ValueError(f"unknown placement policy: {placement!r}")
    rng = sim.rng_for("broker-mesh")
    candidates = [
        (i, j)
        for i in range(count)
        for j in range(i + 1, count)
        if brokers[j].addr not in brokers[i].neighbours
    ]
    rng.shuffle(candidates)
    for i, j in candidates[:extra_links]:
        brokers[i].connect(brokers[j])
    return brokers


def build_dht_fleet(sim: Simulator, network: Network, count: int) -> list[BrokerNode]:
    """A converged ``routing="dht"`` fleet built from global knowledge.

    The brokers' ring views are filled by the same
    :func:`repro.overlay.node_state.fill_converged` that
    :func:`repro.overlay.pastry.fast_build` uses — the state Pastry's
    join protocol converges to, at O(N log N) build cost.  No overlay
    links are created (rendezvous routing addresses peers directly
    through the ring view), so the membership ``directory`` stays empty
    and the per-broker control state the scale benchmark measures is the
    honest O(log N) Pastry footprint.

    Use this builder for scale measurements (bench E5 ``dht_scale``);
    for protocol-level join/heal behaviour build small fleets
    organically via ``BrokerNode(routing="dht")`` plus
    :meth:`BrokerNode.connect`.
    """
    rng = sim.rng_for("dht-fleet-build")
    brokers = [
        BrokerNode(
            sim,
            network,
            WORLD_REGIONS[i % len(WORLD_REGIONS)].random_position(rng),
            routing="dht",
        )
        for i in range(count)
    ]
    fill_converged([(broker.rv.leaf, broker.rv.table) for broker in brokers])
    return brokers
