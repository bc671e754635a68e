"""Subject-partitioned matching, in one process and across a fleet.

A monolithic :class:`~repro.events.index.PredicateIndex` pays for the
*whole* population on every event: it is keyed by attribute name, and
every filter constrains ``strength`` whatever its subject.  This module
partitions it by subject (the ``type`` attribute, the key rendezvous
routing hashes) so an event pays for its own subject, not the city's.
An ``EQ`` on ``type`` *pins* a filter
(:func:`~repro.events.filters.pinned_subject`; canonical form: ``2`` and
``2.0`` land together, as matching equality folds them); a filter with
none, or only a non-``EQ`` one, is a *wildcard*.  The covering posets
need no such partition: :class:`~repro.events.index.CoveringPoset` keys
its own entries by every equality, ``type`` among them.

**In one process** — :class:`ShardedSubscriptionIndex` (every broker's
subscription index): one private index per subject (made on first use,
dropped with its last filter), **one** shared index for wildcards, each
filter stored once; an event visits shared plus its own.  With a
:class:`ShardPlan` (``BrokerNode(shards=n)``) subjects fold onto ``n``
hash-ring shards, which in one process only coarsens the partition.  The
plan exists for the other layer:

**Across processes** — :class:`ShardRouter` + :class:`ShardEndpoint`,
the message-passing fleet — a shard is another process and a second
visit would be a second message, so here (and only here) wildcards are
*replicated* to every shard: a publication fans to **exactly one**
shard, the plan's owner of its subject (or a dedicated absent-subject
bucket), and finds every matching subscription there, once.  Clients
have a consistent-hash *home* shard responsible for their deliveries.
Both classes are transport-agnostic — the simulated kernel
(``repro.simulation.transport.SimTransport``) or real sockets
(``repro.net.transport.AsyncioTransport``) — and :class:`FleetClient`
is a minimal client for either.

Deliveries are identical to the monolith in both layers by construction
(the randomized equivalence suites pin this).
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Sequence

from repro.events.wire import (
    NotifyBatch,
    Publish,
    PublishBatch,
    Subscribe,
    Unsubscribe,
)
from repro.events.filters import Filter, canonical_subject, pinned_subject
from repro.events.index import PredicateIndex
from repro.events.model import Notification

Address = Hashable

# Virtual ring points per shard: keeps subject ownership and client
# homes balanced, and moves only ~1/n of the keys when the fleet grows.
_VNODES = 32

# Canonical token for "the event has no partition attribute".  Family
# tags from canonical_subject are single letters followed by ':', so no
# real subject canonicalises to this.
_ABSENT = "\x00absent"


def _hash64(text: str) -> int:
    """Stable 64-bit hash (process-independent, unlike ``hash``)."""
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


class ShardPlan:
    """Consistent-hash placement of subjects and clients onto shards.

    Subjects are values of the ``type`` attribute.  The plan is a pure
    function of ``n_shards``: every router, shard and client can compute
    placement locally with no coordination.
    """

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.n_shards = n_shards
        points: list[tuple[int, int]] = []
        for shard in range(n_shards):
            for v in range(_VNODES):
                points.append((_hash64(f"shard:{shard}:{v}"), shard))
        points.sort()
        self._ring_keys = [p[0] for p in points]
        self._ring_shards = [p[1] for p in points]
        self._owner_cache: dict[str, int] = {}

    def _locate(self, h: int) -> int:
        i = bisect.bisect_right(self._ring_keys, h)
        if i == len(self._ring_keys):
            i = 0
        return self._ring_shards[i]

    def owner(self, canon: str) -> int:
        """Owner shard of one canonical subject string."""
        shard = self._owner_cache.get(canon)
        if shard is None:
            shard = self._locate(_hash64("subject:" + canon))
            self._owner_cache[canon] = shard
        return shard

    def shard_of_value(self, value: Any) -> int:
        """Owner shard of one partition-attribute value."""
        return self.owner(canonical_subject(value))

    def shard_of_event(self, notification: Notification) -> int:
        """The single shard a publication must visit."""
        value = notification.get("type")
        if value is None and "type" not in notification:
            return self.owner(_ABSENT)
        return self.owner(canonical_subject(value))

    def shard_of_filter(self, filter: Filter) -> int | None:
        """Owner shard of a filter, or ``None`` for wildcards.

        ``None`` means "replicate to every shard": the filter has no
        ``EQ`` constraint on the partition attribute, so it could match
        events routed to any shard.
        """
        canon = pinned_subject(filter)
        return None if canon is None else self.owner(canon)

    def home(self, client: Address) -> int:
        """The shard responsible for delivering to ``client``.

        Consistent-hash client placement spreads delivery fan-out work
        across the fleet instead of funnelling it through the router.
        """
        return self._locate(_hash64(f"client:{client!r}"))

    def serve(self, path: str, shard_ids: tuple) -> None:
        """Run one worker process: host ``shard_ids``' endpoints, dial the
        hub at ``path`` and serve until it hangs up."""
        import asyncio

        from repro.net.transport import serve_worker  # net.serialization imports this module

        shard_addrs = {sid: f"shard-{sid}" for sid in range(self.n_shards)}

        def build(send: SendFn) -> dict[Address, Callable]:
            endpoints = [ShardEndpoint(sid, self, shard_addrs[sid], send, shard_addrs) for sid in shard_ids]
            return {endpoint.addr: endpoint.handle for endpoint in endpoints}

        asyncio.run(serve_worker(path, build))


# Below this many filters a partition is swept event by event, not by
# ``match_batch``.  Measured on band filters (docs/evidence/PR-22.md):
# with warm numpy mirrors ``bincount`` wins from ~32 filters up; one write
# between batches makes it rebuild them and moves the crossover to ~50
# filters for 8-event groups, ~200 for 2-event ones.  Decided here and not
# in ``match_batch``, whose direct callers (the fleet's shards) differ.
_SCALAR_BELOW = 128


class ShardedSubscriptionIndex:
    """Drop-in for :class:`PredicateIndex`, one private index per pinned subject.

    A filter lives in the index of its :func:`~repro.events.filters.pinned_subject`
    (keyed by ``plan.owner`` of it when a plan folds subjects onto ``n``
    shards), created on first use and dropped with its last filter; every
    other filter lives in :attr:`shared`.  An event visits the shared index
    and its own subject's and unions the two.  A ``rid`` is ``(part key,
    id)``, so the index keeps no per-filter books of its own.
    """

    def __init__(self, plan: ShardPlan | None = None) -> None:
        self.plan = plan
        self.shared = PredicateIndex()
        self.partitions: dict[Hashable, PredicateIndex] = {}
        self._size = 0
        self._dropped_ops = 0  # walks done by partitions since dropped

    def __len__(self) -> int:
        return self._size

    def _key(self, canon: str | None) -> Hashable:
        if canon is None or self.plan is None:
            return canon
        return self.plan.owner(canon)

    def _part(self, key: Hashable) -> PredicateIndex:
        return self.shared if key is None else self.partitions[key]

    def add(self, filter: Filter, payload: Any = None) -> tuple:
        key = self._key(pinned_subject(filter))
        if key is None:
            part = self.shared
        else:
            part = self.partitions.get(key)
            if part is None:
                part = self.partitions[key] = PredicateIndex()
        self._size += 1
        return key, part.add(filter, payload=payload)

    def remove(self, rid: tuple) -> Any:
        key, fid = rid
        part = self._part(key)
        payload = part.remove(fid)
        self._size -= 1
        if not part and key is not None:
            self._dropped_ops += part.ops
            del self.partitions[key]
        return payload

    def payload(self, rid: tuple) -> Any:
        return self._part(rid[0]).payload(rid[1])

    def filter_of(self, rid: tuple) -> Filter:
        return self._part(rid[0]).filter_of(rid[1])

    @property
    def ops(self) -> int:
        """Total candidate-inspection work across every index visited."""
        live = sum(part.ops for part in self.partitions.values())
        return self.shared.ops + live + self._dropped_ops

    def _sweep(self, notifications: Sequence[Notification], visit) -> list[set]:
        """Per notification, what ``visit(key, index, group)`` finds in the
        shared index united with what it finds in the subject's own."""
        shared = self.shared  # an empty one is not worth the visit
        out = visit(None, shared, notifications) if shared else [set() for _ in notifications]
        partitions = self.partitions
        groups: dict[Hashable, list[int]] = {}
        for i, notification in enumerate(notifications):
            value = notification.get("type")
            if value is not None:  # no subject: only unpinned filters can match
                key = self._key(canonical_subject(value))
                if key in partitions:
                    groups.setdefault(key, []).append(i)
        for key, positions in groups.items():
            group = [notifications[i] for i in positions]
            for i, found in zip(positions, visit(key, partitions[key], group)):
                out[i] |= found
        return out

    def match(self, notification: Notification) -> set[tuple]:
        return self._sweep(
            (notification,),
            lambda key, index, group: [_rids(key, index.match(group[0]))],
        )[0]

    def match_batch(
        self, notifications: Sequence[Notification], vectorized: bool | None = None
    ) -> list[set[tuple]]:
        return self._sweep(
            notifications,
            lambda key, index, group: [
                _rids(key, matched)
                for matched in index.match_batch(group, vectorized=vectorized)
            ],
        )

    def holders(self, notifications: Sequence[Notification]) -> list[set]:
        return self._sweep(notifications, _holders)


def _rids(key: Hashable, fids: set[int]) -> set[tuple]:
    return {(key, fid) for fid in fids}


def _holders(key: Hashable, index: PredicateIndex, group: Sequence[Notification]) -> list[set]:
    if len(index) < _SCALAR_BELOW:
        payload = index.payload
        return [{payload(fid) for fid in index.match(n)} for n in group]
    return index.holders(group)


# ----------------------------------------------------------------------
# Fleet plane: router + shard endpoints over an abstract transport
# ----------------------------------------------------------------------
# The fleet speaks the broker wire dataclasses (Subscribe, Publish,
# PublishBatch, NotifyBatch, ...) plus four shard-plane envelopes:


@dataclass(slots=True)
class Routed:
    """Router->shard envelope preserving the originating client."""

    source: Address
    message: Any


@dataclass(slots=True)
class Attach:
    """Tell a shard it is the home (delivery owner) of ``client``."""

    client: Address


@dataclass(slots=True)
class Deliver:
    """Matching shard -> home shard: notifications grouped per client.

    ``items`` is ``((client, (notification, ...)), ...)``.  The home
    shard unwraps each group into a client-facing :class:`NotifyBatch`.
    """

    items: tuple


SendFn = Callable[[Address, Address, Any], None]


class ShardEndpoint:
    """One worker shard: a partition of the subscription space.

    Holds its own :class:`PredicateIndex`, matches the publications the
    router fans to it, and groups matched deliveries by each subscriber's
    *home* shard (``plan.home``) so fan-out work spreads over the fleet.
    Transport-agnostic: ``send(src, dst, payload)`` is the only effect.
    """

    def __init__(
        self,
        shard_id: int,
        plan: ShardPlan,
        addr: Address,
        send: SendFn,
        shard_addrs: dict[int, Address],
    ) -> None:
        self.shard_id = shard_id
        self.plan = plan
        self.addr = addr
        self._send = send
        self.shard_addrs = shard_addrs
        self.index = PredicateIndex()
        self._entry_ids: dict[tuple[Address, Filter], int] = {}
        self.local_clients: set[Address] = set()
        self.notifications_processed = 0
        self.notifications_delivered = 0

    def handle(self, src: Address, payload: Any) -> None:
        if isinstance(payload, Routed):
            self._handle_routed(payload.source, payload.message)
        elif isinstance(payload, Attach):
            self.local_clients.add(payload.client)
        elif isinstance(payload, Deliver):
            for client, notifications in payload.items:
                if client in self.local_clients:
                    self.notifications_delivered += len(notifications)
                    self._send(self.addr, client, NotifyBatch(tuple(notifications)))

    def _handle_routed(self, source: Address, message: Any) -> None:
        if isinstance(message, Subscribe):
            key = (source, message.filter)
            if key not in self._entry_ids:
                self._entry_ids[key] = self.index.add(message.filter, payload=source)
        elif isinstance(message, Unsubscribe):
            fid = self._entry_ids.pop((source, message.filter), None)
            if fid is not None:
                self.index.remove(fid)
        elif isinstance(message, Publish):
            self._match_batch(source, [(message.notification, message.pub_id)])
        elif isinstance(message, PublishBatch):
            self._match_batch(source, message.items)

    def _match_batch(self, source: Address, items: Iterable[tuple]) -> None:
        notifications = [notification for notification, _ in items]
        if not notifications:
            return
        self.notifications_processed += len(notifications)
        matched_sets = self.index.match_batch(notifications)
        payload = self.index.payload
        per_client: dict[Address, list[Notification]] = {}
        for notification, fids in zip(notifications, matched_sets):
            if not fids:
                continue
            for client in {payload(fid) for fid in fids}:
                if client == source:
                    continue
                per_client.setdefault(client, []).append(notification)
        if not per_client:
            return
        # Group deliveries by the subscriber's home shard; local ones
        # short-circuit without a wire hop.
        per_home: dict[int, list[tuple[Address, tuple]]] = {}
        for client, batch in per_client.items():
            per_home.setdefault(self.plan.home(client), []).append(
                (client, tuple(batch))
            )
        for home, groups in per_home.items():
            deliver = Deliver(tuple(groups))
            if home == self.shard_id:
                self.handle(self.addr, deliver)
            else:
                self._send(self.addr, self.shard_addrs[home], deliver)


class ShardRouter:
    """The thin front of the sharded broker fleet.

    Clients address the router like a broker; it owns no subscription
    state beyond attachment bookkeeping.  Control messages fan to the
    owner shard (or all shards for wildcards); each publication fans to
    **exactly one** shard — the owner of its subject partition — so the
    fleet's total matching work per event is one shard's worth.
    """

    def __init__(
        self,
        plan: ShardPlan,
        addr: Address,
        send: SendFn,
        shard_addrs: dict[int, Address],
    ) -> None:
        self.plan = plan
        self.addr = addr
        self._send = send
        self.shard_addrs = shard_addrs
        self.clients: set[Address] = set()
        self.messages_routed = 0

    def attach_client(self, client: Address) -> None:
        self.clients.add(client)
        home = self.plan.home(client)
        self._send(self.addr, self.shard_addrs[home], Attach(client))

    def _fan_control(self, source: Address, message: Any, filter: Filter) -> None:
        target = self.plan.shard_of_filter(filter)
        routed = Routed(source, message)
        if target is None:
            for addr in self.shard_addrs.values():
                self._send(self.addr, addr, routed)
        else:
            self._send(self.addr, self.shard_addrs[target], routed)

    def handle(self, src: Address, payload: Any) -> None:
        self.messages_routed += 1
        if isinstance(payload, (Subscribe, Unsubscribe)):
            self._fan_control(src, payload, payload.filter)
        elif isinstance(payload, Publish):
            sid = self.plan.shard_of_event(payload.notification)
            self._send(self.addr, self.shard_addrs[sid], Routed(src, payload))
        elif isinstance(payload, PublishBatch):
            groups: dict[int, list[tuple]] = {}
            for item in payload.items:
                sid = self.plan.shard_of_event(item[0])
                groups.setdefault(sid, []).append(item)
            for sid, items in groups.items():
                self._send(
                    self.addr,
                    self.shard_addrs[sid],
                    Routed(src, PublishBatch(tuple(items))),
                )


class FleetClient:
    """Minimal pub/sub client for the sharded fleet, transport-agnostic.

    Mirrors the :class:`~repro.events.broker.SienaClient` surface the
    tests exercise (subscribe / unsubscribe / publish / publish_batch /
    ``received``) but speaks to a :class:`ShardRouter` over a plain
    ``send`` callable, so the same client code runs on the simulated
    kernel and on real asyncio sockets.
    """

    def __init__(self, addr: Address, router_addr: Address, send: SendFn) -> None:
        self.addr = addr
        self.router_addr = router_addr
        self._send = send
        self.received: list[Notification] = []
        self._pub_seq = 0

    def handle(self, src: Address, payload: Any) -> None:
        if isinstance(payload, NotifyBatch):
            self.received.extend(payload.notifications)

    def subscribe(self, filter: Filter) -> None:
        self._send(self.addr, self.router_addr, Subscribe(filter))

    def unsubscribe(self, filter: Filter) -> None:
        self._send(self.addr, self.router_addr, Unsubscribe(filter))

    def publish(self, notification: Notification) -> None:
        pub_id = (self.addr, self._pub_seq)
        self._pub_seq += 1
        self._send(self.addr, self.router_addr, Publish(notification, pub_id))

    def publish_batch(self, notifications: Iterable[Notification]) -> None:
        items = []
        for notification in notifications:
            items.append((notification, (self.addr, self._pub_seq)))
            self._pub_seq += 1
        if items:
            self._send(self.addr, self.router_addr, PublishBatch(tuple(items)))


def build_shard_fleet(
    plan: ShardPlan,
    send: SendFn,
) -> tuple[ShardRouter, list[ShardEndpoint]]:
    """Wire a router and its shard endpoints over one ``send`` callable.

    The caller registers each returned component's ``handle`` with its
    transport under the matching address: ``"router"`` and
    ``"shard-<id>"``, the names every socket worker dials.
    """
    shard_addrs = {sid: f"shard-{sid}" for sid in range(plan.n_shards)}
    shards = [
        ShardEndpoint(sid, plan, shard_addrs[sid], send, shard_addrs)
        for sid in range(plan.n_shards)
    ]
    router = ShardRouter(plan, "router", send, shard_addrs)
    return router, shards
