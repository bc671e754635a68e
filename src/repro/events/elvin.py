"""Elvin-style centralised publish/subscribe baseline.

"It uses a client-server architecture, limiting its scalability" (§3).
Every subscription and every publication flows through one server, which
matches every notification against every client's filters — experiment E4
measures that central load against the Siena broker network.

Server and clients speak the shared vocabulary of
:mod:`repro.events.wire` — ``Subscribe``/``Unsubscribe``,
``Publish``/``PublishBatch`` (``pub_id`` unset: one server has no
duplicates to suppress), ``Notify``/``NotifyBatch`` — and this module
defines only the three messages no broker has: the subscription batch
and the quench pair.  Quench snapshots partition subscriptions by
:func:`repro.events.filters.pinned_subject`, the same subject rendezvous
keys and shard ownership use.

The server keeps its subscriptions in the same link-less
:class:`~repro.events.table.FilterTable` a broker uses and asks it who is
interested — through the counting
:class:`~repro.events.index.PredicateIndex` by default; ``indexed=False``
gives it a :class:`~repro.events.index.ScanStore`, the seed's linear
scan over every client's filter.  A publication is a batch of one:
single and batched publishes share one match-and-deliver method.
``match_operations`` is what the table's ``index.ops`` grew by: filters
scanned by the store, candidates collected by the index — the quantity
E4 compares is "how much matching work the central server does", and
both figures are exactly that for their structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.events.filters import Filter, canonical_subject, pinned_subject
from repro.events.model import Notification
from repro.events.table import FilterTable
from repro.events.wire import (
    Notify,
    NotifyBatch,
    Publish,
    PublishBatch,
    Subscribe,
    Unsubscribe,
)
from repro.net.geo import Position
from repro.net.host import Host
from repro.net.network import Address, Network
from repro.simulation import Simulator


@dataclass
class ElvinSubscribeBatch:
    """Several subscription changes applied as one wire message.

    ``subscribes`` are added and ``unsubscribes`` removed in order; the
    server recomputes and pushes its quench snapshot once for the whole
    batch instead of once per individual change.
    """

    subscribes: tuple = ()
    unsubscribes: tuple = ()


@dataclass
class ElvinQuenchRequest:
    """A publisher opting in to quench snapshots from the server."""


@dataclass
class ElvinQuench:
    """The server's suppression snapshot, pushed to opted-in publishers.

    ``types`` holds the canonical ``type`` values some subscription is
    pinned to (via a ``type`` equality constraint); ``any_wildcard`` is
    set when at least one subscription is not pinned and so could match
    any event.  A publisher may drop a notification client-side exactly
    when no filter on the server could possibly match it.
    """

    types: frozenset
    any_wildcard: bool


class ElvinServer(Host):
    """The single server every client talks to."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        position: Position,
        indexed: bool = True,
        batched: bool = False,
    ):
        super().__init__(sim, network, position)
        # Batched fast path: a PublishBatch burst is matched in one
        # table query and each client receives one NotifyBatch.
        # Off, bursts unbundle through the one-at-a-time path with
        # identical deliveries.
        self.batched = batched
        # The one filter store, link-less (the server has no neighbours
        # to forward to): by-source filter lists plus the counting index
        # behind :meth:`FilterTable.interested`.
        self.table = FilterTable(
            self.addr, frozenset(), self.send, Subscribe, Unsubscribe,
            indexed=indexed, covering_enabled=False,
        )
        self.subscriptions: dict[Address, list[Filter]] = self.table.by_source
        self.notifications_processed = 0
        self.notifications_delivered = 0
        self.match_operations = 0
        # Elvin's quench mechanism: publishers may opt in to receive a
        # suppression snapshot so they can drop traffic no subscription
        # could match before it ever reaches the server.
        self._quenchers: set[Address] = set()
        self._last_quench: ElvinQuench | None = None
        self.quench_pushes = 0

    def _quench_snapshot(self) -> ElvinQuench:
        """The current suppression snapshot over all subscriptions.

        A filter contributes the subject it pins; one that pins none
        could match anything and raises ``any_wildcard``.
        """
        pinned = {
            pinned_subject(filter)
            for filters in self.subscriptions.values()
            for filter in filters
        }
        return ElvinQuench(frozenset(pinned - {None}), None in pinned)

    def _push_quench(self) -> None:
        """Push the snapshot to opted-in publishers if it changed."""
        if not self._quenchers:
            return
        snapshot = self._quench_snapshot()
        if snapshot == self._last_quench:
            return
        self._last_quench = snapshot
        self.quench_pushes += 1
        for client in self._quenchers:
            self.send(client, snapshot, size_bytes=64 + 16 * len(snapshot.types))

    def _publish(self, notifications: tuple | list, batch: bool) -> None:
        """Match ``notifications`` in one table query and deliver them.

        Every client receives its matched subset in publish order: one
        :class:`Notify` per notification, or — ``batch`` — a single
        :class:`NotifyBatch`.  Publishers hear their own events.
        """
        self.notifications_processed += len(notifications)
        index = self.table.index
        ops_before = index.ops
        interested = self.table.interested(notifications)
        self.match_operations += index.ops - ops_before
        per_client: dict[Address, list] = {}
        for notification, clients in zip(notifications, interested):
            for client in clients:
                per_client.setdefault(client, []).append(notification)
        for client, group in per_client.items():
            self.notifications_delivered += len(group)
            if batch:
                self.send(
                    client,
                    NotifyBatch(tuple(group)),
                    size_bytes=sum(n.size_bytes() for n in group),
                )
            else:
                for notification in group:
                    self.send(
                        client, Notify(notification), size_bytes=notification.size_bytes()
                    )

    def handle_message(self, src: Address, payload) -> None:
        if isinstance(payload, Subscribe):
            self.table.store(src, payload.filter)
            self._push_quench()
        elif isinstance(payload, Unsubscribe):
            self.table.remove(src, payload.filter)
            self._push_quench()
        elif isinstance(payload, ElvinSubscribeBatch):
            # Apply every change first so opted-in publishers see one
            # snapshot push for the whole batch, not one per filter.
            for filter in payload.subscribes:
                self.table.store(src, filter)
            for filter in payload.unsubscribes:
                self.table.remove(src, filter)
            self._push_quench()
        elif isinstance(payload, ElvinQuenchRequest):
            self._quenchers.add(src)
            snapshot = self._quench_snapshot()
            self._last_quench = snapshot
            self.quench_pushes += 1
            self.send(src, snapshot, size_bytes=64 + 16 * len(snapshot.types))
        elif isinstance(payload, Publish):
            self._publish((payload.notification,), False)
        elif isinstance(payload, PublishBatch):
            if self.batched:
                self._publish([notification for notification, _ in payload.items], True)
            else:
                for notification, _ in payload.items:
                    self._publish((notification,), False)
        else:
            raise TypeError(f"unknown elvin message: {payload!r}")


class ElvinClient(Host):
    """A producer/consumer of the centralised service."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        position: Position,
        server: ElvinServer,
    ):
        super().__init__(sim, network, position)
        self.server_addr = server.addr
        self.received: list[tuple[float, Notification]] = []
        self.handlers: list[Callable[[Notification], None]] = []
        # Quench state: None until the server pushes a snapshot (after
        # request_quench); while set, publishes no subscription could
        # match are dropped here instead of loading the server.
        self.quench: ElvinQuench | None = None
        self.quenched = 0

    def subscribe(self, filter: Filter) -> None:
        self.send(self.server_addr, Subscribe(filter), size_bytes=128)

    def unsubscribe(self, filter: Filter) -> None:
        self.send(self.server_addr, Unsubscribe(filter), size_bytes=128)

    def subscribe_batch(self, subscribes: list, unsubscribes: list = ()) -> None:
        """Apply several subscription changes as one wire message."""
        self.send(
            self.server_addr,
            ElvinSubscribeBatch(tuple(subscribes), tuple(unsubscribes)),
            size_bytes=128 * (len(subscribes) + len(unsubscribes)),
        )

    def request_quench(self) -> None:
        """Opt in to server quench snapshots for client-side suppression."""
        self.send(self.server_addr, ElvinQuenchRequest(), size_bytes=32)

    def _wants(self, notification: Notification) -> bool:
        """Could any subscription in the last snapshot match this?"""
        if self.quench is None or self.quench.any_wildcard:
            return True
        subject = notification.get("type")
        if subject is None:
            return False
        return canonical_subject(subject) in self.quench.types

    def publish(self, notification: Notification) -> None:
        if not self._wants(notification):
            self.quenched += 1
            return
        self.send(self.server_addr, Publish(notification), size_bytes=notification.size_bytes())

    def publish_batch(self, notifications: list) -> None:
        """Publish a burst as one wire message, quenching dead traffic."""
        wanted = [n for n in notifications if self._wants(n)]
        self.quenched += len(notifications) - len(wanted)
        if not wanted:
            return
        self.send(
            self.server_addr,
            PublishBatch(tuple((n, None) for n in wanted)),
            size_bytes=sum(n.size_bytes() for n in wanted),
        )

    def handle_message(self, src: Address, payload) -> None:
        if isinstance(payload, ElvinQuench):
            self.quench = payload
        elif isinstance(payload, Notify):
            self.received.append((self.sim.now, payload.notification))
            for handler in list(self.handlers):
                handler(payload.notification)
        elif isinstance(payload, NotifyBatch):
            for notification in payload.notifications:
                self.received.append((self.sim.now, notification))
                for handler in list(self.handlers):
                    handler(notification)
