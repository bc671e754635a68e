"""Mobikit-style mobility support for publish/subscribe clients (§3).

"The system provides static proxies for mobile entities, which subscribe on
behalf of the mobile entity when the mobile entity is disconnected from the
pub/sub system."  A :class:`MobileClient` performs a move-out before going
dark; its broker buffers matching notifications in a proxy and hands them
over (move-in) wherever the client reappears.

Filter handover happens twice, deliberately: the ``MoveIn`` carries the
client's own filter list (the fast path — the new broker subscribes
before the old broker is even contacted), and the ``Transfer`` from the
old broker carries the filters *it* had recorded alongside the buffered
notifications.  The receiving broker re-registers the Transfer's filters
defensively (a no-op for filters the MoveIn already delivered), so the
subscription survives even a stale or empty MoveIn list.
"""

from __future__ import annotations

from repro.events.broker import BrokerNode, SienaClient
from repro.events.model import Notification
from repro.events.wire import MoveIn, MoveOut, TransferRequest
from repro.net.network import Address


class MobileClient(SienaClient):
    """A roaming client that survives disconnection without losing events."""

    def __init__(self, sim, network, position, broker: BrokerNode):
        super().__init__(sim, network, position, broker)
        self.connected = True

    def move_out(self) -> None:
        """Announce disconnection, then drop off the network."""
        if not self.connected:
            return
        self.send(self.broker_addr, MoveOut(), size_bytes=64)
        self.connected = False
        # Going dark must happen after the MoveOut is on the wire; crash on
        # the next scheduler slot so the send is not suppressed.
        self.sim.schedule(0.0, self.crash)

    def move_in(self, new_broker: BrokerNode) -> None:
        """Reappear at ``new_broker``; buffered notifications follow."""
        if self.connected:
            return
        old_broker = self.broker_addr
        self.recover()
        self.position = new_broker.position  # roamed to the new locale
        self.broker_addr = new_broker.addr
        self.connected = True
        self.send(
            new_broker.addr,
            MoveIn(self.addr, old_broker, tuple(self.filters)),
            size_bytes=256,
        )


class ServiceInbox:
    """Delivery sink shared by every endpoint generation of one service.

    A migrating service swaps endpoints (distinct addresses, distinct
    brokers) but must present one continuous event stream.  The inbox is
    that stream: endpoints feed it, it deduplicates the overlap window
    where a notification reaches both the outgoing and the incoming
    endpoint (directly at one, via the transferred proxy buffer at the
    other), and it records per-delivery latency against the
    notification's ``time`` attribute.  Deduplication is by notification
    value — producers that can emit identical payloads should stamp a
    sequence attribute.
    """

    def __init__(self, sim):
        self.sim = sim
        self.deliveries: list[tuple[float, Notification]] = []
        self.latencies: list[tuple[float, float]] = []  # (arrival, age)
        self.duplicates = 0
        self._seen: set[Notification] = set()

    def accept(self, notification: Notification) -> None:
        if notification in self._seen:
            self.duplicates += 1
            return
        self._seen.add(notification)
        self.deliveries.append((self.sim.now, notification))
        if "time" in notification:
            self.latencies.append(
                (self.sim.now, max(0.0, self.sim.now - notification.time))
            )


class ServiceEndpoint(SienaClient):
    """One attachment point of a (possibly migrating) service."""

    def __init__(self, sim, network, position, broker: BrokerNode, inbox: ServiceInbox):
        super().__init__(sim, network, position, broker)
        self.inbox = inbox
        self.handlers.append(inbox.accept)


class ServiceHandoff:
    """Move a service's live subscriptions to a new broker without loss.

    The protocol reuses Mobikit's proxy machinery, adapted for the fact
    that a migrated service is a *new* endpoint rather than the same
    client reappearing:

    1. the replacement endpoint attaches at the new broker and subscribes
       with the original's filters — from here on, every broker that has
       seen the new subscription routes a second copy toward it;
    2. after ``settle_s`` (long enough for the subscription flood to
       cross the overlay), the old endpoint sends ``MoveOut`` followed by
       a ``TransferRequest`` naming the replacement as ``successor`` on
       the same FIFO link: anything matched at the old broker in between
       lands in the proxy buffer and rides the ``Transfer`` to the
       replacement, and the old subscriptions are withdrawn only now —
       so at every broker the new route exists before the old one dies.

    The shared :class:`ServiceInbox` absorbs the overlap window's
    duplicates.  Loss requires a notification to miss *both* routes,
    which the settle window rules out on a connected overlay.
    """

    def __init__(self, sim, network, settle_s: float = 2.0):
        self.sim = sim
        self.network = network
        self.settle_s = settle_s
        self.completed: list[tuple[float, Address, Address]] = []

    def migrate(self, old: ServiceEndpoint, new_broker: BrokerNode) -> ServiceEndpoint:
        """Start the handoff; returns the replacement endpoint immediately."""
        new = ServiceEndpoint(
            self.sim, self.network, new_broker.position, new_broker, old.inbox
        )
        for filter in old.filters:
            new.subscribe(filter)
        old_broker_addr = old.broker_addr

        def cut_over() -> None:
            old.send(old_broker_addr, MoveOut(), size_bytes=64)
            # Same FIFO link as the MoveOut, so the broker buffers first
            # and hands over second, never the reverse.
            old.send(
                old_broker_addr,
                TransferRequest(old.addr, new_broker.addr, successor=new.addr),
                size_bytes=128,
            )
            self.completed.append((self.sim.now, old.addr, new.addr))

        self.sim.schedule(self.settle_s, cut_over)
        return new
