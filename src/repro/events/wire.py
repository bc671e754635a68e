"""Wire messages of the broker protocol.

The twelve dataclasses every speaker of the protocol shares: brokers,
the shard fleet, roaming clients and the socket codec.  They depend on
nothing but the filter and notification model, so those modules import
them without importing each other.  None is subclassed: receivers
dispatch on ``type(payload)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.events.filters import Filter
from repro.events.model import Notification
from repro.net.network import Address


# Subscribe/Advertise carry ``path``: the ordered tuple of broker
# addresses the filter has traversed, origin-side first, ending with the
# sender.  ``len(path)`` is the hop count.  On meshes the tag scopes the
# flood (never forward to a broker already on the path) and rejects
# reflections (never store state whose path passes through yourself),
# which is what lets add/remove churn converge to the same routing state
# a tree would reach.  On acyclic overlays the tag never changes a
# forwarding decision, though identical filters from different origins
# still trigger (no-op) narrowing re-sends — the modest control-traffic
# price of mesh-readiness.  ``path_reset`` marks a *re-widening* re-send
# (one surviving copy of a filter recomputed its path after another was
# removed): the receiver replaces its stored path when the carried one
# is strictly wider, instead of intersecting.  Retractions carry no tag:
# they terminate via state-presence checks (removing an absent entry is
# a no-op), not flood scoping.
@dataclass(slots=True)
class Subscribe:
    filter: Filter
    path: tuple[Address, ...] = ()
    path_reset: bool = False


@dataclass(slots=True)
class Unsubscribe:
    filter: Filter


@dataclass(slots=True)
class Advertise:
    """A producer declares the notifications it will publish (§3)."""

    filter: Filter
    path: tuple[Address, ...] = ()
    path_reset: bool = False


@dataclass(slots=True)
class Unadvertise:
    filter: Filter


@dataclass(slots=True)
class Publish:
    """A publication in flight, tagged for duplicate suppression.

    ``pub_id`` is ``(origin address, sequence)`` — stamped by the
    publishing client (or by the first broker to see an untagged
    publication) and carried unchanged across every hop, so brokers on
    a mesh can recognise the second copy arriving over a redundant
    link.  ``None`` stays accepted for wire compatibility.
    """

    notification: Notification
    pub_id: tuple[Address, int] | None = None


@dataclass(slots=True)
class Notify:
    notification: Notification


@dataclass(slots=True)
class PublishBatch:
    """A burst of publications travelling as one wire message.

    ``items`` is an ordered tuple of ``(notification, pub_id)`` pairs —
    each pair carries exactly what a standalone :class:`Publish` would,
    so a receiver without the batched fast path can unbundle and process
    them one at a time with identical results.  Order within the batch
    is the publish order, and the network's per-(src, dst) FIFO makes
    batch boundaries invisible to delivery ordering.
    """

    items: tuple


@dataclass(slots=True)
class NotifyBatch:
    """A burst of client deliveries coalesced into one wire message."""

    notifications: tuple


@dataclass(slots=True)
class MoveOut:
    """Client announces disconnection; broker must proxy for it (Mobikit)."""


@dataclass(slots=True)
class MoveIn:
    """Client reappears at a (possibly different) broker."""

    client: Address
    old_broker: Address | None
    filters: tuple


@dataclass(slots=True)
class TransferRequest:
    """Ask the old broker to hand a client's proxy state to ``new_broker``.

    ``successor`` redirects the handover to a *different* endpoint than
    the one that moved out: a migrating service's replacement instance
    has its own address, so the old broker addresses the resulting
    :class:`Transfer` (and its buffered notifications) to the successor
    rather than back to the departed original.  ``None`` keeps Mobikit's
    same-client roaming behaviour.
    """

    client: Address
    new_broker: Address
    successor: Address | None = None


@dataclass(slots=True)
class Transfer:
    """Proxy handover from the old broker to the new one (Mobikit).

    Carries both the buffered notifications and the client's filters as
    recorded by the old broker.  The MoveIn normally re-registers the
    filters (the client carries its own list), but the receiving broker
    also re-registers ``filters`` defensively so a handover can never
    strip a subscription even if the MoveIn's list was stale.
    """

    client: Address
    buffered: tuple
    filters: tuple
