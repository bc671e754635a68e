"""The simulated network: message delivery, loss, partitions, churn.

Hosts register with a :class:`Network` and exchange opaque payloads.  The
network charges each message a latency from the pluggable model, drops
messages to dead/partitioned hosts, and keeps counters that the benchmark
harnesses read (message totals are how E4 measures broker load).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Hashable

from repro.net.geo import Region
from repro.net.latency import GeographicLatency, LatencyModel
from repro.simulation import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.host import Host

Address = Hashable


@dataclass(frozen=True, slots=True)
class Message:
    """An in-flight message; payload semantics belong to the hosts."""

    src: Address
    dst: Address
    payload: Any
    size_bytes: int
    sent_at: float


@dataclass
class NetworkStats:
    """Aggregate counters; per-host counters live on the hosts themselves."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    bytes_sent: int = 0
    per_host_delivered: dict = field(default_factory=dict)

    def reset(self) -> None:
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.bytes_sent = 0
        self.per_host_delivered.clear()


class Network:
    """A message-passing fabric over the discrete-event simulator."""

    def __init__(
        self,
        sim: Simulator,
        latency: LatencyModel | None = None,
        loss_rate: float = 0.0,
        batched: bool = False,
    ):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.sim = sim
        self.latency = latency or GeographicLatency()
        self.loss_rate = loss_rate
        # Batched delivery: messages on one (src, dst) link that land at
        # the same instant (bursts clamped together by the FIFO horizon)
        # share a single scheduled callback instead of one heap entry
        # each.  Per-message semantics are unchanged — loss/partition
        # checks still run at send time, liveness at delivery time, and
        # the burst drains in send order, so per-link FIFO holds.
        self.batched = batched
        self._batch_queues: dict[tuple[Address, Address, float], list[Message]] = {}
        self.stats = NetworkStats()
        self._hosts: dict[Address, "Host"] = {}
        self._partition: dict[Address, int] | None = None
        self._failed_links: set[frozenset] = set()
        self._failed_regions: list[Region] = []
        self._link_loss: dict[frozenset, float] = {}
        # Per-(src, dst) FIFO: messages between one ordered pair are
        # never delivered out of send order (jitter can stretch delays
        # but not overtake) — the guarantee a TCP-like transport gives,
        # and one the broker resync protocol relies on.  Multi-path
        # reordering across *different* pairs remains possible.
        self._fifo_horizon: dict[tuple[Address, Address], float] = {}
        self._rng = sim.rng_for("network")
        self._next_addr = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def allocate_address(self) -> int:
        addr = self._next_addr
        self._next_addr += 1
        return addr

    def register(self, host: "Host") -> None:
        if host.addr in self._hosts:
            raise ValueError(f"duplicate host address: {host.addr!r}")
        self._hosts[host.addr] = host

    def unregister(self, addr: Address) -> None:
        """Remove a host along with every piece of per-address link state.

        Link failures, per-link loss and queued batch slots must not
        outlive the address: addresses can be re-allocated (and a
        crashed broker may re-register under its old one), and a new
        host inheriting its predecessor's dead-link or loss entries
        would start life silently cut off.
        """
        self._hosts.pop(addr, None)
        for pair in [p for p in self._fifo_horizon if addr in p]:
            del self._fifo_horizon[pair]
        for link in [link for link in self._failed_links if addr in link]:
            self._failed_links.discard(link)
        for link in [link for link in self._link_loss if addr in link]:
            del self._link_loss[link]
        for slot in [s for s in self._batch_queues if addr in s[:2]]:
            del self._batch_queues[slot]

    def host(self, addr: Address) -> "Host | None":
        return self._hosts.get(addr)

    @property
    def hosts(self) -> list["Host"]:
        return list(self._hosts.values())

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def set_partition(self, groups: list[set[Address]]) -> None:
        """Split the network; messages between different groups are dropped.

        Hosts not mentioned in any group join an implicit final group.
        """
        mapping: dict[Address, int] = {}
        for index, group in enumerate(groups):
            for addr in group:
                mapping[addr] = index
        self._partition = mapping

    def heal_partition(self, merge: tuple[Address, Address] | None = None) -> None:
        """Heal the partition — fully, or one seam at a time.

        With no argument the whole network rejoins.  With
        ``merge=(a, b)`` only the two groups containing ``a`` and ``b``
        fuse; every other group stays cut off — the asymmetric healing
        pattern where one WAN seam comes back before the rest.
        """
        if merge is None or self._partition is None:
            self._partition = None
            return
        a, b = merge
        ga = self._partition.get(a, -1)
        gb = self._partition.get(b, -1)
        if ga == gb:
            return
        if -1 in (ga, gb):
            # Fusing with the implicit group means leaving the mapping.
            named = ga if gb == -1 else gb
            for addr in [x for x, g in self._partition.items() if g == named]:
                del self._partition[addr]
        else:
            for addr, g in list(self._partition.items()):
                if g == gb:
                    self._partition[addr] = ga

    def _partitioned(self, a: Address, b: Address) -> bool:
        if self._partition is None:
            return False
        ga = self._partition.get(a, -1)
        gb = self._partition.get(b, -1)
        return ga != gb

    # ------------------------------------------------------------------
    # Link failures and per-link loss
    # ------------------------------------------------------------------
    def fail_link(self, a: Address, b: Address) -> None:
        """Silently drop all traffic between ``a`` and ``b`` (both ways).

        Unlike a partition this kills one pairwise link only; unlike
        :meth:`unregister` both endpoints stay up.  Neither endpoint is
        told — noticing is the failure detector's job (heartbeats stop
        arriving), which is exactly what the self-healing overlay tests
        and the E5 heal-time phase exercise.
        """
        self._failed_links.add(frozenset((a, b)))

    def heal_link(self, a: Address, b: Address) -> None:
        """Revive a failed link; traffic (and heartbeats) flow again."""
        self._failed_links.discard(frozenset((a, b)))

    def fail_region(self, region: Region) -> None:
        """Correlated failure: drop every message touching ``region``.

        Models a regional outage (backbone cut, grid failure): any
        message whose source *or* destination currently sits inside the
        region's bounding box is dropped.  Positions are evaluated at
        send time, so mobile hosts leave or enter the blast radius as
        they move.  Hosts themselves stay alive — like
        :meth:`fail_link`, noticing is the failure detectors' job.
        """
        if region not in self._failed_regions:
            self._failed_regions.append(region)

    def heal_region(self, region: Region) -> None:
        """End a regional outage; traffic touching the region flows again."""
        self._failed_regions = [r for r in self._failed_regions if r != region]

    def region_failed(self, addr: Address) -> bool:
        """True if ``addr``'s current position lies in a failed region."""
        host = self._hosts.get(addr)
        return host is not None and self._in_failed_region(host)

    def _in_failed_region(self, host: "Host") -> bool:
        return any(r.contains(host.position) for r in self._failed_regions)

    def set_link_loss(self, a: Address, b: Address, rate: float) -> None:
        """Make one link flaky: drop each message with probability ``rate``.

        Independent of the network-wide ``loss_rate``; a rate of 0 clears
        the override.  Lets tests hold a detector's miss threshold against
        a lossy-but-alive link.
        """
        if not 0.0 <= rate < 1.0:
            raise ValueError("link loss rate must be in [0, 1)")
        key = frozenset((a, b))
        if rate == 0.0:
            self._link_loss.pop(key, None)
        else:
            self._link_loss[key] = rate

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(
        self,
        src: Address,
        dst: Address,
        payload: Any,
        size_bytes: int = 256,
    ) -> bool:
        """Queue a message for delivery.  Returns False if dropped eagerly.

        Loss and partitions are evaluated at send time; destination liveness
        is re-checked at delivery time so messages racing a crash are lost,
        exactly as on a real network.
        """
        self.stats.messages_sent += 1
        self.stats.bytes_sent += size_bytes
        src_host = self._hosts.get(src)
        dst_host = self._hosts.get(dst)
        if src_host is None or dst_host is None or not src_host.alive:
            self.stats.messages_dropped += 1
            return False
        if self._partitioned(src, dst):
            self.stats.messages_dropped += 1
            return False
        if self._failed_links and frozenset((src, dst)) in self._failed_links:
            self.stats.messages_dropped += 1
            return False
        if self._failed_regions and (
            self._in_failed_region(src_host) or self._in_failed_region(dst_host)
        ):
            self.stats.messages_dropped += 1
            return False
        if self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
            self.stats.messages_dropped += 1
            return False
        if self._link_loss:
            link_rate = self._link_loss.get(frozenset((src, dst)), 0.0)
            if link_rate > 0.0 and self._rng.random() < link_rate:
                self.stats.messages_dropped += 1
                return False
        message = Message(src, dst, payload, size_bytes, self.sim.now)
        delay = self.latency.delay(
            src_host.position, dst_host.position, size_bytes, self._rng
        )
        arrival = self.sim.now + delay
        pair = (src, dst)
        horizon = self._fifo_horizon.get(pair, 0.0)
        if arrival < horizon:
            arrival = horizon
        self._fifo_horizon[pair] = arrival
        if self.batched:
            slot = (src, dst, arrival)
            self._batch_queues.setdefault(slot, []).append(message)
            self.sim.coalesce_at(arrival, pair, self._deliver_batch, slot)
        else:
            self.sim.schedule_at(arrival, self._deliver, message)
        return True

    def _deliver_batch(self, slot: tuple[Address, Address, float]) -> None:
        """Drain one link's same-instant burst, in send order."""
        for message in self._batch_queues.pop(slot, ()):
            self._deliver(message)

    def _deliver(self, message: Message) -> None:
        host = self._hosts.get(message.dst)
        if host is None or not host.alive:
            self.stats.messages_dropped += 1
            return
        self.stats.messages_delivered += 1
        counter = self.stats.per_host_delivered
        counter[message.dst] = counter.get(message.dst, 0) + 1
        host._receive(message)
