"""Resource advertisement (§4.4).

"Nodes will advertise their resource availability, physical and logical
connectivity, geographic location etc. via publish events on a P2P system."

Both producers of the ``resource`` digest ``HeartbeatMonitor.on_event``
parses — :class:`ResourceAdvertiser` beside a thin server,
:class:`BrokerMetrics` on a broker — build it with :func:`resource_event`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.events.model import AttributeValue, Notification, make_event
from repro.net.geo import Position, region_of
from repro.simulation import PeriodicTask, Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.events.broker import BrokerNode
    from repro.net.network import Address

# Control-plane event types, in ``ActiveArchitecture``'s subscribe order.
# Not service demand: the metrics layer must not let its own plumbing (or
# the failure detector's) pollute the demand-age signal migrations key on.
CONTROL_EVENT_TYPES = ("resource", "node-leaving", "node-failed", "node-recovered")

# Events/second a broker host is sized for: the rate ``load`` reports as 1.0.
CAPACITY_EPS = 200.0


def resource_event(
    now: float, node_id: str, addr, position: Position, load: float,
    **extra: AttributeValue,
) -> Notification:
    """The ``resource`` digest for one node (``load`` already rounded)."""
    return make_event(
        "resource",
        time=now,
        node=node_id,
        addr=int(addr),
        region=region_of(position),
        lat=position.lat,
        lon=position.lon,
        load=load,
        capacity=1.0,
        **extra,
    )


class ResourceAdvertiser:
    """Periodically publishes one node's resource availability."""

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        addr,
        position: Position,
        publish: Callable[[Notification], None],
        period_s: float = 30.0,
    ):
        self.sim = sim
        self.node_id = node_id
        self.addr = addr
        self.position = position
        self.publish = publish
        self.load = 0.0
        self._rng = sim.rng_for(f"adv-{node_id}")
        self._task = PeriodicTask(
            sim, period_s, self._advertise, jitter=0.2, rng=self._rng
        )

    def _advertise(self) -> None:
        # Load follows a bounded random walk; deployments add real load via
        # record_deployment.
        self.load = min(1.0, max(0.0, self.load + self._rng.uniform(-0.05, 0.05)))
        self.publish(
            resource_event(
                self.sim.now, self.node_id, self.addr, self.position,
                round(self.load, 3),
            )
        )

    def record_deployment(self, weight: float = 0.1) -> None:
        self.load = min(1.0, self.load + weight)

    def announce_departure(self) -> None:
        """Graceful withdrawal (§4.4): warn before leaving."""
        self.publish(
            make_event(
                "node-leaving",
                time=self.sim.now,
                node=self.node_id,
                addr=int(self.addr),
            )
        )
        self._task.stop()

    def stop(self) -> None:
        self._task.stop()


class BrokerMetrics:
    """Export one broker's load/queue/latency digest on the event fabric.

    §4.4's monitoring loop starts here: the broker itself periodically
    publishes a ``resource`` event (through its own publication path, so
    the metrics ride the same fabric as the traffic they describe)
    carrying

    * ``load`` — processed-notification rate over the interval, as a
      fraction of ``CAPACITY_EPS`` (events/second the host is sized for);
    * ``queue_depth`` — notifications parked in mobility proxy buffers;
    * ``event_age`` — mean of ``now - notification.time`` over the
      service publications (everything but ``CONTROL_EVENT_TYPES``)
      processed this interval.  A host far from the
      traffic's producers sees events that are already old on arrival,
      so this is the decentralised delivery-latency signal a
      :class:`~repro.evolution.constraints.LoadConstraint` migrates on.
      Omitted entirely when the interval carried no service traffic.

    ``deploy_addr`` is the address migration targets should be deployed
    to (the thin server co-located with this broker); it defaults to the
    broker's own address.
    """

    def __init__(
        self,
        broker: "BrokerNode",
        node_id: str,
        period_s: float = 20.0,
        deploy_addr: "Address | None" = None,
    ):
        self.broker = broker
        self.node_id = node_id
        self.period_s = period_s
        self.deploy_addr = deploy_addr if deploy_addr is not None else broker.addr
        self._age_sum = 0.0
        self._age_count = 0
        self._last_processed = broker.notifications_processed
        broker.metrics = self
        self._task = PeriodicTask(broker.sim, period_s, self._publish_metrics)

    def observe(self, notification: Notification) -> None:
        """Called by the broker for every publication it processes."""
        if notification.event_type in CONTROL_EVENT_TYPES:
            return
        if "time" not in notification:
            return
        self._age_sum += max(0.0, self.broker.sim.now - notification.time)
        self._age_count += 1

    def _publish_metrics(self) -> None:
        broker = self.broker
        processed = broker.notifications_processed - self._last_processed
        self._last_processed = broker.notifications_processed
        rate = processed / self.period_s
        extra: dict = {
            "rate": round(rate, 4),
            "queue_depth": sum(len(buffer) for buffer in broker.proxies.values()),
        }
        if self._age_count:
            extra["event_age"] = self._age_sum / self._age_count
        self._age_sum = 0.0
        self._age_count = 0
        # Injected as a locally-originated publication: the digest routes
        # through the overlay exactly like the traffic it measures.
        broker.inject_publication(
            None,
            resource_event(
                broker.sim.now, self.node_id, self.deploy_addr, broker.position,
                round(min(1.0, rate / CAPACITY_EPS), 4), **extra,
            ),
        )

    def stop(self) -> None:
        self._task.stop()
