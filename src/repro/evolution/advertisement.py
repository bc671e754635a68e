"""Resource advertisement (§4.4).

"Nodes will advertise their resource availability, physical and logical
connectivity, geographic location etc. via publish events on a P2P system."
"""

from __future__ import annotations

from typing import Callable

from repro.events.model import Notification, make_event
from repro.net.geo import Position, region_of
from repro.simulation import PeriodicTask, Simulator


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
        capacity: float = 1.0,
    ):
        self.sim = sim
        self.node_id = node_id
        self.addr = addr
        self.position = position
        self.publish = publish
        self.capacity = capacity
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
            make_event(
                "resource",
                time=self.sim.now,
                node=self.node_id,
                addr=int(self.addr),
                region=region_of(self.position),
                lat=self.position.lat,
                lon=self.position.lon,
                load=round(self.load, 3),
                capacity=self.capacity,
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
