"""XML event buses: filtered fan-out inside a node (§4.2).

"XML event buses allow incoming events to be delivered to multiple
downstream components, which may reside on the same node or on remote
nodes."  Subscribers attach with an optional content filter.
"""

from __future__ import annotations

from repro.events.filters import Filter
from repro.events.model import Notification
from repro.pipelines.component import PipelineComponent


class EventBus(PipelineComponent):
    """Fan-out with per-subscriber content filters."""

    def __init__(self, name: str = "bus"):
        super().__init__(name)
        self._subscribers: list[tuple[Filter | None, PipelineComponent]] = []

    def subscribe(
        self, component: PipelineComponent, filter: Filter | None = None
    ) -> None:
        self._subscribers.append((filter, component))

    def unsubscribe(self, component: PipelineComponent) -> None:
        self._subscribers = [
            (flt, comp) for flt, comp in self._subscribers if comp is not component
        ]

    def on_event(self, event: Notification):
        for flt, component in list(self._subscribers):
            if flt is None or flt.matches(event):
                component.put(event)
        # Plain downstream connections receive everything, like subscribers
        # with no filter.
        return event
