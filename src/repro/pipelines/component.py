"""Pipeline components: the unit of composition in the matching engine.

Every component exposes ``put(event)`` — the same interface whether the
caller is a local upstream component, a remote connector, or a sensor
wrapper.  ``on_event`` returns the event(s) to pass downstream (or None to
drop), keeping components small and independent (§4.2).
"""

from __future__ import annotations

from typing import Callable

from repro.events.model import Notification


class PipelineComponent:
    """Base class; subclasses override :meth:`on_event`."""

    def __init__(self, name: str = ""):
        self.name = name or type(self).__name__
        self.downstream: list["PipelineComponent"] = []
        self.events_in = 0
        self.events_out = 0

    # -- wiring ----------------------------------------------------------
    def connect(self, other: "PipelineComponent") -> "PipelineComponent":
        """Wire this component's output to ``other``; returns ``other``."""
        if other not in self.downstream:
            self.downstream.append(other)
        return other

    def disconnect(self, other: "PipelineComponent") -> None:
        if other in self.downstream:
            self.downstream.remove(other)

    # -- event flow --------------------------------------------------------
    def put(self, event: Notification) -> None:
        """Receive one event (the paper's ``put(event)`` interface)."""
        self.events_in += 1
        result = self.on_event(event)
        if result is None:
            return
        if isinstance(result, Notification):
            self.emit(result)
        else:
            for out in result:
                self.emit(out)

    def on_event(self, event: Notification):
        """Transform/filter one event.  Default: pass through unchanged."""
        return event

    def emit(self, event: Notification) -> None:
        self.events_out += 1
        for component in list(self.downstream):
            component.put(event)

    def stop(self) -> None:
        """Release resources (timers, subscriptions).  Default: nothing."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} in={self.events_in} out={self.events_out}>"


class FunctionComponent(PipelineComponent):
    """Wrap a plain callable: ``event -> event | iterable | None``."""

    def __init__(self, fn: Callable[[Notification], object], name: str = ""):
        super().__init__(name or getattr(fn, "__name__", "fn"))
        self._fn = fn

    def on_event(self, event: Notification):
        return self._fn(event)


class SourceComponent(PipelineComponent):
    """An event source: call :meth:`inject` to push events into a pipeline."""

    def inject(self, event: Notification) -> None:
        self.events_in += 1
        self.emit(event)

    def on_event(self, event: Notification):
        return event


class Probe(PipelineComponent):
    """A sink that records everything it sees (used by tests and gauges)."""

    def __init__(self, name: str = "probe"):
        super().__init__(name)
        self.events: list[Notification] = []

    def on_event(self, event: Notification):
        self.events.append(event)
        return None
