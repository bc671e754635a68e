"""Type projection for matchlets (§5).

"Matchlets use type projection mechanisms for binding to the XML data
contained within the events."  An :class:`EventProjection` is a §3
:class:`~repro.xmlkit.projection.XmlProjection` over an ``<event>``
element, and :func:`project_event` binds it to the event's canonical XML
form with :func:`~repro.xmlkit.projection.project` — the same rules as
document projection (C7): extra attributes are ignored, a field the event
lacks or cannot supply takes its default, and one without a default raises.

Example::

    class LocationReading(EventProjection):
        subject: str
        lat: float
        lon: float

    def close_enough(bindings, ctx):
        reading = project_event(LocationReading, bindings["loc"])
        return reading.lat > 56.0
"""

from __future__ import annotations

from repro.events.model import Notification
from repro.xmlkit.codec import notification_to_xml
from repro.xmlkit.model import XmlElement
from repro.xmlkit.projection import ProjectionError, XmlProjection, project


class EventProjection(XmlProjection):
    """Declarative typed view over a notification's attributes."""

    __tag__ = "event"


def project_event(cls: type, event: Notification):
    """Bind ``event`` to the projection ``cls``; raises ProjectionError.

    Field resolution goes through the event's canonical XML form — the
    same bytes a remote pipeline component would receive — so the binding
    semantics are identical whether the event arrived locally or over the
    wire.
    """
    if not (isinstance(cls, type) and issubclass(cls, EventProjection)):
        raise TypeError("project_event() needs an EventProjection subclass")
    attrs = notification_to_xml(event).children_by_tag("attr")
    values = {attr.attrs["name"]: attr.attrs["value"] for attr in attrs}
    return project(cls, XmlElement("event", values))


def projects_event(cls: type, event: Notification) -> bool:
    """Non-raising convenience: does the event bind to ``cls``?"""
    try:
        project_event(cls, event)
        return True
    except ProjectionError:
        return False
