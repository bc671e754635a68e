"""Patterns: what a rule looks for in event streams and the knowledge base."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.events.filters import Constraint
from repro.events.model import Notification

Bindings = dict[str, Any]


@dataclass(frozen=True)
class Ref:
    """A reference into earlier bindings: ``Ref("loc_a", "subject")``.

    With ``attr`` set, the referenced binding must be a notification and the
    named attribute is extracted; without it the binding itself is used.
    """

    alias: str
    attr: str | None = None

    def resolve(self, bindings: Bindings) -> Any:
        value = bindings[self.alias]
        if self.attr is None:
            return value
        if not isinstance(value, Notification):
            raise TypeError(f"binding {self.alias!r} is not an event")
        return value[self.attr]


def resolve_operand(operand: Any, bindings: Bindings) -> Any:
    """Literals pass through; Refs and callables are evaluated."""
    if isinstance(operand, Ref):
        return operand.resolve(bindings)
    if callable(operand):
        return operand(bindings)
    return operand


@dataclass(frozen=True)
class EventPattern:
    """Match one event by type plus optional content constraints."""

    alias: str
    event_type: str
    constraints: tuple = ()

    def __post_init__(self) -> None:
        if not self.alias:
            raise ValueError("event pattern needs an alias")
        for constraint in self.constraints:
            if not isinstance(constraint, Constraint):
                raise TypeError(f"not a Constraint: {constraint!r}")

    def matches(self, event: Notification) -> bool:
        if event.event_type != self.event_type:
            return False
        return all(c.matches(event) for c in self.constraints)


@dataclass(frozen=True)
class FactPattern:
    """Join against the knowledge base.

    ``subject`` (and optionally ``object``) may be literals, :class:`Ref`s
    into event bindings, or callables over the bindings.  On success the
    fact's object value is bound under ``alias``; a required pattern with no
    matching fact vetoes the whole correlation.
    """

    alias: str
    subject: Any
    predicate: str
    object: Any = None  # None = bind whatever is found
    required: bool = True
    default: Any = None

    def __post_init__(self) -> None:
        if not self.alias:
            raise ValueError("fact pattern needs an alias")
        if not self.predicate:
            raise ValueError("fact pattern needs a predicate")
