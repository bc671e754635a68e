"""Rules: windows of event patterns + knowledge joins + guards + synthesis."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

from repro.knowledge.base import KnowledgeBase
from repro.matching.patterns import Bindings, EventPattern, FactPattern


@dataclass
class RuleContext:
    """What guards and actions may consult besides the bindings."""

    now: float
    kb: KnowledgeBase
    extras: dict = field(default_factory=dict)


Guard = Callable[[Bindings, RuleContext], bool]
Action = Callable[[Bindings, RuleContext], Any]  # Notification | list | None
KeyFn = Callable[[Bindings], Hashable]


def reads(*aliases: str) -> Callable[[Guard], Guard]:
    """Declare the aliases, event or fact, a guard reads: ``@reads("loc_a", "nationality_a")``.

    The engine runs a declared guard as soon as they are bound, so one that
    fails prunes every combination below; an undeclared guard runs last.
    """

    def declare(guard: Guard) -> Guard:
        guard.declared_reads = aliases
        return guard

    return declare


@dataclass(frozen=True)
class Rule:
    """One correlation rule of the matching engine.

    The engine fires ``action`` when, within ``window_s`` seconds, at least
    one event matched each pattern in ``events``, every fact pattern in
    ``facts`` resolved, and every guard returned True.  ``cooldown_s``
    suppresses repeat firings with the same correlation key (by default the
    set of event subjects), so a continuous sensor stream yields one
    suggestion, not one per reading.

    Facts, then guards, are checked in rule order, except that each runs as
    soon as what it reads is bound (:func:`reads`).  Beyond those aliases a
    guard may read only the stash of an earlier guard that reads no others.
    """

    name: str
    events: tuple
    window_s: float
    action: Action
    facts: tuple = ()
    guards: tuple = ()
    cooldown_s: float = 0.0
    correlation_key: KeyFn | None = None
    max_combinations: int = 128
    # Per-pattern window buffer capacity (entries, not entities): bounds
    # engine memory per alias against runaway sources.
    max_window_items: int = 256

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("rule needs a name")
        if not self.events:
            raise ValueError(f"rule {self.name!r} needs at least one event pattern")
        if self.window_s <= 0:
            raise ValueError(f"rule {self.name!r} needs a positive window")
        if self.max_window_items <= 0:
            raise ValueError(f"rule {self.name!r} needs a positive window capacity")
        aliases = [p.alias for p in self.events] + [p.alias for p in self.facts]
        if len(aliases) != len(set(aliases)):
            raise ValueError(f"rule {self.name!r} has duplicate aliases")
        for pattern in self.events:
            if not isinstance(pattern, EventPattern):
                raise TypeError(f"not an EventPattern: {pattern!r}")
        for pattern in self.facts:
            if not isinstance(pattern, FactPattern):
                raise TypeError(f"not a FactPattern: {pattern!r}")
        for guard in self.guards:
            unknown = set(getattr(guard, "declared_reads", ())) - set(aliases)
            if unknown:
                raise ValueError(f"rule {self.name!r}: a guard reads unknown {sorted(unknown)}")

    def default_key(self, bindings: Bindings) -> Hashable:
        """Correlation key when none is supplied: the sorted event subjects."""
        subjects = []
        for pattern in self.events:
            event = bindings[pattern.alias]
            subjects.append(str(event.get("subject", event.event_type)))
        return tuple(sorted(subjects))
