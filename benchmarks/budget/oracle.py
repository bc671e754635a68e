"""Reference deliveries, worked out without the program's matching fabric.

For a fixed sample of the events a workload publishes, the oracle
evaluates every live subscription with the plain ``Filter.matches`` scan
— no index, no covering, no routing — and requires the per-client
multiset the program delivered to equal it.  Outside the sample it can
only check what needs no reference: that nobody got an event twice.

An *operation* is one expected delivery.  Missing, duplicated and
unexpected deliveries are failures; the workloads add the open-loop
deliveries that arrived later than their deadline.  The digest is an
order-independent SHA-256 over the sampled deliveries, so two runs of
one seed can be compared without keeping either's output.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from typing import Any, Hashable, Iterable

from repro.events.filters import Filter, Op
from repro.events.model import Notification


@dataclass
class Verdict:
    attempted: int
    failed: int
    digest: str
    sampled_events: int
    notes: list[str]


class Oracle:
    def __init__(self) -> None:
        self.expected: Counter = Counter()
        self.sampled: set = set()

    def expect(
        self,
        events: Iterable[tuple[Hashable, Notification]],
        subscriptions: Iterable[tuple[Hashable, Filter]],
        publisher: Hashable = None,
    ) -> None:
        """Add ``events`` (``(key, notification)`` pairs) to the sample.

        ``subscriptions`` is the live ``(client, filter)`` population at
        the time they are published.  A client hears of an event once
        however many of its filters match, and never of its own.
        """
        pinned: dict[str, dict[Any, list]] = {}
        unpinned: list[tuple[Hashable, Filter]] = []
        for entry in subscriptions:
            # A conjunctive filter with an equality constraint cannot
            # match an event carrying another value, so it is only
            # evaluated against events that carry that one (dict lookup
            # folds 1/1.0/True together; ``matches`` then decides).
            pin = next((c for c in entry[1].constraints if c.op is Op.EQ), None)
            if pin is None:
                unpinned.append(entry)
            else:
                pinned.setdefault(pin.name, {}).setdefault(pin.value, []).append(entry)
        for key, notification in events:
            self.sampled.add(key)
            heard = set()
            for client, filter in unpinned:
                if filter.matches(notification):
                    heard.add(client)
            for name, by_value in pinned.items():
                for client, filter in by_value.get(notification.get(name), ()):
                    if filter.matches(notification):
                        heard.add(client)
            heard.discard(publisher)
            for client in heard:
                self.expected[(client, key)] += 1

    def verify(self, delivered: Iterable[tuple[Hashable, Iterable[Hashable]]]) -> Verdict:
        """Compare everything the program delivered with the reference.

        ``delivered`` holds, per client, the keys of the events it heard.
        """
        got: Counter = Counter()
        outside = repeats = 0
        sampled = self.sampled
        for client, keys in delivered:
            rest = []
            for key in keys:
                if key in sampled:
                    got[(client, key)] += 1
                else:
                    rest.append(key)
            outside += len(rest)
            repeats += len(rest) - len(set(rest))
        missing = self.expected - got
        surplus = got - self.expected  # duplicated or unexpected
        notes = []
        if missing:
            notes.append(f"{sum(missing.values())} sampled deliveries missing, e.g. {next(iter(missing))}")
        if surplus:
            notes.append(f"{sum(surplus.values())} sampled deliveries duplicated or unexpected, e.g. {next(iter(surplus))}")
        if repeats:
            notes.append(f"{repeats} duplicate deliveries outside the sample")
        digest = hashlib.sha256()
        for client, key in sorted(got.elements(), key=repr):
            digest.update(f"{client!r}:{key!r};".encode())
        return Verdict(
            attempted=sum(self.expected.values()) + sum(surplus.values()) + outside,
            failed=sum(missing.values()) + sum(surplus.values()) + repeats,
            digest=digest.hexdigest(),
            sampled_events=len(self.sampled),
            notes=notes,
        )
