"""The subscription record kept by brokers."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.events.filters import Filter

_sub_counter = itertools.count(1)


def next_subscription_id() -> int:
    return next(_sub_counter)


@dataclass(frozen=True, slots=True)
class Subscription:
    """A filter registered by a client or a neighbouring broker."""

    sub_id: int
    filter: Filter
    subscriber: object  # client address or broker address

    @classmethod
    def fresh(cls, filter: Filter, subscriber: object) -> "Subscription":
        return cls(next_subscription_id(), filter, subscriber)
