"""Sliding time-window buffers for event correlation.

Besides the raw entry deque, the buffer keeps one incremental
subject-keyed index so KB-guided joins can do keyed lookups instead of
materializing and filtering the whole window per enumeration level:

- ``_heads``: ``str(subject)`` → {entity key → that entity's latest
  ``(time, event)``}, the subject-keyed view of ``_latest``.  Like
  ``_latest`` it is bounded by the window only, so a flood of other
  subjects' events cannot push a quiet subject's head out of reach.

The per-subject entry lookups (:meth:`TimeWindowBuffer.subjects`,
:meth:`TimeWindowBuffer.recent_for_subject`) are filters of
:meth:`TimeWindowBuffer.recent`: the engine joins over heads only.
"""

from __future__ import annotations

from collections import deque
from heapq import nsmallest
from typing import Any, Iterable

from repro.events.model import Notification


class TimeWindowBuffer:
    """Events of one pattern seen in the last ``window_s`` seconds.

    Bounded both by time and by ``max_items`` so a runaway source cannot
    exhaust memory; the correlation loss from dropping the oldest items is
    the standard CEP trade-off.
    """

    def __init__(self, window_s: float, max_items: int = 256):
        if window_s <= 0:
            raise ValueError("window must be positive")
        self.window_s = window_s
        self.max_items = max_items
        self._entries: deque[tuple[float, Notification]] = deque(maxlen=max_items)
        # Latest event per entity, bounded by the window only: a flood of
        # other entities' events must not evict a quiet entity's state.
        self._latest: dict = {}
        # Entity key → rank of its first appearance in _latest.  Iteration
        # order of _latest is ascending rank, so sorting any subset of
        # heads by (-time, rank) reproduces recent_distinct's order (a
        # stable sort by -time over _latest's insertion order) exactly.
        self._first_seq: dict = {}
        self._seq = 0
        # Subject-keyed index (see module docstring).
        self._heads: dict[str, dict[Any, tuple[float, Notification]]] = {}
        # Entity key → the subject string its head is filed under in _heads.
        self._entity_subject: dict[Any, str] = {}
        # Adaptive prune threshold for the window-bounded head maps: a
        # fixed 2*max_items bar would trigger a full O(live) rebuild on
        # EVERY add once the window holds that many live entities, so the
        # bar re-arms at 2× the surviving population after each prune
        # (amortized O(1) per add; queries filter by cutoff regardless).
        self._prune_at = 2 * max_items

    @staticmethod
    def _entity_key(event: Notification):
        # ``is not None``, not truthiness: sensor id 0 is an entity too.
        subject, area = event.get("subject"), event.get("area")
        return subject if subject is not None else area if area is not None else id(event)

    @staticmethod
    def _subject_key(event: Notification) -> str | None:
        subject = event.get("subject")
        return None if subject is None else str(subject)

    def add(self, time: float, event: Notification) -> None:
        self._entries.append((time, event))  # maxlen drops the oldest
        ekey = self._entity_key(event)
        skey = self._subject_key(event)
        if ekey not in self._latest:
            self._seq += 1
            self._first_seq[ekey] = self._seq
        self._latest[ekey] = (time, event)
        old_skey = self._entity_subject.get(ekey)
        if old_skey is not None and old_skey != skey:
            self._drop_head(old_skey, ekey)
        if skey is not None:
            self._entity_subject[ekey] = skey
            self._heads.setdefault(skey, {})[ekey] = (time, event)
        elif old_skey is not None:
            del self._entity_subject[ekey]
        self.evict(time)

    def _drop_head(self, skey: str, ekey: Any) -> None:
        bucket = self._heads.get(skey)
        if bucket is not None:
            bucket.pop(ekey, None)
            if not bucket:
                del self._heads[skey]

    def evict(self, now: float) -> None:
        cutoff = now - self.window_s
        while self._entries and self._entries[0][0] < cutoff:
            self._entries.popleft()
        if len(self._latest) > self._prune_at:
            self._latest = {
                key: (t, e) for key, (t, e) in self._latest.items() if t >= cutoff
            }
            self._first_seq = {
                key: seq for key, seq in self._first_seq.items() if key in self._latest
            }
            self._entity_subject = {
                key: skey
                for key, skey in self._entity_subject.items()
                if key in self._latest
            }
            heads: dict[str, dict[Any, tuple[float, Notification]]] = {}
            for ekey, skey in self._entity_subject.items():
                heads.setdefault(skey, {})[ekey] = self._latest[ekey]
            self._heads = heads
            self._prune_at = max(2 * self.max_items, 2 * len(self._latest))

    def recent(self, now: float, limit: int | None = None) -> list[Notification]:
        """Events still inside the window, newest first."""
        self.evict(now)
        events = [event for _, event in reversed(self._entries)]
        return events if limit is None else events[:limit]

    def recent_distinct(self, now: float, limit: int | None = None) -> list[Notification]:
        """Newest event *per entity* within the window, newest first.

        The entity key is the ``subject`` attribute when present, else
        ``area``, else the event itself.  Context streams are state-like —
        only a person's latest position or an area's latest temperature
        matters for correlation — so joins work over per-entity heads, and
        a flood of strangers' events cannot push a friend's latest fix out
        of consideration.

        A small ``limit`` (the engine's unguided ``per_pool_limit``
        probes) is served by a bounded heap selection — O(heads·log
        limit) instead of sorting the whole head population.  Both paths
        order by (-time, first-appearance rank): the rank is what the
        stable full sort ordered ties by, so the selections agree
        exactly.
        """
        cutoff = now - self.window_s
        first_seq = self._first_seq
        live = (
            (-time, first_seq[key], event)
            for key, (time, event) in self._latest.items()
            if time >= cutoff
        )
        if limit is not None and limit < len(self._latest):
            # Ranks are unique, so tuple comparison never reaches the
            # (uncomparable) event in the third slot.
            return [event for _, _, event in nsmallest(limit, live)]
        heads = [event for _, _, event in sorted(live)]
        return heads if limit is None else heads[:limit]

    # -- subject-keyed lookups -----------------------------------------
    def subjects(self, now: float) -> set[str]:
        """Subject strings with at least one entry still in the buffer."""
        keys = {self._subject_key(event) for event in self.recent(now)}
        keys.discard(None)
        return keys

    def recent_for_subject(
        self, now: float, subject, limit: int | None = None
    ) -> list[Notification]:
        """One subject's buffered entries, newest first: :meth:`recent`
        filtered on ``str(subject)``."""
        skey = str(subject)
        events = [e for e in self.recent(now) if self._subject_key(e) == skey]
        return events if limit is None else events[:limit]

    def heads_for_subjects(
        self, now: float, subjects: Iterable[str]
    ) -> list[Notification]:
        """Per-entity heads whose subject string is in ``subjects``.

        Exactly ``recent_distinct(now)`` filtered to those subjects — same
        events, same newest-first order — but served by keyed lookups, so
        the cost scales with the correlated set, not the window population.
        """
        cutoff = now - self.window_s
        live = []
        for skey in set(subjects):
            bucket = self._heads.get(skey)
            if not bucket:
                continue
            for ekey, (time, event) in bucket.items():
                if time >= cutoff:
                    live.append((-time, self._first_seq[ekey], event))
        live.sort(key=lambda item: (item[0], item[1]))
        return [event for _, _, event in live]

    def __len__(self) -> int:
        return len(self._entries)
