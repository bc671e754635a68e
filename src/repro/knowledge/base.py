"""In-memory knowledge base with subject/predicate/object indexes."""

from __future__ import annotations

import math

from repro.knowledge.facts import AttributeValue, Fact

# Timed answers memoised at once; past it the memo starts over, so a
# stream of one-off questions cannot grow it without bound.
MEMO_LIMIT = 1 << 14


class KnowledgeBase:
    """An indexed set of facts supporting pattern queries.

    Queries use ``None`` as a wildcard:
    ``kb.query(subject="bob", predicate=None)`` returns everything known
    about Bob (valid at the query time, when one is given).

    Subjects are indexed under ``str(subject)``: sensor feeds legitimately
    produce facts keyed by numeric ids, and ``kb.query(subject=7)`` and
    ``kb.query(subject="7")`` must find them either way.  ``version``
    counts successful mutations.

    Timed answers are memoised under the normalised query, with the
    half-open interval ``[lo, hi)`` in which they stay exact: a valid
    candidate fact bounds it by ``valid_from`` and the instant just past
    ``valid_to`` (``valid_at`` is closed), one not valid yet by its
    ``valid_from``, an expired one by the instant just past its
    ``valid_to``.  Hits count in ``memo_hits``; ``add``/``remove`` clear it.

    Objects are indexed twice, serving the two lookup disciplines:

    * ``_by_object`` keys on the raw value, so ``query(object=...)``
      narrows to the exact ``==`` equivalence class the scan filter uses
      (Python folds ``True``/``1``/``1.0`` together in both, so the
      bucket *is* the class) instead of walking a whole predicate
      bucket.
    * ``_by_object_str`` keys on ``str(object)`` — the engine's
      reverse-link discipline (:meth:`query_object_str`), symmetric
      with the subject index so ``knows → 7`` finds int-object facts
      whether the anchor arrives as ``7`` or ``"7"``.
    """

    def __init__(self) -> None:
        self._facts: set[Fact] = set()
        self._by_subject: dict[str, set[Fact]] = {}
        self._by_predicate: dict[str, set[Fact]] = {}
        self._by_object: dict[AttributeValue, set[Fact]] = {}
        self._by_object_str: dict[str, set[Fact]] = {}
        self._version = 0
        # Normalised query → (lo, hi, answer); see the class docstring.
        self._memo: dict[tuple, tuple[float, float, tuple[Fact, ...]]] = {}
        self.memo_hits = 0

    @property
    def version(self) -> int:
        """Increments on every successful ``add``/``remove``."""
        return self._version

    def add(self, fact: Fact) -> bool:
        if fact in self._facts:
            return False
        self._facts.add(fact)
        self._by_subject.setdefault(str(fact.subject), set()).add(fact)
        self._by_predicate.setdefault(fact.predicate, set()).add(fact)
        self._by_object.setdefault(fact.object, set()).add(fact)
        self._by_object_str.setdefault(str(fact.object), set()).add(fact)
        self._version += 1
        self._memo.clear()
        return True

    def remove(self, fact: Fact) -> bool:
        if fact not in self._facts:
            return False
        self._facts.discard(fact)
        self._discard_index(self._by_subject, str(fact.subject), fact)
        self._discard_index(self._by_predicate, fact.predicate, fact)
        self._discard_index(self._by_object, fact.object, fact)
        self._discard_index(self._by_object_str, str(fact.object), fact)
        self._version += 1
        self._memo.clear()
        return True

    @staticmethod
    def _discard_index(index: dict, key, fact: Fact) -> None:
        members = index.get(key)
        if members is not None:
            members.discard(fact)
            if not members:
                del index[key]

    def retract(self, subject: str, predicate: str) -> int:
        """Remove every fact with the given subject and predicate."""
        victims = [
            f for f in self._by_subject.get(str(subject), ()) if f.predicate == predicate
        ]
        for fact in victims:
            self.remove(fact)
        return len(victims)

    def __len__(self) -> int:
        return len(self._facts)

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._facts

    # ------------------------------------------------------------------
    def query(
        self,
        subject: str | None = None,
        predicate: str | None = None,
        object: AttributeValue | None = None,
        at_time: float | None = None,
    ) -> list[Fact]:
        """All facts matching the non-None fields, valid at ``at_time``."""
        key = (None if subject is None else str(subject), predicate, object)
        if (cached := self._recall(key, at_time)) is not None:
            return cached
        pools = []
        if subject is not None:
            pools.append(self._by_subject.get(str(subject), set()))
        if predicate is not None:
            pools.append(self._by_predicate.get(predicate, set()))
        if object is not None:
            # The raw-value bucket is the ``==`` equivalence class the
            # residual filter below re-checks (the filter only still
            # matters for never-self-equal values like NaN).  ``1``,
            # ``1.0`` and ``True`` share that class, and so a memo key.
            pools.append(self._by_object.get(object, set()))
        if pools:
            candidates = set.intersection(*pools) if len(pools) > 1 else pools[0]
        else:
            candidates = self._facts
        if object is not None:
            candidates = [fact for fact in candidates if fact.object == object]
        return self._remember(key, candidates, at_time)

    def query_object_str(
        self,
        object: AttributeValue,
        predicate: str | None = None,
        at_time: float | None = None,
    ) -> list[Fact]:
        """Facts whose ``str(object)`` equals ``str(object)`` argument.

        The reverse-link lookup: symmetric with the subject index's
        ``str`` discipline, so ``query_object_str(7)`` and
        ``query_object_str("7")`` both find a fact whose object is the
        int ``7`` — previously this required scanning the whole
        predicate bucket.
        """
        key = (str(object), predicate)  # a pair: never equal to query()'s triples
        if (cached := self._recall(key, at_time)) is not None:
            return cached
        candidates = self._by_object_str.get(str(object), set())
        if predicate is not None:
            candidates = candidates & self._by_predicate.get(predicate, set())
        return self._remember(key, candidates, at_time)

    def _recall(self, key: tuple, at_time: float | None) -> list[Fact] | None:
        entry = self._memo.get(key) if at_time is not None else None
        if entry is None or not entry[0] <= at_time < entry[1]:
            return None
        self.memo_hits += 1
        return list(entry[2])

    def _remember(self, key: tuple, candidates, at_time: float | None) -> list[Fact]:
        """The candidates valid at ``at_time``, sorted; memoised when timed."""
        lo, hi, out = -math.inf, math.inf, []
        for fact in candidates:
            if at_time is None or fact.valid_at(at_time):
                out.append(fact)
                lo = max(lo, fact.valid_from)
                hi = min(hi, math.nextafter(fact.valid_to, math.inf))
            elif at_time < fact.valid_from:
                hi = min(hi, fact.valid_from)
            else:
                lo = max(lo, math.nextafter(fact.valid_to, math.inf))
        out.sort(key=lambda f: (str(f.subject), f.predicate, str(f.object)))
        if at_time is not None:
            if len(self._memo) >= MEMO_LIMIT:
                self._memo.clear()
            self._memo[key] = (lo, hi, tuple(out))
        return out

    def value(
        self,
        subject: str,
        predicate: str,
        default: AttributeValue | None = None,
        at_time: float | None = None,
    ) -> AttributeValue | None:
        """The single object for (subject, predicate), or ``default``."""
        matches = self.query(subject=subject, predicate=predicate, at_time=at_time)
        return matches[0].object if matches else default

    def holds(
        self,
        subject: str,
        predicate: str,
        object: AttributeValue = True,
        at_time: float | None = None,
    ) -> bool:
        return bool(
            self.query(subject=subject, predicate=predicate, object=object, at_time=at_time)
        )
