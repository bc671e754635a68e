"""The correlation engine: windowed joins of events against knowledge.

"The major difficulty is in extracting the correlated set in the first
place, from the huge number of items available" (§1.1).  The engine keeps a
sliding window per (rule, pattern); each arriving event is pinned to the
patterns it matches and joined against the other patterns' windows, the
knowledge base and the guards.  Successful correlations run the rule's
action, whose output events are the engine's synthesised, higher-level
stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.events.model import Notification
from repro.knowledge.base import KnowledgeBase
from repro.matching.patterns import Bindings, Ref, resolve_operand
from repro.matching.rules import Rule, RuleContext
from repro.matching.window import TimeWindowBuffer
from repro.simulation import Simulator


@dataclass
class EngineStats:
    events_in: int = 0
    candidate_joins: int = 0
    matches: int = 0
    synthesized: int = 0
    guard_errors: int = 0
    suppressed_by_cooldown: int = 0
    # Window entries materialized across all enumeration levels: the work
    # the subject index is meant to cut (full-window heads scanned when
    # naive, keyed hits when indexed).
    window_scanned: int = 0
    # KB link lookups: those the KB computed vs those its memo answered.
    kb_link_queries: int = 0
    kb_link_memo_hits: int = 0


class MatchingEngine:
    """Correlates event streams with the knowledge base under rules."""

    def __init__(
        self,
        sim: Simulator,
        kb: KnowledgeBase,
        rules: tuple | list = (),
        extras: dict | None = None,
        kb_guided_joins: bool = True,
        indexed: bool = True,
        indexed_windows: bool = True,
    ):
        self.sim = sim
        self.kb = kb
        self.extras = extras or {}
        # Ablation switch (benchmark A2): without KB guidance the join
        # enumerates raw per-entity pools under the combination budget.
        self.kb_guided_joins = kb_guided_joins
        # Event→pattern pinning (the engine's own ``_patterns_by_type``
        # buckets, not ``PredicateIndex``): patterns are filed under their
        # (exact-match) event type, so an arriving event touches only the
        # rules that could possibly pin it.
        # ``indexed=False`` restores the seed's every-rule scan.
        self.indexed = indexed
        # Ablation switch (benchmarks A2/E9): with ``indexed_windows`` a
        # KB-guided enumeration level does keyed per-subject lookups into
        # the window buffer; ``False`` restores the materialize-the-whole-
        # window-and-filter scan.  Both modes synthesize identical events
        # (tests/test_join_equivalence.py enforces it).
        self.indexed_windows = indexed_windows
        self.rules: dict[str, Rule] = {}
        self._buffers: dict[str, dict[str, TimeWindowBuffer]] = {}
        self._patterns_by_type: dict[str, list[tuple[str, object]]] = {}
        self._last_fired: dict[tuple, float] = {}
        self.stats = EngineStats()
        for rule in rules:
            self.add_rule(rule)

    # ------------------------------------------------------------------
    def add_rule(self, rule: Rule) -> None:
        if rule.name in self.rules:
            raise ValueError(f"duplicate rule: {rule.name}")
        self.rules[rule.name] = rule
        self._buffers[rule.name] = {
            pattern.alias: TimeWindowBuffer(
                rule.window_s, max_items=rule.max_window_items
            )
            for pattern in rule.events
        }
        for pattern in rule.events:
            self._patterns_by_type.setdefault(pattern.event_type, []).append(
                (rule.name, pattern)
            )

    def remove_rule(self, name: str) -> bool:
        if name not in self.rules:
            return False
        rule = self.rules.pop(name)
        del self._buffers[name]
        for event_type in {pattern.event_type for pattern in rule.events}:
            kept = [
                entry for entry in self._patterns_by_type[event_type]
                if entry[0] != name
            ]
            if kept:
                self._patterns_by_type[event_type] = kept
            else:
                del self._patterns_by_type[event_type]
        return True

    @property
    def known_event_types(self) -> set[str]:
        return {
            pattern.event_type
            for rule in self.rules.values()
            for pattern in rule.events
        }

    # ------------------------------------------------------------------
    def ingest(self, event: Notification) -> list[Notification]:
        """Process one event; returns the synthesised events (if any)."""
        self.stats.events_in += 1
        now = self.sim.now
        out: list[Notification] = []
        if self.indexed:
            # The per-type bucket lists patterns in rule-registration order,
            # so iterating the hits directly preserves the rule order of the
            # naive scan while touching only the rules the event pins.
            hits_by_rule: dict[str, list[str]] = {}
            for rule_name, pattern in self._patterns_by_type.get(event.event_type, ()):
                if all(c.matches(event) for c in pattern.constraints):
                    hits_by_rule.setdefault(rule_name, []).append(pattern.alias)
            rule_hits = [
                (self.rules[name], aliases) for name, aliases in hits_by_rule.items()
            ]
        else:
            rule_hits = []
            for rule in list(self.rules.values()):
                hit_aliases = [p.alias for p in rule.events if p.matches(event)]
                if hit_aliases:
                    rule_hits.append((rule, hit_aliases))
        for rule, hit_aliases in rule_hits:
            buffers = self._buffers[rule.name]
            for alias in hit_aliases:
                buffers[alias].add(now, event)
            for alias in hit_aliases:
                if not self._vetoed(rule, alias, event, now):
                    out.extend(self._join(rule, alias, event, now))
        self.stats.synthesized += len(out)
        return out

    def _vetoed(self, rule: Rule, alias: str, pinned: Notification, now: float) -> bool:
        """Whether a leading fact pattern fails every join pinned at ``pinned``.

        A required pattern over a pinned-event attribute with a literal (or
        no) object reads nothing the enumeration binds: it answers alike for
        every join, so one in the leading run with no valid fact fails them
        all, each before any guard runs.
        """
        for pattern in rule.facts:
            subject, expected = pattern.subject, pattern.object
            if not (pattern.required and isinstance(subject, Ref) and subject.alias == alias
                    and not isinstance(expected, Ref) and not callable(expected)):
                return False
            facts = self._fact_matches(pattern, {alias: pinned}, now)
            if not facts:
                # None: an operand will not resolve, a guard error each join counts.
                return facts is not None
        return False

    def ingest_batch(self, events: list) -> list[Notification]:
        """Process a burst of events; returns all synthesised events.

        Correlation is inherently order-sensitive — each event must see
        the windows as its predecessors left them, and a rule's action
        may add or remove rules mid-burst — so events run through the
        full :meth:`ingest` pipeline one at a time, in order: the result
        is exactly the concatenation of per-event ``ingest`` calls.  The
        amortisation the batch buys is upstream of the engine: pattern
        constraints dispatch through closures compiled once at
        construction, and broker/Elvin layers hand bursts over without
        per-event wire messages.
        """
        out: list[Notification] = []
        for event in events:
            out.extend(self.ingest(event))
        return out

    def _join(
        self, rule: Rule, pinned_alias: str, pinned: Notification, now: float
    ) -> list[Notification]:
        """Join ``pinned`` (fixed at its pattern) against the other windows.

        Enumeration is knowledge-guided: when a fact pattern links two
        event aliases by subject — ``FactPattern(subject=Ref("a","subject"),
        predicate="knows", object=Ref("b","subject"))`` — the candidate
        pool for the yet-unbound side is restricted to the subjects the
        knowledge base actually relates.  In a flood of strangers' events
        this collapses the cross product to the handful of combinations
        that could possibly match (§1.1's "extracting the correlated set
        ... from the huge number of items available").
        """
        other_patterns = [p for p in rule.events if p.alias != pinned_alias]
        per_pool_limit = max(
            4, int(rule.max_combinations ** (1 / max(1, len(other_patterns))))
        )
        out: list[Notification] = []
        budget = [rule.max_combinations]
        self._enumerate(
            rule,
            other_patterns,
            0,
            {pinned_alias: pinned},
            now,
            per_pool_limit,
            budget,
            out,
        )
        return out

    def _enumerate(
        self,
        rule: Rule,
        patterns: list,
        index: int,
        bound: Bindings,
        now: float,
        per_pool_limit: int,
        budget: list,
        out: list,
    ) -> None:
        if budget[0] <= 0:
            return
        if index == len(patterns):
            budget[0] -= 1
            self.stats.candidate_joins += 1
            fired = self._evaluate(rule, dict(bound), now)
            if fired:
                out.extend(fired)
            return
        pattern = patterns[index]
        allowed = self._linked_subjects(rule, bound, pattern.alias, now)
        if allowed is not None and not allowed:
            return  # the knowledge base relates nobody: no combination can match
        buffer = self._buffers[rule.name][pattern.alias]
        if allowed is None:
            # No KB restriction: a budgeted sample of per-entity heads.
            pool = buffer.recent_distinct(now, limit=per_pool_limit)
            self.stats.window_scanned += len(pool)
        elif self.indexed_windows:
            # Keyed lookups: O(|allowed|) instead of O(window) per level.
            pool = buffer.heads_for_subjects(now, allowed)
            self.stats.window_scanned += len(pool)
        else:
            heads = buffer.recent_distinct(now, limit=None)
            self.stats.window_scanned += len(heads)
            pool = [
                event
                for event in heads
                if event.get("subject") is not None
                and str(event.get("subject")) in allowed
            ]
        for event in pool:
            if budget[0] <= 0:
                return
            bound[pattern.alias] = event
            self._enumerate(
                rule, patterns, index + 1, bound, now, per_pool_limit, budget, out
            )
            del bound[pattern.alias]

    def _linked_subjects(
        self, rule: Rule, bound: Bindings, target_alias: str, now: float
    ) -> set | None:
        """Subjects the KB allows for ``target_alias`` given current bindings.

        Returns None when no fact pattern links the target to an already
        bound alias (no restriction applies).
        """
        if not self.kb_guided_joins:
            return None
        allowed: frozenset | set | None = None
        for fact in rule.facts:
            s_ref = fact.subject if isinstance(fact.subject, Ref) else None
            o_ref = fact.object if isinstance(fact.object, Ref) else None
            if s_ref is None or o_ref is None:
                continue
            if s_ref.attr != "subject" or o_ref.attr != "subject":
                continue
            if s_ref.alias in bound and o_ref.alias == target_alias:
                anchor = bound[s_ref.alias].get("subject")
                if anchor is None:
                    continue
                values = self._kb_linked("fwd", str(anchor), fact.predicate, now)
            elif o_ref.alias in bound and s_ref.alias == target_alias:
                anchor = bound[o_ref.alias].get("subject")
                if anchor is None:
                    continue
                values = self._kb_linked("rev", str(anchor), fact.predicate, now)
            else:
                continue
            allowed = values if allowed is None else allowed & values
        return allowed

    def _kb_linked(
        self, direction: str, anchor: str, predicate: str, now: float
    ) -> frozenset:
        """Subject strings the KB links to ``anchor`` via ``predicate``.

        Both directions normalise through ``str`` so non-string subjects
        and objects (ints from sensor ids) survive the ``allowed``
        intersection against ``str(event subject)``.  The reverse
        direction rides the KB's object-keyed index
        (``query_object_str``) — symmetric with the forward direction's
        subject bucket instead of scanning the whole predicate bucket.
        The KB memoises each answer over the interval in which it stays
        exact; the stats count the lookups it computed and those its memo
        answered.
        """
        hits = self.kb.memo_hits
        if direction == "fwd":
            facts = self.kb.query(subject=anchor, predicate=predicate, at_time=now)
            linked = frozenset(str(f.object) for f in facts)
        else:
            facts = self.kb.query_object_str(anchor, predicate=predicate, at_time=now)
            linked = frozenset(str(f.subject) for f in facts)
        if self.kb.memo_hits != hits:
            self.stats.kb_link_memo_hits += 1
        else:
            self.stats.kb_link_queries += 1
        return linked

    def _evaluate(
        self, rule: Rule, bindings: Bindings, now: float
    ) -> list[Notification] | None:
        ctx = RuleContext(now=now, kb=self.kb, extras=self.extras)
        if not self._resolve_facts(rule, bindings, now):
            return None
        for guard in rule.guards:
            try:
                if not guard(bindings, ctx):
                    return None
            except Exception:
                self.stats.guard_errors += 1
                return None
        key_fn = rule.correlation_key
        key = key_fn(bindings) if key_fn is not None else rule.default_key(bindings)
        if rule.cooldown_s > 0.0:
            last = self._last_fired.get((rule.name, key))
            if last is not None and now - last < rule.cooldown_s:
                self.stats.suppressed_by_cooldown += 1
                return None
        self._last_fired[(rule.name, key)] = now
        self.stats.matches += 1
        result = rule.action(bindings, ctx)
        if result is None:
            return []
        if isinstance(result, Notification):
            return [result]
        return list(result)

    def _resolve_facts(self, rule: Rule, bindings: Bindings, now: float) -> bool:
        for pattern in rule.facts:
            facts = self._fact_matches(pattern, bindings, now)
            if facts is None:
                self.stats.guard_errors += 1
                return False
            if facts:
                bindings[pattern.alias] = facts[0].object
            elif pattern.required:
                return False
            else:
                bindings[pattern.alias] = pattern.default
        return True

    def _fact_matches(self, pattern, bindings: Bindings, now: float) -> list | None:
        """Facts satisfying ``pattern`` under ``bindings`` at ``now``; None
        when an operand does not resolve against the bindings."""
        try:
            subject = resolve_operand(pattern.subject, bindings)
            expected = resolve_operand(pattern.object, bindings) if pattern.object is not None else None
        except Exception:
            return None
        facts = self.kb.query(subject=str(subject), predicate=pattern.predicate, at_time=now)
        if expected is not None:
            if isinstance(pattern.object, Ref) and pattern.object.attr == "subject":
                # Subject references are identity-like and str-normalised
                # everywhere else in the engine (the allowed sets, the
                # correlation keys), so resolution must match the same
                # way or int-subject facts admitted by the KB-guided
                # enumeration would be silently rejected here.
                expected_key = str(expected)
                facts = [f for f in facts if str(f.object) == expected_key]
            else:
                facts = [f for f in facts if f.object == expected]
        return facts
