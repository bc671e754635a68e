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
from operator import attrgetter
from typing import Callable, NamedTuple

from repro.events.filters import Filter
from repro.events.model import Notification
from repro.knowledge.base import KnowledgeBase
from repro.matching.patterns import Bindings, FactPattern, Ref, resolve_operand
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
        # Event→pattern pinning (the engine's own ``_patterns`` buckets,
        # not ``PredicateIndex``): patterns are filed under their
        # (exact-match) event type, so an arriving event touches only the
        # rules that could possibly pin it.  ``indexed=False`` files every
        # pattern under one key, ``None``: the seed's every-rule scan.
        self.indexed = indexed
        self._file_key = attrgetter("event_type") if indexed else lambda item: None
        # Ablation switch (benchmarks A2/E9): with ``indexed_windows`` a
        # KB-guided enumeration level does keyed per-subject lookups into
        # the window buffer; ``False`` restores the materialize-the-whole-
        # window-and-filter scan.  Both modes synthesize identical events
        # (tests/test_join_equivalence.py enforces it).
        self.indexed_windows = indexed_windows
        self.rules: dict[str, Rule] = {}
        self._buffers: dict[str, dict[str, TimeWindowBuffer]] = {}
        # Per key, (rule name, alias, test) in rule-registration order.
        self._patterns: dict[str | None, list[tuple[str, str, Callable]]] = {}
        self._last_fired: dict[str, dict] = {}  # per rule: correlation key -> time
        self._plans: dict[str, dict[str, _Plan]] = {}
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
        self._last_fired[rule.name] = {}
        for pattern in rule.events:
            if not self.indexed:
                test = pattern.matches
            else:  # its type's bucket has decided the type: the test is the constraints
                test = Filter(*pattern.constraints).matches if pattern.constraints else lambda event: True
            self._patterns.setdefault(self._file_key(pattern), []).append(
                (rule.name, pattern.alias, test)
            )

    def remove_rule(self, name: str) -> bool:
        if name not in self.rules:
            return False
        rule = self.rules.pop(name)
        del self._buffers[name]
        del self._last_fired[name]
        self._plans.pop(name, None)
        for key in {self._file_key(pattern) for pattern in rule.events}:
            kept = [entry for entry in self._patterns.pop(key) if entry[0] != name]
            if kept:
                self._patterns[key] = kept
        return True

    # ------------------------------------------------------------------
    def ingest(self, event: Notification) -> list[Notification]:
        """Process one event; returns the synthesised events (if any)."""
        self.stats.events_in += 1
        now = self.sim.now
        out: list[Notification] = []
        # The bucket lists patterns in rule-registration order, so the hits
        # come in rule order whichever way the patterns are filed.
        hits_by_rule: dict[str, list[str]] = {}
        for rule_name, alias, test in self._patterns.get(self._file_key(event), ()):
            if test(event):
                hits_by_rule.setdefault(rule_name, []).append(alias)
        rule_hits = [(self.rules[name], aliases) for name, aliases in hits_by_rule.items()]
        for rule, hit_aliases in rule_hits:
            if self.rules.get(rule.name) is not rule:
                continue  # an earlier action removed it
            buffers = self._buffers[rule.name]
            for alias in hit_aliases:
                buffers[alias].add(now, event)
            for alias in hit_aliases:
                out.extend(self._join(rule, alias, event, now))
        self.stats.synthesized += len(out)
        return out

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

        Enumeration binds ``pinned`` at level 0 and one other pattern per
        level after it.  It is knowledge-guided: when a fact pattern links
        two event aliases by subject — ``FactPattern(subject=Ref("a",
        "subject"), predicate="knows", object=Ref("b","subject"))`` — the
        candidate pool for the yet-unbound side is restricted to the
        subjects the knowledge base actually relates.  In a flood of
        strangers' events this collapses the cross product to the handful
        of combinations that could possibly match (§1.1's "extracting the
        correlated set ... from the huge number of items available").

        Each fact and guard runs at the shallowest level where all it reads
        is bound, on that level's copy of the bindings (so what it binds or
        stashes vanishes on backtrack); one that fails prunes every
        combination below.  One that raises above the leaf prunes nothing:
        the checks left wait for the leaf, as they would without push-down.
        Only leaves spend the combination budget.
        """
        if self.rules.get(rule.name) is not rule:
            return []  # an action removed the rule earlier in this ingest
        out: list[Notification] = []
        ctx = RuleContext(now=now, kb=self.kb, extras=self.extras)
        self._descend(rule, self._plan(rule, pinned_alias), 0, {pinned_alias: pinned}, ctx,
                      [rule.max_combinations], out, None)
        return out

    def _plan(self, rule: Rule, pinned_alias: str) -> _Plan:
        """``rule``'s checks and KB links per level, cached per pinned alias."""
        plans = self._plans.setdefault(rule.name, {})
        if pinned_alias not in plans:
            patterns = tuple(p for p in rule.events if p.alias != pinned_alias)
            order = [pinned_alias] + [p.alias for p in patterns]
            checks = (*rule.facts, *rule.guards)
            at = self._place(rule, order)
            plans[pinned_alias] = _Plan(
                patterns,
                max(4, int(rule.max_combinations ** (1 / max(1, len(patterns))))),
                tuple(tuple(c for c, k in zip(checks, at) if k == depth) for depth in range(len(order))),
                tuple(tuple(c for c, k in zip(checks, at) if k >= depth) for depth in range(len(order))),
                tuple(_links(rule, order[:depth], target) for depth, target in enumerate(order)),
            )
        return plans[pinned_alias]

    def _place(self, rule: Rule, order: list) -> list[int]:
        """The level of each fact, then each guard, in rule order: where the
        last alias it reads is bound.  An undeclared guard, a fact with a
        callable operand or one reading an alias no earlier check binds run at the leaf."""
        leaf = len(order) - 1
        level = {alias: depth for depth, alias in enumerate(order)}
        at = []
        for fact in rule.facts:
            operands = (fact.subject, fact.object)
            refs = {op.alias for op in operands if isinstance(op, Ref)}
            if any(callable(op) for op in operands) or not refs <= level.keys():
                level[fact.alias] = leaf
            else:
                level[fact.alias] = max((level[alias] for alias in refs), default=0)
            at.append(level[fact.alias])
        for guard in rule.guards:
            declared = getattr(guard, "declared_reads", None)
            at.append(leaf if declared is None else max((level[a] for a in declared), default=0))
        return at

    def _descend(self, rule: Rule, plan: _Plan, depth: int, bound: Bindings, ctx: RuleContext,
                 budget: list, out: list, deferred: tuple | None) -> None:
        """Check level ``depth``'s bindings, then bind the next level.  ``deferred`` is None
        until a check raises above the leaf; then it holds every check left, for the leaf."""
        if budget[0] <= 0:
            return
        leaf = depth == len(plan.patterns)
        if leaf:
            budget[0] -= 1
            self.stats.candidate_joins += 1
        checks = plan.checks[depth] if deferred is None else (deferred if leaf else ())
        bindings = dict(bound) if checks or leaf else bound
        passed = self._check(checks, bindings, ctx, leaf)
        if passed is False:
            return
        if passed is None:
            deferred, bindings = plan.fallback[depth], bound
        if leaf:
            self._fire(rule, bindings, ctx, budget, out)
            return
        pattern = plan.patterns[depth]
        # The subjects the KB allows here; None when no fact links this alias to a bound one.
        allowed: frozenset | None = None
        if self.kb_guided_joins:
            for direction, anchor_alias, predicate in plan.links[depth + 1]:
                anchor = bindings[anchor_alias].get("subject")
                if anchor is not None:
                    values = self._kb_linked(direction, str(anchor), predicate, ctx.now)
                    allowed = values if allowed is None else allowed & values
        if allowed is not None and not allowed:
            return  # the knowledge base relates nobody: no combination can match
        buffer = self._buffers[rule.name][pattern.alias]
        if allowed is None:
            # No KB restriction: a budgeted sample of per-entity heads.
            pool = buffer.recent_distinct(ctx.now, limit=plan.pool_limit)
            self.stats.window_scanned += len(pool)
        elif self.indexed_windows:
            # Keyed lookups: O(|allowed|) instead of O(window) per level.
            pool = buffer.heads_for_subjects(ctx.now, allowed)
            self.stats.window_scanned += len(pool)
        else:
            heads = buffer.recent_distinct(ctx.now, limit=None)
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
            bindings[pattern.alias] = event
            self._descend(rule, plan, depth + 1, bindings, ctx, budget, out, deferred)
            del bindings[pattern.alias]

    def _check(self, checks: tuple, bindings: Bindings, ctx: RuleContext, at_leaf: bool) -> bool | None:
        """Run ``checks`` in order: True if all pass, False at the first
        that fails.  One that raises is a counted guard error (False) at
        the leaf, and None above it."""
        for check in checks:
            if isinstance(check, FactPattern):
                passed = self._bind_fact(check, bindings, ctx.now)
            else:
                try:
                    passed = bool(check(bindings, ctx))
                except Exception:
                    passed = None
            if passed is None and at_leaf:
                self.stats.guard_errors += 1
                return False
            if not passed:
                return passed
        return True

    def _fire(self, rule: Rule, bindings: Bindings, ctx: RuleContext, budget: list, out: list) -> None:
        if rule.cooldown_s > 0.0:
            key_fn = rule.correlation_key
            key = key_fn(bindings) if key_fn is not None else rule.default_key(bindings)
            fired = self._last_fired[rule.name]
            last = fired.get(key)
            if last is not None and ctx.now - last < rule.cooldown_s:
                self.stats.suppressed_by_cooldown += 1
                return
            fired[key] = ctx.now
        self.stats.matches += 1
        result = rule.action(bindings, ctx)
        if self.rules.get(rule.name) is not rule:
            budget[0] = 0  # the action removed its own rule: the join ends
        if isinstance(result, Notification):
            out.append(result)
        elif result is not None:
            out.extend(result)

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

    def _bind_fact(self, pattern: FactPattern, bindings: Bindings, now: float) -> bool | None:
        """Bind the first fact satisfying ``pattern`` (or its default); False when a required
        one has none, None when an operand does not resolve against the bindings."""
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
        if facts:
            bindings[pattern.alias] = facts[0].object
        elif pattern.required:
            return False
        else:
            bindings[pattern.alias] = pattern.default
        return True


class _Plan(NamedTuple):
    """How a rule joins at one pinned alias, level by level."""

    patterns: tuple  # the other event patterns, bound at levels 1, 2, ...
    pool_limit: int  # per-entity heads sampled where no KB link restricts a level
    checks: tuple  # per level: the facts and guards that run there
    fallback: tuple  # per level: its checks and every deeper one's, in rule order
    links: tuple  # per level: (direction, anchor alias, predicate) KB links to it


def _links(rule: Rule, bound: list, target: str) -> tuple:
    """The subject links from an alias in ``bound`` to ``target``."""
    links = []
    for fact in rule.facts:
        s_ref, o_ref = fact.subject, fact.object
        if not (isinstance(s_ref, Ref) and isinstance(o_ref, Ref) and s_ref.attr == o_ref.attr == "subject"):
            continue
        if s_ref.alias in bound and o_ref.alias == target:
            links.append(("fwd", s_ref.alias, fact.predicate))
        elif o_ref.alias in bound and s_ref.alias == target:
            links.append(("rev", o_ref.alias, fact.predicate))
    return tuple(links)
