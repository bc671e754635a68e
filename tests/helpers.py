"""Shared test utilities.

Simulations with periodic tasks (overlay maintenance, storage audits,
sensors) never drain the event heap, so tests must always run the clock for
a bounded span or until a condition holds.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable

from repro.events.covering import constraint_covers
from repro.events.filters import Op, _comparable
from repro.events.index import ScanStore
from repro.simulation import Future, Simulator


def run_until(
    sim: Simulator,
    predicate: Callable[[], bool],
    timeout: float = 300.0,
    step: float = 1.0,
) -> bool:
    """Advance the clock until ``predicate()`` or ``timeout`` sim-seconds."""
    deadline = sim.now + timeout
    while not predicate():
        if sim.now >= deadline:
            return False
        sim.run(until=min(sim.now + step, deadline))
    return True


def resolve(sim: Simulator, future: Future, timeout: float = 300.0):
    """Run the simulation until ``future`` completes; return its result."""
    completed = run_until(sim, lambda: future.done, timeout=timeout)
    assert completed, "future never completed within the timeout"
    return future.result()


def resolve_error(sim: Simulator, future: Future, timeout: float = 300.0):
    """Run until ``future`` completes; return its exception (must fail)."""
    completed = run_until(sim, lambda: future.done, timeout=timeout)
    assert completed, "future never completed within the timeout"
    assert future.exception is not None, "expected the future to fail"
    return future.exception


def scanned_retract(table, neighbour, filter) -> None:
    """The seed's retraction rule: the reference for ``FilterTable._retract``.

    Withdraw ``filter`` from ``neighbour`` unless a copy stored from some
    other source keeps it forwarded (then only re-widen its path), and
    re-offer *every* stored filter not from ``neighbour``, in by-source
    order.  The table re-offers only what the withdrawn filter covers;
    patched in with ``monkeypatch``, this must deliver the same.
    """
    if filter not in table.forwarded.get(neighbour, ()):
        return
    remaining = list(table.entries(exclude=neighbour))
    if any(f == filter for _, f in remaining):
        table.rewiden(neighbour, filter)
        return
    table.withdraw(neighbour, filter)
    for source, stored in remaining:
        table._offer(neighbour, stored, table.paths[(source, stored)])


def pairwise_covers(a, b) -> bool:
    """The all/any form of ``filter_covers``: the reference for its compiled tests.

    Every constraint of ``a`` must be covered by some constraint of ``b``,
    asked of ``constraint_covers`` pair by pair at every call.
    """
    return all(any(constraint_covers(ca, cb) for cb in b.constraints) for ca in a.constraints)


def leaf_only_placement(rule, order) -> list:
    """The seed's join plan: the reference for ``MatchingEngine._place``.

    Every fact pattern and guard runs at the leaf, once every alias in
    ``order`` is bound, in rule order: facts, then guards.  Patched in
    with ``monkeypatch``, an engine must synthesise the same.
    """
    return [len(order) - 1] * (len(rule.facts) + len(rule.guards))


def interpreted_matches(constraint, notification) -> bool:
    """Per-call interpreted matching: the reference for ``Constraint.check``.

    The seed's evaluator, branching on the operator at every call; the
    compiled closure must agree with it on every notification.
    """
    name, op, value = constraint.name, constraint.op, constraint.value
    if name not in notification:
        return False
    actual = notification[name]
    if op is Op.EXISTS:
        return True
    if op in (Op.PREFIX, Op.SUFFIX, Op.CONTAINS):
        if not isinstance(actual, str):
            return False
        if op is Op.PREFIX:
            return actual.startswith(value)
        if op is Op.SUFFIX:
            return actual.endswith(value)
        return value in actual
    if not _comparable(actual, value):
        return False
    if op is Op.EQ:
        return actual == value
    if op is Op.NE:
        return actual != value
    if op is Op.LT:
        return actual < value
    if op is Op.LE:
        return actual <= value
    if op is Op.GT:
        return actual > value
    return actual >= value  # GE


class Shadow:
    """A routing structure paired with its scan: every answer is checked.

    Wraps an index or covering poset (``primary``) and keeps a
    :class:`~repro.events.index.ScanStore` over the same filters beside it.
    Each call the filter tables and the broker make is answered by both;
    ids in answers are mapped into the primary's id space, so ``covering``,
    ``covered_by`` and ``intersecting`` must agree as ordered lists, and
    ``filter_of`` must name the very object the scan holds.  The first
    difference raises ``AssertionError``; otherwise the primary's answer is
    returned.
    ``asked`` counts the answers compared per query, ``checked`` in all.
    """

    def __init__(self, primary) -> None:
        self.primary = primary
        self.scan = ScanStore()
        self.asked: Counter = Counter()
        self._scan_id: dict = {}
        self._primary_id: dict = {}

    @property
    def checked(self) -> int:
        return sum(self.asked.values())

    def _same(self, query: str, arg, got, want):
        assert got == want, f"{type(self.primary).__name__}.{query}({arg!r}): {got!r} != scan's {want!r}"
        self.asked[query] += 1
        return got

    @property
    def ops(self) -> int:
        return self.primary.ops

    def __len__(self) -> int:
        return self._same("__len__", None, len(self.primary), len(self.scan))

    def add(self, filter, payload=None):
        pid = self.primary.add(filter, payload=payload)
        sid = self.scan.add(filter, payload)
        self._scan_id[pid], self._primary_id[sid] = sid, pid
        return pid

    def remove(self, pid):
        sid = self._scan_id.pop(pid)
        del self._primary_id[sid]
        return self._same("remove", pid, self.primary.remove(pid), self.scan.remove(sid))

    def payload(self, pid):
        want = self.scan.payload(self._scan_id[pid])
        return self._same("payload", pid, self.primary.payload(pid), want)

    def filter_of(self, pid):
        got, want = self.primary.filter_of(pid), self.scan.filter_of(self._scan_id[pid])
        assert got is want, f"{type(self.primary).__name__}.filter_of({pid!r}): {got!r} is not the scan's object"
        self.asked["filter_of"] += 1
        return got

    def _ask(self, query: str, arg):
        return self._same(query, arg, getattr(self.primary, query)(arg), getattr(self.scan, query)(arg))

    def _ask_ids(self, query: str, filter) -> list:
        want = [self._primary_id[sid] for sid in getattr(self.scan, query)(filter)]
        return self._same(query, filter, getattr(self.primary, query)(filter), want)

    def holders(self, notifications):
        return self._ask("holders", notifications)

    def covers_any(self, filter) -> bool:
        return self._ask("covers_any", filter)

    def intersecting_any(self, filter) -> bool:
        return self._ask("intersecting_any", filter)

    def covering(self, filter) -> list:
        return self._ask_ids("covering", filter)

    def covered_by(self, filter) -> list:
        return self._ask_ids("covered_by", filter)

    def intersecting(self, filter) -> list:
        return self._ask_ids("intersecting", filter)
