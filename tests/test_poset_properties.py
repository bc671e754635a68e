"""The covering poset answers every query exactly as the scan does.

``CoveringPoset`` prunes covering by each filter's keys and bounds, and
intersection by each entry's *pin* — the key of its first ``=`` — so a
probe whose normal form pins that name meets only its own pin's bucket
and the pin-free entries.  Where that could go wrong is which bucket an
awkward filter or probe belongs to: numerics that equality folds (``2``,
``2.0``, ``-0.0``, ``0``), values it keeps apart (``True``, ``1``,
``"2"``), two conflicting equalities on one name, a name constrained
without being pinned, a NaN pin, and no pin at all.  Under add/remove
churn every query must give the answer of a ``ScanStore``, which checks
every stored filter with ``filter_covers`` / ``filters_intersect`` — the
reference that shares none of the poset's pruning — with the three list
queries in insertion order: ``covered_by`` order is re-forward order, and
an advert flap's stable re-sort into by-source order relies on
``intersecting``'s.

Bounded in tier-1; ``--hypothesis-profile=nightly`` runs it long.
"""

from hypothesis import example, given
from hypothesis import strategies as st

from repro.events.filters import Constraint, Filter, Op, eq, exists, gt, lt, ne, prefix
from repro.events.index import CoveringPoset, ScanStore

SUBJECTS = [2, 2.0, True, "2", 0, -0.0, False, "a"]
# Where dict-key equality and covering equality could part: a NaN is one
# dict key by identity yet equals nothing, no float equals 10**400, and
# 2**53 + 1 is the first int its float neighbour rounds onto.
AWKWARD = [float("nan"), 10**400, 2**53 + 1, float(2**53)]
VALUES = SUBJECTS + [1, 2.5, "ab", "b"] + AWKWARD
PATTERNS = ["", "2", "a", "ab"]


@st.composite
def constraints(draw, name):
    op = draw(st.sampled_from(list(Op)))
    if op is Op.EXISTS:
        return Constraint(name, op)
    pool = PATTERNS if op in (Op.PREFIX, Op.SUFFIX, Op.CONTAINS) else VALUES
    return Constraint(name, op, draw(st.sampled_from(pool)))


pins = st.builds(lambda v: Constraint("type", Op.EQ, v), st.sampled_from(SUBJECTS))
filters = st.lists(
    st.one_of(pins, pins, constraints("type"), constraints("x"), constraints("y")),
    min_size=1,
    max_size=4,
).map(lambda cs: Filter(*cs))


def churn(drawn: st.SearchStrategy) -> st.SearchStrategy:
    """Up to 30 adds of ``drawn`` filters and removes of a live entry."""
    return st.lists(
        st.one_of(st.tuples(st.just("add"), drawn), st.tuples(st.just("remove"), st.integers(0, 63))),
        min_size=1,
        max_size=30,
    )


def answers(store, probe: Filter) -> tuple:
    """The five queries, the three lists as payloads in answer order."""
    payload = store.payload
    return (
        store.covers_any(probe),
        store.intersecting_any(probe),
        [payload(rid) for rid in store.covering(probe)],
        [payload(rid) for rid in store.covered_by(probe)],
        [payload(rid) for rid in store.intersecting(probe)],
    )


# Filters over one attribute make covering pairs common, so a pruning
# mask that forgets an operator shows within the bounded run.
one_name = st.lists(constraints("x"), min_size=1, max_size=2).map(lambda cs: Filter(*cs))
# The agent shape ``[type = t, user = u]``: equalities on two non-type
# attributes drawn from one pool, so equal keys under different names
# and different keys under one name both occur, maybe beside a pin.
keyed = st.builds(
    lambda pin, x, y, more: Filter(*pin, Constraint("x", Op.EQ, x), Constraint("y", Op.EQ, y), *more),
    st.lists(pins, max_size=1),
    st.sampled_from(VALUES),
    st.sampled_from(VALUES),
    st.lists(st.one_of(constraints("x"), constraints("y")), max_size=1),
)
scan_filters = st.one_of(filters, one_name, one_name, keyed, keyed)
scan_operations = churn(scan_filters)


@given(scan_operations, st.lists(scan_filters, min_size=1, max_size=4))
# A NaN bound beside an empty interval: the posets answered False / [] on
# the unsatisfiable probe while the scan's merged group read satisfiable.
@example([("add", Filter(eq("type", 2))), ("add", Filter(lt("x", float("nan"))))], [Filter(lt("x", 2), gt("x", 2))])
# Pins on names other than ``type``, the first ``=`` deciding the bucket.
@example(
    [
        ("add", Filter(eq("x", 1), eq("y", "a"))),
        ("add", Filter(eq("y", "a"), gt("x", 0))),
        ("add", Filter(eq("x", 2))),
        ("remove", 0),
    ],
    [Filter(eq("x", 1.0)), Filter(eq("y", "a"), eq("x", 2)), Filter(eq("y", "b"))],
)
# A probe that constrains a pinned name without pinning it meets every pin of it.
@example(
    [("add", Filter(eq("x", 1))), ("add", Filter(eq("x", 5), eq("type", "a"))), ("add", Filter(eq("x", "5")))],
    [Filter(gt("x", 2)), Filter(ne("x", 1)), Filter(exists("x")), Filter(prefix("x", "5"))],
)
# Two conflicting pins: unsatisfiable as an entry and as a probe.
@example(
    [
        ("add", Filter(eq("type", "a"), eq("type", "b"))),
        ("add", Filter(eq("type", "a"))),
        ("add", Filter(eq("type", "b"))),
    ],
    [Filter(eq("type", "a"), eq("type", "b")), Filter(eq("type", "b")), Filter(eq("type", "a"))],
)
# Pins equality folds (2 / 2.0, -0.0 / 0) and one it keeps apart (True / 1).
@example(
    [("add", Filter(eq("type", 2))), ("add", Filter(eq("type", True))), ("add", Filter(eq("type", -0.0)))],
    [Filter(eq("type", 2.0)), Filter(eq("type", 1)), Filter(eq("type", 0)), Filter(eq("type", True))],
)
# A NaN pin: one dict key with itself, yet it equals nothing.
@example(
    [
        ("add", Filter(eq("x", AWKWARD[0]))),
        ("add", Filter(eq("x", AWKWARD[0]), gt("y", 1))),
        ("add", Filter(eq("x", 1))),
        ("remove", 1),
    ],
    [Filter(eq("x", AWKWARD[0])), Filter(exists("x")), Filter(eq("x", 1))],
)
def test_every_query_agrees_with_the_scan_under_churn(ops, probes):
    scan, poset = ScanStore(), CoveringPoset()
    live: list[tuple[int, int, Filter]] = []
    for n, (kind, arg) in enumerate(ops):
        if kind == "add":
            live.append((scan.add(arg, payload=n), poset.add(arg, payload=n), arg))
        elif live:
            sid, pid, _f = live.pop(arg % len(live))
            assert poset.filter_of(pid) is scan.filter_of(sid)
            assert poset.remove(pid) == scan.remove(sid)
        assert len(poset) == len(scan)
        for probe in probes + [f for _sid, _pid, f in live[-2:]]:
            assert answers(poset, probe) == answers(scan, probe), probe


def test_every_one_constraint_pair_agrees_with_the_scan():
    """Exhaustive where sampling is thin: one stored filter per operator
    and value on one attribute, each probed for, so a pruning mask that
    forgets one operator or value family shows in ``covering`` or
    ``covered_by`` on every run.  A probe on another attribute intersects
    the whole store without sharing a name with it."""
    grid = [Filter(Constraint("x", Op.EXISTS))] + [
        Filter(Constraint("x", op, value))
        for op in Op
        if op is not Op.EXISTS
        for value in (PATTERNS if op in (Op.PREFIX, Op.SUFFIX, Op.CONTAINS) else VALUES)
    ]
    scan, poset = ScanStore(), CoveringPoset()
    for n, filter in enumerate(grid):
        scan.add(filter, payload=n)
        poset.add(filter, payload=n)
    for probe in grid + [Filter(Constraint("y", Op.EXISTS))]:
        assert answers(poset, probe) == answers(scan, probe), probe


def test_a_probe_meets_only_the_entries_holding_its_keys():
    """The equality keys prune before ``filter_covers`` runs, so they are
    held to counts of exact checks as well as to exact answers: one
    user's agent filter meets that user's entry (and the first entry
    filed, homed under the then-empty subject key), not the other 39;
    ``1`` and ``1.0`` share a key that ``True``, ``"1"`` and ``2**53 + 1``
    (beside ``float(2**53)``) do not; and neither an entry naming an
    attribute the probe lacks nor one lacking an attribute the probe
    names is checked against it."""
    poset = CoveringPoset()
    agents = [Filter(eq("type", "suggestion"), eq("user", f"u{i}")) for i in range(40)]
    ids = [poset.add(agent) for agent in agents]
    ones = [poset.add(Filter(eq("x", v))) for v in (True, 1, 1.0, "1", 2**53 + 1)]
    for _ in range(3):
        poset.add(Filter(gt("z", 0)))
    poset.add(Filter(eq("x", 2**53 + 1), gt("z", 0)))  # homed beside ones[4]

    def checked(query: str, probe: Filter, want: list) -> int:
        before = poset.checks
        assert getattr(poset, query)(probe) == want
        return poset.checks - before

    assert checked("covering", agents[7], [ids[7]]) == 2
    assert checked("covered_by", agents[7], [ids[7]]) == 1
    assert checked("covering", Filter(eq("x", 1)), ones[1:3]) == 2
    assert checked("covering", Filter(eq("x", float(2**53))), []) == 0
    assert checked("covering", Filter(eq("x", 2**53 + 1)), [ones[4]]) == 1
    assert checked("covered_by", Filter(eq("x", 1), exists("z")), []) == 0
