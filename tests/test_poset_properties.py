"""The subject-partitioned covering poset answers exactly as one poset does.

``ShardedCoveringPoset`` files each filter under the one subject its
``type`` equalities name (or in a shared part) and lets a probe consult
only the parts that can hold an answer.  Where that could go wrong is
which part an awkward filter or probe belongs to: numerics that equality
folds (``2``, ``2.0``), values it keeps apart (``True``, ``"2"``), two
conflicting ``type`` equalities, ``type`` constrained without being
pinned, and no ``type`` at all.  Under add/remove churn every query must
give the single poset's answer — the three list queries in the same
order, since ``covered_by`` order is re-forward order.

Bounded in tier-1; ``--hypothesis-profile=nightly`` runs it long.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.events.filters import Constraint, Filter, Op
from repro.events.index import CoveringPoset
from repro.events.sharding import ShardedCoveringPoset

SUBJECTS = [2, 2.0, True, "2", 0, -0.0, False, "a"]
VALUES = SUBJECTS + [1, 2.5, "ab", "b"]
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
operations = st.lists(
    st.one_of(st.tuples(st.just("add"), filters), st.tuples(st.just("remove"), st.integers(0, 63))),
    min_size=1,
    max_size=30,
)


def answers(poset, probe: Filter) -> tuple:
    payload = poset.payload
    return (
        poset.covers_any(probe),
        poset.intersecting_any(probe),
        [payload(rid) for rid in poset.covering(probe)],
        [payload(rid) for rid in poset.covered_by(probe)],
        [payload(rid) for rid in poset.intersecting(probe)],
    )


@given(operations, st.lists(filters, min_size=1, max_size=4))
def test_every_query_agrees_with_one_poset_under_churn(ops, probes):
    one, parted = CoveringPoset(), ShardedCoveringPoset()
    live: list[tuple[int, tuple, Filter]] = []
    for n, (kind, arg) in enumerate(ops):
        if kind == "add":
            live.append((one.add(arg, payload=n), parted.add(arg, payload=n), arg))
        elif live:
            pid, rid, _f = live.pop(arg % len(live))
            assert parted.filter_of(rid) == one.filter_of(pid)
            assert parted.remove(rid) == one.remove(pid)
        assert len(parted) == len(one)
        assert all(len(part) for part in parted.partitions.values())
        # Stored filters as probes make covering hits likely.
        for probe in probes + [f for _pid, _rid, f in live[-2:]]:
            assert answers(parted, probe) == answers(one, probe), probe
