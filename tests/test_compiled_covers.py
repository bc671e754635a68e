"""Compiled covering tests must answer exactly as ``constraint_covers``.

``filter_covers`` resolves each covering-side constraint once into a test
of the probe's constraints (``covering._compile_covers``): ``=`` and the
numeric ranges become closures over an operator table and the value,
every other arm calls ``constraint_covers``, the one truth table.  Here
the compiled test is held to that table on every ordered pair of an
exhaustive one-constraint grid — every operator, the values where
families and numeric types part (``0``/``-0.0``, ``1``/``1.0``/``True``,
NaN, infinity, an int beyond float range, strings ordered around ``""``)
— over two attribute names.  A property then holds ``filter_covers`` on
whole filters to ``tests/helpers.py::pairwise_covers``, the all/any form
it replaced.  Last, the covering poset's numeric bound test, which runs
before ``filter_covers``, is held to admit every pair ``filter_covers``
accepts, on the grid and on random multi-constraint filters.

Bounded in tier-1; ``--hypothesis-profile=nightly`` runs it long.
"""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.events.covering import _compile_covers, constraint_covers, filter_covers
from repro.events.filters import Constraint, Filter, Op, eq, exists, ge, gt, le, lt, ne
from repro.events.index import CoveringPoset, _bounds_admit, cover_summary
from tests.helpers import pairwise_covers
from tests.test_poset_properties import AWKWARD

NAMES = ("x", "y")
VALUES = (0, -0.0, 1, 1.0, True, False, float("nan"), float("inf"), 10**400, "", "a", "ab", "b")
STRING_OPS = (Op.PREFIX, Op.SUFFIX, Op.CONTAINS)


def grid(names=NAMES) -> list[Constraint]:
    """Every constraint the language allows over ``names`` and ``VALUES``."""
    out = []
    for name in names:
        for op in Op:
            if op is Op.EXISTS:
                out.append(Constraint(name, op))
                continue
            for value in VALUES:
                if op not in STRING_OPS or isinstance(value, str):
                    out.append(Constraint(name, op, value))
    return out


GRID = grid()


def test_the_grid_spans_every_operator_and_both_names():
    assert {c.op for c in GRID} == set(Op)
    assert {c.name for c in GRID} == set(NAMES)
    assert len(GRID) == 2 * (1 + 3 * 4 + 6 * len(VALUES))


def test_every_ordered_pair_agrees_with_the_truth_table():
    wrong = []
    for a in GRID:
        test = _compile_covers(a)
        for b in GRID:
            want = constraint_covers(a, b)
            # One-constraint filters: filter_covers is the pair's answer too.
            if test(b) != want or filter_covers(Filter(a), Filter(b)) != want:
                wrong.append((a, b, want))
    assert wrong == []


def test_the_grid_discriminates():
    """Each compiled arm meets both answers, so a flipped comparison or a
    dropped guard shows as a wrong pair rather than passing vacuously."""
    for op in (Op.EQ, Op.LT, Op.LE, Op.GT, Op.GE):
        answers = {constraint_covers(a, b) for a in GRID if a.op is op for b in GRID}
        assert answers == {True, False}, op
    # Cross-family and cross-name pairs that must stay False.
    assert not filter_covers(Filter(Constraint("x", Op.EQ, 1)), Filter(Constraint("x", Op.EQ, True)))
    assert not filter_covers(Filter(Constraint("x", Op.LE, 1)), Filter(Constraint("y", Op.LT, 0)))
    assert filter_covers(Filter(Constraint("x", Op.LE, 1)), Filter(Constraint("x", Op.EQ, 1.0)))


def test_tests_are_built_once_per_filter_and_only_on_use():
    stored = Filter(Constraint("x", Op.GT, 1), Constraint("y", Op.EXISTS))
    assert stored._covers is None
    filter_covers(stored, Filter(Constraint("x", Op.GT, 2), Constraint("y", Op.EQ, "a")))
    tests = stored._covers
    assert len(tests) == 2
    filter_covers(stored, stored)
    assert stored._covers is tests


constraints = st.sampled_from(GRID)
filters = st.lists(constraints, min_size=1, max_size=4).map(lambda cs: Filter(*cs))


@given(filters, filters)
def test_filter_covers_agrees_with_the_pairwise_form(a, b):
    assert filter_covers(a, b) == pairwise_covers(a, b)
    assert filter_covers(b, a) == pairwise_covers(b, a)
    assert filter_covers(a, a) == pairwise_covers(a, a)


@given(st.lists(constraints, min_size=1, max_size=3), st.lists(constraints, max_size=3))
def test_a_probe_narrowed_by_more_constraints_agrees_too(shared, extra):
    """Probes that repeat the covering side's constraints make ``True``
    answers common, which random pairs of filters seldom reach."""
    a, b = Filter(*shared), Filter(*shared, *extra)
    assert filter_covers(a, b) == pairwise_covers(a, b)
    assert filter_covers(b, a) == pairwise_covers(b, a)


# ----------------------------------------------------------------------
# The covering poset's bound test is sound: it admits every pair that
# filter_covers accepts, so filter_covers still decides every answer.
# ----------------------------------------------------------------------
def admits(a: Filter, b: Filter) -> bool:
    """The bound test with ``a`` as the covering side and ``b`` as the probe."""
    return _bounds_admit(cover_summary(a).bounds, cover_summary(b).bounds)


def test_the_bound_test_admits_every_covering_pair_of_the_grid():
    filters = [Filter(c) for c in GRID]
    verdicts = {(filter_covers(a, b), admits(a, b)) for a in filters for b in filters}
    assert (True, False) not in verdicts
    assert (False, False) in verdicts and (True, True) in verdicts  # it prunes, and it meets hits


BOUND_VALUES = (*AWKWARD, math.inf, -math.inf, -0.0, 0, 1, 2.5, True, False, -(10**400))
PATTERNS = ("", "a", "ab")


@st.composite
def bound_constraints(draw):
    name, op = draw(st.sampled_from(NAMES)), draw(st.sampled_from(list(Op)))
    if op is Op.EXISTS:
        return Constraint(name, op)
    return Constraint(name, op, draw(st.sampled_from(PATTERNS if op in STRING_OPS else BOUND_VALUES)))


bound_filters = st.lists(bound_constraints(), min_size=1, max_size=4).map(lambda cs: Filter(*cs))


@given(bound_filters, bound_filters, st.lists(bound_constraints(), max_size=2))
def test_the_bound_test_admits_every_covering_pair(a, b, extra):
    """Over NaN, ``±inf``, ``-0.0``, bools and ints beyond float range, with
    several constraints a name; ``narrowed`` repeats ``a`` so hits are common."""
    narrowed = Filter(*a.constraints, *extra)
    for x, y in ((a, b), (b, a), (a, narrowed), (narrowed, a), (a, a)):
        assert admits(x, y) or not filter_covers(x, y), (x, y)


NAN = float("nan")


def test_the_bound_test_rejects_what_it_must():
    """Hand cases, each a verdict one plausible slip would flip: ``=``
    offers both sides, a bool or a NaN offers nothing, a name the probe
    does not bound meets no demand, and ``<=`` demands an upper side."""
    x, y = "x", "y"
    cases = [
        (Filter(gt(x, 0)), Filter(eq(x, 3)), True),
        (Filter(lt(x, 5)), Filter(eq(x, 3)), True),
        (Filter(gt(x, 0)), Filter(eq(x, True)), False),
        (Filter(lt(x, 2)), Filter(le(x, True), ne(x, False)), False),
        (Filter(gt(x, 3)), Filter(gt(x, 5), eq(x, NAN)), True),
        (Filter(lt(x, 3)), Filter(lt(x, 1), eq(x, NAN)), True),
        (Filter(gt(x, 0)), Filter(gt(y, 1)), False),
        (Filter(gt(x, 0)), Filter(exists(x)), False),
        (Filter(le(x, 5)), Filter(lt(x, 4)), True),
        (Filter(le(x, 5)), Filter(gt(x, 6)), False),
        (Filter(ge(x, 5)), Filter(lt(x, 4)), False),
        (Filter(gt(x, 1), lt(x, 4)), Filter(gt(x, 2), lt(x, 3)), True),
        (Filter(gt(x, 1), lt(x, 4)), Filter(gt(x, 2), lt(x, 5)), False),
    ]
    assert [admits(a, b) for a, b, _ in cases] == [want for _, _, want in cases]
    assert all(filter_covers(a, b) for a, b, want in cases if want)


def test_the_summary_is_built_on_the_first_query_only():
    poset = CoveringPoset()
    stored, probe = Filter(eq("type", "a"), gt("x", 1)), Filter(eq("type", "a"), gt("x", 2))
    poset.add(stored)
    assert stored._summary is None  # a filter only ever stored builds none
    assert poset.covers_any(probe)
    summary = stored._summary
    assert summary is not None and probe._summary is not None
    assert summary.bounds == (("x", 1, math.inf, 1, math.inf),)
    poset.covered_by(stored)
    assert stored._summary is summary
