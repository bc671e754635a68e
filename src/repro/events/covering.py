"""Covering relations between constraints and filters.

Covering is the heart of Siena's scalability: a broker forwards a
subscription toward its neighbours only if no already-forwarded subscription
*covers* it (admits a superset of its notifications).  Experiment E4's
per-broker load flattening comes from exactly this pruning.

``a covers b`` means: every notification matched by ``b`` is matched by
``a``.  The implementation is conservative — when in doubt it answers False,
which only costs redundant forwarding, never lost notifications.
:func:`filter_covers` runs tests compiled once per filter from :func:`constraint_covers`.
"""

from __future__ import annotations

import operator
from functools import partial
from typing import Callable

from repro.events.filters import Constraint, Filter, Op, _comparable, family


def constraint_covers(a: Constraint, b: Constraint) -> bool:
    """Does constraint ``a`` admit every value admitted by ``b``?"""
    if a.name != b.name:
        return False
    if a.op is Op.EXISTS:
        return True
    if b.op is Op.EXISTS:
        return False

    av, bv = a.value, b.value
    a_num = isinstance(av, (int, float)) and not isinstance(av, bool)
    b_num = isinstance(bv, (int, float)) and not isinstance(bv, bool)
    a_str = isinstance(av, str)
    b_str = isinstance(bv, str)

    # ``Constraint.matches`` only ever compares within a family, but raw
    # ``==``/``!=`` on the constraint values folds ``True`` into ``1`` —
    # without the ``_comparable`` guard ``[x != -1]`` would claim to cover
    # ``[x = False]`` while matching no bool at all, an unsound ``True``
    # that covering suppression would turn into lost subscriptions.
    if a.op is Op.EQ:
        return b.op is Op.EQ and _comparable(av, bv) and av == bv
    if a.op is Op.NE:
        if b.op is Op.NE:
            return _comparable(av, bv) and av == bv
        if b.op is Op.EQ:
            return _comparable(av, bv) and av != bv
        if a_num and b_num:
            # e.g. NE 5 covers LT 5, GT 5; conservative otherwise.
            if b.op is Op.LT:
                return bv <= av
            if b.op is Op.GT:
                return bv >= av
        return False

    if a.op in (Op.LT, Op.LE, Op.GT, Op.GE):
        if not (a_num and b_num):
            return False
        if a.op is Op.LT:
            if b.op is Op.LT:
                return bv <= av
            if b.op is Op.LE:
                return bv < av
            if b.op is Op.EQ:
                return bv < av
            return False
        if a.op is Op.LE:
            if b.op in (Op.LT, Op.LE, Op.EQ):
                return bv <= av
            return False
        if a.op is Op.GT:
            if b.op is Op.GT:
                return bv >= av
            if b.op is Op.GE:
                return bv > av
            if b.op is Op.EQ:
                return bv > av
            return False
        # GE
        if b.op in (Op.GT, Op.GE, Op.EQ):
            return bv >= av
        return False

    if a.op is Op.PREFIX:
        if not (a_str and b_str):
            return False
        if b.op in (Op.PREFIX, Op.EQ):
            return bv.startswith(av)
        return False
    if a.op is Op.SUFFIX:
        if not (a_str and b_str):
            return False
        if b.op in (Op.SUFFIX, Op.EQ):
            return bv.endswith(av)
        return False
    if a.op is Op.CONTAINS:
        if not (a_str and b_str):
            return False
        if b.op in (Op.CONTAINS, Op.PREFIX, Op.SUFFIX, Op.EQ):
            return av in bv
        return False
    return False


# Per stored ``=``/numeric-range op: each probe op it covers, as ``cmp(bv, av)``.
_COVER_CMP = {
    Op.EQ: {Op.EQ: operator.eq},
    Op.LT: {Op.LT: operator.le, Op.LE: operator.lt, Op.EQ: operator.lt},
    Op.LE: dict.fromkeys((Op.LT, Op.LE, Op.EQ), operator.le),
    Op.GT: {Op.GT: operator.ge, Op.GE: operator.gt, Op.EQ: operator.gt},
    Op.GE: dict.fromkeys((Op.GT, Op.GE, Op.EQ), operator.ge),
}
_KINDS = {"b": bool, "n": (int, float), "s": str}


def _compile_covers(a: Constraint) -> Callable[[Constraint], bool]:
    """``constraint_covers`` with ``a`` fixed: ``=`` and numeric ranges become a closure
    over their operator table and value (same name, same family), the other arms call it."""
    table, fam = _COVER_CMP.get(a.op), family(a.value)
    if table is None or (fam != "n" and a.op is not Op.EQ):
        return partial(constraint_covers, a)
    name, av, kinds, boolean = a.name, a.value, _KINDS[fam], fam == "b"
    def covers(b: Constraint) -> bool:
        cmp = table.get(b.op)
        return cmp is not None and b.name == name and isinstance(bv := b.value, kinds) and (
            isinstance(bv, bool) is boolean and cmp(bv, av)
        )

    return covers


def filter_covers(a: Filter, b: Filter) -> bool:
    """Does filter ``a`` match every notification matched by ``b``?

    True iff every constraint of ``a`` is covered by some constraint of
    ``b`` (``b`` is at least as restrictive on every attribute ``a``
    mentions).  ``a`` keeps its compiled tests from its first call.
    """
    tests = a._covers
    if tests is None:
        tests = a._covers = tuple(map(_compile_covers, a.constraints))
    for test in tests:
        if not any(map(test, b.constraints)):
            return False
    return True
