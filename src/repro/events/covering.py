"""Covering relations between constraints and filters.

Covering is the heart of Siena's scalability: a broker forwards a
subscription toward its neighbours only if no already-forwarded subscription
*covers* it (admits a superset of its notifications).  Experiment E4's
per-broker load flattening comes from exactly this pruning.

``a covers b`` means: every notification matched by ``b`` is matched by
``a``.  The implementation is conservative — when in doubt it answers False,
which only costs redundant forwarding, never lost notifications.
"""

from __future__ import annotations

from repro.events.filters import Constraint, Filter, Op, _comparable


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


def filter_covers(a: Filter, b: Filter) -> bool:
    """Does filter ``a`` match every notification matched by ``b``?

    True iff every constraint of ``a`` is covered by some constraint of
    ``b`` (``b`` is at least as restrictive on every attribute ``a``
    mentions).
    """
    return all(
        any(constraint_covers(ca, cb) for cb in b.constraints)
        for ca in a.constraints
    )
