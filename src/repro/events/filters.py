"""Siena's subscription language: attribute constraints and filters.

Besides matching, the module provides the *intersection* predicate the
advertisement/subscription interaction is built on:
:func:`filters_intersect` answers "could some notification satisfy both
filters?".  Brokers use it to forward a subscription toward a neighbour
only when that neighbour's subtree has advertised an intersecting
filter.  Each filter builds one normal form on first use — per attribute
name, the value an ``=`` pins or else the ``=``-free constraint group,
and ``False`` instead of a form when some name admits no value — so
:func:`filter_satisfiable` reads whether the form exists and
:func:`filters_intersect` meets two forms on the names both constrain.
The predicate is conservative in the safe direction: a ``False`` answer
is exact (no notification can satisfy both), while a ``True`` answer may
be an over-approximation — which only costs redundant forwarding, never
lost notifications (the mirror image of
:func:`~repro.events.covering.filter_covers`'s conservatism).
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.events.model import AttributeValue, Notification


class Op(enum.Enum):
    """Comparison operators of the subscription language."""

    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    PREFIX = "prefix"
    SUFFIX = "suffix"
    CONTAINS = "contains"
    EXISTS = "exists"


_STRING_OPS = {Op.PREFIX, Op.SUFFIX, Op.CONTAINS}
_BOUND_OPS = {Op.LT, Op.LE, Op.GT, Op.GE}
_ORDER_CMP = {Op.EQ: operator.eq, Op.NE: operator.ne, Op.LT: operator.lt,
              Op.LE: operator.le, Op.GT: operator.gt, Op.GE: operator.ge}


def _compile(name: str, op: Op, value: Any) -> Callable[[Any], bool]:
    """Fuse one constraint into a closure over a Mapping-like notification.

    The operator dispatch, family check, and value comparison are
    resolved once here instead of re-branching on every ``matches``
    call; the closure is exactly equivalent to the interpreted
    ``tests/helpers.py::interpreted_matches`` (a property test pins this
    over every operator family).  Missing attributes come back as
    ``None`` from ``get``, which no family admits.
    """
    if op is Op.EXISTS:
        return lambda n: name in n
    if op is Op.PREFIX:
        return lambda n: isinstance(a := n.get(name), str) and a.startswith(value)
    if op is Op.SUFFIX:
        return lambda n: isinstance(a := n.get(name), str) and a.endswith(value)
    if op is Op.CONTAINS:
        return lambda n: isinstance(a := n.get(name), str) and value in a
    cmp = _ORDER_CMP[op]
    if isinstance(value, bool):
        return lambda n: isinstance(a := n.get(name), bool) and cmp(a, value)
    if isinstance(value, (int, float)):
        return lambda n: (
            isinstance(a := n.get(name), (int, float))
            and not isinstance(a, bool)
            and cmp(a, value)
        )
    return lambda n: isinstance(a := n.get(name), str) and cmp(a, value)


@dataclass(frozen=True, eq=False, slots=True)
class Constraint:
    """One (attribute, operator, value) predicate.

    Equality and hashing are family-aware: Python folds ``True`` into
    ``1``, but ``[x > True]`` and ``[x > 1]`` admit different values
    (matching compares within one type family), so they must not
    collapse into one identity in subscription stores, advertisement
    stores, or forwarded-filter sets — an advertisement silently
    deduplicated away would make pruning drop live traffic.

    ``matches`` dispatches through a closure compiled at construction
    (see :func:`_compile`); the per-call interpretation it replaces is
    kept as ``tests/helpers.py::interpreted_matches`` for the agreement
    tests.
    """

    name: str
    op: Op
    value: AttributeValue | None = None
    check: Callable[[Any], bool] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Constraint):
            return NotImplemented
        return (
            self.name == other.name
            and self.op is other.op
            and self.value == other.value
            and family(self.value) == family(other.value)
        )

    def __hash__(self) -> int:
        return hash((self.name, self.op, family(self.value), self.value))

    def __post_init__(self) -> None:
        if self.op is Op.EXISTS:
            if self.value is not None:
                raise ValueError("EXISTS takes no value")
        elif self.value is None:
            raise ValueError(f"{self.op.value} requires a value")
        if self.op in _STRING_OPS and not isinstance(self.value, str):
            raise ValueError(f"{self.op.value} requires a string value")
        object.__setattr__(self, "check", _compile(self.name, self.op, self.value))

    def __reduce__(self):
        # The compiled closure is unpicklable (and stale state anyway);
        # rebuild from the triple so __post_init__ recompiles it.
        if self.op is Op.EXISTS:
            return (Constraint, (self.name, self.op))
        return (Constraint, (self.name, self.op, self.value))

    def matches(self, notification: Notification) -> bool:
        return self.check(notification)

    def __repr__(self) -> str:
        if self.op is Op.EXISTS:
            return f"[{self.name} exists]"
        return f"[{self.name} {self.op.value} {self.value!r}]"


def _comparable(a: Any, b: Any) -> bool:
    """Siena compares within a type family: numbers with numbers, etc."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return True
    return isinstance(a, str) and isinstance(b, str)


def family(value: Any) -> str:
    """The comparison family of one value: ``"b"``, ``"n"`` or ``"s"``.

    Booleans compare only with booleans, numbers with numbers, strings
    with strings; tagging constraint identity, index bucket keys and
    subject keys with the family keeps ``1`` from colliding with
    ``True`` (equal hashes, different families).  A valueless EXISTS
    constraint's ``None`` lands in ``"s"``; its operator keeps it apart.
    """
    if isinstance(value, bool):
        return "b"
    if isinstance(value, (int, float)):
        return "n"
    return "s"


def canonical_subject(value: Any) -> str:
    """A family-tagged canonical form of one subject value.

    Mirrors the matching fabric's equality exactly: booleans are their
    own family (``True`` matches neither ``1`` nor ``1.0``), numerics
    collapse to their float repr (``1`` and ``1.0`` match the same
    events, so they must share a key), and strings are themselves.
    """
    tag = family(value)
    if tag == "n":
        try:
            return f"n:{float(value) + 0.0!r}"  # + 0.0: -0.0 == 0, so one key
        except OverflowError:
            # An int beyond float range: no float can equal it, so its
            # exact repr is a stable (and collision-safe) fallback.
            return f"n:int:{value!r}"
    if tag == "b":
        return f"b:{value!r}"
    return f"s:{value}"


class Filter:
    """A conjunction of constraints; matches when every constraint does.
    Identity is the constraint *set*, hashed once: filters key every book;
    ``_sig``/``_covers``/``_form``/``_summary`` (the covering poset's) fill on use."""

    __slots__ = ("constraints", "_checks", "_hash", "_sig", "_covers", "_form", "_summary")

    def __init__(self, *constraints: Constraint):
        if not constraints:
            raise ValueError("a filter needs at least one constraint")
        self.constraints = tuple(constraints)
        self._checks = tuple(c.check for c in constraints)
        self._hash = hash(frozenset(self.constraints))
        self._sig = self._covers = self._form = self._summary = None

    def matches(self, notification: Notification) -> bool:
        for check in self._checks:
            if not check(notification):
                return False
        return True

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Filter) and self._hash == other._hash and set(self.constraints) == set(other.constraints)
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "Filter(" + " & ".join(repr(c) for c in self.constraints) + ")"


def pinned_subject(filter: Filter) -> str | None:
    """The canonical subject ``filter`` pins, else ``None``.

    An equality constraint on the subject attribute (``type``) pins the only
    subject the filter can match — what rendezvous keys, shard ownership
    and Elvin's quench snapshot all partition by; ``None`` marks a
    wildcard that could match any subject.  A filter with several such
    equalities can only match events satisfying all of them, so any one
    of them is a sound (conservative) pick.
    """
    for constraint in filter.constraints:
        if constraint.name == "type" and constraint.op is Op.EQ:
            return canonical_subject(constraint.value)
    return None


# ----------------------------------------------------------------------
# Convenience constructors mirroring the subscription language's syntax.
# ----------------------------------------------------------------------
def eq(name: str, value: AttributeValue) -> Constraint:
    return Constraint(name, Op.EQ, value)


def ne(name: str, value: AttributeValue) -> Constraint:
    return Constraint(name, Op.NE, value)


def lt(name: str, value: AttributeValue) -> Constraint:
    return Constraint(name, Op.LT, value)


def le(name: str, value: AttributeValue) -> Constraint:
    return Constraint(name, Op.LE, value)


def gt(name: str, value: AttributeValue) -> Constraint:
    return Constraint(name, Op.GT, value)


def ge(name: str, value: AttributeValue) -> Constraint:
    return Constraint(name, Op.GE, value)


def prefix(name: str, value: str) -> Constraint:
    return Constraint(name, Op.PREFIX, value)


def suffix(name: str, value: str) -> Constraint:
    return Constraint(name, Op.SUFFIX, value)


def contains(name: str, value: str) -> Constraint:
    return Constraint(name, Op.CONTAINS, value)


def exists(name: str) -> Constraint:
    return Constraint(name, Op.EXISTS)


def type_is(event_type: str) -> Constraint:
    return eq("type", event_type)


# ----------------------------------------------------------------------
# Intersection: could some notification satisfy both filters?
#
# A conjunction is satisfiable iff, attribute by attribute, some single
# value satisfies every constraint on that attribute (a witness
# notification carries one admissible value per constrained attribute).
# Each filter's normal form records, per name, the value an ``=`` pins
# or else the ``=``-free group itself, and is ``False`` when some name
# admits no value.  A pinned value is checked exactly; an ``=``-free group
# runs a per-family ladder: exhaustive for bools, interval arithmetic
# for numbers, prefix/suffix compatibility and bounds for strings.
# String ranges fencing with suffix/contains patterns are the one place
# the answer is conservatively True.
# ----------------------------------------------------------------------
def constraint_admits(constraint: Constraint, value: AttributeValue) -> bool:
    """Would an attribute holding ``value`` satisfy ``constraint``?

    Exactly ``constraint.matches`` on a notification carrying that one
    attribute (the mapping protocol is all ``matches`` uses).
    """
    return constraint.matches({constraint.name: value})  # type: ignore[arg-type]


def _bool_satisfiable(constraints: Sequence[Constraint]) -> bool:
    return any(
        all(constraint_admits(c, value) for c in constraints)
        for value in (True, False)
    )


def _tightest_bounds(constraints: Sequence[Constraint]) -> tuple:
    """The interval the order constraints leave, as ``(lo, lo_open, hi,
    hi_open)``; a bound is ``None`` where nothing constrains that side."""
    lo = hi = None
    lo_open = hi_open = False
    for c in constraints:
        if c.op is Op.GT:
            if lo is None or c.value > lo or (c.value == lo and not lo_open):
                lo, lo_open = c.value, True
        elif c.op is Op.GE:
            if lo is None or c.value > lo:
                lo, lo_open = c.value, False
        elif c.op is Op.LT:
            if hi is None or c.value < hi or (c.value == hi and not hi_open):
                hi, hi_open = c.value, True
        elif c.op is Op.LE:
            if hi is None or c.value < hi:
                hi, hi_open = c.value, False
    return lo, lo_open, hi, hi_open


def _numeric_satisfiable(constraints: Sequence[Constraint]) -> bool:
    if any(c.op in _BOUND_OPS and c.value != c.value for c in constraints):
        return False  # no number is ordered against NaN
    lo, lo_open, hi, hi_open = _tightest_bounds(constraints)
    lo = -math.inf if lo is None else lo
    hi = math.inf if hi is None else hi
    if lo > hi:
        return False
    if lo == hi:
        if lo_open or hi_open:
            return False
        return all(constraint_admits(c, lo) for c in constraints)
    if lo == -math.inf or hi == math.inf:
        return True  # infinitely many numbers: finitely many NE cannot empty it
    # Both ends finite: walk the numbers inside upward.  Each NE excludes
    # one of them, so one of the first (NE count + 1) survives if the
    # interval holds that many; ``[x > 1.0] & [x < nextafter(1.0, 2)]``
    # holds none.
    value = lo if not lo_open else _next_number(lo)
    while value < hi or (value == hi and not hi_open):
        if all(constraint_admits(c, value) for c in constraints):
            return True
        value = _next_number(value)
    return False


def _next_number(value: int | float) -> int | float:
    """The least int or float above the finite ``value``."""
    try:
        as_float = float(value)
    except OverflowError:  # an int beyond float range
        as_float = math.inf if value > 0 else math.nextafter(-math.inf, 0)
    else:
        if as_float <= value:
            as_float = math.nextafter(as_float, math.inf)
    return min(math.floor(value) + 1, as_float)


def _string_satisfiable(constraints: Sequence[Constraint]) -> bool:
    prefixes = [c.value for c in constraints if c.op is Op.PREFIX]
    if prefixes:
        longest = max(prefixes, key=len)
        if not all(longest.startswith(p) for p in prefixes):
            return False  # no string starts with two incomparable prefixes
    suffixes = [c.value for c in constraints if c.op is Op.SUFFIX]
    if suffixes:
        longest = max(suffixes, key=len)
        if not all(longest.endswith(s) for s in suffixes):
            return False
    lo, lo_open, hi, hi_open = _tightest_bounds(constraints)
    if lo is None:
        lo, lo_open = "", False  # "" is the lexicographic minimum
    if hi is not None:
        if lo > hi:
            return False
        if lo == hi:
            if lo_open or hi_open:
                return False
            return all(constraint_admits(c, lo) for c in constraints)
    if prefixes:
        # Every string with prefix P sits in the half-line [P, …): P is
        # its minimum, and any string above P *not* extending P differs
        # from P at some index i < len(P) with a larger character there —
        # so P-prefixed strings can never reach it.  That turns the
        # conservatively-True range × prefix corner exact:
        longest = max(prefixes, key=len)
        if hi is not None:
            if longest > hi:
                return False  # the whole half-line lies above the cap
            if longest == hi:
                if hi_open:
                    return False  # only P itself meets the cap, excluded
                # The cap pins the witness to exactly P.
                return all(constraint_admits(c, longest) for c in constraints)
        if lo > longest and not lo.startswith(longest):
            return False  # the whole half-line below lo's first divergence
    # Remaining combinations (pattern constraints, one-sided or roomy
    # ranges, NE exclusions over an infinite domain) either always admit
    # a witness — prefix+contains+suffix concatenations do — or are
    # conservatively declared satisfiable: lexicographic ranges fencing
    # with suffix/contains patterns is the over-approximated corner.
    return True


def _name_form(group: Sequence[Constraint]) -> Any:
    """One name's entry in a normal form: the value its first ``=`` pins,
    else the ``=``-free group as a tuple; ``None`` when no value satisfies
    the group.  A satisfiable group holding an ``=`` admits that value
    alone (up to numeric equality), so the pin is checked exactly; an
    ``=``-free group runs the ladder of each family it leaves open."""
    families = {"b", "n", "s"}
    for c in group:
        if c.op is Op.EQ:
            pin = c.value
            return pin if all(constraint_admits(d, pin) for d in group) else None
        if c.op is not Op.EXISTS:
            families &= {"s"} if c.op in _STRING_OPS else {family(c.value)}
    if (
        ("b" in families and _bool_satisfiable(group))
        or ("n" in families and _numeric_satisfiable(group))
        or ("s" in families and _string_satisfiable(group))
    ):
        return tuple(group)
    return None


def constraints_satisfiable(constraints: Iterable[Constraint]) -> bool:
    """Does the group's normal form exist — can one attribute value
    satisfy every constraint in it?  ``False`` is exact; ``True`` may be
    conservative (see the note above)."""
    return _name_form(list(constraints)) is not None


def _normal_form(filter: Filter) -> dict[str, Any] | bool:
    """``filter``'s per-name normal form (see :func:`_name_form`), built
    on first use and kept on the filter; ``False`` when it matches nothing."""
    form = filter._form
    if form is None:
        groups: dict[str, list[Constraint]] = {}
        for c in filter.constraints:
            groups.setdefault(c.name, []).append(c)
        form = {name: _name_form(group) for name, group in groups.items()}
        if None in form.values():
            form = False
        filter._form = form
    return form


def _signature(filter: Filter) -> frozenset:
    """A filter's constraint set as plain value tuples, built once per filter.

    Mirrors ``Constraint``'s family-tagged identity (``[x > True]`` and
    ``[x > 1]`` stay distinct); ``rendezvous.signature_key`` builds an
    untyped advertisement's discovery key from it.
    """
    if filter._sig is None:
        filter._sig = frozenset((c.name, c.op, family(c.value), c.value) for c in filter.constraints)
    return filter._sig


def filter_satisfiable(filter: Filter) -> bool:
    """Could any notification match ``filter``?  ``False`` is exact."""
    return _normal_form(filter) is not False


def _meet(x: Any, y: Any) -> bool:
    """Can one value satisfy two normal-form entries of the same name?"""
    if isinstance(y, tuple):
        x, y = y, x  # a group, if either entry is one, comes first
    if not isinstance(x, tuple):
        return x == y and family(x) == family(y)  # two pins
    if isinstance(y, tuple):
        return constraints_satisfiable(x + y)
    return all(constraint_admits(c, y) for c in x)


def filters_intersect(a: Filter, b: Filter) -> bool:
    """Could some notification match both ``a`` and ``b``?

    Symmetric, and reflexive exactly on satisfiable filters.  A
    ``False`` answer is exact — advertisement-based pruning may rely on
    it to drop forwarding without ever losing a notification — while
    ``True`` may over-approximate (costing only redundant forwarding).
    The two normal forms meet only on the names both constrain: a name
    just one side constrains is settled by that side's form existing.
    """
    form_a, form_b = _normal_form(a), _normal_form(b)
    if form_a is False or form_b is False:
        return False
    if len(form_b) < len(form_a):
        form_a, form_b = form_b, form_a
    for name, x in form_a.items():
        y = form_b.get(name)
        if y is not None and not _meet(x, y):
            return False
    return True
