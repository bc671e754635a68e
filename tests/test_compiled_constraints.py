"""Compiled constraint closures must agree with the interpreted matcher.

``Constraint.__post_init__`` compiles each (name, op, value) triple into
a fused closure at construction time; ``Constraint.matches`` is now one
indirect call.  The original interpreted evaluator lives on as
``tests.helpers.interpreted_matches`` precisely so these tests can hold
the two implementations against each other over every operator family
and the type-coercion corners (bool is not int, int vs float ordering,
missing attributes, cross-family values).
"""

import copy
import pickle
import random

import pytest

from repro.events.filters import (
    Constraint,
    Filter,
    Op,
    contains,
    eq,
    exists,
    ge,
    gt,
    le,
    lt,
    ne,
    prefix,
    suffix,
)
from repro.events.model import Notification
from tests.helpers import interpreted_matches
from tests.test_index_equivalence import (
    ATTRS,
    STRINGS,
    random_constraint,
    random_notification,
)


class TestCompiledInterpretedAgreement:
    def test_random_constraints_agree_over_random_notifications(self):
        rng = random.Random(20260808)
        constraints = [random_constraint(rng) for _ in range(400)]
        assert {c.op for c in constraints} == set(Op)
        notifications = [random_notification(rng) for _ in range(300)]
        for c in constraints:
            for n in notifications:
                assert c.matches(n) == interpreted_matches(c, n), (c, dict(n))

    def test_adversarial_values_per_operator(self):
        """Hand-built cross-family probes: every operator meets every
        value kind, including the bool/int and int/float seams."""
        probes = [
            Notification({"a": v})
            for v in (
                0, 1, -1, 2, 0.0, 1.0, 0.5, True, False,
                "", "a", "ab", "ba", "0", "1", "True",
            )
        ] + [Notification({"b": 1})]  # attribute absent entirely
        anchors = [0, 1, True, False, 0.5, "", "a", "ab", "1"]
        string_anchors = ["", "a", "ab", "1"]  # string ops validate eagerly
        for op in Op:
            if op is Op.EXISTS:
                op_anchors = [None]
            elif op in (Op.PREFIX, Op.SUFFIX, Op.CONTAINS):
                op_anchors = string_anchors
            else:
                op_anchors = anchors
            for anchor in op_anchors:
                c = (
                    Constraint("a", op)
                    if op is Op.EXISTS
                    else Constraint("a", op, anchor)
                )
                for n in probes:
                    assert c.matches(n) == interpreted_matches(c, n), (
                        op, anchor, dict(n),
                    )

    def test_family_gates_hold(self):
        # bool and int are distinct families even though bool <: int.
        assert not eq("x", 1).matches(Notification({"x": True}))
        assert not eq("x", True).matches(Notification({"x": 1}))
        assert not gt("x", True).matches(Notification({"x": 2}))
        # int and float order-compare within the numeric family.
        assert gt("x", 1).matches(Notification({"x": 1.5}))
        assert le("x", 2.0).matches(Notification({"x": 2}))
        # string comparisons never cross into numbers.
        assert not lt("x", "5").matches(Notification({"x": 4}))
        assert not prefix("x", "1").matches(Notification({"x": 12}))

    def test_ne_requires_same_family_presence(self):
        # NE is "present, same family, and different" — a missing or
        # cross-family value does not satisfy it.
        c = ne("x", 3)
        assert c.matches(Notification({"x": 4}))
        assert not c.matches(Notification({"x": 3}))
        assert not c.matches(Notification({"x": "3"}))
        assert not c.matches(Notification({"y": 4}))
        assert c.matches(Notification({"x": 3.5}))

    def test_string_ops_reject_non_strings(self):
        for c in (prefix("x", ""), suffix("x", ""), contains("x", "")):
            assert c.matches(Notification({"x": "anything"}))
            assert not c.matches(Notification({"x": 7}))
            assert not c.matches(Notification({"x": True}))

    def test_exists_matches_any_present_value(self):
        c = exists("x")
        for v in (0, False, "", 1.5, "z"):
            assert c.matches(Notification({"x": v}))
        assert not c.matches(Notification({"y": 1}))


class TestCompiledConstraintObjectSemantics:
    """The compiled closure must not break dataclass ergonomics."""

    def test_filter_matches_uses_compiled_checks(self):
        f = Filter(eq("type", "t"), gt("x", 2))
        assert f.matches(Notification({"type": "t", "x": 3}))
        assert not f.matches(Notification({"type": "t", "x": 2}))
        assert not f.matches(Notification({"x": 3}))

    def test_equality_and_hash_ignore_the_closure(self):
        a, b = eq("x", 1), eq("x", 1)
        assert a == b and hash(a) == hash(b)
        assert a != eq("x", 2)
        assert len({a, b, eq("x", 2)}) == 2

    def test_copy_deepcopy_pickle_roundtrip(self):
        rng = random.Random(5)
        for _ in range(50):
            c = random_constraint(rng)
            for clone in (
                copy.copy(c),
                copy.deepcopy(c),
                pickle.loads(pickle.dumps(c)),
            ):
                assert clone == c
                for _ in range(5):
                    n = random_notification(rng)
                    assert clone.matches(n) == c.matches(n)

    def test_repr_omits_the_closure(self):
        assert "check" not in repr(eq("x", 1))

    def test_slots_reject_ad_hoc_attributes(self):
        c = eq("x", 1)
        with pytest.raises((AttributeError, TypeError)):
            c.scratch = 1
        f = Filter(eq("x", 1))
        with pytest.raises(AttributeError):
            f.scratch = 1
