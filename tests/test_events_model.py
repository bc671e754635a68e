"""Tests for the notification model and the subscription language."""

import copy
import random

import pytest

from repro.events.filters import (
    Constraint,
    Filter,
    Op,
    _signature,
    contains,
    eq,
    exists,
    family,
    ge,
    gt,
    le,
    lt,
    ne,
    prefix,
    suffix,
    type_is,
)
from repro.events.model import Notification, make_event
from tests.test_index_equivalence import random_filter


class TestNotification:
    def test_attribute_access(self):
        n = Notification({"type": "weather", "temperature_c": 20.5})
        assert n["type"] == "weather"
        assert n["temperature_c"] == 20.5
        assert len(n) == 2

    def test_immutable(self):
        n = Notification({"a": 1})
        with pytest.raises(TypeError):
            n["a"] = 2  # Mapping has no __setitem__
        with pytest.raises(AttributeError):
            n.something = 1

    def test_rejects_bad_attribute_names(self):
        with pytest.raises(ValueError):
            Notification({"": 1})

    def test_rejects_unsupported_types(self):
        with pytest.raises(TypeError):
            Notification({"x": [1, 2]})
        with pytest.raises(TypeError):
            Notification({"x": None})

    def test_event_type_and_time_conveniences(self):
        n = make_event("user-location", time=12.5, subject="bob")
        assert n.event_type == "user-location"
        assert n.time == 12.5

    def test_untyped_event_defaults(self):
        n = Notification({"x": 1})
        assert n.event_type == ""
        assert n.time == 0.0

    def test_with_attrs_creates_new(self):
        n = make_event("a")
        m = n.with_attrs(extra=True)
        assert "extra" not in n
        assert m["extra"] is True

    def test_equality_and_hash(self):
        a = Notification({"x": 1, "y": "z"})
        b = Notification({"y": "z", "x": 1})
        assert a == b
        assert hash(a) == hash(b)
        assert a != Notification({"x": 2, "y": "z"})

    def test_size_bytes_grows_with_attributes(self):
        small = make_event("a")
        large = make_event("a", foo="bar", baz="qux", quux="corge")
        assert large.size_bytes() > small.size_bytes()


class TestConstraints:
    def test_eq_ne(self):
        n = make_event("t", name="bob")
        assert eq("name", "bob").matches(n)
        assert not eq("name", "anna").matches(n)
        assert ne("name", "anna").matches(n)
        assert not ne("name", "bob").matches(n)

    def test_numeric_comparisons(self):
        n = make_event("t", temp=20.0)
        assert lt("temp", 25.0).matches(n)
        assert le("temp", 20.0).matches(n)
        assert gt("temp", 15).matches(n)
        assert ge("temp", 20.0).matches(n)
        assert not gt("temp", 20.0).matches(n)

    def test_string_operators(self):
        n = make_event("t", street="North Street")
        assert prefix("street", "North").matches(n)
        assert suffix("street", "Street").matches(n)
        assert contains("street", "th St").matches(n)
        assert not prefix("street", "South").matches(n)

    def test_exists(self):
        n = make_event("t", anything=1)
        assert exists("anything").matches(n)
        assert not exists("missing").matches(n)

    def test_missing_attribute_never_matches(self):
        n = make_event("t")
        assert not eq("ghost", 1).matches(n)
        assert not lt("ghost", 1).matches(n)

    def test_type_mismatch_never_matches(self):
        n = make_event("t", value="a-string")
        assert not lt("value", 5).matches(n)
        assert not eq("value", 5).matches(n)

    def test_bool_is_not_numeric(self):
        n = make_event("t", flag=True)
        assert not lt("flag", 5).matches(n)
        assert eq("flag", True).matches(n)

    def test_exists_takes_no_value(self):
        with pytest.raises(ValueError):
            Constraint("x", Op.EXISTS, 5)

    def test_value_required_for_comparisons(self):
        with pytest.raises(ValueError):
            Constraint("x", Op.LT)

    def test_string_ops_require_string_value(self):
        with pytest.raises(ValueError):
            Constraint("x", Op.PREFIX, 5)


class TestFilter:
    def test_conjunction(self):
        f = Filter(type_is("weather"), gt("temp", 18.0))
        assert f.matches(make_event("weather", temp=20.0))
        assert not f.matches(make_event("weather", temp=15.0))
        assert not f.matches(make_event("other", temp=20.0))

    def test_needs_constraints(self):
        with pytest.raises(ValueError):
            Filter()

    def test_equality_ignores_order(self):
        f1 = Filter(eq("a", 1), eq("b", 2))
        f2 = Filter(eq("b", 2), eq("a", 1))
        assert f1 == f2
        assert hash(f1) == hash(f2)


class TestFilterIdentity:
    """A filter's hash is computed once and its signature built once;
    identity must still be exactly the constraint set's."""

    def test_equality_and_hash_are_the_constraint_set(self):
        a, b = eq("x", 1), gt("y", 2.5)
        assert Filter(a, b) == Filter(b, a) and hash(Filter(a, b)) == hash(Filter(b, a))
        assert Filter(a, a) == Filter(a) and hash(Filter(a, a)) == hash(Filter(a))
        assert Filter(eq("x", 1)) == Filter(eq("x", 1.0))
        assert hash(Filter(eq("x", 1))) == hash(Filter(eq("x", 1.0)))
        assert Filter(eq("x", True)) != Filter(eq("x", 1))
        assert Filter(a) != Filter(a, b) and Filter(a) != a

    def test_agrees_with_constraint_set_identity(self):
        rng = random.Random(27)
        filters = [random_filter(rng) for _ in range(300)]
        filters += [Filter(*reversed(f.constraints)) for f in filters[:100]]
        for f in filters:
            for g in rng.sample(filters, 30) + [f]:
                same = frozenset(f.constraints) == frozenset(g.constraints)
                assert (f == g) == same
                if same:
                    assert hash(f) == hash(g)

    def test_copy_keeps_equality(self):
        f = Filter(type_is("weather"), gt("temp", 18.0))
        for clone in (copy.copy(f), copy.deepcopy(f)):
            assert clone == f and hash(clone) == hash(f)
            assert clone.matches(make_event("weather", temp=20.0))

    def test_signature_is_built_once_and_equals_the_per_call_set(self):
        f = Filter(eq("x", True), gt("x", 1), prefix("s", "a"), exists("e"))
        sig = _signature(f)
        assert _signature(f) is sig
        assert sig == frozenset((c.name, c.op, family(c.value), c.value) for c in f.constraints)
        assert _signature(Filter(*reversed(f.constraints))) == sig
