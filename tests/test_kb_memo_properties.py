"""Property tests: the knowledge base's memo never changes an answer.

``KnowledgeBase`` memoises each timed answer over the half-open interval
in which it stays exact.  Here random add / remove / retract sequences
interleave with batteries of questions asked at instants that land
exactly on validity bounds and just either side of them, in no
particular order.  Every answer of ``query``, ``query_object_str``,
``holds`` and ``value`` must equal a memo-free twin's — same facts, same
list order — and ``query``'s must equal a brute-force scan of the facts
the sequence left behind.

The bounded default profile of ``tests/conftest.py`` runs these in
tier-1; ``--hypothesis-profile=nightly`` runs them long.
"""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.knowledge.base import MEMO_LIMIT, KnowledgeBase
from repro.knowledge.facts import Fact

# Few values, so questions repeat and memo keys meet: 1 and "1" are one
# subject; 1, True and 1.0 are one ``==`` class, and "1" shares 1's str().
SUBJECTS = ["a", 1, "1"]
PREDICATES = ["p", "q"]
OBJECTS = [1, True, 1.0, "1", "x"]
BOUNDS = [-math.inf, -1.0, 0.0, 2.5, 5.0, math.inf]
# Every bound, and the floats just below and just above it.
INSTANTS = sorted(
    {math.nextafter(b, nudge) for b in BOUNDS for nudge in (-math.inf, math.inf)} | set(BOUNDS)
)


class MemoFree(KnowledgeBase):
    """The reference: every answer computed afresh."""

    def _recall(self, key, at_time):
        return None


@st.composite
def facts(draw):
    # Equal draws make zero-length intervals.
    low, high = sorted(draw(st.lists(st.sampled_from(BOUNDS), min_size=2, max_size=2)))
    return Fact(
        draw(st.sampled_from(SUBJECTS)),
        draw(st.sampled_from(PREDICATES)),
        draw(st.sampled_from(OBJECTS)),
        valid_from=low,
        valid_to=high,
    )


ops = st.one_of(
    st.tuples(st.just("add"), facts()),
    st.tuples(st.just("remove"), facts()),
    st.tuples(st.just("remove_added"), st.integers(0, 50)),
    st.tuples(st.just("retract"), st.sampled_from(SUBJECTS), st.sampled_from(PREDICATES)),
    st.tuples(
        st.just("ask"), st.sampled_from(SUBJECTS), st.sampled_from(PREDICATES),
        st.none() | st.sampled_from(INSTANTS),
    ),
)


def battery(subject, predicate, at_time):
    """Questions about one (subject, predicate) at one instant."""
    for obj in [*OBJECTS, None]:
        yield "query", dict(subject=subject, predicate=predicate, object=obj, at_time=at_time)
    yield "query", dict(subject=subject, at_time=at_time)
    yield "query", dict(predicate=predicate, at_time=at_time)
    for obj in OBJECTS:
        for pred in [*PREDICATES, None]:
            yield "query_object_str", dict(object=obj, predicate=pred, at_time=at_time)
        yield "holds", dict(subject=subject, predicate=predicate, object=obj, at_time=at_time)
    yield "value", dict(subject=subject, predicate=predicate, default="none", at_time=at_time)


def brute(live, subject=None, predicate=None, object=None, at_time=None):
    """``query``'s answer by scanning every live fact."""
    return sorted(
        repr(f)
        for f in live
        if (subject is None or str(f.subject) == str(subject))
        and (predicate is None or f.predicate == predicate)
        and (object is None or f.object == object)
        and (at_time is None or f.valid_at(at_time))
    )


def same(kb, twin, method, kwargs):
    got, want = getattr(kb, method)(**kwargs), getattr(twin, method)(**kwargs)
    assert got == want, (method, kwargs)
    # Same types and order, not only ``==`` (1, True and 1.0 are equal).
    assert repr(got) == repr(want), (method, kwargs)
    return got


@given(st.lists(ops, min_size=1, max_size=50))
def test_memo_answers_equal_a_memo_free_twin_and_a_scan(sequence):
    kb, twin, live, added, last_ask = KnowledgeBase(), MemoFree(), set(), [], None

    def ask(subject, predicate, at_time):
        for method, kwargs in battery(subject, predicate, at_time):
            got = same(kb, twin, method, kwargs)
            if method == "query":
                assert sorted(map(repr, got)) == brute(live, **kwargs)

    for kind, *args in sequence:
        if kind == "ask":
            ask(*args)
            last_ask = args
            continue
        if kind == "remove_added":
            if not added:
                continue
            kind, args = "remove", [added[args[0] % len(added)]]
        assert getattr(kb, kind)(*args) == getattr(twin, kind)(*args)
        if kind == "add":
            live.add(args[0])
            added.append(args[0])
        elif kind == "remove":
            live.discard(args[0])
        else:
            live -= {f for f in live if str(f.subject) == str(args[0]) and f.predicate == args[1]}
        if last_ask is not None:
            ask(*last_ask)  # what the memo last learned must not outlive a change
    assert len(kb) == len(twin) == len(live)


def test_every_ordered_pair_of_instants():
    """Whatever instant filled the memo, the next one gets its own answer."""
    kb, twin = KnowledgeBase(), MemoFree()
    for fact in (
        Fact("a", "p", "early", valid_from=-1.0, valid_to=0.0),
        Fact("a", "p", "point", valid_from=2.5, valid_to=2.5),
        Fact("a", "p", "late", valid_from=2.5, valid_to=math.inf),
        Fact("a", "p", "soon", valid_from=5.0, valid_to=5.0),
        Fact("a", "p", "always"),
    ):
        kb.add(fact)
        twin.add(fact)
    for first in INSTANTS:
        for then in INSTANTS:
            for at_time in (first, then):
                assert kb.query("a", "p", at_time=at_time) == twin.query("a", "p", at_time=at_time)
                assert kb.query_object_str("late", at_time=at_time) == twin.query_object_str(
                    "late", at_time=at_time
                )
    assert kb.memo_hits > 0


def test_repeat_questions_are_answered_from_the_memo():
    kb = KnowledgeBase()
    kb.add(Fact("bob", "free-time", True, valid_from=10.0, valid_to=20.0))
    assert kb.holds("bob", "free-time", True, at_time=12.0)
    assert kb.memo_hits == 0
    assert kb.holds("bob", "free-time", True, at_time=20.0)  # closed at valid_to
    assert kb.memo_hits == 1
    assert not kb.holds("bob", "free-time", True, at_time=math.nextafter(20.0, math.inf))
    assert kb.memo_hits == 1  # past the interval: computed again
    kb.add(Fact("bob", "free-time", True, valid_from=30.0, valid_to=40.0))
    assert kb.holds("bob", "free-time", True, at_time=35.0)
    assert kb.memo_hits == 1  # every add clears the memo


def test_a_stream_of_unknown_subjects_stays_within_the_bound():
    kb = KnowledgeBase()
    kb.add(Fact("known", "p", 1))
    for index in range(MEMO_LIMIT + 500):
        assert kb.query(subject=f"stranger-{index}", predicate="p", at_time=1.0) == []
        assert len(kb._memo) <= MEMO_LIMIT
    assert kb.value("known", "p", at_time=1.0) == 1
