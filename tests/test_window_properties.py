"""Property-based tests on the time-window buffer (core CEP invariants)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events.model import Notification, make_event
from repro.matching.window import TimeWindowBuffer

# A random stream: (arrival-time gaps, subject ids).
streams = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
        st.integers(0, 5),
    ),
    min_size=1,
    max_size=60,
)


def replay(stream, window_s=30.0, max_items=16):
    buffer = TimeWindowBuffer(window_s, max_items=max_items)
    now = 0.0
    timeline = []
    for gap, subject in stream:
        now += gap
        event = make_event("ping", time=now, subject=f"s{subject}")
        buffer.add(now, event)
        timeline.append((now, event))
    return buffer, now, timeline


class TestWindowProperties:
    @given(streams)
    @settings(max_examples=100, deadline=None)
    def test_recent_only_contains_window_events(self, stream):
        buffer, now, timeline = replay(stream)
        cutoff = now - buffer.window_s
        for event in buffer.recent(now):
            assert float(event["time"]) >= cutoff

    @given(streams)
    @settings(max_examples=100, deadline=None)
    def test_recent_is_newest_first(self, stream):
        buffer, now, _ = replay(stream)
        times = [float(e["time"]) for e in buffer.recent(now)]
        assert times == sorted(times, reverse=True)

    @given(streams)
    @settings(max_examples=100, deadline=None)
    def test_recent_bounded_by_max_items(self, stream):
        buffer, now, _ = replay(stream, max_items=8)
        assert len(buffer.recent(now)) <= 8

    @given(streams)
    @settings(max_examples=100, deadline=None)
    def test_distinct_has_one_head_per_subject(self, stream):
        buffer, now, _ = replay(stream)
        heads = buffer.recent_distinct(now)
        subjects = [e["subject"] for e in heads]
        assert len(subjects) == len(set(subjects))

    @given(streams)
    @settings(max_examples=100, deadline=None)
    def test_distinct_head_is_the_subjects_newest_in_window(self, stream):
        buffer, now, timeline = replay(stream)
        cutoff = now - buffer.window_s
        expected = {}
        for time, event in timeline:
            if time >= cutoff:
                expected[event["subject"]] = time  # later entries overwrite
        heads = {e["subject"]: float(e["time"]) for e in buffer.recent_distinct(now)}
        assert heads == expected

    @given(streams)
    @settings(max_examples=100, deadline=None)
    def test_distinct_survives_flooding_by_other_subjects(self, stream):
        """A quiet subject's head must not be evicted by a flood (the E9
        property, as an invariant)."""
        buffer = TimeWindowBuffer(1000.0, max_items=8)
        buffer.add(0.0, make_event("ping", time=0.0, subject="quiet"))
        now = 0.0
        for gap, subject in stream:
            now += gap
            buffer.add(now, make_event("ping", time=now, subject=f"loud{subject}"))
        if now - 1000.0 <= 0.0:  # still inside the window
            heads = {e["subject"] for e in buffer.recent_distinct(now)}
            assert "quiet" in heads

    @given(streams, st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_distinct_limit_truncates_newest_first(self, stream, limit):
        buffer, now, _ = replay(stream)
        full = buffer.recent_distinct(now)
        limited = buffer.recent_distinct(now, limit=limit)
        assert limited == full[:limit]


# Richer streams for the subject index: int subjects (sensor ids), str
# subjects, the 3/"3" str() collision, falsy subjects, area-only and
# attribute-less events — every head-keying edge the engine can produce.
mixed_streams = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
        st.integers(0, 8),
    ),
    min_size=1,
    max_size=80,
)


def mixed_event(kind: int, now: float):
    if kind <= 2:
        return make_event("ping", time=now, subject=f"s{kind}")
    if kind == 3:
        return make_event("ping", time=now, subject=3)
    if kind == 4:
        return make_event("ping", time=now, subject="3")  # collides with 3
    if kind == 5:
        return make_event("ping", time=now, subject=0, area="zone")  # falsy
    if kind == 6:
        return make_event("ping", time=now, area="zone")  # no subject
    if kind == 8:
        return make_event("ping", time=now, subject="zone")  # kind 6's entity
    return make_event("ping", time=now)  # neither subject nor area


def replay_mixed(stream, window_s=30.0, max_items=8):
    """Small max_items so truncation churns the subject index constantly."""
    buffer = TimeWindowBuffer(window_s, max_items=max_items)
    now = 0.0
    for gap, kind in stream:
        now += gap
        buffer.add(now, mixed_event(kind, now))
    return buffer, now


class TestSubjectIndexProperties:
    @given(mixed_streams)
    @settings(max_examples=100, deadline=None)
    def test_keyed_lookup_agrees_with_entries_scan(self, stream):
        """recent_for_subject ≡ brute-force filter of _entries, per subject."""
        buffer, now = replay_mixed(stream)
        buffer.evict(now)
        seen = {str(e["subject"]) for _, e in buffer._entries if "subject" in e}
        for subject in seen | {"never-seen"}:
            expected = [
                event
                for _, event in reversed(buffer._entries)
                if "subject" in event and str(event["subject"]) == subject
            ]
            assert buffer.recent_for_subject(now, subject) == expected

    @given(mixed_streams, st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_keyed_lookup_limit_truncates_newest_first(self, stream, limit):
        buffer, now = replay_mixed(stream)
        for subject in buffer.subjects(now):
            full = buffer.recent_for_subject(now, subject)
            assert buffer.recent_for_subject(now, subject, limit=limit) == full[:limit]

    @given(mixed_streams)
    @settings(max_examples=100, deadline=None)
    def test_heads_lookup_equals_filtered_recent_distinct(self, stream):
        """The engine's keyed path: heads_for_subjects must return exactly
        recent_distinct filtered to the subject set, in the same order."""
        buffer, now = replay_mixed(stream)
        all_subjects = {
            "s0", "s1", "s2", "3", "0", "zone", "never-seen",
        }
        for subset in (all_subjects, {"3"}, {"0", "s1"}, {"never-seen"}, set()):
            expected = [
                event
                for event in buffer.recent_distinct(now)
                if event.get("subject") is not None
                and str(event.get("subject")) in subset
            ]
            assert buffer.heads_for_subjects(now, subset) == expected

    @given(mixed_streams)
    @settings(max_examples=60, deadline=None)
    def test_heads_lookup_ignores_duplicate_subjects(self, stream):
        buffer, now = replay_mixed(stream)
        once = buffer.heads_for_subjects(now, {"s1", "3"})
        assert buffer.heads_for_subjects(now, ["s1", "3", "s1", "3"]) == once

    @given(mixed_streams)
    @settings(max_examples=100, deadline=None)
    def test_no_stale_subjects_survive_eviction(self, stream):
        buffer, now = replay_mixed(stream)
        live = buffer.subjects(now)
        actual = {str(e["subject"]) for _, e in buffer._entries if "subject" in e}
        assert live == actual
        # Heads never resurrect expired events either.
        cutoff = now - buffer.window_s
        for event in buffer.heads_for_subjects(now, live | {"s0", "3", "0"}):
            assert float(event["time"]) >= cutoff

    @given(mixed_streams)
    @settings(max_examples=60, deadline=None)
    def test_index_empties_after_window_passes(self, stream):
        buffer, now = replay_mixed(stream)
        later = now + buffer.window_s + 1.0
        assert buffer.subjects(later) == set()
        assert buffer.heads_for_subjects(later, {"s0", "s1", "s2", "3", "0"}) == []
        assert buffer.recent_for_subject(later, "s0") == []

    @given(mixed_streams, st.integers(0, 12))
    @settings(max_examples=100, deadline=None)
    def test_recent_distinct_limit_matches_brute_force(self, stream, limit):
        """Both selection paths — the heap that serves small limits and
        the full stable sort — must reproduce a brute-force replay of the
        timeline: per-entity heads ordered by (-time, first appearance),
        truncated."""
        buffer = TimeWindowBuffer(30.0, max_items=8)
        now = 0.0
        heads: dict = {}
        order: list = []
        for gap, kind in stream:
            now += gap
            event = mixed_event(kind, now)
            buffer.add(now, event)
            key = TimeWindowBuffer._entity_key(event)
            if key not in heads:
                order.append(key)
            heads[key] = (now, event)
        cutoff = now - buffer.window_s
        rank = {key: position for position, key in enumerate(order)}
        expected = [
            event
            for _, _, event in sorted(
                (-time, rank[key], event)
                for key, (time, event) in heads.items()
                if time >= cutoff
            )
        ]
        assert buffer.recent_distinct(now) == expected
        assert buffer.recent_distinct(now, limit=limit) == expected[:limit]
        assert buffer.recent_distinct(now, limit=len(expected) + 5) == expected

    @given(mixed_streams)
    @settings(max_examples=100, deadline=None)
    def test_recent_distinct_unchanged_by_index_maintenance(self, stream):
        """recent_distinct ordering and bounds: still the per-entity heads
        sorted newest first, flood-proof against max_items truncation."""
        buffer, now = replay_mixed(stream)
        heads = buffer.recent_distinct(now)
        times = [float(e["time"]) for e in heads]
        assert times == sorted(times, reverse=True)
        cutoff = now - buffer.window_s
        assert all(t >= cutoff for t in times)
        keys = [TimeWindowBuffer._entity_key(e) for e in heads]
        assert len(keys) == len(set(keys))
