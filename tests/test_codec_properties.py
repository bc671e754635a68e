"""Property tests of the socket codec: generated bundles round-trip exactly.

``tests/test_wire_codec.py`` pins one hand-written sample per wire type;
here ``hypothesis`` draws notifications over the awkward corners of the
value domain — the ``2`` / ``2.0`` / ``True`` family boundary, ints past
64 bits, unicode names and values, empty batches — and packs them into
random :class:`Frames` bundles whose messages share notification objects,
the way a shard's fan-out does; and filters over every operator and
value family, which the control messages carry.  Run longer with
``--hypothesis-profile=nightly`` (profiles in ``tests/conftest.py``).
"""

import struct

from hypothesis import given
from hypothesis import strategies as st

from repro.events.filters import Constraint, Filter, Op
from repro.events.model import Notification, make_event
from repro.events.sharding import Deliver, Routed
from repro.events.wire import (
    Advertise,
    Notify,
    NotifyBatch,
    Publish,
    PublishBatch,
    Subscribe,
    Unadvertise,
    Unsubscribe,
)
from repro.net.serialization import FrameDecoder, Frames, encode_frame

FAMILY_BOUNDARY = [2, 2.0, True, 1, 1.0, False, 0, 0.0, -0.0, -1, -1.0]
values = st.one_of(
    st.sampled_from(FAMILY_BOUNDARY),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(allow_nan=False),
    st.booleans(),
    st.text(max_size=12),
)
names = st.one_of(st.sampled_from(["type", "x", "seq", "ünï", "名前"]), st.text(min_size=1, max_size=8))
notifications = st.dictionaries(names, values, max_size=4).map(Notification)
addresses = st.one_of(st.text(max_size=6), st.integers(min_value=-(2**40), max_value=2**40))
pub_ids = st.none() | st.tuples(addresses, st.integers(min_value=0, max_value=2**70))


@st.composite
def bundles(draw):
    """A ``Frames`` envelope whose messages pick from one shared pool."""
    pool = draw(st.lists(notifications, min_size=1, max_size=5))
    pick = st.sampled_from(pool)
    batch = st.lists(pick, max_size=4).map(tuple)
    message = st.one_of(
        st.builds(Notify, pick),
        st.builds(NotifyBatch, batch),
        st.builds(Publish, pick, pub_ids),
        st.builds(PublishBatch, st.lists(st.tuples(pick, pub_ids), max_size=4).map(tuple)),
        st.builds(Deliver, st.lists(st.tuples(addresses, batch), max_size=3).map(tuple)),
        st.builds(Routed, addresses, st.builds(PublishBatch, st.lists(st.tuples(pick, pub_ids), max_size=3).map(tuple))),
    )
    return Frames(tuple(draw(st.lists(st.tuples(addresses, addresses, message), max_size=6))))


def carried(message):
    """Every notification a message carries, in order."""
    if isinstance(message, (Notify, Publish)):
        return [message.notification]
    if isinstance(message, NotifyBatch):
        return list(message.notifications)
    if isinstance(message, PublishBatch):
        return [notification for notification, _ in message.items]
    if isinstance(message, Deliver):
        return [n for _, batch in message.items for n in batch]
    return carried(message.message)  # Routed


def typed(notification):
    """Equality that also tells 2, 2.0 and True apart."""
    return [(name, type(value), value) for name, value in notification.items()]


def decode_all(data: bytes):
    return list(FrameDecoder().feed(data))


@given(bundles())
def test_a_bundle_decodes_unchanged_and_a_shared_notification_to_one_object(bundle):
    back = decode_all(encode_frame("", "", bundle))
    assert back == list(bundle.frames)
    sent = [n for _, _, message in bundle.frames for n in carried(message)]
    got = [n for _, _, message in back for n in carried(message)]
    assert [type(m) for _, _, m in back] == [type(m) for _, _, m in bundle.frames]
    assert [typed(n) for n in got] == [typed(n) for n in sent]
    image = {}
    for before, after in zip(sent, got):
        assert image.setdefault(id(before), id(after)) == id(after)
    # ... and distinct objects stay distinct, however equal their values.
    assert len(set(image.values())) == len(image)


@given(st.lists(bundles(), min_size=1, max_size=2), st.lists(st.integers(min_value=0), max_size=10))
def test_every_split_of_the_stream_yields_the_same_frames(sent, cuts):
    stream = b"".join(encode_frame("", "", bundle) for bundle in sent)
    whole = decode_all(stream)
    points = sorted({cut % (len(stream) + 1) for cut in cuts})
    decoder, pieces = FrameDecoder(), []
    for start, end in zip([0, *points], [*points, len(stream)]):
        pieces.extend(decoder.feed(stream[start:end]))
    assert pieces == whole == [frame for bundle in sent for frame in bundle.frames]


def test_the_family_boundary_survives_one_bundle():
    """Equal and equally hashed, yet three rows, each with its own type."""
    trio = [Notification({"x": value}) for value in (2, 2.0, True)]
    bundle = Frames(tuple(("s", "d", Notify(n)) for n in trio))
    back = decode_all(encode_frame("", "", bundle))
    assert [type(message.notification["x"]) for _, _, message in back] == [int, float, bool]


def test_a_notification_shared_by_k_batches_is_in_the_bytes_once():
    k = 12
    event = make_event("rfid", tag="only-once-marker", strength=4)
    bundle = Frames(tuple(("shard-0", f"client-{c}", NotifyBatch((event,))) for c in range(k)))
    data = encode_frame("", "", bundle)
    assert data.count(b"only-once-marker") == 1
    (size,) = struct.unpack_from(">I", data)
    assert size == len(data) - 4  # one wire frame
    back = decode_all(data)
    assert len(back) == k and len({id(message.notifications[0]) for _, _, message in back}) == 1


STRING_OPS = (Op.PREFIX, Op.SUFFIX, Op.CONTAINS)


@st.composite
def constraints(draw):
    """Any operator; any value family the operator accepts — bools under
    ranges, ints past 64 bits, unicode names and strings."""
    name, op = draw(names), draw(st.sampled_from(Op))
    if op is Op.EXISTS:
        return Constraint(name, op)
    return Constraint(name, op, draw(st.text(max_size=12) if op in STRING_OPS else values))


filters = st.lists(constraints(), min_size=1, max_size=5).map(lambda cs: Filter(*cs))


def typed_constraints(filter):
    return sorted((c.name, c.op.value, type(c.value).__name__, repr(c.value)) for c in filter.constraints)


@given(filters, st.lists(addresses, max_size=3).map(tuple), st.booleans())
def test_a_filter_round_trips_equal_and_equally_hashed(filter, path, reset):
    sent = [
        Subscribe(filter, path, reset), Advertise(filter, path, reset),
        Unsubscribe(filter), Unadvertise(filter),
    ]
    bundle = Frames(tuple(("s", "d", message) for message in sent))
    back = [message for _, _, message in decode_all(encode_frame("", "", bundle))]
    assert back == sent
    for message in back:
        assert message.filter == filter and hash(message.filter) == hash(filter)
        assert typed_constraints(message.filter) == typed_constraints(filter)
