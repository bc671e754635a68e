"""The socket codec round-trips every wire message unchanged.

Each sample goes through the whole path a frame takes between processes —
``encode_frame`` → bytes → ``FrameDecoder.feed`` — so JSON's own
conversions (tuples become lists, ``None`` becomes ``null``) are part of
what is checked, not just the dict-level ``encode_message``.
"""

import asyncio
import json
import struct

import pytest

from repro.events.filters import Filter, eq, exists, gt, prefix, type_is
from repro.events.model import Notification, make_event
from repro.events.sharding import Attach, Deliver, Routed
from repro.events.wire import (
    Advertise,
    MoveOut,
    Notify,
    NotifyBatch,
    Publish,
    PublishBatch,
    Subscribe,
    Unadvertise,
    Unsubscribe,
)
from repro.net.serialization import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    FrameError,
    Hello,
    decode_message,
    encode_frame,
    encode_message,
)
from repro.net.transport import AsyncioTransport

BAND = Filter(type_is("rfid"), gt("strength", 2.5), exists("tag"), prefix("room", "lab-"))
FLAG = Filter(eq("armed", True), eq("floor", 3))
EVENT = make_event("rfid", time=12.5, strength=4, tag="t-17", armed=False)
BARE = Notification({"x": 1.0})
ITEMS = ((EVENT, ("c1", 0)), (BARE, None), (EVENT, ("c1", 2)))

SAMPLES = [
    Subscribe(BAND),
    Subscribe(BAND, ("b1", "b2"), True),
    Subscribe(FLAG, ("b1",)),
    Subscribe(FLAG, (), True),
    Unsubscribe(BAND),
    Advertise(FLAG),
    Advertise(BAND, ("b3", "b1", "b2"), True),
    Unadvertise(FLAG),
    Publish(EVENT, ("c1", 41)),
    Publish(BARE, None),
    PublishBatch(ITEMS),
    PublishBatch(()),
    Notify(EVENT),
    NotifyBatch((EVENT, BARE)),
    NotifyBatch(()),
    Routed("c1", PublishBatch(ITEMS)),
    Routed("c2", Subscribe(BAND, ("b1", "b2"), True)),
    Routed("c3", Publish(BARE, None)),
    Attach("c1"),
    Deliver((("c1", (EVENT, BARE)), ("c2", ()))),
    Deliver(()),
    Hello(("shard-0", "shard-1")),
    Hello(()),
]


def over_the_wire(message):
    frames = list(FrameDecoder().feed(encode_frame("src", "dst", message)))
    assert len(frames) == 1 and frames[0][:2] == ("src", "dst")
    return frames[0][2]


@pytest.mark.parametrize("message", SAMPLES, ids=lambda m: type(m).__name__)
def test_encode_then_decode_is_identity(message):
    assert over_the_wire(message) == message
    assert decode_message(encode_message(message)) == message


def test_every_wire_type_has_a_sample():
    assert {type(m) for m in SAMPLES} == {
        Subscribe, Unsubscribe, Advertise, Unadvertise, Publish, PublishBatch,
        Notify, NotifyBatch, Routed, Attach, Deliver, Hello,
    }


def test_paths_survive_and_keep_their_order():
    back = over_the_wire(Subscribe(BAND, ("b1", "b2"), True))
    assert back.path == ("b1", "b2") and back.path_reset is True
    nested = over_the_wire(Routed("c", Advertise(FLAG, ("b2", "b1"))))
    assert nested.message.path == ("b2", "b1") and nested.message.path_reset is False


def test_default_path_fields_cost_no_bytes():
    """A client's plain Subscribe/Advertise must not grow on the wire."""
    assert encode_message(Subscribe(BAND)).keys() == {"t", "f"}
    assert encode_message(Advertise(BAND)).keys() == {"t", "f"}
    assert encode_message(Subscribe(BAND, ("b1",))).keys() == {"t", "f", "p"}
    assert encode_message(Subscribe(BAND, (), True)).keys() == {"t", "f", "r"}


def test_value_families_are_kept_apart():
    back = over_the_wire(Publish(Notification({"a": 1, "b": 1.0, "c": True}), ("c", 0)))
    assert [type(back.notification[k]) for k in "abc"] == [int, float, bool]
    assert over_the_wire(Publish(BARE, None)).pub_id is None


def test_unknown_type_and_unknown_tag_are_refused():
    with pytest.raises(TypeError, match="MoveOut"):
        encode_message(MoveOut())
    with pytest.raises(TypeError):
        encode_message(Routed("c", MoveOut()))
    with pytest.raises(ValueError, match="bogus"):
        decode_message({"t": "bogus"})


# ----------------------------------------------------------------------
# Malformed input: bytes come from outside the process, so every frame
# the codec cannot turn into a message is answered with one FrameError.
# ----------------------------------------------------------------------
def framed(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


def framed_json(obj) -> bytes:
    return framed(json.dumps(obj).encode())


MALFORMED = {
    "missing-field": framed_json(["a", "b", {"t": "sub"}]),
    "no-tag": framed_json(["a", "b", {}]),
    "body-not-a-dict": framed_json(["a", "b", 3]),
    "not-json": framed(b"\xff{not json"),
    "wrong-arity": framed_json(["a", "b"]),
    "unknown-tag": framed_json(["a", "b", {"t": "bogus"}]),
    "unknown-op": framed_json(["a", "b", {"t": "unsub", "f": [["x", "~=", 1]]}]),
    # Constraints: the arity their operator takes, a name a notification can carry.
    "constraint-too-long": framed_json(["a", "b", {"t": "unsub", "f": [["x", "=", 1, 2]]}]),
    "constraint-too-short": framed_json(["a", "b", {"t": "unsub", "f": [["x", "="]]}]),
    "exists-with-a-value": framed_json(["a", "b", {"t": "unsub", "f": [["x", "exists", 1]]}]),
    "constraint-not-a-list": framed_json(["a", "b", {"t": "unsub", "f": ["x"]}]),
    "name-not-a-string": framed_json(["a", "b", {"t": "sub", "f": [[5, "=", 1]]}]),
    "name-empty": framed_json(["a", "b", {"t": "adv", "f": [["", "=", 1]]}]),
    # The notification table and the references into it.
    "table-not-a-list": framed_json(["a", "b", {"t": "ntf", "n": 0, "N": {"x": 1}}]),
    "row-not-a-mapping": framed_json(["a", "b", {"t": "ntf", "n": 0, "N": [[["x", 1]]]}]),
    "row-non-scalar-value": framed_json(["a", "b", {"t": "ntf", "n": 0, "N": [{"x": [1]}]}]),
    "row-null-value": framed_json(["a", "b", {"t": "ntf", "n": 0, "N": [{"x": None}]}]),
    "ref-negative": framed_json(["a", "b", {"t": "ntf", "n": -1, "N": [{"x": 1}, {"x": 2}]}]),
    "ref-bool": framed_json(["a", "b", {"t": "ntfb", "ns": [True], "N": [{"x": 1}, {"x": 2}]}]),
    "ref-float": framed_json(["a", "b", {"t": "ntf", "n": 0.0, "N": [{"x": 1}]}]),
    "ref-string": framed_json(["a", "b", {"t": "ntf", "n": "0", "N": [{"x": 1}]}]),
    "ref-past-the-table": framed_json(["a", "b", {"t": "ntf", "n": 2, "N": [{"x": 1}, {"x": 2}]}]),
    "ref-without-a-table": framed_json(["a", "b", {"t": "ntf", "n": 0}]),
    "ref-negative-in-deliver": framed_json(
        ["a", "b", {"t": "dlv", "items": [["c", [0, -1]]], "N": [{"x": 1}, {"x": 2}]}]
    ),
    "ref-bool-in-publish-batch": framed_json(
        ["a", "b", {"t": "pubb", "items": [[False, None]], "N": [{"x": 1}]}]
    ),
    # The Frames envelope.
    "frames-in-frames": framed_json(
        ["a", "b", {"t": "frames", "fs": [["a", "b", {"t": "frames", "fs": []}]]}]
    ),
    "frames-in-routed": framed_json(
        ["a", "b", {"t": "routed", "src": "c", "m": {"t": "frames", "fs": []}}]
    ),
    "frames-entry-too-short": framed_json(
        ["a", "b", {"t": "frames", "fs": [["a", {"t": "attach", "c": "x"}]]}]
    ),
    "frames-entry-too-long": framed_json(
        ["a", "b", {"t": "frames", "fs": [["a", "b", "c", {"t": "attach", "c": "x"}]]}]
    ),
    "frames-not-a-list": framed_json(["a", "b", {"t": "frames", "fs": 3}]),
    "frames-bad-second-entry": framed_json(
        ["a", "b", {"t": "frames", "fs": [["a", "b", {"t": "attach", "c": "x"}], ["a", "b", {"t": "ntf", "n": 5}]]}]
    ),
}


@pytest.mark.parametrize("frame", MALFORMED.values(), ids=MALFORMED.keys())
def test_a_malformed_body_raises_frame_error(frame):
    with pytest.raises(FrameError):
        list(FrameDecoder().feed(frame))


@pytest.mark.parametrize("frame", MALFORMED.values(), ids=MALFORMED.keys())
def test_the_frame_after_a_malformed_body_still_decodes(frame):
    decoder = FrameDecoder()
    good = encode_frame("src", "dst", Notify(EVENT))
    with pytest.raises(FrameError):
        list(decoder.feed(good + frame + good))
    assert list(decoder.feed(b"")) == [("src", "dst", Notify(EVENT))]


def test_a_bad_entry_spoils_its_whole_envelope_and_nothing_after_it():
    decoder = FrameDecoder()
    good = encode_frame("src", "dst", Notify(EVENT))
    seen = []
    with pytest.raises(FrameError):
        seen.extend(decoder.feed(MALFORMED["frames-bad-second-entry"] + good))
    assert seen == []  # the valid first entry of the bad envelope is not handed out
    assert list(decoder.feed(b"")) == [("src", "dst", Notify(EVENT))]


def test_an_oversize_prefix_keeps_raising():
    decoder = FrameDecoder()
    for data in (struct.pack(">I", MAX_FRAME_BYTES + 1), encode_frame("s", "d", Notify(EVENT))):
        with pytest.raises(FrameError, match="exceeds cap"):
            list(decoder.feed(data))


def test_hub_drops_a_garbage_speaking_connection_and_serves_the_rest(tmp_path):
    path = str(tmp_path / "hub.sock")

    async def main():
        hub = AsyncioTransport(path)
        await hub.start()
        good_reader, good_writer = await asyncio.open_unix_connection(path)
        bad_reader, bad_writer = await asyncio.open_unix_connection(path)
        good_writer.write(encode_frame("", "", Hello(("good",))))
        bad_writer.write(encode_frame("", "", Hello(("bad",))))
        await hub.wait_until(lambda: hub.known("good") and hub.known("bad"))

        bad_writer.write(MALFORMED["missing-field"])
        assert await bad_reader.read() == b""  # the hub hung up on it
        assert hub.frame_errors == 1
        assert not hub.known("bad") and hub.known("good")

        hub.send("hub", "good", NotifyBatch((EVENT, BARE)))
        await hub.drain()
        frames = []
        decoder = FrameDecoder()
        while not frames:
            frames.extend(decoder.feed(await good_reader.read(65536)))
        for writer in (good_writer, bad_writer):
            writer.close()
        await hub.stop()
        return frames

    assert asyncio.run(main()) == [("hub", "good", NotifyBatch((EVENT, BARE)))]
