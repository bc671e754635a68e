"""``AsyncioTransport`` as hub and as dialling worker: one node loop.

What the fleet suites (``test_sharding.py``) and the codec suite
(``test_wire_codec.py``) do not pin: frames with nowhere to go are
counted rather than silently lost, and ``serve_worker`` is the same
node dialling — local hops short-circuit, a bad frame ends it loudly.
"""

import asyncio
import struct

import pytest

import repro.net.serialization as serialization_module
import repro.net.transport as transport_module
from repro.events.model import make_event
from repro.events.sharding import Attach
from repro.events.wire import Notify, NotifyBatch
from repro.net.serialization import FrameDecoder, FrameError, Hello, encode_frame
from repro.net.transport import AsyncioTransport, serve_worker
from tests.test_wire_codec import EVENT, MALFORMED


async def read_frames(reader, count):
    frames, decoder = [], FrameDecoder()
    while len(frames) < count:
        frames.extend(decoder.feed(await reader.read(65536)))
    return frames


def test_frames_with_nowhere_to_go_are_counted(tmp_path):
    path = str(tmp_path / "hub.sock")

    async def main():
        hub = AsyncioTransport(path)
        await hub.start()
        local = []
        hub.register("local", lambda src, payload: local.append((src, payload)))
        stay_reader, stay_writer = await asyncio.open_unix_connection(path)
        _, gone_writer = await asyncio.open_unix_connection(path)
        stay_writer.write(encode_frame("", "", Hello(("stay",))))
        gone_writer.write(encode_frame("", "", Hello(("gone",))))
        await hub.wait_until(lambda: hub.known("stay") and hub.known("gone"))
        gone_writer.close()
        await hub.wait_until(lambda: not hub.known("gone"))

        hub.send("local", "nobody", Notify(EVENT))  # no handler, no route
        hub.send("local", "gone", Notify(EVENT))  # its connection hung up
        hub.send("local", "stay", Notify(EVENT))
        hub.send("stay", "local", Notify(EVENT))
        await hub.drain()
        frames = await read_frames(stay_reader, 1)
        stay_writer.close()
        await hub.stop()
        return hub, local, frames

    hub, local, frames = asyncio.run(main())
    assert hub.frames_dropped == 2
    assert local == [("stay", Notify(EVENT))]
    assert frames == [("local", "stay", Notify(EVENT))]
    assert hub.frames_relayed == 0 and hub.frame_errors == 0


def test_worker_is_the_same_node_dialling(tmp_path):
    path = str(tmp_path / "hub.sock")

    def build(send):
        def relay(src, payload):  # a hop between two endpoints of one worker
            send(src, "echo", payload)

        def echo(src, payload):
            send("echo", src, payload)

        return {"relay": relay, "echo": echo}

    async def main():
        worker = asyncio.create_task(serve_worker(path, build))  # before the hub listens
        hub = AsyncioTransport(path)
        await hub.start()
        got = []
        hub.register("client", lambda src, payload: got.append((src, payload)))
        await hub.wait_until(lambda: hub.known("relay") and hub.known("echo"))
        hub.send("client", "relay", Notify(EVENT))
        await hub.wait_until(lambda: got)
        await hub.stop()  # hangs up on the worker, which ends serve_worker
        await asyncio.wait_for(worker, 5.0)
        return hub, got

    hub, got = asyncio.run(main())
    assert got == [("echo", Notify(EVENT))]
    assert hub.frames_relayed == 0 and hub.frames_dropped == 0


# ----------------------------------------------------------------------
# Outboxes: one wire frame per peer per loop turn, never one the peer
# must refuse, nothing left behind by stop().
# ----------------------------------------------------------------------
async def read_wire(reader, count):
    """Raw bytes and decoded messages until ``count`` messages arrived."""
    raw, frames, decoder = b"", [], FrameDecoder()
    while len(frames) < count:
        data = await reader.read(65536)
        assert data, "connection closed early"
        raw += data
        frames.extend(decoder.feed(data))
    return raw, frames


def wire_frame_sizes(raw):
    """Body size of each length-prefixed frame in ``raw``."""
    sizes, at = [], 0
    while at < len(raw):
        (size,) = struct.unpack_from(">I", raw, at)
        sizes.append(size)
        at += 4 + size
    assert at == len(raw)
    return sizes


async def hub_with_peer(path):
    hub = AsyncioTransport(path)
    await hub.start()
    reader, writer = await asyncio.open_unix_connection(path)
    writer.write(encode_frame("", "", Hello(("peer",))))
    await hub.wait_until(lambda: hub.known("peer"))
    return hub, reader, writer


def numbered(count, **attrs):
    return [Notify(make_event("rfid", seq=seq, **attrs)) for seq in range(count)]


def test_sends_in_one_turn_arrive_as_one_frame_in_order(tmp_path):
    messages = numbered(7)

    async def main():
        hub, reader, writer = await hub_with_peer(str(tmp_path / "hub.sock"))
        for message in messages:
            hub.send("hub", "peer", message)
        await hub.drain()
        raw, frames = await read_wire(reader, len(messages))
        writer.close()
        await hub.stop()
        return raw, frames

    raw, frames = asyncio.run(main())
    assert len(wire_frame_sizes(raw)) == 1
    assert frames == [("hub", "peer", message) for message in messages]


def test_a_bundle_over_the_cap_is_split_and_a_lone_oversize_message_dropped(tmp_path, monkeypatch):
    cap = 400  # bytes of body, on both ends of the connection
    monkeypatch.setattr(transport_module, "MAX_FRAME_BYTES", cap)
    monkeypatch.setattr(serialization_module, "MAX_FRAME_BYTES", cap)
    small = numbered(9)
    huge = Notify(make_event("rfid", blob="x" * cap))

    async def main():
        hub, reader, writer = await hub_with_peer(str(tmp_path / "hub.sock"))
        for message in small[:4] + [huge] + small[4:]:
            hub.send("hub", "peer", message)
        await hub.drain()
        raw, frames = await read_wire(reader, len(small))
        writer.close()
        await hub.stop()
        return hub, raw, frames

    hub, raw, frames = asyncio.run(main())
    assert frames == [("hub", "peer", message) for message in small]
    sizes = wire_frame_sizes(raw)
    assert len(sizes) > 1 and max(sizes) <= cap
    assert hub.frames_dropped == 1


def test_stop_flushes_what_is_pending(tmp_path):
    messages = numbered(3)

    async def main():
        hub, reader, writer = await hub_with_peer(str(tmp_path / "hub.sock"))
        for message in messages:
            hub.send("hub", "peer", message)
        await hub.stop()  # no drain() first
        raw = await reader.read()  # to EOF: the hub hung up after flushing
        writer.close()
        return list(FrameDecoder().feed(raw))

    assert asyncio.run(main()) == [("hub", "peer", message) for message in messages]


def test_a_workers_ack_follows_what_it_sent_before_it(tmp_path):
    """The fleet's quiescence protocol: when the hub sees a worker's
    acknowledgement, everything the worker sent before it has arrived —
    whether it went out in the ack's own frame or in an earlier one."""
    path = str(tmp_path / "hub.sock")
    rounds = 6

    def build(send):
        def worker(src, payload):
            command, n = payload.client.split("-")
            for seq in range(int(n)):
                send("w", "client", NotifyBatch((make_event("rfid", seq=seq),) * 2))
            if command == "go+ack":
                send("w", "ctl", Attach(payload.client))

        return {"w": worker}

    async def main():
        worker = asyncio.create_task(serve_worker(path, build))
        hub = AsyncioTransport(path)
        await hub.start()
        received, seen_at_ack = [], []
        hub.register("client", lambda src, payload: received.extend(payload.notifications))
        hub.register("ctl", lambda src, payload: seen_at_ack.append(len(received)))
        await hub.wait_until(lambda: hub.known("w"))
        sent = 0
        for turn in range(rounds):
            hub.send("ctl", "w", Attach(f"go-{turn + 1}"))  # output in an earlier frame ...
            await hub.drain()
            await asyncio.sleep(0.01)
            hub.send("ctl", "w", Attach(f"go+ack-{turn}"))  # ... or in the ack's own
            sent += 2 * (2 * turn + 1)
            await hub.wait_until(lambda: len(seen_at_ack) > turn)
            assert seen_at_ack[turn] == sent
        await hub.stop()
        await asyncio.wait_for(worker, 5.0)

    asyncio.run(main())


def test_a_bad_frame_ends_the_worker_with_that_error(tmp_path):
    path = str(tmp_path / "hub.sock")

    async def main():
        hung_up = asyncio.Event()

        async def garbage_hub(reader, writer):
            assert await read_frames(reader, 1) == [("", "", Hello(("w",)))]
            writer.write(MALFORMED["missing-field"])
            assert await reader.read() == b""  # the worker closed its end
            hung_up.set()
            writer.close()

        server = await asyncio.start_unix_server(garbage_hub, path=path)
        with pytest.raises(FrameError):
            await serve_worker(path, lambda send: {"w": lambda src, payload: None})
        await asyncio.wait_for(hung_up.wait(), 5.0)
        server.close()
        await server.wait_closed()

    asyncio.run(main())
