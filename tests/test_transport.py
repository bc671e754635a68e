"""``AsyncioTransport`` as hub and as dialling worker: one node loop.

What the fleet suites (``test_sharding.py``) and the codec suite
(``test_wire_codec.py``) do not pin: frames with nowhere to go are
counted rather than silently lost, and ``serve_worker`` is the same
node dialling — local hops short-circuit, a bad frame ends it loudly.
"""

import asyncio

import pytest

from repro.events.wire import Notify
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
