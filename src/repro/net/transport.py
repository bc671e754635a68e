"""Asyncio socket transport: the broker protocol on real connections.

Same interface as :class:`repro.simulation.transport.SimTransport` —
``register(addr, handler)`` + ``send(src, dst, payload)`` — but messages
move over unix-domain stream sockets through the wire codec in
:mod:`repro.net.serialization`, so the sharded fleet runs as a real
multi-process deployment (or as in-process loopback for tests) instead
of only under the discrete-event kernel.

Topology is a star of :class:`AsyncioTransport` nodes.  The *hub*
listens, hosts whatever endpoints were registered on it — typically the
:class:`~repro.events.sharding.ShardRouter` and the clients — and relays
any message whose destination lives on another connection.  A worker is
the same node dialling instead of listening (:func:`serve_worker`): it
announces the addresses it hosts in a ``Hello`` frame and sends
everything it does not host up that one connection.  The relay costs a
hop, but keeps connection management O(workers) — and the scaling story
lives in the *partitioned matching*, not in socket topology (see
``docs/ARCHITECTURE.md``).

A remote message joins its connection's outbox, which goes out once per
event-loop turn as one :class:`~repro.net.serialization.Frames` envelope:
the per-frame codec cost is paid per peer per turn, not per message, and
a peer still sees its messages in the order they were sent.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
from typing import Any, Callable, Dict

from repro.net.serialization import MAX_FRAME_BYTES, FrameDecoder, FrameError, Frames, Hello, encode_frame

Address = Any  # JSON scalar (str | int) on this transport
Handler = Callable[[Address, Any], None]

_READ_CHUNK = 65536
_UPLINK = None  # route key of a dialled connection: "everything I do not host"


class AsyncioTransport:
    """One node: local endpoint registry + dispatch queue + connections.

    ``send`` is synchronous (fleet components call it from inside their
    handlers): local destinations are queued onto the event loop, remote
    ones join the outbox of the connection that announced them — or, on
    a node that dialled a hub, of that connection.  A message with
    nowhere to go (no handler, no route, a closing writer, or alone past
    the peer's ``MAX_FRAME_BYTES``) is dropped as the simulated network
    drops traffic to a vanished peer, and counted in ``frames_dropped``.
    A connection that sends a frame the codec rejects is closed
    (``frame_errors`` counts them) and its routes withdrawn, exactly as
    on EOF; every other connection keeps being served.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self._handlers: Dict[Address, Handler] = {}
        self._routes: Dict[Address, asyncio.StreamWriter] = {}
        self._outboxes: Dict[asyncio.StreamWriter, list] = {}
        self._server: asyncio.AbstractServer | None = None
        self._queue: asyncio.Queue | None = None
        self._pump: asyncio.Task | None = None
        self.frames_relayed = 0
        self.frame_errors = 0
        self.frames_dropped = 0

    def register(self, addr: Address, handler: Handler) -> None:
        self._handlers[addr] = handler

    def known(self, addr: Address) -> bool:
        """Is ``addr`` reachable (local handler or announced route)?"""
        return addr in self._handlers or addr in self._routes

    def send(self, src: Address, dst: Address, payload: Any) -> None:
        if dst in self._handlers:
            assert self._queue is not None, "transport not started"
            self._queue.put_nowait((src, dst, payload))
            return
        writer = self._routes.get(dst) or self._routes.get(_UPLINK)
        if writer is None or writer.is_closing():
            self.frames_dropped += 1
            return
        outbox = self._outboxes.get(writer)
        if outbox is None:
            outbox = self._outboxes[writer] = []
            asyncio.get_running_loop().call_soon(self._flush, writer)
        outbox.append((src, dst, payload))

    def _flush(self, writer: asyncio.StreamWriter) -> None:
        messages = self._outboxes.pop(writer, None)  # None: drain() or stop() got there first
        if messages and writer.is_closing():
            self.frames_dropped += len(messages)
        elif messages:
            self._write(writer, messages)

    def _write(self, writer: asyncio.StreamWriter, messages: list) -> None:
        """One frame, or halves of it until each fits the peer's cap."""
        frame = encode_frame("", "", Frames(tuple(messages)))  # a module global: tracers patch it
        if len(frame) - 4 <= MAX_FRAME_BYTES:  # 4: the length prefix
            writer.write(frame)
        elif len(messages) == 1:
            self.frames_dropped += 1
        else:
            half = len(messages) // 2
            self._write(writer, messages[:half])
            self._write(writer, messages[half:])

    def _flush_all(self) -> None:
        for writer in list(self._outboxes):
            self._flush(writer)

    async def start(self) -> None:
        self._queue = asyncio.Queue()
        self._pump = asyncio.create_task(self._pump_loop())
        if self.path is not None:
            self._server = await asyncio.start_unix_server(
                self._serve_connection, path=self.path
            )

    async def dial(self, path: str, connect_timeout: float) -> None:
        """Join the hub listening at ``path`` and serve until it hangs up.

        Retries until the hub listens (workers may be spawned first),
        announces every registered handler and routes every destination
        not hosted here up the connection.  A frame the codec rejects
        ends the call with that ``FrameError``, once the connection is
        closed.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + connect_timeout
        while True:
            try:
                reader, writer = await asyncio.open_unix_connection(path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                if loop.time() > deadline:
                    raise
                await asyncio.sleep(0.05)
        self._routes[_UPLINK] = writer
        writer.write(encode_frame("", "", Hello(tuple(self._handlers))))
        await writer.drain()
        error = await self._serve_connection(reader, writer)
        if error is not None:
            raise error

    async def _pump_loop(self) -> None:
        assert self._queue is not None
        while True:
            src, dst, payload = await self._queue.get()
            try:
                handler = self._handlers.get(dst)
                if handler is not None:
                    handler(src, payload)
            finally:
                self._queue.task_done()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> FrameError | None:
        """Read one connection to its end, then withdraw its routes.

        Returns the codec error that ended it, if one did: the listener
        has no use for it, :meth:`dial` raises it.
        """
        decoder = FrameDecoder()
        error = None
        try:
            while data := await reader.read(_READ_CHUNK):
                for src, dst, message in decoder.feed(data):
                    if isinstance(message, Hello):
                        self._routes.update(dict.fromkeys(message.addrs, writer))
                        continue
                    if dst not in self._handlers:
                        self.frames_relayed += 1
                    self.send(src, dst, message)
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass
        except FrameError as exc:
            self.frame_errors += 1
            error = exc
        finally:
            for addr in [a for a, w in self._routes.items() if w is writer]:
                del self._routes[addr]
            writer.close()
        return error

    async def drain(self) -> None:
        """Wait for queued local dispatches, flush, wait for outbound buffers."""
        if self._queue is not None:
            await self._queue.join()
        self._flush_all()
        for writer in set(self._routes.values()):
            if not writer.is_closing():
                await writer.drain()

    async def wait_until(
        self, predicate: Callable[[], bool], timeout: float = 10.0
    ) -> None:
        """Poll ``predicate`` until true — the fleet has no global clock."""
        async with asyncio.timeout(timeout):
            while not predicate():
                await asyncio.sleep(0.01)

    async def stop(self) -> None:
        if self._pump is not None:
            self._pump.cancel()
            try:
                await self._pump
            except asyncio.CancelledError:
                pass
        self._flush_all()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in set(self._routes.values()):
            writer.close()
        self._routes.clear()


async def serve_worker(
    path: str,
    build: Callable[[Callable[[Address, Address, Any], None]], Dict[Address, Handler]],
    connect_timeout: float = 10.0,
) -> None:
    """Run one worker node: host what ``build(send)`` returns (an
    ``addr -> handler`` map; sends between two of them short-circuit
    locally), :meth:`~AsyncioTransport.dial` the hub at ``path`` and
    serve until it hangs up or a bad frame raises ``FrameError``.
    """
    node = AsyncioTransport()
    await node.start()
    try:
        for addr, handler in build(node.send).items():
            node.register(addr, handler)
        await node.dial(path, connect_timeout)
    finally:
        await node.stop()


def spawn_shard_workers(
    path: str, plan, groups: list[tuple]
) -> list[multiprocessing.Process]:
    """Fork one OS process per shard group, each running ``plan.serve``.

    ``groups`` is a list of shard-id tuples, one per process.  Workers
    retry the hub connection, so they may be spawned before the hub
    listens.  The caller owns termination (``terminate()``/``join()``).
    """
    context = multiprocessing.get_context(
        "fork" if os.name == "posix" else "spawn"
    )
    processes = []
    for shard_ids in groups:
        process = context.Process(
            target=plan.serve,
            args=(path, tuple(shard_ids)),
            daemon=True,
        )
        process.start()
        processes.append(process)
    return processes
