"""Wire encoding for the broker protocol over real sockets.

The in-simulator network passes python objects by reference, but the
asyncio transport (:mod:`repro.net.transport`) moves frames between
processes, so the wire dataclasses need an explicit byte encoding.
Pickle is out: :class:`~repro.events.filters.Filter` holds compiled
closures, and pickle would also make the listener execute arbitrary
constructors from the wire.  Instead the codec is plain JSON over the
protocol's actual value domain — notification attributes and constraint
values are ``str | bool | int | float`` by construction
(:mod:`repro.events.model`), which JSON round-trips exactly, including
the int/float distinction the matching families care about.

Frames are length-prefixed: a 4-byte big-endian payload size, then the
UTF-8 JSON of ``[src, dst, body]``.  Transport addresses must therefore
be JSON scalars (strings or ints) — the fleet builders use strings.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Any, Iterator

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
from repro.events.filters import Constraint, Filter, Op
from repro.events.model import Notification
from repro.events.sharding import Attach, Deliver, Detach, Routed

_LEN = struct.Struct(">I")
MAX_FRAME_BYTES = 16 * 1024 * 1024  # a malformed prefix must not OOM us


@dataclass(slots=True)
class Hello:
    """Transport control: a connecting node announces the addresses it hosts."""

    addrs: tuple


# ----------------------------------------------------------------------
# Value-level encoders
# ----------------------------------------------------------------------
def encode_filter(filter: Filter) -> list:
    return [
        [c.name, c.op.value] if c.op is Op.EXISTS else [c.name, c.op.value, c.value]
        for c in filter.constraints
    ]


def decode_filter(obj: list) -> Filter:
    return Filter(
        *(
            Constraint(triple[0], Op(triple[1]))
            if len(triple) == 2
            else Constraint(triple[0], Op(triple[1]), triple[2])
            for triple in obj
        )
    )


def encode_notification(notification: Notification) -> dict:
    return dict(notification)


def decode_notification(obj: dict) -> Notification:
    return Notification(obj)


def _pub_id(obj: list | None) -> tuple | None:
    return None if obj is None else (obj[0], obj[1])


def _encode_items(items: tuple) -> list:
    return [
        [encode_notification(notification), list(pub_id) if pub_id else None]
        for notification, pub_id in items
    ]


def _decode_items(obj: list) -> tuple:
    return tuple(
        (decode_notification(n), _pub_id(pid)) for n, pid in obj
    )


# ----------------------------------------------------------------------
# Message-level codec: one tag per wire dataclass
# ----------------------------------------------------------------------
def encode_message(message: Any) -> dict:
    if isinstance(message, Subscribe):
        return {"t": "sub", "f": encode_filter(message.filter)}
    if isinstance(message, Unsubscribe):
        return {"t": "unsub", "f": encode_filter(message.filter)}
    if isinstance(message, Advertise):
        return {"t": "adv", "f": encode_filter(message.filter)}
    if isinstance(message, Unadvertise):
        return {"t": "unadv", "f": encode_filter(message.filter)}
    if isinstance(message, Publish):
        return {
            "t": "pub",
            "n": encode_notification(message.notification),
            "id": list(message.pub_id) if message.pub_id else None,
        }
    if isinstance(message, PublishBatch):
        return {"t": "pubb", "items": _encode_items(message.items)}
    if isinstance(message, Notify):
        return {"t": "ntf", "n": encode_notification(message.notification)}
    if isinstance(message, NotifyBatch):
        return {
            "t": "ntfb",
            "ns": [encode_notification(n) for n in message.notifications],
        }
    if isinstance(message, Routed):
        return {
            "t": "routed",
            "src": message.source,
            "m": encode_message(message.message),
        }
    if isinstance(message, Attach):
        return {"t": "attach", "c": message.client}
    if isinstance(message, Detach):
        return {"t": "detach", "c": message.client}
    if isinstance(message, Deliver):
        return {
            "t": "dlv",
            "items": [
                [client, [encode_notification(n) for n in ns]]
                for client, ns in message.items
            ],
        }
    if isinstance(message, Hello):
        return {"t": "hello", "addrs": list(message.addrs)}
    raise TypeError(f"no wire encoding for {type(message).__name__}")


def decode_message(obj: dict) -> Any:
    tag = obj["t"]
    if tag == "sub":
        return Subscribe(decode_filter(obj["f"]))
    if tag == "unsub":
        return Unsubscribe(decode_filter(obj["f"]))
    if tag == "adv":
        return Advertise(decode_filter(obj["f"]))
    if tag == "unadv":
        return Unadvertise(decode_filter(obj["f"]))
    if tag == "pub":
        return Publish(decode_notification(obj["n"]), _pub_id(obj["id"]))
    if tag == "pubb":
        return PublishBatch(_decode_items(obj["items"]))
    if tag == "ntf":
        return Notify(decode_notification(obj["n"]))
    if tag == "ntfb":
        return NotifyBatch(tuple(decode_notification(n) for n in obj["ns"]))
    if tag == "routed":
        return Routed(obj["src"], decode_message(obj["m"]))
    if tag == "attach":
        return Attach(obj["c"])
    if tag == "detach":
        return Detach(obj["c"])
    if tag == "hello":
        return Hello(tuple(obj["addrs"]))
    if tag == "dlv":
        return Deliver(
            tuple(
                (client, tuple(decode_notification(n) for n in ns))
                for client, ns in obj["items"]
            )
        )
    raise ValueError(f"unknown wire tag: {tag!r}")


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(src: Any, dst: Any, message: Any) -> bytes:
    body = json.dumps(
        [src, dst, encode_message(message)], separators=(",", ":")
    ).encode()
    return _LEN.pack(len(body)) + body


class FrameDecoder:
    """Incremental length-prefixed frame reassembly for a byte stream."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> Iterator[tuple[Any, Any, Any]]:
        """Yield every complete ``(src, dst, message)`` frame so far."""
        self._buffer.extend(data)
        while True:
            if len(self._buffer) < _LEN.size:
                return
            (size,) = _LEN.unpack_from(self._buffer)
            if size > MAX_FRAME_BYTES:
                raise ValueError(f"frame of {size} bytes exceeds cap")
            end = _LEN.size + size
            if len(self._buffer) < end:
                return
            body = bytes(self._buffer[_LEN.size : end])
            del self._buffer[:end]
            src, dst, obj = json.loads(body)
            yield src, dst, decode_message(obj)
