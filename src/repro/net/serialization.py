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
from typing import Any, Callable, Iterator

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


class FrameError(ValueError):
    """The byte stream holds a frame that is not a protocol message."""


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
# Message-level codec: one tag per wire dataclass, one table each way
# ----------------------------------------------------------------------
def _encode_pathed(tag: str) -> Callable[[Any], dict]:
    """Encoder for Subscribe/Advertise: ``p``/``r`` only when non-default."""

    def encode(message: Any) -> dict:
        obj = {"t": tag, "f": encode_filter(message.filter)}
        if message.path:
            obj["p"] = list(message.path)
        if message.path_reset:
            obj["r"] = True
        return obj

    return encode


def _decode_pathed(cls: type) -> Callable[[dict], Any]:
    return lambda obj: cls(
        decode_filter(obj["f"]), tuple(obj.get("p", ())), obj.get("r", False)
    )


def _encode_notifications(notifications: tuple) -> list:
    return [encode_notification(n) for n in notifications]


def _decode_notifications(obj: list) -> tuple:
    return tuple(decode_notification(n) for n in obj)


# No wire class is subclassed, so each direction is one dict lookup: on
# the message's exact type to encode, on its tag to decode.
_ENCODERS: dict[type, Callable[[Any], dict]] = {
    Subscribe: _encode_pathed("sub"),
    Unsubscribe: lambda m: {"t": "unsub", "f": encode_filter(m.filter)},
    Advertise: _encode_pathed("adv"),
    Unadvertise: lambda m: {"t": "unadv", "f": encode_filter(m.filter)},
    Publish: lambda m: {
        "t": "pub",
        "n": encode_notification(m.notification),
        "id": list(m.pub_id) if m.pub_id else None,
    },
    PublishBatch: lambda m: {"t": "pubb", "items": _encode_items(m.items)},
    Notify: lambda m: {"t": "ntf", "n": encode_notification(m.notification)},
    NotifyBatch: lambda m: {"t": "ntfb", "ns": _encode_notifications(m.notifications)},
    Routed: lambda m: {"t": "routed", "src": m.source, "m": encode_message(m.message)},
    Attach: lambda m: {"t": "attach", "c": m.client},
    Detach: lambda m: {"t": "detach", "c": m.client},
    Deliver: lambda m: {
        "t": "dlv",
        "items": [[client, _encode_notifications(ns)] for client, ns in m.items],
    },
    Hello: lambda m: {"t": "hello", "addrs": list(m.addrs)},
}

_DECODERS: dict[str, Callable[[dict], Any]] = {
    "sub": _decode_pathed(Subscribe),
    "unsub": lambda obj: Unsubscribe(decode_filter(obj["f"])),
    "adv": _decode_pathed(Advertise),
    "unadv": lambda obj: Unadvertise(decode_filter(obj["f"])),
    "pub": lambda obj: Publish(decode_notification(obj["n"]), _pub_id(obj["id"])),
    "pubb": lambda obj: PublishBatch(_decode_items(obj["items"])),
    "ntf": lambda obj: Notify(decode_notification(obj["n"])),
    "ntfb": lambda obj: NotifyBatch(_decode_notifications(obj["ns"])),
    "routed": lambda obj: Routed(obj["src"], decode_message(obj["m"])),
    "attach": lambda obj: Attach(obj["c"]),
    "detach": lambda obj: Detach(obj["c"]),
    "dlv": lambda obj: Deliver(
        tuple((client, _decode_notifications(ns)) for client, ns in obj["items"])
    ),
    "hello": lambda obj: Hello(tuple(obj["addrs"])),
}


def encode_message(message: Any) -> dict:
    encoder = _ENCODERS.get(type(message))
    if encoder is None:
        raise TypeError(f"no wire encoding for {type(message).__name__}")
    return encoder(message)


def decode_message(obj: dict) -> Any:
    decoder = _DECODERS.get(obj["t"])
    if decoder is None:
        raise ValueError(f"unknown wire tag: {obj['t']!r}")
    return decoder(obj)


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
        """Yield every complete ``(src, dst, message)`` frame so far.

        Bytes come from outside the process: a frame that does not
        decode — body not JSON or not ``[src, dst, {...}]``, unknown tag,
        fields missing or misshapen — raises :class:`FrameError`.  The
        bad body is consumed first, so the frames behind it are still
        there for the next ``feed``; an oversize prefix is not — the
        stream has lost framing and every later ``feed`` raises.
        """
        self._buffer.extend(data)
        while True:
            if len(self._buffer) < _LEN.size:
                return
            (size,) = _LEN.unpack_from(self._buffer)
            if size > MAX_FRAME_BYTES:
                raise FrameError(f"frame of {size} bytes exceeds cap")
            end = _LEN.size + size
            if len(self._buffer) < end:
                return
            body = bytes(self._buffer[_LEN.size : end])
            del self._buffer[:end]
            try:
                src, dst, obj = json.loads(body)
                message = decode_message(obj)
            except (ValueError, LookupError, TypeError) as exc:
                raise FrameError(f"malformed frame body: {exc!r}") from exc
            yield src, dst, message
