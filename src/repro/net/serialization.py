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
be JSON scalars (strings or ints) — the fleet builders use strings.  A
:class:`Frames` body bundles what one node sent one peer in one loop
turn; :meth:`FrameDecoder.feed` unpacks it.  A body's notifications sit
in one table (key ``"N"``), each distinct object once, and messages refer
to rows by index; the decoder still builds every row through
``Notification`` and hands the messages shared immutable objects.
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
from repro.events.sharding import Attach, Deliver, Routed

_LEN = struct.Struct(">I")
MAX_FRAME_BYTES = 16 * 1024 * 1024  # a malformed prefix must not OOM us
_dumps = json.JSONEncoder(separators=(",", ":")).encode
_OPS = {op.value: op for op in Op}  # a dict hit costs a tenth of ``Op(value)``
_loads = json.JSONDecoder().decode


class FrameError(ValueError):
    """The byte stream holds a frame that is not a protocol message."""


@dataclass(slots=True)
class Hello:
    """Transport control: a connecting node announces the addresses it hosts."""

    addrs: tuple


@dataclass(slots=True)
class Frames:
    """Transport envelope: ``((src, dst, message), ...)`` bound for one peer."""

    frames: tuple


# ----------------------------------------------------------------------
# Value-level encoders
# ----------------------------------------------------------------------
def encode_filter(filter: Filter) -> list:
    return [
        [c.name, c.op.value] if c.op is Op.EXISTS else [c.name, c.op.value, c.value]
        for c in filter.constraints
    ]


def decode_filter(obj: list) -> Filter:
    return Filter(*map(_constraint, obj))


def _constraint(obj: Any) -> Constraint:
    """``[name, "exists"]`` or ``[name, op, value]``, with a name a
    notification could carry: anything else is refused, not trimmed."""
    if type(obj) is list and type(name := obj[0]) is str and name:
        op = _OPS[obj[1]]
        if len(obj) == 2 and op is Op.EXISTS:
            return Constraint(name, op)
        if len(obj) == 3 and op is not Op.EXISTS:
            return Constraint(name, op, obj[2])
    raise ValueError(f"misshapen constraint: {obj!r}")


def _table(rows: Any) -> list:
    if type(rows) is not list or any(type(row) is not dict for row in rows):
        raise TypeError("notification table is not a list of objects")
    return [Notification(row) for row in rows]


def _row(table: list, ref: Any) -> Notification:
    if type(ref) is not int or ref < 0:  # True is an int; -1 is a valid python index
        raise ValueError(f"bad notification reference: {ref!r}")
    return table[ref]


def _pub_id(obj: list | None) -> tuple | None:
    return None if obj is None else (obj[0], obj[1])


# ----------------------------------------------------------------------
# Message-level codec: one tag per wire dataclass, one table each way.
# Encoders get ``ref(notification) -> row``, decoders the decoded rows.
# ----------------------------------------------------------------------
def _encode_pathed(tag: str) -> Callable[[Any, Callable], dict]:
    """Encoder for Subscribe/Advertise: ``p``/``r`` only when non-default."""

    def encode(message: Any, ref: Callable) -> dict:
        obj = {"t": tag, "f": encode_filter(message.filter)}
        if message.path:
            obj["p"] = list(message.path)
        if message.path_reset:
            obj["r"] = True
        return obj

    return encode


def _decode_pathed(cls: type) -> Callable[[dict, list], Any]:
    return lambda obj, table: cls(
        decode_filter(obj["f"]), tuple(obj.get("p", ())), obj.get("r", False)
    )


# No wire class is subclassed, so each direction is one dict lookup: on
# the message's exact type to encode, on its tag to decode.  ``Frames``
# is in neither: it is only ever a body's outermost message.
_ENCODERS: dict[type, Callable[[Any, Callable], dict]] = {
    Subscribe: _encode_pathed("sub"),
    Unsubscribe: lambda m, ref: {"t": "unsub", "f": encode_filter(m.filter)},
    Advertise: _encode_pathed("adv"),
    Unadvertise: lambda m, ref: {"t": "unadv", "f": encode_filter(m.filter)},
    Publish: lambda m, ref: {"t": "pub", "n": ref(m.notification), "id": m.pub_id or None},
    PublishBatch: lambda m, ref: {"t": "pubb", "items": [[ref(n), i or None] for n, i in m.items]},
    Notify: lambda m, ref: {"t": "ntf", "n": ref(m.notification)},
    NotifyBatch: lambda m, ref: {"t": "ntfb", "ns": list(map(ref, m.notifications))},
    Routed: lambda m, ref: {"t": "routed", "src": m.source, "m": _encode(m.message, ref)},
    Attach: lambda m, ref: {"t": "attach", "c": m.client},
    Deliver: lambda m, ref: {"t": "dlv", "items": [[c, list(map(ref, ns))] for c, ns in m.items]},
    Hello: lambda m, ref: {"t": "hello", "addrs": list(m.addrs)},
}

_DECODERS: dict[str, Callable[[dict, list], Any]] = {
    "sub": _decode_pathed(Subscribe),
    "unsub": lambda obj, t: Unsubscribe(decode_filter(obj["f"])),
    "adv": _decode_pathed(Advertise),
    "unadv": lambda obj, t: Unadvertise(decode_filter(obj["f"])),
    "pub": lambda obj, t: Publish(_row(t, obj["n"]), _pub_id(obj["id"])),
    "pubb": lambda obj, t: PublishBatch(tuple([(_row(t, n), _pub_id(i)) for n, i in obj["items"]])),
    "ntf": lambda obj, t: Notify(_row(t, obj["n"])),
    "ntfb": lambda obj, t: NotifyBatch(tuple([_row(t, n) for n in obj["ns"]])),
    "routed": lambda obj, t: Routed(obj["src"], _decode(obj["m"], t)),
    "attach": lambda obj, t: Attach(obj["c"]),
    "dlv": lambda obj, t: Deliver(tuple([(c, tuple([_row(t, n) for n in ns])) for c, ns in obj["items"]])),
    "hello": lambda obj, t: Hello(tuple(obj["addrs"])),
}


def _encode(message: Any, ref: Callable) -> dict:
    encoder = _ENCODERS.get(type(message))
    if encoder is None:
        raise TypeError(f"no wire encoding for {type(message).__name__}")
    return encoder(message, ref)


def _decode(obj: dict, table: list) -> Any:
    decoder = _DECODERS.get(obj["t"])
    if decoder is None:
        raise ValueError(f"unknown wire tag: {obj['t']!r}")
    return decoder(obj, table)


def encode_message(message: Any) -> dict:
    rows: list[dict] = []
    row_of: dict[int, int] = {}

    def ref(notification: Notification) -> int:
        # Keyed by identity, as {"x": 2} == {"x": True}; the message keeps it alive.
        row = row_of.get(id(notification))
        if row is None:
            row = row_of[id(notification)] = len(rows)
            rows.append(notification._attributes.copy())
        return row

    if type(message) is Frames:
        obj = {"t": "frames", "fs": [[s, d, _encode(m, ref)] for s, d, m in message.frames]}
    else:
        obj = _encode(message, ref)
    if rows:
        obj["N"] = rows
    return obj


def decode_message(obj: dict) -> Any:
    if type(obj) is not dict:
        raise TypeError(f"message body is not an object: {obj!r}")
    table = _table(obj.get("N", []))
    if obj.get("t") == "frames":  # unpacking checks arity; nested, it is an unknown tag
        return Frames(tuple([(s, d, _decode(m, table)) for s, d, m in obj["fs"]]))
    return _decode(obj, table)


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(src: Any, dst: Any, message: Any) -> bytes:
    body = _dumps([src, dst, encode_message(message)]).encode()
    return _LEN.pack(len(body)) + body


class FrameDecoder:
    """Incremental length-prefixed frame reassembly for a byte stream."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> Iterator[tuple[Any, Any, Any]]:
        """Yield every complete ``(src, dst, message)`` so far.

        Bytes come from outside the process: a frame that does not
        decode — body not JSON or not ``[src, dst, {...}]``, unknown tag,
        fields or table rows missing or misshapen — raises
        :class:`FrameError`.  The bad body is consumed first, so the frames
        behind it are still there for the next ``feed``; an oversize
        prefix is not — the stream has lost framing and every later
        ``feed`` raises.
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
                src, dst, obj = _loads(body.decode())
                message = decode_message(obj)
            except (ValueError, LookupError, TypeError) as exc:
                raise FrameError(f"malformed frame body: {exc!r}") from exc
            if type(message) is Frames:
                yield from message.frames
            else:
                yield src, dst, message
