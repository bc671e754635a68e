"""128-bit GUID space shared by the overlay and the storage architecture.

The paper (§3) notes that all the cited P2P architectures "use hashing
algorithms to assign each document with a globally unique identifier (GUID)",
derived either from content (secure hash) or from names/keys.  This module
provides that identifier space plus the digit arithmetic Plaxton-style prefix
routing needs: identifiers are treated as 32 hexadecimal digits (base 16,
most significant first), matching Pastry with ``b = 4``.
"""

from __future__ import annotations

import hashlib
import random

GUID_BITS = 128
GUID_DIGITS = 32  # base-16 digits
DIGIT_BASE = 16
_GUID_SPACE = 1 << GUID_BITS


class Guid:
    """An immutable 128-bit identifier on the circular GUID ring."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        if not 0 <= value < _GUID_SPACE:
            raise ValueError(f"GUID out of range: {value:#x}")
        object.__setattr__(self, "value", value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Guid is immutable")

    # -- construction ---------------------------------------------------
    @classmethod
    def from_hex(cls, text: str) -> "Guid":
        if len(text) != GUID_DIGITS:
            raise ValueError(f"expected {GUID_DIGITS} hex digits, got {len(text)}")
        return cls(int(text, 16))

    @classmethod
    def from_bytes(cls, data: bytes) -> "Guid":
        if len(data) != GUID_BITS // 8:
            raise ValueError(f"expected {GUID_BITS // 8} bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    # -- representations -------------------------------------------------
    @property
    def hex(self) -> str:
        return f"{self.value:0{GUID_DIGITS}x}"

    def digit(self, index: int) -> int:
        """The ``index``-th hex digit, most significant first (0-based)."""
        if not 0 <= index < GUID_DIGITS:
            raise IndexError(f"digit index out of range: {index}")
        shift = 4 * (GUID_DIGITS - 1 - index)
        return (self.value >> shift) & 0xF

    # -- prefix / ring arithmetic ----------------------------------------
    def shared_prefix_len(self, other: "Guid") -> int:
        """Number of leading hex digits shared with ``other`` (0..32)."""
        xor = self.value ^ other.value
        if xor == 0:
            return GUID_DIGITS
        leading_zero_bits = GUID_BITS - xor.bit_length()
        return leading_zero_bits // 4

    def ring_distance(self, other: "Guid") -> int:
        """Shortest distance around the circular identifier space."""
        diff = abs(self.value - other.value)
        return min(diff, _GUID_SPACE - diff)

    def clockwise_distance(self, other: "Guid") -> int:
        """Distance travelling clockwise (increasing ids) from self to other."""
        return (other.value - self.value) % _GUID_SPACE

    # -- comparisons / hashing ---------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, Guid) and self.value == other.value

    def __lt__(self, other: "Guid") -> bool:
        return self.value < other.value

    def __le__(self, other: "Guid") -> bool:
        return self.value <= other.value

    def __gt__(self, other: "Guid") -> bool:
        return self.value > other.value

    def __ge__(self, other: "Guid") -> bool:
        return self.value >= other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:
        return f"Guid({self.hex[:8]}..)"


def guid_from_content(data: bytes) -> Guid:
    """Content-derived GUID: the secure-hash naming scheme of PAST/OceanStore."""
    digest = hashlib.sha256(data).digest()
    return Guid.from_bytes(digest[: GUID_BITS // 8])


def guid_from_name(name: str) -> Guid:
    """Name-derived GUID (hash of keywords/filename in the paper's terms)."""
    return guid_from_content(name.encode("utf-8"))


def random_guid(rng: random.Random) -> Guid:
    return Guid(rng.getrandbits(GUID_BITS))
