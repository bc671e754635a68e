"""Pastry routing state: the prefix routing table and the leaf set.

:func:`fill_converged` fills both from global knowledge — the one ring
fill behind ``pastry.fast_build`` and ``broker.build_dht_fleet``.
"""

from __future__ import annotations

from typing import Iterator

from repro.ids import DIGIT_BASE, GUID_DIGITS, Guid
from repro.net.geo import haversine_km
from repro.overlay.api import NodeDescriptor


class RoutingTable:
    """Plaxton prefix table: row ``r`` holds nodes sharing ``r`` digits.

    Entry ``(r, c)`` is a node whose id shares exactly ``r`` leading hex
    digits with ours and whose next digit is ``c``.  When several candidates
    compete for a slot we keep the geographically closest, which is Pastry's
    proximity heuristic.
    """

    def __init__(self, owner: NodeDescriptor):
        self.owner = owner
        self._rows: list[dict[int, NodeDescriptor]] = [
            {} for _ in range(GUID_DIGITS)
        ]

    def entry(self, row: int, col: int) -> NodeDescriptor | None:
        return self._rows[row].get(col)

    def add(self, descriptor: NodeDescriptor) -> bool:
        """Consider ``descriptor`` for its slot; returns True if stored."""
        if descriptor.guid == self.owner.guid:
            return False
        row = self.owner.guid.shared_prefix_len(descriptor.guid)
        if row >= GUID_DIGITS:
            return False
        col = descriptor.guid.digit(row)
        current = self._rows[row].get(col)
        if current is None:
            self._rows[row][col] = descriptor
            return True
        if current.guid == descriptor.guid:
            return False
        new_km = haversine_km(self.owner.position, descriptor.position)
        cur_km = haversine_km(self.owner.position, current.position)
        if new_km < cur_km:
            self._rows[row][col] = descriptor
            return True
        return False

    def remove(self, guid: Guid) -> None:
        row_index = self.owner.guid.shared_prefix_len(guid)
        if row_index >= GUID_DIGITS:
            return
        col = guid.digit(row_index)
        current = self._rows[row_index].get(col)
        if current is not None and current.guid == guid:
            del self._rows[row_index][col]

    def row(self, index: int) -> dict[int, NodeDescriptor]:
        return dict(self._rows[index])

    def __iter__(self) -> Iterator[NodeDescriptor]:
        for row in self._rows:
            yield from row.values()

    def __len__(self) -> int:
        return sum(len(row) for row in self._rows)


class LeafSet:
    """The ``L`` nodes numerically closest to ours, half per ring side.

    The leaf set determines message delivery (a key is delivered at the
    member closest to it) and replica placement (the k closest members hold
    copies), so every operation here keeps both sides sorted by ring
    proximity to the owner.  Members are always the union of the two
    closest halves, cached until the membership changes.
    """

    def __init__(self, owner: NodeDescriptor, size: int = 8):
        if size % 2 != 0 or size <= 0:
            raise ValueError("leaf set size must be a positive even number")
        self.owner = owner
        self.size = size
        self._members: dict[Guid, NodeDescriptor] = {}
        self._sides: tuple[list[NodeDescriptor], list[NodeDescriptor]] | None = None

    # ------------------------------------------------------------------
    def _cw(self, guid: Guid) -> int:
        return self.owner.guid.clockwise_distance(guid)

    def _ccw(self, guid: Guid) -> int:
        return guid.clockwise_distance(self.owner.guid)

    def _side(self, clockwise: bool) -> list[NodeDescriptor]:
        if self._sides is None:
            members, half = self._members.values(), self.size // 2
            self._sides = tuple(
                sorted(members, key=lambda d: keyfn(d.guid))[:half] for keyfn in (self._cw, self._ccw)
            )
        return self._sides[not clockwise]

    def _trim(self) -> None:
        self._sides = None  # still right after the trim: it keeps both halves
        keep = {d.guid for d in self._side(True)} | {d.guid for d in self._side(False)}
        self._members = {g: d for g, d in self._members.items() if g in keep}

    # ------------------------------------------------------------------
    def add(self, descriptor: NodeDescriptor) -> bool:
        guid = descriptor.guid
        if guid == self.owner.guid or guid in self._members:
            return False
        if self.is_saturated():
            far_cw, far_ccw = self.extremes()
            if self._cw(guid) > self._cw(far_cw.guid) and self._ccw(guid) > self._ccw(far_ccw.guid):
                return False  # beyond both full sides: the trim would drop it
        self._members[guid] = descriptor
        self._trim()
        return guid in self._members

    def remove(self, guid: Guid) -> bool:
        self._sides = None
        return self._members.pop(guid, None) is not None

    def __contains__(self, guid: Guid) -> bool:
        return guid in self._members

    def __len__(self) -> int:
        return len(self._members)

    def members(self) -> list[NodeDescriptor]:
        return list(self._members.values())

    # ------------------------------------------------------------------
    def is_saturated(self) -> bool:
        """True once both sides are full (network larger than the set)."""
        half = self.size // 2
        return len(self._side(True)) >= half and len(self._side(False)) >= half

    def covers(self, key: Guid) -> bool:
        """Is ``key`` inside the arc spanned by the leaf set (plus owner)?

        While the leaf set is not saturated we know every node in a small
        network, so everything is covered.
        """
        if not self.is_saturated():
            return True
        cw_extreme = self._side(True)[-1]
        ccw_extreme = self._side(False)[-1]
        span = ccw_extreme.guid.clockwise_distance(cw_extreme.guid)
        offset = ccw_extreme.guid.clockwise_distance(key)
        return offset <= span

    def closest(self, key: Guid, include_owner: bool = True) -> NodeDescriptor:
        """The member (optionally incl. the owner) nearest ``key`` on the ring.

        Ties break toward the lower GUID so every node in the network agrees
        on a key's root.
        """
        candidates = self.members()
        if include_owner:
            candidates = candidates + [self.owner]
        if not candidates:
            raise ValueError("empty leaf set and owner excluded")
        return min(
            candidates,
            key=lambda d: (key.ring_distance(d.guid), d.guid.value),
        )

    def closest_k(self, key: Guid, k: int, include_owner: bool = True) -> list[NodeDescriptor]:
        """The ``k`` members nearest ``key`` — the storage replica set."""
        candidates = self.members()
        if include_owner:
            candidates = candidates + [self.owner]
        ordered = sorted(
            candidates,
            key=lambda d: (key.ring_distance(d.guid), d.guid.value),
        )
        return ordered[:k]

    def extremes(self) -> list[NodeDescriptor]:
        """The farthest member on each side; used to extend a thinning set."""
        out = []
        for clockwise in (True, False):
            side = self._side(clockwise)
            if side:
                out.append(side[-1])
        return out


# Prefix-table rows filled per node by :func:`fill_converged`, and the
# candidates weighed per slot: enough rows to keep hop counts flat at
# the benchmarks' fleet sizes without O(N) work per slot.
CONVERGED_PREFIX_ROWS = 8
CONVERGED_SLOT_CANDIDATES = 16


def fill_converged(states: list[tuple[LeafSet, RoutingTable]]) -> None:
    """Fill every node's state with what Pastry's join protocol converges to.

    ``states`` holds one ``(leaf set, routing table)`` pair per node, in
    construction order.  Leaf sets come from the sorted guid ring; each
    prefix slot takes the geographically closest of the first
    ``CONVERGED_SLOT_CANDIDATES`` nodes (in construction order) whose id
    falls in its bucket — O(N log N) overall, so large fleets are built
    without spending a simulation on joins.
    """
    ordered = sorted((leaf for leaf, _ in states), key=lambda leaf: leaf.owner.guid.value)
    total = len(ordered)
    for index, leaf in enumerate(ordered):
        for offset in range(1, min(leaf.size // 2, total - 1) + 1):
            leaf.add(ordered[(index + offset) % total].owner)
            leaf.add(ordered[(index - offset) % total].owner)

    by_prefix: dict[str, list[NodeDescriptor]] = {}
    for _, table in states:
        hex_id = table.owner.guid.hex
        for depth in range(1, CONVERGED_PREFIX_ROWS + 1):
            by_prefix.setdefault(hex_id[:depth], []).append(table.owner)

    for _, table in states:
        owner = table.owner
        hex_id = owner.guid.hex
        for row in range(CONVERGED_PREFIX_ROWS):
            own_digit = owner.guid.digit(row)
            for col in range(DIGIT_BASE):
                if col == own_digit:
                    continue
                candidates = by_prefix.get(hex_id[:row] + f"{col:x}")
                if candidates:
                    table.add(
                        min(
                            candidates[:CONVERGED_SLOT_CANDIDATES],
                            key=lambda c: haversine_km(owner.position, c.position),
                        )
                    )
