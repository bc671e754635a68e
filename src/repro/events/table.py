"""One kind of filter state held by a broker, and its per-link books.

A broker keeps two kinds of filter — subscriptions and advertisements —
and treats them the same way: store each by the source it arrived from,
remember the path it arrived with, push it toward every other link
unless a filter already forwarded there covers it, and on removal
withdraw it, re-forward what it was masking and re-widen the paths of
the copies that survive.  :class:`FilterTable` is that treatment,
written once; :class:`~repro.events.broker.BrokerNode` builds one table
per kind and keeps only what really differs between them.

Two mechanisms keep the books convergent on cyclic overlays.
**Narrowing** is driven by *arrivals*: a copy of a known filter arriving
over a different chain narrows the recorded path to the chains'
intersection and re-propagates to the links the wider path was wrongly
excluding; paths only ever shrink, so the extra flooding is finite.
**Re-widening** is driven by *removals*: when one copy goes but another
keeps the filter forwarded, the intersection of the surviving chains —
necessarily a superset of the old narrowed path — is re-sent with
``path_reset`` so downstream brokers widen too.  Without it, heavy churn
leaves paths narrowed by departed origins, flooding control state wider
than a freshly-built overlay ever would.  Resets only ever widen, so the
pair cannot oscillate.

``indexed=False`` swaps a structure, not the algorithm: a scanning
:class:`~repro.events.index.ScanStore` stands in for the index and every
poset, and every book is kept and audited as in the indexed mode — the
reference the equivalence suites compare the indexed fabric against.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from operator import attrgetter, indexOf
from typing import Any, Callable, Collection, Hashable, Sequence

from repro.events.filters import Filter
from repro.events.index import CoveringPoset, PredicateIndex, ScanStore
from repro.events.model import Notification
from repro.net.network import Address

Path = tuple[Address, ...]


def _bare(filter: Filter, source: Address | None = None) -> Filter:
    return filter


class _Forwarded(Mapping):
    """``neighbour -> [filter, ...]`` in forward order, read off ``fwd_ids``."""

    def __init__(self, fwd_ids: dict[Address, dict[Filter, int]]):
        self._ids = fwd_ids

    def __getitem__(self, neighbour: Address) -> list[Filter]:
        return list(self._ids[neighbour])

    def __iter__(self):
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)


class FilterTable:
    """Stored filters of one kind plus what was forwarded toward each link.

    ``addr`` is the owning broker, ``links`` the live set of neighbours
    control state floods to (empty when the owner does not flood), and
    ``send(neighbour, payload)`` the owner's control-message sender.
    ``forward_msg(filter, path, path_reset)`` / ``retract_msg(filter)``
    are the wire pair of this kind.  ``index`` replaces the default
    :class:`PredicateIndex` (a ``ScanStore`` when ``indexed`` is off; the
    subscription table is partitioned by subject,
    :mod:`repro.events.sharding`),
    ``record(filter, source)`` builds what the by-source lists hold (an
    object exposing ``.filter``; the bare filter by default), and
    ``blocked(neighbour, filter)`` withholds forwarding toward a link —
    a blocked filter stays parked until the owner calls :meth:`forward`.
    """

    def __init__(
        self,
        addr: Address,
        links: Collection[Address],
        send: Callable[[Address, Any], None],
        forward_msg: Callable[..., Any],
        retract_msg: Callable[[Filter], Any],
        *,
        indexed: bool,
        covering_enabled: bool,
        index: PredicateIndex | None = None,
        record: Callable[[Filter, Address], Any] | None = None,
        blocked: Callable[[Address, Filter], bool] | None = None,
    ):
        self.addr = addr
        self.links = links
        self.send = send
        self.forward_msg = forward_msg
        self.retract_msg = retract_msg
        self.covering_enabled = covering_enabled
        self.blocked = blocked
        self._record = _bare if record is None else record
        self._filter_of = _bare if record is None else attrgetter("filter")
        # Stored filters by immediate source (neighbour broker or client).
        self.by_source: dict[Address, list] = {}
        # ``indexed`` only picks the structures.  Index over every stored
        # filter (payload: the source it arrived from).
        poset_type = CoveringPoset if indexed else ScanStore
        if index is None:
            index = PredicateIndex() if indexed else ScanStore()
        self.index = index
        self.entry_ids: dict[tuple[Address, Filter], Hashable] = {}
        # Covering poset over the same store — drives the "what was the
        # removed filter masking?" query on removal.
        self.poset = poset_type()
        self.poset_ids: dict[tuple[Address, Filter], int] = {}
        self.sources: dict[Filter, set[Address]] = {}
        # Source path each stored filter arrived with (clients arrive
        # with the empty path) — re-forwarding a stored filter (link
        # sync, unmasking, deferred unblock) re-uses it so the flood
        # stays loop-scoped on meshes.
        self.paths: dict[tuple[Address, Filter], Path] = {}
        # Filters already pushed toward each neighbour, in forward order with
        # their ids in per-neighbour posets over them — the "is this covered
        # by an already-forwarded one?" query.  ``forwarded`` lists them.
        self.fwd_posets: defaultdict[Address, CoveringPoset] = defaultdict(poset_type)
        self.fwd_ids: dict[Address, dict[Filter, int]] = {}
        self.forwarded = _Forwarded(self.fwd_ids)
        # The path each filter was last pushed toward a neighbour with
        # (as a set) — when a narrower copy arrives, the delta is re-sent
        # so the neighbour can narrow its stored path too.
        self.sent: dict[Address, dict[Filter, frozenset]] = {}

    # ------------------------------------------------------------------
    # The store
    # ------------------------------------------------------------------
    def filters_from(self, source: Address) -> list[Filter]:
        return [self._filter_of(r) for r in self.by_source.get(source, ())]

    def entries(self, exclude: Address | None = None):
        """``(source, filter)`` of every stored entry not from ``exclude``."""
        for source, records in self.by_source.items():
            if source != exclude:
                for record in records:
                    yield source, self._filter_of(record)

    def stored_count(self) -> int:
        return sum(len(records) for records in self.by_source.values())

    def forwarded_count(self) -> int:
        return sum(map(len, self.fwd_ids.values()))

    def interested(
        self, notifications: Sequence[Notification], exclude: Address | None = None
    ) -> list[list[Address]]:
        """Per notification, the sources holding a filter that admits it.

        Sources come in by-source insertion order — the order deliveries
        leave in, so simulator tie-breaks do not depend on the matching
        strategy — and ``exclude`` (where a publication came from) is
        never among them.  The index answers (``holders`` tells one
        notification from many); the by-source lists only order it.
        """
        out: list[list[Address]] = []
        for holders in self.index.holders(notifications):
            holders.discard(exclude)
            out.append([s for s in self.by_source if s in holders] if holders else [])
        return out

    def matches(self, notification: Notification) -> bool:
        """Does any stored filter admit ``notification``?"""
        return bool(self.interested((notification,))[0])

    def store(
        self,
        source: Address,
        filter: Filter,
        path: Path = (),
        path_reset: bool = False,
    ) -> bool:
        """Record ``filter`` from ``source`` and flood it onward.

        Returns ``True`` only for a genuinely new entry.  A copy whose
        path passes through this broker is a reflection of our own
        forwarding around a cycle and is dropped; a copy of a known
        entry only adjusts the stored path (narrowing, or widening on
        ``path_reset``).
        """
        if self.addr in path:
            return False
        key = (source, filter)
        if key in self.paths:
            if path_reset:
                self._widen_stored(source, filter, path)
            else:
                self._narrow_stored(source, filter, path)
            return False
        self.by_source.setdefault(source, []).append(self._record(filter, source))
        self.paths[key] = path
        self.entry_ids[key] = self.index.add(filter, payload=source)
        self.poset_ids[key] = self.poset.add(filter, payload=key)
        self.sources.setdefault(filter, set()).add(source)
        self._propagate(source, filter, path)
        return True

    def _narrow_stored(self, source: Address, filter: Filter, path: Path) -> None:
        """Narrow a stored filter's path when a copy arrives another way.

        The stored path becomes the intersection of every chain the
        filter has arrived over from this source — only the brokers on
        *all* of them are guaranteed to know the filter already.  When
        it shrinks, the filter re-propagates: neighbours the wider path
        excluded may now legitimately need it.
        """
        old = self.paths[(source, filter)]
        arrived = set(path)
        new = tuple(x for x in old if x in arrived)
        if len(new) == len(old):
            return
        self.paths[(source, filter)] = new
        self._propagate(source, filter, new)

    def _widen_stored(self, source: Address, filter: Filter, path: Path) -> None:
        """Replace a stored path with a strictly wider reset; else ignore.

        Only strict supersets are accepted: a reset is the sender's
        recomputation after one of the chains feeding an intersection
        disappeared, so it can only widen — and insisting on that keeps
        the narrow/widen pair monotone (no oscillating re-sends).
        """
        if not set(path) > set(self.paths[(source, filter)]):
            return
        self.paths[(source, filter)] = tuple(path)
        for neighbour in self.links:
            self.rewiden(neighbour, filter)

    def remove(self, source: Address, filter: Filter) -> bool:
        """Drop ``source``'s copy of ``filter`` and retract it onward.

        Returns whether an entry was stored.  The retraction pass runs
        either way — removing an absent entry finds nothing to withdraw,
        which is how tag-less retractions terminate on a mesh.  The record
        is found by identity, never ``Filter.__eq__``: it holds the object
        the store poset was given.
        """
        key = (source, filter)
        removed = key in self.paths
        if removed:
            stored = self.poset.filter_of(self.poset_ids[key])
            records = self.by_source[source]
            del records[indexOf(map(id, map(self._filter_of, records)), id(stored))]
            if not records:
                del self.by_source[source]
            del self.paths[key]
            self.index.remove(self.entry_ids.pop(key))
            self.poset.remove(self.poset_ids.pop(key))
            holders = self.sources[filter]
            holders.discard(source)
            if not holders:
                del self.sources[filter]
        for neighbour in self.links:
            if neighbour != source:
                self._retract(neighbour, filter)
        return removed

    def _retract(self, neighbour: Address, filter: Filter) -> None:
        """Withdraw ``filter`` from a neighbour and re-forward what it masked.

        A stored filter can only have been suppressed (never forwarded)
        because some forwarded filter covered it, so the candidates for
        re-forwarding are exactly the store poset's ``covered_by`` set of
        the withdrawn filter, re-offered in insertion order — one poset
        query instead of re-offering the whole store.
        """
        if filter not in self.fwd_ids.get(neighbour, ()):
            return
        if any(src != neighbour for src in self.sources.get(filter, ())):
            # Still stored from elsewhere: the neighbour keeps it, but
            # the departed copy may have been narrowing the sent path —
            # recompute it from the surviving chains.
            self.rewiden(neighbour, filter)
            return
        self.withdraw(neighbour, filter)
        for pid in self.poset.covered_by(filter):
            masked_source, masked = self.poset.payload(pid)
            if masked_source != neighbour:
                # Duplicate/covering/path suppression lives in forward()
                # (the duplicate check there is explicit because
                # filter_covers is not reflexive for range constraints
                # over strings/bools).
                self._offer(neighbour, masked, self.paths[(masked_source, masked)])

    # ------------------------------------------------------------------
    # Toward one neighbour
    # ------------------------------------------------------------------
    def _propagate(self, source: Address, filter: Filter, path: Path) -> None:
        for neighbour in self.links:
            if neighbour != source:
                self._offer(neighbour, filter, path)

    def _offer(self, neighbour: Address, filter: Filter, path: Path) -> None:
        if self.blocked is not None and self.blocked(neighbour, filter):
            return  # parked: the owner forwards it once it is unblocked
        self.forward(neighbour, filter, path)

    def forward(self, neighbour: Address, filter: Filter, path: Path) -> None:
        """Push ``filter`` toward a neighbour unless it is redundant there.

        Under covering, a filter whose notifications the neighbour already
        receives (some forwarded filter covers it, itself included) is
        suppressed; with covering disabled only exact duplicates are — the
        ablation baseline measured in benchmark A1.

        ``path`` is the copy's stored source path (this broker appends
        itself on the wire).  A neighbour on the path has necessarily
        seen the filter, so the flood never crosses a cycle twice.  An
        already-forwarded filter arriving again over a narrower chain is
        re-sent with the narrowed path (the intersection of every chain
        pushed so far), so the neighbour learns the filter no longer
        depends on the brokers the original path crossed — without this,
        two identical filters from different origins would collapse into
        one path and starve redundant routes of routing state.
        """
        if neighbour in path:
            return
        poset = self.fwd_posets[neighbour]
        ids = self.fwd_ids.setdefault(neighbour, {})
        if filter in ids:
            self.narrow(neighbour, filter, path)
            return
        if self.covering_enabled and poset.covers_any(filter):
            return
        ids[filter] = poset.add(filter)
        self.sent.setdefault(neighbour, {})[filter] = frozenset(path)
        self.send(neighbour, self.forward_msg(filter, path + (self.addr,)))

    def narrow(self, neighbour: Address, filter: Filter, path: Path) -> None:
        """Re-send an already-forwarded filter whose path just narrowed."""
        sent = self.sent[neighbour]
        old = sent[filter]
        new = old & frozenset(path)
        if new == old:
            return
        sent[filter] = new
        narrowed = tuple(x for x in path if x in new)
        self.send(neighbour, self.forward_msg(filter, narrowed + (self.addr,)))

    def withdraw(self, neighbour: Address, filter: Filter) -> None:
        """Strike a forwarded filter from every book and tell the neighbour."""
        self.fwd_posets[neighbour].remove(self.fwd_ids[neighbour].pop(filter))
        del self.sent[neighbour][filter]
        self.send(neighbour, self.retract_msg(filter))

    def rewiden(self, neighbour: Address, filter: Filter) -> None:
        """Re-send a forwarded filter whose fresh path is wider than sent.

        The copies still justifying the forward are the ones stored from
        any other source; a fresh overlay would send the intersection of
        their paths, which after a removal may be a strict superset of
        what narrowing left behind.  A wider path means *fewer* brokers
        flooded on later re-sends — the state a long-lived overlay keeps
        converges back to what a freshly built one would hold.
        """
        sent = self.sent.get(neighbour, {})
        old = sent.get(filter)
        if old is None:
            return  # not forwarded toward this neighbour
        holders = [src for src in self.sources.get(filter, ()) if src != neighbour]
        survivor_paths = [self.paths[(src, filter)] for src in holders]
        if not survivor_paths:
            return
        base = survivor_paths[0]
        fresh = set(base)
        for path in survivor_paths[1:]:
            fresh &= set(path)
        if not fresh > old:
            return
        if neighbour in fresh:
            # The neighbour sits on every surviving chain: it would
            # reject the re-send as a reflection anyway.
            return
        sent[filter] = frozenset(fresh)
        ordered = tuple(x for x in base if x in fresh)
        self.send(neighbour, self.forward_msg(filter, ordered + (self.addr,), True))

    # ------------------------------------------------------------------
    # Link lifecycle
    # ------------------------------------------------------------------
    def sync(self, neighbour: Address) -> None:
        """Offer every stored filter to ``neighbour`` as if arriving fresh."""
        for source, filter in self.entries(exclude=neighbour):
            self._offer(neighbour, filter, self.paths[(source, filter)])

    def forget(self, neighbour: Address) -> None:
        """Discard every book kept about the link toward ``neighbour``."""
        for book in (self.fwd_posets, self.fwd_ids, self.sent):
            book.pop(neighbour, None)

    def reset(self, neighbour: Address) -> None:
        """Start the link's books afresh: nothing has been forwarded.

        Records of what the far side holds go stale when it drops its
        half of the link, and would suppress the re-push of :meth:`sync`.
        """
        self.forget(neighbour)
        self.fwd_ids[neighbour] = {}

    # ------------------------------------------------------------------
    # Audit
    # ------------------------------------------------------------------
    def check(self) -> list[str]:
        """Every way the books disagree with each other; empty when sound.

        The store is read from the by-source lists alone, so the audit
        holds the derived structures (paths, index, posets, ``sources``,
        the per-link books) to it rather than to one another.
        """
        problems: list[str] = []
        stored: dict[Filter, set[Address]] = {}
        for source, filter in self.entries():
            stored.setdefault(filter, set()).add(source)
            if _named(self.poset, self.poset_ids.get((source, filter))) is not filter:
                problems.append(f"{filter!r} from {source!r} is not the object the poset holds")
        keys = {(src, f) for f, srcs in stored.items() for src in srcs}
        if not all(self.by_source.values()):
            problems.append("an empty by-source list is kept")
        if self.stored_count() != len(keys):
            problems.append("a (source, filter) pair is stored twice")
        if set(self.paths) != keys:
            problems.append(f"paths out of step with the store: {set(self.paths) ^ keys!r}")
        for name, ids, structure in (
            ("index", self.entry_ids, self.index),
            ("poset", self.poset_ids, self.poset),
        ):
            if set(ids) != keys or len(structure) != len(keys):
                problems.append(f"{name} entries out of step with the store")
        if self.sources != stored:
            problems.append("sources out of step with the store")
        for neighbour, ids in self.fwd_ids.items():
            if ids and neighbour not in self.links:
                problems.append(f"filters forwarded toward non-link {neighbour!r}")
            if self.sent.get(neighbour, {}).keys() != ids.keys():
                problems.append(f"sent paths out of step with forwards toward {neighbour!r}")
            poset = self.fwd_posets.get(neighbour, ())
            if len(poset) != len(ids) or any(_named(poset, fid) != f for f, fid in ids.items()):
                problems.append(f"link poset out of step with forwards toward {neighbour!r}")
            for filter in ids:
                if not stored.get(filter, set()) - {neighbour}:
                    problems.append(f"{filter!r} forwarded toward {neighbour!r} unjustified")
                if self.blocked is not None and self.blocked(neighbour, filter):
                    problems.append(f"{filter!r} forwarded toward {neighbour!r} while blocked")
        return problems


def _named(poset, pid: int | None) -> Filter | None:  # None: a stale or missing id
    try:
        return poset.filter_of(pid)
    except KeyError:
        return None
