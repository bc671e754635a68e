"""Predicate-indexed matching fabric: counting index and covering poset.

The seed matched every notification against every filter with a linear
scan — O(subscriptions × constraints) per publication — and answered
covering questions ("is this filter covered by an already-forwarded
one?", "what was this removed filter masking?") by rescanning whole
filter lists.  Siena-lineage systems get their throughput from two data
structures, reproduced here and shared by the dispatching layers
(:class:`~repro.events.broker.BrokerNode` through its ``FilterTable``s
and shards, and :class:`~repro.events.elvin.ElvinServer`; the matching
engine pins events to patterns through its own per-type buckets):

* :class:`PredicateIndex` — the *counting algorithm*.  Filters are
  decomposed into their attribute constraints and each constraint is
  filed in a per-attribute operator index: hash buckets for ``EQ`` /
  ``NE`` / ``EXISTS``, bisect-sorted threshold arrays for ``LT`` /
  ``LE`` / ``GT`` / ``GE``, exact-pattern hash tables for ``PREFIX`` /
  ``SUFFIX`` (probed with every prefix/suffix of the actual value, so
  a probe costs O(len(actual)) dict lookups instead of a bucket scan)
  and first-character-bucketed tables for ``CONTAINS``.  Matching a
  notification is one pass over its attributes: every satisfied
  constraint bumps a per-filter counter, and a filter matches when its
  counter reaches its constraint count.  Only predicates that could
  plausibly be satisfied are ever examined.  The counters live in
  preallocated arrays reused across calls — the match hot path
  allocates no per-event dicts (the PR 6 profile showed per-event dict
  churn dominating; a traced budget run, ``benchmarks/budget/run.py
  --traced``, is where ``index.match_s`` is read today).
  The buckets are walked by one routine, ``_AttributeIndex.satisfied``,
  which yields one entry per satisfied constraint; scalar ``match`` and
  the pure-python batch path count those entries as python lists, the
  vectorised batch path as ``int64`` views of the same lists, and
  ``ops`` is the number of entries the walk yielded — on every path.

* :meth:`PredicateIndex.match_batch` — the *batched* hot path.  A batch
  shares one candidate-collection sweep per distinct (attribute, value)
  pair (repeated values — event types, room names, URLs — collapse into
  one sweep), and when numpy is available the per-event counter
  accumulation vectorises into one ``bincount`` over concatenated
  candidate-id arrays (threshold ranges are zero-copy slices of lazily
  maintained numpy mirrors).  Results are exactly ``[match(n) for n in
  batch]`` — the randomized batch-equivalence suite enforces it — and
  the pure-python fallback (numpy absent, or ``vectorized=False``)
  factors batch-common keys into a shared base counter array instead.

* :class:`CoveringPoset` — the covering partial order.  ``a`` can only
  cover ``b`` when every attribute ``a`` constrains is also constrained
  by ``b`` (:func:`~repro.events.covering.constraint_covers` requires
  equal names) and every equality ``n = v`` of ``a`` is one of ``b``'s,
  so candidates are pruned with an inverted index over names and
  equality keys ``(name, family, value)`` — refined with per-name
  operator/family bitsets: a stored ``[x > 5]`` can only cover an ``x``
  constraint from the numeric ``{>, >=, =}`` families — and by numeric
  bounds: only one bounding ``x`` at 5 or above — so other probes never
  reach the exact
  :func:`~repro.events.covering.filter_covers` check.  What these tests
  read of a filter (keys, bitsets, bounds) is its covering summary,
  built once per filter on its first query, never on ``add``.
  Intersection is pruned by each entry's *pin*, the key of its first
  equality: a probe whose normal form pins that name to another value
  never meets it, so a probe pinned to one subject pays for that
  subject's entries and the pin-free ones, not every entry stored.

* :class:`ScanStore` — the naive scans, as a structure either can be
  swapped for, so the routing code runs one algorithm over both.

All structures are exact: they return precisely what the naive
``Filter.matches`` / ``filter_covers`` scans return — the randomized
equivalence suites in ``tests/test_index_equivalence.py`` and
``tests/test_batch_equivalence.py`` enforce this across all ten
operators — and the broker suites run ``indexed=False`` beside them (the
budget benchmark's ``city_edge`` prices the indexed, batched path absolutely).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from functools import lru_cache
from itertools import count
from math import inf
from typing import Any, Hashable, Iterator, Sequence

try:  # vectorised batch counting; every path has a pure-python fallback
    import numpy as _np
except ImportError:  # pragma: no cover - the image bakes numpy in
    _np = None

from repro.events.covering import filter_covers
from repro.events.filters import (
    Constraint,
    Filter,
    Op,
    _normal_form,
    family as _family,
    filters_intersect,
)
from repro.events.model import Notification

_RANGE_OPS = (Op.LT, Op.LE, Op.GT, Op.GE)


class _Thresholds:
    """Parallel (sorted values, filter ids) arrays for one range operator."""

    __slots__ = ("values", "fids", "np_fids")

    def __init__(self) -> None:
        self.values: list = []
        self.fids: list[int] = []
        self.np_fids = None  # lazily rebuilt numpy mirror of ``fids``

    def insert(self, value: Any, fid: int) -> None:
        at = bisect_right(self.values, value)
        self.values.insert(at, value)
        self.fids.insert(at, fid)
        self.np_fids = None

    def remove(self, value: Any, fid: int) -> None:
        at = bisect_left(self.values, value)
        while self.fids[at] != fid:
            at += 1
        del self.values[at]
        del self.fids[at]
        self.np_fids = None

    def window(self, op: Op, actual: Any) -> tuple[int, int]:
        """The [lo, hi) index window of thresholds ``actual`` satisfies."""
        values = self.values
        if op is Op.LT:  # actual < threshold
            return bisect_right(values, actual), len(values)
        if op is Op.LE:  # actual <= threshold
            return bisect_left(values, actual), len(values)
        if op is Op.GT:  # threshold < actual
            return 0, bisect_left(values, actual)
        return 0, bisect_right(values, actual)  # GE: threshold <= actual

    def mirror(self):
        """The numpy mirror of ``fids`` (rebuilt after mutations)."""
        arr = self.np_fids
        if arr is None:
            arr = self.np_fids = _np.array(self.fids, dtype=_np.int64)
        return arr


class _AttributeIndex:
    """Every constraint on one attribute name, filed by operator class."""

    __slots__ = (
        "exists", "eq", "ne_all", "ne_eq", "ranges", "prefix", "suffix",
        "contains", "prefix_maxlen", "suffix_maxlen", "views",
    )

    def __init__(self) -> None:
        self.exists: list[int] = []
        # (family, value) -> filter ids.  The family tag keeps bool/int apart.
        self.eq: dict[tuple, list[int]] = {}
        self.ne_all: dict[str, list[int]] = {}
        self.ne_eq: dict[tuple, list[int]] = {}
        # (op, family) -> sorted threshold arrays.
        self.ranges: dict[tuple, _Thresholds] = {}
        # Exact pattern value -> filter ids.  A probe enumerates every
        # prefix (suffix) of the actual value — O(len) dict hits instead
        # of scanning a shared-first-character bucket (every URL starts
        # with "h", every user id with "u": the buckets degenerate).
        self.prefix: dict[str, list[int]] = {}
        self.suffix: dict[str, list[int]] = {}
        # first character -> [(constraint value, filter id)]; the ""
        # bucket holds empty-string patterns, which match everything.
        self.contains: dict[str, list[tuple[str, int]]] = {}
        # Longest registered pattern: bounds the prefix/suffix probes.
        self.prefix_maxlen = 0
        self.suffix_maxlen = 0
        # id(stored fid list) -> its lazily built int64 view; dropped
        # whole by every add/remove (see :meth:`arrays`).
        self.views: dict[int, Any] = {}

    def add(self, constraint: Constraint, fid: int) -> None:
        op, value = constraint.op, constraint.value
        self.views.clear()
        if op is Op.EXISTS:
            self.exists.append(fid)
        elif op is Op.EQ:
            self.eq.setdefault((_family(value), value), []).append(fid)
        elif op is Op.NE:
            fam = _family(value)
            self.ne_all.setdefault(fam, []).append(fid)
            self.ne_eq.setdefault((fam, value), []).append(fid)
        elif op in _RANGE_OPS:
            self.ranges.setdefault((op, _family(value)), _Thresholds()).insert(value, fid)
        elif op is Op.PREFIX:
            self.prefix.setdefault(value, []).append(fid)
            if len(value) > self.prefix_maxlen:
                self.prefix_maxlen = len(value)
        elif op is Op.SUFFIX:
            self.suffix.setdefault(value, []).append(fid)
            if len(value) > self.suffix_maxlen:
                self.suffix_maxlen = len(value)
        else:  # CONTAINS
            self.contains.setdefault(value[:1], []).append((value, fid))

    def remove(self, constraint: Constraint, fid: int) -> None:
        op, value = constraint.op, constraint.value
        self.views.clear()
        if op is Op.EXISTS:
            self.exists.remove(fid)
        elif op is Op.EQ:
            key = (_family(value), value)
            bucket = self.eq[key]
            bucket.remove(fid)
            if not bucket:
                del self.eq[key]
        elif op is Op.NE:
            fam = _family(value)
            key = (fam, value)
            self.ne_all[fam].remove(fid)
            bucket = self.ne_eq[key]
            bucket.remove(fid)
            if not bucket:
                del self.ne_eq[key]
        elif op in _RANGE_OPS:
            self.ranges[(op, _family(value))].remove(value, fid)
        elif op is Op.PREFIX:
            bucket = self.prefix[value]
            bucket.remove(fid)
            if not bucket:
                del self.prefix[value]
                # maxlen stays a (harmless) upper bound on probe count.
        elif op is Op.SUFFIX:
            bucket = self.suffix[value]
            bucket.remove(fid)
            if not bucket:
                del self.suffix[value]
        else:
            self.contains[value[:1]].remove((value, fid))

    def satisfied(self, actual: Any) -> tuple[list, list, list[int]]:
        """Every constraint ``actual`` satisfies, as ``(shared, windows, hits)``.

        This is the one walk of the buckets.  ``shared`` holds stored fid
        lists *by reference* (the EXISTS list, the EQ bucket, the ``!=``
        pool when nothing is excluded), ``windows`` the ``(thresholds,
        lo, hi)`` ranges of the sorted threshold arrays, and ``hits`` the
        ids materialised on the spot (``!=`` survivors, pattern matches).
        Together they carry one entry per satisfied constraint — a filter
        constraining the attribute twice appears twice — and that entry
        count is what ``PredicateIndex.ops`` accumulates on every path:
        :meth:`fids` and :meth:`arrays` only change how entries are held.
        """
        shared: list[list[int]] = []
        windows: list[tuple[_Thresholds, int, int]] = []
        hits: list[int] = []
        fam = _family(actual)
        if self.exists:
            shared.append(self.exists)
        bucket = self.eq.get((fam, actual))
        if bucket:
            shared.append(bucket)
        pool = self.ne_all.get(fam)
        if pool:
            excluded = self.ne_eq.get((fam, actual))
            if excluded:
                skip = Counter(excluded)
                for fid in pool:
                    if skip.get(fid):
                        skip[fid] -= 1
                        continue
                    hits.append(fid)
            else:
                shared.append(pool)
        if self.ranges:
            for (op, rfam), thresholds in self.ranges.items():
                if rfam != fam:
                    continue
                lo, hi = thresholds.window(op, actual)
                if hi > lo:
                    windows.append((thresholds, lo, hi))
        if fam == "s":
            if self.prefix:
                for i in range(min(self.prefix_maxlen, len(actual)) + 1):
                    bucket = self.prefix.get(actual[:i])
                    if bucket:
                        hits.extend(bucket)
            if self.suffix:
                n = len(actual)
                for i in range(min(self.suffix_maxlen, n) + 1):
                    bucket = self.suffix.get(actual[n - i:])
                    if bucket:
                        hits.extend(bucket)
            if self.contains:
                patterns = self.contains.get("")
                if patterns:
                    hits.extend(fid for _value, fid in patterns)  # "" is in every string
                for char in set(actual):
                    patterns = self.contains.get(char)
                    if not patterns:
                        continue
                    for value, fid in patterns:
                        if value in actual:
                            hits.append(fid)
        return shared, windows, hits

    def fids(self, actual: Any) -> list[int]:
        """The walk's entries as one python list (counter-bumping paths)."""
        shared, windows, out = self.satisfied(actual)
        for stored in shared:
            out.extend(stored)
        for thresholds, lo, hi in windows:
            out.extend(thresholds.fids[lo:hi])
        return out

    def arrays(self, actual: Any) -> list:
        """The walk's entries as ``int64`` arrays (the ``bincount`` path).

        Shared lists are viewed through :attr:`views` — keyed by list
        identity, which is safe only because every ``add``/``remove`` on
        this attribute drops the cache before a list can change or its
        id be reused; threshold windows are zero-copy slices of the
        thresholds' own mirror.
        """
        shared, windows, hits = self.satisfied(actual)
        views = self.views
        out = []
        for stored in shared:
            view = views.get(id(stored))
            if view is None:
                view = views[id(stored)] = _np.array(stored, dtype=_np.int64)
            out.append(view)
        for thresholds, lo, hi in windows:
            out.append(thresholds.mirror()[lo:hi])
        if hits:
            out.append(_np.array(hits, dtype=_np.int64))
        return out


# Bound on the persistent heavy-signature cache of the pure-python
# match_batch fallback; on overflow the whole cache resets (entries are
# cheap to rebuild and workloads with > this many live shapes churn
# anyway).
_PY_BASE_CACHE_MAX = 128
# How many notifications of a batch must share a key for the fallback to
# fold it into a base array instead of walking it per notification.
_PY_HEAVY_MIN = 4


class PredicateIndex:
    """Counting-algorithm index: ``match`` returns every matching filter.

    Filters are registered with :meth:`add` (which returns a stable id,
    optionally carrying an opaque ``payload`` such as the subscriber
    address) and withdrawn with :meth:`remove`.  :attr:`ops` accumulates
    the entries the bucket walk yielded across all ``match`` /
    ``match_batch`` calls — one per satisfied constraint, the same on
    the scalar, pure-python batch and numpy paths — the indexed
    counterpart of the naive scan's match-operation count.

    :meth:`match_batch` amortises a batch of notifications: one
    candidate sweep per distinct (attribute, value) pair and — with
    numpy — one vectorised counter accumulation per notification.  Both
    batched paths return exactly what per-notification :meth:`match`
    calls would.
    """

    def __init__(self) -> None:
        self._attributes: dict[str, _AttributeIndex] = {}
        self._filters: dict[int, Filter] = {}
        # Constraint counts indexed by fid (-1 = freed id); the dense
        # array backs both the scalar and the vectorised hot paths.
        self._needs: list[int] = []
        self._payloads: dict[int, Any] = {}
        self._next_id = 0
        self.ops = 0
        # Reusable per-call scratch: counter array + touched-fid list.
        self._counts: list[int] = []
        self._touched: list[int] = []
        self._np_needs = None  # lazily rebuilt numpy mirror of _needs
        # Persistent cross-batch cache for the pure-python match_batch
        # fallback: heavy-key signature -> (base counts, base matches).
        # Entries are read-only once built, so they stay valid until the
        # subscription table changes (add/remove clear the cache).
        self._py_bases: dict[frozenset, tuple[list[int], frozenset]] = {}
        self.batch_cache_hits = 0
        self.batch_cache_misses = 0

    def __len__(self) -> int:
        return len(self._filters)

    def add(self, filter: Filter, payload: Any = None) -> int:
        fid = self._next_id
        self._next_id += 1
        self._filters[fid] = filter
        self._needs.append(len(filter.constraints))
        self._counts.append(0)
        self._payloads[fid] = payload
        for constraint in filter.constraints:
            self._attributes.setdefault(constraint.name, _AttributeIndex()).add(
                constraint, fid
            )
        self._np_needs = None
        self._py_bases.clear()
        return fid

    def remove(self, fid: int) -> Any:
        filter = self._filters.pop(fid)
        self._needs[fid] = -1
        for constraint in filter.constraints:
            self._attributes[constraint.name].remove(constraint, fid)
        self._np_needs = None
        self._py_bases.clear()
        return self._payloads.pop(fid)

    def payload(self, fid: int) -> Any:
        return self._payloads[fid]

    def filter_of(self, fid: int) -> Filter:
        return self._filters[fid]

    def match(self, notification: Notification) -> set[int]:
        """Ids of every registered filter the notification satisfies.

        A batch of one: the candidates of each attribute are bumped into
        the reusable counter array, then drained through ``touched``.
        """
        counts = self._counts
        touched = self._touched
        ops = 0
        attributes = self._attributes
        for name, actual in notification.items():
            attr = attributes.get(name)
            if attr is not None:
                candidates = attr.fids(actual)
                ops += len(candidates)
                for fid in candidates:
                    c = counts[fid]
                    if not c:
                        touched.append(fid)
                    counts[fid] = c + 1
        self.ops += ops
        needs = self._needs
        out = set()
        for fid in touched:
            if counts[fid] == needs[fid]:
                out.add(fid)
            counts[fid] = 0
        del touched[:]
        return out

    def holders(self, notifications: Sequence[Notification]) -> list[set]:
        """Per notification, the payloads of every filter that admits it.

        The delivery question, answered without handing ids back to be
        looked up one by one: scalar :meth:`match` for a single
        notification, one :meth:`match_batch` sweep for several.
        """
        if len(notifications) == 1:
            matched_sets = [self.match(notifications[0])]
        else:
            matched_sets = self.match_batch(notifications)
        payloads = self._payloads
        return [{payloads[fid] for fid in matched} for matched in matched_sets]

    # ------------------------------------------------------------------
    # Batched matching
    # ------------------------------------------------------------------
    def match_batch(
        self, notifications: list, vectorized: bool | None = None
    ) -> list[set[int]]:
        """``[self.match(n) for n in notifications]``, amortised.

        Candidate collection runs once per distinct (attribute, value)
        pair in the batch.  With numpy (``vectorized`` None/True) the
        per-notification counter accumulation is one ``bincount`` over
        concatenated candidate arrays; the pure-python fallback factors
        the batch's common keys into a shared base counter array and
        only walks each notification's rare keys.  Both are exact.
        """
        if vectorized is None:
            vectorized = _np is not None
        elif vectorized and _np is None:
            raise RuntimeError("vectorized match_batch requires numpy")
        if vectorized:
            return self._match_batch_np(notifications)
        return self._match_batch_py(notifications)

    def _batch_keys(self, notifications: list):
        """Per-notification (attr, key) lists plus batch key frequency."""
        attributes = self._attributes
        freq: dict[tuple, int] = {}
        per_event: list[list] = []
        get = freq.get
        for notification in notifications:
            keys = []
            for name, actual in notification.items():
                attr = attributes.get(name)
                if attr is not None:
                    key = (name, _family(actual), actual)
                    keys.append((attr, key))
                    freq[key] = get(key, 0) + 1
            per_event.append(keys)
        return per_event, freq

    def _match_batch_np(self, notifications: list) -> list[set[int]]:
        n_ids = self._next_id
        needs = self._np_needs
        if needs is None or needs.size != n_ids:
            needs = self._np_needs = _np.array(self._needs, dtype=_np.int64)
        memo: dict[tuple, list] = {}
        results: list[set[int]] = []
        ops = 0
        concatenate = _np.concatenate
        bincount = _np.bincount
        for notification in notifications:
            arrs: list = []
            for name, actual in notification.items():
                attr = self._attributes.get(name)
                if attr is None:
                    continue
                key = (name, _family(actual), actual)
                sub = memo.get(key)
                if sub is None:
                    sub = memo[key] = attr.arrays(actual)
                arrs.extend(sub)
            if not arrs:
                results.append(set())
                continue
            cat = concatenate(arrs) if len(arrs) > 1 else arrs[0]
            ops += cat.size  # every entry the walk yielded for this event
            counts = bincount(cat, minlength=n_ids)
            matched = _np.nonzero(counts == needs[: counts.size])[0]
            results.append(set(matched.tolist()))
        self.ops += ops
        return results

    def _match_batch_py(self, notifications: list) -> list[set[int]]:
        per_event, freq = self._batch_keys(notifications)
        needs = self._needs
        n_ids = self._next_id
        memo: dict[tuple, list[int]] = {}

        def candidates(attr: _AttributeIndex, key: tuple) -> list[int]:
            fids = memo.get(key)
            if fids is None:
                fids = memo[key] = attr.fids(key[2])
            return fids

        # Keys shared by >= _PY_HEAVY_MIN notifications are folded into one
        # base counter array per distinct heavy-key signature.  The map
        # persists across calls: steady workloads (same attribute shapes
        # batch after batch) reuse base arrays instead of rebuilding them,
        # until a subscription change clears the cache.
        bases = self._py_bases

        def base_for(sig: frozenset, attrs: dict) -> tuple[list[int], frozenset]:
            entry = bases.get(sig)
            if entry is None:
                self.batch_cache_misses += 1
                if len(bases) >= _PY_BASE_CACHE_MAX:
                    bases.clear()
                counts = [0] * n_ids
                for key in sig:
                    for fid in candidates(attrs[key], key):
                        counts[fid] += 1
                matched = frozenset(
                    fid
                    for key in sig
                    for fid in candidates(attrs[key], key)
                    if counts[fid] == needs[fid]
                )
                entry = bases[sig] = (counts, matched)
            else:
                self.batch_cache_hits += 1
            return entry

        results: list[set[int]] = []
        scratch = [0] * n_ids
        touched: list[int] = []
        ops = 0
        for keys in per_event:
            heavy = {}
            rare = []
            for attr, key in keys:
                ops += len(candidates(attr, key))
                if freq[key] >= _PY_HEAVY_MIN:
                    heavy[key] = attr
                else:
                    rare.append((attr, key))
            base_counts, base_matched = base_for(frozenset(heavy), heavy)
            del touched[:]
            for attr, key in rare:
                for fid in candidates(attr, key):
                    c = scratch[fid]
                    if not c:
                        touched.append(fid)
                    scratch[fid] = c + 1
            out = set(base_matched)
            for fid in touched:
                if base_counts[fid] + scratch[fid] == needs[fid]:
                    out.add(fid)
                scratch[fid] = 0
            results.append(out)
        self.ops += ops
        return results


# ----------------------------------------------------------------------
# Covering-poset candidate pruning: operator/family bitsets, numeric bounds
# ----------------------------------------------------------------------
# Each constraint op × value family gets one bit; EXISTS (valueless) gets
# its own.  For a stored constraint ``ca``, ``_cover_needs`` of its
# operator and value family is the set of probe-constraint bits ``ca``
# could possibly cover (derived from the constraint_covers truth table as
# a *necessary* condition) — a candidate whose probe lacks every such bit
# on some constrained name cannot cover, so the exact filter_covers check
# is skipped.  The numeric bounds (``_bounds``) are the second such test.
_FAMILY_SLOT = {"b": 0, "n": 1, "s": 2}
_OPS_ORDER = (
    Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE, Op.PREFIX, Op.SUFFIX, Op.CONTAINS
)
_OP_SLOT = {op: i for i, op in enumerate(_OPS_ORDER)}
_EXISTS_BIT = 1 << (len(_OPS_ORDER) * 3)
_ALL_BITS = (_EXISTS_BIT << 1) - 1


def _bit(op: Op, family: str) -> int:
    """The presence bit an ``op`` constraint over a ``family`` value sets."""
    if op is Op.EXISTS:
        return _EXISTS_BIT
    return 1 << (_OP_SLOT[op] * 3 + _FAMILY_SLOT[family])


def _cover_needs(op: Op, fam: str) -> int:
    """Bits of the constraints an ``op`` constraint over a ``fam`` value
    could cover (necessary condition).

    Mirrors :func:`~repro.events.covering.constraint_covers`: e.g. a
    numeric ``<`` covers only numeric ``<``/``<=``/``=`` constraints, a
    string range covers nothing, EXISTS covers anything.
    """
    if op is Op.EXISTS:
        return _ALL_BITS
    if op is Op.EQ:
        return _bit(Op.EQ, fam)
    if op is Op.NE:
        mask = _bit(Op.NE, fam) | _bit(Op.EQ, fam)
        if fam == "n":
            mask |= _bit(Op.LT, "n") | _bit(Op.GT, "n")
        return mask
    if op in (Op.LT, Op.LE):
        if fam != "n":
            return 0  # range constraints over strings/bools cover nothing
        return _bit(Op.LT, "n") | _bit(Op.LE, "n") | _bit(Op.EQ, "n")
    if op in (Op.GT, Op.GE):
        if fam != "n":
            return 0
        return _bit(Op.GT, "n") | _bit(Op.GE, "n") | _bit(Op.EQ, "n")
    if op is Op.PREFIX:
        return _bit(Op.PREFIX, "s") | _bit(Op.EQ, "s")
    if op is Op.SUFFIX:
        return _bit(Op.SUFFIX, "s") | _bit(Op.EQ, "s")
    # CONTAINS
    return (
        _bit(Op.CONTAINS, "s")
        | _bit(Op.PREFIX, "s")
        | _bit(Op.SUFFIX, "s")
        | _bit(Op.EQ, "s")
    )


def _keys(filter: Filter) -> dict[Hashable, None]:
    """Every bucket an entry is filed under: each attribute name, and per
    equality its key ``(name, family, value)``, in constraint order.

    A stored ``n = v`` covers only a constraint ``n = v``
    (:func:`~repro.events.covering.constraint_covers`), whose key is equal
    as a dict key too — ``2`` and ``2.0`` share one, ``True`` and ``1`` do
    not.  A NaN's key finds only the same NaN object, which it does not
    cover either.
    """
    keys: dict[Hashable, None] = {}
    for c in filter.constraints:
        if c.op is Op.EQ:
            keys[c.name, _family(c.value), c.value] = None
        keys[c.name] = None
    return keys


def _bounds(filter: Filter) -> tuple:
    """Per name with a numeric ``=`` or range constraint, ``(name, need_lo,
    need_hi, offer_lo, offer_hi)``: as a covering side the filter demands
    a probe at least as tight as its ``>``/``>=`` and ``<``/``<=`` values;
    as a probe it offers its ``>``/``>=``/``=`` and ``<``/``<=``/``=``
    values.  Bools bound nothing, an absent side is infinite, and a NaN
    never moves a side: ``max``/``min`` keep their first argument against
    it (every comparison with NaN is False)."""
    spans: dict[str, list] = {}
    for c in filter.constraints:
        op, v = c.op, c.value
        if (op is Op.EQ or op in _RANGE_OPS) and _family(v) == "n":
            span = spans.setdefault(c.name, [-inf, inf, -inf, inf])
            if op is not Op.LT and op is not Op.LE:  # EQ, GT, GE: a lower side
                span[2] = max(span[2], v)
                if op is not Op.EQ:
                    span[0] = max(span[0], v)
            if op is not Op.GT and op is not Op.GE:  # EQ, LT, LE: an upper side
                span[3] = min(span[3], v)
                if op is not Op.EQ:
                    span[1] = min(span[1], v)
    return tuple((name, *span) for name, span in spans.items())


def _bounds_admit(demands: tuple, offers: tuple) -> bool:
    """Could a filter with ``demands`` cover one with ``offers``?

    A necessary condition: the covering side's ``[x > v]`` is covered only
    by a numeric ``>``/``>=``/``=`` at or above ``v`` on ``x`` (and mirrored
    for ``<``), so the offer must reach every demand, and a name the
    covering side bounds must be one the probe bounds.  It admits every
    pair :func:`filter_covers` accepts; ``filter_covers`` decides the rest.
    """
    for name, need_lo, need_hi, _, _ in demands:
        for other, _, _, offer_lo, offer_hi in offers:
            if other == name:
                if not (offer_lo >= need_lo and offer_hi <= need_hi):
                    return False
                break
        else:
            return False
    return True


class _Summary:
    """What covering queries read of one filter, built on its first query
    and kept on it (``Filter._summary``): its bucket ``keys``, the
    ``(name, bits)`` ``needs`` a probe must meet to be covered by it and its
    own per-name ``masks`` — one pair shared per shape — and its numeric
    ``bounds``."""

    __slots__ = ("keys", "needs", "masks", "bounds")


_NO_ENTRIES: dict[int, Filter] = {}


@lru_cache(maxsize=1024)
def _shape_pair(shape: tuple) -> tuple:
    """``(needs, masks)`` for a filter of ``shape``, its ``(name, op,
    family)`` per constraint: the ``(name, bits)`` a probe must meet to be
    covered by it, and its own per-name presence masks.  Both depend on
    the shape alone, so filters of one shape share one read-only pair
    (48 000 band subscriptions are three shapes)."""
    masks: dict[str, int] = {}
    for name, op, fam in shape:
        masks[name] = masks.get(name, 0) | _bit(op, fam)
    return tuple((name, _cover_needs(op, fam)) for name, op, fam in shape), masks


def cover_summary(filter: Filter) -> _Summary:
    """``filter``'s covering summary, built on first use (a filter only
    ever stored, never queried with or against, builds none)."""
    s = filter._summary
    if s is None:
        s = filter._summary = _Summary()
        s.keys = tuple(_keys(filter))
        s.needs, s.masks = _shape_pair(tuple((c.name, c.op, _family(c.value)) for c in filter.constraints))
        s.bounds = _bounds(filter)
    return s


def _pin(filter: Filter) -> tuple:
    """The key ``(name, family, value)`` of ``filter``'s first ``=``: the one
    intersection bucket its entry is filed under.  An entry with no ``=``
    is filed under ``(None,)``, the one bucket of the name ``None``, which
    no normal form constrains, so every probe visits it."""
    for c in filter.constraints:
        if c.op is Op.EQ:
            return c.name, _family(c.value), c.value
    return (None,)


class CoveringPoset:
    """The covering partial order over a dynamic set of filters.

    ``a`` covers ``b`` only if ``b`` holds every *key* of ``a``: each
    attribute name, and each equality key ``(name, family, value)``.  So
    every entry is filed under each of its keys (``covered_by`` starts
    from the probe's smallest bucket), and once more under its *home*:
    whichever of its keys had the smallest bucket when it was added.  A
    ``covers_any`` / ``covering`` probe walks only the homes of its own
    keys, so ``[type = suggestion, user = bob]`` never meets the stored
    ``[.., user = alice]``.  Each candidate then meets two necessary
    tests read from the two filters' summaries (:func:`cover_summary`,
    built per filter on its first query): numeric bounds (a stored
    ``[x > 5]`` needs a probe bounding ``x`` at 5 or above), then per-name
    operator/family bitsets (a stored numeric range covers only numeric
    range/equality constraints, etc.).  The exact :func:`filter_covers`
    verification decides every candidate that passes both; answers are
    identical to the pairwise scan's.  Duplicate filters may be stored
    (e.g. the same subscription from two sources); each entry keeps its
    own id and optional payload.  Query results are in insertion (id)
    order.

    Intersection is pruned by *pins*: every entry is filed once more under
    its first ``=`` (:func:`_pin`), or in one pin-free bucket when it has
    none.  A satisfiable filter's normal form pins that name to exactly
    that value, and two pins meet only when they are equal within one
    family — which is dict equality of the keys — so a probe whose form
    pins a name visits only its own bucket of that name (an unsatisfiable
    entry intersects nothing wherever it is filed).
    """

    def __init__(self) -> None:
        self._ids = count()
        self._filters: dict[int, Filter] = {}
        self._payloads: dict[int, Any] = {}
        # Buckets are dicts of id -> filter: they iterate in id order, and
        # at most sizes take less memory than a set.
        self._members: defaultdict[Hashable, dict[int, Filter]] = defaultdict(dict)  # key -> every id holding it
        self._homes: defaultdict[Hashable, dict[int, Filter]] = defaultdict(dict)  # key -> ids homed there
        self._pinned: dict[str | None, dict[tuple, dict[int, Filter]]] = {}  # name -> pin -> ids filed there
        self.checks = 0  # exact filter_covers verifications; intersection runs none

    def __len__(self) -> int:
        return len(self._filters)

    def add(self, filter: Filter, payload: Any = None) -> int:
        pid = next(self._ids)
        self._filters[pid] = filter
        self._payloads[pid] = payload
        home, smallest = None, 0
        for key in _keys(filter):
            bucket = self._members[key]
            bucket[pid] = filter
            if home is None or len(bucket) < smallest:
                home, smallest = key, len(bucket)
        self._homes[home][pid] = filter
        pin = _pin(filter)
        self._pinned.setdefault(pin[0], {}).setdefault(pin, {})[pid] = filter
        return pid

    def remove(self, pid: int) -> Any:
        filter = self._filters.pop(pid)
        for key in _keys(filter):
            for index in (self._members, self._homes):
                bucket = index.get(key)
                if bucket is not None:
                    bucket.pop(pid, None)
                    if not bucket:
                        del index[key]
        pin = _pin(filter)
        buckets = self._pinned[pin[0]]
        del buckets[pin][pid]
        if not buckets[pin]:
            del buckets[pin]
            if not buckets:
                del self._pinned[pin[0]]
        return self._payloads.pop(pid)

    def payload(self, pid: int) -> Any:
        return self._payloads[pid]

    def filter_of(self, pid: int) -> Filter:
        return self._filters[pid]

    # -- candidate pruning ---------------------------------------------
    def _cover_candidates(self, filter: Filter) -> list[int]:
        """Stored ids that could cover ``filter``, unsorted: those homed
        under one of its keys whose bounds the probe's reach and whose
        every constraint sees a compatible probe bit (a name the probe
        lacks sees none).

        Callers that promise insertion order sort the result; covers_any
        only needs existence and skips the sort on the hot forward path.
        """
        probe = cover_summary(filter)
        probe_masks, offers = probe.masks, probe.bounds
        homes = self._homes
        out = []
        for key in probe.keys:
            for pid, stored in homes.get(key, _NO_ENTRIES).items():
                summary = stored._summary or cover_summary(stored)
                if _bounds_admit(summary.bounds, offers):
                    for name, needed in summary.needs:
                        if not probe_masks.get(name, 0) & needed:
                            break
                    else:
                        out.append(pid)
        return out

    # -- queries --------------------------------------------------------
    def covers_any(self, filter: Filter) -> bool:
        """Is ``filter`` covered by some stored filter?"""
        filters = self._filters
        for pid in self._cover_candidates(filter):
            self.checks += 1
            if filter_covers(filters[pid], filter):
                return True
        return False

    def covering(self, filter: Filter) -> list[int]:
        """Every stored filter that covers ``filter``, in insertion order."""
        filters = self._filters
        out = []
        for pid in sorted(self._cover_candidates(filter)):
            self.checks += 1
            if filter_covers(filters[pid], filter):
                out.append(pid)
        return out

    def covered_by(self, filter: Filter) -> list[int]:
        """Every stored filter that ``filter`` covers, in insertion order.

        This is the "what was this removed filter masking?" query: only
        filters the removed one covers can have been suppressed by it.
        Those hold every key of it, so the walk starts from its smallest
        bucket.
        """
        probe = cover_summary(filter)
        needs, demands = probe.needs, probe.bounds
        members = self._members
        start = min((members.get(key, _NO_ENTRIES) for key in probe.keys), key=len)
        out = []
        for pid, stored in start.items():
            summary = stored._summary or cover_summary(stored)
            if _bounds_admit(demands, summary.bounds):
                stored_masks = summary.masks
                for name, needed in needs:
                    if not stored_masks.get(name, 0) & needed:
                        break
                else:
                    self.checks += 1
                    if filter_covers(filter, stored):
                        out.append(pid)
        return out

    # -- intersection ---------------------------------------------------
    # Intersection cannot be pruned by attribute names the way covering
    # can: two satisfiable filters over disjoint names always intersect.
    # It is pruned by pins instead (see the class docstring), and each
    # candidate meets the probe through its normal form, built once per
    # filter; no filter_covers check runs.

    def _pin_buckets(self, filter: Filter) -> Iterator[dict[int, Filter]]:
        """The buckets that can hold an entry intersecting ``filter``: none
        when its normal form is ``False``, else per name the bucket of the
        form's own pin there, or every bucket of the name when the form
        pins none (the pin-free name ``None`` among them)."""
        form = _normal_form(filter)
        if form is False:
            return
        for name, buckets in self._pinned.items():
            pin = form.get(name)
            if pin is None or type(pin) is tuple:  # unconstrained, or a group
                yield from buckets.values()
            else:
                bucket = buckets.get((name, _family(pin), pin))
                if bucket is not None:
                    yield bucket

    def intersecting_any(self, filter: Filter) -> bool:
        """Does ``filter`` intersect some stored filter?

        Exactly ``any(filters_intersect(stored, filter))`` over the
        store — the advertisement-pruning question "does this subtree
        produce anything this subscription wants?".
        """
        return any(filters_intersect(f, filter) for bucket in self._pin_buckets(filter) for f in bucket.values())

    def intersecting(self, filter: Filter) -> list[int]:
        """Every stored filter intersecting ``filter``, in insertion order."""
        return sorted(
            pid for bucket in self._pin_buckets(filter) for pid, f in bucket.items() if filters_intersect(f, filter)
        )


class ScanStore:
    """The naive reference as a structure: ``indexed=False`` puts one where
    the index and each poset would be.  Every query — :meth:`holders` and
    the poset's five — scans the store in insertion order; :attr:`ops`
    counts filters scanned, one per stored filter per notification."""

    def __init__(self) -> None:
        self._entries: dict[int, tuple[Filter, Any]] = {}
        self._ids = count()
        self.ops = 0

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, filter: Filter, payload: Any = None) -> int:
        sid = next(self._ids)
        self._entries[sid] = (filter, payload)
        return sid

    def remove(self, sid: int) -> Any:
        return self._entries.pop(sid)[1]

    def payload(self, sid: int) -> Any:
        return self._entries[sid][1]

    def filter_of(self, sid: int) -> Filter:
        return self._entries[sid][0]

    def holders(self, notifications: Sequence[Notification]) -> list[set]:
        entries = self._entries.values()
        self.ops += len(entries) * len(notifications)
        return [{p for f, p in entries if f.matches(n)} for n in notifications]

    def covers_any(self, filter: Filter) -> bool:
        return any(filter_covers(f, filter) for f, _ in self._entries.values())

    def covering(self, filter: Filter) -> list[int]:
        return [sid for sid, (f, _) in self._entries.items() if filter_covers(f, filter)]

    def covered_by(self, filter: Filter) -> list[int]:
        return [sid for sid, (f, _) in self._entries.items() if filter_covers(filter, f)]

    def intersecting_any(self, filter: Filter) -> bool:
        return any(filters_intersect(f, filter) for f, _ in self._entries.values())

    def intersecting(self, filter: Filter) -> list[int]:
        return [sid for sid, (f, _) in self._entries.items() if filters_intersect(f, filter)]
