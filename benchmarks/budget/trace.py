"""Timing wrappers around the program's layer boundaries, from outside.

The benchmark measures ``src/`` without editing it: for a traced run the
:class:`Tracer` swaps the public callables at each layer boundary for
wrappers that record a span — name, start, end and the span that was
open when it started — and puts the originals back afterwards.  Spans
stay in memory (four flat arrays, ~24 bytes a span) and are folded into
per-label totals once, when the measured phase is over.  A label's
*self* time is its spans' duration minus the part their child spans
cover, so the labels partition the traced wall time: whatever no label
claims is the root span's own time.

Counts are taken at the same boundaries (events swept by the index,
bytes through the codec, ...) so ratios are measured where the work
happens; objects that expose their own counters (``PredicateIndex.ops``)
are remembered so those can be read afterwards.
"""

from __future__ import annotations

from array import array
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator


@dataclass
class Folded:
    """All spans of one label."""

    count: int = 0
    self_s: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self._label = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._current = -1
        self._patched: list[tuple[Any, str, Any]] = []
        # Counts taken by the observers below, and each index met with
        # its own ``ops`` counter as it stood after the first traced call.
        self.tallies: Counter = Counter()
        self.index_baseline: dict = {}
        # Hub-local queue wait (fleet only): send times of frames bound
        # for the addresses in ``local_addrs``, popped by the harness's
        # handler wrappers in the same FIFO order the pump delivers in.
        self.local_addrs: set = set()
        self.pending_sends: deque = deque()
        self.queue_waits: list[float] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def label_id(self, label: str) -> int:
        lid = self._label_ids.get(label)
        if lid is None:
            lid = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return lid

    def _open(self, lid: int) -> int:
        index = len(self._label)
        self._label.append(lid)
        self._parent.append(self._current)
        self._start.append(perf_counter())
        self._end.append(0.0)
        self._current = index
        return index

    def _close(self, index: int) -> None:
        self._end[index] = perf_counter()
        self._current = self._parent[index]

    @contextmanager
    def span(self, label: str) -> Iterator[None]:
        """A span around harness code (the root span, handlers, load generator)."""
        index = self._open(self.label_id(label))
        try:
            yield
        finally:
            self._close(index)

    @property
    def span_count(self) -> int:
        return len(self._label)

    def clear(self) -> None:
        """Forget every span and count.  Only valid while no span is open."""
        if self._current != -1:
            raise RuntimeError("clear() inside an open span")
        for column in (self._label, self._parent, self._start, self._end):
            del column[:]
        self.tallies.clear()
        self.index_baseline.clear()
        self.pending_sends.clear()
        self.queue_waits.clear()

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def bind(
        self,
        fn: Callable,
        label: str | Callable[[tuple], str],
        observe: Callable[["Tracer", tuple, Any], None] | None = None,
        generator: bool = False,
    ) -> Callable:
        """``fn`` wrapped to record one span per call.

        ``label`` may be a function of the call's positional arguments
        (one callable serving two layers, told apart by its payload).
        ``generator=True`` spans each ``next()`` of the generator ``fn``
        returns, which is where a generator does its work.
        """
        open_, close = self._open, self._close
        if callable(label):
            ids: dict[str, int] = {}

            def lid_of(args: tuple) -> int:
                name = label(args)
                lid = ids.get(name)
                if lid is None:
                    lid = ids[name] = self.label_id(name)
                return lid
        else:
            fixed = self.label_id(label)
            lid_of = None

        if generator:
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    index = open_(fixed)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close(index)
                    if observe is not None:
                        observe(self, args, item)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                index = open_(fixed if lid_of is None else lid_of(args))
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(index)
                if observe is not None:
                    observe(self, args, result)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, owner: Any, attr: str, label, observe=None, generator: bool = False) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by its
        :meth:`bind` wrapper until :meth:`restore`."""
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.bind(original, label, observe, generator))

    def restore(self) -> None:
        """Put every wrapped callable back exactly as it was."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Folding
    # ------------------------------------------------------------------
    def fold(self) -> dict[str, Folded]:
        out = [Folded() for _ in self.labels]
        label, parent, start, end = self._label, self._parent, self._start, self._end
        for index in range(len(label)):
            duration = end[index] - start[index]
            mine = out[label[index]]
            mine.count += 1
            mine.self_s += duration
            up = parent[index]
            if up >= 0:
                out[label[up]].self_s -= duration
        return dict(zip(self.labels, out))


# ----------------------------------------------------------------------
# Observers: counts at the boundaries
# ----------------------------------------------------------------------
def _count_index(tracer: Tracer, index: Any, events: int, matches: int) -> None:
    tracer.tallies["index.events"] += events
    tracer.tallies["index.matches"] += matches
    if index in tracer.index_baseline:
        tracer.tallies["index.ops_events"] += events
    else:
        tracer.index_baseline[index] = index.ops


def _index_match(tracer: Tracer, args: tuple, result: Any) -> None:
    _count_index(tracer, args[0], 1, len(result))


def _index_match_batch(tracer: Tracer, args: tuple, result: Any) -> None:
    _count_index(tracer, args[0], len(result), sum(map(len, result)))


def index_ops(tracer: Tracer) -> int:
    """Candidate inspections (``PredicateIndex.ops``) behind the events
    counted in ``tallies["index.ops_events"]``."""
    return sum(index.ops - baseline for index, baseline in tracer.index_baseline.items())


def _encoded(tracer: Tracer, args: tuple, result: bytes) -> None:
    tracer.tallies["codec.frames_encoded"] += 1
    tracer.tallies["codec.bytes"] += len(result)


def _decoded(tracer: Tracer, args: tuple, frame: Any) -> None:
    tracer.tallies["codec.frames_decoded"] += 1


def _hub_send(tracer: Tracer, args: tuple, result: Any) -> None:
    if args[2] in tracer.local_addrs:
        tracer.pending_sends.append(perf_counter())


def install(tracer: Tracer) -> None:
    """Wrap the public callables at every layer boundary of ``src/``.

    Labels are the per-layer metric stems: ``index.match`` feeds
    ``index.match_s`` and so on (``BENCHMARK.json`` lists them).
    """
    import repro.net.serialization as serialization
    import repro.net.transport as transport
    from repro.events.broker import BrokerNode, Publish, PublishBatch, SienaClient
    from repro.events.failure import OriginFloorCache
    from repro.events.index import CoveringPoset, PredicateIndex
    from repro.events.sharding import Deliver, FleetClient, ShardEndpoint, ShardRouter
    from repro.gis.index import GridIndex
    from repro.knowledge.base import KnowledgeBase
    from repro.matching.engine import MatchingEngine
    from repro.matching.window import TimeWindowBuffer
    from repro.net.network import Network
    from repro.sensors.mobility_models import RandomWaypoint
    from repro.simulation.kernel import Simulator

    publishes = (Publish, PublishBatch)

    def broker_label(args: tuple) -> str:
        return "broker.publish" if isinstance(args[2], publishes) else "broker.control"

    def shard_handle(tracer: Tracer, args: tuple, result: Any) -> None:
        if isinstance(args[2], Deliver):
            tracer.tallies["sharding.deliver_groups"] += len(args[2].items)

    for client in (SienaClient, FleetClient):
        for attr in ("publish", "publish_batch", "subscribe", "unsubscribe", "advertise", "unadvertise"):
            if attr in client.__dict__:
                tracer.wrap(client, attr, "client.publish")
    tracer.wrap(SienaClient, "handle_message", "client.deliver")
    tracer.wrap(FleetClient, "handle", "client.deliver")
    tracer.wrap(Network, "send", "network.send")
    tracer.wrap(Simulator, "step", "kernel")
    tracer.wrap(BrokerNode, "handle_message", broker_label)
    tracer.wrap(OriginFloorCache, "seen", "dedup.seen")
    tracer.wrap(PredicateIndex, "match", "index.match", observe=_index_match)
    tracer.wrap(PredicateIndex, "match_batch", "index.match", observe=_index_match_batch)
    tracer.wrap(PredicateIndex, "add", "index.write")
    tracer.wrap(PredicateIndex, "remove", "index.write")
    for attr in ("add", "remove"):
        tracer.wrap(CoveringPoset, attr, "covering.write")
    for attr in ("covers_any", "covering", "covered_by", "intersecting_any", "intersecting"):
        tracer.wrap(CoveringPoset, attr, "covering.query")
    tracer.wrap(MatchingEngine, "ingest", "engine.ingest")
    for attr in ("add", "evict", "recent", "recent_distinct", "subjects",
                 "recent_for_subject", "heads_for_subjects"):
        tracer.wrap(TimeWindowBuffer, attr, "window")
    for attr in ("query", "query_object_str", "holds", "value"):
        tracer.wrap(KnowledgeBase, attr, "kb.query")
    tracer.wrap(GridIndex, "within", "gis.within")
    tracer.wrap(RandomWaypoint, "step", "sensors.mobility")
    # transport.py imported encode_frame by name, so the name is patched
    # in both modules.
    tracer.wrap(serialization, "encode_frame", "codec.encode", observe=_encoded)
    tracer.wrap(transport, "encode_frame", "codec.encode", observe=_encoded)
    tracer.wrap(serialization.FrameDecoder, "feed", "codec.decode", observe=_decoded, generator=True)
    tracer.wrap(transport.AsyncioTransport, "send", "transport.send", observe=_hub_send)
    tracer.wrap(ShardRouter, "handle", "sharding.router")
    tracer.wrap(ShardEndpoint, "handle", "sharding.shard", observe=shard_handle)
