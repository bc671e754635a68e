"""From spans and counters to the per-layer metrics of ``BENCHMARK.json``.

A layer is a module of ``src/repro``.  Every ``*_s`` metric is the self
time of one span label (``trace.install`` says which callables carry
it), summed over every process of the run, so the labels partition the
traced wall time and a layer's share is its ``*_s`` over
``trace.wall_s``.  Counts come from the counters the program's objects
already expose, or from the tallies taken at the span boundaries.
"""

from __future__ import annotations

import statistics
from collections import Counter

from benchmarks.budget.common import Measured, median_rate
from benchmarks.budget.trace import Folded

# per-layer metric -> the span label whose self time it reports
SELF_TIME = {
    "sensors.mobility_self_s": "sensors.mobility",
    "kernel.self_s": "kernel",
    "network.send_self_s": "network.send",
    "client.publish_self_s": "client.publish",
    "client.deliver_self_s": "client.deliver",
    "broker.publish_self_s": "broker.publish",
    "broker.control_self_s": "broker.control",
    "dedup.seen_s": "dedup.seen",
    "index.match_s": "index.match",
    "index.write_s": "index.write",
    "covering.query_s": "covering.query",
    "covering.write_s": "covering.write",
    "sharding.router_self_s": "sharding.router",
    "sharding.shard_self_s": "sharding.shard",
    "codec.encode_s": "codec.encode",
    "codec.decode_s": "codec.decode",
    "transport.send_self_s": "transport.send",
    "transport.loop_s": "asyncio.loop",  # event-loop machinery and idle wait
    "engine.ingest_self_s": "engine.ingest",
    "window.self_s": "window",
    "kb.query_s": "kb.query",
    "gis.within_s": "gis.within",
}

# exposed counters passed through under their own name
COUNTERS = (
    "sensors.events", "kernel.steps", "network.messages", "network.bytes",
    "broker.notifications_processed", "broker.notifications_delivered",
    "broker.control_messages", "broker.control_state",
    "sharding.messages_routed", "sharding.skew", "transport.frames_relayed",
    "fleet.hub_cpu_s", "fleet.worker_cpu_s", "fleet.latency_p99_ms",
    "loadgen.late_share", "loadgen.max_late_ms",
    "engine.events_in", "engine.candidate_joins", "engine.matches",
    "engine.synthesized", "engine.window_scanned", "sim.age_p50_ms",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    parts: list[tuple[dict[str, Folded], Counter, int]],
    counters: dict[str, float],
    traced: Measured,
    untraced: Measured,
    queue_waits: list[float],
) -> dict[str, float]:
    """Every per-layer metric of one traced run.

    ``parts`` holds ``(folded spans, tallies, index ops)`` per process,
    this process first; ``untraced`` is the same measured phase on the
    same inputs without the wrappers.
    """
    spans: dict[str, Folded] = {}
    tallies: Counter = Counter()
    index_ops = 0
    for folded, tally, ops in parts:
        for label, one in folded.items():
            mine = spans.setdefault(label, Folded())
            mine.count += one.count
            mine.self_s += one.self_s
        tallies.update(tally)
        index_ops += ops

    def count(label: str) -> int:
        return spans[label].count if label in spans else 0

    out = {name: spans[label].self_s if label in spans else 0.0 for name, label in SELF_TIME.items()}
    out.update({name: float(counters.get(name, 0.0)) for name in COUNTERS})
    harness_s = sum(one.self_s for label, one in spans.items() if label.startswith("harness."))
    hub_decoded = parts[0][1]["codec.frames_decoded"]
    matches, joins = counters.get("engine.matches", 0.0), counters.get("engine.candidate_joins", 0.0)
    memo_hits = counters.get("engine.kb_link_memo_hits", 0.0)
    out.update({
        "dedup.calls": count("dedup.seen"),
        "dedup.duplicate_share": _ratio(counters.get("dedup.duplicates", 0.0), count("dedup.seen")),
        "index.events": tallies["index.events"],
        "index.ops_per_event": _ratio(index_ops, tallies["index.ops_events"]),
        "index.matches_per_event": _ratio(tallies["index.matches"], tallies["index.events"]),
        "index.writes": count("index.write"),
        "covering.queries": count("covering.query"),
        "sharding.deliver_groups": tallies["sharding.deliver_groups"],
        "codec.frames": tallies["codec.frames_encoded"],
        "codec.bytes_per_event": _ratio(tallies["codec.bytes"], traced.published or traced.events),
        "transport.queue_wait_ms_p50": statistics.median(queue_waits) * 1000.0 if queue_waits else 0.0,
        "transport.relayed_share": _ratio(counters.get("transport.frames_relayed", 0.0), hub_decoded),
        "engine.join_waste": 1.0 - matches / joins if joins else 0.0,
        "kb.queries": count("kb.query"),
        "kb.memo_hit_share": _ratio(memo_hits, memo_hits + counters.get("engine.kb_link_queries", 0.0)),
        "gis.within_calls": count("gis.within"),
        "trace.wall_s": traced.wall_s,
        "trace.harness_share": _ratio(harness_s, traced.wall_s),
        "trace.overhead_share": _ratio(median_rate(untraced.slices), median_rate(traced.slices)) - 1.0,
    })
    return out
