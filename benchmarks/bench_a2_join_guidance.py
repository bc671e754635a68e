"""A2 — ablation: knowledge-guided join enumeration on vs off.

The matching engine prunes join candidates using fact patterns that link
event subjects through the knowledge base ("bob knows anna").  Without the
guidance, the engine enumerates per-entity pools under a combination
budget and the needle drowns once the flood outgrows the budget.

With guidance on, the second ablation axis is *how* the guided level reads
the window: ``indexed_windows=True`` does keyed per-subject lookups,
``False`` materializes every per-entity head and filters — identical
correlations (the join-equivalence suite proves it), very different work,
reported here as window entries scanned.
"""

from __future__ import annotations

import time as wallclock

import pytest

from repro.events.model import make_event
from repro.knowledge import Fact, KnowledgeBase
from repro.matching import MatchingEngine
from repro.sensors import make_st_andrews
from repro.services import IceCreamMeetupService
from repro.simulation import Simulator
from benchmarks._harness import emit, emit_json, fmt

AFTERNOON = 15.0 * 3600.0


def run_flood(guided: bool, strangers: int, indexed_windows: bool = True) -> dict:
    sim = Simulator(seed=132)
    sim.schedule(AFTERNOON, lambda: None)
    sim.run()
    kb = KnowledgeBase()
    kb.add(Fact("bob", "likes", "ice-cream"))
    kb.add(Fact("bob", "knows", "anna"))
    kb.add(Fact("bob", "nationality", "scottish"))
    kb.add(Fact("bob", "on-holiday", True))
    service = IceCreamMeetupService(make_st_andrews())
    engine = MatchingEngine(
        sim,
        kb,
        service.build_rules({}),
        kb_guided_joins=guided,
        indexed_windows=indexed_windows,
    )
    rng = sim.rng_for("flood")
    out = []
    started = wallclock.perf_counter()
    out.extend(
        engine.ingest(
            make_event("weather", time=sim.now, area="st-andrews",
                       lat=56.34, lon=-2.79, temperature_c=20.5)
        )
    )
    out.extend(
        engine.ingest(
            make_event("user-location", time=sim.now, subject="bob",
                       lat=56.3412, lon=-2.7952, mode="foot")
        )
    )
    # The flood of strangers arrives between bob's fix and anna's.
    for index in range(strangers):
        out.extend(
            engine.ingest(
                make_event("user-location", time=sim.now,
                           subject=f"stranger{index}",
                           lat=rng.uniform(56.33, 56.35),
                           lon=rng.uniform(-2.82, -2.77), mode="foot")
            )
        )
        sim.run_for(0.05)
    out.extend(
        engine.ingest(
            make_event("user-location", time=sim.now, subject="anna",
                       lat=56.3397, lon=-2.80753, mode="foot")
        )
    )
    elapsed = wallclock.perf_counter() - started
    relevant = [e for e in out if {e["user"], e["friend"]} == {"bob", "anna"}]
    return {
        "guided": guided,
        "indexed_windows": indexed_windows,
        "strangers": strangers,
        "found": len(relevant) >= 2,
        "candidate_joins": engine.stats.candidate_joins,
        "window_scanned": engine.stats.window_scanned,
        "kb_link_queries": engine.stats.kb_link_queries,
        "kb_link_memo_hits": engine.stats.kb_link_memo_hits,
        "events_per_wall_s": (strangers + 3) / elapsed,
    }


@pytest.mark.benchmark(group="a2")
def test_a2_kb_guided_join_ablation(benchmark):
    floods = [50, 500]

    def sweep():
        rows = []
        for strangers in floods:
            rows.append(run_flood(False, strangers))
            rows.append(run_flood(True, strangers, indexed_windows=False))
            rows.append(run_flood(True, strangers, indexed_windows=True))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "a2_join_guidance",
        "A2: KB-guided join enumeration vs budgeted cross product",
        ["guided", "windows", "strangers", "correlation found",
         "candidate joins", "window scanned", "kb queries (memo hits)",
         "ingest ev/s"],
        [
            [
                "yes" if r["guided"] else "no",
                "indexed" if r["indexed_windows"] else "naive",
                r["strangers"],
                "yes" if r["found"] else "NO",
                r["candidate_joins"],
                r["window_scanned"],
                f"{r['kb_link_queries']} ({r['kb_link_memo_hits']})",
                fmt(r["events_per_wall_s"], 0),
            ]
            for r in rows
        ],
    )
    emit_json("a2_join_guidance", {"rows": rows})
    by_key = {
        (r["guided"], r["indexed_windows"], r["strangers"]): r for r in rows
    }
    for strangers in floods:
        unguided = by_key[(False, True, strangers)]
        naive = by_key[(True, False, strangers)]
        indexed = by_key[(True, True, strangers)]
        # Guided joins always find the pair and do no more work.  Work is
        # window entries scanned: checks run as soon as their reads are
        # bound, so the unguided engine prunes strangers before the leaf
        # and its candidate (leaf) joins no longer measure its enumeration.
        assert naive["found"] and indexed["found"]
        assert naive["window_scanned"] <= unguided["window_scanned"]
        # The window mode changes the work done, not the joins explored.
        assert indexed["candidate_joins"] == naive["candidate_joins"]
        assert indexed["found"] == naive["found"]
        # Keyed lookups touch a fraction of the entries the scan touches.
        assert indexed["window_scanned"] < naive["window_scanned"]
    # The unguided engine loses the needle once the flood exceeds budget.
    assert not by_key[(False, True, floods[-1])]["found"]
