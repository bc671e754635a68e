"""Tier-1 smoke test of the budget benchmark: every workload at toy size.

Guards the contract between ``BENCHMARK.json`` and what ``run.py``
emits, the oracle, the tracer's clean-up and ``compare``'s verdicts —
not the numbers, which a toy run cannot speak for.
"""

from __future__ import annotations

import functools
import json

import pytest

from benchmarks.budget import compare, run, trace

SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = 0.25


@functools.cache
def result(workload: str, traced: bool) -> dict:
    return run.run(workload, seed=3, seconds=SECONDS, traced=traced, size="toy", say=lambda *_: None)


def wrapped_callables() -> list[tuple]:
    tracer = trace.Tracer()
    trace.install(tracer)
    try:
        return list(tracer._patched)
    finally:
        tracer.restore()


def test_spec_names_the_four_workloads():
    assert WORKLOADS == ["city_edge", "mesh_churn", "fleet_socket", "correlate"]
    assert SPEC["command"][-1] == "benchmarks/budget/run.py"
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_the_end_to_end_metrics(workload):
    got = result(workload, False)
    assert {n: m["unit"] for n, m in got["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert got["correct"] and got["failed"] == 0 and got["attempted"] > 0
    # The contract wants metrics that are never 0.
    assert all(m["value"] > 0 for m in got["metrics"].values()), got["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_the_per_layer_metrics_and_cleans_up(workload):
    before = wrapped_callables()
    got = result(workload, True)
    assert {n: m["unit"] for n, m in got["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert got["correct"] and got["failed"] == 0
    assert got["metrics"]["trace.harness_share"]["value"] <= 0.10
    assert before, "install() wrapped nothing"
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} still wrapped"
    # Same seed, same sampled deliveries, traced or not.
    assert got["digest"] == result(workload, False)["digest"]


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert compare.verdict(steady, [v * 1.02 for v in steady], "lower", 0.10)[0] == "ok"
    assert compare.verdict(steady, [v * 1.20 for v in steady], "lower", 0.10)[0] == "regressed"
    assert compare.verdict(steady, [v * 0.80 for v in steady], "higher", 0.10)[0] == "regressed"
    noisy = [80.0, 100.0, 120.0, 140.0]
    assert compare.verdict(noisy, [90.0, 100.0, 115.0, 150.0], "lower", 0.10)[0] == "unresolved"
    assert compare.verdict(noisy, [40.0, 50.0, 60.0, 70.0], "lower", 0.10)[0] == "ok"


def test_compare_reads_run_records(tmp_path):
    path = tmp_path / "runs.jsonl"
    path.write_text("".join(json.dumps(result(w, False)) + "\n" for w in WORKLOADS))
    lines: list[str] = []
    assert compare.compare(compare.load(str(path)), compare.load(str(path)), SPEC, say=lines.append)
    assert len(lines) == 1 + len(WORKLOADS) * len(SPEC["end_to_end"])
