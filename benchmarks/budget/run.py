"""Run one workload of the budget benchmark and print its metrics.

    python3 benchmarks/budget/run.py --workload city_edge --seed 1 --seconds 10 --trace 0
    PYTHONPATH=src python -m benchmarks.budget.run --workload all --seed 1 --traced --out runs.jsonl

``--trace 0`` measures the end-to-end metrics with no wrapper anywhere.
``--trace 1`` (or ``--traced``) splits ``--seconds`` in two: the same
measured phase on the same inputs first bare, then under the span
wrappers of ``trace.py``, and prints the per-layer metrics; the ratio of
the two rates is the tracing overhead.  The last line of standard output
is one JSON object — ``correct``, ``attempted``, ``failed``, ``metrics``
— the lines before it say where the numbers came from.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
if __package__ in (None, ""):
    # Run as a script: the script's directory leads sys.path, where its
    # trace.py would shadow the standard library's.
    sys.path[0] = str(ROOT)
if str(ROOT / "src") not in sys.path:
    sys.path.insert(1, str(ROOT / "src"))

SETUPS = {"full": 3, "toy": 1}  # set-ups per untraced run; setup_s reports their median
TRACED_SHARE = 0.5  # of --seconds, for each of the bare and the traced phase


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _set_up(module, inputs, seed: int, sizes: dict, traced: bool = False):
    gc.unfreeze()
    workload = module.Workload(inputs, seed, sizes, traced=traced)
    try:
        workload.setup()
    except BaseException:
        workload.close()
        raise
    # As a long-running deployment would after start-up: the standing
    # population leaves the collector's sight, so a full collection no
    # longer rescans it at a random moment of the measured phase (in
    # city_edge that alone was a 23 % spread between identical chunks).
    gc.collect()
    gc.freeze()
    return workload


def run_untraced(module, seed: int, seconds: float, size: str, say) -> dict:
    from benchmarks.budget.common import median_rate

    sizes = module.SIZES[size]
    began = time.perf_counter()
    startup_s = began - _STARTED if __name__ == "__main__" else 0.0
    inputs = module.Inputs(seed, sizes)
    inputs_s = time.perf_counter() - began
    setups = []
    workload = None
    for _ in range(SETUPS[size]):
        if workload is not None:
            workload.close()
            workload = None
            gc.collect()
        began = time.perf_counter()
        workload = _set_up(module, inputs, seed, sizes)
        setups.append(time.perf_counter() - began)
    try:
        measured = workload.measure(seconds)
        verdict = workload.check()
    finally:
        workload.close()
    say(f"set-up: start {startup_s:.3f}s + inputs {inputs_s:.3f}s + scenario {[round(s, 3) for s in setups]}s")
    say(f"measured {measured.wall_s:.2f}s: {measured.events} events in {len(measured.slices)} chunks, "
        f"{sum(n for n, _ in measured.control)} control ops in {len(measured.control)} chunks, "
        f"{len(measured.latencies)} latency samples; box ran at {1 / measured.pace:.2f}x its nominal speed, "
        f"raw {measured.events / max(measured.publish_wall_s, 1e-9):.0f} events/s")
    metrics = {
        "setup_s": startup_s + inputs_s + statistics.median(setups),
        "events_per_s": median_rate(measured.slices),
        "control_ops_per_s": median_rate(measured.control),
        "latency_p50_ms": statistics.median(p50 for p50, _ in measured.latency_quantiles) * 1000.0,
        "latency_p90_ms": statistics.median(p90 for _, p90 in measured.latency_quantiles) * 1000.0,
        "cpu_us_per_event": measured.cpu_s / max(measured.events, 1) * 1e6,
        "peak_rss_mb": measured.peak_rss_mb,
    }
    return _result(metrics, verdict, measured, say)


def run_traced(module, seed: int, seconds: float, size: str, say) -> dict:
    from benchmarks.budget import trace
    from benchmarks.budget.layers import SELF_TIME, per_layer

    sizes = module.SIZES[size]
    inputs = module.Inputs(seed, sizes)
    workload = _set_up(module, inputs, seed, sizes)
    try:
        bare = workload.measure(seconds * TRACED_SHARE)
    finally:
        workload.close()
    # The wrappers go in before set-up: objects keep the bound methods
    # they are handed while they are built.  Each measure() starts by
    # forgetting the spans set-up left behind.
    tracer = trace.Tracer()
    trace.install(tracer)
    try:
        workload = _set_up(module, inputs, seed, sizes, traced=True)
        try:
            measured = workload.measure(seconds * TRACED_SHARE, tracer)
            verdict = workload.check()
            parts = [(tracer.fold(), tracer.tallies, trace.index_ops(tracer))]
            for snap in getattr(workload, "worker_traces", list)():
                folded = {label: trace.Folded(*values) for label, values in snap["folded"].items()}
                parts.append((folded, snap["tallies"], snap["index_ops"]))
            counters = workload.counters()
        finally:
            workload.close()
    finally:
        tracer.restore()
    metrics = per_layer(parts, counters, measured, bare, tracer.queue_waits)
    say(f"traced {measured.wall_s:.2f}s, {tracer.span_count} spans in this process; "
        f"bare {bare.wall_s:.2f}s on the same inputs")
    wall = metrics["trace.wall_s"]
    shares = sorted(((metrics[name] / wall, name) for name in SELF_TIME), reverse=True)
    say("largest shares of traced wall time: " + ", ".join(f"{name} {share:.1%}" for share, name in shares[:6]))
    return _result(metrics, verdict, measured, say)


def _result(metrics: dict, verdict, measured, say) -> dict:
    if measured.pool_exhausted:
        say("the pre-generated event pool ran out before the time did: enlarge it in SIZES")
    for note in verdict.notes:
        say(f"oracle: {note}")
    if measured.late:
        say(f"oracle: {measured.late} open-loop deliveries later than their deadline")
    say(f"oracle: {verdict.sampled_events} sampled events, digest {verdict.digest}")
    failed = verdict.failed + measured.late
    return {
        "correct": failed == 0 and verdict.attempted > 0,
        "attempted": max(verdict.attempted, 1),
        "failed": failed,
        "metrics": metrics,
        "digest": verdict.digest,
    }


def run(workload: str, seed: int, seconds: float, traced: bool, size: str = "full", say=print) -> dict:
    """One run of one workload; the record ``main`` prints and ``--out`` keeps."""
    from benchmarks.budget.common import fingerprint

    spec = load_spec()
    module = importlib.import_module(f"benchmarks.budget.{workload}")
    stamp = fingerprint(workload, seed, module.SIZES[size], traced)
    say(json.dumps({"fingerprint": stamp}))
    try:
        result = (run_traced if traced else run_untraced)(module, seed, seconds, size, say)
    finally:
        gc.unfreeze()  # _set_up froze the heap
    result["fingerprint"] = stamp
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    if set(result["metrics"]) != set(declared):
        odd = sorted(set(result["metrics"]) ^ set(declared))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {odd}")
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit} for name, unit in declared.items()
    }
    return result


def main(argv: list[str] | None = None) -> int:
    try:
        import repro  # noqa: F401
    except ImportError:
        print("benchmarks/budget measures src/repro, which is not in this directory", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--out", help="append each run's full record to this JSON-lines file")
    args = parser.parse_args(argv)
    traced = bool(args.trace or args.traced)
    # Ctrl-C already unwinds through every finally; make SIGTERM do the same.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for workload in names if args.workload == "all" else [args.workload]:
        result = run(workload, args.seed, args.seconds, traced, args.size)
        if args.out:
            with open(args.out, "a") as handle:
                handle.write(json.dumps(result) + "\n")
        for name, metric in result["metrics"].items():
            print(f"{workload:>13} {name:32} {metric['value']:>16.4f} {metric['unit']}")
        print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
