"""Compare two sets of runs of the budget benchmark.

    python -m benchmarks.budget.compare parent.jsonl change.jsonl

Each file holds the records ``run.py --out`` appended, several runs a
workload.  For every end-to-end metric × workload this prints both
sides' median and quartiles and one verdict, by the bounds and
directions in ``BENCHMARK.json``:

* ``ok`` — the change's median is no worse than the parent's by more
  than the bound;
* ``regressed`` — it is;
* ``unresolved`` — the run-to-run spread (quartile distance over median,
  on either side) is wider than the bound, so the runs cannot tell;
  unless every run of the change reads better than every run of the
  parent, which is ``ok`` whatever the spread.

Runs that failed a delivery, and runs of one workload, seed and size
whose delivery digests differ between the two files, are reported too.
The exit code is 0 only when every row is ``ok``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(path: str) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, float, float]:
    """``(verdict, worsening, spread)``; worsening is a share of the parent's median."""
    sign = 1.0 if better == "lower" else -1.0
    p_low, p_mid, p_high = quartiles(parent)
    c_low, c_mid, c_high = quartiles(change)
    worse = sign * (c_mid - p_mid) / p_mid if p_mid else 0.0
    spread = max((p_high - p_low) / p_mid if p_mid else 0.0, (c_high - c_low) / c_mid if c_mid else 0.0)
    if spread > bound:
        clear_win = max(sign * v for v in change) < min(sign * v for v in parent)
        return ("ok" if clear_win else "unresolved"), worse, spread
    return ("regressed" if worse > bound else "ok"), worse, spread


def compare(parent: list[dict], change: list[dict], spec: dict, say=print) -> bool:
    def by_workload(records: list[dict]) -> dict[str, list[dict]]:
        out: dict[str, list[dict]] = {}
        for record in records:
            if not record["fingerprint"]["traced"]:
                out.setdefault(record["fingerprint"]["workload"], []).append(record)
        return out

    sides = by_workload(parent), by_workload(change)
    clean = True
    say(f"{'workload':13} {'metric':20} {'parent q1/median/q3':>36} {'change q1/median/q3':>36} {'worse by':>9} {'spread':>7}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [side.get(workload, []) for side in sides]
        if not all(runs):
            say(f"{workload:13} missing from {'parent' if not runs[0] else 'change'}")
            clean = False
            continue
        for metric in spec["end_to_end"]:
            values = [[r["metrics"][metric["name"]]["value"] for r in side] for side in runs]
            word, worse, spread = verdict(values[0], values[1], metric["better"], metric["bound"])
            clean = clean and word == "ok"
            cells = ["/".join(f"{q:.4g}" for q in quartiles(v)) + f" (n={len(v)})" for v in values]
            say(f"{workload:13} {metric['name']:20} {cells[0]:>36} {cells[1]:>36} {worse:>+9.1%} {spread:>7.1%}  {word}")
        failed = sum(r["failed"] for side in runs for r in side)
        if failed:
            say(f"{workload:13} {failed} failed deliveries")
            clean = False
        digests: dict[tuple, set] = {}
        for side in runs:
            for r in side:
                key = (r["fingerprint"]["seed"], json.dumps(r["fingerprint"]["sizes"], sort_keys=True))
                digests.setdefault(key, set()).add(r["digest"])
        split = [key[0] for key, seen in digests.items() if len(seen) > 1]
        if split:
            say(f"{workload:13} delivery digests differ between runs of seed(s) {sorted(split)}")
            clean = False
    return clean


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(SPEC) as handle:
        spec = json.load(handle)
    return 0 if compare(load(argv[0]), load(argv[1]), spec) else 1


if __name__ == "__main__":
    sys.exit(main())
