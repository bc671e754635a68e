#!/usr/bin/env python
"""Docs drift check: the architecture/benchmark docs must track the code.

Three invariants, each cheap to check from file contents alone:

1. Every routing mode accepted by ``BrokerNode`` (the ``ROUTING_MODES``
   tuple, whichever module under ``src/repro/events/`` holds it) and
   every matching mode named in the equivalence suites' ``MODES`` table
   is mentioned in ``docs/ARCHITECTURE.md``.
2. Every ``benchmarks/bench_*.py``, every committed
   ``benchmarks/BENCH_*.json`` baseline, and every workload and
   end-to-end metric named in ``BENCHMARK.json`` is mentioned in
   ``docs/BENCHMARKS.md``.
3. ``README.md`` links both documents.

Run from the repo root: ``python tools/check_docs.py``.  Exits 1 and
lists every missing mention, so adding a benchmark or a routing mode
without documenting it fails CI.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def routing_modes() -> list[str]:
    """The modes BrokerNode validates against, straight from the source."""
    for path in sorted((ROOT / "src/repro/events").glob("*.py")):
        match = re.search(r"^ROUTING_MODES = \(([^)]*)\)", path.read_text(), re.M)
        if match:
            return re.findall(r'"(\w+)"', match.group(1))
    sys.exit("check_docs: no ROUTING_MODES tuple under src/repro/events/")


def equivalence_modes() -> list[str]:
    """The mode names the equivalence suites run (their MODES tables)."""
    names: list[str] = []
    for suite in (
        "tests/test_broker_topology_equivalence.py",
        "tests/test_broker_mesh_equivalence.py",
    ):
        source = (ROOT / suite).read_text()
        match = re.search(r"^MODES = \{(.*?)^\}", source, re.S | re.M)
        if not match:
            sys.exit(f"check_docs: cannot find the MODES table in {suite}")
        for name in re.findall(r'^\s*"(\w+)": dict\(', match.group(1), re.M):
            if name not in names:
                names.append(name)
    return names


def main() -> int:
    architecture = (ROOT / "docs/ARCHITECTURE.md").read_text()
    benchmarks_doc = (ROOT / "docs/BENCHMARKS.md").read_text()
    readme = (ROOT / "README.md").read_text()
    problems: list[str] = []

    for mode in routing_modes() + equivalence_modes():
        if f"`{mode}`" not in architecture:
            problems.append(
                f"docs/ARCHITECTURE.md does not mention mode `{mode}` "
                "(routing or matching mode exists in code but not in the docs)"
            )

    for pattern in ("bench_*.py", "BENCH_*.json"):
        for path in sorted((ROOT / "benchmarks").glob(pattern)):
            if path.name not in benchmarks_doc:
                problems.append(
                    f"docs/BENCHMARKS.md does not mention {path.name}"
                )

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    for kind, key in (("workload", "workloads"), ("end-to-end metric", "end_to_end")):
        for entry in contract[key]:
            if f"`{entry['name']}`" not in benchmarks_doc:
                problems.append(
                    f"docs/BENCHMARKS.md does not mention {kind} `{entry['name']}` "
                    "of BENCHMARK.json"
                )

    for target in ("docs/ARCHITECTURE.md", "docs/BENCHMARKS.md"):
        if target not in readme:
            problems.append(f"README.md does not link {target}")

    if problems:
        for problem in problems:
            print(f"[docs] DRIFT {problem}")
        print(f"[docs] {len(problems)} problem(s) — update the docs alongside the code")
        return 1
    print("[docs] ok — architecture and benchmark docs track the code")
    return 0


if __name__ == "__main__":
    sys.exit(main())
