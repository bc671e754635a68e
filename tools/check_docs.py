#!/usr/bin/env python
"""Docs drift check: the architecture/benchmark docs must track the code.

Three invariants, each cheap to check from file contents alone:

1. Every routing mode accepted by ``BrokerNode`` (the ``ROUTING_MODES``
   tuple, whichever module under ``src/repro/events/`` holds it) and
   every matching mode named in the equivalence suites' ``MODES`` table
   is mentioned in ``docs/ARCHITECTURE.md``.
2. Every ``benchmarks/bench_*.py`` and every workload and end-to-end
   metric named in ``BENCHMARK.json`` is mentioned in
   ``docs/BENCHMARKS.md``.
3. ``README.md`` links both documents.

Run from the repo root: ``python tools/check_docs.py``.  Exits 1 and
lists every missing mention, so adding a benchmark or a routing mode
without documenting it fails CI.

``python tools/check_docs.py --options`` prints, instead, the report
ROADMAP item 3 works from: every defaulted parameter in ``src/repro/``
that no call site sets (see :func:`unset_options`).  It is informational
and always exits 0.
"""

from __future__ import annotations

import ast
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


def unset_options() -> list[str]:
    """Defaulted parameters of the public surface that nobody sets.

    Owners are the public module-level functions and classes of
    ``src/repro/`` (a class's parameters are its ``__init__``'s, or its
    defaulted fields when it is a dataclass).  A parameter counts as set
    when any call in ``src/``, ``benchmarks/``, ``examples/`` or
    ``tests/`` passes it, by keyword or by position; ``super().__init__``
    calls count toward the enclosing class's bases.  Calls are matched
    by the callee's bare name, so two owners sharing a name share their
    call sites — the report errs toward "set".  An owner that some call
    reaches with ``*args`` or ``**kwargs`` may receive anything: its
    otherwise-unpassed parameters are reported as ``unknown``, not
    ``unset``.
    """
    owners: dict[str, tuple[str, list[str], list[str]]] = {}  # name -> (where, params, defaulted)
    for path in sorted((ROOT / "src/repro").rglob("*.py")):
        where = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            fn = node
            if isinstance(node, ast.ClassDef):
                inits = [n for n in node.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"]
                if not inits:  # dataclass-style: annotated fields, defaults optional
                    fields = [n for n in node.body if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
                    names = [n.target.id for n in fields]
                    defaulted = [
                        n.target.id for n in fields
                        if n.value is not None and "init=False" not in ast.unparse(n.value)
                    ]
                    owners[node.name] = (where, names, defaulted)
                    continue
                fn = inits[0]
            args = fn.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            if fn is not node:
                positional = positional[1:]  # self
            owners[node.name] = (where, positional, defaulted)

    passed: dict[str, set[str]] = {name: set() for name in owners}
    opaque: set[str] = set()

    def record(callees: list[str], call: ast.Call) -> None:
        for callee in callees:
            if callee not in owners:
                continue
            positional = owners[callee][1]
            if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
                opaque.add(callee)
            passed[callee].update(positional[: len(call.args)])
            passed[callee].update(k.arg for k in call.keywords if k.arg)

    for top in ("src", "benchmarks", "examples", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            supers: dict[ast.Call, list[str]] = {}
            for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
                bases = [b.id if isinstance(b, ast.Name) else getattr(b, "attr", "") for b in cls.bases]
                for call in (n for n in ast.walk(cls) if isinstance(n, ast.Call)):
                    if isinstance(call.func, ast.Attribute) and call.func.attr == "__init__":
                        supers[call] = bases
            for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
                func = call.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                record(supers.get(call, [name]), call)

    report = []
    for name, (where, _positional, defaulted) in sorted(owners.items(), key=lambda kv: (kv[1][0], kv[0])):
        for param in defaulted:
            if param not in passed[name] and not param.startswith("_"):
                report.append(f"{'unknown' if name in opaque else 'unset  '} {where}.{name}({param}=)")
    return report


def main() -> int:
    if sys.argv[1:] == ["--options"]:
        report = unset_options()
        for line in report:
            print(f"[options] {line}")
        print(f"[options] {len(report)} defaulted parameter(s) no call site sets (informational)")
        return 0
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

    for path in sorted((ROOT / "benchmarks").glob("bench_*.py")):
        if path.name not in benchmarks_doc:
            problems.append(f"docs/BENCHMARKS.md does not mention {path.name}")

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
