#!/usr/bin/env python
"""Docs drift check: the architecture/benchmark docs must track the code.

Six invariants, each cheap to check from file contents alone:

1. Every routing mode accepted by ``BrokerNode`` (the ``ROUTING_MODES``
   tuple, whichever module under ``src/repro/events/`` holds it) and
   every matching mode named in the equivalence suites' ``MODES`` table
   is mentioned in ``docs/ARCHITECTURE.md``.
2. Every ``benchmarks/bench_*.py`` and every workload and end-to-end
   metric named in ``BENCHMARK.json`` is mentioned in
   ``docs/BENCHMARKS.md``.
3. ``README.md`` links both documents.
4. Each layer of ``docs/ARCHITECTURE.md``'s layer map only imports
   downward: no module under ``src/repro/<layer>/`` imports a higher
   layer of ``LAYERS``, type-only imports included, except the
   ``UPWARD_IMPORTS`` allowed today — a list that may only shrink, so
   an entry whose import is gone is reported too.
5. Everything ``src/`` defines has a reader: every function, method,
   class and module-level name is named somewhere besides its own
   definition, in ``src/``, ``tests/``, ``benchmarks/``, ``examples/`` or
   ``tools/`` (see :func:`unread_definitions`).
6. Every CamelCase name in an inline code span of ``docs/ARCHITECTURE.md``,
   ``docs/BENCHMARKS.md`` or ``README.md`` is a class or function defined
   under ``src/``, ``tests/``, ``benchmarks/``, ``examples/`` or
   ``tools/``, or a Python builtin (see :func:`undefined_doc_names`), so a
   doc cannot keep naming a class that is gone.

Run from the repo root: ``python tools/check_docs.py``.  Exits 1 and
lists every problem, so adding a benchmark or a routing mode without
documenting it, or an import against the layer map, fails CI.

``python tools/check_docs.py --options`` prints, instead, the report
ROADMAP item 9 works from: every defaulted parameter in ``src/repro/``
that no call site sets (see :func:`unset_options`).  It is informational
and always exits 0.
"""

from __future__ import annotations

import ast
import builtins
import json
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The layer map, from the wire up.
LAYERS = ("simulation", "net", "overlay", "events", "evolution")
# Upward imports that exist today, by importing module -> the layers it
# reaches up to.  Remove an entry when its import goes; never add one.
UPWARD_IMPORTS = {
    "repro/simulation/transport.py": {"net"},
    "repro/net/serialization.py": {"events"},
    "repro/events/broker.py": {"evolution"},  # under TYPE_CHECKING
}


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


def upward_imports() -> list[str]:
    """Imports against the layer map, and allow-list entries gone stale."""
    problems: list[str] = []
    seen: dict[str, set[str]] = {}
    for path in sorted((ROOT / "src/repro").rglob("*.py")):
        module = path.relative_to(ROOT / "src").as_posix()
        layer = module.split("/")[1]
        if layer not in LAYERS:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                parts = name.split(".")
                if parts[0] != "repro" or len(parts) < 2 or parts[1] not in LAYERS:
                    continue
                if LAYERS.index(parts[1]) > LAYERS.index(layer):
                    seen.setdefault(module, set()).add(parts[1])
                    if parts[1] not in UPWARD_IMPORTS.get(module, ()):
                        problems.append(f"{module} imports {name}: {parts[1]} is above {layer}")
    for module, allowed in UPWARD_IMPORTS.items():
        for target in sorted(allowed - seen.get(module, set())):
            problems.append(f"{module} no longer imports {target}: drop it from UPWARD_IMPORTS")
    return problems


# Decorators that register nothing: a definition under any other one (a
# registry's ``@register_component``, a guard's ``@reads``) is reached
# through the decorator, so it is never reported unread.
PLAIN_DECORATORS = {"dataclass", "property", "classmethod", "staticmethod", "setter"}
READER_DIRS = ("src", "tests", "benchmarks", "examples", "tools")


def unread_definitions() -> list[str]:
    """Definitions in ``src/repro/`` that nothing else names.

    A definition is a function or method, a class, or a module-level
    assignment; dunders are exempt, and so is a definition decorated by
    anything outside :data:`PLAIN_DECORATORS`.  A name counts as read when
    it occurs, as a word, more often across :data:`READER_DIRS` than it is
    defined in ``src/``: a call, an import, a ``getattr`` string and a
    docstring all count, so the check errs toward "read".
    """
    words: Counter = Counter()
    for top in READER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            words.update(re.findall(r"[A-Za-z_]\w*", path.read_text()))
    defined: dict[str, list[str]] = {}
    for path in sorted((ROOT / "src/repro").rglob("*.py")):
        module = path.relative_to(ROOT / "src").as_posix()
        tree = ast.parse(path.read_text())
        names = [
            (node.name, node.lineno) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and all(_decorator_name(d) in PLAIN_DECORATORS for d in node.decorator_list)
        ]
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
        for name, line in names:
            if not (name.startswith("__") and name.endswith("__")):
                defined.setdefault(name, []).append(f"{module}:{line}")
    return [
        f"{where} defines {name}, which nothing else names"
        for name, wheres in sorted(defined.items())
        if words[name] <= len(wheres)
        for where in wheres
    ]


def _decorator_name(node: ast.expr) -> str:
    """``dataclass`` for ``@dataclass(slots=True)``, ``setter`` for ``@x.setter``."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


# A name with two or more capitalised humps (``CoveringPoset``, not
# ``Filter`` or ``EQ``), as a word of an inline code span.
CAMEL_CASE = re.compile(r"\b[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+\b")
DOCS = ("docs/ARCHITECTURE.md", "docs/BENCHMARKS.md", "README.md")


def undefined_doc_names() -> list[str]:
    """CamelCase names the docs put in code spans that nothing defines.

    A name is defined when a ``class`` or ``def`` of that name exists in a
    ``.py`` file under :data:`READER_DIRS`, or when it is a builtin
    (``TypeError``).  Fenced blocks are shell commands and are skipped.
    """
    defined = set(dir(builtins))
    for top in READER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            defined.update(
                node.name for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            )
    problems = []
    for doc in DOCS:
        text = re.sub(r"```.*?```", "", (ROOT / doc).read_text(), flags=re.S)
        for span in re.findall(r"`([^`]+)`", text):
            for name in CAMEL_CASE.findall(span):
                if name not in defined:
                    problems.append(f"{doc} names `{name}`, which nothing under {', '.join(READER_DIRS)} defines")
    return problems


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

    problems += upward_imports()
    problems += unread_definitions()
    problems += undefined_doc_names()

    if problems:
        for problem in problems:
            print(f"[docs] DRIFT {problem}")
        print(f"[docs] {len(problems)} problem(s) — update the docs (or the imports) alongside the code")
        return 1
    print("[docs] ok — architecture and benchmark docs track the code; layers import downward")
    return 0


if __name__ == "__main__":
    sys.exit(main())
