"""Shared benchmark harness: table formatting and result capture.

Every experiment prints the table the paper's figure/claim implies and
writes it to ``benchmarks/results/<experiment>.txt`` so EXPERIMENTS.md can
be cross-checked against a real run (pytest captures stdout, the files
survive; ``results/`` is gitignored).

Conventions: modules are named ``bench_<id>_<slug>.py`` where ``<id>`` is
``e<n>`` for an experiment reproducing/extending a paper claim, ``a<n>``
for an ablation of one optimisation (a1 covering, a2 KB-guided joins), and
``fig<n>`` for figure reproductions.  Each module carries
``@pytest.mark.benchmark(group="<id>")`` tests that emit their table via
:func:`emit` and assert the claim themselves (e.g. "the mesh loses
nothing across the kills"): a bench that passes has defended its own
numbers, and nothing downstream re-reads its output to judge it.  A
number that must not move from one commit to the next is a metric of the
budget benchmark (``benchmarks/budget/``), not an assert here.
"""

from __future__ import annotations

import json
import os

from benchmarks.budget.common import fingerprint

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def format_table(title: str, headers: list[str], rows: list[list]) -> str:
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows)) if rows else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def emit(experiment: str, title: str, headers: list[str], rows: list[list]) -> str:
    """Print the table and persist it under benchmarks/results/."""
    table = format_table(title, headers, rows)
    print("\n" + table)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{experiment}.txt")
    with open(path, "w") as fh:
        fh.write(table + "\n")
    return table


def emit_json(experiment: str, payload: dict) -> str:
    """Persist machine-readable results under benchmarks/results/.

    Every file says where it came from: ``environment`` is the budget
    benchmark's fingerprint (python, numpy, cpu, nproc, commit) of the
    run that wrote it.  Its ``seed`` and ``sizes`` stay empty: a bench's
    seeds and sweep sizes are constants of the script at that commit.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{experiment}.json")
    stamped = {**payload, "environment": fingerprint(experiment, None, {}, False)}
    with open(path, "w") as fh:
        json.dump(stamped, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def fmt(value: float, digits: int = 2) -> str:
    return f"{value:.{digits}f}"


def fmt_ms(seconds: float) -> str:
    return f"{seconds * 1000:.1f}ms"
