"""Shared test utilities.

Simulations with periodic tasks (overlay maintenance, storage audits,
sensors) never drain the event heap, so tests must always run the clock for
a bounded span or until a condition holds.
"""

from __future__ import annotations

from typing import Callable

from repro.simulation import Future, Simulator


def run_until(
    sim: Simulator,
    predicate: Callable[[], bool],
    timeout: float = 300.0,
    step: float = 1.0,
) -> bool:
    """Advance the clock until ``predicate()`` or ``timeout`` sim-seconds."""
    deadline = sim.now + timeout
    while not predicate():
        if sim.now >= deadline:
            return False
        sim.run(until=min(sim.now + step, deadline))
    return True


def resolve(sim: Simulator, future: Future, timeout: float = 300.0):
    """Run the simulation until ``future`` completes; return its result."""
    completed = run_until(sim, lambda: future.done, timeout=timeout)
    assert completed, "future never completed within the timeout"
    return future.result()


def resolve_error(sim: Simulator, future: Future, timeout: float = 300.0):
    """Run until ``future`` completes; return its exception (must fail)."""
    completed = run_until(sim, lambda: future.done, timeout=timeout)
    assert completed, "future never completed within the timeout"
    assert future.exception is not None, "expected the future to fail"
    return future.exception


def scanned_retract(table, neighbour, filter) -> None:
    """The seed's retraction rule: the reference for ``FilterTable._retract``.

    Withdraw ``filter`` from ``neighbour`` unless a copy stored from some
    other source keeps it forwarded (then only re-widen its path), and
    re-offer *every* stored filter not from ``neighbour``, in by-source
    order.  The table re-offers only what the withdrawn filter covers;
    patched in with ``monkeypatch``, this must deliver the same.
    """
    if filter not in table.forwarded.get(neighbour, ()):
        return
    remaining = list(table.entries(exclude=neighbour))
    if any(f == filter for _, f in remaining):
        table.rewiden(neighbour, filter)
        return
    table.withdraw(neighbour, filter)
    for source, stored in remaining:
        table._offer(neighbour, stored, table.paths[(source, stored)])
