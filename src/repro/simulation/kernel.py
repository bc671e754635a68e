"""The discrete-event scheduler at the bottom of every experiment.

The kernel is deliberately tiny: a binary heap of timed callbacks and a
family of named, deterministic random number streams.  Protocol code that
wants to read sequentially (waiting on replies, sleeping) is layered on top
in :mod:`repro.simulation.processes`.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from typing import Any, Callable


class CancelledHandle(Exception):
    """Raised when interacting with a handle that was already cancelled."""


class ScheduledHandle:
    """A cancellable reference to one scheduled callback."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing; safe to call more than once."""
        self.cancelled = True

    def __lt__(self, other: "ScheduledHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledHandle t={self.time:.6f} {state} fn={self.fn!r}>"


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Root seed.  All randomness in a simulation must come from
        :attr:`rng` or from named streams obtained via :meth:`rng_for`,
        which makes whole experiments reproducible from a single integer.
    """

    def __init__(self, seed: int = 0):
        self._now = 0.0
        self._heap: list[ScheduledHandle] = []
        self._seq = 0
        self._seed = seed
        self.rng = random.Random(seed)
        self._named_rngs: dict[str, random.Random] = {}
        self._coalesced: dict[Any, ScheduledHandle] = {}
        self.events_processed = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> ScheduledHandle:
        """Schedule ``fn(*args)`` at absolute virtual ``time``."""
        if time < self._now:
            raise ValueError(f"cannot schedule in the past: {time} < {self._now}")
        handle = ScheduledHandle(time, self._seq, fn, args)
        self._seq += 1
        heapq.heappush(self._heap, handle)
        return handle

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> ScheduledHandle:
        """Schedule ``fn(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.schedule_at(self._now + delay, fn, *args)

    def coalesce_at(
        self, time: float, key: Any, fn: Callable[..., Any], *args: Any
    ) -> ScheduledHandle:
        """Schedule ``fn(*args)`` at ``time``, once per (``key``, ``time``).

        While a coalesced callback for the same key and instant is still
        pending, further calls return its handle without scheduling
        anything — the building block for batched delivery: N same-tick
        messages on one link collapse into one simulator event, and the
        callback drains whatever accumulated behind the key.  A call
        with the same key but a *different* time schedules normally (the
        earlier handle keeps its slot and still fires).
        """
        pending = self._coalesced.get(key)
        if pending is not None and pending.time == time and not pending.cancelled:
            return pending

        def runner() -> None:
            if self._coalesced.get(key) is handle:
                del self._coalesced[key]
            fn(*args)

        handle = self.schedule_at(time, runner)
        self._coalesced[key] = handle
        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event.  Returns False when the heap is empty."""
        while self._heap:
            handle = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            self._now = handle.time
            self.events_processed += 1
            handle.fn(*handle.args)
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Run events until the heap drains, ``until`` passes, or a budget hits.

        Returns the number of events processed by this call.  When ``until``
        is given the clock is advanced to exactly ``until`` even if the last
        event fires earlier, so back-to-back ``run`` calls tile cleanly.
        """
        processed = 0
        while self._heap:
            if max_events is not None and processed >= max_events:
                return processed
            nxt = self._heap[0]
            if nxt.cancelled:
                heapq.heappop(self._heap)
                continue
            if until is not None and nxt.time > until:
                break
            self.step()
            processed += 1
        if until is not None and until > self._now:
            self._now = until
        return processed

    def run_for(self, duration: float, max_events: int | None = None) -> int:
        """Run for ``duration`` seconds of virtual time."""
        return self.run(until=self._now + duration, max_events=max_events)

    # ------------------------------------------------------------------
    # Deterministic named random streams
    # ------------------------------------------------------------------
    def rng_for(self, name: str) -> random.Random:
        """A random stream keyed on ``name``, independent of call order.

        Two simulations with the same root seed hand out identical streams
        for identical names, regardless of how many other streams were
        created in between — unlike drawing sub-seeds from :attr:`rng`.
        """
        if name not in self._named_rngs:
            digest = hashlib.sha256(f"{self._seed}:{name}".encode()).digest()
            self._named_rngs[name] = random.Random(int.from_bytes(digest[:8], "big"))
        return self._named_rngs[name]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self._now:.3f} pending={len(self._heap)}>"
