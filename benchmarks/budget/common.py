"""What the four workloads share: clocks, the result record, provenance."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def percentile(values, q: float) -> float:
    """The ``q``-quantile (0..1) of ``values`` by linear interpolation."""
    if not len(values):
        return 0.0
    ordered = sorted(values)  # linear when they already are
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median_rate(slices: list[tuple[int, float]]) -> float:
    """Median of per-slice rates; ``slices`` holds ``(count, seconds)``."""
    rates = [count / seconds for count, seconds in slices if seconds > 0 and count]
    return statistics.median(rates) if rates else 0.0


def cpu_seconds() -> float:
    """User + system CPU of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Pace:
    """How fast this box is running right now, probed between chunks.

    The sandbox's clock speed drifts: the same pure-Python loop takes
    anything from 0.29 s to 0.41 s over a minute, CPU time and all, which
    would put a ±10 % spread on every rate however long a run measures.
    So each chunk of measured work (a few hundred milliseconds) is
    bracketed by a ~2 ms probe, and its time is reported in
    *reference seconds*: wall time divided by how much slower than
    nominal the probes on either side ran.  On this box at its
    usual speed a reference second is a second.
    """

    # Best of three, this box, usual speed: an interpreter-bound loop
    # and (where numpy is installed) a sweep like the index's mirrors.
    NOMINAL_LOOP_S = 0.00030
    NOMINAL_SWEEP_S = 0.00025
    STEPS = 3_500

    def __init__(self) -> None:
        self._at = -1.0
        self._factor = 1.0
        self.factors: list[float] = []
        try:
            import numpy
        except ImportError:
            self._sweep = None
        else:
            keys = numpy.arange(100_000, dtype=numpy.int64) % 48_000

            def sweep() -> None:
                for _ in range(2):
                    numpy.flatnonzero(numpy.bincount(keys, minlength=48_000) == 4)

            self._sweep = sweep

    def _loop(self) -> None:
        table: dict[int, int] = {}
        for i in range(self.STEPS):
            table[i & 0xFFF] = table.get(i & 0xFFF, 0) + i

    @staticmethod
    def _best_of_three(work) -> float:
        best = float("inf")
        for _ in range(3):
            began = time.perf_counter()
            work()
            best = min(best, time.perf_counter() - began)
        return best

    def probe(self) -> float:
        """Slowness right now: 1.0 at the nominal speed, 1.2 if 20 % slower."""
        if time.perf_counter() - self._at < 0.1:
            return self._factor  # the speed does not move that fast: share the probe
        factor = self._best_of_three(self._loop) / self.NOMINAL_LOOP_S
        if self._sweep is not None:
            factor = (factor + self._best_of_three(self._sweep) / self.NOMINAL_SWEEP_S) / 2.0
        self._at = time.perf_counter()
        self._factor = factor
        self.factors.append(factor)
        return factor

    def watch(self) -> "Stopwatch":
        return Stopwatch(self)


class Stopwatch:
    """Wall and CPU time of one chunk, raw and in reference seconds."""

    def __init__(self, pace: Pace | None = None) -> None:
        self.pace = pace
        self.factor = pace.probe() if pace else 1.0
        self.wall = -time.perf_counter()
        self.cpu = -cpu_seconds()

    def stop(self) -> "Stopwatch":
        self.wall += time.perf_counter()
        self.cpu += cpu_seconds()
        if self.pace is not None:
            self.factor = (self.factor + self.pace.probe()) / 2.0
        return self

    @property
    def seconds(self) -> float:
        """Wall time in reference seconds."""
        return self.wall / self.factor

    @property
    def cpu_seconds(self) -> float:
        """CPU time in reference seconds."""
        return self.cpu / self.factor


@dataclass
class Measured:
    """What one measured phase hands back to ``run.py``.

    ``slices`` and ``control`` hold ``(count, reference seconds)`` pairs —
    events per publish chunk, control operations per churn chunk (see
    :class:`Pace`).  ``cpu_s`` is the CPU, in reference seconds, of every
    benchmark process over the publish chunks only.  ``latencies`` are
    raw seconds from handing an event to the system to the subscriber's
    handler seeing it; ``latency_quantiles`` holds each chunk's
    ``(p50, p90)`` of them in reference seconds — a stall of the box
    spoils the chunks it hits, not the percentile of the whole run.
    """

    wall_s: float = 0.0
    events: int = 0
    published: int = 0  # every event handed over, rated or not (0: same as events)
    publish_wall_s: float = 0.0
    cpu_s: float = 0.0
    slices: list[tuple[int, float]] = field(default_factory=list)
    control: list[tuple[int, float]] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    latency_quantiles: list[tuple[float, float]] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    late: int = 0  # open-loop deliveries past their deadline
    pace: float = 1.0  # median probe factor over the run
    pool_exhausted: bool = False  # the pre-generated events ran out before the time did

    def add_chunk(self, events: int, watch: Stopwatch) -> None:
        """Book the rate of one stopped publish chunk."""
        self.slices.append((events, watch.seconds))
        self.cpu_s += watch.cpu_seconds
        self.publish_wall_s += watch.wall

    def add_latencies(self, samples, since: int, watch: Stopwatch) -> None:
        """Book the p50 and p90, in reference seconds, of the latency
        samples one chunk recorded (those from index ``since`` on)."""
        part = sorted(samples[since:])
        self.latency_quantiles.append(
            (percentile(part, 0.50) / watch.factor, percentile(part, 0.90) / watch.factor)
        )

    def finish(self, total: Stopwatch, pace: Pace, latencies) -> "Measured":
        self.wall_s = total.stop().wall
        self.peak_rss_mb = peak_rss_mb()
        self.pace = statistics.median(pace.factors)
        self.latencies = latencies
        return self


def fingerprint(workload: str, seed: int, sizes: dict, traced: bool) -> dict:
    """Where a result came from: stamped on every emitted record."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=5, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "sizes": sizes,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "cpu": cpu_model,
        "nproc": os.cpu_count(),
        "commit": commit,
    }


class SimCounters:
    """The counters a simulated scenario's objects already expose, read
    from outside: a snapshot at construction, the difference at
    :meth:`delta` (``broker.control_state`` is a gauge, read at the end).
    """

    def __init__(self, sim, net, brokers, sensors=()) -> None:
        self.sim, self.net, self.brokers, self.sensors = sim, net, brokers, sensors
        self.before = self._read()

    def _read(self) -> dict[str, float]:
        brokers = self.brokers
        return {
            "sensors.events": sum(sensor.emitted for sensor in self.sensors),
            "kernel.steps": self.sim.events_processed,
            "network.messages": self.net.stats.messages_sent,
            "network.bytes": self.net.stats.bytes_sent,
            "broker.notifications_processed": sum(b.notifications_processed for b in brokers),
            "broker.notifications_delivered": sum(b.notifications_delivered for b in brokers),
            "broker.control_messages": sum(sum(b.control_counts.values()) for b in brokers),
            "dedup.duplicates": sum(b.duplicates_suppressed for b in brokers),
        }

    def delta(self) -> dict[str, float]:
        after = self._read()
        out = {name: after[name] - self.before[name] for name in after}
        out["broker.control_state"] = sum(b.control_state_size() for b in self.brokers)
        return out


def sim_age_p50_ms(pairs) -> float:
    """Median simulated publish→delivery age; ``pairs`` holds
    ``(delivered_at, published_at)`` in simulated seconds."""
    ages = [delivered - published for delivered, published in pairs]
    return statistics.median(ages) * 1000.0 if ages else 0.0


class BatchStamps:
    """When each published batch left, on both clocks, and how long each
    of its deliveries took — for workloads whose events carry a ``seq``
    and go out ``batch`` at a time in ``seq`` order."""

    def __init__(self, batch: int) -> None:
        self.batch = batch
        self.sim_time: list[float] = []
        self.latencies = array("d")
        wall: list[float] = []
        latencies, clock = self.latencies, time.perf_counter

        def on_delivery(notification) -> None:
            latencies.append(clock() - wall[notification["seq"] // batch])

        def stamp(sim_now: float) -> None:
            self.sim_time.append(sim_now)
            wall.append(clock())

        self.on_delivery = on_delivery
        self.stamp = stamp

    def attach(self, clients, tracer=None) -> None:
        self.handler = tracer.bind(self.on_delivery, "harness.handler") if tracer else self.on_delivery
        for client in clients:
            client.handlers.append(self.handler)

    def detach(self, clients) -> None:
        for client in clients:
            client.handlers.remove(self.handler)

    def age_p50_ms(self, clients) -> float:
        """Median simulated publish→delivery age over ``received``."""
        return sim_age_p50_ms(
            (received_at, self.sim_time[notification["seq"] // self.batch])
            for client in clients
            for received_at, notification in client.received
        )
