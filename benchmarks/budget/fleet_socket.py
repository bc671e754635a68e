"""``fleet_socket`` — the sharded fleet on real unix sockets.

Why it exists: the only workload where wall-clock latency is real, and
where ``net.serialization``, ``net.transport`` and ``events.sharding``
dominate while the index is tiny (a few hundred filters).  The hub
process holds the ``AsyncioTransport``, the ``ShardRouter``, every
subscribing ``FleetClient`` and one publishing client; two worker
processes hold two ``ShardEndpoint``s each, behind the JSON codec.

Three phases share ``--seconds``:

* **A, open loop** — bursts on a fixed schedule whatever the fleet's
  speed; each delivery is timed from the instant its burst was *due*
  (looked up by the event's ``seq``) to the client's handler, so a stall
  is charged to every event it delays.  The schedule runs in half-second
  segments with a pause between them (see ``common.Pace``).
* **B, closed loop** — bursts as fast as the socket accepts them
  (``await transport.drain()`` after each), in chunks that each end when
  the fleet has gone quiet (see ``common.Pace``).
* **C, control** — clients drop and renew their subscriptions.

The load generator shares the hub's event loop with the router and the
clients: on this two-core box that is where a user's publisher runs.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from contextlib import nullcontext
from pathlib import Path

from repro.events import Filter, make_event
from repro.events.filters import eq, gt, lt
from repro.events.sharding import Attach, FleetClient, ShardPlan, ShardRouter
from repro.net.transport import AsyncioTransport

from benchmarks.budget.common import ROOT, Measured, Pace, Stopwatch, percentile
from benchmarks.budget.oracle import Oracle, Verdict

NAME = "fleet_socket"
SIZES = {
    "full": dict(shards=4, workers=2, clients=50, filters_each=8, subjects=24,
                 rate=4000, open_burst=8, closed_burst=64, events=196_608, sample=1024,
                 churn_clients=50),
    "toy": dict(shards=4, workers=2, clients=6, filters_each=4, subjects=8,
                rate=1000, open_burst=4, closed_burst=16, events=2048, sample=128,
                churn_clients=3),
}
PHASES = (0.40, 0.45, 0.15)  # shares of --seconds for A, B, C
CHUNK_S = 0.3  # closed-loop publishing between two speed probes
SEGMENT_S = 0.5  # open-loop schedule between two speed probes
DEADLINE_S = 1.0  # an open-loop delivery later than this has failed
WAIT_S = 60.0
HUB_CTL = "hub-ctl"
PUBLISHER = "publisher"


class Inputs:
    """Everything made from the seed: the program sees only these."""

    def __init__(self, seed: int, sizes: dict) -> None:
        rng = random.Random(f"{NAME}:{seed}")
        subjects = [f"kind-{i % 6}@street-{i // 6}" for i in range(sizes["subjects"])]
        self.subscriptions: list[tuple[str, Filter]] = []
        # Subjects are dealt round-robin, to filters and to events alike:
        # every seed has the same population shape and only the bands differ.
        for c in range(sizes["clients"]):
            for k in range(sizes["filters_each"]):
                low = rng.uniform(0.0, 10.0)
                subject = subjects[(c * sizes["filters_each"] + k) % len(subjects)]
                self.subscriptions.append((
                    f"client-{c}",
                    Filter(eq("type", subject), gt("strength", low), lt("strength", low + rng.uniform(0.5, 2.5))),
                ))
        self.events = [
            make_event(subjects[seq % len(subjects)], strength=rng.uniform(0.0, 12.0), seq=seq)
            for seq in range(sizes["events"])
        ]
        self.warm = [
            make_event(subjects[i % len(subjects)], strength=rng.uniform(0.0, 12.0), seq=-1 - i)
            for i in range(sizes["closed_burst"])
        ]


class Workload:
    name = NAME

    def __init__(self, inputs: Inputs, seed: int, sizes: dict, traced: bool = False) -> None:
        self.inputs = inputs
        self.sizes = sizes
        self.traced = traced
        self.loop = asyncio.new_event_loop()
        self.workers: list[subprocess.Popen] = []
        self.transport: AsyncioTransport | None = None
        self.tmp: str | None = None
        self.acks_due = 0
        self.on_notify = None  # set per phase

    # ------------------------------------------------------------------
    # Lifecycle: everything started here is stopped in close()
    # ------------------------------------------------------------------
    def setup(self) -> None:
        self.loop.run_until_complete(self._setup())

    async def _setup(self) -> None:
        sizes = self.sizes
        # A short relative path: unix socket paths are capped near 100
        # bytes, and the checkout may sit anywhere.
        base = ROOT / ".bench_tmp"
        base.mkdir(exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="fleet-", dir=base)
        short = os.path.relpath(self.tmp)
        path = os.path.join(short if len(short) < len(self.tmp) else self.tmp, "hub.sock")
        per_worker = sizes["shards"] // sizes["workers"]
        self.dumps = [os.path.join(self.tmp, f"worker-{w}.json") for w in range(sizes["workers"])]
        for w in range(sizes["workers"]):
            shard_ids = ",".join(str(s) for s in range(w * per_worker, (w + 1) * per_worker))
            self.workers.append(subprocess.Popen([
                sys.executable, str(Path(__file__).with_name("fleet_worker.py")),
                path, str(sizes["shards"]), shard_ids, str(w), self.dumps[w], str(int(self.traced)),
            ]))
        self.transport = transport = AsyncioTransport(path)
        await transport.start()
        plan = ShardPlan(sizes["shards"])
        shard_addrs = {sid: f"shard-{sid}" for sid in range(plan.n_shards)}
        self.router = ShardRouter(plan, "router", transport.send, shard_addrs)
        self.ctl_addrs = [f"ctl-{w}" for w in range(sizes["workers"])]
        self.handlers = {self.router.addr: self.router.handle, HUB_CTL: self._on_ack}
        await transport.wait_until(
            lambda: all(transport.known(a) for a in [*shard_addrs.values(), *self.ctl_addrs]),
            timeout=WAIT_S,
        )
        self.clients: dict[str, FleetClient] = {}
        for name in [f"client-{c}" for c in range(sizes["clients"])] + [PUBLISHER]:
            client = self.clients[name] = FleetClient(name, self.router.addr, transport.send)
            self.handlers[name] = self._client_handler(client)
        for addr, handler in self.handlers.items():
            transport.register(addr, handler)
        for name in self.clients:
            self.router.attach_client(name)
        for name, filter in self.inputs.subscriptions:
            self.clients[name].subscribe(filter)
        await self._quiet()
        # One warm burst builds each shard index's vectorised mirrors.
        self.clients[PUBLISHER].publish_batch(self.inputs.warm)
        await self._quiet()
        for client in self.clients.values():
            client.received.clear()

    def close(self) -> None:
        try:
            # Workers go first: once they are gone their connections end
            # at EOF, so stopping the hub cancels nothing mid-read.
            for worker in self.workers:
                worker.terminate()
            for worker in self.workers:
                try:
                    worker.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    worker.kill()
                    worker.wait()
            self.workers.clear()
            if self.transport is not None:
                self.loop.run_until_complete(self._stop_transport())
                self.transport = None
        finally:
            self.loop.close()
            if self.tmp is not None:
                shutil.rmtree(self.tmp, ignore_errors=True)
                self.tmp = None
                try:
                    os.rmdir(ROOT / ".bench_tmp")
                except OSError:
                    pass  # another run's socket directory is still in it

    async def _stop_transport(self) -> None:
        await asyncio.sleep(0)  # let the connections see their EOF
        await self.transport.stop()

    # ------------------------------------------------------------------
    # Talking to the workers
    # ------------------------------------------------------------------
    def _on_ack(self, src, payload) -> None:
        self.acks_due -= 1
        if self.acks_due == 0:
            self.acked.set_result(None)

    async def _command(self, command: str) -> None:
        """Send every worker one control frame and wait for the answers."""
        self.acks_due, self.acked = len(self.ctl_addrs), self.loop.create_future()
        for addr in self.ctl_addrs:
            self.transport.send(HUB_CTL, addr, Attach(command))
        try:
            await asyncio.wait_for(self.acked, WAIT_S)
        except asyncio.TimeoutError:
            dead = [w.pid for w in self.workers if w.poll() is not None]
            raise RuntimeError(f"fleet went silent for {WAIT_S}s (dead workers: {dead})") from None

    async def _quiet(self, command: str = "sync") -> None:
        """Return once nothing is in flight anywhere in the fleet.

        ``drain`` first, so the router has forwarded whatever the hub's
        own queue still held.  A publication then crosses at most two
        workers — the shard that matches it, then each subscriber's home
        shard — and a worker's answer follows whatever it wrote before,
        so two rounds of acknowledgements flush every socket; the last
        ``drain`` hands the clients what the workers sent back.
        """
        await self.transport.drain()
        await self._command("sync")
        await self._command(command)
        await self.transport.drain()

    def _client_handler(self, client: FleetClient):
        handle = client.handle

        def handler(src, payload) -> None:
            handle(src, payload)
            if self.on_notify is not None:
                self.on_notify(payload)

        return handler

    def _worker_snapshots(self) -> list[list[dict]]:
        out = []
        for dump in self.dumps:
            with open(dump) as handle:
                out.append(json.load(handle))
        return out

    # ------------------------------------------------------------------
    # The measured phases
    # ------------------------------------------------------------------
    def measure(self, seconds: float, tracer=None) -> Measured:
        return self.loop.run_until_complete(self._measure(seconds, tracer))

    async def _measure(self, seconds: float, tracer) -> Measured:
        sizes, events, transport = self.sizes, self.inputs.events, self.transport
        publisher = self.clients[PUBLISHER]
        clock = time.perf_counter
        out = Measured()
        span = tracer.span if tracer else (lambda label: nullcontext())
        if tracer:
            tracer.clear()
            self._trace_handlers(tracer)
        routed_before = self.router.messages_routed
        relayed_before = transport.frames_relayed
        await self._quiet("reset")
        total = Stopwatch()
        with span("asyncio.loop"):
            # Phase A: open loop, in segments: between two of them the
            # schedule pauses, the fleet goes quiet and the box's speed is
            # probed, so no probe ever stalls an event that is due.
            open_burst, interval = sizes["open_burst"], sizes["open_burst"] / sizes["rate"]
            n_bursts = min(int(seconds * PHASES[0] / interval), len(events) // (2 * open_burst))
            per_segment = max(int(SEGMENT_S / interval), 1)
            due: list[float] = []
            latencies = array("d")
            lateness = array("d")
            pace = Pace()

            def stamp(payload) -> None:
                now = clock()
                for notification in payload.notifications:
                    latencies.append(now - due[notification["seq"] // open_burst])

            self.on_notify = stamp
            for first in range(0, n_bursts, per_segment):
                watch, mark = pace.watch(), len(latencies)
                start = clock() + 0.005
                for k in range(first, min(first + per_segment, n_bursts)):
                    at = start + (k - first) * interval
                    # Always yield, or a generator that has fallen behind
                    # would starve the very loop it is waiting on.
                    await asyncio.sleep(max(at - clock(), 0.0))
                    with span("harness.loadgen"):
                        lateness.append(clock() - at)
                        due.append(at)
                        publisher.publish_batch(events[k * open_burst:(k + 1) * open_burst])
                await self._quiet()
                out.add_latencies(latencies, mark, watch.stop())
            self.on_notify = None
            self.open_events = n_bursts * open_burst
            out.late = sum(1 for value in latencies if value > DEADLINE_S)
            late_share = sum(1 for v in lateness if v > interval) / max(len(lateness), 1)

            # Phase B: closed loop.
            await self._quiet("snap")
            burst = sizes["closed_burst"]
            cursor = self.open_events
            closed_until = clock() + seconds * PHASES[1]
            closed_factors: list[float] = []
            while clock() < closed_until and cursor + burst <= len(events):
                watch, first = pace.watch(), cursor
                chunk_until = clock() + CHUNK_S
                while clock() < chunk_until and cursor + burst <= len(events):
                    with span("harness.loadgen"):
                        publisher.publish_batch(events[cursor:cursor + burst])
                        cursor += burst
                    await transport.drain()
                await self._quiet()
                out.add_chunk(cursor - first, watch.stop())
                closed_factors.append(watch.factor)
            await self._quiet("snap")
            out.events = cursor - self.open_events
            out.pool_exhausted = cursor + burst > len(events)
            self.published = out.published = cursor

            # Phase C: control.
            deadline = clock() + seconds * PHASES[2]
            names = [name for name in self.clients if name != PUBLISHER]
            turn = 0
            while True:
                watch, ops = pace.watch(), 0
                chosen = {names[i % len(names)] for i in range(turn, turn + sizes["churn_clients"])}
                with span("harness.loadgen"):
                    for name, filter in self.inputs.subscriptions:
                        if name in chosen:
                            self.clients[name].unsubscribe(filter)
                            self.clients[name].subscribe(filter)
                            ops += 2
                await self._quiet()
                out.control.append((ops, watch.stop().seconds))
                turn += sizes["churn_clients"]
                if clock() >= deadline:
                    break
        await self._quiet("fold")
        out.finish(total, pace, latencies)

        per_worker = self._worker_snapshots()
        # Snapshots in order: reset, snap (B starts), snap (B ends), fold.
        self.worker_final = [snaps[-1] for snaps in per_worker]
        worker_cpu = sum(snaps[-1]["cpu_s"] - snaps[0]["cpu_s"] for snaps in per_worker)
        out.cpu_s += sum(snaps[2]["cpu_s"] - snaps[1]["cpu_s"] for snaps in per_worker) / statistics.median(closed_factors)
        out.peak_rss_mb += sum(snaps[-1]["peak_rss_mb"] for snaps in per_worker)
        processed = [
            after - snaps[0]["processed"][sid]
            for snaps in per_worker for sid, after in snaps[-1]["processed"].items()
        ]
        self.counted = {
            "sharding.messages_routed": self.router.messages_routed - routed_before,
            "sharding.skew": max(processed) / (sum(processed) / len(processed)) if sum(processed) else 0.0,
            "transport.frames_relayed": transport.frames_relayed - relayed_before,
            "fleet.hub_cpu_s": total.cpu,
            "fleet.worker_cpu_s": worker_cpu,
            "fleet.latency_p99_ms": percentile(latencies, 0.99) * 1000.0,
            "loadgen.late_share": late_share,
            "loadgen.max_late_ms": max(lateness, default=0.0) * 1000.0,
        }
        return out

    def _trace_handlers(self, tracer) -> None:
        """Re-register the hub's handlers so each call closes a queue-wait
        sample (``send`` opened it) and the harness's share has a label."""
        tracer.local_addrs = set(self.handlers)
        waits, pending, clock = tracer.queue_waits, tracer.pending_sends, time.perf_counter
        for addr, handler in self.handlers.items():
            inner = handler if addr == self.router.addr else tracer.bind(handler, "harness.handler")

            def timed(src, payload, inner=inner) -> None:
                waits.append(clock() - pending.popleft())
                inner(src, payload)

            self.transport.register(addr, timed)

    def worker_traces(self) -> list[dict]:
        """The workers' folded spans, tallies and index counters (traced runs)."""
        return [snap for snap in self.worker_final if "folded" in snap]

    def check(self) -> Verdict:
        sample = min(self.sizes["sample"], self.published)
        oracle = Oracle()
        oracle.expect(((e["seq"], e) for e in self.inputs.events[:sample]), self.inputs.subscriptions)
        return oracle.verify(
            (name, [notification["seq"] for notification in client.received])
            for name, client in self.clients.items()
        )

    def counters(self) -> dict[str, float]:
        return dict(self.counted)
