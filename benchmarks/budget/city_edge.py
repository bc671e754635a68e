"""``city_edge`` — one edge broker under the E14 city population.

Why it exists: this is the workload where ``events.index`` does most of
the work (tens of thousands of band subscriptions, ~32 deliveries an
event) and the codec, the covering poset and the matching engine do
none.  An index or fan-out optimisation shows here and nowhere else.

Closed loop: the simulation kernel runs as fast as the CPU allows.  A
round is one gateway handing the broker one ``publish_batch``; the next
round starts when the last delivery of this one has landed.  Rates are
taken per chunk of a few rounds (see ``common.Pace``).
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext

from repro.events import Filter, SienaClient, build_broker_tree, make_event
from repro.events.filters import eq, exists, gt, lt
from repro.net import Network
from repro.sensors import RandomWaypoint, make_synthetic_city
from repro.simulation import Simulator

from benchmarks.budget.common import BatchStamps, Measured, Pace, SimCounters, Stopwatch
from benchmarks.budget.oracle import Oracle, Verdict

NAME = "city_edge"
SIZES = {
    # Shrink event counts for a tighter time cap, never the population.
    "full": dict(streets=24, places=60, subs=48_000, users=200, gateways=24,
                 batch=256, chunk_rounds=4, pool_batches=224, sample=1024,
                 churn_pairs=50),
    "toy": dict(streets=4, places=12, subs=600, users=12, gateways=4,
                batch=32, chunk_rounds=8, pool_batches=100, sample=96,
                churn_pairs=10),
}
WILDCARD_EVERY = 50  # 2 % of subscriptions
PUBLISH_SHARE = 0.85  # of --seconds; the rest is the control phase
SETTLE_S = 1.0


class Inputs:
    """Everything made from the seed: the program sees only these."""

    def __init__(self, seed: int, sizes: dict) -> None:
        rng = random.Random(f"{NAME}:{seed}")
        self.city = make_synthetic_city("city", rng, streets=sizes["streets"], places=sizes["places"])
        kinds = sorted({place.kind for place in self.city.places})
        streets = [f"city-street-{i}" for i in range(sizes["streets"])]
        self.subjects = [f"{kind}@{street}" for kind in kinds for street in streets]
        # (user, filter): alert-shaped interest, a narrow strength band at
        # one place; one in fifty watches the whole city (no subject pin).
        # Subjects and wildcards are dealt round-robin, not drawn, so every
        # seed has the same population shape and only the bands differ.
        self.subscriptions: list[tuple[int, Filter]] = []
        for i in range(sizes["subs"]):
            if i % WILDCARD_EVERY == 0:
                floor = gt("strength", rng.uniform(11.0, 11.95))
                filter = Filter(floor) if i % (2 * WILDCARD_EVERY) else Filter(exists("street"), floor)
            else:
                low = rng.uniform(0.0, 10.5)
                filter = Filter(
                    eq("type", self.subjects[i % len(self.subjects)]),
                    gt("strength", low),
                    lt("strength", low + rng.uniform(0.3, 1.2)),
                )
            self.subscriptions.append((i % sizes["users"], filter))
        mobility = RandomWaypoint(self.city)

        def reading(device: int, seq: int):
            position = mobility.step(self.city.random_position(rng), rng.uniform(1.0, 60.0), rng)
            return make_event(
                self.subjects[device % len(self.subjects)],
                strength=rng.uniform(0.0, 12.0),
                lat=position.lat,
                lon=position.lon,
                street=self.city.street_map.locate(position).street,
                seq=seq,
            )

        batch = sizes["batch"]
        self.events = [reading(seq, seq) for seq in range(sizes["pool_batches"] * batch)]
        self.warm = [reading(device, -1 - device) for device in range(batch)]
        self.churn = [rng.randrange(sizes["subs"]) for _ in range(sizes["churn_pairs"])]
        self.positions = [self.city.random_position(rng) for _ in range(sizes["users"] + sizes["gateways"])]


class Workload:
    name = NAME

    def __init__(self, inputs: Inputs, seed: int, sizes: dict, traced: bool = False) -> None:
        self.inputs = inputs
        self.seed = seed
        self.sizes = sizes

    def setup(self) -> None:
        sizes, inputs = self.sizes, self.inputs
        self.sim = Simulator(seed=self.seed)
        self.net = Network(self.sim, batched=True)
        self.broker = build_broker_tree(self.sim, self.net, count=1, batched=True)[0]
        places = iter(inputs.positions)
        self.users = [SienaClient(self.sim, self.net, next(places), self.broker) for _ in range(sizes["users"])]
        self.gateways = [SienaClient(self.sim, self.net, next(places), self.broker) for _ in range(sizes["gateways"])]
        for user, filter in inputs.subscriptions:
            self.users[user].subscribe(filter)
        self.sim.run_for(SETTLE_S)
        # One warm batch builds the index's vectorised mirrors, which a
        # long-running broker pays once per subscription change.
        self.gateways[0].publish_batch(inputs.warm)
        self.sim.run_for(SETTLE_S)
        for user in self.users:
            user.received.clear()

    def measure(self, seconds: float, tracer=None) -> Measured:
        sizes, events = self.sizes, self.inputs.events
        batch, gateways = sizes["batch"], self.gateways
        out = Measured()
        if tracer:
            tracer.clear()
        self.stamps = stamps = BatchStamps(batch)
        stamps.attach(self.users, tracer)
        clock = time.perf_counter
        counters = SimCounters(self.sim, self.net, [self.broker])
        root = tracer.span("harness.measure") if tracer else nullcontext()
        pace = Pace()
        total = Stopwatch()
        with root:
            publish_until = clock() + seconds * PUBLISH_SHARE
            n_batches = len(events) // batch
            next_batch = 0
            while clock() < publish_until and next_batch < n_batches:
                watch, first, mark = pace.watch(), next_batch, len(stamps.latencies)
                for _ in range(min(sizes["chunk_rounds"], n_batches - next_batch)):
                    stamps.stamp(self.sim.now)
                    gateways[next_batch % len(gateways)].publish_batch(
                        events[next_batch * batch:(next_batch + 1) * batch]
                    )
                    next_batch += 1
                    self.sim.run_for(SETTLE_S)
                out.add_chunk((next_batch - first) * batch, watch.stop())
                out.add_latencies(stamps.latencies, mark, watch)
            out.events = next_batch * batch
            out.pool_exhausted = next_batch >= n_batches
            # Control phase: churn standing subscriptions with the whole
            # population in place (the filter comes back, so the live
            # set the oracle uses is unchanged).
            control_until = clock() + seconds * (1.0 - PUBLISH_SHARE)
            subscriptions = self.inputs.subscriptions
            while True:
                watch = pace.watch()
                for which in self.inputs.churn:
                    user, filter = subscriptions[which]
                    self.users[user].unsubscribe(filter)
                    self.users[user].subscribe(filter)
                self.sim.run_for(SETTLE_S)
                out.control.append((2 * len(self.inputs.churn), watch.stop().seconds))
                if clock() >= control_until:
                    break
        stamps.detach(self.users)
        self.counted = counters.delta()
        self.published = out.events
        return out.finish(total, pace, stamps.latencies)

    def check(self) -> Verdict:
        sample = min(self.sizes["sample"], self.published)
        oracle = Oracle()
        oracle.expect(((e["seq"], e) for e in self.inputs.events[:sample]), self.inputs.subscriptions)
        return oracle.verify(
            (user, [notification["seq"] for _, notification in client.received])
            for user, client in enumerate(self.users)
        )

    def counters(self) -> dict[str, float]:
        return {**self.counted, "sim.age_p50_ms": self.stamps.age_p50_ms(self.users)}

    def close(self) -> None:
        pass

