"""``mesh_churn`` — subscription churn beside publishing on a cyclic mesh.

Why it exists: the same broker, index and poset code the other
workloads read is *written* here while it is being read.  A match-path
gain that slows ``add``/``remove``, or a table refactor that slows
either, shows here; and the cycles make the per-origin dedup floor do
real work (about two suppressed duplicates per published event).

Closed loop, rounds alternating a **churn phase** (unsubscribe +
subscribe pairs and one unadvertise/advertise flap, settled) and a
**publish phase**.  There is no warm-up between the two: the first
batch after a churn pays whatever the index has to rebuild.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext

from repro.events import Filter, SienaClient, build_broker_mesh, make_event
from repro.events.filters import eq, gt, lt
from repro.net import Network
from repro.simulation import Simulator

from benchmarks.budget.common import BatchStamps, Measured, Pace, SimCounters, Stopwatch
from benchmarks.budget.oracle import Oracle, Verdict

NAME = "mesh_churn"
SIZES = {
    "full": dict(brokers=5, extra_links=2, gateways=16, subjects_each=3, users=100,
                 subs=1000, pairs=10, round_events=4096, batch=64, max_rounds=40,
                 sample_rounds=4, sample_each=256),
    "toy": dict(brokers=5, extra_links=2, gateways=4, subjects_each=2, users=8,
                subs=40, pairs=2, round_events=64, batch=16, max_rounds=3,
                sample_rounds=2, sample_each=64),
}
WILDCARD_EVERY = 50  # 2 % of subscriptions
SETTLE_S = 2.0


class Inputs:
    """Everything made from the seed: the program sees only these."""

    def __init__(self, seed: int, sizes: dict) -> None:
        rng = random.Random(f"{NAME}:{seed}")
        n_subjects = sizes["gateways"] * sizes["subjects_each"]
        self.subjects = [f"kind-{i % 6}@street-{i // 6}" for i in range(n_subjects)]

        def band(slot: int) -> tuple[int, Filter]:
            # A slot keeps its subject (or its wildcard) through every
            # replacement, dealt round-robin: the population has the same
            # shape for every seed and at every instant; bands and users vary.
            if slot % WILDCARD_EVERY == 0:
                filter = Filter(gt("strength", rng.uniform(11.0, 11.95)))
            else:
                low = rng.uniform(0.0, 10.5)
                filter = Filter(
                    eq("type", self.subjects[slot % n_subjects]),
                    gt("strength", low),
                    lt("strength", low + rng.uniform(0.3, 1.2)),
                )
            return rng.randrange(sizes["users"]), filter

        self.standing = [band(slot) for slot in range(sizes["subs"])]
        # Per round: which standing slots are replaced by what, and
        # which gateway flaps which of its advertisements (in turn).
        # Wildcards stand through the run: replacing one by a wider one
        # loses a delivery on this mesh now and then (README, findings),
        # and a benchmark workload is one on which no operation fails.
        banded = [slot for slot in range(sizes["subs"]) if slot % WILDCARD_EVERY]
        self.churn = []
        for _ in range(sizes["max_rounds"]):
            slots = rng.sample(banded, sizes["pairs"])
            self.churn.append([(slot, *band(slot)) for slot in slots])
        first = rng.randrange(n_subjects)
        self.flaps = [
            divmod((first + 7 * round_no) % n_subjects, sizes["subjects_each"])
            for round_no in range(sizes["max_rounds"])
        ]
        # Batch b of a round goes out through gateway b mod gateways and
        # carries only subjects that gateway advertises.
        each, batch = sizes["subjects_each"], sizes["batch"]
        self.events = []
        for seq in range(sizes["max_rounds"] * sizes["round_events"]):
            gateway = (seq // batch) % sizes["gateways"]
            subject = self.subjects[gateway * each + (seq % batch) % each]
            self.events.append(make_event(subject, strength=rng.uniform(0.0, 12.0), seq=seq))

    def advert(self, gateway: int, which: int, sizes: dict) -> Filter:
        return Filter(eq("type", self.subjects[gateway * sizes["subjects_each"] + which]))


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
        self.brokers = build_broker_mesh(
            self.sim, self.net, count=sizes["brokers"], extra_links=sizes["extra_links"],
            adv_pruned=True, batched=True,
        )

        def client(i: int) -> SienaClient:
            broker = self.brokers[i % len(self.brokers)]
            return SienaClient(self.sim, self.net, broker.position, broker)

        self.gateways = [client(i) for i in range(sizes["gateways"])]
        self.users = [client(i) for i in range(sizes["users"])]
        for g, gateway in enumerate(self.gateways):
            for which in range(sizes["subjects_each"]):
                gateway.advertise(inputs.advert(g, which, sizes))
        self.sim.run_for(SETTLE_S)
        self.live = list(inputs.standing)
        for user, filter in self.live:
            self.users[user].subscribe(filter)
        self.sim.run_for(SETTLE_S)

    def measure(self, seconds: float, tracer=None) -> Measured:
        sizes, inputs = self.sizes, self.inputs
        batch, per_round = sizes["batch"], sizes["round_events"]
        gateways, users, sim = self.gateways, self.users, self.sim
        out = Measured()
        if tracer:
            tracer.clear()
        self.snapshots: list[list] = []  # live subscriptions of the sampled rounds
        self.stamps = stamps = BatchStamps(batch)
        stamps.attach(users, tracer)
        clock = time.perf_counter
        counters = SimCounters(sim, self.net, self.brokers)
        pace = Pace()
        total = Stopwatch()
        with tracer.span("harness.measure") if tracer else nullcontext():
            begin = clock()
            rounds = 0
            while rounds < sizes["max_rounds"] and (rounds == 0 or clock() - begin < seconds):
                # Churn phase.
                watch = pace.watch()
                for slot, new_user, new_filter in inputs.churn[rounds]:
                    old_user, old_filter = self.live[slot]
                    users[old_user].unsubscribe(old_filter)
                    users[new_user].subscribe(new_filter)
                    self.live[slot] = (new_user, new_filter)
                g, which = inputs.flaps[rounds]
                advert = inputs.advert(g, which, sizes)
                gateways[g].unadvertise(advert)
                sim.run_for(SETTLE_S)
                gateways[g].advertise(advert)
                sim.run_for(SETTLE_S)
                out.control.append((2 * sizes["pairs"] + 2, watch.stop().seconds))
                if rounds < sizes["sample_rounds"]:
                    self.snapshots.append(list(self.live))
                # Publish phase.
                watch, mark = pace.watch(), len(stamps.latencies)
                first = rounds * per_round
                for start in range(first, first + per_round, batch):
                    index = start // batch
                    stamps.stamp(sim.now)
                    gateways[index % len(gateways)].publish_batch(inputs.events[start:start + batch])
                    if (index + 1) % len(gateways) == 0:
                        sim.run_for(SETTLE_S)
                sim.run_for(SETTLE_S)
                out.add_chunk(per_round, watch.stop())
                out.add_latencies(stamps.latencies, mark, watch)
                rounds += 1
        stamps.detach(users)
        out.events = rounds * per_round
        out.pool_exhausted = rounds >= sizes["max_rounds"]
        self.counted = counters.delta()
        return out.finish(total, pace, stamps.latencies)

    def check(self) -> Verdict:
        oracle = Oracle()
        per_round, each = self.sizes["round_events"], self.sizes["sample_each"]
        for round_no, live in enumerate(self.snapshots):
            first = round_no * per_round
            oracle.expect(((e["seq"], e) for e in self.inputs.events[first:first + each]), live)
        return oracle.verify(
            (user, [notification["seq"] for _, notification in client.received])
            for user, client in enumerate(self.users)
        )

    def counters(self) -> dict[str, float]:
        return {**self.counted, "sim.age_p50_ms": self.stamps.age_p50_ms(self.users)}

    def close(self) -> None:
        pass
