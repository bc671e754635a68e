"""``correlate`` — the Figure-1 loop: sensors to suggestions and back.

Why it exists: this is the workload where ``matching``, ``knowledge``
and ``gis`` do the work and the index and brokers are a small share.
People walk a town with a GPS each; their fixes and the weather travel
gateway → broker tree → one service client whose handler feeds a
``MatchingEngine`` holding the ice-cream-meetup and weather-alert rules
over a shared knowledge base; the suggestions it synthesises are
published back and reach each user's own agent.  Default knobs
throughout (per-event ``publish`` and the scalar ``PredicateIndex.match``
the batched workloads bypass).

Closed loop on simulated time from 13:00.  Each person is free, and
has an alert threshold in force, for one ``eligible_s`` interval placed
at random over ``horizon_s``: the eligible share of the town, and so the
cost of an event, is the same at every instant, and suggestions keep
trickling through the whole run instead of all firing in the first
minute.
"""

from __future__ import annotations

import random
import time
from array import array
from contextlib import nullcontext

from repro.events import Filter, SienaClient, build_broker_tree
from repro.events.filters import eq, type_is
from repro.knowledge.base import KnowledgeBase
from repro.knowledge.facts import Fact
from repro.matching import MatchingEngine
from repro.net import Network, Position
from repro.sensors import GpsSensor, Person, Population, RandomWaypoint, WeatherSensor, make_synthetic_city
from repro.services import IceCreamMeetupService, SienaIngress, WeatherAlertService
from repro.simulation import Simulator

from benchmarks.budget.common import Measured, Pace, SimCounters, Stopwatch, sim_age_p50_ms
from benchmarks.budget.oracle import Oracle, Verdict

NAME = "correlate"
SIZES = {
    "full": dict(people=300, gateways=8, brokers=3, friends=3, horizon_s=5400.0,
                 eligible_s=600.0, warm_s=90.0, chunk_s=80.0, sample_s=240.0, churn_agents=30),
    "toy": dict(people=24, gateways=2, brokers=3, friends=2, horizon_s=400.0,
                eligible_s=100.0, warm_s=70.0, chunk_s=20.0, sample_s=60.0, churn_agents=12),
}
START_S = 13 * 3600.0
PUBLISH_SHARE = 0.85  # of --seconds; the rest is the control phase
SERVICE = "service"


def event_key(event) -> tuple:
    """Identity of a sensor reading or a suggestion, stable across runs."""
    return (
        event["type"], event.get("service", ""), event.get("subject", event.get("user", event.get("area", ""))),
        event.get("friend", ""), event["time"],
    )


class Inputs:
    """Everything made from the seed: the program sees only these."""

    def __init__(self, seed: int, sizes: dict) -> None:
        rng = random.Random(f"{NAME}:{seed}")
        self.centre = Position(56.34, -2.79)
        self.city = make_synthetic_city("town", rng, centre=self.centre, streets=12, places=30, span_km=2.0)
        names = [f"person-{i}" for i in range(sizes["people"])]
        self.people = []  # constructor arguments; Person objects are mutable
        self.facts: list[Fact] = []
        for name in names:
            self.people.append(dict(
                name=name,
                position=self.city.random_position(rng),
                nationality="scottish" if rng.random() < 0.5 else "french",
                likes=["ice-cream"] if rng.random() < 0.7 else [],
                knows=[other for other in rng.sample(names, sizes["friends"]) if other != name],
            ))
            for predicate, value in (("free-time", True), ("alert-temp-above", rng.uniform(15.0, 20.0))):
                since = START_S + rng.uniform(-sizes["eligible_s"], sizes["horizon_s"])
                self.facts.append(
                    Fact(name, predicate, value, valid_from=since, valid_to=since + sizes["eligible_s"])
                )


class Workload:
    name = NAME

    def __init__(self, inputs: Inputs, seed: int, sizes: dict, traced: bool = False) -> None:
        self.inputs = inputs
        self.seed = seed
        self.sizes = sizes

    def setup(self) -> None:
        sizes, inputs = self.sizes, self.inputs
        sim = self.sim = Simulator(seed=self.seed)
        sim.run(until=START_S)
        self.net = Network(sim)
        self.brokers = build_broker_tree(sim, self.net, count=sizes["brokers"])
        leaves = self.brokers[1:] or self.brokers

        self.kb = KnowledgeBase()
        self.population = Population(sim)
        for spec in inputs.people:
            person = self.population.add(Person(mobility=RandomWaypoint(inputs.city), **spec))
            for fact in person.profile_facts():
                self.kb.add(fact)
        for fact in inputs.facts:
            self.kb.add(fact)

        services = [IceCreamMeetupService(inputs.city), WeatherAlertService()]
        self.engine = MatchingEngine(sim, self.kb, [rule for s in services for rule in s.build_rules({})])
        # Filled in by measure(); the warm-up runs with the bare loop.
        self.publish_wall: dict = {}
        self.synthesised: dict = {}
        self.trigger_time: dict = {}  # emission time of the reading that completed the join
        self.on_ingested = None
        self.ingress = SienaIngress(sim, self.net, self.brokers[0].position, self.brokers[0], self._service_sink)
        self.service_filters = list(dict.fromkeys(f for s in services for f in s.subscriptions()))
        for filter in self.service_filters:
            self.ingress.subscribe(filter)

        self.gateways = [
            SienaClient(sim, self.net, leaves[i % len(leaves)].position, leaves[i % len(leaves)])
            for i in range(sizes["gateways"])
        ]
        self.agents = []
        self.agent_filters = []
        for i, spec in enumerate(inputs.people):
            broker = self.brokers[i % len(self.brokers)]
            agent = SienaClient(sim, self.net, broker.position, broker)
            filter = Filter(type_is("suggestion"), eq("user", spec["name"]))
            agent.subscribe(filter)
            self.agents.append(agent)
            self.agent_filters.append(filter)
        sim.run_for(2.0)

        self.sensors = []
        self.emitted: list = []  # every reading, in emission order
        for i, person in enumerate(self.population):
            sensor = GpsSensor(sim, person, period_s=30.0)
            sensor.add_sink(self._gateway_sink(self.gateways[i % len(self.gateways)]))
            self.sensors.append(sensor)
        weather = WeatherSensor(sim, inputs.city.name, inputs.centre, base_c=16.0, period_s=60.0)
        weather.add_sink(self._gateway_sink(self.gateways[0]))
        self.sensors.append(weather)
        # Warm-up: every person has reported and the first weather
        # reading is in the windows, so joins run at their steady cost.
        sim.run_for(sizes["warm_s"])
        self.ingress.received.clear()
        for agent in self.agents:
            agent.received.clear()
        self.emitted.clear()

    # The two places harness code sits inside the loop: the sink each
    # sensor pushes into, and the service client's handler.
    def _gateway_sink(self, gateway: SienaClient):
        publish, stamps, emitted, clock = gateway.publish, self.publish_wall, self.emitted, time.perf_counter

        def sink(event) -> None:
            emitted.append(event)
            stamps[id(event)] = clock()
            publish(event)

        return sink

    def _service_sink(self, event) -> None:
        for suggestion in self.engine.ingest(event):
            key = event_key(suggestion)
            self.synthesised[key] = suggestion
            self.trigger_time[key] = event["time"]
            self.ingress.publish(suggestion)
        if self.on_ingested is not None:
            self.on_ingested(event)

    def measure(self, seconds: float, tracer=None) -> Measured:
        sizes, sim = self.sizes, self.sim
        out = Measured()
        if tracer:
            tracer.clear()
        latencies = array("d")
        clock, stamps = time.perf_counter, self.publish_wall
        stamps.clear()

        def on_ingested(event) -> None:
            published = stamps.pop(id(event), None)
            if published is not None:
                latencies.append(clock() - published)

        self.on_ingested = on_ingested
        if tracer:
            # Harness time inside the loop is its own label, so it is not
            # billed to the kernel or the client that called it.
            self.ingress.handlers[0] = tracer.bind(self._service_sink, "harness.handler")
            for sensor in self.sensors:
                sensor.sinks[0] = tracer.bind(sensor.sinks[0], "harness.handler")
        counters = SimCounters(sim, self.net, self.brokers, self.sensors)
        stats = self.engine.stats
        engine_before = {name: getattr(stats, name) for name in _ENGINE_COUNTERS}
        self.measure_from = sim.now
        pace = Pace()
        total = Stopwatch()
        with tracer.span("harness.measure") if tracer else nullcontext():
            publish_until = clock() + seconds * PUBLISH_SHARE
            while clock() < publish_until:
                watch, first, mark = pace.watch(), len(self.emitted), len(latencies)
                sim.run_for(sizes["chunk_s"])
                out.add_chunk(len(self.emitted) - first, watch.stop())
                out.add_latencies(latencies, mark, watch)
            out.events = len(self.emitted)
            self.publish_until = sim.now
            # Control phase: agents take turns dropping and renewing
            # their interest.
            deadline = clock() + seconds * (1.0 - PUBLISH_SHARE)
            turn = 0
            while True:
                watch = pace.watch()
                for i in range(turn, turn + sizes["churn_agents"]):
                    agent, filter = self.agents[i % len(self.agents)], self.agent_filters[i % len(self.agents)]
                    agent.unsubscribe(filter)
                    agent.subscribe(filter)
                sim.run_for(0.5)
                out.control.append((2 * sizes["churn_agents"], watch.stop().seconds))
                turn += sizes["churn_agents"]
                if clock() >= deadline:
                    break
        self.counted = counters.delta()
        self.counted.update(
            {f"engine.{name}": getattr(stats, name) - engine_before[name] for name in _ENGINE_COUNTERS}
        )
        self.on_ingested = None
        return out.finish(total, pace, latencies)

    def check(self) -> Verdict:
        # The sample is what was emitted or synthesised in the first
        # sample_s simulated seconds — far enough from the end that every
        # delivery of it has landed.
        since = self.measure_from
        until = since + min(self.sizes["sample_s"], self.publish_until - since - 5.0)
        oracle = Oracle()
        oracle.expect(
            ((event_key(e), e) for e in self.emitted if e["time"] <= until),
            [(SERVICE, filter) for filter in self.service_filters],
        )
        oracle.expect(
            ((key, s) for key, s in self.synthesised.items() if since < s["time"] <= until),
            list(enumerate(self.agent_filters)),
            publisher=SERVICE,
        )
        return oracle.verify(
            [(SERVICE, [event_key(e) for _, e in self.ingress.received])]
            + [(i, [event_key(s) for _, s in agent.received]) for i, agent in enumerate(self.agents)]
        )

    def counters(self) -> dict[str, float]:
        age = sim_age_p50_ms(
            (received_at, self.trigger_time[event_key(s)])
            for agent in self.agents
            for received_at, s in agent.received
            if event_key(s) in self.trigger_time
        )
        return {**self.counted, "sim.age_p50_ms": age}

    def close(self) -> None:
        pass


_ENGINE_COUNTERS = (
    "events_in", "candidate_joins", "matches", "synthesized", "window_scanned",
    "kb_link_queries", "kb_link_memo_hits",
)
