"""E4 — C1: Elvin's client-server architecture vs the Siena broker network.

"[Elvin] uses a client-server architecture, limiting its scalability.
Siena addresses scalability directly..." (§3).  We sweep the client
population with both systems carrying the same workload (every client
subscribes to its own interest; every client publishes) and compare the
load on the Elvin server against the *most loaded* Siena broker.
"""

from __future__ import annotations

import pytest

from repro.events.broker import SienaClient, build_broker_tree
from repro.events.elvin import ElvinClient, ElvinServer
from repro.events.filters import Filter, eq, type_is
from repro.events.model import make_event
from repro.net import FixedLatency, Network, Position
from repro.simulation import Simulator
from benchmarks._harness import emit, fmt

BROKERS = 13
EVENTS_PER_CLIENT = 4


# Pervasive workloads are local: a user's location events matter to
# services near that user.  Each client's interest is its home locale
# (= its broker's index) plus occasional global events.
def _interest(index: int) -> str:
    return f"locale-{index % BROKERS}"


def _publish_all(population) -> None:
    for index, client in enumerate(population):
        for n in range(EVENTS_PER_CLIENT):
            if n == EVENTS_PER_CLIENT - 1:
                client.publish(make_event("update", topic="global", n=n))
            else:
                client.publish(make_event("update", topic=_interest(index), n=n))


def elvin_load(clients: int) -> dict:
    sim = Simulator(seed=41)
    network = Network(sim, latency=FixedLatency(0.01))
    # indexed=False: E4's architectural comparison measures the central
    # server's un-optimised matching load (match_operations = filters
    # scanned).
    server = ElvinServer(sim, network, Position(0.0, 0.0), indexed=False)
    population = [
        ElvinClient(sim, network, Position(1.0 + i * 0.01, 1.0), server)
        for i in range(clients)
    ]
    for index, client in enumerate(population):
        client.subscribe(Filter(type_is("update"), eq("topic", _interest(index))))
    sim.run_for(5.0)
    _publish_all(population)
    sim.run_for(30.0)
    return {
        "clients": clients,
        "server_messages": server.messages_received,
        "matches_done": server.match_operations,
    }


def siena_load(clients: int) -> dict:
    sim = Simulator(seed=42)
    network = Network(sim, latency=FixedLatency(0.01))
    brokers = build_broker_tree(sim, network, BROKERS)
    population = [
        SienaClient(
            sim, network, Position(1.0 + i * 0.01, 1.0), brokers[i % BROKERS]
        )
        for i in range(clients)
    ]
    for index, client in enumerate(population):
        client.subscribe(Filter(type_is("update"), eq("topic", _interest(index))))
    sim.run_for(5.0)
    _publish_all(population)
    sim.run_for(30.0)
    per_broker = [b.messages_received for b in brokers]
    return {
        "clients": clients,
        "max_broker_messages": max(per_broker),
        "mean_broker_messages": sum(per_broker) / len(per_broker),
        "delivered": sum(len(c.received) for c in population),
    }


@pytest.mark.benchmark(group="e4")
def test_e4_central_server_vs_broker_network(benchmark):
    sweep = [25, 50, 100, 200]

    def run():
        return [(elvin_load(n), siena_load(n)) for n in sweep]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for elvin, siena in results:
        rows.append(
            [
                elvin["clients"],
                elvin["server_messages"],
                siena["max_broker_messages"],
                fmt(elvin["server_messages"] / max(1, siena["max_broker_messages"]), 2),
            ]
        )
    emit(
        "e4_event_scalability",
        f"E4/C1: central Elvin server vs worst Siena broker ({BROKERS} brokers)",
        ["clients", "elvin server msgs", "max siena broker msgs", "ratio"],
        rows,
    )
    # The central server's load grows with the population; the worst
    # broker's load stays a fraction of it, and the gap widens.
    first_ratio = rows[0][1] / max(1, rows[0][2])
    last_ratio = rows[-1][1] / max(1, rows[-1][2])
    assert last_ratio > 2.0
    assert last_ratio >= first_ratio
    # Both systems actually delivered events (sanity).
    for elvin, siena in results:
        assert siena["delivered"] > 0
