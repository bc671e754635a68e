"""A1 — ablation: Siena's covering optimisation on vs off.

DESIGN.md calls out covering relations as the mechanism behind E4's broker
load flattening.  This ablation deploys the same subscription workload —
many narrow per-user filters alongside broad service filters that cover
them — and counts the subscription state and control traffic the broker
network carries with the optimisation enabled and disabled.
"""

from __future__ import annotations

import time

import pytest

from repro.events.broker import SienaClient, build_broker_tree
from repro.events.filters import Filter, eq, gt, type_is
from repro.events.model import make_event
from repro.net import FixedLatency, Network, Position
from repro.simulation import Simulator
from benchmarks._harness import emit, fmt

BROKERS = 13
CLIENTS = 120


def run_workload(covering: bool) -> dict:
    sim = Simulator(seed=131)
    network = Network(sim, latency=FixedLatency(0.01))
    # indexed=False pins this ablation to the seed's naive scan path, so it
    # isolates the covering optimisation itself.
    brokers = build_broker_tree(
        sim, network, BROKERS, covering_enabled=covering, indexed=False
    )
    clients = [
        SienaClient(sim, network, Position(1.0 + i * 0.01, 1.0), brokers[i % BROKERS])
        for i in range(CLIENTS)
    ]
    # A handful of broad service filters...
    for index, client in enumerate(clients[:5]):
        client.subscribe(Filter(type_is("user-location")))
    sim.run_for(5.0)
    # ...then a long tail of narrow ones, each covered by the broad ones.
    for index, client in enumerate(clients[5:]):
        client.subscribe(
            Filter(type_is("user-location"), eq("subject", f"user{index}"))
        )
        client.subscribe(
            Filter(type_is("user-location"), eq("subject", f"user{index}"),
                   gt("accuracy_m", float(index % 7)))
        )
    sim.run_for(20.0)
    forwarded_state = sum(
        len(filters) for b in brokers for filters in b.forwarded.values()
    )
    control_messages = network.stats.messages_sent
    # Sanity: a matching publication still reaches the narrow subscriber.
    target = clients[5]
    publisher = clients[-1]
    publisher.publish(
        make_event("user-location", subject="user0", accuracy_m=9.0, lat=1.0, lon=1.0)
    )
    sim.run_for(5.0)
    return {
        "covering": covering,
        "forwarded_state": forwarded_state,
        "control_messages": control_messages,
        "delivered_ok": len(target.received) > 0,
    }


@pytest.mark.benchmark(group="a1")
def test_a1_covering_ablation(benchmark):
    rows = benchmark.pedantic(
        lambda: [run_workload(False), run_workload(True)], rounds=1, iterations=1
    )
    off, on = rows
    emit(
        "a1_covering_ablation",
        f"A1: covering optimisation, {CLIENTS} clients / {BROKERS} brokers",
        ["covering", "forwarded filters held", "control msgs", "delivery intact"],
        [
            ["off", off["forwarded_state"], off["control_messages"],
             "yes" if off["delivered_ok"] else "NO"],
            ["on", on["forwarded_state"], on["control_messages"],
             "yes" if on["delivered_ok"] else "NO"],
        ],
    )
    # Covering must not break delivery...
    assert on["delivered_ok"] and off["delivered_ok"]
    # ...while slashing both broker state and control traffic.
    assert on["forwarded_state"] < off["forwarded_state"] / 3
    assert on["control_messages"] < off["control_messages"]


# ----------------------------------------------------------------------
# The install: covering queries that the bound test answers
# ----------------------------------------------------------------------
INSTALL_SUBS = 4000


def run_install(subs: int) -> dict:
    """``mesh_churn``'s mesh and advertisements (seed 1), then ``subs`` band
    subscriptions from its inputs subscribed at once and settled.  Counts
    every covering query the posets answer and its exact ``filter_covers``
    checks, split into hits (the filter covered) and misses."""
    from benchmarks.budget import mesh_churn
    from repro.events import build_broker_mesh
    from repro.events.index import CoveringPoset

    sizes = dict(mesh_churn.SIZES["full"], subs=subs)
    inputs = mesh_churn.Inputs(1, sizes)
    sim = Simulator(seed=1)
    network = Network(sim, batched=True)
    brokers = build_broker_mesh(
        sim, network, count=sizes["brokers"], extra_links=sizes["extra_links"],
        adv_pruned=True, batched=True,
    )

    def client(i: int) -> SienaClient:
        broker = brokers[i % len(brokers)]
        return SienaClient(sim, network, broker.position, broker)

    gateways = [client(i) for i in range(sizes["gateways"])]
    users = [client(i) for i in range(sizes["users"])]
    for g, gateway in enumerate(gateways):
        for which in range(sizes["subjects_each"]):
            gateway.advertise(inputs.advert(g, which, sizes))
    sim.run_for(mesh_churn.SETTLE_S)
    counts = {"queries": 0, "checks": 0, "misses": 0}
    originals = {q: getattr(CoveringPoset, q) for q in ("covers_any", "covering", "covered_by")}

    def counted(query):
        def run(poset, filter):
            before = poset.checks
            found = query(poset, filter)
            checks = poset.checks - before
            counts["queries"] += 1
            counts["checks"] += checks
            counts["misses"] += checks - (len(found) if isinstance(found, list) else found)
            return found
        return run

    for name, query in originals.items():
        setattr(CoveringPoset, name, counted(query))
    try:
        began = time.perf_counter()
        for user, filter in inputs.standing:
            users[user].subscribe(filter)
        sim.run_for(mesh_churn.SETTLE_S)
        wall = time.perf_counter() - began
    finally:
        for name, query in originals.items():
            setattr(CoveringPoset, name, query)
    return {**counts, "subs": subs, "subs_per_s": subs / wall}


@pytest.mark.benchmark(group="a1")
def test_a1_install_checks_per_covering_query(benchmark):
    row = benchmark.pedantic(lambda: run_install(INSTALL_SUBS), rounds=1, iterations=1)
    per_query = row["checks"] / row["queries"]
    emit(
        "a1_install",
        f"A1: {INSTALL_SUBS} band subscriptions installed at once on the mesh_churn mesh",
        ["queries", "exact checks", "misses checked", "checks per query", "subscriptions/s"],
        [[row["queries"], row["checks"], row["misses"], fmt(per_query, 3), fmt(row["subs_per_s"], 0)]],
    )
    # Band filters bound one attribute from both sides, so the bound test
    # leaves filter_covers only the filters it accepts (0.084 per query
    # when set; the mask-only pruning it replaced made 9.7).
    assert row["misses"] == 0
    assert per_query < 0.1
