"""E5 — routing: deterministic overlays, and advertisement-pruned brokers.

"Some systems ... rely exclusively on non-deterministic algorithms.  This
means that data cannot always be found, rendering them unsuitable as a base
technology for this work" (§3).  We measure (a) Pastry's hop counts scaling
as log16(N) with 100% delivery, and (b) the Freenet baseline's retrieval
success rate falling with network size at fixed effort.

The third phase prices the broker fabric's advertisement/subscription
interaction: on a producer-sparse tree (every broker subscribes across
many topics, only a corner of the tree produces two of them),
``adv_pruned=True`` forwards dramatically fewer Subscribe messages than
subscription flooding while delivering the identical notifications —
the routing-table upkeep side of Siena's scalability story.

The fourth phase measures fault tolerance: the same workload runs on
the spanning tree and on a mesh (tree + redundant links), ``k`` links
are killed mid-run, and the phase counts the deliveries each topology
sustains afterwards.  The tree partitions and silently loses traffic;
the mesh re-converges over the surviving paths with zero delivery loss,
at the price of the duplicate copies its redundant links carry (the
seen-cache suppresses them; the table prices that overhead).

The fifth phase prices *self-healing*: a link dies at the network level
(nobody calls ``disconnect()``) while a subscription churns inside the
partitioned subtree, then the link revives.  Without a failure detector
the churned subscription is stranded forever — the Subscribe it sent
into the dead link is gone and nothing replays it — so post-heal
deliveries stay lost.  With the heartbeat detector both ends tear the
link down on missed beats and re-join with a full state exchange on the
first returning beat: the phase reports zero post-reconvergence loss
and the time from heal to the first delivery reaching the churned
subscriber.

The sixth phase prices *where* the mesh's redundant links land: the
latency/disjointness-aware planner (``placement="latency"``) against the
uniform-random ablation, on protected tree edges per chord, remaining
bridges (single points of partition) and the latency stretch of the
detours traffic takes when a protected edge dies.

The seventh phase runs adversarial failures against a detector-equipped
mesh: a flapping link (damping must bound restore churn), a correlated
regional outage (every broker in one geographic region goes dark at
once), and a full broker crash + restart.  Each scenario reports the
deliveries lost during the disturbance, the steady-state loss after it
heals (always zero), the time to reconvergence and the detector's
control-message bill.

The eighth phase scales the rendezvous mode (``routing="dht"``) against
flooding and adv_pruned on the same deterministic workload at 100–2000
brokers: per-broker control state (which must grow sublinearly in the
broker count for dht while flooding grows with population) and the hop
stretch rendezvous paths pay relative to direct tree flooding, with
exact zero-delivery-loss invariants across all three modes.

Set ``E5_SMOKE=1`` to run the reduced CI sweep of the broker phases.
"""

from __future__ import annotations

import math
import os

import pytest

from repro.events import placement
from repro.events.broker import (
    SienaClient,
    build_broker_mesh,
    build_broker_tree,
    build_dht_fleet,
)
from repro.events.failure import HeartbeatConfig
from repro.events.filters import Filter, gt, type_is
from repro.events.model import make_event
from repro.ids import guid_from_content, random_guid
from repro.net import FixedLatency, GeographicLatency, Network, Position
from repro.net.geo import AUSTRALIA
from repro.overlay import OverlayApplication, build_freenet, fast_build
from repro.simulation import Simulator
from benchmarks._harness import emit, emit_json, fmt

PROBES = 60
SMOKE = bool(os.environ.get("E5_SMOKE"))
# (brokers, subscribers per broker, publications)
BROKER_SWEEP = [(7, 2, 16), (15, 2, 20)] if SMOKE else [(15, 2, 30), (31, 3, 40)]
# (brokers, subscribers per broker, publications, link kills)
FAULT_SWEEP = [(15, 2, 12, 2)] if SMOKE else [(15, 2, 24, 2), (31, 2, 32, 2)]
# (brokers, subscribers per broker)
SELFHEAL_SWEEP = [(15, 2)] if SMOKE else [(15, 2), (31, 2)]
# (brokers, extra links, bridges the planner may leave: with seed 77 and
# no jitter the graph is fixed, so the bound is the count it reaches)
PLACEMENT_SWEEP = [(15, 4, 0)] if SMOKE else [(15, 4, 0), (31, 6, 4)]
# brokers per adversarial scenario
ADVERSARIAL_SWEEP = [15] if SMOKE else [15, 31]
# Simulated seconds from the end of a disturbance to a victim's first
# delivery: the returning beat, the state exchange, the next publication.
ADVERSARIAL_RECONVERGE_S = {"flap": 1.0, "regional": 1.5, "crash": 2.0}
# broker counts for the dht rendezvous scale phase
DHT_SCALE_SWEEP = [100, 200] if SMOKE else [100, 500, 1000, 2000]
DHT_SCALE_TOPICS = 8
DHT_SCALE_PUBS = 24


class _Collector(OverlayApplication):
    def __init__(self):
        self.deliveries = []

    def on_deliver(self, key, payload, ctx):
        self.deliveries.append((key, ctx.hops))


def pastry_stats(count: int) -> dict:
    sim = Simulator(seed=51)
    network = Network(sim, latency=FixedLatency(0.005))
    nodes = fast_build(sim, network, count)
    collectors = {}
    for node in nodes:
        app = _Collector()
        node.register_app("probe", app)
        collectors[node.addr] = app
    rng = sim.rng_for("probes")
    for _ in range(PROBES):
        key = random_guid(rng)
        nodes[rng.randrange(count)].route(key, "x", "probe")
    sim.run_for(30.0)
    hops = [h for app in collectors.values() for _, h in app.deliveries]
    return {
        "nodes": count,
        "delivered": len(hops),
        "mean_hops": sum(hops) / len(hops) if hops else float("nan"),
        "max_hops": max(hops) if hops else 0,
    }


def freenet_stats(count: int, htl: int = 8) -> dict:
    sim = Simulator(seed=52)
    network = Network(sim, latency=FixedLatency(0.005))
    nodes = build_freenet(sim, network, count, degree=4)
    rng = sim.rng_for("probes")
    outcomes = []
    for index in range(PROBES):
        data = f"object-{index}".encode()
        key = guid_from_content(data)
        nodes[rng.randrange(count)].put(data, key, htl=htl)
        sim.run_for(10.0)
        future = nodes[rng.randrange(count)].get(key, htl=htl)
        future.add_callback(lambda f: outcomes.append(f.exception is None))
        sim.run_for(20.0)
    return {
        "nodes": count,
        "attempted": PROBES,
        "succeeded": sum(outcomes),
        "success_rate": sum(outcomes) / len(outcomes) if outcomes else 0.0,
    }


@pytest.mark.benchmark(group="e5")
def test_e5_pastry_hops_scale_logarithmically(benchmark):
    sizes = [16, 64, 256]
    rows = benchmark.pedantic(
        lambda: [pastry_stats(n) for n in sizes], rounds=1, iterations=1
    )
    emit(
        "e5_pastry_routing",
        f"E5/C2a: Pastry routing, {PROBES} probes per size",
        ["nodes", "delivered", "mean hops", "max hops", "log16(N)"],
        [
            [
                r["nodes"],
                r["delivered"],
                fmt(r["mean_hops"], 2),
                r["max_hops"],
                fmt(math.log(r["nodes"], 16), 2),
            ]
            for r in rows
        ],
    )
    for row in rows:
        # Deterministic: every probe is delivered somewhere authoritative.
        assert row["delivered"] == PROBES
        # Hop counts in the log16 regime (generous constant).
        assert row["mean_hops"] <= 2.5 * math.log(row["nodes"], 16) + 1.5
    assert rows[-1]["mean_hops"] < rows[-1]["nodes"] / 8  # far sublinear


def broker_routing_stats(
    brokers_n: int, subs_per_broker: int, pubs: int, adv_pruned: bool
) -> dict:
    """Subscribe-forwarding cost and deliveries on a producer-sparse tree.

    The same seed drives both modes, so the workload (filters, topics,
    publication contents) is identical; only the forwarding discipline
    differs.
    """
    sim = Simulator(seed=77)
    network = Network(sim, latency=FixedLatency(0.005))
    brokers = build_broker_tree(
        sim, network, brokers_n, branching=2, adv_pruned=adv_pruned
    )
    rng = sim.rng_for("e5-workload")
    topics = [f"topic-{i}" for i in range(8)]
    produced = topics[:2]
    producers = []
    for slot, topic in enumerate(produced):
        client = SienaClient(
            sim, network, Position(5.0, float(slot)), brokers[-1]
        )
        client.advertise(Filter(type_is(topic)))
        producers.append((client, topic))
    sim.run_for(5.0)
    clients = []
    for index, broker in enumerate(brokers):
        for slot in range(subs_per_broker):
            client = SienaClient(
                sim, network, Position(6.0, float((index * 8 + slot) % 180)), broker
            )
            topic = rng.choice(topics)
            if rng.random() < 0.5:
                client.subscribe(
                    Filter(type_is(topic), gt("level", round(rng.uniform(0.0, 5.0), 1)))
                )
            else:
                client.subscribe(Filter(type_is(topic)))
            clients.append(client)
    sim.run_for(10.0)
    subscribe_msgs = sum(b.control_counts["Subscribe"] for b in brokers)
    for seq in range(pubs):
        client, topic = producers[seq % len(producers)]
        client.publish(
            make_event(topic, level=round(rng.uniform(0.0, 8.0), 2), seq=seq)
        )
    sim.run_for(10.0)
    deliveries = [
        sorted(
            tuple(sorted((k, repr(v)) for k, v in n.items()))
            for _, n in client.received
        )
        for client in clients
    ]
    return {
        "brokers": brokers_n,
        "subscriptions": len(clients),
        "subscribe_msgs": subscribe_msgs,
        "delivered": sum(len(d) for d in deliveries),
        "deliveries": deliveries,
    }


@pytest.mark.benchmark(group="e5")
def test_e5_adv_pruned_subscription_routing(benchmark):
    def sweep():
        rows = []
        for brokers_n, subs_per_broker, pubs in BROKER_SWEEP:
            flooded = broker_routing_stats(brokers_n, subs_per_broker, pubs, False)
            pruned = broker_routing_stats(brokers_n, subs_per_broker, pubs, True)
            rows.append((flooded, pruned))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "e5_adv_pruned_routing",
        "E5/adv-sub: Subscribe messages forwarded, flooding vs adv-pruned",
        ["brokers", "subs", "flooded msgs", "pruned msgs", "ratio", "delivered"],
        [
            [
                flooded["brokers"],
                flooded["subscriptions"],
                flooded["subscribe_msgs"],
                pruned["subscribe_msgs"],
                fmt(flooded["subscribe_msgs"] / max(1, pruned["subscribe_msgs"]), 1)
                + "x",
                flooded["delivered"],
            ]
            for flooded, pruned in rows
        ],
    )
    emit_json(
        "e5_adv_pruned_routing",
        {
            "smoke": SMOKE,
            "rows": [
                {
                    "brokers": flooded["brokers"],
                    "subscriptions": flooded["subscriptions"],
                    "flooded_msgs": flooded["subscribe_msgs"],
                    "pruned_msgs": pruned["subscribe_msgs"],
                    "ratio": flooded["subscribe_msgs"]
                    / max(1, pruned["subscribe_msgs"]),
                    "delivered": flooded["delivered"],
                }
                for flooded, pruned in rows
            ],
        },
    )
    for flooded, pruned in rows:
        # Pruning must not change what anyone receives...
        assert pruned["deliveries"] == flooded["deliveries"]
        assert pruned["delivered"] > 0  # ...and the workload really delivers.
        # The acceptance bar: producer-sparse trees forward a seventh of
        # the Subscribe traffic once advertisements prune propagation
        # (message counts are exact per seed: 22x, 7.3x, 14.2x here).
        assert pruned["subscribe_msgs"] * 7 < flooded["subscribe_msgs"]


def mesh_fault_stats(
    brokers_n: int, subs_per_broker: int, pubs: int, kills: int, mesh: bool,
    kill: bool,
) -> dict:
    """Deliveries sustained across link failures, tree vs mesh.

    The producer sits on the deepest leaf; the killed links are the
    uplinks of the ``kills`` deepest leaves (the producer's among them),
    so the tree partitions the producer away from almost everyone.  The
    mesh adds one redundant link per killed uplink (leaf ↔ root), so
    every publication keeps a surviving path.  The same seed drives all
    four variants — the workload is identical, only the topology and
    the failures differ.
    """
    sim = Simulator(seed=77)
    network = Network(sim, latency=FixedLatency(0.005))
    brokers = build_broker_tree(sim, network, brokers_n, branching=2)
    killed_links = [
        (brokers_n - 1 - i, (brokers_n - 2 - i) // 2) for i in range(kills)
    ]
    if mesh:
        for leaf, _ in killed_links:
            brokers[leaf].connect(brokers[0])
    rng = sim.rng_for("e5-fault-workload")
    topics = [f"topic-{i}" for i in range(6)]
    produced = topics[:2]
    producers = []
    for slot, topic in enumerate(produced):
        client = SienaClient(sim, network, Position(5.0, float(slot)), brokers[-1])
        client.advertise(Filter(type_is(topic)))
        producers.append((client, topic))
    sim.run_for(5.0)
    clients = []
    for index, broker in enumerate(brokers):
        for slot in range(subs_per_broker):
            client = SienaClient(
                sim, network, Position(6.0, float((index * 8 + slot) % 180)), broker
            )
            client.subscribe(Filter(type_is(rng.choice(topics))))
            clients.append(client)
    sim.run_for(10.0)

    def publish_batch(start: int, count: int) -> None:
        for seq in range(start, start + count):
            client, topic = producers[seq % len(producers)]
            client.publish(
                make_event(topic, level=round(rng.uniform(0.0, 8.0), 2), seq=seq)
            )
        sim.run_for(10.0)

    publish_batch(0, pubs // 2)
    before = [len(c.received) for c in clients]
    if kill:
        for leaf, parent in killed_links:
            brokers[leaf].disconnect(brokers[parent])
        sim.run_for(5.0)
    publish_batch(pubs // 2, pubs - pubs // 2)
    deliveries = [
        sorted(
            tuple(sorted((k, repr(v)) for k, v in n.items()))
            for _, n in client.received
        )
        for client in clients
    ]
    return {
        "brokers": brokers_n,
        "kills": kills if kill else 0,
        "mesh": mesh,
        "delivered_before": sum(before),
        "delivered_after": sum(len(c.received) for c in clients) - sum(before),
        "deliveries": deliveries,
        "duplicates_suppressed": sum(b.duplicates_suppressed for b in brokers),
        "notifications_processed": sum(b.notifications_processed for b in brokers),
    }


@pytest.mark.benchmark(group="e5")
def test_e5_mesh_fault_tolerance(benchmark):
    def sweep():
        rows = []
        for brokers_n, subs_per_broker, pubs, kills in FAULT_SWEEP:
            control = mesh_fault_stats(
                brokers_n, subs_per_broker, pubs, kills, mesh=False, kill=False
            )
            tree_killed = mesh_fault_stats(
                brokers_n, subs_per_broker, pubs, kills, mesh=False, kill=True
            )
            mesh_intact = mesh_fault_stats(
                brokers_n, subs_per_broker, pubs, kills, mesh=True, kill=False
            )
            mesh_killed = mesh_fault_stats(
                brokers_n, subs_per_broker, pubs, kills, mesh=True, kill=True
            )
            rows.append((control, tree_killed, mesh_intact, mesh_killed))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = []
    json_rows = []
    for control, tree_killed, mesh_intact, mesh_killed in rows:
        lost_tree = control["delivered_after"] - tree_killed["delivered_after"]
        lost_mesh = control["delivered_after"] - mesh_killed["delivered_after"]
        dup_overhead = mesh_killed["duplicates_suppressed"] / max(
            1, mesh_killed["notifications_processed"]
        )
        table.append(
            [
                control["brokers"],
                mesh_killed["kills"],
                control["delivered_after"],
                tree_killed["delivered_after"],
                mesh_killed["delivered_after"],
                lost_tree,
                lost_mesh,
                mesh_killed["duplicates_suppressed"],
                fmt(dup_overhead, 2),
            ]
        )
        json_rows.append(
            {
                "brokers": control["brokers"],
                "kills": mesh_killed["kills"],
                "delivered_after_control": control["delivered_after"],
                "delivered_after_tree_killed": tree_killed["delivered_after"],
                "delivered_after_mesh_killed": mesh_killed["delivered_after"],
                "lost_tree": lost_tree,
                "lost_mesh": lost_mesh,
                "duplicates_suppressed": mesh_killed["duplicates_suppressed"],
                "duplicate_overhead": dup_overhead,
            }
        )
    emit(
        "e5_mesh_fault_tolerance",
        f"E5/fault: deliveries sustained across link kills "
        f"(post-kill publications, {'smoke' if SMOKE else 'full'} sweep)",
        ["brokers", "kills", "control", "tree killed", "mesh killed",
         "lost (tree)", "lost (mesh)", "dups dropped", "dups/processed"],
        table,
    )
    emit_json("e5_mesh_fault_tolerance", {"smoke": SMOKE, "rows": json_rows})
    for control, tree_killed, mesh_intact, mesh_killed in rows:
        # Redundant links alone change nothing: no duplicates reach
        # clients, no deliveries go missing.
        assert mesh_intact["deliveries"] == control["deliveries"]
        # The tree partitions: the producer's leaf is cut off, so the
        # post-kill batch reaches (almost) nobody.
        assert tree_killed["delivered_after"] < control["delivered_after"]
        # The mesh survives every kill with zero delivery loss.
        assert mesh_killed["deliveries"] == control["deliveries"]
        # The price: redundant copies, all suppressed inside the fabric,
        # at most one for every four notifications a broker processes.
        assert 0 < mesh_killed["duplicates_suppressed"] * 4 <= (
            mesh_killed["notifications_processed"]
        )


def selfheal_stats(brokers_n: int, subs_per_broker: int, detector: bool,
                   fail: bool) -> dict:
    """Deliveries across a network-level link kill + heal, ± detector.

    The uplink of broker 1 (half the tree) dies at FAIL_AT without any
    ``disconnect()`` call and revives at HEAL_AT.  A publication stream
    runs throughout, and one *late* subscriber inside the partitioned
    subtree subscribes mid-outage — the state a healed link must carry
    back.  After the heal settles, a probe batch measures steady-state
    loss; the late subscriber's first post-heal delivery timestamps the
    overlay's reconvergence.
    """
    FAIL_AT, LATE_SUB_AT, HEAL_AT = 15.0, 20.0, 30.0
    STREAM_START, STREAM_STEP, STREAM_COUNT = 10.0, 0.5, 70
    PROBE_START, PROBE_COUNT, END_AT = 50.0, 10, 65.0
    sim = Simulator(seed=77)
    network = Network(sim, latency=FixedLatency(0.005))
    brokers = build_broker_tree(
        sim, network, brokers_n, branching=2,
        heartbeat=HeartbeatConfig(interval=0.5, miss_limit=3) if detector else None,
    )
    rng = sim.rng_for("e5-selfheal-workload")
    topics = [f"topic-{i}" for i in range(4)]
    # topic-late is produced but only the late subscriber ever wants it,
    # so no pre-outage routing state can mask the mid-outage Subscribe.
    produced = topics[:2] + ["topic-late"]
    producers = []
    for slot, topic in enumerate(produced):
        client = SienaClient(sim, network, Position(5.0, float(slot)), brokers[2])
        client.advertise(Filter(type_is(topic)))
        producers.append((client, topic))
    sim.run_for(5.0)
    clients = []
    for index, broker in enumerate(brokers):
        for slot in range(subs_per_broker):
            client = SienaClient(
                sim, network, Position(6.0, float((index * 8 + slot) % 180)), broker
            )
            client.subscribe(Filter(type_is(rng.choice(topics))))
            clients.append(client)
    # The late subscriber sits deep inside the subtree the kill cuts off.
    late_sub = SienaClient(sim, network, Position(7.0, 0.0), brokers[7])
    clients.append(late_sub)
    sim.run_for(5.0)  # now at t=10

    for seq in range(STREAM_COUNT):
        client, topic = producers[seq % len(producers)]
        sim.schedule_at(
            STREAM_START + seq * STREAM_STEP, client.publish,
            make_event(topic, level=round(rng.uniform(0.0, 8.0), 2), seq=seq),
        )
    for offset in range(PROBE_COUNT):
        client, topic = producers[offset % len(producers)]
        sim.schedule_at(
            PROBE_START + offset * STREAM_STEP, client.publish,
            make_event(topic, level=round(rng.uniform(0.0, 8.0), 2),
                       seq=9000 + offset),
        )
    sim.schedule_at(LATE_SUB_AT, late_sub.subscribe, Filter(type_is("topic-late")))
    if fail:
        sim.schedule_at(
            FAIL_AT, network.fail_link, brokers[1].addr, brokers[0].addr
        )
        sim.schedule_at(
            HEAL_AT, network.heal_link, brokers[1].addr, brokers[0].addr
        )
    sim.run(until=END_AT)

    def seq_window(client, low, high):
        return sorted(
            n["seq"] for _, n in client.received if low <= n["seq"] < high
        )

    outage_lo = int((FAIL_AT - STREAM_START) / STREAM_STEP)
    outage_hi = int((HEAL_AT - STREAM_START) / STREAM_STEP)
    reconverge = next(
        (at - HEAL_AT for at, _ in late_sub.received if at > HEAL_AT), None
    )
    return {
        "brokers": brokers_n,
        "detector": detector,
        "outage": [seq_window(c, outage_lo, outage_hi) for c in clients],
        "probes": [seq_window(c, 9000, 9000 + PROBE_COUNT) for c in clients],
        "reconverge_s": reconverge,
    }


@pytest.mark.benchmark(group="e5")
def test_e5_selfheal_time(benchmark):
    def sweep():
        rows = []
        for brokers_n, subs_per_broker in SELFHEAL_SWEEP:
            for detector in (False, True):
                control = selfheal_stats(
                    brokers_n, subs_per_broker, detector, fail=False
                )
                healed = selfheal_stats(
                    brokers_n, subs_per_broker, detector, fail=True
                )
                rows.append((control, healed))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = []
    json_rows = []
    for control, healed in rows:
        lost_outage = sum(len(c) for c in control["outage"]) - sum(
            len(c) for c in healed["outage"]
        )
        lost_after_heal = sum(len(c) for c in control["probes"]) - sum(
            len(c) for c in healed["probes"]
        )
        reconverge = healed["reconverge_s"]
        table.append(
            [
                control["brokers"],
                "yes" if healed["detector"] else "no",
                lost_outage,
                lost_after_heal,
                "never" if reconverge is None else fmt(reconverge, 2) + "s",
            ]
        )
        json_rows.append(
            {
                "brokers": control["brokers"],
                "detector": healed["detector"],
                "lost_during_outage": lost_outage,
                "lost_after_heal": lost_after_heal,
                "reconverge_s": reconverge,
            }
        )
    emit(
        "e5_selfheal",
        "E5/self-heal: network-level link kill + heal, with vs without the "
        f"failure detector ({'smoke' if SMOKE else 'full'} sweep)",
        ["brokers", "detector", "lost (outage)", "lost (post-heal)",
         "reconverge"],
        table,
    )
    emit_json("e5_selfheal", {"smoke": SMOKE, "rows": json_rows})
    for control, healed in rows:
        # The partition is real: both variants lose traffic while the
        # link is down (those publications are gone either way).
        lost_outage = sum(len(c) for c in control["outage"]) - sum(
            len(c) for c in healed["outage"]
        )
        assert lost_outage > 0
        lost_after_heal = sum(len(c) for c in control["probes"]) - sum(
            len(c) for c in healed["probes"]
        )
        if healed["detector"]:
            # The headline claim: a detector-healed overlay loses nothing
            # once reconverged, and reconvergence is fast: the returning
            # beat, the state exchange and the next topic-late publication
            # (one every 1.5 s) fit inside five 0.5 s beats.
            assert lost_after_heal == 0
            assert healed["probes"] == control["probes"]
            assert healed["reconverge_s"] is not None
            assert healed["reconverge_s"] < 2.5
        else:
            # The ablation: without the detector the mid-outage
            # subscription is stranded — post-heal loss never recovers.
            assert lost_after_heal > 0


def mesh_edges(brokers) -> list[tuple[int, int]]:
    return sorted(
        (i, j)
        for i in range(len(brokers))
        for j in range(i + 1, len(brokers))
        if brokers[j].addr in brokers[i].neighbours
    )


def placement_stats(brokers_n: int, extra: int, policy: str) -> dict:
    """Graph quality of the mesh a placement policy builds.

    ``protected`` counts tree edges on some chord's cycle (survivable
    kills), ``bridges`` the edges whose death still partitions the
    overlay, and ``mean_detour_stretch`` the average latency factor
    traffic pays routing around a protected tree edge.
    """
    sim = Simulator(seed=77)
    network = Network(sim, latency=GeographicLatency(jitter_frac=0.0))
    brokers = build_broker_mesh(
        sim, network, brokers_n, branching=2, extra_links=extra,
        placement=policy,
    )
    edges = mesh_edges(brokers)
    tree_edges = [(index, (index - 1) // 2) for index in range(1, brokers_n)]
    tree_set = {frozenset(e) for e in tree_edges}
    chords = [e for e in edges if frozenset(e) not in tree_set]
    paths = placement.tree_paths(brokers_n, tree_edges)
    protected = placement.protected_edges(chords, paths)
    positions = [broker.position for broker in brokers]
    stretches = placement.detour_stretch(positions, edges, network.latency)
    covered = [
        stretches[edge] for edge in sorted(protected, key=sorted)
        if edge in stretches and edge in tree_set
    ]
    return {
        "brokers": brokers_n,
        "extra": extra,
        "policy": policy,
        "protected": len(protected),
        "tree_edges": len(tree_edges),
        "bridges": len(placement.bridges(brokers_n, edges)),
        "resilience_per_link": len(protected) / max(1, extra),
        "mean_detour_stretch": (
            sum(covered) / len(covered) if covered else float("nan")
        ),
    }


@pytest.mark.benchmark(group="e5")
def test_e5_placement_quality(benchmark):
    def sweep():
        rows = []
        for brokers_n, extra, _ in PLACEMENT_SWEEP:
            rows.append(
                (
                    placement_stats(brokers_n, extra, "latency"),
                    placement_stats(brokers_n, extra, "random"),
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "e5_placement",
        "E5/placement: latency-aware vs random chord placement "
        f"({'smoke' if SMOKE else 'full'} sweep)",
        ["brokers", "chords", "policy", "protected", "bridges",
         "resil/link", "detour stretch"],
        [
            [
                row["brokers"],
                row["extra"],
                row["policy"],
                f"{row['protected']}/{row['tree_edges']}",
                row["bridges"],
                fmt(row["resilience_per_link"], 2),
                fmt(row["mean_detour_stretch"], 2),
            ]
            for pair in rows
            for row in pair
        ],
    )
    emit_json(
        "e5_placement",
        {
            "smoke": SMOKE,
            "rows": [
                {
                    "brokers": latency_row["brokers"],
                    "extra": latency_row["extra"],
                    "latency": latency_row,
                    "random": random_row,
                }
                for latency_row, random_row in rows
            ],
        },
    )
    for (latency_row, random_row), (_, _, max_bridges) in zip(rows, PLACEMENT_SWEEP):
        # The planner never buys less protection than random chance...
        assert latency_row["protected"] >= random_row["protected"]
        assert latency_row["bridges"] <= random_row["bridges"]
        # ...each planned chord protects at least a 3-edge tree path...
        assert latency_row["protected"] >= 3 * latency_row["extra"]
        # ...and no more single points of partition are left than planned.
        assert latency_row["bridges"] <= max_bridges


def adversarial_stats(brokers_n: int, scenario: str, fail: bool) -> dict:
    """Deliveries across one adversarial failure scenario, ± the failure.

    A detector-equipped mesh carries a publication stream while the
    scenario runs between FAIL_AT and HEAL_AT: ``flap`` bounces the
    root's busiest uplink, ``regional`` drops every message touching a
    broker inside AUSTRALIA, ``crash`` takes a subtree-root broker down
    entirely and revives it.  A probe batch after everything settles
    measures steady-state loss; detector counters price the control
    traffic and the restore churn.
    """
    FAIL_AT, HEAL_AT = 15.0, 30.0
    STREAM_START, STREAM_STEP, STREAM_COUNT = 10.0, 0.5, 60
    PROBE_START, PROBE_COUNT, END_AT = 50.0, 12, 65.0
    sim = Simulator(seed=77)
    network = Network(sim, latency=FixedLatency(0.005))
    brokers = build_broker_mesh(
        sim, network, brokers_n, branching=2, extra_links=4,
        heartbeat=HeartbeatConfig(interval=0.5, miss_limit=3, hold_down=6.0),
    )
    rng = sim.rng_for("e5-adversarial-workload")
    topics = ["topic-0", "topic-1"]
    producers = []
    for slot, topic in enumerate(topics):
        # Latitude 0 sits outside every geographic region, so clients
        # never share the regional scenario's outage with their broker.
        client = SienaClient(sim, network, Position(0.0, float(slot)), brokers[0])
        client.advertise(Filter(type_is(topic)))
        producers.append((client, topic))
    sim.run_for(5.0)
    if scenario == "regional":
        victims = [
            index for index, broker in enumerate(brokers)
            if AUSTRALIA.contains(broker.position)
        ]
    else:
        victims = [1]
    victim_set = set(victims)
    victim_links = sum(
        1 for i, j in mesh_edges(brokers) if i in victim_set or j in victim_set
    )
    clients = []
    for index, broker in enumerate(brokers):
        for slot in range(2):
            client = SienaClient(
                sim, network,
                Position(0.0, float(10 + (index * 4 + slot) % 170)), broker,
            )
            client.subscribe(Filter(type_is(rng.choice(topics))))
            clients.append((index, client))
    sim.run_for(5.0)  # now at t=10
    for seq in range(STREAM_COUNT):
        client, topic = producers[seq % len(producers)]
        sim.schedule_at(
            STREAM_START + seq * STREAM_STEP, client.publish,
            make_event(topic, level=round(rng.uniform(0.0, 8.0), 2), seq=seq),
        )
    for offset in range(PROBE_COUNT):
        client, topic = producers[offset % len(producers)]
        sim.schedule_at(
            PROBE_START + offset * STREAM_STEP, client.publish,
            make_event(topic, level=round(rng.uniform(0.0, 8.0), 2),
                       seq=9000 + offset),
        )
    if fail:
        if scenario == "flap":
            a, b = brokers[1].addr, brokers[0].addr
            at = FAIL_AT
            while at + 3.0 < HEAL_AT:  # 3s down, 2.5s up, repeat
                sim.schedule_at(at, network.fail_link, a, b)
                sim.schedule_at(at + 3.0, network.heal_link, a, b)
                at += 5.5
        elif scenario == "regional":
            sim.schedule_at(FAIL_AT, network.fail_region, AUSTRALIA)
            sim.schedule_at(HEAL_AT, network.heal_region, AUSTRALIA)
        elif scenario == "crash":
            sim.schedule_at(FAIL_AT, brokers[1].crash)
            sim.schedule_at(HEAL_AT, brokers[1].recover)
        else:
            raise ValueError(f"unknown scenario {scenario!r}")
    sim.run(until=END_AT)

    def seq_window(client, low, high):
        return sorted(
            n["seq"] for _, n in client.received if low <= n["seq"] < high
        )

    outage_lo = int((FAIL_AT - STREAM_START) / STREAM_STEP)
    outage_hi = int((HEAL_AT - STREAM_START) / STREAM_STEP)
    reconverge = min(
        (
            at - HEAL_AT
            for index, client in clients
            if index in victim_set
            for at, _ in client.received
            if at > HEAL_AT
        ),
        default=None,
    )
    detectors = [broker.failure_detector for broker in brokers]
    return {
        "brokers": brokers_n,
        "scenario": scenario,
        "outage": [seq_window(c, outage_lo, outage_hi) for _, c in clients],
        "probes": [seq_window(c, 9000, 9000 + PROBE_COUNT) for _, c in clients],
        "reconverge_s": reconverge,
        "victim_links": victim_links,
        "declared_dead": sum(d.links_declared_dead for d in detectors),
        "restores": sum(d.links_restored for d in detectors),
        "quarantines": sum(d.links_quarantined for d in detectors),
        "control_msgs": sum(d.heartbeats_sent for d in detectors),
        "probes_sent": sum(d.probes_sent for d in detectors),
    }


@pytest.mark.benchmark(group="e5")
def test_e5_adversarial_failures(benchmark):
    def sweep():
        rows = []
        for brokers_n in ADVERSARIAL_SWEEP:
            for scenario in ("flap", "regional", "crash"):
                control = adversarial_stats(brokers_n, scenario, fail=False)
                failed = adversarial_stats(brokers_n, scenario, fail=True)
                rows.append((control, failed))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = []
    json_rows = []
    for control, failed in rows:
        lost_during = sum(len(c) for c in control["outage"]) - sum(
            len(c) for c in failed["outage"]
        )
        lost_after = sum(len(c) for c in control["probes"]) - sum(
            len(c) for c in failed["probes"]
        )
        reconverge = failed["reconverge_s"]
        table.append(
            [
                failed["brokers"],
                failed["scenario"],
                lost_during,
                lost_after,
                "never" if reconverge is None else fmt(reconverge, 2) + "s",
                failed["restores"],
                failed["quarantines"],
                failed["control_msgs"],
            ]
        )
        json_rows.append(
            {
                "brokers": failed["brokers"],
                "scenario": failed["scenario"],
                "lost_during_outage": lost_during,
                "lost_after_heal": lost_after,
                "reconverge_s": reconverge,
                "declared_dead": failed["declared_dead"],
                "restores": failed["restores"],
                "quarantines": failed["quarantines"],
                "control_msgs": failed["control_msgs"],
                "probes_sent": failed["probes_sent"],
            }
        )
    emit(
        "e5_adversarial",
        "E5/adversarial: flap / regional / crash+restart on a detector "
        f"mesh ({'smoke' if SMOKE else 'full'} sweep)",
        ["brokers", "scenario", "lost (during)", "lost (after)",
         "reconverge", "restores", "quarantined", "control msgs"],
        table,
    )
    emit_json("e5_adversarial", {"smoke": SMOKE, "rows": json_rows})
    for control, failed in rows:
        # A quiet mesh never declares anyone dead (no false positives).
        assert control["declared_dead"] == 0
        # Every scenario is actually detected...
        assert failed["declared_dead"] >= 1
        # ...heals back to zero steady-state loss...
        assert failed["probes"] == control["probes"]
        # ...and reconverges promptly once the disturbance ends.
        assert failed["reconverge_s"] is not None
        assert failed["reconverge_s"] < ADVERSARIAL_RECONVERGE_S[failed["scenario"]]
        # Detection is not paid for in heartbeats: a dead link is probed
        # (counted apart), so the bill never exceeds the quiet mesh's.
        assert failed["control_msgs"] <= control["control_msgs"]
        if failed["scenario"] == "flap":
            # Damping bounds restore churn: at most one restore per end
            # per up-window (3 cycles), and the quarantine engages.
            assert failed["restores"] <= 8
            assert failed["quarantines"] >= 1
        else:
            # One outage, one restore per end of each link it silenced.
            assert failed["restores"] <= 2 * failed["victim_links"]


@pytest.mark.benchmark(group="e5")
def test_e5_freenet_retrieval_degrades(benchmark):
    sizes = [32, 128, 512]
    rows = benchmark.pedantic(
        lambda: [freenet_stats(n) for n in sizes], rounds=1, iterations=1
    )
    emit(
        "e5_freenet_routing",
        f"E5/C2b: Freenet-style retrieval at fixed HTL, {PROBES} probes per size",
        ["nodes", "attempted", "succeeded", "success rate"],
        [
            [r["nodes"], r["attempted"], r["succeeded"], fmt(r["success_rate"], 2)]
            for r in rows
        ],
    )
    # Non-deterministic: success is partial and degrades with scale.
    assert rows[0]["success_rate"] > rows[-1]["success_rate"]
    assert rows[-1]["success_rate"] < 1.0


def dht_scale_stats(count: int, mode: str) -> dict:
    """One routing mode over the shared deterministic scale workload.

    The workload never reads the topology: producer/subscriber homes and
    topic assignments are pure functions of ``(index, count)``, so the
    flood, adv_pruned and dht runs see identical traffic and their
    delivered counts are directly comparable (the zero-loss asserts).
    Publications carry ``time=sim.now`` and the network runs a fixed
    per-hop latency, so ``recv_time - time`` measures path length — the
    hop-stretch metric — without instrumenting any broker.
    """
    sim = Simulator(seed=91)
    network = Network(sim, latency=FixedLatency(0.005))
    if mode == "dht":
        brokers = build_dht_fleet(sim, network, count)
    else:
        brokers = build_broker_tree(
            sim,
            network,
            count,
            branching=3,
            indexed=True,
            adv_pruned=(mode == "adv_pruned"),
        )
    topics = [f"topic-{i}" for i in range(DHT_SCALE_TOPICS)]
    producers = []
    for slot in range(4):
        home = brokers[(slot * 104729 + 11) % count]
        client = SienaClient(sim, network, Position(5.0, float(slot)), home)
        # Producer ``slot`` publishes the seqs with seq % 4 == slot,
        # whose topics cycle through {slot, slot + 4}.
        for topic in (topics[slot], topics[slot + 4]):
            client.advertise(Filter(type_is(topic)))
        producers.append(client)
    sim.run_for(5.0)  # advertisements settle before interest arrives
    subscribers = []
    for index in range(max(8, count // 10)):
        home = brokers[(index * 7919 + 3) % count]
        client = SienaClient(
            sim, network, Position(6.0, float(index % 180)), home
        )
        client.subscribe(Filter(type_is(topics[index % DHT_SCALE_TOPICS])))
        subscribers.append(client)
    sim.run_for(10.0)  # subscription propagation / tree grafting converges
    for seq in range(DHT_SCALE_PUBS):
        producers[seq % 4].publish(
            make_event(topics[seq % DHT_SCALE_TOPICS], time=sim.now, seq=seq)
        )
        sim.run_for(0.5)
    sim.run_for(10.0)
    states = [b.control_state_size() for b in brokers]
    ages = [
        recv_time - n["time"]
        for client in subscribers
        for recv_time, n in client.received
    ]
    return {
        "mode": mode,
        "brokers": count,
        "delivered": sum(len(c.received) for c in subscribers),
        "mean_state": sum(states) / len(states),
        "max_state": max(states),
        "mean_age": sum(ages) / len(ages) if ages else float("nan"),
    }


@pytest.mark.benchmark(group="e5")
def test_e5_dht_rendezvous_scale(benchmark):
    def sweep():
        return [
            {
                mode: dht_scale_stats(count, mode)
                for mode in ("flood", "adv_pruned", "dht")
            }
            for count in DHT_SCALE_SWEEP
        ]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = []
    json_rows = []
    for per_mode in rows:
        flood = per_mode["flood"]
        dht = per_mode["dht"]
        stretch = dht["mean_age"] / flood["mean_age"]
        json_rows.append(
            {
                "brokers": flood["brokers"],
                "flood": flood,
                "adv_pruned": per_mode["adv_pruned"],
                "dht": dht,
                "hop_stretch": stretch,
            }
        )
        for stats in (flood, per_mode["adv_pruned"], dht):
            table.append(
                [
                    stats["brokers"],
                    stats["mode"],
                    stats["delivered"],
                    fmt(stats["mean_state"], 1),
                    stats["max_state"],
                    fmt(stats["mean_age"] * 1000, 2),
                    fmt(stretch, 2) if stats is dht else "",
                ]
            )
    emit(
        "e5_dht_scale",
        "E5/dht: rendezvous routing vs flooding — control state and hop "
        f"stretch ({'smoke' if SMOKE else 'full'} sweep)",
        ["brokers", "mode", "delivered", "mean state", "max state",
         "mean age (ms)", "stretch vs flood"],
        table,
    )
    emit_json("e5_dht_scale", {"smoke": SMOKE, "rows": json_rows})
    for row in json_rows:
        # Zero loss: rendezvous delivers exactly what flooding delivers.
        assert row["dht"]["delivered"] == row["flood"]["delivered"]
        assert row["adv_pruned"]["delivered"] == row["flood"]["delivered"]
        assert row["flood"]["delivered"] > 0
        # Through the rendezvous root is no longer than along the flooded
        # tree (mean delivery age under a fixed per-hop latency).
        assert row["hop_stretch"] <= 1.0
    # Per-broker control state grows strictly sublinearly in broker count
    # under dht routing — the whole point of rendezvous trees.
    first, last = json_rows[0], json_rows[-1]
    state_ratio = last["dht"]["mean_state"] / first["dht"]["mean_state"]
    assert state_ratio < last["brokers"] / first["brokers"]
