"""ActiveArchitecture: every subsystem of the paper, assembled and wired."""

from __future__ import annotations

import math

from repro.cingal.bundle import make_bundle
from repro.cingal.thin_server import ThinServer
from repro.events.broker import BrokerNode, SienaClient, build_broker_tree
from repro.events.filters import Filter, eq, type_is
from repro.events.model import Notification, make_event
from repro.evolution.advertisement import CONTROL_EVENT_TYPES, ResourceAdvertiser
from repro.evolution.engine import EvolutionEngine
from repro.evolution.monitor import HeartbeatMonitor
from repro.knowledge.distributed import DistributedKnowledgeBase
from repro.knowledge.facts import Fact
from repro.matching.matchlet import KbUpdateApplier, Matchlet, default_rule_registry
from repro.net.geo import Position
from repro.net.network import Network
from repro.overlay.pastry import PastryNode, fast_build
from repro.pipelines.assembly import DeploymentAgent
from repro.pipelines.component import Probe
from repro.gis.places import Place
from repro.sensors.city import City
from repro.sensors.devices import GpsSensor, GsmCell, RfidReader, WeatherSensor
from repro.sensors.people import Person, Population
from repro.services.infrastructure import (
    ContextualService,
    ServiceRuntime,
    SienaEgress,
    SienaIngress,
)
from repro.simulation import Future, Simulator
from repro.storage.service import StorageService, attach_storage
from repro.core.config import ArchitectureConfig


class ActiveArchitecture:
    """Builds the full stack and offers the service-developer API (§4.8)."""

    def __init__(self, config: ArchitectureConfig | None = None):
        self.config = config or ArchitectureConfig()
        cfg = self.config
        self.sim = Simulator(seed=cfg.seed)
        self.network = Network(self.sim, loss_rate=cfg.loss_rate)

        # -- storage substrate: Pastry overlay + PAST-style storage -------
        self.overlay_nodes: list[PastryNode] = fast_build(
            self.sim, self.network, cfg.overlay_nodes
        )
        self.storage_services: list[StorageService] = attach_storage(
            self.overlay_nodes, cfg.storage
        )

        # -- event substrate: Siena broker tree ----------------------------
        self.brokers: list[BrokerNode] = build_broker_tree(
            self.sim, self.network, cfg.brokers, cfg.broker_branching
        )

        # -- deployment substrate: thin servers, one beside each broker ----
        self.servers: list[ThinServer] = [
            ThinServer(self.sim, self.network, broker.position, cfg.deploy_key)
            for broker in self.brokers
        ]
        self.agent = DeploymentAgent(
            self.sim, self.network, self.brokers[0].position
        )

        # -- control plane: advertisement, monitoring, evolution ----------
        self.control_client = SienaClient(
            self.sim, self.network, self.brokers[0].position, self.brokers[0]
        )
        # The monitor publishes through its own client: a broker never
        # echoes a publication back to its source, so publishing and
        # subscribing on one client would lose the failure events.
        self.monitor_client = SienaClient(
            self.sim, self.network, self.brokers[0].position, self.brokers[0]
        )
        self.monitor = HeartbeatMonitor(
            self.sim, self.monitor_client.publish, cfg.suspect_after_s
        )
        self.evolution = EvolutionEngine(
            self.sim, self.agent, self.monitor, cfg.deploy_key
        )
        for event_type in CONTROL_EVENT_TYPES:
            self.control_client.subscribe(Filter(type_is(event_type)))
        self.control_client.handlers.append(self._control_event)
        self.advertisers: list[ResourceAdvertiser] = []
        for index, server in enumerate(self.servers):
            client = SienaClient(
                self.sim, self.network, server.position, self.brokers[index]
            )
            self.advertisers.append(
                ResourceAdvertiser(
                    self.sim,
                    node_id=f"server-{index}",
                    addr=server.addr,
                    position=server.position,
                    publish=client.publish,
                    period_s=cfg.advertise_period_s,
                )
            )

        # -- knowledge substrate -------------------------------------------
        self.dkb = DistributedKnowledgeBase(
            self.storage_services[0], publish_update=self._publish_kb_update
        )
        self.kb_subjects: set[str] = set()
        self.kb_published_keys: set[tuple[str, str]] = set()

        # -- the contextual world --------------------------------------------
        self.cities: list[City] = []
        self.population = Population(self.sim, cfg.population_step_s)
        self.sensors: list = []
        self.services: list[ServiceRuntime] = []
        self.user_agents: dict[str, SienaClient] = {}
        self._next_server = 0

    # ------------------------------------------------------------------
    # Control-plane wiring
    # ------------------------------------------------------------------
    def _control_event(self, event: Notification) -> None:
        self.monitor.on_event(event)
        self.evolution.on_event(event)

    def _publish_kb_update(self, fact: Fact) -> None:
        self.kb_subjects.add(fact.subject)
        self.control_client.publish(
            make_event(
                "kb-update",
                time=self.sim.now,
                subject=fact.subject,
                predicate=fact.predicate,
                value=fact.object,
                valid_from=fact.valid_from if not math.isinf(fact.valid_from) else -1e18,
                valid_to=fact.valid_to if not math.isinf(fact.valid_to) else 1e18,
            )
        )

    def nearest_broker(self, position: Position) -> BrokerNode:
        return min(
            self.brokers, key=lambda b: b.position.distance_km(position)
        )

    # ------------------------------------------------------------------
    # World building
    # ------------------------------------------------------------------
    def add_city(self, city: City, weather_base_c: float = 14.0) -> WeatherSensor:
        """Register a city and give it a weather sensor feeding the events."""
        self.cities.append(city)
        centre = city.region.centre
        gateway = SienaClient(
            self.sim, self.network, centre, self.nearest_broker(centre)
        )
        sensor = WeatherSensor(
            self.sim,
            area=city.name,
            position=centre,
            base_c=weather_base_c,
            period_s=self.config.weather_period_s,
        )
        sensor.add_sink(gateway.publish)
        self.sensors.append(sensor)
        return sensor

    def add_person(self, person: Person) -> GpsSensor:
        """Add a person with a GPS device publishing location events."""
        self.population.add(person)
        gateway = SienaClient(
            self.sim,
            self.network,
            person.position,
            self.nearest_broker(person.position),
        )
        sensor = GpsSensor(
            self.sim, person, period_s=self.config.gps_period_s
        )
        sensor.add_sink(gateway.publish)
        self.sensors.append(sensor)
        return sensor

    def add_rfid_reader(self, place: Place, radius_m: float = 25.0) -> RfidReader:
        """Install a doorway RFID reader at a place, publishing sightings."""
        gateway = SienaClient(
            self.sim,
            self.network,
            place.position,
            self.nearest_broker(place.position),
        )
        sensor = RfidReader(
            self.sim,
            place.name,
            place.position,
            self.population,
            radius_m=radius_m,
        )
        sensor.add_sink(gateway.publish)
        self.sensors.append(sensor)
        return sensor

    def add_gsm_cell(
        self, city: City, name: str, position: Position, radius_km: float = 2.0
    ) -> GsmCell:
        """Install a GSM cell reporting coarse logical locations."""
        gateway = SienaClient(
            self.sim, self.network, position, self.nearest_broker(position)
        )
        sensor = GsmCell(
            self.sim,
            name,
            position,
            self.population,
            city.street_map,
            radius_km=radius_km,
        )
        sensor.add_sink(gateway.publish)
        self.sensors.append(sensor)
        return sensor

    def decommission_server(self, index: int) -> None:
        """Gracefully withdraw a thin server (§4.4).

        The node announces its imminent departure on the event system, so
        the monitoring engine marks it down *before* it disappears and the
        evolution engine can repair placements immediately — no suspicion
        timeout involved.
        """
        self.advertisers[index].announce_departure()
        # Go dark shortly after the announcement is on the wire.
        self.sim.schedule(1.0, self.servers[index].crash)

    def publish_facts(self, facts: list[Fact]) -> Future:
        """Store facts in the global KB and broadcast kb-update events."""
        for fact in facts:
            self.kb_subjects.add(fact.subject)
            self.kb_published_keys.add((fact.subject, fact.predicate))
        return self.dkb.store_facts(facts)

    # ------------------------------------------------------------------
    # Service deployment (the Figure 3 path, end to end)
    # ------------------------------------------------------------------
    def deploy_service(
        self, service: ContextualService, server_index: int | None = None
    ) -> ServiceRuntime:
        """Deploy a service: matchlet bundle, subscriptions, KB hydration."""
        if server_index is None:
            server_index = self._next_server % len(self.servers)
            self._next_server += 1
        server = self.servers[server_index]

        extras = {"cities": self.cities}
        rules = service.build_rules(extras)
        qualified = []
        for rule in rules:
            qualified_name = f"{service.name}:{rule.name}"
            default_rule_registry.replace(
                qualified_name, lambda ctx, params, rule=rule: rule
            )
            qualified.append(qualified_name)

        bundle = make_bundle(
            name=f"matchlet:{service.name}",
            component="matchlet",
            params={"rules": ",".join(qualified)},
            key=self.config.deploy_key,
        )
        ack = self.settle(self.agent.fire(server.addr, bundle))
        if not ack.ok:
            raise RuntimeError(f"service deployment refused: {ack.error}")
        matchlet = server.components[bundle.name]
        assert isinstance(matchlet, Matchlet)

        # Seed facts the service contributes, then hydrate its KB replica.
        seed = service.seed_facts()
        if seed:
            self.settle(self.publish_facts(seed))
        # Hydrate everything published so far plus whatever the service
        # declares; later knowledge arrives via kb-update events.
        keys = set(service.knowledge_keys(sorted(self.kb_subjects)))
        keys |= self.kb_published_keys
        keys |= {(fact.subject, fact.predicate) for fact in seed}
        if keys:
            self.settle(self.dkb.hydrate(matchlet.kb, sorted(keys)))

        # Event delivery source: a broker subscription feeding the local bus.
        ingress = SienaIngress(
            self.sim,
            self.network,
            server.position,
            self.brokers[server_index % len(self.brokers)],
            sink=server.local_bus.put,
        )
        for filter in service.subscriptions():
            ingress.subscribe(filter)
        server.local_bus.subscribe(matchlet)
        applier = KbUpdateApplier(matchlet)
        server.local_bus.subscribe(applier, Filter(type_is("kb-update")))

        # Event sink: synthesised events go back onto the broker network.
        egress = SienaEgress(ingress)
        matchlet.connect(egress)
        probe = Probe(name=f"suggestions:{service.name}")
        matchlet.connect(probe)

        runtime = ServiceRuntime(
            service=service,
            matchlet=matchlet,
            ingress=ingress,
            egress=egress,
            server=server,
            suggestions=probe.events,
        )
        self.services.append(runtime)
        return runtime

    # ------------------------------------------------------------------
    # Users (Figure 1: per-user, per-service event streams)
    # ------------------------------------------------------------------
    def add_user_agent(self, user: str, position: Position | None = None) -> SienaClient:
        """A client receiving the suggestions synthesised for ``user``."""
        if position is None:
            person = self.population.people.get(user)
            position = person.position if person else self.brokers[0].position
        client = SienaClient(
            self.sim, self.network, position, self.nearest_broker(position)
        )
        client.subscribe(Filter(type_is("suggestion"), eq("user", user)))
        self.user_agents[user] = client
        return client

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, duration_s: float) -> None:
        self.sim.run_for(duration_s)

    def settle(self, future: Future, timeout_s: float = 300.0):
        """Advance the clock until ``future`` resolves; return its value."""
        deadline = self.sim.now + timeout_s
        while not future.done and self.sim.now < deadline:
            self.sim.run(until=min(self.sim.now + 1.0, deadline))
        if not future.done:
            raise TimeoutError("architecture operation did not settle")
        return future.result()
