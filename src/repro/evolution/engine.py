"""The evolution engine: turns constraint violations into deployments.

"All constraints will feed into an evolution engine ... that will
dynamically evolve the contextual matching engine by manipulating the
pipelines" (§4.4).  The engine consumes the monitoring engine's view,
evaluates constraints, picks the best-ranked live candidate nodes in the
right region, and pushes signed component bundles to them via Cingal.

Two repair shapes exist:

* **additions** — a cardinality constraint is short ``missing`` instances;
  deploy that many bundles onto the least-loaded live candidates;
* **migrations** — a :class:`~repro.evolution.constraints.LoadConstraint`
  found an instance on an overloaded/badly-placed host; deploy one
  replacement on the candidate that sees the component's traffic
  *freshest* (the decentralised proxy for "closest to demand"), invoke
  the ``on_migrate`` hook so the caller can hand live subscriptions over
  (:class:`~repro.events.mobility.ServiceHandoff`), then undeploy the
  original via Cingal.

The shapes differ only in how they pick nodes: a migration is a
deployment that replaces one, so both push through the same
``_fire``/``_on_fired`` pair.

Shortfalls the engine could not repair (no template, not enough live
candidates, a refused deployment) are tracked *per constraint* and cleared
the moment the constraint evaluates clean again — so one historic shortfall
does not condemn every future ``resource`` event to a full re-evaluation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.cingal.bundle import make_bundle
from repro.evolution.constraints import (
    Deployment,
    DeploymentState,
    PlacementConstraint,
    Violation,
)
from repro.evolution.monitor import HeartbeatMonitor, NodeView
from repro.events.model import Notification
from repro.pipelines.assembly import DeploymentAgent
from repro.simulation import PeriodicTask, Simulator


@dataclass
class BundleTemplate:
    """How to build a deployable bundle for a component type."""

    component: str  # registry name
    params: dict = field(default_factory=dict)
    capabilities: frozenset = frozenset()


@dataclass
class RepairAction:
    time: float
    component_type: str
    instance_name: str
    node_id: str
    region: str
    cause: str


@dataclass
class MigrationRecord:
    """One completed load-driven migration, for observability and tests."""

    time: float
    component_type: str
    old_instance: str
    old_node: str
    new_instance: str
    new_node: str


class EvolutionEngine:
    """Closes the monitor -> constraints -> deploy loop.

    The paper's "active architecture": a :class:`HeartbeatMonitor`
    folds node heartbeats and ``resource`` digests into per-node views,
    :class:`PlacementConstraint` objects turn those views into
    violations, and this engine repairs each violation — deploying
    bundles from ``templates`` through the ``agent``, or migrating a
    component off an overloaded host (``_repair_migration``: deploy the
    replacement, fire ``on_migrate(old, new)`` so the caller can move
    live subscriptions via ServiceHandoff, then undeploy the original).

    Knobs: ``evaluate_interval_s`` (default ``30.0`` s) paces the
    periodic constraint sweep (violation-bearing events also trigger an
    immediate one); ``migration_cooldown_s`` (default ``60.0`` s) is the
    per-component hold-down that keeps one hot host from triggering a
    migration stampede.  Benchmark E8's flash-crowd scenario prices the
    whole loop against its ablation — the same fleet constructed with
    no engine attached (``adaptation=False`` in the bench), which
    degrades ~11× worse at end state.
    """

    def __init__(
        self,
        sim: Simulator,
        agent: DeploymentAgent,
        monitor: HeartbeatMonitor,
        deploy_key: str,
        constraints: list[PlacementConstraint] | None = None,
        templates: dict[str, BundleTemplate] | None = None,
        evaluate_interval_s: float = 30.0,
        migration_cooldown_s: float = 60.0,
    ):
        self.sim = sim
        self.agent = agent
        self.monitor = monitor
        self.deploy_key = deploy_key
        self.constraints: list[PlacementConstraint] = list(constraints or ())
        self.templates: dict[str, BundleTemplate] = dict(templates or {})
        self.state = DeploymentState()
        self.actions: list[RepairAction] = []
        self.migrations: list[MigrationRecord] = []
        # Called after a migration's replacement is deployed, before the
        # original is undeployed: ``on_migrate(old, new)`` with both
        # Deployment records.  The caller uses it to move the service's
        # live subscriptions (ServiceHandoff) to the new instance.
        self.on_migrate = None
        self.migration_cooldown_s = migration_cooldown_s
        # Open shortfalls keyed by the violated constraint; cleared when
        # the constraint evaluates clean.  ``unsatisfiable`` (the public
        # face) derives from this.
        self._shortfalls: dict[PlacementConstraint, tuple[float, Violation]] = {}
        self.evaluations = 0
        self._instance_counter = itertools.count(1)
        self._in_flight: set[str] = set()
        # Instances with a migration in flight, and the per-component
        # cooldown clock keeping one hot host from triggering a stampede.
        self._migrating: set[str] = set()
        self._last_migration: dict[str, float] = {}
        self._task = PeriodicTask(sim, evaluate_interval_s, self.evaluate_now)

    # ------------------------------------------------------------------
    # Event intake (wire this to the control event bus)
    # ------------------------------------------------------------------
    def on_event(self, event: Notification) -> None:
        if event.event_type == "node-failed":
            node_id = str(event["node"])
            self.state.mark_node_dead(node_id)
            self.evaluate_now(cause=f"node-failed:{node_id}")
        elif event.event_type == "node-recovered":
            # The monitor's suspicion was wrong (or transient): the node
            # is publishing again, so everything deployed on it is live
            # again too.  Without this, mark_node_dead is never reversed
            # and the cardinality constraints over-deploy forever.
            node_id = str(event["node"])
            self.state.mark_node_alive(node_id)
            self.evaluate_now(cause=f"node-recovered:{node_id}")
        elif event.event_type == "resource":
            # New capacity appeared; open shortfalls may now be fixable.
            if self._shortfalls:
                self.evaluate_now(cause="new-resource")

    # ------------------------------------------------------------------
    # Constraint evaluation and repair
    # ------------------------------------------------------------------
    @property
    def unsatisfiable(self) -> list[tuple[float, Violation]]:
        """The open shortfalls: violations the last repairs left unmet."""
        return list(self._shortfalls.values())

    def add_constraint(self, constraint: PlacementConstraint) -> None:
        self.constraints.append(constraint)
        self.evaluate_now(cause="new-constraint")

    def register_template(self, component_type: str, template: BundleTemplate) -> None:
        self.templates[component_type] = template

    def evaluate_now(self, cause: str = "periodic") -> list[Violation]:
        self.evaluations += 1
        violations: list[Violation] = []
        for constraint in self.constraints:
            violations.extend(constraint.evaluate(self.state))
        # A constraint that evaluates clean has no open shortfall any more
        # — a repaired violation must stop re-triggering evaluation storms.
        open_constraints = {violation.constraint for violation in violations}
        for constraint in list(self._shortfalls):
            if constraint not in open_constraints:
                del self._shortfalls[constraint]
        for violation in violations:
            self._repair(violation, cause)
        return violations

    def _record_shortfall(self, violation: Violation) -> None:
        self._shortfalls[violation.constraint] = (self.sim.now, violation)

    def _candidates(
        self, region: str | None, component_type: str, rank: str = "load"
    ) -> list[NodeView]:
        occupied = {
            d.node_id for d in self.state.live(component_type)
        } | {  # also avoid double-deploying while an ack is in flight
            name.rsplit("@", 1)[-1] for name in self._in_flight
        }
        nodes = [
            v
            for v in self.monitor.live_nodes()
            if (region is None or v.region == region) and v.node_id not in occupied
        ]
        if rank == "freshness":
            # Migration ranking: prefer the node that sees the traffic
            # youngest (it sits closest to the demand); nodes with no age
            # samples never saw the traffic at all and rank last, by load.
            nodes.sort(
                key=lambda v: (
                    v.event_age is None,
                    v.event_age if v.event_age is not None else 0.0,
                    v.load,
                    v.node_id,
                )
            )
        else:
            nodes.sort(key=lambda v: (v.load, v.node_id))
        return nodes

    def _repair(self, violation: Violation, cause: str) -> None:
        if violation.migrate_from is not None:
            self._repair_migration(violation, cause)
            return
        if violation.component_type not in self.templates:
            self._record_shortfall(violation)
            return
        candidates = self._candidates(violation.region, violation.component_type)
        if len(candidates) < violation.missing:
            self._record_shortfall(violation)
        for node in candidates[: violation.missing]:
            self._fire(violation, node, cause)

    def _repair_migration(self, violation: Violation, cause: str) -> None:
        """Load-driven migration (the paper's active adaptation loop)."""
        old = self.state.get(violation.migrate_from)
        if old is None or not old.alive or old.instance_name in self._migrating:
            return
        last = self._last_migration.get(violation.component_type)
        if last is not None and self.sim.now - last < self.migration_cooldown_s:
            return  # let the previous move's metrics settle first
        if violation.component_type not in self.templates:
            self._record_shortfall(violation)
            return
        candidates = self._candidates(
            violation.region, violation.component_type, rank="freshness"
        )
        if not candidates:
            self._record_shortfall(violation)
            return
        self._fire(violation, candidates[0], cause, replacing=old)

    def _fire(
        self,
        violation: Violation,
        node: NodeView,
        cause: str,
        replacing: Deployment | None = None,
    ) -> None:
        """Push one instance of the violated component type to ``node``.

        A migration is a deployment that replaces one: ``replacing`` is
        the deployment :meth:`_on_fired` tears down once the new instance
        is up.
        """
        template = self.templates[violation.component_type]
        instance = f"{violation.component_type}-{next(self._instance_counter)}@{node.node_id}"
        bundle = make_bundle(
            name=instance,
            component=template.component,
            params=template.params,
            capabilities=template.capabilities,
            key=self.deploy_key,
        )
        if replacing is not None:
            self._migrating.add(replacing.instance_name)
            self._last_migration[violation.component_type] = self.sim.now
        self._in_flight.add(instance)
        self.agent.fire(node.addr, bundle).add_callback(
            lambda fut: self._on_fired(fut, instance, violation, node, cause, replacing)
        )

    def _on_fired(
        self,
        fut,
        instance: str,
        violation: Violation,
        node: NodeView,
        cause: str,
        replacing: Deployment | None,
    ) -> None:
        self._in_flight.discard(instance)
        if replacing is not None:
            self._migrating.discard(replacing.instance_name)
        if fut.exception is not None or not fut.result().ok:
            self._record_shortfall(violation)
            return
        deployment = Deployment(
            component_type=violation.component_type,
            instance_name=instance,
            node_id=node.node_id,
            addr=node.addr,
            region=node.region,
            alive=True,
        )
        self.state.record(deployment)
        if replacing is not None:
            if self.on_migrate is not None:
                # Subscription handoff first: the replacement must own the
                # live event flow before the original is torn down.
                self.on_migrate(replacing, deployment)
            self.state.remove(replacing.instance_name)
            self.agent.undeploy(replacing.addr, replacing.instance_name)
            self.migrations.append(
                MigrationRecord(
                    time=self.sim.now,
                    component_type=violation.component_type,
                    old_instance=replacing.instance_name,
                    old_node=replacing.node_id,
                    new_instance=instance,
                    new_node=node.node_id,
                )
            )
            cause = f"{cause}:migrate:{replacing.node_id}->{node.node_id}"
        self.actions.append(
            RepairAction(
                time=self.sim.now,
                component_type=violation.component_type,
                instance_name=instance,
                node_id=node.node_id,
                region=node.region,
                cause=cause,
            )
        )

    def satisfied(self) -> bool:
        return not any(c.evaluate(self.state) for c in self.constraints)

    def stop(self) -> None:
        self._task.stop()
