"""Placement constraints over component deployments (§4.4).

Policies are "constraints over the placement of processing steps.  For
example, a constraint might specify that at least 5 pipeline components
providing a data replication service must be deployed in parallel within a
given geographical region" — that example is :class:`MinComponentsInRegion`.

Beyond the cardinality constraints, :class:`LoadConstraint` closes the
paper's *active* loop: it watches the monitoring engine's live view of the
hosts running a component and demands a migration whenever a host exceeds
a load or delivery-staleness threshold — services drift toward demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.evolution.monitor import HeartbeatMonitor


@dataclass
class Deployment:
    """One live component instance as the evolution engine tracks it."""

    component_type: str
    instance_name: str
    node_id: str
    addr: int
    region: str
    alive: bool = True


class DeploymentState:
    """The evolution engine's view of what runs where."""

    def __init__(self) -> None:
        self._deployments: dict[str, Deployment] = {}

    def record(self, deployment: Deployment) -> None:
        self._deployments[deployment.instance_name] = deployment

    def mark_node_dead(self, node_id: str) -> list[Deployment]:
        victims = []
        for deployment in self._deployments.values():
            if deployment.node_id == node_id and deployment.alive:
                deployment.alive = False
                victims.append(deployment)
        return victims

    def mark_node_alive(self, node_id: str) -> list[Deployment]:
        """Reverse :meth:`mark_node_dead` when a suspected node recovers.

        A node that was only *suspected* (silent, not crashed) still runs
        everything deployed on it; reviving the records keeps constraint
        evaluation from over-deploying against phantom losses.
        """
        revived = []
        for deployment in self._deployments.values():
            if deployment.node_id == node_id and not deployment.alive:
                deployment.alive = True
                revived.append(deployment)
        return revived

    def remove(self, instance_name: str) -> Deployment | None:
        """Forget an instance entirely (undeployed, not merely dead)."""
        return self._deployments.pop(instance_name, None)

    def get(self, instance_name: str) -> Deployment | None:
        return self._deployments.get(instance_name)

    def live(
        self, component_type: str | None = None, region: str | None = None
    ) -> list[Deployment]:
        return [
            d
            for d in self._deployments.values()
            if d.alive
            and (component_type is None or d.component_type == component_type)
            and (region is None or d.region == region)
        ]

    def all(self) -> list[Deployment]:
        return list(self._deployments.values())


@dataclass(frozen=True)
class Violation:
    """A constraint found unsatisfied: deploy ``missing`` more instances.

    When ``migrate_from`` names an instance, the repair is a *migration*
    rather than an addition: deploy one replacement elsewhere, hand the
    instance's live subscriptions over, then undeploy the original.
    """

    constraint: "PlacementConstraint"
    component_type: str
    region: str | None
    missing: int
    migrate_from: str | None = None


class PlacementConstraint:
    """Base class; subclasses define :meth:`evaluate`."""

    def evaluate(self, state: DeploymentState) -> list[Violation]:
        raise NotImplementedError


@dataclass(frozen=True)
class MinComponentsInRegion(PlacementConstraint):
    """At least ``min_count`` live instances of a component in a region."""

    component_type: str
    region: str
    min_count: int

    def evaluate(self, state: DeploymentState) -> list[Violation]:
        live = len(state.live(self.component_type, self.region))
        if live >= self.min_count:
            return []
        return [
            Violation(self, self.component_type, self.region, self.min_count - live)
        ]


@dataclass(frozen=True)
class MinComponentsGlobal(PlacementConstraint):
    """At least ``min_count`` live instances anywhere."""

    component_type: str
    min_count: int

    def evaluate(self, state: DeploymentState) -> list[Violation]:
        live = len(state.live(self.component_type))
        if live >= self.min_count:
            return []
        return [Violation(self, self.component_type, None, self.min_count - live)]


class LoadConstraint(PlacementConstraint):
    """Migrate a component off hosts whose load or staleness is too high.

    The constraint reads the :class:`~repro.evolution.monitor
    .HeartbeatMonitor`'s live node views — the digest of the periodic
    ``resource`` events the hosts themselves publish on the event fabric —
    and raises a migration violation for every live instance whose host
    reports ``load > max_load`` or a mean publication age above
    ``max_age_s`` (the events it processes are already old when they
    arrive, i.e. the service sits far from its demand).  Either threshold
    may be ``None`` to disable that signal.
    """

    def __init__(
        self,
        component_type: str,
        monitor: "HeartbeatMonitor",
        max_load: float | None = 0.8,
        max_age_s: float | None = None,
        region: str | None = None,
    ):
        self.component_type = component_type
        self.monitor = monitor
        self.max_load = max_load
        self.max_age_s = max_age_s
        self.region = region

    def _overloaded(self, node_id: str) -> bool:
        view = self.monitor.nodes.get(node_id)
        if view is None or not view.alive:
            return False  # failures are the cardinality constraints' job
        if self.max_load is not None and view.load > self.max_load:
            return True
        return (
            self.max_age_s is not None
            and view.event_age is not None
            and view.event_age > self.max_age_s
        )

    def evaluate(self, state: DeploymentState) -> list[Violation]:
        return [
            Violation(
                self,
                self.component_type,
                self.region,
                1,
                migrate_from=deployment.instance_name,
            )
            for deployment in state.live(self.component_type)
            if self._overloaded(deployment.node_id)
        ]
