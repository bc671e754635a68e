"""Matchlets: the matching engine packaged as a pipeline component (§5).

"Matchlets are structured as pipeline code that accepts events from the
event distribution mechanism and performs matching on them.  Each matchlet
writes its results onto the event bus.  Thus the primary API offered by the
host to matchlets is an event delivery source and an event sink."

Bundles name their rules by string.  The names resolve through
``default_rule_registry``, a Cingal
:class:`~repro.cingal.registry.ComponentRegistry` whose factories take
``(ctx, params)`` — the bundle context and parameter dict — and return a
:class:`~repro.matching.rules.Rule`.  Services register their rules there
before deploying the matchlet bundles that name them.
"""

from __future__ import annotations

from repro.cingal.registry import ComponentRegistry, register_component
from repro.events.model import Notification
from repro.knowledge.base import KnowledgeBase
from repro.matching.engine import MatchingEngine
from repro.pipelines.component import PipelineComponent
from repro.simulation import Simulator


class Matchlet(PipelineComponent):
    """Consumes events, emits synthesised higher-level events."""

    def __init__(
        self,
        sim: Simulator,
        kb: KnowledgeBase,
        rules: tuple | list = (),
        extras: dict | None = None,
        name: str = "matchlet",
    ):
        super().__init__(name)
        self.engine = MatchingEngine(sim, kb, rules, extras)

    def on_event(self, event: Notification):
        return self.engine.ingest(event)

    @property
    def kb(self) -> KnowledgeBase:
        return self.engine.kb


default_rule_registry = ComponentRegistry()


@register_component("matchlet")
def _make_matchlet(ctx, params):
    """Bundle factory: ``params["rules"]`` is a comma-separated rule list.

    The matchlet starts with an empty local KB replica; the service
    infrastructure hydrates it from the distributed knowledge base and
    keeps it fresh via kb-update events.
    """
    rule_names = [r for r in params.get("rules", "").split(",") if r]
    kb = KnowledgeBase()
    rules = tuple(
        default_rule_registry.resolve(name)(ctx, params) for name in rule_names
    )
    return Matchlet(ctx.sim, kb, rules)


class KbUpdateApplier(PipelineComponent):
    """Applies ``kb-update`` events to a matchlet's local KB replica.

    This is the push half of C4: knowledge changes travel to wherever the
    matching computation runs.
    """

    def __init__(self, matchlet: Matchlet, name: str = "kb-updater"):
        super().__init__(name)
        self.matchlet = matchlet

    def on_event(self, event: Notification):
        if event.event_type != "kb-update":
            return None
        from repro.knowledge.facts import Fact

        self.matchlet.kb.add(
            Fact(
                subject=str(event["subject"]),
                predicate=str(event["predicate"]),
                object=event["value"],
                valid_from=float(event.get("valid_from", float("-inf"))),
                valid_to=float(event.get("valid_to", float("inf"))),
            )
        )
        return None
