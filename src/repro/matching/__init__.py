"""The distributed contextual matching engine — the paper's core.

A matching service is "an entity that, triggered by the reception of events
from multiple sources, synthesises a stream of new events.  Typically, the
output events will be higher-level (more semantically meaningful) than the
input events" (§1.1).  Matchlets (§5) are pipeline components wrapping a
windowed, knowledge-joined correlation engine; discovery matchlets fetch
matching code for unknown event types from the storage architecture.
"""

from repro.matching.bindings import EventProjection, project_event, projects_event
from repro.matching.patterns import Bindings, EventPattern, FactPattern, Ref
from repro.matching.rules import Rule, RuleContext, reads
from repro.matching.window import TimeWindowBuffer
from repro.matching.engine import MatchingEngine
from repro.matching.matchlet import Matchlet, default_rule_registry
from repro.matching.discovery import DiscoveryMatchlet, matchlet_code_guid

__all__ = [
    "Bindings",
    "DiscoveryMatchlet",
    "EventPattern",
    "EventProjection",
    "FactPattern",
    "Matchlet",
    "MatchingEngine",
    "Ref",
    "Rule",
    "RuleContext",
    "TimeWindowBuffer",
    "default_rule_registry",
    "matchlet_code_guid",
    "project_event",
    "projects_event",
    "reads",
]
