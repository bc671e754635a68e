"""Content-based event distribution (§3, §4.1).

``siena`` is the wide-area content-based broker network the paper proposes
as its generic global event service ("a general-purpose system such as Siena
would be ideal ... it has enough expressibility in its publish/subscribe
language and shows evidence of being globally scalable").  ``elvin`` is the
client-server baseline whose architecture "limits its scalability" — the
comparison is experiment E4.  ``mobility`` adds Mobikit-style proxies for
disconnected mobile clients (C9, E11).
"""

from repro.events.model import Notification, make_event
from repro.events.filters import Constraint, Filter, Op
from repro.events.covering import constraint_covers, filter_covers
from repro.events.index import CoveringPoset, PredicateIndex
from repro.events.subscriptions import Subscription
from repro.events.broker import (
    BrokerNode,
    SienaClient,
    build_broker_mesh,
    build_broker_tree,
)
from repro.events.elvin import ElvinClient, ElvinServer
from repro.events.failure import (
    FailureDetector,
    HeartbeatConfig,
    OriginFloorCache,
    install_detectors,
)
from repro.events.mobility import MobileClient

__all__ = [
    "BrokerNode",
    "Constraint",
    "CoveringPoset",
    "ElvinClient",
    "ElvinServer",
    "FailureDetector",
    "Filter",
    "HeartbeatConfig",
    "MobileClient",
    "Notification",
    "Op",
    "OriginFloorCache",
    "PredicateIndex",
    "SienaClient",
    "Subscription",
    "build_broker_mesh",
    "build_broker_tree",
    "constraint_covers",
    "filter_covers",
    "install_detectors",
    "make_event",
]
