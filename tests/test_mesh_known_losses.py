"""Known ways a cyclic mesh keeps state it should have let go.

ROADMAP item 1, "tables never drain": after connect/disconnect toggling
on a cycle, withdrawing every client filter does not bring every routing
table back to empty — brokers keep each other's copies of a departed
filter alive around the cycle.  ``tests/test_filter_table.py`` replays
the churn with the auditor on and says so in a comment; this file makes
the teardown an assertion.  The rows that fail today are marked
``xfail(strict=True)``: the fix flips the marker, and a change in
*which* seeds drain turns tier-1 red either way.
"""

import pytest

from repro.events.broker import BrokerNode, SienaClient, build_broker_mesh
from repro.events.filters import Filter, eq, gt, lt
from repro.events.model import make_event
from repro.net import Network
from repro.simulation import Simulator
from tests import test_filter_table as table_suite
from tests.test_filter_table import MODES

# (mode, seed) rows whose tables do not drain at this commit: seeds 2 and
# 3, except that adv-pruned forwarding happens to drain seed 3.
LEAKS = {(mode, seed) for mode in MODES for seed in (2, 3)} - {("adv_pruned", 3)}
BOOKS = ("subs_by_source", "adverts_by_source", "forwarded", "adverts_forwarded")


@pytest.mark.parametrize(
    "mode, seed",
    [
        pytest.param(
            mode, seed,
            marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1: tables never drain")
            if (mode, seed) in LEAKS else (),
        )
        for mode in MODES
        for seed in range(6)
    ],
)
def test_withdrawing_every_filter_drains_every_table(mode, seed, monkeypatch):
    # The world, churn script and teardown are the table suite's own:
    # run its test and keep the brokers it builds.
    brokers = []

    def recording_broker(*args, **kwargs):
        brokers.append(BrokerNode(*args, **kwargs))
        return brokers[-1]

    monkeypatch.setattr(table_suite, "BrokerNode", recording_broker)
    table_suite.test_churn_keeps_every_table_sound(mode, seed)
    leftovers = {
        (index, book): held
        for index, broker in enumerate(brokers)
        for book in BOOKS
        # the forwarding books keep one (empty) list per live link
        if (held := {k: v for k, v in getattr(broker, book).items() if v})
    }
    assert len(brokers) == 5 and leftovers == {}


# ROADMAP item 1, "lost delivery under covering": shrunk from the
# reproducer in benchmarks/budget/README.md (wildcards churned on
# mesh_churn's mesh).  One client withdraws a wildcard that was masking
# another client's narrower one on a cycle; a publication the narrower
# one matches, seconds later at a far broker, is then lost.  With covering
# off nothing is masked and the delivery arrives — the first assertion.
@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: lost delivery under covering")
def test_withdrawing_a_masking_wildcard_keeps_the_masked_delivery():
    def received(covering_enabled: bool) -> int:
        sim = Simulator(seed=3)
        net = Network(sim, batched=True)
        brokers = build_broker_mesh(
            sim, net, count=5, extra_links=2, batched=True, covering_enabled=covering_enabled
        )
        publisher, banded, widest, masked, masking = (
            SienaClient(sim, net, brokers[b].position, brokers[b]) for b in (4, 4, 4, 3, 3)
        )
        banded.subscribe(Filter(eq("type", "kind-5@street-1"), gt("strength", 5.0), lt("strength", 6.0)))
        widest.subscribe(Filter(gt("strength", 11.0)))
        masked.subscribe(Filter(gt("strength", 11.15)))
        masking.subscribe(Filter(gt("strength", 11.1)))
        sim.run_for(2.0)
        masking.unsubscribe(Filter(gt("strength", 11.1)))
        sim.run_for(4.0)
        publisher.publish(make_event("kind-5@street-4", strength=11.2))
        sim.run_for(2.0)
        return len(masked.received)

    assert received(covering_enabled=False) == 1
    assert received(covering_enabled=True) == 1
