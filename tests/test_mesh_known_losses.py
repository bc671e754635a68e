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

from repro.events.broker import BrokerNode
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
