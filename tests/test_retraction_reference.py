"""``FilterTable._retract`` against the seed's retraction rule.

On a withdrawal the table re-offers only the stored filters the withdrawn
one covers (its poset's ``covered_by``, in insertion order); the seed
re-offered every stored filter not from the neighbour, in by-source
order.  The second rule lives in :func:`tests.helpers.scanned_retract`.
Here it is patched in and ``tests/test_filter_table.py``'s churn test
runs as written — auditing every broker after every settled step — with
publications from random clients at the start of every settle: every
client must receive exactly what it receives under the table's own rule,
in every routing mode.
"""

import random
from itertools import count

import pytest

from repro.events.broker import SienaClient
from repro.events.model import make_event
from repro.events.table import FilterTable
from repro.simulation import Simulator
from tests import test_filter_table as table_suite
from tests.helpers import scanned_retract
from tests.test_filter_table import MODES, TYPES


def deliveries(mode: str, seed: int, monkeypatch) -> list[list[int]]:
    """Per client of the churn test, the sorted sequence numbers it received."""
    clients: list[SienaClient] = []
    rng, seqs = random.Random(seed), count(1)

    class PublishingSimulator(Simulator):
        def run_for(self, duration, max_events=None):
            for _ in range(4 if clients else 0):
                event = make_event(
                    rng.choice(TYPES), seq=next(seqs), level=float(rng.randrange(5)),
                    room=rng.choice(["lab", "cafe"]),
                )
                rng.choice(clients).publish(event)
            return super().run_for(duration, max_events)

    def recording_client(*args, **kwargs):
        clients.append(SienaClient(*args, **kwargs))
        return clients[-1]

    monkeypatch.setattr(table_suite, "Simulator", PublishingSimulator)
    monkeypatch.setattr(table_suite, "SienaClient", recording_client)
    table_suite.test_churn_keeps_every_table_sound(mode, seed)
    assert len(clients) == 10
    return [sorted(n["seq"] for _, n in client.received) for client in clients]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(6))
def test_the_seed_retraction_rule_delivers_the_same(mode, seed, monkeypatch):
    own = deliveries(mode, seed, monkeypatch)
    assert sum(map(len, own)) > 20  # the workload delivers
    monkeypatch.setattr(FilterTable, "_retract", scanned_retract)
    assert deliveries(mode, seed, monkeypatch) == own
