"""Every index and poset answer of the routing core, checked by its scan.

The equivalence suites compare deliveries, and a covering answer that is
too narrow or too wide can hide behind them for a long time.  Here every
``PredicateIndex``, ``ShardedSubscriptionIndex`` and
``ShardedCoveringPoset`` the filter tables and the broker build is wrapped
in :class:`tests.helpers.Shadow`, which answers each query from a
``ScanStore`` too and raises on the first difference.
``tests/test_filter_table.py``'s churn test then runs as written, auditing
every broker after every settled step, with the publications
``tests/test_retraction_reference.py`` adds, so ``holders`` is asked too.
"""

import pytest

from repro.events import broker, table
from tests.helpers import Shadow
from tests.test_retraction_reference import deliveries

SHADOWED = [
    (table, "ShardedCoveringPoset"),
    (table, "PredicateIndex"),
    (broker, "ShardedCoveringPoset"),
    (broker, "ShardedSubscriptionIndex"),
]


@pytest.mark.parametrize("mode", ["indexed", "adv_pruned"])
@pytest.mark.parametrize("seed", range(6))
def test_churn_answers_every_query_as_the_scan_does(mode, seed, monkeypatch):
    built: list[Shadow] = []

    def shadowed(structure):
        def build(*args):
            built.append(Shadow(structure(*args)))
            return built[-1]

        return build

    for module, name in SHADOWED:
        monkeypatch.setattr(module, name, shadowed(getattr(module, name)))
    assert sum(map(len, deliveries(mode, seed, monkeypatch))) > 20
    # Each broker's two tables: an index and a store poset apiece.
    assert len(built) >= 5 * 4
    checked = {type(shadow.primary).__name__: 0 for shadow in built}
    for shadow in built:
        checked[type(shadow.primary).__name__] += shadow.checked
    assert all(checked.values()), checked
