"""Every index and poset answer of the routing core, checked by its scan.

The equivalence suites compare deliveries, and a covering answer that is
too narrow or too wide can hide behind them for a long time.  Here every
``PredicateIndex``, ``ShardedSubscriptionIndex`` and
``CoveringPoset`` the filter tables and the broker build is wrapped
in :class:`tests.helpers.Shadow`, which answers each query from a
``ScanStore`` too and raises on the first difference.
``tests/test_filter_table.py``'s churn test then runs as written, auditing
every broker after every settled step, with the publications
``tests/test_retraction_reference.py`` adds, so ``holders`` is asked too.
A second run swaps its filters for the Figure-1 agent population, where
the poset's equality keys do the pruning.
"""

import random
from collections import Counter

import pytest

from repro.events import broker, table
from repro.events.filters import Filter, eq, gt, type_is
from repro.events.index import CoveringPoset
from tests import test_filter_table as table_suite
from tests.helpers import Shadow
from tests.test_filter_table import TYPES
from tests.test_retraction_reference import deliveries

SHADOWED = [
    (table, "CoveringPoset"),
    (table, "PredicateIndex"),
    (broker, "CoveringPoset"),
    (broker, "ShardedSubscriptionIndex"),
]
USERS = ["ann", "bob", "cy"]


def shadow_everything(monkeypatch) -> list[Shadow]:
    """Wrap every structure built from now on; the list fills as they are."""
    built: list[Shadow] = []

    def shadowed(structure):
        def build(*args):
            built.append(Shadow(structure(*args)))
            return built[-1]

        return build

    for module, name in SHADOWED:
        monkeypatch.setattr(module, name, shadowed(getattr(module, name)))
    return built


def checked_by_kind(built: list[Shadow]) -> dict[str, int]:
    checked = {type(shadow.primary).__name__: 0 for shadow in built}
    for shadow in built:
        checked[type(shadow.primary).__name__] += shadow.checked
    return checked


@pytest.mark.parametrize("mode", ["indexed", "adv_pruned"])
@pytest.mark.parametrize("seed", range(6))
def test_churn_answers_every_query_as_the_scan_does(mode, seed, monkeypatch):
    built = shadow_everything(monkeypatch)
    assert sum(map(len, deliveries(mode, seed, monkeypatch))) > 20
    # Each broker's two tables: an index and a store poset apiece.
    assert len(built) >= 5 * 4
    checked = checked_by_kind(built)
    assert all(checked.values()), checked
    assert checked.get("CoveringPoset"), checked  # a renamed poset would go unshadowed
    asked = sum((shadow.asked for shadow in built), start=Counter())
    assert asked["filter_of"] > 0, asked
    if mode == "adv_pruned":
        # Advert flaps ask the store and link posets, not a sweep.
        assert asked["intersecting"] > 0, asked


def agent_shaped(rng: random.Random) -> Filter:
    """Mostly Figure 1's agent filters ``[type = suggestion, user = u]``,
    which share one pin and differ only in an equality; beside them
    filters pinned on ``user`` or on nothing, and filters sharing no
    attribute with an agent, which the churn of the first test never stores."""
    roll = rng.random()
    user = eq("user", rng.choice(USERS))
    if roll < 0.5:
        return Filter(type_is("suggestion"), user)
    if roll < 0.6:
        return Filter(type_is("suggestion"))
    if roll < 0.7:
        return Filter(user)
    if roll < 0.8:
        return Filter(type_is(rng.choice(TYPES)), gt("level", float(rng.randrange(4))))
    if roll < 0.9:
        return Filter(gt("level", float(rng.randrange(4))))
    return Filter(eq("room", rng.choice(["lab", "cafe"])))


@pytest.mark.parametrize("mode", ["indexed", "adv_pruned"])
@pytest.mark.parametrize("seed", range(4))
def test_agent_shaped_churn_answers_every_query_as_the_scan_does(mode, seed, monkeypatch):
    built = shadow_everything(monkeypatch)
    monkeypatch.setattr(table_suite, "random_filter", agent_shaped)
    assert sum(map(len, deliveries(mode, seed, monkeypatch))) > 0
    checked = checked_by_kind(built)
    assert all(checked.values()) and checked.get("CoveringPoset"), checked
    asked = sum((shadow.asked for shadow in built), start=Counter())
    assert asked["covered_by"] and asked["covers_any"], asked


def test_the_shadow_holds_covered_by_to_re_forward_order():
    class Reversed(CoveringPoset):
        def covered_by(self, filter):
            return super().covered_by(filter)[::-1]

    shadow = Shadow(Reversed())
    for user in USERS:
        shadow.add(Filter(type_is("suggestion"), eq("user", user)))
    with pytest.raises(AssertionError, match="covered_by"):
        shadow.covered_by(Filter(type_is("suggestion")))
