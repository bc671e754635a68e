"""The bucket walk has one definition, so ``ops`` has one meaning.

``_AttributeIndex.satisfied`` is the only routine that walks the
per-attribute buckets; scalar ``match``, the pure-python batch path and
the numpy batch path differ only in how they hold what it yields.  These
tests pin the consequence: on identically built indexes every path adds
the same amount to ``PredicateIndex.ops`` — the brute-force count of
satisfied constraints, with multiplicity — and the numpy path's cached
views of the stored fid lists never outlive the lists they mirror.
"""

import random

import pytest

from repro.events import index as index_module
from repro.events.filters import (
    Filter, canonical_subject, contains, eq, exists, gt, ne, pinned_subject,
)
from repro.events.index import PredicateIndex
from repro.events.model import make_event
from repro.events.sharding import ShardedSubscriptionIndex, ShardPlan
from tests.test_index_equivalence import random_filter, random_notification

HAVE_NUMPY = index_module._np is not None
PATHS = ["scalar", "py"] + (["np"] if HAVE_NUMPY else [])
needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not importable")


def run(index, batch, path):
    if path == "scalar":
        return [index.match(n) for n in batch]
    return index.match_batch(batch, vectorized=(path == "np"))


def satisfied_constraints(filters, batch) -> int:
    """Brute force: one per (event, filter, constraint) that holds."""
    return sum(
        constraint.matches(n)
        for n in batch
        for f in filters
        for constraint in f.constraints
    )


def churn(rng, indexes, live):
    """Apply one burst of identical adds/removes to every index."""
    for _ in range(rng.randint(5, 40)):
        if live and rng.random() < 0.35:
            fid = rng.choice(list(live))
            del live[fid]
            for index in indexes:
                index.remove(fid)
        else:
            f = random_filter(rng)
            (fid,) = {index.add(f) for index in indexes}  # same ids everywhere
            live[fid] = f


def random_batch(rng):
    # Repeats exercise the per-batch memo and (>= 4 copies of a key)
    # the pure-python path's heavy/rare base cache.
    batch = [random_notification(rng) for _ in range(rng.randint(1, 10))]
    return batch + [rng.choice(batch) for _ in range(rng.randint(0, 8))]


class TestOpsHasOneDefinition:
    @pytest.mark.parametrize("path", PATHS)
    def test_exclusions_and_pattern_misses_are_not_counted(self, path):
        # The numpy walk used to count a != pool before its exclusions
        # and a contains bucket on top of its hits (20 here, not 14).
        index = PredicateIndex()
        for value in range(10):
            index.add(Filter(ne("a", value)))
        for pattern in ("x", "xy", "xyz", "xq", "xyq"):
            index.add(Filter(contains("s", pattern)))
        index.add(Filter(eq("a", 3), gt("b", 1)))
        event = make_event("t", a=3, s="xyz!", b=5)
        (matched,) = run(index, [event], path)
        assert len(matched) == 13
        # 9 surviving != , 3 contains hits, eq + gt; nothing on ``type``.
        assert index.ops == 14

    @pytest.mark.parametrize("seed", range(6))
    def test_every_path_counts_the_satisfied_constraints(self, seed):
        rng = random.Random(seed)
        indexes = {path: PredicateIndex() for path in PATHS}
        live: dict[int, Filter] = {}
        expected = 0
        for _round in range(12):
            churn(rng, indexes.values(), live)
            batch = random_batch(rng)
            expected += satisfied_constraints(live.values(), batch)
            scalar = run(indexes["scalar"], batch, "scalar")
            for path in PATHS[1:]:
                assert run(indexes[path], batch, path) == scalar, path
            assert {path: index.ops for path, index in indexes.items()} == dict.fromkeys(
                PATHS, expected
            )
        assert expected > 0

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n_shards", [None, 4])
    def test_sharded_ops_is_the_walk_of_the_visited_shards(self, seed, n_shards):
        # An event walks the shared index once and its own subject's
        # partition once: wildcards are counted once, not per shard.
        rng = random.Random(100 + seed)
        plan = None if n_shards is None else ShardPlan(n_shards)
        sharded = {path: ShardedSubscriptionIndex(plan) for path in PATHS}
        live: dict[tuple, Filter] = {}
        expected = 0

        def partition(canon):
            return canon if plan is None or canon is None else plan.owner(canon)

        for _round in range(6):
            churn(rng, sharded.values(), live)
            batch = random_batch(rng)
            for n in batch:
                visited = {None}
                if "type" in n:
                    visited.add(partition(canonical_subject(n["type"])))
                stored = [f for f in live.values() if partition(pinned_subject(f)) in visited]
                expected += satisfied_constraints(stored, [n])
            scalar = run(sharded["scalar"], batch, "scalar")
            for path in PATHS[1:]:
                assert run(sharded[path], batch, path) == scalar, path
            for path, index in sharded.items():
                assert index.ops == expected, path
        assert expected > 0


@needs_numpy
class TestViewsNeverGoStale:
    """``arrays`` keys its views by list identity; a list that is
    emptied, deleted and re-created may come back at the same address."""

    def test_bucket_recreated_between_batches(self):
        index = PredicateIndex()
        keep = index.add(Filter(exists("x")))
        fid = index.add(Filter(eq("x", 1)))
        event = make_event("t", x=1)
        for _ in range(200):
            assert index.match_batch([event], vectorized=True) == [{keep, fid}]
            index.remove(fid)  # empties and deletes the EQ bucket
            assert index.match_batch([event], vectorized=True) == [{keep}]
            fid = index.add(Filter(eq("x", 1)))  # a fresh list, maybe the old id

    def test_ne_pool_and_exists_list_follow_every_change(self):
        index = PredicateIndex()
        live = {index.add(Filter(ne("x", 0))), index.add(Filter(exists("x")))}
        event = make_event("t", x=5)
        rng = random.Random(7)
        for step in range(200):
            assert index.match_batch([event], vectorized=True) == [live]
            if len(live) > 2 and rng.random() < 0.5:
                fid = rng.choice(sorted(live))
                live.discard(fid)
                index.remove(fid)
            else:
                f = Filter(ne("x", step % 3)) if step % 2 else Filter(exists("x"))
                live.add(index.add(f))
