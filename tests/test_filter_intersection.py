"""Property tests for the filter-intersection predicate.

``filters_intersect`` is the foundation of advertisement-pruned
subscription forwarding: a broker drops a subscription toward a subtree
exactly when the predicate answers ``False``, so a ``False`` must be
*exact* — if any notification satisfies both filters, the answer must
be ``True`` (the conservative direction mirrors ``filter_covers``, but
flipped).  The randomized suites below hold the predicate to:

* soundness against a brute-force witness search over generated
  notifications (a found witness forces ``True``),
* symmetry over random pairs across all ten operators,
* reflexivity on filters known satisfiable (derived from a witness),
* agreement between ``CoveringPoset.intersecting_any``/``intersecting``
  and the naive any/all scans, under add/remove churn.
"""

import copy
import itertools
import math
import random

from hypothesis import given
from hypothesis import strategies as st

from repro.events.covering import filter_covers
from repro.events.filters import (
    Constraint,
    Filter,
    Op,
    constraint_admits,
    constraints_satisfiable,
    eq,
    exists,
    family,
    filter_satisfiable,
    filters_intersect,
    ge,
    gt,
    le,
    lt,
    ne,
    prefix,
    suffix,
)
from repro.events.index import CoveringPoset
from repro.events.model import Notification
from tests.test_compiled_covers import GRID, VALUES
from tests.test_index_equivalence import (
    ATTRS,
    STRINGS,
    random_filter,
    random_notification,
)
from tests.test_poset_properties import constraints as poset_constraints

STRING_OPS = (Op.PREFIX, Op.SUFFIX, Op.CONTAINS)


# ----------------------------------------------------------------------
# Witness search: candidate values are mined from the constraints
# themselves (the values, their neighbourhoods, and compositions of the
# string patterns), which is where any witness must live.
# ----------------------------------------------------------------------
def _candidate_values(constraints: list[Constraint]) -> list:
    values: set = set(STRINGS[:4]) | {True, False, 0, 1}
    prefixes, suffixes, middles = [""], [""], [""]
    for c in constraints:
        if c.op is Op.EXISTS:
            continue
        v = c.value
        values.add(v)
        if isinstance(v, bool):
            values.add(not v)
        elif isinstance(v, (int, float)):
            values.update({v - 1, v + 1, v - 0.5, v + 0.5})
        else:
            # The immediate lexicographic successor of v: the witness for
            # "strictly above v but still inside v's prefix cone", which
            # no composition over the test alphabet can reach (every
            # alphabet char sorts above NUL).
            values.add(v + "\x00")
            if c.op is Op.PREFIX:
                prefixes.append(v)
            elif c.op is Op.SUFFIX:
                suffixes.append(v)
            else:
                middles.append(v)
                # Order-constraint values double as prefixes so bound
                # compositions like lo + "a" land in the pool — where
                # witnesses of string-range × prefix overlaps live.
                if c.op in (Op.LT, Op.LE, Op.GT, Op.GE):
                    prefixes.append(v)
    for p, m, s in itertools.product(prefixes, middles, suffixes):
        values.add(p + m + s)
    # bools hash like 0/1: dedupe by (type, value) so both survive.  The
    # deterministic sort matters: set iteration order varies with
    # PYTHONHASHSEED, and the witness search consumes a shared rng, so
    # an unsorted pool would make every later filter draw — and thus any
    # failure — irreproducible from the recorded seed.
    seen, out = set(), []
    for v in values:
        key = (type(v), v)
        if key not in seen:
            seen.add(key)
            out.append(v)
    out.sort(key=lambda v: (type(v).__name__, repr(v)))
    return out


def _search_witness(a: Filter, b: Filter, rng: random.Random) -> Notification | None:
    constraints = list(a.constraints) + list(b.constraints)
    names = sorted({c.name for c in constraints})
    pools = {
        name: _candidate_values([c for c in constraints if c.name == name])
        for name in names
    }
    total = 1
    for pool in pools.values():
        total *= len(pool)
    if total <= 4000:
        combos = itertools.product(*(pools[name] for name in names))
    else:
        combos = (
            tuple(rng.choice(pools[name]) for name in names) for _ in range(4000)
        )
    for combo in combos:
        notification = Notification(dict(zip(names, combo)))
        if a.matches(notification) and b.matches(notification):
            return notification
    return None


def _filter_from_witness(notification: Notification, rng: random.Random) -> Filter:
    """A random filter guaranteed to match ``notification``."""
    names = rng.sample(sorted(notification), rng.randint(1, len(notification)))
    constraints = []
    for name in names:
        value = notification[name]
        choices = [exists(name), eq(name, value)]
        if isinstance(value, bool):
            choices.append(ne(name, not value))
        elif isinstance(value, (int, float)):
            choices += [gt(name, value - 1), ge(name, value), le(name, value),
                        lt(name, value + 1), ne(name, value + 2)]
        else:
            cut = rng.randint(0, len(value))
            choices += [prefix(name, value[:cut]), suffix(name, value[cut:])]
        constraints.append(rng.choice(choices))
    return Filter(*constraints)


class TestIntersectionProperties:
    def test_symmetric_over_random_pairs(self):
        rng = random.Random(2027)
        for _ in range(600):
            a, b = random_filter(rng), random_filter(rng)
            assert filters_intersect(a, b) == filters_intersect(b, a)

    def test_false_answers_admit_no_witness(self):
        """The load-bearing direction: a witness forces ``True`` —
        equivalently, ``False`` survives the brute-force search."""
        rng = random.Random(515)
        pairs = [(random_filter(rng), random_filter(rng)) for _ in range(250)]
        outcomes = set()
        for a, b in pairs:
            verdict = filters_intersect(a, b)
            outcomes.add(verdict)
            witness = _search_witness(a, b, rng)
            if witness is not None:
                assert verdict, (a, b, witness)
        assert outcomes == {True, False}  # the workload exercised both

    def test_reflexive_and_mutually_intersecting_on_witnessed_filters(self):
        rng = random.Random(88)
        for _ in range(300):
            notification = random_notification(rng)
            a = _filter_from_witness(notification, rng)
            b = _filter_from_witness(notification, rng)
            assert a.matches(notification) and b.matches(notification)
            assert filter_satisfiable(a)
            assert filters_intersect(a, a)
            assert filters_intersect(a, b)

    def test_covering_implies_intersection_for_witnessed_filters(self):
        rng = random.Random(4242)
        hits = 0
        for _ in range(2000):
            a, b = random_filter(rng), random_filter(rng)
            witness = None
            if filter_covers(a, b):
                witness = _search_witness(b, b, rng)
            if witness is not None:
                hits += 1
                assert filters_intersect(a, b)
        assert hits > 10  # the generator actually produced covering pairs


class TestExactUnsatisfiability:
    """Hand-picked pairs whose emptiness the predicate must detect —
    these are what advertisement pruning actually saves."""

    def test_disjoint_pairs_answer_false(self):
        pairs = [
            (Filter(eq("x", 1)), Filter(eq("x", 2))),
            (Filter(gt("t", 5)), Filter(lt("t", 5))),
            (Filter(ge("t", 5), le("t", 5)), Filter(ne("t", 5))),
            (Filter(gt("t", 5)), Filter(le("t", 5))),
            (Filter(prefix("s", "ab")), Filter(prefix("s", "ba"))),
            (Filter(suffix("s", "ab")), Filter(suffix("s", "bb"))),
            (Filter(eq("s", "abc")), Filter(Constraint("s", Op.CONTAINS, "zz"))),
            (Filter(eq("f", True)), Filter(prefix("f", "x"))),
            (Filter(eq("n", 3)), Filter(prefix("n", "3"))),  # family mismatch
            (Filter(gt("s", "b")), Filter(lt("s", "a"))),
            (Filter(eq("b", True)), Filter(eq("b", False))),
            (Filter(type_eq("weather")), Filter(type_eq("presence"))),
            # String-range × prefix corners, previously conservative-True:
            # every "c"-prefixed string is >= "c", so an open upper bound
            # at "c" (or any bound below it) is empty ...
            (Filter(prefix("s", "c")), Filter(lt("s", "c"))),
            (Filter(prefix("s", "c")), Filter(le("s", "b"))),
            (Filter(prefix("s", "b")), Filter(lt("s", "a"))),
            # ... every "bb"-prefixed string is < "bc" (a non-extension
            # lower bound above the prefix is unreachable) ...
            (Filter(prefix("s", "bb")), Filter(gt("s", "bc"))),
            # ... and nothing sorts strictly below the empty string.
            (Filter(exists("s")), Filter(lt("s", ""))),
        ]
        for a, b in pairs:
            assert not filters_intersect(a, b), (a, b)
            assert not filters_intersect(b, a), (a, b)

    def test_unsatisfiable_filter_intersects_nothing(self):
        broken = Filter(eq("x", 1), eq("x", 2))
        assert not filter_satisfiable(broken)
        assert not filters_intersect(broken, broken)
        assert not filters_intersect(broken, Filter(exists("y")))
        # A bool range with no admissible value is unsatisfiable too.
        assert not filter_satisfiable(Filter(gt("flag", True)))

    def test_satisfiable_combinations_answer_true(self):
        pairs = [
            # Disjoint attribute sets always intersect when satisfiable.
            (Filter(eq("a", 1)), Filter(eq("b", 2))),
            (Filter(ge("t", 5)), Filter(le("t", 5))),  # the single point 5
            (Filter(gt("t", 0)), Filter(lt("t", 1))),
            (Filter(prefix("s", "ab")), Filter(suffix("s", "ba"))),
            (Filter(prefix("s", "ab")), Filter(prefix("s", "abc"))),
            (Filter(gt("flag", False)), Filter(eq("flag", True))),
            (Filter(ne("t", 5)), Filter(ne("t", 6))),
            (Filter(exists("x")), Filter(eq("x", "anything"))),
            # Near-misses of the new UNSAT rules must stay True: a
            # *closed* bound at the prefix admits the prefix itself ...
            (Filter(prefix("s", "c")), Filter(le("s", "c"))),
            # ... a strict lower bound at the prefix leaves the rest of
            # the cone ("ba", "bb", ...) ...
            (Filter(prefix("s", "b")), Filter(gt("s", "b"))),
            # ... and an extension lower bound only trims the cone.
            (Filter(prefix("s", "bc")), Filter(gt("s", "b"), lt("s", "c"))),
        ]
        for a, b in pairs:
            assert filters_intersect(a, b), (a, b)
            assert filters_intersect(b, a), (a, b)

    def test_attribute_group_satisfiability(self):
        assert constraints_satisfiable([exists("x")])
        assert constraints_satisfiable([ne("x", "a"), ne("x", "b")])
        assert not constraints_satisfiable([gt("x", 1), lt("x", 1)])
        assert constraints_satisfiable([gt("x", 1), lt("x", 1.5)])
        assert constraint_admits(gt("x", 1), 2)
        assert not constraint_admits(gt("x", 1), "2")


def type_eq(value: str) -> Constraint:
    return eq("type", value)


class TestPosetIntersectionEquivalence:
    def test_queries_equal_naive_scan_under_churn(self):
        rng = random.Random(606)
        poset = CoveringPoset()
        live: dict[int, Filter] = {}
        for step in range(500):
            roll = rng.random()
            if roll < 0.45 or not live:
                f = random_filter(rng)
                live[poset.add(f)] = f
            elif roll < 0.65:
                pid = rng.choice(list(live))
                del live[pid]
                poset.remove(pid)
            else:
                probe = random_filter(rng)
                expected = sorted(
                    pid for pid, f in live.items() if filters_intersect(f, probe)
                )
                assert poset.intersecting(probe) == expected
                assert poset.intersecting_any(probe) == bool(expected)

    def test_disjoint_attribute_fast_path(self):
        poset = CoveringPoset()
        poset.add(Filter(eq("a", 1)))
        checks_before = poset.checks
        # The probe shares no attributes, so the two satisfiable forms
        # intersect; intersection runs no exact filter_covers check.
        assert poset.intersecting_any(Filter(eq("b", 2)))
        assert poset.checks == checks_before

    def test_empty_poset_and_unsatisfiable_probe(self):
        poset = CoveringPoset()
        assert not poset.intersecting_any(Filter(eq("a", 1)))
        assert poset.intersecting(Filter(eq("a", 1))) == []
        poset.add(Filter(eq("a", 1)))
        broken = Filter(eq("a", 1), eq("a", 2))
        assert not poset.intersecting_any(broken)
        assert poset.intersecting(broken) == []


class TestPrefixRangeExactness:
    """On the prefix × lexicographic-range family the predicate is now
    *exact*, not merely sound: ``False`` iff no witness exists.  The
    witness pool contains each bound's immediate successor (bound +
    NUL), so the brute-force search is complete for bounds drawn from
    the test alphabet and the iff can be asserted in both directions."""

    def test_intersection_iff_witness_on_prefix_range_pairs(self):
        rng = random.Random(31337)
        order_ops = [Op.LT, Op.LE, Op.GT, Op.GE]
        seen = {True: 0, False: 0}
        for _ in range(400):
            a = Filter(prefix("s", rng.choice(STRINGS)))
            b = Filter(
                *(
                    Constraint("s", rng.choice(order_ops), rng.choice(STRINGS))
                    for _ in range(rng.randint(1, 2))
                )
            )
            verdict = filters_intersect(a, b)
            witness = _search_witness(a, b, rng)
            assert verdict == (witness is not None), (a, b, witness)
            seen[verdict] += 1
        # The generator must exercise both outcomes for the iff to bite.
        assert seen[True] > 40 and seen[False] > 40


class TestOperatorFamilyMaskPruning:
    """``_cover_candidates`` / ``covered_by`` pruning by per-name
    operator-family bitsets: populations whose constraints cannot be
    satisfied by the probe's operator family are excluded *before* any
    exact ``filter_covers`` check runs."""

    def test_cross_family_population_is_masked_out(self):
        poset = CoveringPoset()
        numeric = [poset.add(Filter(gt("x", float(i)))) for i in range(40)]
        # Same attribute, string family: none of these can ever cover a
        # numeric range probe, and none should reach the exact check.
        for i in range(40):
            poset.add(Filter(prefix("x", f"s{i}")))
        before = poset.checks
        covering = poset.covering(Filter(gt("x", 10.0)))
        assert covering == numeric[:11]  # gt(x, i) covers gt(x, 10) iff i <= 10
        assert poset.checks - before <= len(numeric)

    def test_exists_probe_reaches_every_same_name_entry(self):
        # EXISTS gives the probe every bit for the name: masking must
        # not exclude anything a naive scan would check.
        poset = CoveringPoset()
        pids = {
            poset.add(f): f
            for f in (
                Filter(exists("x")),
                Filter(eq("x", 1)),
                Filter(gt("x", 0)),
                Filter(prefix("x", "a")),
            )
        }
        probe = Filter(eq("x", 2))
        expected = sorted(
            pid for pid, f in pids.items() if filter_covers(f, probe)
        )
        assert poset.covering(probe) == expected
        assert expected  # exists("x") and gt("x", 0) do cover eq("x", 2)

    def test_masked_queries_equal_naive_scan_under_churn(self):
        rng = random.Random(909)
        poset = CoveringPoset()
        live: dict[int, Filter] = {}
        for step in range(400):
            roll = rng.random()
            if roll < 0.45 or not live:
                f = random_filter(rng)
                live[poset.add(f)] = f
            elif roll < 0.6:
                pid = rng.choice(list(live))
                del live[pid]
                poset.remove(pid)
            else:
                probe = random_filter(rng)
                assert poset.covering(probe) == sorted(
                    pid for pid, f in live.items() if filter_covers(f, probe)
                )
                assert poset.covers_any(probe) == any(
                    filter_covers(f, probe) for f in live.values()
                )

    def test_pruning_never_costs_more_checks_than_population(self):
        rng = random.Random(77)
        poset = CoveringPoset()
        for _ in range(120):
            poset.add(random_filter(rng))
        probes = [random_filter(rng) for _ in range(60)]
        before = poset.checks
        for probe in probes:
            poset.covering(probe)
        # The bitset prefilter keeps exact checks well below the naive
        # population × probes product.
        assert poset.checks - before < 0.5 * 120 * len(probes)


class TestBoundPruning:
    """Numeric bounds prune before ``filter_covers`` too, held to counts of
    exact checks on a ``mesh_churn``-shaped population: 48 subjects × 20
    bands ``[type = s] & [strength > a] & [strength < b]``.  One range a
    side makes the bound test exact here, so a ``covers_any`` miss checks
    nothing and ``covered_by`` checks only what it returns."""

    @staticmethod
    def band(subject: str, low: float, width: float) -> Filter:
        return Filter(type_eq(subject), gt("strength", low), lt("strength", low + width))

    def population(self, rng: random.Random) -> CoveringPoset:
        poset = CoveringPoset()
        for s in range(48):
            for _ in range(20):
                poset.add(self.band(f"s{s}", rng.uniform(0.0, 10.5), rng.uniform(0.3, 1.2)))
        return poset

    def test_a_covers_any_miss_checks_nothing(self):
        rng = random.Random(39)
        poset = self.population(rng)
        outcomes = set()
        for _ in range(400):
            probe = self.band(f"s{rng.randrange(48)}", rng.uniform(0.0, 11.0), rng.uniform(0.05, 1.2))
            before = poset.checks
            hit = poset.covers_any(probe)
            assert poset.checks - before == (1 if hit else 0), probe
            outcomes.add(hit)
        assert outcomes == {True, False}

    def test_covered_by_checks_at_most_its_hits_plus_one(self):
        rng = random.Random(40)
        poset = self.population(rng)
        found = 0
        for _ in range(200):
            low = rng.uniform(0.0, 9.0)
            probe = self.band(f"s{rng.randrange(48)}", low, rng.uniform(0.5, 3.0))
            before = poset.checks
            hits = poset.covered_by(probe)
            assert poset.checks - before <= len(hits) + 1, probe
            found += len(hits)
        assert found > 50


# ----------------------------------------------------------------------
# Exactness on the one-constraint grid, and monotonicity.
# ----------------------------------------------------------------------
NAN = float("nan")


def _grid_pool() -> list:
    """A witness pool complete for pairs of ``GRID`` constraints: each
    numeric value ±1 and ±0.5, both infinities, ``10**400 ± 1``, both
    bools, and every concatenation of up to three string tokens — the
    grid's strings and their NUL successors (``"\\x00a"`` sits below
    ``"a"``, ``"bab"`` above ``"b"`` and holds ``"ab"``)."""
    numbers = [v for v in VALUES if family(v) == "n"]
    pool: list = [True, False, math.inf, -math.inf, 10**400 - 1, 10**400 + 1]
    for v in numbers:
        pool.append(v)
        for step in (1, 0.5):
            try:
                pool += [v - step, v + step]
            except OverflowError:  # 10**400 has no float neighbour
                pass
    strings = [v for v in VALUES if isinstance(v, str)]
    tokens = strings + [s + "\x00" for s in strings]
    pool += ["".join(t) for n in range(4) for t in itertools.product(tokens, repeat=n)]
    return pool


class TestGridExactness:
    """On every ordered pair of one-constraint filters drawn from the
    covering grid (both names), ``filters_intersect`` answers True exactly
    when some pool value matches both, and ``filter_satisfiable`` exactly
    when some pool value matches the one filter: no pair is
    over-approximated, NaN bounds and ``[x <= ""]`` included."""

    def test_every_pair_is_exact(self):
        pool = _grid_pool()
        admitted = {}
        for c in GRID:
            bits = 0
            for i, value in enumerate(pool):
                if constraint_admits(c, value):
                    bits |= 1 << i
            admitted[c] = bits
        wrong = [c for c in GRID if filter_satisfiable(Filter(c)) != bool(admitted[c])]
        verdicts = set()
        for a, b in itertools.product(GRID, repeat=2):
            if a.name == b.name:
                want = bool(admitted[a] & admitted[b])
            else:
                want = bool(admitted[a]) and bool(admitted[b])
            got = filters_intersect(Filter(a), Filter(b))
            verdicts.add(got)
            if got != want:
                wrong.append((a, b, want))
        assert wrong == []
        assert verdicts == {True, False}

    def test_a_nan_bound_admits_no_number(self):
        for op in (Op.LT, Op.LE, Op.GT, Op.GE):
            assert not filter_satisfiable(Filter(Constraint("x", op, NAN))), op
            assert not filters_intersect(Filter(Constraint("x", op, NAN)), Filter(exists("x"))), op
        # Not an order bound: every number differs from NaN.
        assert filter_satisfiable(Filter(ne("x", NAN)))

    def test_an_open_interval_holding_no_number_is_empty(self):
        just_above_one = math.nextafter(1.0, 2)
        assert not filter_satisfiable(Filter(gt("x", 1.0), lt("x", just_above_one)))
        assert not filter_satisfiable(Filter(gt("x", 10**400), lt("x", 10**400 + 1)))
        assert not filter_satisfiable(Filter(ge("x", 1.0), lt("x", just_above_one), ne("x", 1)))
        assert filter_satisfiable(Filter(ge("x", 1.0), lt("x", just_above_one)))
        assert filter_satisfiable(Filter(gt("x", 10**400), lt("x", 10**400 + 2)))
        # Above 2**53 floats step by 2, so the one number strictly inside
        # is an int that no float equals.
        assert not filter_satisfiable(Filter(gt("x", 2**53), lt("x", 2**53 + 2), ne("x", 2**53 + 1)))
        assert filter_satisfiable(Filter(gt("x", 2**53), lt("x", 2**53 + 2), ne("x", 2**53 + 2)))

    def test_numeric_groups_are_exact_on_runs_of_adjacent_numbers(self):
        """Every int and float between a run's ends is in the run, so a
        group bounded within it is satisfiable iff some run value matches
        it: two bounds from the run, and maybe one NE exclusion."""
        above_one = math.nextafter(1.0, 2)
        runs = [
            [math.nextafter(1.0, 0), 1.0, above_one, math.nextafter(above_one, 2)],
            [-5e-324, 0.0, 5e-324, 1e-323],
            [2**53 - 1, 2**53, 2**53 + 1, 2**53 + 2, 2**53 + 3],
            [10**400 + i for i in range(4)],
            [-(10**400) - i for i in range(4)],
        ]
        verdicts = set()
        for run in runs:
            for lo, hi, lo_op, hi_op in itertools.product(run, run, (Op.GT, Op.GE), (Op.LT, Op.LE)):
                for excluded in [None, *run]:
                    group = [Constraint("x", lo_op, lo), Constraint("x", hi_op, hi)]
                    if excluded is not None:
                        group.append(ne("x", excluded))
                    want = any(all(constraint_admits(c, v) for c in group) for v in run)
                    assert filter_satisfiable(Filter(*group)) == want, group
                    verdicts.add(want)
        assert verdicts == {True, False}

    def test_the_empty_string_floors_every_string_range(self):
        floor = Filter(le("x", ""))
        assert filter_satisfiable(floor)
        assert filters_intersect(floor, Filter(prefix("x", "")))
        assert not filters_intersect(floor, Filter(suffix("x", "a")))
        assert not filters_intersect(floor, Filter(Constraint("x", Op.CONTAINS, "a")))
        assert not filter_satisfiable(Filter(lt("x", "")))

    def test_pins_meet_by_value_and_family(self):
        assert filters_intersect(Filter(eq("x", 1)), Filter(eq("x", 1.0)))
        assert filters_intersect(Filter(eq("x", 0)), Filter(eq("x", -0.0)))
        assert not filters_intersect(Filter(eq("x", True)), Filter(eq("x", 1)))
        assert not filters_intersect(Filter(eq("x", False)), Filter(eq("x", 0)))
        assert not filters_intersect(Filter(eq("x", 2**53 + 1)), Filter(eq("x", float(2**53))))
        # A pin against a group: every constraint of the group votes.
        assert not filters_intersect(Filter(eq("x", 1)), Filter(gt("x", 0), ne("x", 1)))
        assert filters_intersect(Filter(eq("x", 1)), Filter(gt("x", 0), ne("x", 2)))

    def test_the_meet_looks_up_every_shared_name(self):
        """Shared names meet wherever they sit in either filter, and a
        name one side lacks never blocks."""
        wide = Filter(eq("a", 1), eq("b", 1), eq("x", 1))
        assert not filters_intersect(wide, Filter(eq("x", 2)))
        assert not filters_intersect(Filter(eq("x", 2)), wide)
        assert not filters_intersect(Filter(eq("x", 2), exists("c")), wide)
        assert filters_intersect(Filter(eq("x", 1), exists("c")), wide)

    def test_the_form_is_built_once_and_only_on_use(self):
        f = Filter(eq("type", "a"), gt("x", 1))
        assert f._form is None
        assert filters_intersect(f, Filter(eq("type", "a")))
        form = f._form
        assert form == {"type": "a", "x": (gt("x", 1),)}
        assert filter_satisfiable(f) and f._form is form
        assert filter_satisfiable(copy.deepcopy(f))
        broken = Filter(gt("x", 1), lt("x", 0))
        assert not filter_satisfiable(broken) and broken._form is False


names = st.sampled_from(["x", "y"])
one_constraint = names.flatmap(poset_constraints)
small_filters = st.lists(one_constraint, min_size=1, max_size=3).map(lambda cs: Filter(*cs))


@given(small_filters, one_constraint, st.integers(0, 3), small_filters)
def test_adding_a_constraint_never_widens(f, extra, at, other):
    """Meeting only narrows: a filter with one more constraint is never
    satisfiable where the smaller one was not, and never intersects a
    filter the smaller one did not — over NaN, ``10**400``, ``2**53 + 1``
    and the string patterns, with the new constraint at any position
    (an ``=`` placed first changes which value pins)."""
    cs = list(f.constraints)
    bigger = Filter(*cs[:at], extra, *cs[at:])
    if not filter_satisfiable(f):
        assert not filter_satisfiable(bigger)
    if not filters_intersect(f, other):
        assert not filters_intersect(bigger, other)
        assert not filters_intersect(other, bigger)
