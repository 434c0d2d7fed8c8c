import random

import pytest

from conftest import all_membership_dicts, to_universe
import oracle

from setlab import (
    PREDECESSOR,
    SUCCESSOR,
    Absent,
    DuplicateDefinitionError,
    Multiple,
    Unique,
    Universe,
    UnknownElementError,
    check_axiom,
    classify_all,
    russell_witness,
    verify_lemma_suite,
)
from setlab.universe import Facts, _cached


def universe(**extensions):
    return Universe.from_extensions(
        {name: members for name, members in extensions.items()}
    )


QUINE = universe(e=(), q=("q",))
TWO_CYCLE = universe(a=("b",), b=("a",))


class TestConstruction:
    def test_member_must_be_an_element(self):
        with pytest.raises(UnknownElementError):
            universe(a=("c",))

    def test_duplicate_names_rejected(self):
        with pytest.raises(DuplicateDefinitionError):
            Universe(("a", "a"), (0, 0))

    def test_one_mask_per_element(self):
        with pytest.raises(ValueError):
            Universe(("a", "b"), (0,))

    def test_multiple_needs_two_ids(self):
        with pytest.raises(ValueError):
            Multiple(("a",))

    def test_mask_must_stay_inside_universe(self):
        with pytest.raises(UnknownElementError):
            Universe(("a",), (2,))

    def test_order_is_construction_order(self):
        u = universe(q=("q",), e=())
        assert u.names == ("q", "e")

    def test_negative_mask_rejected(self):
        with pytest.raises(
            UnknownElementError, match="^extension of 'b' refers outside"
        ):
            Universe(("a", "b"), (0, -1))

    def test_first_bad_element_is_named(self):
        # A later element holds the largest or the smallest mask, but b is
        # the first element in canonical order whose mask leaves the universe.
        for masks in ((15, 16, 1 << 9, -4), (0, -1, 64, 0)):
            with pytest.raises(
                UnknownElementError,
                match="^extension of 'b' refers outside the universe$",
            ):
                Universe(("a", "b", "c", "d"), masks)

    def test_largest_mask_inside_is_accepted(self):
        u = Universe(("a", "b", "c"), (7, 0, 7))
        assert u.extension("a") == frozenset("abc")

    def test_empty_universe(self):
        u = Universe((), ())
        assert len(u) == 0 and list(u) == [] and u.all_mask == 0
        assert u.ids(0) == ()

    def test_membership_test_reads_element_names(self):
        u = Universe(("e0", "e1"), (0, 1))
        assert "e0" in u
        assert "zz" not in u
        assert 0 not in u


class TestExtension:
    def test_empty_extension(self):
        assert universe(e=()).extension("e") == frozenset()

    def test_quine_atom_contains_itself(self):
        assert QUINE.extension("q") == frozenset({"q"})

    def test_two_cycle(self):
        assert TWO_CYCLE.extension("a") == frozenset({"b"})

    def test_unknown_element(self):
        with pytest.raises(UnknownElementError):
            QUINE.extension("zz")


class TestIsMember:
    def test_quine_atom(self):
        assert QUINE.is_member("q", "q")
        assert not QUINE.is_member("e", "e")

    def test_two_cycle(self):
        assert TWO_CYCLE.is_member("a", "b")
        assert not TWO_CYCLE.is_member("a", "a")


class TestCoextensive:
    def test_reflexive(self):
        for u in (QUINE, TWO_CYCLE):
            for x in u.names:
                assert u.coextensive(x, x)

    def test_distinct_elements_may_be_coextensive(self):
        u = universe(a=(), b=())
        assert u.coextensive("a", "b")

    def test_different_extensions(self):
        assert not QUINE.coextensive("q", "e")


class TestSelfMembered:
    def test_quine_atom(self):
        assert QUINE.self_membered("q")
        assert not QUINE.self_membered("e")

    def test_top_element_containing_everything(self):
        u = universe(a=(), b=("a",), top=("a", "b", "top"))
        assert u.self_membered("top")


class TestSuccessor:
    def test_quine_atom_is_its_own_successor(self):
        assert QUINE.successor_in("q") == Unique("q")

    def test_lone_empty_set_has_none(self):
        assert universe(e=()).successor_in("e") == Absent()

    def test_read_off(self):
        u = universe(e=(), s=("e",))
        assert u.successor_in("e") == Unique("s")


class TestPredecessor:
    def test_quine_atom(self):
        assert QUINE.predecessor_in("q") == Unique("e")

    def test_degenerate_empty_set(self):
        assert universe(e=()).predecessor_in("e") == Unique("e")

    def test_coextensive_pair_is_ambiguous(self):
        u = universe(a=(), b=())
        assert u.predecessor_in("a") == Multiple(("a", "b"))

    def test_coextensive_elements_share_one_result(self):
        # k coextensive elements each look up the same k names: one shared
        # tuple of names keeps that linear rather than quadratic.
        u = universe(a=(), b=(), c=())
        results = [u.predecessor_in(x) for x in "abc"]
        assert results == [Multiple(("a", "b", "c"))] * 3
        assert results[0].ids is results[1].ids is results[2].ids


class TestAgainstOracle:
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_all_small_universes(self, n):
        for d in all_membership_dicts(n):
            u = to_universe(d)
            for x in d:
                assert u.extension(x) == frozenset(oracle.extension(d, x))
                assert u.self_membered(x) == oracle.self_membered(d, x)
                succ = oracle.successors(d, x)
                pred = oracle.predecessors(d, x)
                assert _as_list(u.successor_in(x)) == succ
                assert _as_list(u.predecessor_in(x)) == pred
                for y in d:
                    assert u.is_member(x, y) == oracle.is_member(d, x, y)
                    assert u.coextensive(x, y) == oracle.coextensive(d, x, y)

    def test_lookups_on_facts_cases(self):
        # Every universe with n <= 3, and the planted groups of 2 and 3 or
        # more coextensive elements at n=6 and n=40.
        for d in facts_cases():
            u = to_universe(d)
            for x in d:
                assert _as_list(u.successor_in(x)) == oracle.successors(d, x), d
                assert _as_list(u.predecessor_in(x)) == oracle.predecessors(d, x), d


def naive_facts(d):
    """Facts of to_universe(d), straight from the oracle's definitions."""
    names = sorted(d)

    def bits(xs):
        return sum(1 << names.index(x) for x in xs)

    def only(ys):
        return names.index(ys[0]) if len(ys) == 1 else None

    selfs = [x for x in names if oracle.self_membered(d, x)]
    return Facts(
        self_mask=bits(selfs),
        lower_mask=bits(x for x in names if oracle.is_lower(d, x)),
        upper_mask=bits(x for x in names if oracle.is_upper(d, x)),
        successor=tuple(only(oracle.successors(d, x)) for x in names),
        predecessor=tuple(only(oracle.predecessors(d, x)) for x in names),
    )


def naive_carriers(d):
    """Extension mask -> names of its carriers, grouped by the oracle."""
    names = sorted(d)
    groups = {}
    for x in names:
        group = tuple(y for y in names if oracle.coextensive(d, x, y))
        groups[sum(1 << names.index(z) for z in d[x])] = group
    return groups


def planted(rng, n):
    """A random universe over n >= 5 elements in which some element a that
    is not self-membered has a group of at least 2 coextensive elements as
    its successor target and a group of at least 3 (a among them) as its
    predecessor target."""
    names = [f"e{i}" for i in range(n)]
    d = {x: {y for y in names if rng.random() < 0.3} for x in names}
    a, b, c, q, r = rng.sample(names, 5)
    d[a].discard(a)
    d[b] = d[a] | {a}
    d[c] = set(d[b])
    d[q] = set(d[a])
    d[r] = set(d[a])
    return d, a


def facts_cases():
    for n in range(4):
        yield from all_membership_dicts(n)
    rng = random.Random(19)
    for n, count in ((6, 400), (40, 40)):
        for _ in range(count):
            yield planted(rng, n)[0]


class TestFacts:
    def test_planted_groups_are_where_they_claim(self):
        rng = random.Random(5)
        for n in (6, 40):
            d, a = planted(rng, n)
            assert len(oracle.successors(d, a)) >= 2
            assert len(oracle.predecessors(d, a)) >= 3

    def test_facts_match_naive_recomputation(self):
        for d in facts_cases():
            f = to_universe(d).facts
            assert f == naive_facts(d), d
            # The Russell set, read as lower and upper at once, is the
            # oracle's scan for ext == nonself.
            names = sorted(d)
            russell = sum(1 << names.index(x) for x in oracle.russell_candidates(d))
            assert f.lower_mask & f.upper_mask == russell, d

    def test_facts_read_on_the_class_is_the_descriptor(self):
        descriptor = Universe.facts
        assert isinstance(descriptor, _cached)
        assert descriptor.__doc__ == descriptor.func.__doc__
        assert descriptor.__doc__.startswith("The derived facts")

    def test_carriers_match_oracle_grouping(self):
        for d in facts_cases():
            assert to_universe(d).carriers == naive_carriers(d), d

    def test_sweep_calls_leave_carriers_unbuilt(self):
        # The audit, the classifier and the lemma suite read the index tables
        # only; the carrier lists are built for a name-level lookup.
        for d in facts_cases():
            u = to_universe(d)
            check_axiom(u, SUCCESSOR)
            check_axiom(u, PREDECESSOR)
            classify_all(u)
            russell_witness(u)
            verify_lemma_suite(u)
            assert "carriers" not in u.__dict__
            if u.names:
                u.successor_in(u.names[0])
                assert "carriers" in u.__dict__


def _as_list(result):
    if isinstance(result, Unique):
        return [result.id]
    if isinstance(result, Multiple):
        return list(result.ids)
    return []
