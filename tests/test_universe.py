import pytest

from conftest import all_membership_dicts, to_universe
import oracle

from setlab import (
    Absent,
    DuplicateDefinitionError,
    Multiple,
    Unique,
    Universe,
    UnknownElementError,
)


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
        # result keeps that linear rather than quadratic.
        u = universe(a=(), b=(), c=())
        assert u.predecessor_in("a") is u.predecessor_in("b")
        assert u.predecessor_in("c") is u.predecessor_in("a")


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


def _as_list(result):
    if isinstance(result, Unique):
        return [result.id]
    if isinstance(result, Multiple):
        return list(result.ids)
    return []
