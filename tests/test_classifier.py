import pytest

from conftest import all_membership_dicts, to_universe
import oracle

from setlab import (
    LemmaViolationError,
    Universe,
    UnknownElementError,
    classify,
    classify_all,
    comprehension_witness,
    is_lower,
    is_strictly_russellian,
    is_upper,
    russell_witness,
)


def universe(**extensions):
    return Universe.from_extensions(extensions)


QUINE_ATOM = universe(q=("q",))
EMPTY_SET = universe(e=())
TWO_CYCLE = universe(a=("b",), b=("a",))
WITH_TOP = universe(a=(), b=("a",), top=("a", "b", "top"))


class TestIsLower:
    def test_empty_set_is_a_lower(self):
        assert is_lower(EMPTY_SET, "e")

    def test_quine_atom_is_not(self):
        assert not is_lower(QUINE_ATOM, "q")

    def test_cycle_without_direct_self_membership(self):
        assert is_lower(TWO_CYCLE, "a")
        assert is_lower(TWO_CYCLE, "b")


class TestIsUpper:
    def test_top_element_is_an_upper(self):
        assert is_upper(WITH_TOP, "top")

    def test_empty_set_is_not(self):
        assert not is_upper(EMPTY_SET, "e")

    def test_vacuously_when_nothing_is_non_self_membered(self):
        assert is_upper(QUINE_ATOM, "q")


class TestStrictlyRussellian:
    def test_empty_set(self):
        assert not is_strictly_russellian(EMPTY_SET, "e")

    def test_nowhere_in_small_universes(self):
        for n in range(3):
            for d in all_membership_dicts(n):
                u = to_universe(d)
                for x in d:
                    assert not is_strictly_russellian(u, x)


class TestClassification:
    def test_matches_predicates(self):
        for row in classify_all(WITH_TOP):
            assert row.lower == is_lower(WITH_TOP, row.element)
            assert row.upper == is_upper(WITH_TOP, row.element)
            assert row.self_membered == WITH_TOP.self_membered(row.element)

    def test_never_both_lower_and_upper(self):
        for d in all_membership_dicts(2):
            u = to_universe(d)
            for row in classify_all(u):
                assert not (row.lower and row.upper)
                assert not is_strictly_russellian(u, row.element)

    def test_quine_atom_row(self):
        row = classify(QUINE_ATOM, "q")
        assert (row.lower, row.upper, row.self_membered) == (False, True, True)

    def test_a_planted_overlap_raises_on_every_call(self):
        # classify_all shares one tuple per names and masks; a record that
        # makes an upper a lower as well must raise each time, never be
        # served from or stored in that table.
        clean = classify_all(WITH_TOP)
        u = universe(a=(), b=("a",), top=("a", "b", "top"))
        u.__dict__["facts"] = u.facts._replace(
            lower_mask=u.facts.lower_mask | u.bit("top")
        )
        for _ in range(2):
            with pytest.raises(LemmaViolationError, match="'top'"):
                classify_all(u)
        assert classify_all(WITH_TOP) is clean

    def test_a_planted_overlap_names_its_first_element(self):
        # Canonical order, not name order: 'top' comes before 'a' here.
        u = universe(top=("a", "b", "top"), b=("a",), a=())
        u.__dict__["facts"] = u.facts._replace(
            lower_mask=u.facts.lower_mask | u.bit("top"),
            upper_mask=u.facts.upper_mask | u.bit("a"),
        )
        for _ in range(2):
            with pytest.raises(LemmaViolationError) as raised:
                classify_all(u)
            assert str(raised.value) == (
                "'top' classified as both a lower and an upper"
            )


class TestRussellWitness:
    def test_simple_universes(self):
        assert russell_witness(EMPTY_SET) is None
        assert russell_witness(QUINE_ATOM) is None

    def test_none_across_small_universes(self):
        for n in range(3):
            for d in all_membership_dicts(n):
                u = to_universe(d)
                assert russell_witness(u) is None
                assert oracle.russell_candidates(d) == []

    def test_reads_the_elements_recorded_as_lower_and_upper(self):
        # No universe has a Russell set, so only a lying record shows which
        # elements the witness search reads: those recorded as both.
        u = universe(a=(), b=("a",), top=("a", "b", "top"))
        u.__dict__["facts"] = u.facts._replace(
            lower_mask=u.facts.lower_mask | u.bit("top"),
            upper_mask=u.facts.upper_mask | u.bit("b"),
        )
        assert russell_witness(u) == "b"
        assert [is_strictly_russellian(u, x) for x in u.names] == [False, True, True]


class TestComprehensionWitness:
    def test_constantly_false_finds_the_empty_set(self):
        assert comprehension_witness(EMPTY_SET, 0) == "e"

    def test_non_self_membership_agrees_with_russell_witness(self):
        for n in range(3):
            for d in all_membership_dicts(n):
                u = to_universe(d)
                nonself = u.all_mask & ~u.facts.self_mask
                assert comprehension_witness(u, nonself) == russell_witness(u)

    def test_constantly_true_finds_the_top(self):
        assert comprehension_witness(WITH_TOP, WITH_TOP.all_mask) == "top"

    def test_least_witness_in_canonical_order(self):
        u = universe(a=(), b=())
        assert comprehension_witness(u, 0) == "a"

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_agrees_with_the_oracle_on_every_target(self, n):
        for d in all_membership_dicts(n):
            u = to_universe(d)
            for target in range(1 << n):
                members = {x for i, x in enumerate(u.names) if target >> i & 1}
                candidates = oracle.comprehension_candidates(d, members.__contains__)
                expected = candidates[0] if candidates else None
                assert comprehension_witness(u, target) == expected


class TestAgainstOracle:
    @pytest.mark.parametrize("n", [1, 2])
    def test_lower_upper_on_all_small_universes(self, n):
        for d in all_membership_dicts(n):
            u = to_universe(d)
            for x in d:
                assert is_lower(u, x) == oracle.is_lower(d, x)
                assert is_upper(u, x) == oracle.is_upper(d, x)


class TestUnknownElements:
    def test_classifier_ops_reject_unknown_ids(self):
        with pytest.raises(UnknownElementError):
            is_lower(QUINE_ATOM, "zz")
        with pytest.raises(UnknownElementError):
            is_upper(QUINE_ATOM, "zz")
