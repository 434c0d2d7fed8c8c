import itertools
import math

import pytest
from hypothesis import given

from conftest import all_membership_dicts, to_universe, universes
import oracle

from setlab import (
    CapExceededError,
    DEFAULT_MAX_N,
    EnumSpec,
    FILTERS,
    HF_SIZES,
    Unique,
    Universe,
    canonical_form,
    enumerate_universes,
    hf_universe,
    is_lower,
    is_upper,
)
from setlab.enumerator import _relabellings

# Isomorphism-class counts by Burnside's lemma over the symmetric group
# acting on matrix cells: n=0: 1 (the empty universe); n=1: 2;
# n=2: (16 + 4)/2 = 10; n=3: (512 + 3*32 + 2*8)/6 = 104; n=4: 3044;
# n=5: 291968 (OEIS A000595).
CLASS_COUNTS = {0: 1, 1: 2, 2: 10, 3: 104, 4: 3044, 5: 291968}


class TestEnumerationTotals:
    @pytest.mark.parametrize("n,total", [(0, 1), (1, 2), (2, 16), (3, 512)])
    def test_total_is_two_to_the_n_squared(self, n, total):
        assert enumerate_universes(EnumSpec(n=n)).total == total

    def test_visits_every_membership_assignment_exactly_once(self):
        seen = []
        enumerate_universes(EnumSpec(n=2), visit=lambda u: seen.append(u.masks))
        expected = sorted(to_universe(d).masks for d in all_membership_dicts(2))
        assert sorted(seen) == expected
        assert len(seen) == len(set(seen))

    def test_cap(self):
        with pytest.raises(
            CapExceededError, match="^enumeration size 6 exceeds the cap of 5$"
        ):
            EnumSpec(n=DEFAULT_MAX_N + 1)
        assert EnumSpec(n=DEFAULT_MAX_N).n == DEFAULT_MAX_N


class TestFilters:
    def test_one_element_census(self):
        census = {
            name: enumerate_universes(EnumSpec(n=1, filter=name)).matching
            for name in ("satisfies-successor", "satisfies-predecessor", "satisfies-both")
        }
        assert census == {
            "satisfies-successor": 1,
            "satisfies-predecessor": 1,
            "satisfies-both": 0,
        }

    def test_satisfies_both_matches_no_four_element_universe(self):
        # The filter does not change under relabelling, so the class
        # representatives stand for all 65,536 universes.
        stats = enumerate_universes(EnumSpec(n=4, filter="satisfies-both", dedupe=True))
        assert (stats.total, stats.matching) == (3044, 0)

    def test_witnesses_are_the_expected_one_element_worlds(self):
        succ = enumerate_universes(EnumSpec(n=1, filter="satisfies-successor"))
        assert succ.sample_witnesses == ("e0 = {e0}\n",)
        pred = enumerate_universes(EnumSpec(n=1, filter="satisfies-predecessor"))
        assert pred.sample_witnesses == ("e0 = {}\n",)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_counts_match_the_oracle(self, n):
        oracles = {
            "satisfies-successor": oracle.satisfies_successor,
            "satisfies-predecessor": oracle.satisfies_predecessor,
            "satisfies-both": lambda d: (
                oracle.satisfies_successor(d) and oracle.satisfies_predecessor(d)
            ),
            "has-upper": lambda d: any(oracle.is_upper(d, x) for x in d),
            "has-lower": lambda d: any(oracle.is_lower(d, x) for x in d),
            "has-strictly-russellian": lambda d: any(
                oracle.is_strictly_russellian(d, x) for x in d
            ),
        }
        assert set(oracles) == set(FILTERS)
        for name, reference in oracles.items():
            expected = sum(1 for d in all_membership_dicts(n) if reference(d))
            stats = enumerate_universes(EnumSpec(n=n, filter=name))
            assert stats.matching == expected, name

    def test_unknown_filter(self):
        with pytest.raises(ValueError, match="unknown filter"):
            EnumSpec(n=1, filter="bogus")

    def test_witness_cap_bounds_the_sample(self):
        stats = enumerate_universes(EnumSpec(n=2))
        assert len(stats.sample_witnesses) == 3
        assert stats.matching == 16


class TestDedupe:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_class_counts_match_burnside(self, n):
        stats = enumerate_universes(EnumSpec(n=n, dedupe=True))
        assert stats.total == CLASS_COUNTS[n]

    def test_distinct_canonical_forms_agree(self):
        forms = set()
        enumerate_universes(
            EnumSpec(n=2), visit=lambda u: forms.add(canonical_form(u))
        )
        assert len(forms) == CLASS_COUNTS[2]

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_representatives_are_the_oracle_minimal_codes(self, n):
        kept = []
        enumerate_universes(
            EnumSpec(n=n, dedupe=True),
            visit=lambda u: kept.append(
                oracle.encode({x: u.extension(x) for x in u.names})
            ),
        )
        minimal = sorted(
            oracle.encode(d)
            for d in all_membership_dicts(n)
            if oracle.encode(d) == oracle.canonical_code(d)
        )
        assert kept == minimal

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_representatives_are_every_least_code_in_counter_order(self, n):
        # Each kept code is the least of its class (canonical_form takes the
        # minimum over every relabelling), the codes strictly increase, and
        # there are as many as there are classes: so every class is kept
        # exactly once, by its least code, in counter order.
        codes = []

        def visit(u):
            code = sum(mask << (i * n) for i, mask in enumerate(u.masks))
            width = max(1, (n * n + 7) // 8)
            assert canonical_form(u) == bytes([n]) + code.to_bytes(width, "little")
            codes.append(code)

        stats = enumerate_universes(EnumSpec(n=n, dedupe=True), visit=visit)
        assert all(a < b for a, b in zip(codes, codes[1:]))
        assert len(codes) == stats.total == stats.matching == CLASS_COUNTS[n]

    def test_dedupe_matching_counts_classes(self):
        stats = enumerate_universes(
            EnumSpec(n=1, filter="satisfies-successor", dedupe=True)
        )
        assert (stats.total, stats.matching) == (2, 1)


class TestRelabellings:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_one_table_per_permutation_identity_first(self, n):
        tables = _relabellings(n)
        assert len(tables) == math.factorial(n)
        # The dedupe generator skips the first table as the identity.
        assert tables[0] == (tuple(range(n))[::-1], tuple(range(1 << n)))
        orders = {order for order, _ in tables}
        assert orders == set(itertools.permutations(range(n)))
        for order, column in tables:
            # Old element order[n-1-j] becomes new element j, so bit
            # order[n-1-j] of a row moves to bit j.
            assert column == tuple(
                sum(1 << j for j in range(n) if mask >> order[n - 1 - j] & 1)
                for mask in range(1 << n)
            )


class TestCanonicalForm:
    def test_relabeling_is_invisible(self):
        u1 = Universe.from_extensions({"a": (), "b": ()})
        u2 = Universe.from_extensions({"x": (), "y": ()})
        assert canonical_form(u1) == canonical_form(u2)

    def test_structure_is_visible(self):
        empty = Universe.from_extensions({"e": ()})
        quine = Universe.from_extensions({"q": ("q",)})
        assert canonical_form(empty) != canonical_form(quine)

    def test_two_cycle_is_symmetric(self):
        u1 = Universe.from_extensions({"a": ("b",), "b": ("a",)})
        u2 = Universe.from_extensions({"b": ("a",), "a": ("b",)})
        assert canonical_form(u1) == canonical_form(u2)

    def test_element_order_is_invisible(self):
        u1 = Universe.from_extensions({"e": (), "q": ("q",)})
        u2 = Universe.from_extensions({"q": ("q",), "e": ()})
        assert canonical_form(u1) == canonical_form(u2)

    def test_different_sizes_never_collide(self):
        u1 = Universe((), ())
        u2 = Universe.from_extensions({"e": ()})
        assert canonical_form(u1) != canonical_form(u2)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            canonical_form(hf_universe(4))

    @given(universes())
    def test_matches_the_oracle(self, u):
        form = canonical_form(u)
        code = oracle.canonical_code({x: u.extension(x) for x in u.names})
        assert form[0] == len(u)
        assert int.from_bytes(form[1:], "little") == code


class TestHfUniverse:
    def test_sizes_follow_iterated_powersets(self):
        assert HF_SIZES[:5] == (0, 1, 2, 4, 16)
        for rank in range(5):
            assert len(hf_universe(rank)) == HF_SIZES[rank]

    def test_rank_zero_is_empty(self):
        assert hf_universe(0).names == ()

    def test_rank_three_structure(self):
        u = hf_universe(3)
        assert {x: u.extension(x) for x in u.names} == {
            "h0": frozenset(),
            "h1": frozenset({"h0"}),
            "h2": frozenset({"h1"}),
            "h3": frozenset({"h0", "h1"}),
        }

    def test_everything_is_a_lower_nothing_an_upper(self):
        u = hf_universe(3)
        assert all(is_lower(u, x) for x in u.names)
        assert not any(is_upper(u, x) for x in u.names)
        assert not any(u.self_membered(x) for x in u.names)

    def test_successor_unique_exactly_when_in_range(self):
        u = hf_universe(3)
        for i, x in enumerate(u.names):
            target = i | (1 << i)
            result = u.successor_in(x)
            if target < len(u):
                assert result == Unique(f"h{target}")
            else:
                assert not isinstance(result, Unique)

    def test_rank_cap(self):
        with pytest.raises(CapExceededError, match="^rank 6 exceeds the cap of 5$"):
            hf_universe(6)
        assert len(hf_universe(5)) == 65536

    def test_negative_rank(self):
        with pytest.raises(ValueError):
            hf_universe(-1)
