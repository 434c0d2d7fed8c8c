import itertools
import random
import sys
import threading
from collections import Counter

import pytest

from conftest import all_membership_dicts, to_universe

from setlab import (
    ABSENT,
    ASCENDING,
    CYCLE,
    DESCENDING,
    HOLDS,
    LEMMA_TAGS,
    LENGTH_CAP,
    MULTIPLE,
    PREDECESSOR,
    SUCCESSOR,
    VACUOUS,
    VIOLATED,
    Absent,
    EnumSpec,
    LemmaViolationError,
    Unique,
    Universe,
    UnknownElementError,
    Verdict,
    check_axiom,
    classify_all,
    enumerate_universes,
    hf_universe,
    trace_chain,
    verify_lemma_suite,
)
from setlab.audit import _clean_report
from setlab.classifier import _classifications
from suite_reference import reference_lemma_suite


def universe(**extensions):
    return Universe.from_extensions(extensions)


QUINE = universe(e=(), q=("q",))


class TestCheckAxiom:
    def test_quine_atom_alone(self):
        u = universe(q=("q",))
        assert check_axiom(u, SUCCESSOR).satisfied
        report = check_axiom(u, PREDECESSOR)
        assert not report.satisfied
        assert dict(report.per_element)["q"] == Absent()

    def test_empty_set_alone(self):
        u = universe(e=())
        assert check_axiom(u, PREDECESSOR).satisfied
        assert not check_axiom(u, SUCCESSOR).satisfied

    def test_empty_universe_satisfies_both_vacuously(self):
        u = Universe((), ())
        assert check_axiom(u, SUCCESSOR).satisfied
        assert check_axiom(u, PREDECESSOR).satisfied

    def test_satisfied_iff_every_lookup_unique(self):
        for d in all_membership_dicts(2):
            u = to_universe(d)
            for which in (SUCCESSOR, PREDECESSOR):
                report = check_axiom(u, which)
                assert report.satisfied == all(
                    isinstance(r, Unique) for _, r in report.per_element
                )

    def test_unknown_axiom(self):
        with pytest.raises(ValueError):
            check_axiom(QUINE, "equality")

    def test_report_is_a_plain_named_tuple(self):
        report = check_axiom(QUINE, SUCCESSOR)
        assert report == (SUCCESSOR, QUINE, report.satisfied)
        assert not hasattr(report, "__dict__")
        # per_element is built on each read, and each build is the same.
        assert report.per_element == report.per_element


class TestLemmaSuite:
    def test_all_tags_present_in_order(self):
        report = verify_lemma_suite(QUINE)
        assert tuple(tag for tag, _ in report.per_lemma) == LEMMA_TAGS

    def test_empty_universe_is_all_vacuous(self):
        report = verify_lemma_suite(Universe((), ()))
        assert all(v.status == VACUOUS for _, v in report.per_lemma)

    def test_quine_universe_pred_lemma_holds(self):
        report = verify_lemma_suite(QUINE)
        assert report.verdict("L-pred-not-self").status == HOLDS
        assert report.ok

    def test_no_violation_across_small_universes(self):
        for n in range(3):
            for d in all_membership_dicts(n):
                report = verify_lemma_suite(to_universe(d))
                assert report.ok, (d, report.violations)

    def test_main_result_holds_when_links_exist(self):
        u = universe(e=(), s=("e",), top=("e", "s", "top", "w"), w=("e", "s", "top", "w"))
        report = verify_lemma_suite(u)
        assert report.verdict("main-result").status == HOLDS

    def test_notes_mention_element_level_reading(self):
        report = verify_lemma_suite(QUINE)
        assert any("element level" in note for note in report.notes)

    def test_violated_verdict_needs_a_witness(self):
        with pytest.raises(ValueError):
            Verdict(VIOLATED)

    def test_unknown_tag_has_no_verdict(self):
        with pytest.raises(KeyError):
            verify_lemma_suite(QUINE).verdict("nope")


# Per-lemma statuses over every universe of n <= 3 elements: each key is one
# letter per tag of LEMMA_TAGS (H holds, V vacuous), each value the number of
# universes with that row.  A change that turns some "holds" into "vacuous",
# or the reverse, changes a count even though no lemma is violated.
STATUS_MATRIX = {
    0: {"VVVVVVVVVVVVV": 1},
    1: {"HVHHHVVVVVVVV": 1, "VHHHVHVVVVVVV": 1},
    2: {
        "HHHHHHVVVVVVV": 2,
        "HVHHHHHHVVVHV": 2,
        "HVHHHHVVVVVVV": 2,
        "VHHHHHVVHHHHV": 2,
        "VHHHHHVVVVVVV": 2,
        "VVHVVVVVVVVVV": 2,
        "HVHHHVVVVVVVV": 1,
        "HVHVVVVVVVVVV": 1,
        "VHHHVHVVVVVVV": 1,
        "VHHVVVVVVVVVV": 1,
    },
    3: {
        "HVHHHHVVVVVVV": 66,
        "VHHHHHVVVVVVV": 66,
        "HVHHHVVVVVVVV": 57,
        "VHHHVHVVVVVVV": 57,
        "HHHHHHVVVVVVV": 54,
        "HVHHHHHHVVVHV": 51,
        "VHHHHHVVHHHHV": 51,
        "VVHVHHVVVVVVV": 30,
        "VVHVHVVVVVVVV": 18,
        "VVHVVHVVVVVVV": 18,
        "HVHVVHVVVVVVV": 9,
        "VHHVHVVVVVVVV": 9,
        "HHHHHHHHVVVHV": 6,
        "HHHHHHVVHHHHV": 6,
        "VVHVVVVVVVVVV": 6,
        "HHHHHVVVVVVVV": 3,
        "HHHHVHVVVVVVV": 3,
        "HVHVVVVVVVVVV": 1,
        "VHHVVVVVVVVVV": 1,
    },
    # n=4 counts the 3,044 isomorphism-class representatives (--dedupe), not
    # all 65,536 universes: status rows are relabelling-invariant, so the
    # representatives show every row the full sweep does, in a tenth of
    # the time.
    4: {
        "HVHHHHVVVVVVV": 581,
        "VHHHHHVVVVVVV": 581,
        "VVHVHHVVVVVVV": 410,
        "HHHHHHVVVVVVV": 307,
        "HVHHHHHHVVVHV": 216,
        "HVHHHVVVVVVVV": 216,
        "VHHHHHVVHHHHV": 216,
        "VHHHVHVVVVVVV": 216,
        "VVHVHVVVVVVVV": 43,
        "VVHVVHVVVVVVV": 43,
        "HVHVHHVVVVVVV": 30,
        "VHHVHHVVVVVVV": 30,
        "HHHHHHHHVVVHV": 28,
        "HHHHHHVVHHHHV": 28,
        "VVHVVVVVVVVVV": 25,
        "HVHVVVVVVVVVV": 14,
        "VHHVVVVVVVVVV": 14,
        "HVHVVHVVVVVVV": 12,
        "VHHVHVVVVVVVV": 12,
        "HHHHVHVVVVVVV": 10,
        "HHHHHVVVVVVVV": 9,
        "HHHHHHHHHHHHV": 1,
        "HHHHHVVVVVVHV": 1,
        "HHHVVVVVVVVVV": 1,
    },
}


class TestStatusMatrix:
    @pytest.mark.parametrize("n", range(4))
    def test_status_rows_over_every_universe(self, n):
        letter = {HOLDS: "H", VACUOUS: "V", VIOLATED: "X"}
        rows = Counter()
        for d in all_membership_dicts(n):
            report = verify_lemma_suite(to_universe(d))
            rows["".join(letter[v.status] for _, v in report.per_lemma)] += 1
        assert rows == STATUS_MATRIX[n]

    def test_status_rows_over_the_n4_classes(self):
        letter = {HOLDS: "H", VACUOUS: "V", VIOLATED: "X"}
        rows = Counter()

        def visit(u):
            report = verify_lemma_suite(u)
            rows["".join(letter[v.status] for _, v in report.per_lemma)] += 1

        stats = enumerate_universes(EnumSpec(n=4, dedupe=True), visit=visit)
        assert stats.total == 3044
        assert rows == STATUS_MATRIX[4]


def status_row(report):
    letter = {HOLDS: "H", VACUOUS: "V", VIOLATED: "X"}
    return "".join(letter[v.status] for _, v in report.per_lemma)


class TestSharedReports:
    """Equal results are one shared immutable object, in bounded tables."""

    def test_equal_rows_and_equal_universes_share_objects(self):
        names = ("e0", "e1", "e2", "e3")
        u = Universe(names, (0b0000, 0b0001, 0b0011, 0b1111))
        # The same membership relation with e0 and e3 swapped.
        relabelled = Universe(names, (0b1111, 0b1000, 0b1010, 0b0000))
        report = verify_lemma_suite(u)
        assert report.ok and status_row(report) == "HHHHHHHHVVVHV"
        assert verify_lemma_suite(relabelled) is report
        twin = Universe(tuple(list(names)), tuple(list(u.masks)))
        assert classify_all(twin) is classify_all(u)

    def test_a_planted_violation_is_never_served_a_shared_report(self):
        extensions = dict(a=(), b=("a",), t=("a", "b", "t", "w"), w=("a", "b", "t", "w"))
        clean = universe(**extensions)
        row = status_row(verify_lemma_suite(clean))
        u = universe(**extensions)
        # t and w are coextensive self-membered uppers; a record that also
        # makes them lowers breaks four statements, first at t.
        u.__dict__["facts"] = u.facts._replace(
            lower_mask=u.facts.lower_mask | u.bit("t") | u.bit("w")
        )
        report = verify_lemma_suite(u)
        # Read without its violations, the row is the clean universe's, which
        # the table already holds; there restated, the last statement, has no
        # case of its own and is vacuous.
        assert row[-1] == "V"
        assert status_row(report).replace("X", "H") == row[:-1] + "H"
        assert report.violations == tuple(
            (tag, Verdict(VIOLATED, ("t",)))
            for tag in ("L-lower-not-self", "C-not-both", "main-result", "restated")
        )
        assert verify_lemma_suite(clean) is verify_lemma_suite(clean)
        assert verify_lemma_suite(clean).ok

    def test_sharing_and_table_bounds_over_a_sweep(self):
        reports = {}

        def visit(u):
            report = verify_lemma_suite(u)
            # One report object per row of statuses.
            assert reports.setdefault(status_row(report), report) is report
            twin = Universe(tuple(list(u.names)), tuple(list(u.masks)))
            assert classify_all(twin) is classify_all(u)

        for n in range(4):
            enumerate_universes(EnumSpec(n=n), visit=visit)
        rng = random.Random(6)
        names = tuple(f"e{i}" for i in range(4))
        for _ in range(5):
            masks = tuple(rng.getrandbits(4) for _ in range(4))
            for perm in itertools.permutations(range(4)):
                relabelled = [0] * 4
                for i, mask in enumerate(masks):
                    relabelled[perm[i]] = sum(
                        1 << perm[j] for j in range(4) if mask >> j & 1
                    )
                visit(Universe(names, tuple(relabelled)))
        names = tuple(f"x{i}" for i in range(6))
        for _ in range(2000):
            visit(Universe(names, tuple(rng.getrandbits(6) for _ in range(6))))
        for table in (_clean_report, _classifications):
            info = table.cache_info()
            assert info.maxsize is not None and info.currsize > 0

    def test_threads_racing_on_shared_universes(self):
        # The threads share these universes, whose facts nobody has asked
        # for yet, and start from empty tables.
        universes = [to_universe(d) for d in all_membership_dicts(3)]
        expected = [
            repr((verify_lemma_suite(u), classify_all(u)))
            for u in map(to_universe, all_membership_dicts(3))
        ]
        for table in (_clean_report, _classifications):
            table.cache_clear()
        results = [None] * 4

        def work(k):
            results[k] = [
                repr((verify_lemma_suite(u), classify_all(u))) for u in universes
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 4


def points(table, i, j):
    """A lie about a universe's facts: entry i of table is j."""
    return lambda f: {table: getattr(f, table)[:i] + (j,) + getattr(f, table)[i + 1 :]}


def flips(mask, i):
    """A lie about a universe's facts: bit i of mask is flipped."""
    return lambda f: {mask: getattr(f, mask) ^ 1 << i}


def hf3():
    # Every element is a lower; h0 -> h1 -> h3 ascends by successors.
    return hf_universe(3)


def co_hf3():
    # Every element is a self-membered upper; h0 -> h1 -> h3 descends by
    # predecessors, and every successor is the element itself.
    u = hf_universe(3)
    return Universe(u.names, tuple(u.all_mask & ~mask for mask in u.masks))


def quine_alone():
    return Universe(("q",), (1,))


def links():
    # a and b are lowers linked by a in b; t and w are coextensive
    # self-membered uppers linked by t in w.
    return universe(a=(), b=("a",), t=("a", "b", "t", "w"), w=("a", "b", "t", "w"))


# A lying fact for each part of a statement: the statement, the universe, the
# lie and the witness the lie must produce.
PLANTED = [
    pytest.param(
        "L-lower-not-self", hf3, flips("self_mask", 0), ("h0",),
        id="L-lower-not-self",
    ),
    pytest.param(
        "L-upper-self", co_hf3, flips("self_mask", 0), ("h0",),
        id="L-upper-self",
    ),
    pytest.param("C-not-both", hf3, flips("upper_mask", 0), ("h0",), id="C-not-both"),
    pytest.param(
        "L-pred-not-self", hf3, points("predecessor", 0, 1), ("h0", "h1"),
        id="L-pred-not-self",
    ),
    pytest.param(
        "L-succ-self", hf3, points("successor", 0, 2), ("h0", "h2"),
        id="L-succ-self",
    ),
    pytest.param("A", hf3, points("successor", 0, 0), ("h0", "h0"), id="A"),
    pytest.param("B", hf3, flips("lower_mask", 1), ("h0", "h1"), id="B"),
    pytest.param("C2", co_hf3, points("predecessor", 0, 0), ("h0", "h0"), id="C2"),
    pytest.param("D", co_hf3, flips("upper_mask", 1), ("h0", "h1"), id="D"),
    pytest.param("E", co_hf3, points("predecessor", 1, 0), ("h1", "h0"), id="E"),
    pytest.param(
        "C-stoppage", hf3, points("predecessor", 1, 0), ("h1", "h0"),
        id="C-stoppage-from-a-lower",
    ),
    pytest.param(
        "C-stoppage", co_hf3, points("successor", 0, 1), ("h0", "h1"),
        id="C-stoppage-from-an-upper",
    ),
    # b becomes an upper too: an endpoint of the lower link a-b and
    # of the upper link b-t.  The link part comes first, so its
    # one-element witness wins over the descending step b -> b.
    pytest.param(
        "main-result", links, flips("upper_mask", 1), ("b",),
        id="main-result-links-meet",
    ),
    # w becomes a lower too: an endpoint of the upper link t-w and of the
    # lower links a-w and b-w, but its member t is no lower endpoint.
    pytest.param(
        "main-result", links, flips("lower_mask", 3), ("w",),
        id="main-result-links-meet-at-a-new-lower",
    ),
    # The ascending step part, one failed conclusion at a time.
    pytest.param(
        "main-result", quine_alone, flips("lower_mask", 0), ("q", "q"),
        id="main-result-ascends-to-itself",
    ),
    pytest.param(
        "main-result", hf3, points("successor", 0, 2), ("h0", "h2"),
        id="main-result-ascends-to-a-non-container",
    ),
    pytest.param(
        "main-result", hf3, flips("lower_mask", 1), ("h0", "h1"),
        id="main-result-ascends-to-a-non-lower",
    ),
    # The descending step part, likewise.
    pytest.param(
        "main-result", co_hf3, points("predecessor", 0, 0), ("h0", "h0"),
        id="main-result-descends-to-itself",
    ),
    pytest.param(
        "main-result", co_hf3, points("predecessor", 1, 0), ("h1", "h0"),
        id="main-result-descends-to-a-non-member",
    ),
    pytest.param(
        "main-result", co_hf3, flips("upper_mask", 1), ("h0", "h1"),
        id="main-result-descends-to-a-non-upper",
    ),
    # h0 becomes an upper too, so it is recorded as a lower and an upper.
    pytest.param("restated", hf3, flips("upper_mask", 0), ("h0",), id="restated"),
]


class TestPlantedFacts:
    """Each failure check fires: one lying entry in a universe's facts makes
    its statement violated, with the lie's element and its table entry as
    the witness."""

    @pytest.mark.parametrize(
        "tag, build, lie, witness",
        PLANTED,
    )
    def test_a_lying_entry_violates_its_statement(self, tag, build, lie, witness):
        assert verify_lemma_suite(build()).ok
        u = build()
        u.__dict__["facts"] = u.facts._replace(**lie(u.facts))
        assert verify_lemma_suite(u).verdict(tag) == Verdict(VIOLATED, witness)

    def test_restated_is_violated_exactly_where_c_not_both_is(self):
        # The Russell set is lower and upper at once: restated has no case of
        # its own, so it never holds, and it fails with C-not-both's witness.
        lied = [(param.values[1](), param.values[2]) for param in PLANTED]
        for n in (6, 40):
            rng = random.Random(n)
            for _ in range(500):
                u = random_universe(rng, n)
                lied.append((u, random_lie(rng, u)))
        violated = 0
        for u, lie in lied:
            u.__dict__["facts"] = u.facts._replace(**lie(u.facts))
            report = verify_lemma_suite(u)
            restated = report.verdict("restated")
            not_both = report.verdict("C-not-both")
            assert restated.status != HOLDS
            if not_both.status == VIOLATED:
                assert restated == not_both
                violated += 1
            else:
                assert restated == Verdict(VACUOUS)
        # 88 of the 1,021 lies record some element as both.
        assert violated > 50


def random_universe(rng, n):
    """n elements whose members are drawn sparse (each bit the AND of one
    to six random bits) or dense (the complement of such a draw), so that
    lowers, uppers and links all occur."""
    full, k, dense = (1 << n) - 1, rng.randint(1, 6), rng.random() < 0.5
    masks = []
    for _ in range(n):
        mask = full
        for _ in range(k):
            mask &= rng.getrandbits(n)
        masks.append(full & ~mask if dense else mask)
    return Universe(tuple(f"x{i}" for i in range(n)), tuple(masks))


def random_lie(rng, u):
    """A lie about one entry of u's facts, drawn like the planted ones."""
    i = rng.randrange(len(u))
    if rng.random() < 0.5:
        table = rng.choice(("successor", "predecessor"))
        return points(table, i, rng.randrange(len(u)))
    mask = rng.choice(("self_mask", "lower_mask", "upper_mask"))
    return flips(mask, i)


class TestReferenceSuite:
    """verify_lemma_suite gives the same report, repr for repr, as the
    five-loop evaluator it replaced (tests/suite_reference.py)."""

    def agree(self, u):
        assert repr(verify_lemma_suite(u)) == repr(reference_lemma_suite(u))

    def test_every_universe_up_to_three_elements(self):
        for n in range(4):
            for d in all_membership_dicts(n):
                self.agree(to_universe(d))

    @pytest.mark.parametrize("n", [6, 40])
    def test_random_universes_told_and_not_told_a_lie(self, n):
        rng = random.Random(n)
        violated = 0
        for _ in range(2000):
            self.agree(random_universe(rng, n))
            u = random_universe(rng, n)
            u.__dict__["facts"] = u.facts._replace(**random_lie(rng, u)(u.facts))
            self.agree(u)
            violated += not verify_lemma_suite(u).ok
        # About 1,200 of the 2,000 lies break a statement, so the witnesses
        # are compared too.
        assert violated > 1000

    @pytest.mark.parametrize("tag, build, lie, witness", PLANTED)
    def test_planted_lies(self, tag, build, lie, witness):
        u = build()
        u.__dict__["facts"] = u.facts._replace(**lie(u.facts))
        self.agree(u)

    def test_a_russell_set_also_recorded_as_self_membered(self):
        # The empty e0 is told that it is self-membered and an upper: both
        # evaluators find restated violated with C-not-both's witness.
        u = Universe(("e0",), (0,))
        u.__dict__["facts"] = u.facts._replace(self_mask=1, upper_mask=1)
        assert verify_lemma_suite(u).verdict("restated") == Verdict(VIOLATED, ("e0",))
        self.agree(u)


class TestTraceChain:
    def test_ascending_through_the_hf_world(self):
        u = hf_universe(3)
        chain = trace_chain(u, "h0", ASCENDING, 16)
        assert chain.nodes == ("h0", "h1", "h3")
        assert chain.terminated_by == ABSENT

    def test_quine_atom_cycles_immediately(self):
        u = universe(q=("q",))
        chain = trace_chain(u, "q", ASCENDING, 16)
        assert chain.nodes == ("q",)
        assert chain.terminated_by == CYCLE
        assert chain.repeated == "q"

    def test_length_cap(self):
        chain = trace_chain(hf_universe(3), "h0", ASCENDING, 2)
        assert chain.nodes == ("h0", "h1")
        assert chain.terminated_by == LENGTH_CAP

    def test_multiple_stops_the_walk(self):
        u = universe(a=(), b=("a",), c=("a",))
        chain = trace_chain(u, "a", ASCENDING, 16)
        assert chain.nodes == ("a",)
        assert chain.terminated_by == MULTIPLE

    def test_descending_to_the_degenerate_fixpoint(self):
        u = universe(e=())
        chain = trace_chain(u, "e", DESCENDING, 16)
        assert chain.terminated_by == CYCLE
        assert chain.repeated == "e"

    def test_unknown_start(self):
        with pytest.raises(UnknownElementError):
            trace_chain(QUINE, "zz", ASCENDING, 4)

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            trace_chain(QUINE, "q", ASCENDING, 0)

    def test_cap_of_one_keeps_only_the_start(self):
        chain = trace_chain(hf_universe(3), "h0", ASCENDING, 1)
        assert chain.nodes == ("h0",)
        assert chain.terminated_by == LENGTH_CAP

    def test_direction_must_be_known(self):
        with pytest.raises(ValueError):
            trace_chain(QUINE, "q", "sideways", 4)

    @pytest.mark.parametrize("direction", [ASCENDING, DESCENDING])
    def test_a_planted_step_out_of_the_class_breaks_a_theorem(self, direction):
        # h0 -> h1 -> h3 ascends through lowers of the hf world and, in its
        # complement, descends through uppers.  A record that drops h1 from
        # that class makes the guarded first step fail.
        u = hf_universe(3)
        if direction == DESCENDING:
            u = Universe(u.names, tuple(u.all_mask & ~mask for mask in u.masks))
        kind = "lower_mask" if direction == ASCENDING else "upper_mask"
        u.__dict__["facts"] = u.facts._replace(
            **{kind: getattr(u.facts, kind) & ~u.bit("h1")}
        )
        with pytest.raises(LemmaViolationError, match="'h0' -> 'h1'"):
            trace_chain(u, "h0", direction, 16)

    @pytest.mark.parametrize(
        "direction, build, table",
        [(ASCENDING, hf3, "successor"), (DESCENDING, co_hf3, "predecessor")],
    )
    def test_a_planted_step_to_a_non_member_breaks_a_theorem(
        self, direction, build, table
    ):
        # h1 and h0 are distinct and in the same class, but h1 is not a
        # member of h0 (ascending) and, in the complement, h0 is not a
        # member of h1 (descending).  A record of h0 as h1's next step makes
        # the guarded step fail.
        u = build()
        u.__dict__["facts"] = u.facts._replace(**points(table, 1, 0)(u.facts))
        with pytest.raises(LemmaViolationError, match="'h1' -> 'h0'"):
            trace_chain(u, "h1", direction, 16)

    def test_ascending_from_a_lower_grows_extensions(self):
        u = hf_universe(4)
        chain = trace_chain(u, "h0", ASCENDING, 32)
        sizes = [len(u.extension(x)) for x in chain.nodes]
        assert sizes == sorted(set(sizes))
