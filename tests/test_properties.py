import itertools
import warnings
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_membership_dicts, to_universe, universes

from setlab import (
    ABSENT,
    ASCENDING,
    DESCENDING,
    FILTERS,
    LEMMA_TAGS,
    MULTIPLE,
    PREDECESSOR,
    SUCCESSOR,
    BaseModel,
    CollisionError,
    EnumSpec,
    Unique,
    Universe,
    UntaggedUrelementWarning,
    canonical_form,
    check_axiom,
    complement_index,
    comprehension_witness,
    enumerate_universes,
    find_universal,
    hf_universe,
    is_lower,
    is_strictly_russellian,
    is_upper,
    listing_index,
    materialize,
    member_interp,
    parse_universe,
    print_universe,
    retag_counterexample_pair,
    russell_witness,
    sprig,
    trace_chain,
    verify_forster_counterexample,
    verify_lemma_suite,
)


@given(universes())
def test_coextensive_is_an_equivalence(u):
    for x in u.names:
        assert u.coextensive(x, x)
        for y in u.names:
            assert u.coextensive(x, y) == u.coextensive(y, x)
            for z in u.names:
                if u.coextensive(x, y) and u.coextensive(y, z):
                    assert u.coextensive(x, z)


@given(universes())
def test_unique_successor_has_the_right_extension(u):
    for x in u.names:
        result = u.successor_in(x)
        if isinstance(result, Unique):
            assert u.extension(result.id) == u.extension(x) | {x}


@given(universes())
def test_unique_predecessor_never_contains_the_start(u):
    for x in u.names:
        result = u.predecessor_in(x)
        if isinstance(result, Unique):
            assert u.extension(result.id) == u.extension(x) - {x}
            assert not u.is_member(x, result.id)


@given(universes())
def test_degeneracy(u):
    for x in u.names:
        ext = u.extension(x)
        assert (ext | {x} == ext) == u.self_membered(x)
        assert (ext - {x} == ext) == (not u.self_membered(x))


@given(universes())
def test_degenerate_lookups_stay_coextensive(u):
    for x in u.names:
        if not u.self_membered(x):
            succ = u.successor_in(x)
            if isinstance(succ, Unique) and is_lower(u, x):
                assert u.extension(succ.id) == u.extension(x) | {x}
            pred = u.predecessor_in(x)
            if isinstance(pred, Unique):
                assert u.coextensive(pred.id, x)


@given(universes())
def test_lowers_and_uppers_never_meet(u):
    for x in u.names:
        lower = is_lower(u, x)
        upper = is_upper(u, x)
        assert not (lower and upper)
        if lower:
            assert not u.self_membered(x)
        if upper:
            assert u.self_membered(x)
        assert not is_strictly_russellian(u, x)


@given(universes())
def test_russell_witness_agrees_with_comprehension(u):
    witness = russell_witness(u)
    assert witness is None
    assert comprehension_witness(u, u.all_mask & ~u.facts.self_mask) == witness
    assert all(not is_strictly_russellian(u, x) for x in u.names)


@given(universes(max_n=8).filter(len))
def test_no_nonempty_universe_satisfies_both_axioms(u):
    # The toggle-walk proof in the README: a walk x -> the element with
    # extension ext(x) ^ {x} would close a cycle of distinct toggles.
    assert not FILTERS["satisfies-both"](u)


@given(universes())
def test_lemma_suite_never_reports_a_violation(u):
    assert verify_lemma_suite(u).ok


@given(universes())
def test_complement_swaps_lowers_with_uppers_and_successors_with_predecessors(u):
    c = Universe(u.names, tuple(u.all_mask & ~mask for mask in u.masks))
    for x in u.names:
        assert is_lower(c, x) == is_upper(u, x)
        assert is_upper(c, x) == is_lower(u, x)
        assert c.successor_in(x) == u.predecessor_in(x)
        assert c.predecessor_in(x) == u.successor_in(x)
        assert c.self_membered(x) != u.self_membered(x)


def test_lemma_statuses_are_relabelling_invariant():
    for n in range(4):
        for d in all_membership_dicts(n):
            u = to_universe(d)
            statuses = [v.status for _, v in verify_lemma_suite(u).per_lemma]
            for order in itertools.permutations(u.names):
                relabelled = Universe.from_extensions({x: sorted(d[x]) for x in order})
                report = verify_lemma_suite(relabelled)
                assert [v.status for _, v in report.per_lemma] == statuses, order


# Under the membership complement lowers and uppers swap, and so do
# successors and predecessors, so each lemma's status on the complement is
# the status of its dual on the universe.  E has no dual in the suite; its
# status on the complement is A's.
COMPLEMENT_DUAL = {
    "L-lower-not-self": "L-upper-self",
    "L-upper-self": "L-lower-not-self",
    "L-succ-self": "L-pred-not-self",
    "L-pred-not-self": "L-succ-self",
    "A": "C2",
    "C2": "A",
    "B": "D",
    "D": "B",
    "E": "A",
}


def test_lemma_statuses_follow_the_complement_duality():
    for n in range(4):
        for d in all_membership_dicts(n):
            u = to_universe(d)
            c = Universe(u.names, tuple(u.all_mask & ~mask for mask in u.masks))
            before = dict(verify_lemma_suite(u).per_lemma)
            after = dict(verify_lemma_suite(c).per_lemma)
            for tag in LEMMA_TAGS:
                dual = COMPLEMENT_DUAL.get(tag, tag)
                assert after[tag].status == before[dual].status, (d, tag)


@given(universes(), st.randoms())
def test_canonical_form_is_permutation_invariant(u, rng):
    order = list(u.names)
    rng.shuffle(order)
    shuffled = Universe.from_extensions(
        {name: sorted(u.extension(name)) for name in order}
    )
    assert canonical_form(shuffled) == canonical_form(u)


@given(universes())
def test_ascending_chains_from_lowers_strictly_grow(u):
    for x in u.names:
        if not is_lower(u, x):
            continue
        chain = trace_chain(u, x, ASCENDING, 8)
        sizes = [len(u.extension(node)) for node in chain.nodes]
        assert sizes == sorted(set(sizes))


def test_both_approximation_processes_stop_in_a_finite_universe():
    # Exhaustive over the class representatives with n <= 4; every property
    # checked is invariant under relabelling.  A step from a lower adds x
    # (x is not in x), a step from an upper removes it, so sizes bound the
    # walk: it stops at an absent or ambiguous lookup, never at a cycle.
    axioms = Counter()
    stops = Counter()

    def visit(u):
        n = len(u.names)
        nonself = sum(not u.self_membered(x) for x in u.names)
        lowers = [x for x in u.names if is_lower(u, x)]
        uppers = [x for x in u.names if is_upper(u, x)]
        for which, starts in ((SUCCESSOR, lowers), (PREDECESSOR, uppers)):
            if check_axiom(u, which).satisfied:
                axioms[which] += 1
                assert not starts
        for direction, starts in ((ASCENDING, lowers), (DESCENDING, uppers)):
            for x in starts:
                chain = trace_chain(u, x, direction, n + 1)
                stops[direction, chain.terminated_by] += 1
                size = len(u.extension(x))
                bound = n - size if direction == ASCENDING else size - nonself
                assert len(chain.nodes) <= bound

    for n in range(5):
        enumerate_universes(EnumSpec(n, dedupe=True), visit)
    assert axioms == {SUCCESSOR: 290, PREDECESSOR: 290}
    assert stops == {
        (direction, reason): count
        for direction in (ASCENDING, DESCENDING)
        for reason, count in ((ABSENT, 2754), (MULTIPLE, 21))
    }


@settings(max_examples=50)
@given(universes())
def test_print_parse_round_trip(u):
    again = parse_universe(print_universe(u))
    assert canonical_form(again) == canonical_form(u)
    assert {x: u.extension(x) for x in u.names} == {
        x: again.extension(x) for x in again.names
    }


@st.composite
def models(draw):
    """A small model: a well-founded base (element i has members among the
    earlier elements only) plus urelements that are untagged, listings or
    complements.  An index drawn twice stays with its first bearer."""
    n = draw(st.integers(min_value=0, max_value=3))
    names = tuple(f"b{i}" for i in range(n))
    masks = tuple(
        draw(st.integers(min_value=0, max_value=(1 << i) - 1)) for i in range(n)
    )
    k = draw(st.integers(min_value=0, max_value=4))
    pool = tuple(f"ur{i}" for i in range(k))
    tagging = {}
    for bearer in pool:
        if draw(st.booleans()):
            listed = draw(st.sets(st.sampled_from(names + pool)))
            make = complement_index if draw(st.booleans()) else listing_index
            tagging.setdefault(make(listed), bearer)
    return BaseModel.build(Universe(names, masks), pool, tagging)


@given(models())
def test_materialized_membership_matches_the_base_and_the_sprig(model):
    world = materialize(model)
    assert world.names == model.entities
    for u in model.entities:
        tag = model.tag_of(u)
        for x in model.entities:
            if not model.is_urelement(u):
                expected = not model.is_urelement(x) and model.base.is_member(x, u)
            else:
                expected = tag is not None and sprig(model, x, tag).odd
            assert world.is_member(x, u) == expected
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UntaggedUrelementWarning)
                assert member_interp(model, x, u) == expected


@st.composite
def retag_cases(draw):
    """Two distinct urelements M and N of a model over an hf base of rank
    0-2 and a pool of 2-5 urelements, with complement or listing tags; half
    of the tags list a subset of {M, N}, so the universal and pair indexes
    are often already taken."""
    base = hf_universe(draw(st.integers(min_value=0, max_value=2)))
    pool = tuple(f"ur{i}" for i in range(draw(st.integers(min_value=2, max_value=5))))
    M, N = draw(st.permutations(pool))[:2]
    listed_sets = st.one_of(
        st.sets(st.sampled_from(base.names + pool)),
        st.sets(st.sampled_from((M, N))),
    )
    tagging = {}
    for bearer in pool:
        if draw(st.booleans()):
            make = complement_index if draw(st.booleans()) else listing_index
            tagging.setdefault(make(draw(listed_sets)), bearer)
    return BaseModel.build(base, pool, tagging), M, N


@settings(max_examples=300)
@given(retag_cases())
def test_retag_places_the_pair_and_moves_only_the_displaced(case):
    before, M, N = case
    try:
        after = retag_counterexample_pair(before, M, N)
    except CollisionError:
        return
    n_index, m_index = complement_index({M}), complement_index({M, N})
    assert after.bearer_of(n_index) == N
    assert after.bearer_of(m_index) == M
    moved = {n_index, m_index, before.tag_of(N), before.tag_of(M)}
    for index in {index for index, _ in before.tags + after.tags} - moved:
        assert after.bearer_of(index) == before.bearer_of(index)
    assert retag_counterexample_pair(after, M, N).tags == after.tags
    if find_universal(after) is not None:
        assert verify_forster_counterexample(after).passed
