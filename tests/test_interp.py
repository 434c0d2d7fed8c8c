import os
import subprocess
import sys

import pytest

import setlab
from setlab import (
    ABSENT,
    DESCENDING,
    BaseModel,
    CollisionError,
    DuplicateDefinitionError,
    ForsterReport,
    Index,
    LEVEL_ONE,
    LEVEL_ZERO,
    PoolExhaustedError,
    PreconditionError,
    SHARED_REP,
    Unique,
    UndefinedNameError,
    Universe,
    UnknownElementError,
    UntaggedUrelementWarning,
    complement_index,
    default_demo_model,
    extension_interp,
    find_universal,
    forster_demo_model,
    hf_universe,
    is_upper,
    level_rep,
    listing_index,
    materialize,
    member_interp,
    own_rep,
    parse_model,
    quine_universe,
    retag_counterexample_pair,
    sprig,
    trace_chain,
    universal_index,
    upper_chain_interp,
    verify_forster_counterexample,
    verify_lemma_suite,
)


def small_model(pool=4, tagging=None):
    return BaseModel.build(
        hf_universe(1), tuple(f"ur{i}" for i in range(pool)), tagging or {}
    )


class TestRepTokens:
    def test_level_zero_is_a_single_shared_token(self):
        assert level_rep(LEVEL_ZERO, "a") is SHARED_REP
        assert level_rep(LEVEL_ZERO, "a") == level_rep(LEVEL_ZERO, "b")

    def test_level_one_is_the_entity_itself(self):
        assert level_rep(LEVEL_ONE, "N") == own_rep("N")
        assert own_rep("x") != own_rep("y")
        assert own_rep("x") == own_rep("x")

    def test_unknown_level(self):
        with pytest.raises(ValueError):
            level_rep(2, "a")


class TestIndex:
    def test_builders(self):
        assert universal_index() == Index(True, frozenset())
        assert complement_index({"a"}) == Index(True, frozenset({"a"}))
        assert listing_index({"a"}) == Index(False, frozenset({"a"}))


class TestSprig:
    def test_universal_tag_gives_one_pair_for_everything(self):
        model = small_model()
        L = universal_index()
        for x in model.entities:
            assert len(sprig(model, x, L).pairs) == 1

    def test_empty_tag_gives_no_pairs(self):
        model = small_model()
        L = Index(False, frozenset())
        for x in model.entities:
            assert sprig(model, x, L).pairs == frozenset()

    def test_complement_tag_doubles_up_on_the_exception(self):
        model = small_model()
        L = complement_index({"ur1"})
        assert len(sprig(model, "ur1", L).pairs) == 2
        assert not sprig(model, "ur1", L).odd
        for x in model.entities:
            if x != "ur1":
                assert len(sprig(model, x, L).pairs) == 1
                assert sprig(model, x, L).odd


class TestMemberInterp:
    def test_universal_urelement_contains_everything(self):
        model = small_model(tagging={universal_index(): "ur0"})
        for x in model.entities:
            assert member_interp(model, x, "ur0")
        assert member_interp(model, "ur0", "ur0")

    def test_empty_tag_contains_nothing(self):
        model = small_model(tagging={Index(False, frozenset()): "ur0"})
        for x in model.entities:
            assert not member_interp(model, x, "ur0")

    def test_complement_tag_omits_exactly_the_exception(self):
        model = small_model(
            tagging={universal_index(): "ur0", complement_index({"ur0"}): "ur1"}
        )
        assert extension_interp(model, "ur1") == frozenset(model.entities) - {"ur0"}

    def test_listing_tag_contains_exactly_the_listed(self):
        model = small_model(tagging={listing_index({"h0", "ur1"}): "ur0"})
        assert extension_interp(model, "ur0") == frozenset({"h0", "ur1"})

    def test_coincides_with_base_membership_on_base_elements(self):
        model = BaseModel.build(hf_universe(3), ("ur0",))
        for x in model.base.names:
            for y in model.base.names:
                assert member_interp(model, x, y) == model.base.is_member(x, y)
        assert not member_interp(model, "ur0", "h3")

    def test_untagged_urelement_is_empty_and_warns(self):
        model = small_model()
        with pytest.warns(UntaggedUrelementWarning):
            assert not member_interp(model, "ur0", "ur1")

    def test_untagged_extension_is_empty_and_warns_at_the_caller(self):
        model = small_model()
        with pytest.warns(UntaggedUrelementWarning) as record:
            assert extension_interp(model, "ur1") == frozenset()
        assert [w.filename for w in record] == [__file__]

    def test_unknown_entity(self):
        model = small_model()
        with pytest.raises(UnknownElementError):
            member_interp(model, "zz", "ur0")


class TestBaseModel:
    def test_pool_names_must_be_distinct(self):
        with pytest.raises(DuplicateDefinitionError):
            BaseModel.build(hf_universe(1), ("u", "u"))

    def test_pool_must_be_disjoint_from_base(self):
        with pytest.raises(DuplicateDefinitionError):
            BaseModel.build(hf_universe(1), ("h0",))

    def test_base_must_be_well_founded(self):
        loop = Universe.from_extensions({"a": ("a",)})
        with pytest.raises(ValueError, match="well-founded"):
            BaseModel.build(loop, ("ur0",))
        cycle = Universe.from_extensions({"a": ("b",), "b": ("a",)})
        with pytest.raises(ValueError, match="well-founded"):
            BaseModel.build(cycle, ("ur0",))

    def test_tagging_must_be_bijective(self):
        with pytest.raises(CollisionError):
            BaseModel(
                base=hf_universe(1),
                urelements=("ur0", "ur1"),
                tags=(
                    (universal_index(), "ur0"),
                    (complement_index({"ur1"}), "ur0"),
                ),
            )

    def test_tag_bearer_must_be_in_the_pool(self):
        with pytest.raises(UnknownElementError):
            small_model(tagging={universal_index(): "ghost"})

    def test_tag_may_only_reference_model_entities(self):
        with pytest.raises(UnknownElementError):
            small_model(tagging={complement_index({"ghost"}): "ur0"})

    @pytest.mark.parametrize(
        "arrange", [lambda pairs: pairs[::-1], lambda pairs: pairs + pairs[:1]],
        ids=["reversed", "repeated"],
    )
    def test_the_model_orders_its_own_tags(self, arrange):
        pool = ("ur0", "ur1", "ur2")
        tagging = {
            complement_index({"ur1"}): "ur2",
            universal_index(): "ur0",
            complement_index({"ur1", "ur2"}): "ur1",
        }
        built = BaseModel.build(hf_universe(2), pool, tagging)
        direct = BaseModel(hf_universe(2), pool, arrange(tuple(tagging.items())))
        assert direct == built
        assert hash(direct) == hash(built)
        assert [bearer for _, bearer in direct.tags] == ["ur0", "ur1", "ur2"]


class TestRetagCounterexamplePair:
    def test_fresh_model(self):
        model = retag_counterexample_pair(small_model(), "ur1", "ur2")
        assert model.bearer_of(complement_index({"ur1"})) == "ur2"
        assert model.bearer_of(complement_index({"ur1", "ur2"})) == "ur1"

    def test_idempotent(self):
        once = retag_counterexample_pair(small_model(), "ur1", "ur2")
        twice = retag_counterexample_pair(once, "ur1", "ur2")
        assert once.tags == twice.tags

    def test_fixup_moves_the_displaced_bearer(self):
        # The index that used to bear N takes over n's previous bearer.
        n_index = complement_index({"ur1"})
        other = listing_index({"ur0"})
        before = small_model(tagging={n_index: "ur3", other: "ur2"})
        after = retag_counterexample_pair(before, "ur1", "ur2")
        assert after.bearer_of(n_index) == "ur2"
        assert after.bearer_of(complement_index({"ur1", "ur2"})) == "ur1"
        assert after.bearer_of(other) == "ur3"
        bearers = [bearer for _, bearer in after.tags]
        assert len(bearers) == len(set(bearers))

    def test_fixup_moves_the_displaced_bearer_of_m(self):
        # The index that used to bear M takes over m's previous bearer.
        m_index = complement_index({"ur1", "ur2"})
        other = listing_index({"ur0"})
        before = small_model(tagging={m_index: "ur3", other: "ur1"})
        after = retag_counterexample_pair(before, "ur1", "ur2")
        assert after.bearer_of(m_index) == "ur1"
        assert after.bearer_of(complement_index({"ur1"})) == "ur2"
        assert after.bearer_of(other) == "ur3"
        bearers = [bearer for _, bearer in after.tags]
        assert len(bearers) == len(set(bearers))

    def test_orphaned_bearer_becomes_untagged(self):
        n_index = complement_index({"ur1"})
        before = small_model(tagging={n_index: "ur3"})
        after = retag_counterexample_pair(before, "ur1", "ur2")
        assert after.tag_of("ur3") is None

    def test_collision_is_detected(self):
        n_index = complement_index({"ur1"})
        other = listing_index({"ur0"})
        before = small_model(tagging={n_index: "ur1", other: "ur2"})
        with pytest.raises(CollisionError):
            retag_counterexample_pair(before, "ur1", "ur2")

    def test_pair_must_be_urelements(self):
        with pytest.raises(UnknownElementError):
            retag_counterexample_pair(small_model(), "h0", "ur1")
        with pytest.raises(ValueError):
            retag_counterexample_pair(small_model(), "ur1", "ur1")


class TestForsterReport:
    def test_default_demo_passes_every_check(self):
        report = verify_forster_counterexample(forster_demo_model())
        assert report.precondition_met
        assert report.passed
        assert (report.universal, report.n, report.m) == ("ur0", "ur2", "ur1")
        assert all(ok for _, ok in report.checks)
        assert len(report.checks) == 6

    def test_extensions_spell_out_the_counterexample(self):
        model = forster_demo_model()
        everything = frozenset(model.entities)
        assert extension_interp(model, "ur2") == everything - {"ur1"}
        assert extension_interp(model, "ur1") == everything - {"ur1", "ur2"}
        assert member_interp(model, "ur2", "ur2")
        assert not member_interp(model, "ur1", "ur1")

    def test_pairless_model_flags_the_precondition(self):
        report = verify_forster_counterexample(default_demo_model())
        assert not report.precondition_met
        assert not report.passed
        assert report.checks == ()

    def test_a_report_without_a_pair_does_not_pass(self):
        report = ForsterReport("ur0", None, None, ())
        assert not report.precondition_met
        assert not report.passed
        assert report.note == "no urelement pair carries the counterexample tagging"

    def test_skips_tags_that_cannot_be_the_pair(self):
        # The first tag lists a base element, the second its own bearer.
        model = BaseModel.build(
            hf_universe(1),
            ("ur0", "ur1", "ur2"),
            {
                universal_index(): "ur0",
                complement_index({"h0"}): "ur1",
                complement_index({"ur2"}): "ur2",
            },
        )
        report = verify_forster_counterexample(model)
        assert not report.precondition_met
        assert report.note == "no urelement pair carries the counterexample tagging"

    def test_model_without_universal_raises(self):
        with pytest.raises(PreconditionError):
            verify_forster_counterexample(small_model())

    def test_quine_atom_contrast(self):
        u = quine_universe()
        assert u.self_membered("q")
        assert u.predecessor_in("q") == Unique("e")
        assert not u.self_membered("e")


class TestUpperChain:
    def test_single_step_is_the_universal_predecessor(self):
        result = upper_chain_interp(default_demo_model(), 1)
        (node,) = result.nodes
        model = result.model
        everything = frozenset(model.entities)
        assert extension_interp(model, node) == everything - {"ur0"}
        assert member_interp(model, node, "ur0")
        assert member_interp(model, node, node)

    def test_extensions_nest_strictly(self):
        result = upper_chain_interp(default_demo_model(), 3)
        model = result.model
        exts = [extension_interp(model, node) for node in result.nodes]
        for bigger, smaller in zip(exts, exts[1:]):
            assert smaller < bigger
        for node, ext in zip(result.nodes, exts):
            assert node in ext

    def test_materialized_world_agrees_with_the_classifier(self):
        result = upper_chain_interp(default_demo_model(), 3)
        world = materialize(result.model)
        for node in result.nodes:
            assert is_upper(world, node)
        assert verify_lemma_suite(world).ok

    def test_trace_chain_walks_the_materialized_uppers(self):
        result = upper_chain_interp(default_demo_model(), 3)
        world = materialize(result.model)
        chain = trace_chain(world, "ur0", DESCENDING, 10)
        assert chain.nodes == ("ur0",) + result.nodes
        assert chain.terminated_by == ABSENT

    def test_pool_exhaustion(self):
        with pytest.raises(
            PoolExhaustedError, match="^need 8 untagged urelements, only 7 available$"
        ):
            upper_chain_interp(default_demo_model(), 8)

    def test_requires_a_universal(self):
        with pytest.raises(PreconditionError):
            upper_chain_interp(small_model(), 1)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            upper_chain_interp(default_demo_model(), 0)

    def test_step_index_already_tagged(self):
        model = small_model(
            tagging={universal_index(): "ur0", complement_index({"ur0"}): "ur1"}
        )
        with pytest.raises(CollisionError):
            upper_chain_interp(model, 1)


class TestXorAgainstSprig:
    def test_two_routes_agree_everywhere(self):
        model = forster_demo_model()
        for u in model.entities:
            L = model.tag_of(u) if model.is_urelement(u) else None
            if L is None:
                continue
            for x in model.entities:
                assert member_interp(model, x, u) == sprig(model, x, L).odd


class TestMaterialize:
    def test_forster_world_classes(self):
        world = materialize(forster_demo_model())
        uppers = [x for x in world.names if is_upper(world, x)]
        assert uppers == ["ur0"]
        assert world.self_membered("ur0")
        assert world.self_membered("ur2")
        assert not world.self_membered("ur1")
        assert verify_lemma_suite(world).ok

    def test_untagged_urelements_have_empty_extensions(self):
        world = materialize(default_demo_model())
        for name in ("ur1", "ur2", "ur7"):
            assert world.extension(name) == frozenset()

    def test_each_model_builds_its_world_once(self):
        model = default_demo_model()
        assert "world" not in model.__dict__
        assert materialize(model) is materialize(model) is model.__dict__["world"]


MODEL_SOURCE = """\
# two-level base plus a tagged pool
h0 = {}
h1 = {h0}
urelement top index ( {0rep} , {} )
urelement hole index ( {0rep} , {top} )
urelement spare
"""


class TestParseModel:
    def test_round_behavior(self):
        model = parse_model(MODEL_SOURCE)
        assert model.base.names == ("h0", "h1")
        assert model.urelements == ("hole", "spare", "top")
        assert find_universal(model) == "top"
        assert model.tag_of("hole") == complement_index({"top"})
        assert model.tag_of("spare") is None
        everything = frozenset(model.entities)
        assert extension_interp(model, "hole") == everything - {"top"}

    def test_undefined_entity_in_tag(self):
        with pytest.raises(UndefinedNameError):
            parse_model("urelement u index ( {0rep} , {ghost} )\n")

    def test_duplicate_index(self):
        text = (
            "urelement a index ( {0rep} , {} )\n"
            "urelement b index ( {0rep} , {} )\n"
        )
        with pytest.raises(CollisionError):
            parse_model(text)

    def test_base_cycle_rejected(self):
        with pytest.raises(ValueError, match="well-founded"):
            parse_model("a = {a}\nurelement u\n")


class TestBaseModelOwnsTheChecks:
    def test_upper_chain_collision_names_both_urelements(self):
        model = small_model(
            tagging={universal_index(): "ur0", complement_index({"ur0"}): "ur1"}
        )
        with pytest.raises(
            CollisionError, match="^tagging must be bijective at 'ur1' and 'ur2'$"
        ):
            upper_chain_interp(model, 1)

    def test_bearer_with_two_indexes_is_named(self):
        message = "^tagging must be bijective at 'ur1'$"
        with pytest.raises(CollisionError, match=message):
            BaseModel(
                base=hf_universe(1),
                urelements=("ur0", "ur1"),
                tags=((universal_index(), "ur1"), (listing_index({"h0"}), "ur1")),
            )

    def test_pool_is_checked_before_collisions(self):
        # ghost sorts first and collides with ur0 on the universal index.
        with pytest.raises(UnknownElementError, match="'ghost' is not in the pool"):
            small_model().retag(
                [(universal_index(), "ur0"), (universal_index(), "ghost")]
            )

    @pytest.mark.parametrize(
        "tags,error,message",
        [
            # An unknown bearer that sorts before an unrelated collision.
            (
                [
                    (universal_index(), "ur1"),
                    (universal_index(), "ur2"),
                    (listing_index({"h0"}), "a_ghost"),
                ],
                UnknownElementError,
                "tagged name 'a_ghost' is not in the pool",
            ),
            # A collision before a tag that lists an unknown entity.
            (
                [
                    (universal_index(), "ur0"),
                    (universal_index(), "ur1"),
                    (listing_index({"ghost"}), "ur2"),
                ],
                CollisionError,
                "tagging must be bijective at 'ur0' and 'ur1'",
            ),
            # As many indexes as bearers, but three distinct pairs.
            (
                [
                    (universal_index(), "ur0"),
                    (listing_index({"h0"}), "ur1"),
                    (universal_index(), "ur1"),
                ],
                CollisionError,
                "tagging must be bijective at 'ur0' and 'ur1'",
            ),
            # An unknown listed entity before a collision.
            (
                [
                    (listing_index({"ghost"}), "ur0"),
                    (universal_index(), "ur1"),
                    (universal_index(), "ur2"),
                ],
                UnknownElementError,
                "tag of 'ur0' refers to unknown entity 'ghost'",
            ),
        ],
    )
    def test_the_first_offence_in_bearer_order_is_named(self, tags, error, message):
        with pytest.raises(error) as err:
            small_model().retag(tags)
        assert str(err.value) == message

    def test_an_unknown_tag_entity_is_named_in_sorted_order(self):
        # A frozenset iterates in hash order, which PYTHONHASHSEED changes.
        script = (
            "from setlab import BaseModel, Index, UnknownElementError, hf_universe\n"
            "tag = Index(False, frozenset({'zz', 'aa', 'mm', 'qq'}))\n"
            "try:\n"
            "    BaseModel.build(hf_universe(2), ('u0',), {tag: 'u0'})\n"
            "except UnknownElementError as err:\n"
            "    print(err)\n"
        )
        src = os.path.dirname(os.path.dirname(setlab.__file__))
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            assert proc.stdout == "tag of 'u0' refers to unknown entity 'aa'\n"
