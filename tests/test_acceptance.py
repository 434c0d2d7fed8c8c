"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Criterion 1's size-4 sweep over all 65,536 universes takes
about 1 s and is bounded at 120 s."""

import json
import time

from setlab import (
    ABSENT,
    ASCENDING,
    EnumSpec,
    enumerate_universes,
    forster_demo_model,
    default_demo_model,
    hf_universe,
    is_lower,
    is_upper,
    materialize,
    member_interp,
    quine_universe,
    sprig,
    trace_chain,
    upper_chain_interp,
    verify_forster_counterexample,
    verify_lemma_suite,
    Unique,
)
from setlab.cli import main


def report(criterion, ok):
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_lemma_suite_soundness_sweep():
    started = time.perf_counter()
    totals = {}
    violations = []

    for n in (1, 2, 3):
        def visit(u):
            suite = verify_lemma_suite(u)
            if not suite.ok:
                violations.append((u.masks, suite.violations))

        totals[n] = enumerate_universes(EnumSpec(n=n), visit=visit).total
    elapsed = time.perf_counter() - started

    ok = (
        totals == {1: 2, 2: 16, 3: 512}
        and violations == []
        and elapsed < 10.0
    )
    report("1 lemma-suite soundness sweep (n<=3)", ok)


def test_criterion_1_optional_size_four_sweep():
    started = time.perf_counter()
    violations = []

    def visit(u):
        if not verify_lemma_suite(u).ok:
            violations.append(u.masks)

    total = enumerate_universes(EnumSpec(n=4), visit=visit).total
    elapsed = time.perf_counter() - started
    ok = total == 65536 and violations == [] and elapsed < 120.0
    report("1 lemma-suite soundness sweep (n=4)", ok)


def test_criterion_2_russell_vacuity():
    matches = {
        n: enumerate_universes(
            EnumSpec(n=n, filter="has-strictly-russellian")
        ).matching
        for n in range(5)
    }
    ok = matches == {0: 0, 1: 0, 2: 0, 3: 0, 4: 0}
    report("2 russell vacuity (n<=4)", ok)


def test_criterion_3_one_element_axiom_census():
    census = {
        name: enumerate_universes(EnumSpec(n=1, filter=name)).matching
        for name in (
            "satisfies-successor",
            "satisfies-predecessor",
            "satisfies-both",
        )
    }
    ok = census == {
        "satisfies-successor": 1,
        "satisfies-predecessor": 1,
        "satisfies-both": 0,
    }
    report("3 one-element axiom census", ok)


def test_criterion_4_interp_demo_checks():
    started = time.perf_counter()
    result = verify_forster_counterexample(forster_demo_model())
    elapsed = time.perf_counter() - started
    checks = dict(result.checks)
    ok = (
        result.precondition_met
        and checks["ext(n) = all - {m}"]
        and checks["ext(m) = all - {m, n}"]
        and checks["n in n"]
        and checks["m not in m"]
        and checks["ext(m) = ext(n) - {n}"]
        and result.passed
        and elapsed < 1.0
    )
    report("4 interp demo reproduction", ok)


def test_criterion_5_quine_atom_demo():
    u = quine_universe()
    ok = (
        u.self_membered("q")
        and u.predecessor_in("q") == Unique("e")
        and not u.self_membered("e")
    )
    report("5 quine-atom demo", ok)


def test_criterion_6_ascending_chain():
    u = hf_universe(3)
    chain = trace_chain(u, "h0", ASCENDING, 16)
    steps_ok = True
    for previous, node in zip(chain.nodes, chain.nodes[1:]):
        steps_ok = steps_ok and (
            node != previous
            and is_lower(u, node)
            and u.is_member(previous, node)
        )
    ok = (
        len(chain.nodes) >= 3
        and is_lower(u, chain.nodes[0])
        and steps_ok
        and chain.terminated_by == ABSENT
    )
    report("6 ascending chain through the hereditarily finite world", ok)


def test_criterion_7_descending_chain():
    result = upper_chain_interp(default_demo_model(), 3)
    world = materialize(result.model)
    previous = "ur0"
    steps_ok = len(result.nodes) == 3
    for node in result.nodes:
        steps_ok = steps_ok and (
            is_upper(world, node)
            and node != previous
            and world.is_member(node, previous)
        )
        previous = node
    report("7 descending chain of interpreted uppers", steps_ok)


def test_criterion_8_xor_equivalence():
    model = forster_demo_model()
    ok = True
    pairs = 0
    for u in model.entities:
        if not model.is_urelement(u):
            continue
        tag = model.tag_of(u)
        if tag is None:
            continue
        for x in model.entities:
            pairs += 1
            ok = ok and member_interp(model, x, u) == sprig(model, x, tag).odd
    ok = ok and pairs == 3 * len(model.entities)
    report("8 xor equivalence of the two membership routes", ok)


def test_criterion_9_cli_determinism(capsys, tmp_path):
    path = tmp_path / "quine.uni"
    path.write_text("e = {}\nq = {q}\n")
    commands = [
        ["check", str(path)],
        ["check", str(path), "--require", "successor", "--format", "json"],
        ["classify", str(path)],
        ["classify", str(path), "--format", "json"],
        ["verify", str(path)],
        ["verify", str(path), "--format", "json"],
        ["chains", str(path), "--from", "q", "--dir", "asc", "--cap", "4"],
        ["chains", str(path), "--from", "e", "--dir", "desc", "--format", "json"],
        ["enumerate", "--size", "2"],
        ["enumerate", "--size", "2", "--filter", "has-lower", "--format", "json"],
        ["enumerate", "--size", "2", "--dedupe"],
        ["interp", "--demo", "forster"],
        ["interp", "--demo", "forster", "--format", "json"],
        ["interp", "--demo", "quine"],
        ["interp", "--demo", "upperchain", "--k", "2", "--format", "json"],
    ]
    ok = True
    for argv in commands:
        first_code = main(argv)
        first = capsys.readouterr()
        second_code = main(argv)
        second = capsys.readouterr()
        ok = ok and first_code == second_code and first == second
        if argv[-1] == "json" or "--format" in argv:
            json.loads(first.out)
    report("9 deterministic cli output", ok)
