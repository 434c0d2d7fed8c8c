"""Command-line front end.

Subcommands: check, classify, verify, chains, enumerate, interp.  Output is
human-readable text by default or, with --format json, one JSON document
led by a ``command`` echo; both are byte-identical across runs on the same
inputs.  ``_emit`` prints every report and returns its exit code: 0 on
success, 1 for a lemma violation, a failed demo check, or an unsatisfied
axiom under --require.  ``main`` exits 2 for usage and parse errors and for
a report that stdout cannot encode, 130 (128 + SIGINT) on Ctrl-C, 141
(128 + SIGPIPE) when stdout's reader leaves.
"""

from __future__ import annotations

import argparse
import os
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import audit, classifier, dsl, enumerator, interp
from .errors import LemmaViolationError, SetlabError
from .universe import LookupResult, Multiple, Unique, Universe

EXIT_INTERRUPTED = 128 + 2  # killed by SIGINT, as shells report it
EXIT_BROKEN_PIPE = 128 + 13  # killed by SIGPIPE, as shells report it


def _lookup_text(result: LookupResult) -> str:
    if isinstance(result, Unique):
        return f"unique({result.id})"
    if isinstance(result, Multiple):
        return f"multiple({', '.join(result.ids)})"
    return "absent"


def _lookup_json(result: LookupResult) -> dict:
    if isinstance(result, Unique):
        return {"kind": "unique", "id": result.id}
    if isinstance(result, Multiple):
        return {"kind": "multiple", "ids": result.ids}
    return {"kind": "absent"}


def _read_text(path: str) -> str:
    """The file's contents as UTF-8 text, less any leading byte-order mark;
    a decoding error names the file.  The mark is stripped after decoding,
    not by the utf-8-sig codec, so error positions stay byte offsets into
    the file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise SetlabError(f"{exc} (in {path})") from None


def _load_universe(path: str) -> Universe:
    return dsl.parse_universe(_read_text(path))


def _json(value) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for what a report
    holds: str, int, bool, None, and lists, tuples and str-keyed dicts of
    them.  Anything else (a float, a set, a non-str key) raises TypeError.
    With ``indent`` set, json takes its pure-Python encoder; this quotes
    strings with json's C function and appends each fragment, in document
    order, to one list joined once.  A list or tuple of strings is one
    fragment, reused where the same object recurs at the same depth, as the
    ``ids`` that a group of coextensive elements share do."""
    out: list[str] = []
    put = out.append
    keys: dict[str, str] = {}  # a dict key -> its quoted form
    # (id, closing pad) -> the fragment of a list or tuple of strings.
    # Every container lives for the whole call, so no id is reused.
    strings: dict[tuple[int, str], str] = {}

    def walk(value, pad: str) -> None:
        # ``pad`` is the newline and indentation that close the container.
        if isinstance(value, dict) and value:
            inner = pad + "  "
            lead, sep = "{" + inner, "," + inner
            for k, v in value.items():
                head = lead + (keys.get(k) or keys.setdefault(k, _quote(k))) + ": "
                if type(v) is str:
                    put(head + _quote(v))
                else:
                    put(head)
                    walk(v, inner)
                lead = sep
            put(pad + "}")
        elif isinstance(value, (list, tuple)) and value:
            inner = pad + "  "
            lead, sep = "[" + inner, "," + inner
            key = (id(value), pad)
            if key not in strings:
                try:  # _quote raises TypeError for anything but a string
                    strings[key] = lead + sep.join(map(_quote, value)) + pad + "]"
                except TypeError:
                    for item in value:
                        put(lead)
                        walk(item, inner)
                        lead = sep
                    put(pad + "]")
                    return
            put(strings[key])
        elif isinstance(value, str):
            put(_quote(value))
        elif value is None:
            put("null")
        elif value is True:
            put("true")
        elif value is False:
            put("false")
        elif isinstance(value, int):
            put(int.__repr__(value))
        elif isinstance(value, (dict, list, tuple)):
            put("{}" if isinstance(value, dict) else "[]")
        else:
            raise TypeError(
                f"Object of type {type(value).__name__} is not JSON serializable"
            )

    walk(value, "\n")
    return "".join(out)


def _emit(args, doc: dict, lines: list[str], ok: bool = True) -> int:
    if args.format == "json":
        print(_json({"command": args.command, **doc}))
    else:
        print("\n".join(lines))
    return 0 if ok else 1


def _flag(value: bool) -> str:
    return "yes" if value else "no"


# -- check ------------------------------------------------------------------


def _cmd_check(args) -> int:
    u = _load_universe(args.file)
    reports = [
        audit.check_axiom(u, audit.SUCCESSOR),
        audit.check_axiom(u, audit.PREDECESSOR),
    ]
    ok = all(r.satisfied for r in reports if args.require in (r.axiom, "both"))

    # per_element is built on each read, so each report's is read once, for
    # the one format that gets printed.
    doc, lines = {}, []
    if args.format == "json":
        doc = {
            "file": args.file,
            "elements": len(u),
            "axioms": [
                {
                    "axiom": report.axiom,
                    "satisfied": report.satisfied,
                    "per_element": [
                        {"element": x, "result": _lookup_json(r)}
                        for x, r in report.per_element
                    ],
                }
                for report in reports
            ],
            "require": args.require,
            "ok": ok,
        }
    else:
        lines.append(f"universe: {args.file} ({len(u)} elements)")
        for report in reports:
            state = "satisfied" if report.satisfied else "not satisfied"
            lines.append(f"axiom {report.axiom}: {state}")
            for x, result in report.per_element:
                lines.append(f"  {x}: {_lookup_text(result)}")
        if args.require:
            lines.append(f"require {args.require}: {'ok' if ok else 'FAIL'}")
    return _emit(args, doc, lines, ok)


# -- classify -----------------------------------------------------------------


def _cmd_classify(args) -> int:
    u = _load_universe(args.file)
    rows = classifier.classify_all(u)
    witness = classifier.russell_witness(u)

    doc = {
        "file": args.file,
        "elements": [
            {
                "element": row.element,
                "lower": row.lower,
                "upper": row.upper,
                "self_membered": row.self_membered,
                "strictly_russellian": row.lower and row.upper,
            }
            for row in rows
        ],
        "russell_witness": witness,
    }
    lines = [f"universe: {args.file} ({len(u)} elements)"]
    for row in rows:
        lines.append(
            f"element {row.element}: lower={_flag(row.lower)} "
            f"upper={_flag(row.upper)} self-membered={_flag(row.self_membered)}"
        )
    lines.append(f"russell witness: {witness if witness else 'none'}")
    return _emit(args, doc, lines)


# -- verify -------------------------------------------------------------------


def _cmd_verify(args) -> int:
    u = _load_universe(args.file)
    report = audit.verify_lemma_suite(u)
    doc = {
        "file": args.file,
        "elements": len(u),
        "lemmas": [
            {
                "tag": tag,
                "status": verdict.status,
                "witness": verdict.witness,
            }
            for tag, verdict in report.per_lemma
        ],
        "notes": report.notes,
        "ok": report.ok,
    }
    lines = [f"universe: {args.file} ({len(u)} elements)"]
    for tag, verdict in report.per_lemma:
        line = f"{tag}: {verdict.status}"
        if verdict.witness:
            line += f" (witness: {', '.join(verdict.witness)})"
        lines.append(line)
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append(f"result: {'ok' if report.ok else 'VIOLATED'}")
    return _emit(args, doc, lines, report.ok)


# -- chains -------------------------------------------------------------------


def _cmd_chains(args) -> int:
    if args.cap < 1:
        raise SetlabError("--cap must be at least 1")
    u = _load_universe(args.file)
    direction = {
        "asc": audit.ASCENDING,
        "desc": audit.DESCENDING,
    }[args.dir]
    chain = audit.trace_chain(u, args.start, direction, args.cap)
    doc = {
        "file": args.file,
        "from": args.start,
        "direction": chain.direction,
        "cap": args.cap,
        "nodes": chain.nodes,
        "terminated_by": chain.terminated_by,
        "repeated": chain.repeated,
    }
    lines = [
        f"chain {chain.direction} from {args.start} (cap {args.cap}):",
        "  " + " -> ".join(chain.nodes),
    ]
    if chain.repeated is not None:
        lines.append(f"terminated: {chain.terminated_by} (repeated {chain.repeated})")
    else:
        lines.append(f"terminated: {chain.terminated_by}")
    return _emit(args, doc, lines)


# -- enumerate ----------------------------------------------------------------


def _cmd_enumerate(args) -> int:
    try:
        spec = enumerator.EnumSpec(n=args.size, filter=args.filter, dedupe=args.dedupe)
    except ValueError as exc:
        raise SetlabError(str(exc)) from None
    stats = enumerator.enumerate_universes(spec)
    doc = {
        "size": args.size,
        "filter": args.filter,
        "dedupe": args.dedupe,
        "total": stats.total,
        "matching": stats.matching,
        "witnesses": stats.sample_witnesses,
    }
    lines = [
        f"size {args.size}, filter {args.filter if args.filter else 'none'}, "
        f"dedupe {'on' if args.dedupe else 'off'}",
        f"total: {stats.total}",
        f"matching: {stats.matching}",
    ]
    for i, witness in enumerate(stats.sample_witnesses, start=1):
        lines.append(f"witness {i}:")
        for line in witness.splitlines():
            lines.append(f"  {line}")
    return _emit(args, doc, lines)


# -- interp -------------------------------------------------------------------


def _cmd_interp(args) -> int:
    if args.demo == "upperchain" and args.k < 1:
        raise SetlabError("--k must be at least 1")
    if args.demo == "quine":
        if args.model is not None:
            raise SetlabError("--model does not apply to the quine demo")
        return _demo_quine(args)
    if args.model is not None:
        model = interp.parse_model(_read_text(args.model))
    elif args.demo == "forster":
        model = interp.forster_demo_model()
    else:
        model = interp.default_demo_model()
    demo = _demo_forster if args.demo == "forster" else _demo_upperchain
    return demo(args, model)


def _demo_quine(args) -> int:
    u = interp.quine_universe()
    pred = u.predecessor_in("q")
    checks = [
        ("self-membered(q)", u.self_membered("q")),
        ("predecessor(q) = unique(e)", pred == Unique("e")),
        ("not self-membered(e)", not u.self_membered("e")),
    ]
    ok = all(result for _, result in checks)
    universe = dsl.print_universe(u).splitlines()
    doc = {
        "demo": "quine",
        "universe": universe,
        "checks": [{"check": name, "pass": result} for name, result in checks],
        "ok": ok,
    }
    lines = ["demo: quine"] + [f"  {line}" for line in universe]
    for name, result in checks:
        lines.append(f"check {name}: {'pass' if result else 'FAIL'}")
    lines.append(f"result: {'ok' if ok else 'FAIL'}")
    return _emit(args, doc, lines, ok)


def _demo_forster(args, model: interp.BaseModel) -> int:
    report = interp.verify_forster_counterexample(model)
    doc = {
        "demo": "forster",
        "entities": len(model.entities),
        "universal": report.universal,
        "n": report.n,
        "m": report.m,
        "precondition_met": report.precondition_met,
        "checks": [{"check": name, "pass": ok} for name, ok in report.checks],
        "note": report.note,
        "ok": report.passed,
    }
    lines = [
        "demo: forster",
        f"model: {len(model.base)} base elements, "
        f"{len(model.urelements)} urelements",
        f"universal={report.universal} n={report.n or 'none'} m={report.m or 'none'}",
    ]
    if not report.precondition_met:
        lines.append("precondition: NOT met")
    for name, ok in report.checks:
        lines.append(f"check {name}: {'pass' if ok else 'FAIL'}")
    lines.append(f"note: {report.note}")
    lines.append(f"result: {'ok' if report.passed else 'FAIL'}")
    return _emit(args, doc, lines, report.passed)


def _demo_upperchain(args, model: interp.BaseModel) -> int:
    result = interp.upper_chain_interp(model, args.k)
    world = interp.materialize(result.model)
    universal = interp.find_universal(result.model)
    rows = []
    previous = universal
    for node in result.nodes:
        rows.append(
            {
                "entity": node,
                "upper": classifier.is_upper(world, node),
                "member_of_previous": world.is_member(node, previous),
                "distinct_from_previous": node != previous,
            }
        )
        previous = node
    ok = all(
        row["upper"] and row["member_of_previous"] and row["distinct_from_previous"]
        for row in rows
    )
    doc = {
        "demo": "upperchain",
        "k": args.k,
        "universal": universal,
        "nodes": result.nodes,
        "steps": rows,
        "ok": ok,
    }
    lines = [
        f"demo: upperchain k={args.k}",
        f"chain descending from {universal}: " + " -> ".join(result.nodes),
    ]
    for row in rows:
        lines.append(
            f"step {row['entity']}: upper={_flag(row['upper'])} "
            f"member-of-previous={_flag(row['member_of_previous'])} "
            f"distinct={_flag(row['distinct_from_previous'])}"
        )
    lines.append(f"result: {'ok' if ok else 'FAIL'}")
    return _emit(args, doc, lines, ok)


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setlab",
        description="Finite-model workbench for ill-founded membership universes.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(func=func)
        return p

    p_check = command("check", _cmd_check, "check axiom satisfaction of a universe")
    p_check.add_argument("file", help="universe file")
    p_check.add_argument(
        "--require",
        choices=(audit.SUCCESSOR, audit.PREDECESSOR, "both"),
        default=None,
        help="exit 1 unless the universe satisfies the given axiom(s)",
    )

    p_classify = command(
        "classify", _cmd_classify, "classify every element of a universe"
    )
    p_classify.add_argument("file", help="universe file")

    p_verify = command("verify", _cmd_verify, "run the lemma suite over a universe")
    p_verify.add_argument("file", help="universe file")

    p_chains = command("chains", _cmd_chains, "trace a successor or predecessor chain")
    p_chains.add_argument("file", help="universe file")
    p_chains.add_argument("--from", dest="start", required=True, help="start element")
    p_chains.add_argument(
        "--dir", choices=("asc", "desc"), required=True, help="chain direction"
    )
    p_chains.add_argument(
        "--cap", type=int, default=32, help="maximum chain length (default: 32)"
    )

    p_enum = command("enumerate", _cmd_enumerate, "enumerate all universes of a size")
    p_enum.add_argument("--size", type=int, required=True, help="element count")
    p_enum.add_argument(
        "--filter",
        default=None,
        help="named filter: " + ", ".join(sorted(enumerator.FILTERS)),
    )
    p_enum.add_argument(
        "--dedupe",
        action="store_true",
        help="count one representative per isomorphism class",
    )

    p_interp = command("interp", _cmd_interp, "run an interpreted-membership demo")
    p_interp.add_argument(
        "--demo",
        choices=("forster", "quine", "upperchain"),
        required=True,
        help="which demo to run",
    )
    p_interp.add_argument(
        "--k", type=int, default=3, help="chain length for upperchain (default: 3)"
    )
    p_interp.add_argument(
        "--model",
        default=None,
        help="model file to use instead of the built-in demo model",
    )

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away: report nothing, keep interpreter shutdown
        # from failing on the flush too, and exit as a SIGPIPE death would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except LemmaViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SetlabError, OSError, UnicodeEncodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
