"""Mutation check: does the test suite notice small changes to key functions?

Copies src/, tests/, tools/, pyproject.toml and README.md (a test runs its
example model) to a temporary directory.
For each mutant of a target function it rewrites that one function in the
copy, runs ``pytest -q -x`` there on the module's own test file
(``tests/test_<module>.py``) and, only if that passes, on the whole suite,
and counts the mutant as killed (the tests fail or time out) or surviving.
The whole suite contains the module's file, so the verdicts are those of
whole-suite runs; most mutants die in the shorter one.  A mutant whose own
run fails first with ``TypeError: unsupported operand type(s)`` raised in
the mutated module (say, a tuple ``+`` turned into ``-``) is stillborn: it
dies on every call, so no test had to judge it.  Stillborn mutants are
listed apart and left out of the score.  Mutant runs are quiet; when the
unmutated suite fails, the tail of pytest's output goes to stderr.  The
checkout itself is never written.

    python tools/mutate.py              # every target
    python tools/mutate.py _json        # the target named _json
    python tools/mutate.py --list       # print the mutants, run nothing

Mutations, one per mutant: swap a comparison (``is``/``is not``,
``==``/``!=``, ``in``/``not in``, ``<``/``>=``, ``<=``/``>``), swap ``and``
and ``or``, ``&`` and ``|``, ``+`` and ``-``, drop a ``not`` or a ``~``,
add one to an integer constant, take either branch of a conditional
expression, and drop one item of a tuple passed as an argument or tested
with ``in``.  Needs only the standard library and pytest.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import re
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "setlab"
TARGETS = (
    ("audit.py", "verify_lemma_suite"),
    ("audit.py", "_clean_report"),
    ("universe.py", "Universe.__post_init__"),
    ("universe.py", "Universe.facts"),
    ("universe.py", "Universe._lookup"),
    ("universe.py", "hf_universe"),
    ("classifier.py", "comprehension_witness"),
    ("classifier.py", "is_strictly_russellian"),
    ("classifier.py", "russell_witness"),
    ("interp.py", "BaseModel.__post_init__"),
    ("interp.py", "BaseModel.world"),
    ("interp.py", "retag_counterexample_pair"),
    ("interp.py", "upper_chain_interp"),
    ("interp.py", "verify_forster_counterexample"),
    ("interp.py", "ForsterReport.note"),
    ("audit.py", "trace_chain"),
    ("dsl.py", "_tokenize"),
    ("dsl.py", "_check_line"),
    ("dsl.py", "parse_document"),
    ("dsl.py", "_raise_first_name_error"),
    ("enumerator.py", "EnumSpec.__post_init__"),
    ("enumerator.py", "_relabellings"),
    ("enumerator.py", "_least_codes"),
    ("enumerator.py", "_relabelled_code"),
    ("enumerator.py", "canonical_form"),
    ("cli.py", "_json"),
)
SWAPS = {
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Lt: ast.GtE, ast.GtE: ast.Lt,
    ast.LtE: ast.Gt, ast.Gt: ast.LtE,
    ast.And: ast.Or, ast.Or: ast.And,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
    ast.Add: ast.Sub, ast.Sub: ast.Add,
}


def find_function(tree: ast.Module, qualname: str) -> ast.FunctionDef:
    scope: ast.AST = tree
    for part in qualname.split("."):
        scope = next(
            node
            for node in ast.iter_child_nodes(scope)
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))
            and node.name == part
        )
    return scope


def _tuple_drops(node: ast.Tuple):
    for i in range(len(node.elts)):
        yield ast.Tuple(node.elts[:i] + node.elts[i + 1 :], ast.Load())


def replacements(node: ast.AST, parent: ast.AST | None):
    """The nodes that may stand in for node, each making one mutant."""
    if isinstance(node, (ast.cmpop, ast.boolop, ast.operator)):
        if type(node) in SWAPS:
            yield SWAPS[type(node)]()
    elif isinstance(node, ast.UnaryOp) and type(node.op) in (ast.Not, ast.Invert):
        yield node.operand
    elif isinstance(node, ast.IfExp):
        yield node.body
        yield node.orelse
    elif (
        isinstance(node, ast.Constant)
        and type(node.value) is int
        and not isinstance(parent, ast.Subscript)
    ):
        yield ast.Constant(node.value + 1)
    elif isinstance(node, ast.Tuple) and len(node.elts) > 1:
        if isinstance(parent, ast.Call) and node in parent.args:
            yield from _tuple_drops(node)
        elif isinstance(parent, ast.Compare) and isinstance(
            parent.ops[0], (ast.In, ast.NotIn)
        ):
            yield from _tuple_drops(node)


def _nodes(function: ast.FunctionDef):
    """(node, parent, field, index) for every node below the function's
    signature and docstring, in a fixed order."""
    queue = [(stmt, function, "body", i) for i, stmt in enumerate(function.body)]
    if ast.get_docstring(function) is not None:
        del queue[0]
    while queue:
        node, parent, field, index = queue.pop(0)
        yield node, parent, field, index
        for child_field, value in ast.iter_fields(node):
            if isinstance(value, list):
                queue.extend(
                    (item, node, child_field, i)
                    for i, item in enumerate(value)
                    if isinstance(item, ast.AST)
                )
            elif isinstance(value, ast.AST):
                queue.append((value, node, child_field, None))


def mutants(source: str, qualname: str):
    """(line, description, new function source) for every mutant."""
    original = find_function(ast.parse(source), qualname)
    sites = [
        (pos, k)
        for pos, (node, parent, _, _) in enumerate(_nodes(original))
        for k, _ in enumerate(replacements(node, parent))
    ]
    for pos, k in sites:
        function = copy.deepcopy(original)
        node, parent, field, index = list(_nodes(function))[pos]
        new = list(replacements(node, parent))[k]
        is_op = isinstance(node, (ast.cmpop, ast.boolop, ast.operator))
        where = parent if is_op else node
        before = ast.unparse(where)
        if index is None:
            setattr(parent, field, new)
        else:
            getattr(parent, field)[index] = new
        after = ast.unparse(where if where is parent else new)
        function.decorator_list = []
        ast.fix_missing_locations(function)
        text = textwrap.indent(ast.unparse(function), " " * original.col_offset)
        yield getattr(node, "lineno", where.lineno), f"{before}  ->  {after}", text


def splice(source: str, qualname: str, text: str) -> str:
    """source with the named function (below its decorators) replaced."""
    function = find_function(ast.parse(source), qualname)
    lines = source.splitlines(keepends=True)
    return "".join(
        lines[: function.lineno - 1] + [text + "\n"] + lines[function.end_lineno :]
    )


def module_tests(module: str) -> str:
    """The test file of a package module, relative to the work directory."""
    return f"tests/test_{Path(module).stem}.py"


def pytest_run(work: Path, timeout: float, tests: str) -> tuple[int | None, str]:
    """pytest's exit code (None when it runs over timeout) and output for the
    tests (a file or directory under work), one line per failure."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(work / "src"))
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
            + ["--tb=line", tests],
            cwd=work,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, ""
    return result.returncode, result.stdout.decode(errors="replace")


def run_tests(
    work: Path, timeout: float, report: bool = False, tests: str = "tests"
) -> bool:
    """Whether the tests (a file or directory under work) pass there.  With
    report, a failed run prints the tail of pytest's output (its short test
    summary) to stderr."""
    code, output = pytest_run(work, timeout, tests)
    if code is None and report:
        print(f"the unmutated tests ran over {timeout:.0f} s", file=sys.stderr)
    elif code and report:
        print("\n".join(output.splitlines()[-20:]), file=sys.stderr)
    return code == 0


def stillborn(output: str, module: str) -> bool:
    """Whether a failed run's output shows a TypeError for an operator's
    operand types raised in the package module."""
    where = re.escape(f"{PACKAGE.as_posix()}/{module}")
    return re.search(
        rf"{where}:\d+: TypeError: unsupported operand type\(s\)", output
    ) is not None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="run only these targets")
    parser.add_argument("--list", action="store_true", help="list mutants only")
    args = parser.parse_args(argv)
    targets = [
        (module, qualname)
        for module, qualname in TARGETS
        if not args.names or {qualname, qualname.split(".")[-1]} & set(args.names)
    ]
    known = {name for _, q in TARGETS for name in (q, q.split(".")[-1])}
    unknown = [name for name in args.names if name not in known]
    for name in unknown:
        print(f"error: no target named {name!r}", file=sys.stderr)
    if unknown:
        return 2
    plan = []
    for module, qualname in targets:
        source = (ROOT / PACKAGE / module).read_text(encoding="utf-8")
        for line, what, text in mutants(source, qualname):
            plan.append((module, qualname, line, what, text, source))
    if args.list:
        for module, qualname, line, what, *_ in plan:
            print(f"{module}:{line} {qualname}: {what}")
        print(f"{len(plan)} mutants")
        return 0

    with tempfile.TemporaryDirectory(prefix="setlab-mutate-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis")
        shutil.copytree(ROOT / "src", work / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=ignore)
        shutil.copytree(ROOT / "tools", work / "tools", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work)
        shutil.copy(ROOT / "README.md", work)
        start = time.perf_counter()
        if not run_tests(work, timeout=600, report=True):
            print("the unmutated tests fail; nothing to measure", file=sys.stderr)
            return 2
        timeout = max(60.0, 5 * (time.perf_counter() - start))
        verdicts = {"killed": [], "SURVIVED": [], "stillborn": []}
        for n, (module, qualname, line, what, text, source) in enumerate(plan, 1):
            path = work / PACKAGE / module
            path.write_text(splice(source, qualname, text), encoding="utf-8")
            code, output = pytest_run(work, timeout, module_tests(module))
            if code and stillborn(output, module):
                verdict = "stillborn"
            elif code != 0 or not run_tests(work, timeout):
                verdict = "killed"
            else:
                verdict = "SURVIVED"
            path.write_text(source, encoding="utf-8")
            where = f"{module}:{line} {qualname}: {what}"
            print(f"[{n}/{len(plan)}] {verdict:9} {where}", flush=True)
            verdicts[verdict].append(where)
    survivors = verdicts["SURVIVED"]
    scored = len(plan) - len(verdicts["stillborn"])
    print(f"\n{len(verdicts['killed'])} of {scored} mutants killed")
    for survivor in survivors:
        print(f"  survived: {survivor}")
    for where in verdicts["stillborn"]:
        print(f"  stillborn (not scored): {where}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
