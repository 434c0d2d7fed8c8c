"""README's claims about the JSON reports and the library, checked against
the code."""

import ast
import io
import json
import re
import tokenize
from pathlib import Path

import pytest

from setlab import LEMMA_TAGS
from setlab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title):
    """The README text under the heading ``## title``."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end != -1 else len(text)]


def schema_keys():
    """Report name -> the keys its JSON-schema bullet lists, in order: the
    backquoted names before the bullet's first full stop, outside
    parentheses."""
    keys = {}
    bullets = re.findall(
        r"^ *\* `(\w+)`: (.*?)(?=^ *\* |\Z)",
        section("JSON report schema"),
        re.M | re.S,
    )
    for name, text in bullets:
        count = 1
        while count:
            text, count = re.subn(r"\([^()]*\)", "", text)
        keys[name] = re.findall(r"`(\w+)`", re.split(r"\.\s", text)[0])
    return keys


# Report name -> a call that prints that report.
REPORTS = {
    "check": ("check", "{file}"),
    "classify": ("classify", "{file}"),
    "verify": ("verify", "{file}"),
    "chains": ("chains", "{file}", "--from", "q", "--dir", "asc"),
    "enumerate": ("enumerate", "--size", "1"),
    "quine": ("interp", "--demo", "quine"),
    "forster": ("interp", "--demo", "forster"),
    "upperchain": ("interp", "--demo", "upperchain"),
}


@pytest.mark.parametrize("name", REPORTS)
def test_json_schema_lists_each_reports_keys_in_order(capsys, tmp_path, name):
    path = tmp_path / "quine.uni"
    path.write_text("e = {}\nq = {q}\n")
    main([part.format(file=path) for part in REPORTS[name]] + ["--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["command"] + schema_keys()[name]


def test_verify_bullet_lists_the_lemma_tags_in_order():
    bullet = section("JSON report schema").split("* `verify`: ")[1]
    listed = bullet.split("over the thirteen lemma tags ")[1].split(")")[0]
    assert tuple(re.findall(r"`([^`]+)`", listed)) == LEMMA_TAGS


def test_library_comments_are_the_reprs_of_their_lines():
    text = section("Library")
    start = text.index("```python\n") + len("```python\n")
    block = text[start : text.index("```", start)]
    comments = {
        token.start[0]: token.string.removeprefix("#").strip()
        for token in tokenize.generate_tokens(io.StringIO(block).readline)
        if token.type == tokenize.COMMENT
    }
    namespace = {}
    checked = 0
    for statement in ast.parse(block).body:
        comment = comments.pop(statement.end_lineno, None)
        if comment is None:
            exec(compile(ast.Module([statement], []), "README", "exec"), namespace)
            continue
        assert isinstance(statement, ast.Expr), comment
        expression = compile(ast.Expression(statement.value), "README", "eval")
        assert repr(eval(expression, namespace)) == comment
        checked += 1
    assert checked and not comments
