"""Parser and printer for the universe description language.

Grammar (names are case-sensitive; whitespace around tokens is ignored;
comments occupy a whole line):

    doc      := (stmt NEWLINE)*
    stmt     := name "=" "{" [name ("," name)*] "}" | "#" comment
    name     := [A-Za-z_][A-Za-z0-9_]*

Model documents additionally allow urelement declarations:

    urelement NAME
    urelement NAME index ( { [tokens] } , { [tokens] } )

The two slots spell a tag (Index): the first may only contain the literal
``0rep``, which switches on the complement, and the second only entity
names, the listed entities.  Forward references are allowed everywhere;
every referenced name must be defined somewhere in the document.

A well-formed definition line is matched whole by one regular expression.
Every other line (urelement declarations, and any line with a syntax error)
goes to the token parser, which is the one place that words each syntax
error and its column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain

from .errors import (
    DslSyntaxError,
    DuplicateDefinitionError,
    UndefinedNameError,
)
from .universe import Universe

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME)
# A whole well-formed definition line: group 1 is the name, group 2 the
# member list (None for an empty set).  It skips only space and tab, as
# _tokenize does, so it accepts exactly the definitions the token parser
# accepts; every other line goes to the token parser.
_DEFINITION_RE = re.compile(
    rf"[ \t]*({_NAME})[ \t]*=[ \t]*"
    rf"\{{((?:[ \t]*{_NAME}[ \t]*,)*[ \t]*{_NAME})?[ \t]*\}}[ \t]*"
)
_ZERO_REP_RE = re.compile(r"0rep(?![A-Za-z0-9_])")

NAME = "name"
ZERO_REP_TOKEN = "0rep"
PUNCT = "={}(),"


@dataclass(frozen=True)
class Index:
    """A urelement tag.  Its bearer contains exactly the listed entities,
    or, when complement is set, everything except them."""

    complement: bool
    listed: frozenset[str]


@dataclass(frozen=True)
class UrelementDecl:
    name: str
    index: Index | None
    line: int


@dataclass(frozen=True)
class UniverseDoc:
    """Validated parse result: ordered definitions plus any urelement
    declarations.  All referenced names are defined and no name is defined
    twice."""

    definitions: tuple[tuple[str, tuple[str, ...]], ...]
    urelements: tuple[UrelementDecl, ...] = ()

    def to_universe(self) -> Universe:
        """Build the universe over the plain definitions, elements in
        canonical (sorted) name order."""
        ordered = sorted(name for name, _ in self.definitions)
        members = dict(self.definitions)
        return Universe.from_extensions({name: members[name] for name in ordered})


def _tokenize(line: str, lineno: int) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(line):
        ch = line[i]
        if ch in " \t":
            i += 1
            continue
        if ch in PUNCT:
            tokens.append((ch, ch, i + 1))
            i += 1
            continue
        match = _NAME_RE.match(line, i)
        if match:
            tokens.append((NAME, match.group(), i + 1))
            i = match.end()
            continue
        match = _ZERO_REP_RE.match(line, i)
        if match:
            tokens.append((ZERO_REP_TOKEN, match.group(), i + 1))
            i = match.end()
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", lineno, i + 1)
    return tokens


class _LineParser:
    def __init__(self, tokens: list[tuple[str, str, int]], lineno: int, width: int):
        self.tokens = tokens
        self.lineno = lineno
        self.width = width
        self.pos = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, kinds: tuple[str, ...], what: str) -> tuple[str, str, int]:
        """The next token, whose kind (or, for a keyword, whose text) must be
        one of kinds; otherwise a syntax error saying what was expected."""
        token = self.peek()
        if token is None:
            raise DslSyntaxError(f"expected {what}", self.lineno, self.width + 1)
        if token[0] not in kinds and token[1] not in kinds:
            raise DslSyntaxError(
                f"expected {what}, found {token[1]!r}", self.lineno, token[2]
            )
        self.pos += 1
        return token

    def at_end(self):
        token = self.peek()
        if token is not None:
            raise DslSyntaxError(
                f"unexpected trailing {token[1]!r}", self.lineno, token[2]
            )


def _parse_set(
    parser: _LineParser, kinds: tuple[str, ...], what: str
) -> tuple[tuple[str, str, int], ...]:
    """'{' [item (',' item)*] '}' where each item is a token of one of the
    given kinds (described as what) -> the item tokens in written order."""
    parser.take(("{",), "'{'")
    token = parser.peek()
    if token is not None and token[0] == "}":
        parser.pos += 1
        return ()
    items = [parser.take(kinds, what)]
    while parser.take((",", "}"), "',' or '}'")[0] == ",":
        items.append(parser.take(kinds, what))
    return tuple(items)


def _parse_urelement(parser: _LineParser, lineno: int) -> UrelementDecl:
    name = parser.take((NAME,), "a urelement name")[1]
    if parser.peek() is None:
        return UrelementDecl(name=name, index=None, line=lineno)
    parser.take(("index",), "'index'")
    parser.take(("(",), "'('")
    zero_slot = _parse_set(parser, (NAME, ZERO_REP_TOKEN), "a name or 0rep")
    parser.take((",",), "','")
    mu_slot = _parse_set(parser, (NAME, ZERO_REP_TOKEN), "a name or 0rep")
    parser.take((")",), "')'")
    parser.at_end()
    for kind, value, col in zero_slot:
        if kind != ZERO_REP_TOKEN:
            raise DslSyntaxError(
                f"only 0rep may appear in the first index slot, found {value!r}",
                lineno,
                col,
            )
    for kind, value, col in mu_slot:
        if kind != NAME:
            raise DslSyntaxError(
                "only entity names may appear in the second index slot",
                lineno,
                col,
            )
    listed = frozenset(token[1] for token in mu_slot)
    return UrelementDecl(
        name=name,
        index=Index(bool(zero_slot), listed),
        line=lineno,
    )


def parse_document(text: str, allow_urelements: bool = False) -> UniverseDoc:
    """Parse source text into a validated document.

    Raises DslSyntaxError, DuplicateDefinitionError, or UndefinedNameError;
    positions in messages are 1-based.
    """
    definitions: list[tuple[str, tuple[str, ...], int]] = []
    urelements: list[UrelementDecl] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        match = _DEFINITION_RE.fullmatch(raw)
        if match:
            name, body = match.groups()
            members = tuple(_NAME_RE.findall(body)) if body else ()
            definitions.append((name, members, lineno))
            continue
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            continue
        parser = _LineParser(_tokenize(raw, lineno), lineno, len(raw))
        first = parser.peek()
        second = parser.tokens[1] if len(parser.tokens) > 1 else None
        if (
            first is not None
            and first[0] == NAME
            and first[1] == "urelement"
            and (second is None or second[0] == NAME)
        ):
            if not allow_urelements:
                raise DslSyntaxError(
                    "urelement declarations are only allowed in model documents",
                    lineno,
                    first[2],
                )
            parser.pos = 1  # past the keyword
            urelements.append(_parse_urelement(parser, lineno))
            continue
        name = parser.take((NAME,), "a name")[1]
        parser.take(("=",), "'='")
        members = tuple(token[1] for token in _parse_set(parser, (NAME,), "a name"))
        parser.at_end()
        definitions.append((name, members, lineno))

    # Each name rule in one pass: the definitions first, then the urelements.
    declared = [
        (decl.name, sorted(decl.index.listed) if decl.index else (), decl.line)
        for decl in urelements
    ]
    defined: dict[str, int] = {}
    for name, _, lineno in chain(definitions, declared):
        if name in defined:
            raise DuplicateDefinitionError(
                f"line {lineno}: {name!r} already defined on line {defined[name]}"
            )
        defined[name] = lineno
    for _, members, lineno in chain(definitions, declared):
        if all(map(defined.__contains__, members)):
            continue
        for member in members:
            if member not in defined:
                raise UndefinedNameError(f"line {lineno}: undefined name {member!r}")

    return UniverseDoc(
        definitions=tuple((name, members) for name, members, _ in definitions),
        urelements=tuple(urelements),
    )


def parse_universe(text: str) -> Universe:
    """Parse a plain universe document and build the universe, elements in
    canonical name order."""
    return parse_document(text).to_universe()


def print_universe(u: Universe) -> str:
    """Render a universe as DSL text; parse_universe round-trips it up to
    element order."""
    lines = []
    for x in u.names:
        members = ", ".join(u.ids(u.members_mask(x)))
        lines.append(f"{x} = {{{members}}}")
    return "\n".join(lines) + "\n" if lines else ""
