"""Parser and printer for the universe description language.

Grammar (names are case-sensitive; spaces and tabs around tokens are
ignored; comments occupy a whole line; a NEWLINE is LF, CRLF or CR):

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

A well-formed definition line, and in a model document a well-formed
urelement declaration, is matched whole by one regular expression.  Every
other line (any line with a syntax error, and a urelement declaration in a
plain document) goes to the line checker, which is the one place that words
each syntax error and its column.  The records are named tuples, so their
hashing, equality and construction run in C.  Each name rule is one set
operation over the whole document; a loop runs only when a rule fails, to
word the first error in line order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from .errors import (
    DslSyntaxError,
    DuplicateDefinitionError,
    UndefinedNameError,
    UnknownElementError,
)
from .universe import Universe

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
# A whole well-formed definition line: group 1 is the name, group 2 the
# member list (None for an empty set).  It skips only space and tab, as
# _tokenize does, so it accepts exactly the definitions the line checker
# accepts; every other line goes to the line checker.
_DEFINITION_RE = re.compile(
    rf"[ \t]*({_NAME})[ \t]*=[ \t]*"
    rf"\{{((?:[ \t]*{_NAME}[ \t]*,)*[ \t]*{_NAME})?[ \t]*\}}[ \t]*"
)
# A whole well-formed urelement declaration: group 1 is the name, group 2
# the index clause (None without one), groups 3 and 4 its two slots (None
# when empty).  Blanks separate the keyword, the name and ``index``, which
# would otherwise run together into one name; each 0rep is followed by a
# blank, ',' or '}', as _TOKEN_RE requires.
_URELEMENT_RE = re.compile(
    rf"[ \t]*urelement[ \t]+({_NAME})"
    r"([ \t]+index[ \t]*\([ \t]*"
    r"\{((?:[ \t]*0rep[ \t]*,)*[ \t]*0rep)?[ \t]*\}[ \t]*,[ \t]*"
    rf"\{{((?:[ \t]*{_NAME}[ \t]*,)*[ \t]*{_NAME})?[ \t]*\}}[ \t]*\))?[ \t]*"
)
# One token after any blanks: a name, 0rep, punctuation, or (group 4) any
# other non-blank character, which starts no token.
_TOKEN_RE = re.compile(
    rf"[ \t]*(?:({_NAME})|(0rep)(?![A-Za-z0-9_])|([={{}}(),])|([^ \t]))"
)

NAME = "name"
ZERO_REP_TOKEN = "0rep"
# Ends every token list; its space keeps it apart from any token text.
END = "end of line"


class Index(NamedTuple):
    """A urelement tag.  Its bearer contains exactly the listed entities,
    or, when complement is set, everything except them.  As a named tuple
    it equals, and hashes as, the plain tuple (complement, listed)."""

    complement: bool
    listed: frozenset[str]


class UrelementDecl(NamedTuple):
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
    """(kind, text, column) of each token of line, then END.  A character
    that starts no token is a syntax error."""
    tokens = []
    for match in _TOKEN_RE.finditer(line):
        group = match.lastindex
        text, col = match.group(group), match.start(group) + 1
        if group == 4:
            raise DslSyntaxError(f"unexpected character {text!r}", lineno, col)
        tokens.append((NAME if group == 1 else text, text, col))
    tokens.append((END, "", len(line) + 1))
    return tokens


def _check_line(line: str, lineno: int, allow_urelements: bool) -> None:
    """Raise the first syntax error of a non-blank, non-comment line, or
    return if the token grammar accepts it.  It builds nothing: the regexes
    read every line that it accepts."""
    tokens = _tokenize(line, lineno)
    pos = 0

    def take(kinds: tuple[str, ...], what: str) -> tuple[str, str, int]:
        """The next token, whose kind (or, for a keyword, whose text) must be
        one of kinds; otherwise a syntax error saying what was expected."""
        nonlocal pos
        token = tokens[pos]
        if token[0] not in kinds and token[1] not in kinds:
            found = "" if token[0] is END else f", found {token[1]!r}"
            raise DslSyntaxError(f"expected {what}{found}", lineno, token[2])
        pos += 1
        return token

    def items(kinds: tuple[str, ...], what: str) -> list[tuple[str, str, int]]:
        """'{' [item (',' item)*] '}' where each item is a token of one of the
        given kinds (described as what) -> the item tokens."""
        take(("{",), "'{'")
        token = take(("}", *kinds), what)
        if token[0] == "}":
            return []
        found = [token]
        while take((",", "}"), "',' or '}'")[0] == ",":
            found.append(take(kinds, what))
        return found

    first, second = tokens[:2]  # a non-blank line has a token before END
    zero_slot = mu_slot = ()
    if first[1] == "urelement" and second[0] in (NAME, END):
        if not allow_urelements:
            raise DslSyntaxError(
                "urelement declarations are only allowed in model documents",
                lineno,
                first[2],
            )
        pos = 1  # past the keyword
        take((NAME,), "a urelement name")
        if take((END, "index"), "'index'")[0] is END:
            return
        take(("(",), "'('")
        zero_slot = items((NAME, ZERO_REP_TOKEN), "a name or 0rep")
        take((",",), "','")
        mu_slot = items((NAME, ZERO_REP_TOKEN), "a name or 0rep")
        take((")",), "')'")
    else:
        take((NAME,), "a name")
        take(("=",), "'='")
        items((NAME,), "a name")
    token = tokens[pos]
    if token[0] is not END:
        raise DslSyntaxError(f"unexpected trailing {token[1]!r}", lineno, token[2])
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


def _names(member_list: str) -> list[str]:
    """The names of a member list that a whole-line regex has matched: with
    its blanks deleted, the list splits at ','."""
    return member_list.replace(" ", "").replace("\t", "").split(",")


def parse_document(text: str, allow_urelements: bool = False) -> UniverseDoc:
    """Parse source text into a validated document.

    Raises DslSyntaxError, DuplicateDefinitionError, UndefinedNameError, or
    UnknownElementError for a definition that lists a urelement; positions
    in messages are 1-based.
    """
    definitions: list[tuple[str, tuple[str, ...], int]] = []
    urelements: list[UrelementDecl] = []
    # Only \n, \r\n and \r end a line, as in a file opened in text mode;
    # str.splitlines would also break at \x0c, \x85, U+2028 and others.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    # No line matches both regexes: a definition needs '='.
    for lineno, raw in enumerate(lines, start=1):
        if allow_urelements and (match := _URELEMENT_RE.fullmatch(raw)):
            name, clause, zero_slot, names = match.groups()
            index = None
            if clause is not None:
                listed = frozenset(_names(names)) if names else frozenset()
                index = Index(zero_slot is not None, listed)
            urelements.append(UrelementDecl(name, index, lineno))
            continue
        match = _DEFINITION_RE.fullmatch(raw)
        if match:
            name, body = match.groups()
            members = tuple(_names(body)) if body else ()
            definitions.append((name, members, lineno))
            continue
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        _check_line(raw, lineno, allow_urelements)
        raise AssertionError(f"line {lineno}: the checker accepts what no regex reads")

    # Each name rule as one set operation: no name defined twice, every
    # member and listed entity defined, no definition lists a urelement.
    pool = {decl.name for decl in urelements}
    defined = pool.union(map(itemgetter(0), definitions))
    member_lists = list(map(itemgetter(1), definitions))
    tag_lists = [decl.index.listed for decl in urelements if decl.index]
    if not (
        len(defined) == len(definitions) + len(urelements)
        and defined.issuperset(chain.from_iterable(chain(member_lists, tag_lists)))
        and pool.isdisjoint(chain.from_iterable(member_lists))
    ):
        _raise_first_name_error(definitions, urelements)

    return UniverseDoc(
        definitions=tuple((name, members) for name, members, _ in definitions),
        urelements=tuple(urelements),
    )


def _raise_first_name_error(
    definitions: list[tuple[str, tuple[str, ...], int]],
    urelements: list[UrelementDecl],
) -> None:
    """Raise the first error of the name rules, taken rule by rule, each in
    line order, the definitions before the urelements and a tag's entities
    in sorted order."""
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
        for member in members:
            if member not in defined:
                raise UndefinedNameError(f"line {lineno}: undefined name {member!r}")
    pool = {decl.name for decl in urelements}
    for name, members, lineno in definitions:
        for member in filter(pool.__contains__, members):
            message = f"line {lineno}: {name!r} lists urelement {member!r}"
            raise UnknownElementError(message)


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
