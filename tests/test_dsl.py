import random
import re
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setlab import (
    DslSyntaxError,
    DuplicateDefinitionError,
    SetlabError,
    UndefinedNameError,
    UnknownElementError,
    Universe,
    canonical_form,
    dsl,
    hf_universe,
    parse_document,
    parse_universe,
    print_universe,
    quine_universe,
)


class TestParseUniverse:
    def test_two_elements(self):
        u = parse_universe("e = {}\nq = {q}\n")
        assert u.names == ("e", "q")
        assert u.extension("q") == frozenset({"q"})
        assert u.extension("e") == frozenset()

    def test_two_cycle(self):
        u = parse_universe("a = {b}\nb = {a}\n")
        assert u.extension("a") == frozenset({"b"})
        assert u.extension("b") == frozenset({"a"})

    def test_undefined_name(self):
        with pytest.raises(UndefinedNameError, match="'c'"):
            parse_universe("a = {c}\n")

    def test_forward_references_are_fine(self):
        u = parse_universe("a = {b}\nb = {}\n")
        assert u.extension("a") == frozenset({"b"})

    def test_duplicate_definition(self):
        with pytest.raises(DuplicateDefinitionError, match="line 2"):
            parse_universe("a = {}\na = {a}\n")

    def test_canonical_name_order(self):
        u = parse_universe("zz = {}\naa = {zz}\n")
        assert u.names == ("aa", "zz")

    def test_comments_and_blank_lines(self):
        u = parse_universe("# header\n\na = {}\n  # indented comment\n")
        assert u.names == ("a",)

    def test_whitespace_is_insignificant_around_tokens(self):
        u = parse_universe("  a={ b ,c }\nb = {}\nc={}\n")
        assert u.extension("a") == frozenset({"b", "c"})

    def test_names_are_case_sensitive(self):
        u = parse_universe("A = {a}\na = {}\n")
        assert u.names == ("A", "a")

    def test_missing_trailing_newline_is_tolerated(self):
        assert parse_universe("a = {}").names == ("a",)

    def test_empty_document(self):
        assert len(parse_universe("")) == 0


class TestSyntaxErrors:
    def test_position_is_reported(self):
        with pytest.raises(DslSyntaxError) as err:
            parse_universe("a = {}\nb = }\n")
        assert err.value.line == 2
        assert err.value.col == 5

    def test_missing_equals(self):
        with pytest.raises(DslSyntaxError, match="'='"):
            parse_universe("a {}\n")

    def test_unexpected_character(self):
        with pytest.raises(DslSyntaxError, match="unexpected character"):
            parse_universe("a = {b$}\nb = {}\n")

    def test_trailing_garbage(self):
        with pytest.raises(DslSyntaxError, match="trailing"):
            parse_universe("a = {} {}\n")

    def test_unterminated_set(self):
        with pytest.raises(DslSyntaxError):
            parse_universe("a = {\n")

    def test_digit_led_token(self):
        with pytest.raises(DslSyntaxError):
            parse_universe("a = {0repx}\n")

    def test_urelement_requires_model_mode(self):
        with pytest.raises(DslSyntaxError, match="model documents"):
            parse_universe("urelement u\n")

    def test_element_named_urelement_is_still_an_assignment(self):
        u = parse_universe("urelement = {}\n")
        assert u.names == ("urelement",)


class TestModelDocuments:
    def test_urelement_declarations(self):
        doc = parse_document(
            "a = {}\nurelement u\nurelement v index ( {0rep} , {a, u} )\n",
            allow_urelements=True,
        )
        assert [decl.name for decl in doc.urelements] == ["u", "v"]
        assert doc.urelements[0].index is None
        spec = doc.urelements[1].index
        assert spec.complement
        assert spec.listed == frozenset({"a", "u"})

    def test_empty_slots(self):
        doc = parse_document(
            "urelement u index ( {} , {} )\n", allow_urelements=True
        )
        spec = doc.urelements[0].index
        assert not spec.complement
        assert spec.listed == frozenset()

    def test_zero_rep_only_in_first_slot(self):
        with pytest.raises(DslSyntaxError, match="first index slot"):
            parse_document(
                "a = {}\nurelement u index ( {a} , {} )\n",
                allow_urelements=True,
            )
        with pytest.raises(DslSyntaxError, match="second index slot"):
            parse_document(
                "urelement u index ( {} , {0rep} )\n", allow_urelements=True
            )

    def test_urelement_name_clash_with_element(self):
        with pytest.raises(DuplicateDefinitionError):
            parse_document("a = {}\nurelement a\n", allow_urelements=True)

    def test_definition_may_not_list_a_urelement(self):
        # The first urelement in written order is named, not in set order.
        text = "b = {}\na = {b, v, u}\nurelement u index ( {0rep} , {} )\nurelement v\n"
        message = "^line 2: 'a' lists urelement 'v'$"
        with pytest.raises(UnknownElementError, match=message):
            parse_document(text, allow_urelements=True)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("a = {a,\n", "line 1, column 8: expected a name$"),
            ("a = {0rep}\n", "column 6: expected a name, found '0rep'$"),
            ("urelement u index ( {0rep,\n", "column 27: expected a name or 0rep$"),
            ("urelement u index ( {} , {=} )\n", "found '='$"),
            ("a\n", "column 2: expected '='$"),
            ("a = {b\n", "column 7: expected ',' or '}'$"),
            ("a = {b c}\n", "column 8: expected ',' or '}', found 'c'$"),
            ("urelement u index\n", r"column 18: expected '\('$"),
            ("urelement u index ( {} {} )\n", r"column 24: expected ',', found '\{'$"),
            ("urelement u index ( {} , {} \n", r"column 29: expected '\)'$"),
        ],
    )
    def test_set_messages(self, text, message):
        with pytest.raises(DslSyntaxError, match=message):
            parse_document(text, allow_urelements=True)

    def test_index_keyword_required(self):
        with pytest.raises(DslSyntaxError, match="'index'"):
            parse_document(
                "urelement u tag ( {} , {} )\n", allow_urelements=True
            )


class TestNameRules:
    """Each name rule is one set test over the document; when one fails, the
    first error in line order is reported, rule by rule."""

    @pytest.mark.parametrize(
        "text,error,message",
        [
            (
                "a = {ghost}\nb = {}\nb = {}\n",
                DuplicateDefinitionError,
                "line 3: 'b' already defined on line 2",
            ),
            # Three definitions and one urelement: two distinct names.
            (
                "a = {}\na = {}\na = {}\nurelement u\n",
                DuplicateDefinitionError,
                "line 2: 'a' already defined on line 1",
            ),
            (
                "a = {b}\nb = {}\nc = {z}\nd = {y}\n",
                UndefinedNameError,
                "line 3: undefined name 'z'",
            ),
            (
                "urelement u index ( {} , {z, a} )\n",
                UndefinedNameError,
                "line 1: undefined name 'a'",
            ),
            (
                "urelement u index ( {} , {ghost} )\nurelement u\n",
                DuplicateDefinitionError,
                "line 2: 'u' already defined on line 1",
            ),
            (
                "a = {u}\nb = {ghost}\nurelement u\n",
                UndefinedNameError,
                "line 2: undefined name 'ghost'",
            ),
        ],
    )
    def test_first_offence_is_reported(self, text, error, message):
        with pytest.raises(error) as err:
            parse_document(text, allow_urelements=True)
        assert str(err.value) == message


class TestRecords:
    """Tags and declarations are named tuples: C-level hashing and equality,
    and the field names and keywords of before."""

    @pytest.mark.parametrize("record", [dsl.Index, dsl.UrelementDecl])
    def test_hash_and_equality_are_the_tuples(self, record):
        assert record.__hash__ is tuple.__hash__
        assert record.__eq__ is tuple.__eq__

    def test_tags_of_two_parses_are_equal_and_hash_alike(self):
        text = "a = {}\nurelement u index ( {0rep} , {a, u} )\n"
        first, second = (
            parse_document(text, allow_urelements=True).urelements[0].index
            for _ in range(2)
        )
        assert first is not second
        assert first == second == (True, frozenset({"a", "u"}))
        assert hash(first) == hash(second)

    def test_fields_and_keywords(self):
        index = dsl.Index(complement=True, listed=frozenset({"a"}))
        decl = dsl.UrelementDecl(name="u", index=index, line=3)
        assert (index.complement, index.listed) == (True, frozenset({"a"}))
        assert (decl.name, decl.index, decl.line) == ("u", index, 3)
        assert dsl.Index._fields == ("complement", "listed")
        assert dsl.UrelementDecl._fields == ("name", "index", "line")


_NAMES = ("a", "x1", "_", "urelement", "index")
_PIECES = (*_NAMES, "0rep", "0", *"={}(),#", " ", "\t", "é")
_GAPS = st.sampled_from(("", "", " ", "\t", " \t "))


@st.composite
def _lines(draw):
    """A well-formed definition, as tokens, after up to two random edits
    (insert, delete or replace a token), joined with random space and tab;
    or a line of random pieces."""
    piece = st.sampled_from(_PIECES)
    if draw(st.booleans()):
        return "".join(draw(st.lists(piece, max_size=12)))
    name = st.sampled_from(_NAMES)
    members = draw(st.lists(name, max_size=4))
    body = [token for member in members for token in (",", member)][1:]
    tokens = [draw(name), "=", "{", *body, "}"]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        if edit == "insert":
            tokens.insert(at, draw(piece))
        elif at < len(tokens):
            tokens[at : at + 1] = [] if edit == "delete" else [draw(piece)]
    return "".join(draw(_GAPS) + token for token in tokens) + draw(_GAPS)


def _single_edits(tokens, pieces=_PIECES):
    """Every token list one insertion, deletion or replacement of a piece
    away from tokens."""
    for at in range(len(tokens) + 1):
        for piece in pieces:
            yield tokens[:at] + [piece] + tokens[at:]
    for at in range(len(tokens)):
        yield tokens[:at] + tokens[at + 1 :]
        for piece in pieces:
            yield tokens[:at] + [piece] + tokens[at + 1 :]


def _outcome(text, allow_urelements):
    try:
        return parse_document(text, allow_urelements)
    except SetlabError as err:
        return type(err), str(err)


_WORD_RE = re.compile(r"0rep|[A-Za-z_][A-Za-z0-9_]*")


def _checker_accepts(line, allow_urelements):
    try:
        dsl._check_line(line, 1, allow_urelements)
    except DslSyntaxError:
        return False
    return True


def _assert_checker_agrees(line, allow_urelements):
    """A regex matches line if and only if the line checker accepts it, and
    an accepted line means what its words say: a definition's name and then
    its members in written order; a declaration's name, whether it lists
    0rep, and the names it lists after 'index'.  Returns whether accepted;
    a blank or comment line never reaches the checker."""
    if not line.strip() or line.strip().startswith("#"):
        return False
    matched = dsl._DEFINITION_RE.fullmatch(line) or (
        allow_urelements and dsl._URELEMENT_RE.fullmatch(line)
    )
    accepted = _checker_accepts(line, allow_urelements)
    assert bool(matched) == accepted, line
    if not accepted:
        return False
    words = _WORD_RE.findall(line)
    if "=" in line:
        name, *refs = words
        expected = (name, tuple(refs))
    else:
        name, *rest = words[1:]
        refs = set(rest[1:]) - {"0rep"}
        expected = _decl(name, "0rep" in rest, refs) if rest else _decl(name)
    defined = "".join(f"{ref} = {{}}\n" for ref in sorted(set(refs) - {name}))
    doc = parse_document(f"{line}\n{defined}", allow_urelements)
    got = doc.definitions[0] if "=" in line else doc.urelements[0]
    assert got == expected, line
    return True


class TestDefinitionRegex:
    """The definition regex reads exactly the definitions that the line
    checker accepts, and each as its words say."""

    @settings(max_examples=500)
    @given(st.lists(_lines(), min_size=1, max_size=3), st.booleans())
    def test_same_outcome_as_the_token_parser(self, lines, allow_urelements):
        for line in lines:
            _assert_checker_agrees(line, allow_urelements)

    @pytest.mark.parametrize("sep", ["", " "])
    def test_every_single_edit_of_a_definition(self, sep):
        for tokens in _single_edits(["a", "=", "{", "x1", ",", "_", "}"]):
            for allow_urelements in (False, True):
                _assert_checker_agrees(sep.join(tokens), allow_urelements)

    def test_long_definition_keeps_written_order(self):
        names = [f"m{i}" for i in reversed(range(20_000))]
        text = f"a = {{{', '.join(names)}}}\n" + "".join(
            f"{name} = {{}}\n" for name in names
        )
        assert parse_document(text).definitions[0] == ("a", tuple(names))

    def test_long_unterminated_definition(self):
        line = "a = {" + ", ".join(f"m{i}" for i in range(20_000))
        with pytest.raises(DslSyntaxError, match="expected ',' or '}'$") as err:
            parse_document(line)
        assert (err.value.line, err.value.col) == (1, len(line) + 1)


def _error(text, allow_urelements):
    """The error message text gives, or None if it parses."""
    outcome = _outcome(text, allow_urelements)
    return None if isinstance(outcome, dsl.UniverseDoc) else outcome[1]


_MODEL_ONLY = (
    "line 1, column 1: urelement declarations are only allowed in model documents"
)


class TestEndOfLine:
    """A line cut after each of its tokens: the next step of the grammar
    meets the end of the line, and says what it expected there."""

    @pytest.mark.parametrize(
        "line,message",
        [
            ("urelement", "line 1, column 10: expected a urelement name"),
            ("urelement u", None),
            ("urelement u index", "line 1, column 18: expected '('"),
            ("urelement u index (", "line 1, column 20: expected '{'"),
            ("urelement u index ( {", "line 1, column 22: expected a name or 0rep"),
            ("urelement u index ( {0rep", "line 1, column 26: expected ',' or '}'"),
            ("urelement u index ( {0rep}", "line 1, column 27: expected ','"),
            ("urelement u index ( {0rep} ,", "line 1, column 29: expected '{'"),
            (
                "urelement u index ( {0rep} , {",
                "line 1, column 31: expected a name or 0rep",
            ),
            (
                "urelement u index ( {0rep} , {a",
                "line 1, column 32: expected ',' or '}'",
            ),
            (
                "urelement u index ( {0rep} , {a,",
                "line 1, column 33: expected a name or 0rep",
            ),
            (
                "urelement u index ( {0rep} , {a, b",
                "line 1, column 35: expected ',' or '}'",
            ),
            (
                "urelement u index ( {0rep} , {a, b}",
                "line 1, column 36: expected ')'",
            ),
            ("urelement u index ( {0rep} , {a, b} )", "line 1: undefined name 'a'"),
            ("urelement index", None),
        ],
    )
    def test_urelement_line(self, line, message):
        assert _error(line + "\n", allow_urelements=True) == message
        assert _error(line + "\n", allow_urelements=False) == _MODEL_ONLY

    @pytest.mark.parametrize(
        "line,message",
        [
            ("a", "line 1, column 2: expected '='"),
            ("a =", "line 1, column 4: expected '{'"),
            ("a = {", "line 1, column 6: expected a name"),
            ("a = {b", "line 1, column 7: expected ',' or '}'"),
            ("a = {b,", "line 1, column 8: expected a name"),
            ("a = {b, c", "line 1, column 10: expected ',' or '}'"),
            ("a = {b, c}", "line 1: undefined name 'b'"),
        ],
    )
    @pytest.mark.parametrize("allow_urelements", [False, True])
    def test_definition(self, line, message, allow_urelements):
        assert _error(line + "\n", allow_urelements) == message

    def test_trailing_blanks_move_the_end(self):
        assert _error("a = {b, \t\n", False) == "line 1, column 10: expected a name"


class TestWhitespace:
    """Only space and tab separate tokens; a line that is blank in the wider
    Unicode sense is skipped."""

    @pytest.mark.parametrize("blank", ["\xa0", "\u2003 \t"])
    def test_unicode_blank_line_is_skipped(self, blank):
        assert parse_document(f"a = {{}}\n{blank}\n").definitions == (("a", ()),)

    def test_other_whitespace_after_tokens_is_an_error(self):
        assert _error("a = {}\xa0\n", False) == (
            "line 1, column 7: unexpected character '\\xa0'"
        )


class TestLineEnds:
    """Only LF, CRLF and CR end a line; other line separators belong to the
    line they are on."""

    @pytest.mark.parametrize(
        "text,message",
        [
            ("# note\u2028\nb = {\n", "line 2, column 6: expected a name"),
            ("\x0c\nb = {\n", "line 2, column 6: expected a name"),
            ("a = {}\x0c b = {}\n", "line 1, column 7: unexpected character '\\x0c'"),
            (
                "a = {}\u2028\nb = {\n",
                "line 1, column 7: unexpected character '\\u2028'",
            ),
            ("a = {}\r\nb = {\r\n", "line 2, column 6: expected a name"),
            ("a = {}\rb = {\r", "line 2, column 6: expected a name"),
        ],
    )
    def test_error_line(self, text, message):
        assert _error(text, allow_urelements=False) == message

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_crlf_and_cr(self, end):
        text = end.join(["# c", "a = {b}", "", "b = {}", ""])
        assert parse_document(text).definitions == (("a", ("b",)), ("b", ()))

    def test_form_feed_line_is_blank(self):
        assert parse_document("a = {}\n\x0c\n").definitions == (("a", ()),)


class TestErrorPrecedence:
    """Which of several errors on one line is reported."""

    @pytest.mark.parametrize(
        "line,message",
        [
            ("a = = {é}", "column 8: unexpected character 'é'"),
            ("urelement u index ({u}, {}) x", "column 29: unexpected trailing 'x'"),
            (
                "urelement u index ({u}, {0rep})",
                "column 21: only 0rep may appear in the first index slot, found 'u'",
            ),
            ("urelement u index ({x}, {0rep}", "column 31: expected ')'"),
        ],
    )
    def test_first_error_wins(self, line, message):
        assert _error(line + "\n", allow_urelements=True) == f"line 1, {message}"


class TestPrintUniverse:
    def test_exact_text(self):
        assert print_universe(quine_universe()) == "e = {}\nq = {q}\n"

    def test_members_in_canonical_order(self):
        u = Universe.from_extensions({"b": ("c", "a", "b"), "a": (), "c": ()})
        assert print_universe(u) == "b = {b, a, c}\na = {}\nc = {}\n"

    def test_empty_universe(self):
        assert print_universe(Universe((), ())) == ""

    @pytest.mark.parametrize(
        "u",
        [
            quine_universe(),
            hf_universe(3),
            Universe.from_extensions({"a": ("b",), "b": ("a",)}),
            Universe((), ()),
        ],
    )
    def test_round_trip_preserves_canonical_form(self, u):
        again = parse_universe(print_universe(u))
        assert canonical_form(again) == canonical_form(u)
        assert {x: u.extension(x) for x in u.names} == {
            x: again.extension(x) for x in again.names
        }


# Tokens separated by single spaces, so that split() gives them back.
_WELL_FORMED_DECLARATIONS = (
    "urelement u",
    "urelement u index ( { } , { } )",
    "urelement u index ( { 0rep } , { a , u } )",
    "urelement index index ( { 0rep , 0rep } , { x1 } )",
)
_DECLARATION_PIECES = (
    "urelement", "index", "a", "u", "x1", "_", "0rep", "0repx", "0",
    *"={}(),#", " ", "\t", "\xa0",
)
_DECLARATION_GAPS = ("", " ", " ", "\t", " \t ")


def _edited_declarations(rng, count):
    """count lines, each a well-formed urelement declaration, as tokens, after
    up to two random edits (insert, delete or replace a piece), joined with
    random blanks; one in five is cut short at a random character."""
    for _ in range(count):
        tokens = rng.choice(_WELL_FORMED_DECLARATIONS).split()
        for _ in range(rng.randint(0, 2)):
            at = rng.randint(0, len(tokens))
            edit = rng.choice(("insert", "delete", "replace"))
            if edit == "insert":
                tokens.insert(at, rng.choice(_DECLARATION_PIECES))
            elif at < len(tokens):
                piece = rng.choice(_DECLARATION_PIECES)
                tokens[at : at + 1] = [] if edit == "delete" else [piece]
        gap = partial(rng.choice, _DECLARATION_GAPS)
        line = "".join(gap() + token for token in tokens) + gap()
        if rng.random() < 0.2:
            line = line[: rng.randrange(len(line) + 1)]
        yield line


def _pinned(line, allow_urelements=True):
    """What the one-line document parses to: its declaration, its
    definitions, or its syntax error message."""
    try:
        doc = parse_document(line + "\n", allow_urelements)
    except DslSyntaxError as err:
        return str(err)
    return doc.urelements[0] if doc.urelements else doc.definitions


def _decl(name, complement=None, listed=()):
    index = None if complement is None else dsl.Index(complement, frozenset(listed))
    return dsl.UrelementDecl(name=name, index=index, line=1)


class TestUrelementRegex:
    """In a model document the urelement regex reads exactly the
    declarations that the line checker accepts, and each as its words say."""

    def test_accepts_exactly_what_the_token_parser_accepts(self):
        lines = [
            " ".join(tokens)
            for declaration in _WELL_FORMED_DECLARATIONS
            for tokens in _single_edits(declaration.split(), _DECLARATION_PIECES)
        ]
        lines += _edited_declarations(random.Random(15), 3000)
        accepted = sum(_assert_checker_agrees(line, True) for line in lines)
        assert len(lines) // 10 < accepted < len(lines) // 2

    @pytest.mark.parametrize(
        "line,expected",
        [
            (
                "\turelement\tu\tindex\t(\t{\t0rep\t,\t0rep\t}\t,\t{\tu\t,\tu\t}\t)\t",
                _decl("u", True, ["u"]),
            ),
            ("urelement u index( {0rep} , {u} )", _decl("u", True, ["u"])),
            ("urelement u index({0rep, 0rep}, {})", _decl("u", True)),
            ("urelement u index ({}, {})", _decl("u", False)),
            ("urelement u index({},{})", _decl("u", False)),
            ("urelement index", _decl("index")),
            ("urelement index index ({0rep}, {})", _decl("index", True)),
            ("urelement = {}", (("urelement", ()),)),
            (
                "urelement u index ({}, {0rep})",
                "line 1, column 25: "
                "only entity names may appear in the second index slot",
            ),
            (
                "urelement u index ({u}, {})",
                "line 1, column 21: "
                "only 0rep may appear in the first index slot, found 'u'",
            ),
            (
                "urelement u index ({0repx}, {})",
                "line 1, column 21: unexpected character '0'",
            ),
            (
                "urelement u index ({0rep0rep}, {})",
                "line 1, column 21: unexpected character '0'",
            ),
            ("urelement", "line 1, column 10: expected a urelement name"),
            ("urelement u index ({0rep}, {}", "line 1, column 30: expected ')'"),
            (
                "urelement uindex ({}, {})",
                "line 1, column 18: expected 'index', found '('",
            ),
            (
                "urelement u indexx ({}, {})",
                "line 1, column 13: expected 'index', found 'indexx'",
            ),
        ],
    )
    def test_edge_case(self, line, expected):
        assert _pinned(line) == expected

    @pytest.mark.parametrize(
        "line,col",
        [
            ("urelement\tu\tindex\t(\t{\t0rep\t}\t,\t{\tu\t}\t)\t", 1),
            ("\t urelement u index ({}, {})", 3),
            ("urelement index", 1),
            ("urelement", 1),
        ],
    )
    def test_model_only_in_a_plain_document(self, line, col):
        assert _pinned(line, allow_urelements=False) == (
            f"line 1, column {col}: "
            "urelement declarations are only allowed in model documents"
        )
