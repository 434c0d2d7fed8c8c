import pytest

from setlab import (
    DslSyntaxError,
    DuplicateDefinitionError,
    UndefinedNameError,
    Universe,
    canonical_form,
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
