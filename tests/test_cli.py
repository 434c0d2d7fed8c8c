import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import setlab
from setlab import audit, cli
from setlab.cli import _json, main
from setlab.errors import LemmaViolationError

QUINE = "e = {}\nq = {q}\n"

MODEL_WITH_PAIR = """\
h0 = {}
urelement u index ( {0rep} , {} )
urelement n index ( {0rep} , {m} )
urelement m index ( {0rep} , {m, n} )
"""

MODEL_WITHOUT_PAIR = """\
h0 = {}
urelement u index ( {0rep} , {} )
urelement spare
"""


@pytest.fixture
def quine_file(tmp_path):
    path = tmp_path / "quine.uni"
    path.write_text(QUINE)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_text_report(self, capsys, quine_file):
        code, out, _ = run(capsys, "check", quine_file)
        assert code == 0
        assert "axiom successor: not satisfied" in out
        assert "q: unique(q)" in out
        assert "e: absent" in out
        assert "axiom predecessor" in out

    def test_require_satisfied(self, capsys, tmp_path):
        path = tmp_path / "atom.uni"
        path.write_text("q = {q}\n")
        code, out, _ = run(capsys, "check", str(path), "--require", "successor")
        assert code == 0
        assert "require successor: ok" in out

    def test_require_failure_sets_exit_one(self, capsys, quine_file):
        code, out, _ = run(capsys, "check", quine_file, "--require", "both")
        assert code == 1
        assert "require both: FAIL" in out

    def test_json(self, capsys, quine_file):
        code, out, _ = run(capsys, "check", quine_file, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "check"
        successor = doc["axioms"][0]
        assert successor["axiom"] == "successor"
        assert successor["satisfied"] is False
        assert successor["per_element"][1] == {
            "element": "q",
            "result": {"kind": "unique", "id": "q"},
        }


class TestClassify:
    def test_text_report(self, capsys, quine_file):
        code, out, _ = run(capsys, "classify", quine_file)
        assert code == 0
        assert "element e: lower=yes upper=no self-membered=no" in out
        assert "element q: lower=no upper=no self-membered=yes" in out
        assert "russell witness: none" in out

    def test_json(self, capsys, quine_file):
        code, out, _ = run(capsys, "classify", quine_file, "--format", "json")
        doc = json.loads(out)
        assert doc["russell_witness"] is None
        assert doc["elements"][0]["lower"] is True


class TestVerify:
    def test_ok_run(self, capsys, quine_file):
        code, out, _ = run(capsys, "verify", quine_file)
        assert code == 0
        assert "result: ok" in out
        assert "note:" in out

    def test_json_lists_every_lemma(self, capsys, quine_file):
        code, out, _ = run(capsys, "verify", quine_file, "--format", "json")
        doc = json.loads(out)
        assert len(doc["lemmas"]) == 13
        assert doc["ok"] is True

    @pytest.fixture
    def violated(self, monkeypatch):
        real = audit.verify_lemma_suite

        def with_a_violated(u):
            report = real(u)
            per_lemma = tuple(
                (tag, audit.Verdict(audit.VIOLATED, ("q", "e")) if tag == "A" else v)
                for tag, v in report.per_lemma
            )
            return audit.LemmaReport(per_lemma)

        monkeypatch.setattr(audit, "verify_lemma_suite", with_a_violated)

    def test_violation_text_names_the_witness(self, capsys, quine_file, violated):
        code, out, _ = run(capsys, "verify", quine_file)
        assert code == 1
        assert "A: violated (witness: q, e)" in out
        assert "result: VIOLATED" in out

    def test_violation_json(self, capsys, quine_file, violated):
        code, out, _ = run(capsys, "verify", quine_file, "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["command"] == "verify"
        assert doc["ok"] is False
        (a,) = [lemma for lemma in doc["lemmas"] if lemma["tag"] == "A"]
        assert a["witness"] == ["q", "e"]


class TestChains:
    def test_ascending_cycle(self, capsys, quine_file):
        code, out, _ = run(
            capsys, "chains", quine_file, "--from", "q", "--dir", "asc", "--cap", "5"
        )
        assert code == 0
        assert "terminated: cycle (repeated q)" in out

    def test_unknown_start_is_a_usage_error(self, capsys, quine_file):
        code, _, err = run(
            capsys, "chains", quine_file, "--from", "zz", "--dir", "asc"
        )
        assert code == 2
        assert "error:" in err

    def test_json(self, capsys, quine_file):
        code, out, _ = run(
            capsys,
            "chains",
            quine_file,
            "--from",
            "q",
            "--dir",
            "asc",
            "--format",
            "json",
        )
        doc = json.loads(out)
        assert doc["nodes"] == ["q"]
        assert doc["terminated_by"] == "cycle"
        assert doc["repeated"] == "q"


class TestEnumerate:
    def test_counts(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--size", "1", "--filter", "satisfies-both"
        )
        assert code == 0
        assert "total: 2" in out
        assert "matching: 0" in out

    def test_witnesses_are_printed(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--size", "1")
        assert "witness 1:" in out
        assert "e0 = {}" in out

    def test_unknown_filter_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "enumerate", "--size", "1", "--filter", "bogus")
        assert code == 2
        assert "unknown filter" in err

    @pytest.mark.parametrize("dedupe", [[], ["--dedupe"]], ids=["plain", "dedupe"])
    def test_size_above_the_cap_is_a_usage_error(self, capsys, dedupe):
        code, out, err = run(capsys, "enumerate", "--size", "6", *dedupe)
        assert code == 2
        assert out == ""
        assert err == "error: enumeration size 6 exceeds the cap of 5\n"

    def test_dedupe(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--size", "2", "--dedupe")
        assert code == 0
        assert "total: 10" in out


class TestInterp:
    def test_forster_demo(self, capsys):
        code, out, _ = run(capsys, "interp", "--demo", "forster")
        assert code == 0
        assert out.count(": pass") == 6
        assert "result: ok" in out

    def test_quine_demo(self, capsys):
        code, out, _ = run(capsys, "interp", "--demo", "quine")
        assert code == 0
        assert "check self-membered(q): pass" in out
        assert "check predecessor(q) = unique(e): pass" in out

    def test_upperchain_demo(self, capsys):
        code, out, _ = run(capsys, "interp", "--demo", "upperchain", "--k", "3")
        assert code == 0
        assert "ur1 -> ur2 -> ur3" in out
        assert "result: ok" in out

    def test_forster_on_model_file(self, capsys, tmp_path):
        path = tmp_path / "pair.model"
        path.write_text(MODEL_WITH_PAIR)
        code, out, _ = run(
            capsys, "interp", "--demo", "forster", "--model", str(path)
        )
        assert code == 0
        assert "universal=u n=n m=m" in out

    def test_forster_flags_missing_pair(self, capsys, tmp_path):
        path = tmp_path / "plain.model"
        path.write_text(MODEL_WITHOUT_PAIR)
        code, out, _ = run(
            capsys, "interp", "--demo", "forster", "--model", str(path)
        )
        assert code == 1
        assert "precondition: NOT met" in out

    def test_upperchain_on_model_file(self, capsys, tmp_path):
        path = tmp_path / "plain.model"
        path.write_text(MODEL_WITHOUT_PAIR)
        code, out, _ = run(
            capsys, "interp", "--demo", "upperchain", "--k", "1", "--model", str(path)
        )
        assert code == 0
        assert "result: ok" in out

    def test_upperchain_collision_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "taken.model"
        path.write_text(MODEL_WITHOUT_PAIR + "urelement t index ( {0rep} , {u} )\n")
        code, out, err = run(
            capsys, "interp", "--demo", "upperchain", "--k", "1", "--model", str(path)
        )
        assert (code, out) == (2, "")
        assert err == "error: tagging must be bijective at 'spare' and 't'\n"

    def test_quine_demo_rejects_model(self, capsys, tmp_path):
        path = tmp_path / "plain.model"
        path.write_text(MODEL_WITHOUT_PAIR)
        code, _, err = run(
            capsys, "interp", "--demo", "quine", "--model", str(path)
        )
        assert code == 2
        assert "does not apply" in err

    @pytest.mark.parametrize("demo", ["forster", "upperchain"])
    def test_readme_example_model_runs_both_demos(self, capsys, tmp_path, demo):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        intro = readme.index("Model files use the universe grammar")
        start = readme.index("```\n", intro) + len("```\n")
        path = tmp_path / "readme.model"
        path.write_text(readme[start : readme.index("```", start)])
        code, out, err = run(capsys, "interp", "--demo", demo, "--model", str(path))
        assert (code, err) == (0, "")
        assert "result: ok" in out

    @pytest.mark.parametrize("demo", ["forster", "quine"])
    def test_k_applies_only_to_upperchain(self, capsys, demo):
        code, out, err = run(capsys, "interp", "--demo", demo, "--k", "0")
        assert (code, err) == (0, "")
        assert out == run(capsys, "interp", "--demo", demo)[1]


class TestErrors:
    def test_parse_error_exits_two(self, capsys, tmp_path):
        path = tmp_path / "broken.uni"
        path.write_text("a = {\n")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "error:" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "verify", "no-such-file.uni")
        assert code == 2
        assert "error:" in err

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["chains"])
        assert err.value.code == 2

    def test_non_positive_cap_exits_two(self, capsys, tmp_path):
        path = tmp_path / "quine.uni"
        path.write_text(QUINE)
        code, _, err = run(
            capsys, "chains", str(path), "--from", "q", "--dir", "asc", "--cap", "0"
        )
        assert code == 2
        assert "--cap" in err

    def test_lemma_violation_exits_one(self, capsys, monkeypatch, quine_file):
        def broken(*args):
            raise LemmaViolationError("chain step 'q' -> 'q' broke a theorem")

        monkeypatch.setattr(audit, "trace_chain", broken)
        code, _, err = run(capsys, "chains", quine_file, "--from", "q", "--dir", "asc")
        assert code == 1
        assert err.startswith("error: chain step")

    def test_ill_founded_model_base_exits_two(self, capsys, tmp_path):
        path = tmp_path / "cycle.model"
        path.write_text("a = {b}\nb = {a}\nurelement u index ( {0rep} , {} )\n")
        code, out, err = run(
            capsys, "interp", "--demo", "forster", "--model", str(path)
        )
        assert (code, out) == (2, "")
        assert err == "error: base universe is not well-founded (cycle among a, b)\n"

    def test_model_base_listing_a_urelement_exits_two(self, capsys, tmp_path):
        path = tmp_path / "listed.model"
        path.write_text("a = {u}\nurelement u index ( {0rep} , {} )\n")
        code, out, err = run(
            capsys, "interp", "--demo", "forster", "--model", str(path)
        )
        assert (code, out) == (2, "")
        assert err == "error: line 1: 'a' lists urelement 'u'\n"

    @pytest.mark.parametrize(
        "argv",
        [("verify", "{path}"), ("interp", "--demo", "upperchain", "--model", "{path}")],
    )
    def test_non_utf8_input_exits_two(self, capsys, tmp_path, argv):
        path = tmp_path / "latin1.uni"
        path.write_bytes("\u00e9 = {}\n".encode("latin-1"))
        code, out, err = run(capsys, *[part.format(path=path) for part in argv])
        assert (code, out) == (2, "")
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xe9")

    @pytest.mark.parametrize(
        "argv",
        [("verify", "{path}"), ("interp", "--demo", "upperchain", "--model", "{path}")],
    )
    def test_non_utf8_input_names_the_file(self, capsys, tmp_path, argv):
        path = tmp_path / "latin1.uni"
        path.write_bytes("\u00e9 = {}\n".encode("latin-1"))
        _, _, err = run(capsys, *[part.format(path=path) for part in argv])
        assert err == (
            "error: 'utf-8' codec can't decode byte 0xe9 in position 0: "
            f"invalid continuation byte (in {path})\n"
        )

    @pytest.mark.parametrize(
        "argv, text",
        [
            (("check", "{path}"), QUINE),
            (("interp", "--demo", "forster", "--model", "{path}"), MODEL_WITH_PAIR),
        ],
        ids=["check", "forster"],
    )
    def test_byte_order_mark_is_accepted(self, capsys, tmp_path, argv, text):
        # The report names the file, so both runs read the same path.
        path = tmp_path / "input.uni"
        results = []
        for prefix in (b"", b"\xef\xbb\xbf"):
            path.write_bytes(prefix + text.encode("utf-8"))
            code, out, _ = run(capsys, *[part.format(path=path) for part in argv])
            results.append((code, out))
        assert results[0] == results[1]
        assert results[0][0] == 0 and results[0][1]

    def test_byte_order_mark_keeps_decode_error_offsets(self, capsys, tmp_path):
        path = tmp_path / "latin1.uni"
        path.write_bytes(b"\xef\xbb\xbf" + "\u00e9 = {}\n".encode("latin-1"))
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err == (
            "error: 'utf-8' codec can't decode byte 0xe9 in position 3: "
            f"invalid continuation byte (in {path})\n"
        )

    @staticmethod
    def read_one_line_then_close(*argv):
        """Run the CLI in a child process, read one line of its stdout, close
        the pipe, and return that line, the exit code and all of stderr."""
        src = os.path.dirname(os.path.dirname(setlab.__file__))
        script = "import sys; from setlab.cli import main; sys.exit(main())"
        proc = subprocess.Popen(
            [sys.executable, "-c", script, *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        return first, proc.wait(timeout=60), err

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("check",), 2),
            (("classify",), 2),
            (("verify",), 2),
            (("check", "--format", "json"), 0),
        ],
        ids=["check", "classify", "verify", "check-json"],
    )
    def test_report_stdout_cannot_encode(self, tmp_path, argv, code):
        # The text reports echo the file name; the JSON report escapes it.
        path = tmp_path / "caf\u00e9.uni"
        path.write_text(QUINE)
        src = os.path.dirname(os.path.dirname(setlab.__file__))
        script = "import sys; from setlab.cli import main; sys.exit(main())"
        proc = subprocess.run(
            [sys.executable, "-c", script, argv[0], str(path), *argv[1:]],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="ascii"),
            timeout=60,
        )
        assert proc.returncode == code
        if code == 2:
            assert proc.stdout == b""
            assert proc.stderr.startswith(b"error: 'ascii' codec can't encode")
            assert proc.stderr.count(b"\n") == 1
        else:
            assert proc.stdout.startswith(b"{") and proc.stderr == b""

    def test_reader_closing_early_exits_141_silently(self, tmp_path):
        # Far more than a pipe buffer holds, so the writer is still
        # writing when the reader goes away.
        path = tmp_path / "big.uni"
        path.write_text("".join(f"e{i} = {{}}\n" for i in range(5000)))
        first, code, err = self.read_one_line_then_close("classify", str(path))
        assert first == f"universe: {path} (5000 elements)\n".encode()
        assert (code, err) == (141, b"")

    def test_reader_closing_early_on_json_exits_141_silently(self, tmp_path):
        # The JSON report is written as one string of about 1.5 MB.  A chain,
        # not 5,000 empty sets: each of those has a 5,000-name predecessor
        # lookup, which would make the report quadratic in size.
        path = tmp_path / "chain.uni"
        lines = ["e0 = {}\n"] + [f"e{i} = {{e{i - 1}}}\n" for i in range(1, 5000)]
        path.write_text("".join(lines))
        first, code, err = self.read_one_line_then_close(
            "check", str(path), "--format", "json"
        )
        assert first == b"{\n"
        assert (code, err) == (141, b"")

    def test_interrupt_exits_130_without_a_traceback(self):
        # A full n=5 dedupe runs for minutes, so it is still enumerating
        # when the interrupt arrives a second after start.
        src = os.path.dirname(os.path.dirname(setlab.__file__))
        script = "import sys; from setlab.cli import main; sys.exit(main())"
        proc = subprocess.Popen(
            [sys.executable, "-c", script, "enumerate", "--size", "5", "--dedupe"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
        )
        try:
            time.sleep(1)
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert (proc.returncode, out, err) == (130, b"", b"error: interrupted\n")

    def test_non_positive_k_exits_two(self, capsys):
        code, _, err = run(capsys, "interp", "--demo", "upperchain", "--k", "0")
        assert code == 2
        assert "--k" in err


class TestDeterminism:
    COMMANDS = [
        ("check", "{file}"),
        ("check", "{file}", "--format", "json"),
        ("classify", "{file}"),
        ("verify", "{file}", "--format", "json"),
        ("chains", "{file}", "--from", "q", "--dir", "asc"),
        ("enumerate", "--size", "2"),
        ("enumerate", "--size", "2", "--format", "json"),
        ("interp", "--demo", "forster"),
        ("interp", "--demo", "quine", "--format", "json"),
        ("interp", "--demo", "upperchain"),
    ]

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_byte_identical_reruns(self, capsys, quine_file, argv):
        argv = [part.format(file=quine_file) for part in argv]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


# Every value a report can hold, with the characters json escapes: quotes,
# backslashes, control characters and lone surrogates.
_TEXT = st.text(st.characters(exclude_categories=()))
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64)
    | st.integers(max_value=-(2**64))
    | _TEXT,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(_TEXT, children),
    max_leaves=25,
)


@pytest.fixture
def coextensive_file(tmp_path):
    """300 empty sets, which are coextensive, so each of their predecessor
    lookups is one shared 300-name `multiple`; the file name needs escapes."""
    path = tmp_path / 'caf\u00e9 "q" \\ .uni'
    lines = [f"e{i} = {{}}\n" for i in range(300)]
    lines += ["q = {q}\n", "s0 = {e0}\n", "s1 = {e0, s0}\n"]
    path.write_text("".join(lines))
    return path


class TestJsonLayout:
    @given(_JSON_VALUES)
    def test_matches_json_dumps_with_indent_two(self, value):
        assert _json(value) == json.dumps(value, indent=2)

    def test_booleans_in_lists_stay_booleans(self):
        value = [True, False, 1, 0, None, (), {}, [[]]]
        assert _json(value) == json.dumps(value, indent=2)

    def test_shared_objects_are_indented_where_each_occurs(self):
        # One tuple object several times at one depth and again deeper, in
        # lists and in dicts, and list objects that occur twice: a text
        # reused at another depth would carry the wrong indentation.
        ids = ("e0", "e1", "caf\u00e9")
        names = ["x", 'y "z"']
        pairs = [ids, names, {"ids": ids}]
        value = {
            "ids": ids,
            "rows": [{"ids": ids}, {"ids": ids}, ids, [ids], pairs],
            "names": names,
            "pairs": pairs,
            "deep": {"rows": [{"result": {"ids": ids, "names": names}}]},
        }
        assert _json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "value", [1.5, {1: 2}, {"s"}, [1.5], {"k": {"s"}}], ids=repr
    )
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            _json(value)

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "{file}"),
            ("check", "{file}", "--require", "both"),
            ("classify", "{file}"),
            ("verify", "{file}"),
            ("chains", "{file}", "--from", "s0", "--dir", "asc"),
            ("chains", "{file}", "--from", "q", "--dir", "desc"),
            ("enumerate", "--size", "2"),
            ("interp", "--demo", "forster"),
        ],
        ids=" ".join,
    )
    def test_reports_are_json_dumps_with_indent_two(
        self, capsys, coextensive_file, argv
    ):
        path = coextensive_file
        argv = [part.format(file=path) for part in argv]
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code in (0, 1)
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        if str(path) in argv:
            assert json.loads(out)["file"] == str(path)
            assert r'caf\u00e9 \"q\" \\ .uni"' in out

    def test_check_quotes_a_shared_group_once(
        self, capsys, monkeypatch, coextensive_file
    ):
        # The predecessor lookups of the 300 empty sets and of q all name
        # the one 300-name group.  Quoting it once per lookup would take
        # about 90,000 calls; a count, unlike a time, repeats on any machine.
        calls = []
        quote = cli._quote
        monkeypatch.setattr(cli, "_quote", lambda s: calls.append(s) or quote(s))
        code, out, _ = run(capsys, "check", str(coextensive_file), "--format", "json")
        assert code == 0
        assert out.count('"kind": "multiple"') == 301
        assert len(calls) < 10 * 300
