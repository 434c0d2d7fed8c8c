"""The mutation script's targets still name functions that have mutants,
and a failing unmutated run says which test failed.

``tools/mutate.py`` runs for minutes and no other test imports it; a target
renamed or removed in the package would only show there, as a failed
lookup.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutate)


def test_every_target_resolves_and_has_a_mutant():
    for module, qualname in mutate.TARGETS:
        source = (mutate.ROOT / mutate.PACKAGE / module).read_text(encoding="utf-8")
        mutate.find_function(ast.parse(source), qualname)
        assert next(mutate.mutants(source, qualname), None) is not None, qualname


def test_every_target_module_has_its_own_test_file():
    # Each mutant runs that file first; a missing file would fail the run
    # and count every mutant of the module as killed.
    for module, _ in mutate.TARGETS:
        assert (ROOT / mutate.module_tests(module)).is_file(), module


def test_a_failing_unmutated_run_names_its_test(tmp_path, capsys):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_planted.py").write_text(
        "def test_passes():\n    pass\n\n\ndef test_fails():\n    assert False\n",
        encoding="utf-8",
    )
    assert not mutate.run_tests(tmp_path, timeout=120)
    assert capsys.readouterr().err == ""
    assert not mutate.run_tests(tmp_path, timeout=120, report=True)
    assert "FAILED tests/test_planted.py::test_fails" in capsys.readouterr().err


def test_an_unknown_target_name_is_an_error(capsys):
    assert mutate.main(["--list", "bogus", "canonical_form"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: no target named 'bogus'\n"


def test_a_mutant_that_fails_on_its_operand_types_is_stillborn(tmp_path):
    package = tmp_path / mutate.PACKAGE
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "planted.py").write_text(
        "def join(a, b):\n    return a - b\n\n\ndef size(a):\n    return len(a) + 1\n",
        encoding="utf-8",
    )
    (tmp_path / "tests").mkdir()
    test_file = tmp_path / "tests" / "test_planted.py"
    test_file.write_text(
        "from setlab.planted import join\n\n\n"
        "def test_join():\n    assert join((1,), (2,)) == (1, 2)\n",
        encoding="utf-8",
    )
    code, output = mutate.pytest_run(tmp_path, 120, "tests")
    assert code and mutate.stillborn(output, "planted.py")
    assert not mutate.stillborn(output, "other.py")
    # A wrong value, or the same TypeError raised in the test file, is a
    # verdict of the tests.
    for body in ("assert size((1,)) == 3", "assert (1,) - (2,)"):
        test_file.write_text(
            f"from setlab.planted import size\n\n\ndef test_size():\n    {body}\n",
            encoding="utf-8",
        )
        code, output = mutate.pytest_run(tmp_path, 120, "tests")
        assert code and not mutate.stillborn(output, "planted.py")
