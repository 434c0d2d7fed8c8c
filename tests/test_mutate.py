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
