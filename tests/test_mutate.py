"""The mutation script's targets still name functions that have mutants.

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
