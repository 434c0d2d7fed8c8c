"""The package's layering: which setlab modules each module may import.

Lower layers never reach up: the enumerator needs neither the classifier
nor the audit (its filters read ``Universe.facts``), interp builds worlds
without the enumerator, and the tag type lives in ``dsl``, which interp
imports and which imports nothing of interp.  The chain directions live in
``audit`` with ``trace_chain``, which needs no classifier; interp's upper
chain is a plain tuple of nodes, so interp needs neither.
"""

import ast
from pathlib import Path

import setlab
import setlab.dsl

PACKAGE = Path(setlab.__file__).parent

ANYTHING = None
_CORE = {"errors", "universe"}
ALLOWED = {
    "errors": set(),
    "universe": {"errors"},
    "dsl": _CORE,
    "classifier": _CORE,
    "audit": _CORE,
    "enumerator": {"dsl", "errors", "universe"},
    "interp": {"dsl", "errors", "universe"},
    "cli": ANYTHING,
    "__init__": ANYTHING,
}


def package_imports(path):
    """The names of the sibling modules that the file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found


def test_every_module_has_a_layer():
    assert {path.stem for path in PACKAGE.glob("*.py")} == set(ALLOWED)


def test_modules_import_only_lower_layers():
    for path in sorted(PACKAGE.glob("*.py")):
        allowed = ALLOWED[path.stem]
        if allowed is not ANYTHING:
            assert package_imports(path) <= allowed, path.name


def test_the_tag_type_has_one_home():
    assert setlab.Index is setlab.dsl.Index
    assert not hasattr(setlab, "IndexSpec")
