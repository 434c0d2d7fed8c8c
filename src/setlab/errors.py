"""Exception and warning types shared across the package."""

from __future__ import annotations


class SetlabError(Exception):
    """Base class for all setlab errors."""


class UnknownElementError(SetlabError):
    """An element id was not found in the universe or model it was used with."""


class DuplicateDefinitionError(SetlabError):
    """The same name was defined twice in one document or model."""


class UndefinedNameError(SetlabError):
    """A referenced name is not defined anywhere in the document."""


class DslSyntaxError(SetlabError):
    """Malformed universe/model source text.

    Carries the 1-based line and column of the offending token.
    """

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class CapExceededError(SetlabError):
    """A size parameter exceeded the configured hard cap."""


class PoolExhaustedError(SetlabError):
    """Not enough untagged urelements left in the pool."""


class CollisionError(SetlabError):
    """A tagging update could not be completed without breaking bijectivity."""


class IllFoundedBaseError(SetlabError, ValueError):
    """A model's base universe has a membership cycle (or a self-loop)."""


class PreconditionError(SetlabError):
    """A model does not have the configuration an operation requires."""


class LemmaViolationError(SetlabError):
    """An evaluation contradicted a statement that is a theorem of the
    definitions; this always indicates an implementation bug, never bad input.
    """


class UntaggedUrelementWarning(UserWarning):
    """Membership was queried against a urelement that carries no tag."""
