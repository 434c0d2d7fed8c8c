"""Element classification: lowers, uppers, and witness searches.

A "lower" has only non-self-membered members; an "upper" contains every
non-self-membered element of its universe.  Nothing can be both, which is
the finite-universe face of the Russell paradox; the witness searches below
exist to confirm that emptiness mechanically.  Both classes, and the Russell
set, are read off masks each universe computes once and caches
(``Universe.facts``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LemmaViolationError
from .universe import ElementId, Universe


@dataclass(frozen=True)
class Classification:
    element: ElementId
    lower: bool
    upper: bool
    self_membered: bool

    def __post_init__(self):
        # Unsatisfiable by evaluation; tripping this means a classifier bug.
        if self.lower and self.upper:
            raise LemmaViolationError(
                f"{self.element!r} classified as both a lower and an upper"
            )


def is_lower(u: Universe, x: ElementId) -> bool:
    """True iff every member of x is non-self-membered."""
    return bool(u.facts.lower_mask >> u.index(x) & 1)


def is_upper(u: Universe, x: ElementId) -> bool:
    """True iff x contains every non-self-membered element of u."""
    return bool(u.facts.upper_mask >> u.index(x) & 1)


def is_strictly_russellian(u: Universe, x: ElementId) -> bool:
    """True iff x is both a lower and an upper, i.e. its members are exactly
    the non-self-membered elements.  Expected false everywhere."""
    return bool(u.facts.russell_mask >> u.index(x) & 1)


def classify(u: Universe, x: ElementId) -> Classification:
    return Classification(
        element=x,
        lower=is_lower(u, x),
        upper=is_upper(u, x),
        self_membered=u.self_membered(x),
    )


def classify_all(u: Universe) -> tuple[Classification, ...]:
    facts = u.facts
    return tuple(
        [
            Classification(
                x,
                bool(facts.lower_mask >> i & 1),
                bool(facts.upper_mask >> i & 1),
                bool(facts.self_mask >> i & 1),
            )
            for i, x in enumerate(u.names)
        ]
    )


def comprehension_witness(u: Universe, target: int) -> ElementId | None:
    """Least element (canonical order) whose members are exactly the
    elements in target, a member mask (bit i for the i-th element), if any."""
    for x, row in zip(u.names, u.masks):
        if row == target:
            return x
    return None


def russell_witness(u: Universe) -> ElementId | None:
    """Least element whose members are exactly the non-self-membered
    elements.  Its existence would be a contradiction, so this is expected
    to return None on every universe."""
    russell = u.facts.russell_mask
    return u.names[(russell & -russell).bit_length() - 1] if russell else None
