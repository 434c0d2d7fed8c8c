"""Element classification: lowers, uppers, links, and witness searches.

A "lower" has only non-self-membered members; an "upper" contains every
non-self-membered element of its universe.  Nothing can be both, which is
the finite-universe face of the Russell paradox; the witness searches below
exist to confirm that emptiness mechanically.  Both classes, and the Russell
set, are read off masks each universe computes once and caches
(``Universe.facts``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import LemmaViolationError
from .universe import ElementId, Universe

ASCENDING = "ascending"
DESCENDING = "descending"

Predicate = Callable[[ElementId], bool]


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


@dataclass(frozen=True)
class Link:
    """A directed membership link between two distinct elements.

    ``phi`` names the property both endpoints were required to satisfy, when
    the link came from a predicate-restricted query.
    """

    direction: str
    phi: str | None = None


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


def link(u: Universe, x: ElementId, y: ElementId) -> tuple[Link, ...]:
    """Links between two distinct elements: ascending if x is in y,
    descending if y is in x; a 2-cycle yields both, identity yields none."""
    if x == y:
        u.index(x)
        return ()
    found = []
    if u.is_member(x, y):
        found.append(Link(ASCENDING))
    if u.is_member(y, x):
        found.append(Link(DESCENDING))
    return tuple(found)


def phi_link(
    u: Universe,
    x: ElementId,
    y: ElementId,
    phi: Predicate,
    name: str | None = None,
) -> tuple[Link, ...]:
    """As link, additionally requiring both endpoints to satisfy phi."""
    plain = link(u, x, y)
    if not plain or not (phi(x) and phi(y)):
        return ()
    return tuple(Link(entry.direction, phi=name) for entry in plain)


def comprehension_witness(u: Universe, phi: Predicate) -> ElementId | None:
    """Least element (canonical order) whose members are exactly the
    elements satisfying phi, if any."""
    target = 0
    for i, x in enumerate(u.names):
        if phi(x):
            target |= 1 << i
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


def _nonself_predicate(u: Universe) -> Predicate:
    return lambda x: not u.self_membered(x)


def _lower_predicate(u: Universe) -> Predicate:
    return lambda x: is_lower(u, x)


def _upper_predicate(u: Universe) -> Predicate:
    return lambda x: is_upper(u, x)


# Named predicate vocabulary usable from the CLI and filter registry.
PREDICATES: dict[str, Callable[[Universe], Predicate]] = {
    "nonself": _nonself_predicate,
    "lower": _lower_predicate,
    "upper": _upper_predicate,
    "all": lambda u: (lambda x: True),
    "none": lambda u: (lambda x: False),
}


def predicate(u: Universe, name: str) -> Predicate:
    """Resolve a named predicate against a universe."""
    try:
        factory = PREDICATES[name]
    except KeyError:
        known = ", ".join(sorted(PREDICATES))
        raise ValueError(f"unknown predicate {name!r} (known: {known})") from None
    return factory(u)
