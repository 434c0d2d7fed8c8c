"""Element classification: lowers, uppers, and witness searches.

A "lower" has only non-self-membered members; an "upper" contains every
non-self-membered element of its universe.  Nothing can be both, which is
the finite-universe face of the Russell paradox; the witness searches below
exist to confirm that emptiness mechanically.  The Russell set is by
definition lower and upper at once, so it is read as ``lower_mask &
upper_mask``.  Both classes and the comprehension witnesses are read off
tables each universe computes once and caches (``Universe.facts``, and
``Universe.carriers`` for the witnesses).  ``classify_all`` returns one
shared tuple per distinct names and masks.  ``_classifications``, which
builds it, tests ``lowers & uppers`` once and raises LemmaViolationError
naming the first element classified as both, on every call (the cache keeps
no failure); a Classification made directly is not checked.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import LemmaViolationError
from .universe import ElementId, Universe

# Entries of the classify_all table.  Lowers are not self-membered and uppers
# are, so each element has at most 4 of the 8 (lower, upper, self) rows: at
# most 4^n keys per names tuple.  n=4 sweeps meet 226 of the 256, so n=5
# sweeps meet at most 1,024.
_CLASSIFY_TABLE = 2048


@dataclass(frozen=True)
class Classification:
    element: ElementId
    lower: bool
    upper: bool
    self_membered: bool


def is_lower(u: Universe, x: ElementId) -> bool:
    """True iff every member of x is non-self-membered."""
    return bool(u.facts.lower_mask >> u.index(x) & 1)


def is_upper(u: Universe, x: ElementId) -> bool:
    """True iff x contains every non-self-membered element of u."""
    return bool(u.facts.upper_mask >> u.index(x) & 1)


def is_strictly_russellian(u: Universe, x: ElementId) -> bool:
    """True iff x is both a lower and an upper, i.e. its members are exactly
    the non-self-membered elements.  Expected false everywhere."""
    f = u.facts
    return bool((f.lower_mask & f.upper_mask) >> u.index(x) & 1)


def classify(u: Universe, x: ElementId) -> Classification:
    """x's row of classify_all."""
    return classify_all(u)[u.index(x)]


def classify_all(u: Universe) -> tuple[Classification, ...]:
    """The classification of every element, in canonical order.  Universes
    with equal names and masks share one tuple."""
    f = u.facts
    return _classifications(u.names, f.lower_mask, f.upper_mask, f.self_mask)


@functools.lru_cache(maxsize=_CLASSIFY_TABLE)
def _classifications(
    names: tuple[ElementId, ...], lowers: int, uppers: int, selfs: int
) -> tuple[Classification, ...]:
    # Unsatisfiable by evaluation; tripping this means a classifier bug.
    if both := lowers & uppers:
        x = names[(both & -both).bit_length() - 1]
        raise LemmaViolationError(f"{x!r} classified as both a lower and an upper")
    return tuple(
        [
            Classification(
                x, bool(lowers >> i & 1), bool(uppers >> i & 1), bool(selfs >> i & 1)
            )
            for i, x in enumerate(names)
        ]
    )


def comprehension_witness(u: Universe, target: int) -> ElementId | None:
    """Least element (canonical order) whose members are exactly the
    elements in target, a member mask (bit i for the i-th element), if any."""
    ids = u.carriers.get(target)
    return ids[0] if ids else None


def russell_witness(u: Universe) -> ElementId | None:
    """Least element whose members are exactly the non-self-membered
    elements.  Its existence would be a contradiction, so this is expected
    to return None on every universe."""
    f = u.facts
    russell = f.lower_mask & f.upper_mask
    return u.names[(russell & -russell).bit_length() - 1] if russell else None
