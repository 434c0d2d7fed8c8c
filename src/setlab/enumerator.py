"""Exhaustive enumeration of small universes, filters, and canonical forms.

An n-element universe is an n-by-n membership matrix, so there are exactly
2^(n*n) of them.  Enumeration order is fixed: a single integer counter whose
bit i*n+j (little-endian) says whether element j is a member of element i.
That makes runs reproducible and the counter range partitionable.  Every
filter is a test on the universe's cached facts (``Universe.facts``).
With dedupe, a code is kept iff no relabelling of the elements gives a
smaller one, so each isomorphism class is represented by its least code.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable

from .dsl import print_universe
from .errors import CapExceededError
from .universe import Universe

DEFAULT_MAX_N = 5
# How many matching universes an enumeration prints as samples.
WITNESS_CAP = 3

FILTERS: dict[str, Callable[[Universe], bool]] = {
    "satisfies-successor": lambda u: None not in u.facts.successor,
    "satisfies-predecessor": lambda u: None not in u.facts.predecessor,
    "satisfies-both": lambda u: (
        None not in u.facts.successor and None not in u.facts.predecessor
    ),
    "has-upper": lambda u: u.facts.upper_mask != 0,
    "has-lower": lambda u: u.facts.lower_mask != 0,
    "has-strictly-russellian": lambda u: u.facts.russell_mask != 0,
}


@dataclass(frozen=True)
class EnumSpec:
    """What to enumerate: size, optional named filter, optional dedupe up to
    element permutation."""

    n: int
    filter: str | None = None
    dedupe: bool = False
    max_n: int = DEFAULT_MAX_N

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be non-negative")
        if self.filter is not None and self.filter not in FILTERS:
            known = ", ".join(sorted(FILTERS))
            raise ValueError(
                f"unknown filter {self.filter!r} (known: {known})"
            )


@dataclass(frozen=True)
class EnumStats:
    total: int
    matching: int
    sample_witnesses: tuple[str, ...]


@functools.cache
def _relabellings(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """One table per permutation p of range(n), where p sends old element
    p[i] to new element i: the old row behind each new row, from the most
    significant new row (n-1) down, and the relabelled value of every
    possible row mask.  n! * 2^n entries in all; the size caps keep n small."""
    tables = []
    for perm in itertools.permutations(range(n)):
        column = tuple(
            sum(1 << j_new for j_new, j_old in enumerate(perm) if mask >> j_old & 1)
            for mask in range(1 << n)
        )
        tables.append((perm[::-1], column))
    return tuple(tables)


def _relabelled_code(masks, order, column, n: int) -> int:
    """The matrix integer of masks relabelled by one table."""
    code = 0
    for i_old in order:
        code = code << n | column[masks[i_old]]
    return code


def _is_canonical(masks, tables) -> bool:
    """True iff no relabelling gives a smaller matrix integer.  Rows are
    compared from the most significant down: a permutation is dropped at the
    first row where its code is larger, the code rejected at the first row
    where it is smaller."""
    top_down = masks[::-1]
    for order, column in tables:
        for row, i_old in zip(top_down, order):
            new_row = column[masks[i_old]]
            if new_row != row:
                if new_row < row:
                    return False
                break
    return True


def enumerate_universes(
    spec: EnumSpec, visit: Callable[[Universe], None] | None = None
) -> EnumStats:
    """Visit every n-element universe exactly once (one representative per
    isomorphism class when dedupe is on), apply the filter, and collect
    stats.  visit, when given, is called on each universe that passes the
    filter."""
    n = spec.n
    if n > spec.max_n:
        raise CapExceededError(
            f"enumeration size {n} exceeds the cap of {spec.max_n}"
        )
    matches = FILTERS[spec.filter] if spec.filter else None
    names = tuple(f"e{i}" for i in range(n))
    tables = _relabellings(n) if spec.dedupe else None

    total = 0
    matching = 0
    witnesses: list[str] = []
    # The product varies its last entry fastest, so its reversed tuples are
    # the row masks of the counter's codes in counter order.
    for rows in itertools.product(range(1 << n), repeat=n):
        masks = rows[::-1]
        if tables is not None and not _is_canonical(masks, tables):
            continue
        total += 1
        u = Universe(names, masks)
        if matches is None or matches(u):
            matching += 1
            if len(witnesses) < WITNESS_CAP:
                witnesses.append(print_universe(u))
            if visit is not None:
                visit(u)
    return EnumStats(total=total, matching=matching, sample_witnesses=tuple(witnesses))


def canonical_form(u: Universe, max_n: int = DEFAULT_MAX_N) -> bytes:
    """Canonical byte encoding, equal for two universes iff they are
    isomorphic as unlabeled membership digraphs.  Factorial search; refused
    above max_n elements."""
    n = len(u)
    if n > max_n:
        raise CapExceededError(
            f"canonical form of a {n}-element universe exceeds the cap of {max_n}"
        )
    best = min(
        _relabelled_code(u.masks, order, column, n)
        for order, column in _relabellings(n)
    )
    return bytes([n]) + best.to_bytes(max(1, (n * n + 7) // 8), "little")

