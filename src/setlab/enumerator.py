"""Exhaustive enumeration of small universes, filters, and canonical forms.

An n-element universe is an n-by-n membership matrix, so there are exactly
2^(n*n) of them.  Enumeration order is fixed: a single integer counter whose
bit i*n+j (little-endian) says whether element j is a member of element i.
That makes runs reproducible and the counter range partitionable.  Every
filter is a test on the universe's cached facts (``Universe.facts``).
With dedupe, each isomorphism class is represented by its least code: the
one no relabelling of the elements makes smaller.  Those codes are made by
orderly generation (Read, "Every one a winner", 1978), so not all 2^(n*n)
codes are visited: rows are filled from the most significant down, and a
prefix that some relabelling already makes smaller is never completed.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable

from .dsl import print_universe
from .errors import CapExceededError
from .universe import Universe

DEFAULT_MAX_N = 5
# How many matching universes an enumeration prints as samples.
WITNESS_CAP = 3
_REVERSED = operator.itemgetter(slice(None, None, -1))

FILTERS: dict[str, Callable[[Universe], bool]] = {
    "satisfies-successor": lambda u: None not in u.facts.successor,
    "satisfies-predecessor": lambda u: None not in u.facts.predecessor,
    "satisfies-both": lambda u: (
        None not in u.facts.successor and None not in u.facts.predecessor
    ),
    "has-upper": lambda u: u.facts.upper_mask != 0,
    "has-lower": lambda u: u.facts.lower_mask != 0,
    "has-strictly-russellian": lambda u: u.facts.lower_mask & u.facts.upper_mask != 0,
}


@dataclass(frozen=True)
class EnumSpec:
    """What to enumerate: size (at most DEFAULT_MAX_N), optional named
    filter, optional dedupe up to element permutation."""

    n: int
    filter: str | None = None
    dedupe: bool = False

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be non-negative")
        if self.n > DEFAULT_MAX_N:
            raise CapExceededError(
                f"enumeration size {self.n} exceeds the cap of {DEFAULT_MAX_N}"
            )
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


def _least_codes(n: int, masks: list[int], live, i: int):
    """Yield, in counter order, the row masks of every least code whose rows
    above i are masks[i+1:].  Row i takes each value in turn, from the least;
    rows below it are filled by recursion.  live holds (k, order, column) for
    each relabelling still tied with the code on its first k rows from the
    top.  After row i is set, each one is compared on further rows while the
    old row behind its next new row is filled: a larger row drops it, a
    smaller one rules the value out (no filling of the rows below can make
    the code least), and equality on every filled row keeps it."""
    for value in range(1 << n):
        masks[i] = value
        tied = []
        for k, order, column in live:
            # Rows i..n-1 are filled.  The k rows already matched read k of
            # them, so when order[k] is filled as well, k < n - i and the
            # code's own row n-1-k is filled too.
            while k < n and order[k] >= i:
                new_row = column[masks[order[k]]]
                row = masks[n - 1 - k]
                if new_row != row:
                    break
                k += 1
            else:
                tied.append((k, order, column))
                continue
            if new_row < row:
                break
        else:
            if i:
                yield from _least_codes(n, masks, tied, i - 1)
            else:
                yield tuple(masks)


def enumerate_universes(
    spec: EnumSpec, visit: Callable[[Universe], None] | None = None
) -> EnumStats:
    """Visit every n-element universe exactly once (one representative per
    isomorphism class when dedupe is on), apply the filter, and collect
    stats.  visit, when given, is called on each universe that passes the
    filter."""
    n = spec.n
    matches = FILTERS[spec.filter] if spec.filter else None
    names = tuple(f"e{i}" for i in range(n))
    if not spec.dedupe:
        # The product varies its last entry fastest, so its reversed tuples
        # are the row masks of the counter's codes in counter order.
        codes = map(_REVERSED, itertools.product(range(1 << n), repeat=n))
    elif n:
        # The first table is the identity, which ties with every code.
        live = [(0, order, column) for order, column in _relabellings(n)[1:]]
        codes = _least_codes(n, [0] * n, live, n - 1)
    else:
        codes = [()]

    total = 0
    matching = 0
    witnesses: list[str] = []
    for masks in codes:
        total += 1
        u = Universe(names, masks)
        if matches is None or matches(u):
            matching += 1
            if len(witnesses) < WITNESS_CAP:
                witnesses.append(print_universe(u))
            if visit is not None:
                visit(u)
    return EnumStats(total=total, matching=matching, sample_witnesses=tuple(witnesses))


def canonical_form(u: Universe) -> bytes:
    """Canonical byte encoding, equal for two universes iff they are
    isomorphic as unlabeled membership digraphs.  Factorial search; refused
    above DEFAULT_MAX_N elements."""
    n = len(u)
    if n > DEFAULT_MAX_N:
        raise CapExceededError(
            f"canonical form of a {n}-element universe exceeds the cap of "
            f"{DEFAULT_MAX_N}"
        )
    best = min(
        _relabelled_code(u.masks, order, column, n)
        for order, column in _relabellings(n)
    )
    return bytes([n]) + best.to_bytes(max(1, (n * n + 7) // 8), "little")

