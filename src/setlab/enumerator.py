"""Exhaustive enumeration of small universes, filters, and canonical forms.

An n-element universe is an n-by-n membership matrix, so there are exactly
2^(n*n) of them.  Enumeration order is fixed: a single integer counter whose
bit i*n+j (little-endian) says whether element j is a member of element i.
That makes runs reproducible and the counter range partitionable.  Every
filter is a test on the universe's cached facts (``Universe.facts``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .dsl import print_universe
from .errors import CapExceededError
from .universe import Universe

DEFAULT_MAX_N = 5

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
    witness_cap: int = 3

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


def _canonical_code(masks, n: int, perms) -> int:
    """Minimal matrix integer over all element permutations."""
    best = None
    for perm in perms:
        code = 0
        for i_new, i_old in enumerate(perm):
            row = masks[i_old]
            new_row = 0
            for j_new, j_old in enumerate(perm):
                if row >> j_old & 1:
                    new_row |= 1 << j_new
            code |= new_row << (i_new * n)
        if best is None or code < best:
            best = code
    return best if best is not None else 0


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
    row_mask = (1 << n) - 1
    perms = list(itertools.permutations(range(n))) if spec.dedupe else None

    total = 0
    matching = 0
    witnesses: list[str] = []
    for code in range(1 << (n * n)):
        masks = tuple(code >> (i * n) & row_mask for i in range(n))
        if perms is not None and _canonical_code(masks, n, perms) != code:
            continue
        total += 1
        u = Universe(names, masks)
        if matches is None or matches(u):
            matching += 1
            if len(witnesses) < spec.witness_cap:
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
    perms = itertools.permutations(range(n))
    best = _canonical_code(u.masks, n, perms)
    return bytes([n]) + best.to_bytes(max(1, (n * n + 7) // 8), "little")

