"""Naive reference semantics used to cross-check the production code.

Universes here are plain dicts mapping an element name to the set of its
member names.  Everything is evaluated straight from the defining
conditions, with no code or data representation shared with the package
under test.
"""

from __future__ import annotations

import itertools


def extension(d, x):
    return set(d[x])


def is_member(d, x, y):
    return x in d[y]


def self_membered(d, x):
    return x in d[x]


def coextensive(d, x, y):
    return set(d[x]) == set(d[y])


def is_lower(d, x):
    return all(z not in d[z] for z in d[x])


def is_upper(d, x):
    return all(z in d[x] for z in d if z not in d[z])


def is_strictly_russellian(d, x):
    return is_lower(d, x) and is_upper(d, x)


def successors(d, x):
    """All elements whose extension is extension(x) plus x, sorted."""
    target = set(d[x]) | {x}
    return sorted(y for y in d if set(d[y]) == target)


def predecessors(d, x):
    """All elements whose extension is extension(x) minus x, sorted."""
    target = set(d[x]) - {x}
    return sorted(y for y in d if set(d[y]) == target)


def russell_candidates(d):
    """Elements whose members are exactly the non-self-membered elements."""
    target = {z for z in d if z not in d[z]}
    return sorted(x for x in d if set(d[x]) == target)


def comprehension_candidates(d, phi):
    target = {z for z in d if phi(z)}
    return sorted(x for x in d if set(d[x]) == target)


def satisfies_successor(d):
    return all(len(successors(d, x)) == 1 for x in d)


def satisfies_predecessor(d):
    return all(len(predecessors(d, x)) == 1 for x in d)


def encode(d):
    """The membership matrix of d as one integer, elements numbered in the
    dict's key order: bit i*n + j is set iff element j is a member of
    element i."""
    number = {x: i for i, x in enumerate(d)}
    n = len(d)
    return sum(1 << (number[x] * n + number[y]) for x in d for y in d[x])


def canonical_code(d):
    """The least encoding of d over every relabelling of its elements."""
    names = list(d)
    codes = []
    for order in itertools.permutations(names):
        # order[k] takes the name and the position of names[k].
        rename = dict(zip(order, names))
        relabelled = {new: {rename[y] for y in d[old]} for old, new in rename.items()}
        codes.append(encode(relabelled))
    return min(codes)
