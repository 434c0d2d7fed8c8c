"""Seeded input files for the file workloads.

Each generator draws only from random.Random(seed), so one seed always
gives a byte-identical file.  Alongside the text it returns what the
construction guarantees, which reference.py checks setlab's output against.
"""

from __future__ import annotations

import random

# large-sparse: about 2,000 elements in all.
RANDOM_ELEMENTS = 1982
SUCCESSOR_CHAIN = 12  # von Neumann ordinals v00 .. v11
UPPER_CHAIN = 6  # near-universal uppers w0 .. w5
ASC_START = "v00"
DESC_START = "w0"
SELF_EVERY = 10  # one in ten random elements is self-membered
MAX_RANDOM_MEMBERS = 4

# interp-dense: a well-founded base plus a tagged urelement pool.
BASE_ELEMENTS = 200
URELEMENTS = 800
CHAIN_K = 16
COMPLEMENT_SHARE = 0.8
LISTING_SHARE = 0.05


def _definition(name: str, members) -> str:
    return f"{name} = {{{', '.join(sorted(members))}}}"


def large_sparse(seed: int) -> tuple[str, dict]:
    """A sparse random universe with a planted successor chain and a planted
    descending chain of uppers.

    Random elements have 0-4 other random members, a fifth of them each
    count, and a tenth are also members of themselves.  v<i> has exactly v<0> .. v<i-1> as members, so the
    successor of each v<i> is v<i+1>.  w<i> holds every non-self-membered
    element plus w<i> .. w<last>, so the predecessor of each w<i> is w<i+1>
    and no element is the predecessor of the last one.  Together they make
    every lemma except 'restated' non-vacuous.
    """
    rng = random.Random(seed)
    pool = [f"r{i:04d}" for i in range(RANDOM_ELEMENTS)]
    # Member counts and self-membership are dealt from fixed shuffled decks,
    # so that every seed has the same number of empty, one-member, ... and
    # self-membered elements; output sizes then hardly vary with the seed.
    kinds = MAX_RANDOM_MEMBERS + 1
    deck = [
        (i % kinds, (i // kinds) % SELF_EVERY == 0) for i in range(RANDOM_ELEMENTS)
    ]
    rng.shuffle(deck)
    ext: dict[str, set[str]] = {}
    for name, (size, is_self) in zip(pool, deck):
        others = rng.sample(pool, size + 1)
        members = set([x for x in others if x != name][:size])
        if is_self:
            members.add(name)
        ext[name] = members
    ordinals = [f"v{i:02d}" for i in range(SUCCESSOR_CHAIN)]
    for i, name in enumerate(ordinals):
        ext[name] = set(ordinals[:i])
    nonself = {x for x, members in ext.items() if x not in members}
    uppers = [f"w{i}" for i in range(UPPER_CHAIN)]
    for i, name in enumerate(uppers):
        ext[name] = nonself | set(uppers[i:])

    names = list(ext)
    rng.shuffle(names)
    text = "# large-sparse, seed %d\n" % seed + "".join(
        _definition(name, ext[name]) + "\n" for name in names
    )
    expect = {
        "extensions": {name: sorted(members) for name, members in ext.items()},
        "asc_start": ASC_START,
        "asc_nodes": ordinals,
        "desc_start": DESC_START,
        "desc_nodes": uppers,
        "uppers": uppers,
    }
    return text, expect


def interp_dense(seed: int) -> tuple[str, dict]:
    """A model whose materialized rows are nearly full.

    The base is a random well-founded universe (members only among earlier
    elements).  Of the urelements, one is tagged universal and two carry the
    Forster pair tagging (N: everything but M; M: everything but M and N);
    most others are tagged with the complement of two or three random
    entities, a few with a short listing, and the rest stay untagged for
    the upper chain.
    """
    rng = random.Random(seed)
    base = [f"b{i:03d}" for i in range(BASE_ELEMENTS)]
    urs = [f"u{i:03d}" for i in range(URELEMENTS)]
    entities = base + urs
    universal, m, n = rng.sample(urs, 3)

    lines = ["# interp-dense, seed %d" % seed]
    for i, name in enumerate(base):
        lines.append(_definition(name, rng.sample(base[:i], min(i, rng.randint(0, 4)))))

    tags: dict[str, tuple[bool, frozenset]] = {
        universal: (True, frozenset()),
        n: (True, frozenset({m})),
        m: (True, frozenset({m, n})),
    }
    used = set(tags.values())
    others = [u for u in urs if u not in tags]
    rng.shuffle(others)
    n_complement = int(len(others) * COMPLEMENT_SHARE)
    n_listing = int(len(others) * LISTING_SHARE)
    candidates = [e for e in entities if e != universal]
    for i, name in enumerate(others[: n_complement + n_listing]):
        complement = i < n_complement
        # Complements list at least two entities, so that no random tag can
        # be mistaken for the one-exception half of the Forster pair.
        size = rng.randint(2, 3) if complement else rng.randint(1, 3)
        while True:
            index = (complement, frozenset(rng.sample(candidates, size)))
            if index not in used:
                break
        used.add(index)
        tags[name] = index
    for name in urs:
        if name not in tags:
            lines.append(f"urelement {name}")
            continue
        complement, listed = tags[name]
        first = "0rep" if complement else ""
        lines.append(
            f"urelement {name} index ({{{first}}}, {{{', '.join(sorted(listed))}}})"
        )
    untagged = sorted(u for u in urs if u not in tags)
    expect = {
        "k": CHAIN_K,
        "universal": universal,
        "forster_n": n,
        "forster_m": m,
        "chain_nodes": untagged[:CHAIN_K],
    }
    return "\n".join(lines) + "\n", expect


GENERATORS = {"large-sparse": large_sparse, "interp-dense": interp_dense}
