"""Interpreted membership over a well-founded base plus tagged urelements.

A BaseModel is a finite well-founded universe (the "base") together with a
pool of urelements.  Urelements have no members in the base relation; an
interpreted relation gives them members via tags.  A tag (``dsl.Index``) is
a complement flag plus a set of listed entities; the paper writes it as two
slots of representative tokens:

  * at level 0 every entity has the same representative (SHARED_REP), so
    putting it in the first slot flips membership for every candidate at
    once (the complement flag);
  * at level 1 each entity represents itself, so the second slot picks out
    individual entities (exceptions to a complement, or a plain listing).

For a candidate x and a tag L, the sprig of x is the set of level/token
pairs of x that land inside the corresponding slot of L; x is an interpreted
member of a tagged urelement iff its sprig has an odd number of members.
With two levels the only odd size is 1, so membership is the XOR of the two
slot tests: complement XOR listed.  A urelement tagged ({0rep}, {})
therefore contains everything, including itself: a universal set.  Tagging
at most one urelement per index keeps the index-to-urelement map a partial
bijection; BaseModel is the one place that enforces it, and every retag
builds a new model that rejects a collision.  Each model builds the
interpreted relation once, as bitmask rows (``BaseModel.world``); membership
queries read it, and ``sprig`` stays the definition tests compare it with.

retag_counterexample_pair rewires that bijection so that two urelements N
and M cut each other out: N contains everything but M, and M contains
everything but M and N.  Then M is exactly N's predecessor in the
interpreted sense, N is self-membered, and M is not: a self-membered set
whose predecessor is not self-membered, with no Quine atom in sight.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping

from .audit import DESCENDING, Chain, LENGTH_CAP
from .dsl import Index, UniverseDoc, parse_document
from .errors import (
    CollisionError,
    DuplicateDefinitionError,
    IllFoundedBaseError,
    PoolExhaustedError,
    PreconditionError,
    UnknownElementError,
    UntaggedUrelementWarning,
)
from .universe import ElementId, Universe, _cached, hf_universe

LEVEL_ZERO = 0
LEVEL_ONE = 1


@dataclass(frozen=True)
class RepToken:
    """Equivalence-class representative: the shared level-0 token when
    entity is None, otherwise the entity's own level-1 token."""

    entity: ElementId | None = None


SHARED_REP = RepToken()


def own_rep(x: ElementId) -> RepToken:
    return RepToken(x)


def level_rep(level: int, x: ElementId) -> RepToken:
    """The level-j representative of x: one shared token at level 0, x's
    own token at level 1."""
    if level == LEVEL_ZERO:
        return SHARED_REP
    if level == LEVEL_ONE:
        return RepToken(x)
    raise ValueError(f"level must be {LEVEL_ZERO} or {LEVEL_ONE}, got {level}")


def universal_index() -> Index:
    """Tag whose bearer contains every entity (itself included)."""
    return Index(True, frozenset())


def complement_index(exceptions: Iterable[ElementId]) -> Index:
    """Tag whose bearer contains everything except the listed entities."""
    return Index(True, frozenset(exceptions))


def listing_index(members: Iterable[ElementId]) -> Index:
    """Tag whose bearer contains exactly the listed entities."""
    return Index(False, frozenset(members))


@dataclass(frozen=True)
class Sprig:
    """The level/token pairs of a candidate that land inside a tag."""

    pairs: frozenset[tuple[int, RepToken]]

    @property
    def odd(self) -> bool:
        return len(self.pairs) % 2 == 1


@dataclass(frozen=True)
class BaseModel:
    """Well-founded base universe, urelement pool, and the tagging map.

    Immutable; operations that change the tagging return a new model.
    ``tags`` associates at most one urelement to an index and vice versa.
    """

    base: Universe
    urelements: tuple[ElementId, ...]
    tags: tuple[tuple[Index, ElementId], ...] = ()

    def __post_init__(self):
        pool = set(self.urelements)
        if len(pool) != len(self.urelements):
            raise DuplicateDefinitionError("duplicate urelement names")
        overlap = pool & set(self.base.names)
        if overlap:
            raise DuplicateDefinitionError(
                f"urelement names collide with base elements: {sorted(overlap)}"
            )
        _require_well_founded(self.base)
        entity_set = set(self.base.names) | pool
        seen_indexes = set()
        seen_bearers = set()
        for index, bearer in self.tags:
            if bearer not in pool:
                raise UnknownElementError(f"tagged name {bearer!r} is not in the pool")
            if index in seen_indexes or bearer in seen_bearers:
                raise CollisionError("tagging must be bijective")
            seen_indexes.add(index)
            seen_bearers.add(bearer)
            for entity in index.listed:
                if entity not in entity_set:
                    raise UnknownElementError(
                        f"tag of {bearer!r} refers to unknown entity {entity!r}"
                    )

    @classmethod
    def build(
        cls,
        base: Universe,
        urelements: Iterable[ElementId],
        tagging: Mapping[Index, ElementId] | None = None,
    ) -> "BaseModel":
        tags = tuple(sorted((tagging or {}).items(), key=lambda item: item[1]))
        return cls(base=base, urelements=tuple(urelements), tags=tags)

    @_cached
    def entities(self) -> tuple[ElementId, ...]:
        return self.base.names + self.urelements

    @_cached
    def _pool(self) -> frozenset[ElementId]:
        return frozenset(self.urelements)

    @_cached
    def _tag_by_bearer(self) -> dict[ElementId, Index]:
        return {bearer: index for index, bearer in self.tags}

    @_cached
    def _bearer_by_index(self) -> dict[Index, ElementId]:
        return {index: bearer for index, bearer in self.tags}

    @_cached
    def world(self) -> Universe:
        """The interpreted relation as a universe over the entities, built
        once: base rows as in the base, a tagged urelement's row its listed
        entities (complemented when the tag's complement flag is set), an
        untagged urelement's row empty."""
        position = {x: i for i, x in enumerate(self.entities)}
        everything = (1 << len(position)) - 1
        masks = list(self.base.masks) + [0] * len(self.urelements)
        for index, bearer in self.tags:
            row = sum([1 << position[x] for x in index.listed])
            masks[position[bearer]] = row ^ everything if index.complement else row
        return Universe(self.entities, tuple(masks))

    def is_urelement(self, x: ElementId) -> bool:
        return x in self._pool

    def check_entity(self, x: ElementId) -> None:
        if x not in self.base and x not in self._pool:
            raise UnknownElementError(f"unknown entity {x!r}")

    def tag_of(self, bearer: ElementId) -> Index | None:
        return self._tag_by_bearer.get(bearer)

    def bearer_of(self, index: Index) -> ElementId | None:
        return self._bearer_by_index.get(index)

    def untagged(self) -> tuple[ElementId, ...]:
        return tuple(
            name for name in self.urelements if name not in self._tag_by_bearer
        )

    def retag(self, tagging: Mapping[Index, ElementId]) -> "BaseModel":
        return BaseModel.build(self.base, self.urelements, tagging)


def _require_well_founded(base: Universe) -> None:
    """Reject base universes with membership cycles (including loops)."""
    remaining = list(base.masks)
    alive = base.all_mask
    changed = True
    while changed and alive:
        changed = False
        for i in range(len(remaining)):
            if alive >> i & 1 and remaining[i] & alive == 0:
                alive &= ~(1 << i)
                changed = True
    if alive:
        names = ", ".join(base.ids(alive))
        raise IllFoundedBaseError(
            f"base universe is not well-founded (cycle among {names})"
        )


def sprig(model: BaseModel, x: ElementId, L: Index) -> Sprig:
    """The pairs (level, level-rep of x) that fall inside the tag L."""
    model.check_entity(x)
    pairs = set()
    if L.complement:
        pairs.add((LEVEL_ZERO, SHARED_REP))
    if x in L.listed:
        pairs.add((LEVEL_ONE, own_rep(x)))
    return Sprig(frozenset(pairs))


def _check_target(model: BaseModel, u: ElementId) -> None:
    """Validate u as a membership target; warn, at the caller of the public
    function, when u is an untagged urelement (its extension is empty)."""
    model.check_entity(u)
    if model.is_urelement(u) and model.tag_of(u) is None:
        warnings.warn(
            f"membership queried against untagged urelement {u!r}",
            UntaggedUrelementWarning,
            stacklevel=3,
        )


def member_interp(model: BaseModel, x: ElementId, u: ElementId) -> bool:
    """Interpreted membership, a bit of model.world: base membership when u
    is a base element; for a tagged urelement, the XOR of the two slot tests
    (odd sprig size).  Untagged urelements have empty extensions and warn."""
    model.check_entity(x)
    _check_target(model, u)
    return model.world.is_member(x, u)


def extension_interp(model: BaseModel, u: ElementId) -> frozenset[ElementId]:
    """All entities that are interpreted members of u: u's row of
    model.world.  Untagged urelements have empty extensions and warn."""
    _check_target(model, u)
    return model.world.extension(u)


def materialize(model: BaseModel) -> Universe:
    """Turn the interpreted relation into an ordinary universe over all
    entities, so the classifier and audit machinery apply unchanged."""
    return model.world


def retag_counterexample_pair(
    model: BaseModel, M: ElementId, N: ElementId
) -> BaseModel:
    """Rewire the tagging so the counterexample pair of indexes lands on N
    and M.

    With n = (complement of {M}) and m = (complement of {M, N}), the new
    tagging maps n to N and m to M (if it does not already).  To stay
    bijective, whatever index previously bore N takes over n's previous
    bearer, and likewise for M and m.  The new model raises CollisionError
    when that fixup leaves a urelement with two tags.
    """
    if M == N:
        raise ValueError("the two urelements must be distinct")
    for name in (M, N):
        if not model.is_urelement(name):
            raise UnknownElementError(f"{name!r} is not in the urelement pool")
    pair = {complement_index({M}): N, complement_index({M, N}): M}
    tagging = dict(model._bearer_by_index)
    homes = [model.tag_of(bearer) for bearer in pair.values()]
    displaced = [tagging.pop(index, None) for index in pair]
    for home in homes:
        tagging.pop(home, None)
    tagging.update(pair)
    for home, bearer in zip(homes, displaced):
        if home is not None and home not in pair and bearer is not None:
            tagging[home] = bearer
    return model.retag(tagging)


def find_universal(model: BaseModel) -> ElementId | None:
    """The urelement tagged to contain everything, if one exists."""
    return model.bearer_of(universal_index())


@dataclass(frozen=True)
class ForsterReport:
    """Outcome of checking the counterexample pair in a model."""

    universal: ElementId
    n: ElementId | None
    m: ElementId | None
    precondition_met: bool
    checks: tuple[tuple[str, bool], ...]
    note: str

    @property
    def passed(self) -> bool:
        return self.precondition_met and all(ok for _, ok in self.checks)


_COUNTEREXAMPLE_NOTE = (
    "exhibits a self-membered set whose predecessor is not self-membered; "
    "informational for this constructed model only"
)


def _find_counterexample_pair(model: BaseModel):
    """Locate (M, N) with the pair tagging: complement-of-{M} tagged to N
    and complement-of-{M, N} tagged to M.  Deterministic first match in
    bearer order."""
    for index, bearer in model.tags:
        if index.complement and len(index.listed) == 1:
            (m,) = index.listed
            # m != n keeps a tag complement{n} on n from matching itself.
            if m != bearer and model.bearer_of(complement_index({m, bearer})) == m:
                return m, bearer
    return None


def verify_forster_counterexample(model: BaseModel) -> ForsterReport:
    """Check the counterexample pair against the universal set.

    Requires a universal urelement; when the pair tagging is absent the
    report comes back with precondition_met False instead of checks.
    """
    universal = find_universal(model)
    if universal is None:
        raise PreconditionError("model has no universal urelement")
    pair = _find_counterexample_pair(model)
    if pair is None:
        return ForsterReport(
            universal=universal,
            n=None,
            m=None,
            precondition_met=False,
            checks=(),
            note="no urelement pair carries the counterexample tagging",
        )
    M, N = pair
    everything = frozenset(model.entities)
    ext_n = extension_interp(model, N)
    ext_m = extension_interp(model, M)
    ext_u = extension_interp(model, universal)
    checks = (
        ("ext(n) = all - {m}", ext_n == everything - {M}),
        ("ext(m) = all - {m, n}", ext_m == everything - {M, N}),
        ("n in n", member_interp(model, N, N)),
        ("m not in m", not member_interp(model, M, M)),
        ("ext(m) = ext(n) - {n}", ext_m == ext_n - {N}),
        ("ext(n) = ext(universal) - {m}", ext_n == ext_u - {M}),
    )
    return ForsterReport(
        universal=universal,
        n=N,
        m=M,
        precondition_met=True,
        checks=checks,
        note=_COUNTEREXAMPLE_NOTE,
    )


@dataclass(frozen=True)
class UpperChainResult:
    """A freshly tagged descending chain plus the model that carries it."""

    model: BaseModel
    chain: Chain


def upper_chain_interp(model: BaseModel, k: int) -> UpperChainResult:
    """Tag k fresh urelements into a descending chain of uppers below the
    universal set: each new entity's extension removes exactly the chain so
    far, making it the interpreted predecessor of the previous entity."""
    if k < 1:
        raise ValueError("k must be at least 1")
    universal = find_universal(model)
    if universal is None:
        raise PreconditionError("model has no universal urelement")
    fresh = model.untagged()
    if len(fresh) < k:
        raise PoolExhaustedError(
            f"need {k} untagged urelements, only {len(fresh)} available"
        )
    tagging = dict(model._bearer_by_index)
    removed = [universal]
    for i, bearer in enumerate(fresh[:k]):
        index = complement_index(removed)
        # A dict write would silently untag the index's old bearer.
        if index in tagging:
            raise CollisionError(f"index for chain step {i} is already tagged")
        tagging[index] = bearer
        removed.append(bearer)
    chain = Chain(DESCENDING, tuple(removed[1:]), LENGTH_CAP)
    return UpperChainResult(model=model.retag(tagging), chain=chain)


def quine_universe() -> Universe:
    """Two-element world with a Quine atom: e = {} and q = {q}."""
    return Universe.from_extensions({"e": (), "q": ("q",)})


def default_demo_model(pool_size: int = 8) -> BaseModel:
    """Base world of the four hereditarily finite sets of rank below 2 plus a
    urelement pool, with the first urelement tagged as the universal set."""
    if pool_size < 1:
        raise ValueError("pool_size must be at least 1")
    pool = tuple(f"ur{i}" for i in range(pool_size))
    return BaseModel.build(hf_universe(2), pool, {universal_index(): pool[0]})


def forster_demo_model() -> BaseModel:
    """The default demo model with the counterexample pair tagged to ur1
    (the m side) and ur2 (the n side)."""
    return retag_counterexample_pair(default_demo_model(), "ur1", "ur2")


def model_from_doc(doc: UniverseDoc) -> BaseModel:
    """Build a model from a parsed model document: plain definitions form
    the base, urelement declarations the pool and tagging."""
    base = doc.to_universe()
    pool = tuple(sorted(decl.name for decl in doc.urelements))
    tagging: dict[Index, ElementId] = {}
    for decl in doc.urelements:
        if decl.index is None:
            continue
        if decl.index in tagging:
            raise CollisionError(
                f"line {decl.line}: index already tagged to {tagging[decl.index]!r}"
            )
        tagging[decl.index] = decl.name
    return BaseModel.build(base, pool, tagging)


def parse_model(text: str) -> BaseModel:
    """Parse model source text (universe DSL plus urelement declarations)."""
    return model_from_doc(parse_document(text, allow_urelements=True))
