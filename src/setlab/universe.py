"""Finite membership digraphs with the successor/predecessor lookups.

A Universe is a finite collection of named elements together with a total
extension map: each element has a finite (possibly empty) set of members
drawn from the same universe.  Self-membership and membership cycles are
allowed, and two distinct elements may share an extension (extensionality
is deliberately not enforced).

Extensions are stored as bitmasks over the canonical element order, so set
algebra runs on machine words while the semantic contract stays "plain
finite sets".  The canonical order is fixed at construction and drives all
iteration, which keeps every derived report byte-reproducible.  What the
classifier, the audit and the enumerator's filters derive from a universe
(self-membered, lower and upper masks, successor and predecessor tables)
is computed once per universe and cached in ``Universe.facts``, which holds
index tables only.  The Russell set is not stored: by definition it is
lower and upper at once, ``lower_mask & upper_mask``.  Name-level results
read one second cached table, ``Universe.carriers``: each extension mask
with the names of the elements that have it.  It is built only when a
lookup (``successor_in``, ``predecessor_in``) or a comprehension witness
first asks for it, and no lookup result is kept beside it.  ``hf_universe``
builds the hereditarily finite worlds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import CapExceededError, DuplicateDefinitionError, UnknownElementError

ElementId = str


class _cached:
    """A lazily computed attribute, without a lock (the standard library's
    cached property takes one on every first access before Python 3.12):
    the first access stores the value in the instance's __dict__, which then
    shadows this non-data descriptor.  The cached computations are
    idempotent, so a race stores equal values."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class Unique:
    """Exactly one element matched the target extension."""

    id: ElementId


@dataclass(frozen=True)
class Absent:
    """No element matched the target extension."""


@dataclass(frozen=True)
class Multiple:
    """Two or more distinct elements matched; ids are in canonical order."""

    ids: tuple[ElementId, ...]

    def __post_init__(self):
        if len(self.ids) < 2:
            raise ValueError("Multiple requires at least two ids")


LookupResult = Unique | Absent | Multiple


class Facts(NamedTuple):
    """What the classifier and the audit derive from one universe, as
    index tables.

    ``successor[i]`` is the index of the unique element whose extension is
    extension(i) plus i, or None when that lookup is Absent or Multiple;
    ``predecessor`` likewise for extension(i) minus i.  The carriers of
    each extension are not here but in ``Universe.carriers``.
    """

    self_mask: int
    lower_mask: int
    upper_mask: int
    successor: tuple[int | None, ...]
    predecessor: tuple[int | None, ...]


@dataclass(frozen=True)
class Universe:
    """Immutable membership digraph.

    ``names`` fixes the canonical element order; ``masks[i]`` is the bitmask
    of member positions of element ``names[i]``.  Bit ``j`` set in ``masks[i]``
    means ``names[j]`` is a member of ``names[i]``.
    """

    names: tuple[ElementId, ...]
    masks: tuple[int, ...]

    def __post_init__(self):
        n = len(self.names)
        if len(self.masks) != n:
            raise ValueError("one extension mask per element required")
        if len(set(self.names)) != n:
            raise DuplicateDefinitionError("duplicate element ids in universe")
        full = (1 << n) - 1
        if self.masks and (min(self.masks) < 0 or max(self.masks) > full):
            for name, mask in zip(self.names, self.masks):
                if mask < 0 or mask > full:
                    raise UnknownElementError(
                        f"extension of {name!r} refers outside the universe"
                    )

    @classmethod
    def from_extensions(
        cls, extensions: Mapping[ElementId, Iterable[ElementId]]
    ) -> "Universe":
        """Build a universe from a name -> members mapping.

        The mapping's iteration order becomes the canonical element order.
        Every member must itself be a key of the mapping.
        """
        names = tuple(extensions)
        position = {name: i for i, name in enumerate(names)}
        masks = []
        for name in names:
            mask = 0
            for member in extensions[name]:
                if member not in position:
                    raise UnknownElementError(
                        f"{member!r} (member of {name!r}) is not an element"
                    )
                mask |= 1 << position[member]
            masks.append(mask)
        return cls(names, tuple(masks))

    # -- canonical order plumbing ------------------------------------------

    @_cached
    def _position(self) -> dict[ElementId, int]:
        return {name: i for i, name in enumerate(self.names)}

    @_cached
    def facts(self) -> Facts:
        """The derived facts, computed on first use and then cached."""
        masks = self.masks
        # Extension mask -> index of its first carrier, and the masks that
        # have more than one.
        first: dict[int, int] = {}
        shared: set[int] = set()
        self_bits = 0
        for i, mask in enumerate(masks):
            if mask in first:
                shared.add(mask)
            else:
                first[mask] = i
            self_bits |= mask & 1 << i
        nonself = self.all_mask & ~self_bits
        # Target mask -> index of its unique carrier.
        unique = (
            {mask: i for mask, i in first.items() if mask not in shared}
            if shared
            else first
        )
        lower = upper = 0
        succ, pred = [], []
        for i, mask in enumerate(masks):
            bit = 1 << i
            if not mask & self_bits:
                lower |= bit
            if not nonself & ~mask:
                upper |= bit
            succ.append(unique.get(mask | bit))
            pred.append(unique.get(mask & ~bit))
        return Facts(self_bits, lower, upper, tuple(succ), tuple(pred))

    @_cached
    def carriers(self) -> dict[int, tuple[ElementId, ...]]:
        """Each extension mask -> the names of the elements that have it,
        in canonical order; computed on first use and then cached."""
        groups: dict[int, list[ElementId]] = {}
        for name, mask in zip(self.names, self.masks):
            groups.setdefault(mask, []).append(name)
        return {mask: tuple(ids) for mask, ids in groups.items()}

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, x: object) -> bool:
        return x in self._position

    def __iter__(self) -> Iterator[ElementId]:
        return iter(self.names)

    def index(self, x: ElementId) -> int:
        try:
            return self._position[x]
        except KeyError:
            raise UnknownElementError(f"unknown element {x!r}") from None

    def bit(self, x: ElementId) -> int:
        return 1 << self.index(x)

    @property
    def all_mask(self) -> int:
        """Bitmask with one bit per element of the universe."""
        return (1 << len(self.names)) - 1

    def ids(self, mask: int) -> tuple[ElementId, ...]:
        """Decode a bitmask into element ids, in canonical order."""
        return tuple(
            name for i, name in enumerate(self.names) if mask >> i & 1
        )

    # -- membership queries -------------------------------------------------

    def members_mask(self, x: ElementId) -> int:
        return self.masks[self.index(x)]

    def extension(self, x: ElementId) -> frozenset[ElementId]:
        """The members of x."""
        return frozenset(self.ids(self.members_mask(x)))

    def is_member(self, x: ElementId, y: ElementId) -> bool:
        """True iff x is a member of y."""
        return bool(self.members_mask(y) >> self.index(x) & 1)

    def coextensive(self, x: ElementId, y: ElementId) -> bool:
        """True iff x and y have exactly the same members."""
        return self.members_mask(x) == self.members_mask(y)

    def self_membered(self, x: ElementId) -> bool:
        return self.is_member(x, x)

    # -- successor / predecessor lookups -------------------------------------

    def successor_in(self, x: ElementId) -> LookupResult:
        """Search for an element whose extension is extension(x) plus x itself.

        Unique(y) iff exactly one such y exists (y = x is possible when x is
        self-membered); Absent or Multiple otherwise.
        """
        i = self.index(x)
        return self._lookup(self.masks[i] | 1 << i)

    def predecessor_in(self, x: ElementId) -> LookupResult:
        """Search for an element whose extension is extension(x) minus x."""
        i = self.index(x)
        return self._lookup(self.masks[i] & ~(1 << i))

    def _lookup(self, target: int) -> LookupResult:
        """The elements whose extension mask is target, read off the carrier
        table.  A Multiple wraps the table's own tuple, so the results of
        coextensive elements share one: a Multiple can name hundreds of
        elements, and each of them looks it up."""
        ids = self.carriers.get(target)
        if not ids:
            return Absent()
        return Unique(ids[0]) if len(ids) == 1 else Multiple(ids)


# Element counts of the hereditarily finite worlds by rank: rank 0 is the
# empty world and each next rank is the powerset of the previous one.  Rank 5
# is the cap: rank 6 would have 2^65536 elements.
HF_SIZES = (0, 1, 2, 4, 16, 65536)


def hf_universe(rank: int) -> Universe:
    """The universe of hereditarily finite sets of rank below the given
    bound (0 to 5), with actual set membership as the relation.

    Element h<i> encodes the set whose members are exactly the h<j> with bit
    j of i set; h0 is the empty set.  With that encoding the elements of
    rank r are precisely the codes 0 .. 2^(size of rank r-1) - 1, so the
    membership mask of h<i> is i itself.  Every element is well-founded,
    hence a lower; none is an upper.
    """
    if rank < 0:
        raise ValueError("rank must be non-negative")
    if rank >= len(HF_SIZES):
        raise CapExceededError(f"rank {rank} exceeds the cap of {len(HF_SIZES) - 1}")
    size = HF_SIZES[rank]
    names = tuple(f"h{i}" for i in range(size))
    return Universe(names, tuple(range(size)))
