"""Axiom satisfaction checks, the lemma suite, and chain tracing.

The two axioms under audit assert that every element has a unique successor
(extension plus itself) and a unique predecessor (extension minus itself).
Finite universes usually violate them, so the audit reports a per-element
lookup outcome rather than a bare boolean.  The verdict is read off the
universe's index tables; the per-element results are built only when a
report's ``per_element`` is first read.

The lemma suite evaluates, by exhaustive sweep, every statement that is a
theorem of the definitions.  Conditional statements about an element's
successor or predecessor are evaluated only where that lookup is Unique in
the given universe; when no element satisfies a statement's hypotheses the
verdict is "vacuous" rather than "holds".  A "violated" verdict always
indicates an implementation bug and carries a concrete witness.  Every
statement is evaluated as bit tests on the universe's cached masks and
successor/predecessor tables (``Universe.facts``); names appear only in
witnesses, and witnesses are built only for violations.  A report without a
violation depends only on which statements hold, so universes with the same
row of statuses share one immutable report.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

from .errors import LemmaViolationError
from .universe import Absent, ElementId, LookupResult, Universe

SUCCESSOR = "successor"
PREDECESSOR = "predecessor"

# Directions for trace_chain: along successors or along predecessors.
ASCENDING = "ascending"
DESCENDING = "descending"

HOLDS = "holds"
VACUOUS = "vacuous"
VIOLATED = "violated"

# Termination reasons for trace_chain.
ABSENT = "absent"
MULTIPLE = "multiple"
CYCLE = "cycle"
LENGTH_CAP = "length-cap"

LEMMA_TAGS = (
    "L-lower-not-self",
    "L-upper-self",
    "C-not-both",
    "C-stoppage",
    "L-pred-not-self",
    "L-succ-self",
    "A",
    "B",
    "C2",
    "D",
    "E",
    "main-result",
    "restated",
)

# The link-disjointness statement does not pin down what counts as two links
# "intersecting"; we check the strongest element-level reading and say so.
MAIN_RESULT_NOTE = (
    "link disjointness is checked at the element level: no element may be "
    "an endpoint of both a lower link and an upper link"
)


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    universe: Universe
    satisfied: bool

    @functools.cached_property
    def per_element(self) -> tuple[tuple[ElementId, LookupResult], ...]:
        """Each element with its lookup result, in canonical order."""
        u = self.universe
        lookup = u.successor_in if self.axiom == SUCCESSOR else u.predecessor_in
        return tuple([(x, lookup(x)) for x in u.names])


@dataclass(frozen=True)
class Verdict:
    status: str
    witness: tuple[ElementId, ...] = ()

    def __post_init__(self):
        if self.status == VIOLATED and not self.witness:
            raise ValueError("violated verdict requires a witness")


@dataclass(frozen=True)
class LemmaReport:
    per_lemma: tuple[tuple[str, Verdict], ...]
    notes: tuple[str, ...] = ()

    def verdict(self, tag: str) -> Verdict:
        for name, verdict in self.per_lemma:
            if name == tag:
                return verdict
        raise KeyError(tag)

    @property
    def ok(self) -> bool:
        return all(v.status != VIOLATED for _, v in self.per_lemma)

    @property
    def violations(self) -> tuple[tuple[str, Verdict], ...]:
        return tuple(
            (tag, v) for tag, v in self.per_lemma if v.status == VIOLATED
        )


@dataclass(frozen=True)
class Chain:
    """A successor or predecessor walk.

    ``nodes`` starts at the walk's origin and never repeats an element;
    ``repeated`` records the revisited id when termination reason is cycle.
    """

    direction: str
    nodes: tuple[ElementId, ...]
    terminated_by: str
    repeated: ElementId | None = None


def check_axiom(u: Universe, which: str) -> AxiomReport:
    """Evaluate one axiom element by element.

    satisfied is true iff the lookup is Unique at every element; the empty
    universe satisfies both axioms vacuously.
    """
    if which not in (SUCCESSOR, PREDECESSOR):
        raise ValueError(f"unknown axiom {which!r}")
    table = u.facts.successor if which == SUCCESSOR else u.facts.predecessor
    return AxiomReport(which, u, None not in table)


_HOLDS = Verdict(HOLDS)
_VACUOUS = Verdict(VACUOUS)
# The failure mask of a part of a statement (see verify_lemma_suite).
_BAD = operator.itemgetter(3)


def _pair_masks(masks, table, kind: int) -> tuple[int, ...]:
    """Bits of the elements x that table (successor or predecessor) pairs
    with some y, then of those among them where y == x, ext(y) != ext(x),
    x is in y, y is in x, and y is in kind."""
    paired = same = moved = x_in_y = y_in_x = y_kind = 0
    for x, y in enumerate(table):
        if y is None:
            continue
        bit = 1 << x
        paired |= bit
        if y == x:
            same |= bit
        if masks[y] != masks[x]:
            moved |= bit
        if masks[y] & bit:
            x_in_y |= bit
        if masks[x] >> y & 1:
            y_in_x |= bit
        if kind >> y & 1:
            y_kind |= bit
    return paired, same, moved, x_in_y, y_in_x, y_kind


def _link_endpoints(masks, group: int) -> int:
    """Bitmask of elements that are an endpoint of a link whose endpoints
    both lie in group (a pair of distinct elements, one a member of the
    other)."""
    endpoints = 0
    for i, mask in enumerate(masks):
        bit = 1 << i
        others = mask & group & ~bit
        if group & bit and others:
            endpoints |= others | bit
    return endpoints


# The key space is the bound: one entry per set of statements that hold.
@functools.lru_cache(maxsize=1 << len(LEMMA_TAGS))
def _clean_report(holds: frozenset[str]) -> LemmaReport:
    """The report without violations whose statements in holds hold and
    whose other statements are vacuous."""
    return LemmaReport(
        tuple([(tag, _HOLDS if tag in holds else _VACUOUS) for tag in LEMMA_TAGS]),
        (MAIN_RESULT_NOTE,),
    )


def verify_lemma_suite(u: Universe) -> LemmaReport:
    """Exhaustively evaluate the whole lemma suite over one universe."""
    names, masks, facts = u.names, u.masks, u.facts
    self_, nonself = facts.self_mask, facts.nonself_mask
    lowers, uppers = facts.lower_mask, facts.upper_mask
    succ, pred = facts.successor, facts.predecessor
    # s_*: elements with a unique successor y; p_*: with a unique predecessor.
    s_pair, s_same, s_moved, s_x_in, _, s_lower = _pair_masks(masks, succ, lowers)
    p_pair, p_same, p_moved, p_x_in, p_y_in, p_upper = _pair_masks(masks, pred, uppers)
    lower_succ, upper_succ = lowers & s_pair, uppers & s_pair
    lower_pred, upper_pred = lowers & p_pair, uppers & p_pair
    lower_ends = _link_endpoints(masks, lowers)
    upper_ends = _link_endpoints(masks, uppers)
    russell = facts.russell_mask

    # The parts the statements are made of: per part its statement, the
    # table (successor or predecessor) whose entry follows the bad element in
    # a witness, the elements meeting its hypotheses and those among them
    # where its conclusion fails.
    parts = (
        ("L-lower-not-self", None, lowers, lowers & self_),
        ("L-upper-self", None, uppers, uppers & nonself),
        ("C-not-both", None, u.all_mask, lowers & uppers),
        ("C-stoppage", pred, lower_pred, lower_pred & p_moved),  # from lowers
        ("C-stoppage", succ, upper_succ, upper_succ & s_moved),  # from uppers
        ("L-pred-not-self", pred, p_pair, p_x_in),
        ("L-succ-self", succ, s_pair, s_pair & ~s_x_in),
        ("A", succ, lower_succ, lower_succ & s_same),
        ("B", succ, lower_succ, lower_succ & ~s_lower),
        ("C2", pred, upper_pred, upper_pred & p_same),
        ("D", pred, upper_pred, upper_pred & ~p_upper),
        ("E", pred, upper_pred, upper_pred & ~p_y_in),
        # Link disjointness is vacuous unless both kinds of link exist.
        ("main-result", None, lower_ends and upper_ends, lower_ends & upper_ends),
        # The ascending steps from lowers and the descending steps from uppers.
        ("main-result", succ, lower_succ, lower_succ & (s_same | ~s_x_in | ~s_lower)),
        ("main-result", pred, upper_pred, upper_pred & (p_same | ~p_y_in | ~p_upper)),
        # A Russell set x would have to be self-membered and not.
        ("restated", None, russell, russell & ~(self_ & nonself)),
    )
    # A statement is violated by its first part with a bad element, and
    # otherwise holds if any of its parts has a case.
    holds = frozenset([tag for tag, _, cases, _ in parts if cases])
    if not any(map(_BAD, parts)):
        return _clean_report(holds)

    verdicts = {tag: _HOLDS if tag in holds else _VACUOUS for tag in LEMMA_TAGS}
    for tag, table, _, bad in parts:
        if bad and verdicts[tag].status != VIOLATED:
            # The witness: the first bad element in canonical order, then
            # the element table pairs it with.
            i = (bad & -bad).bit_length() - 1
            witness = (names[i],) if table is None else (names[i], names[table[i]])
            verdicts[tag] = Verdict(VIOLATED, witness)
    return LemmaReport(tuple(verdicts.items()), (MAIN_RESULT_NOTE,))


def trace_chain(u: Universe, start: ElementId, direction: str, cap: int) -> Chain:
    """Walk successors (ascending) or predecessors (descending) from start.

    Extends the walk while the lookup is Unique and the next element is
    unvisited, then terminates with the recorded reason.  When the walk
    starts at a lower (ascending) or an upper (descending), every step is
    additionally checked to stay in that class, move to a distinct element,
    and preserve the membership between consecutive nodes; a failed check
    raises LemmaViolationError since those facts are theorems.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    current = u.index(start)
    facts = u.facts
    if direction == ASCENDING:
        steps, lookup, kind = facts.successor, u.successor_in, facts.lower_mask
    elif direction == DESCENDING:
        steps, lookup, kind = facts.predecessor, u.predecessor_in, facts.upper_mask
    else:
        raise ValueError(f"unknown direction {direction!r}")

    names, masks = u.names, u.masks
    guarded = kind >> current & 1
    nodes = [start]
    visited = {current}
    while True:
        if len(nodes) >= cap:
            return Chain(direction, tuple(nodes), LENGTH_CAP)
        nxt = steps[current]
        if nxt is None:
            reason = ABSENT if isinstance(lookup(names[current]), Absent) else MULTIPLE
            return Chain(direction, tuple(nodes), reason)
        if guarded:
            # Ascending, current must be a member of nxt; descending, the reverse.
            inner, outer = (current, nxt) if direction == ASCENDING else (nxt, current)
            if nxt == current or not kind >> nxt & 1 or not masks[outer] >> inner & 1:
                raise LemmaViolationError(
                    f"chain step {names[current]!r} -> {names[nxt]!r} broke a theorem"
                )
        if nxt in visited:
            return Chain(direction, tuple(nodes), CYCLE, repeated=names[nxt])
        nodes.append(names[nxt])
        visited.add(nxt)
        current = nxt
