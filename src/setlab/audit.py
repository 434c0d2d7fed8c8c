"""Axiom satisfaction checks, the lemma suite, and chain tracing.

The two axioms under audit assert that every element has a unique successor
(extension plus itself) and a unique predecessor (extension minus itself).
Finite universes usually violate them, so the audit reports a per-element
lookup outcome rather than a bare boolean.  The verdict is read off the
universe's index tables; a report is a plain named tuple, and its
``per_element`` results are built on each read, not kept.

The lemma suite evaluates, by exhaustive sweep, every statement that is a
theorem of the definitions.  Conditional statements about an element's
successor or predecessor are evaluated only where that lookup is Unique in
the given universe; when no element satisfies a statement's hypotheses the
verdict is "vacuous" rather than "holds".  A "violated" verdict always
indicates an implementation bug and carries a concrete witness.  The suite
is one pass over the universe's masks and cached successor/predecessor
tables (``Universe.facts``) that collects a handful of per-element masks;
every statement is then a few bit operations on them.  Names appear only in
witnesses, and witnesses are built only for violations.  A report without a
violation depends only on which statements hold, so universes with the same
row of statuses share one immutable report, keyed by an int with one bit
per statement.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

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

# The statements in report order.  Per statement, for each of its parts in
# the order of verify_lemma_suite's failure masks, the Facts table (SUCCESSOR
# or PREDECESSOR names it, or None) whose entry follows the bad element in a
# witness.
_STATEMENTS = (
    ("L-lower-not-self", (None,)),
    ("L-upper-self", (None,)),
    ("C-not-both", (None,)),
    ("C-stoppage", (PREDECESSOR, SUCCESSOR)),  # from lowers, uppers
    ("L-pred-not-self", (PREDECESSOR,)),
    ("L-succ-self", (SUCCESSOR,)),
    ("A", (SUCCESSOR,)),
    ("B", (SUCCESSOR,)),
    ("C2", (PREDECESSOR,)),
    ("D", (PREDECESSOR,)),
    ("E", (PREDECESSOR,)),
    # Link disjointness, the ascending steps from lowers and the descending
    # steps from uppers.
    ("main-result", (None, SUCCESSOR, PREDECESSOR)),
    ("restated", (None,)),
)
LEMMA_TAGS = tuple(tag for tag, _ in _STATEMENTS)
_PARTS = tuple((tag, which) for tag, parts in _STATEMENTS for which in parts)
_TAG_BITS = tuple(1 << k for k, _ in enumerate(LEMMA_TAGS))

# The link-disjointness statement does not pin down what counts as two links
# "intersecting"; we check the strongest element-level reading and say so.
MAIN_RESULT_NOTE = (
    "link disjointness is checked at the element level: no element may be "
    "an endpoint of both a lower link and an upper link"
)


class AxiomReport(NamedTuple):
    axiom: str
    universe: Universe
    satisfied: bool

    @property
    def per_element(self) -> tuple[tuple[ElementId, LookupResult], ...]:
        """Each element with its lookup result, in canonical order; built on
        each read."""
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

# The key space is the bound: one entry per set of statements that hold.
@functools.lru_cache(maxsize=1 << len(LEMMA_TAGS))
def _clean_report(holds: int) -> LemmaReport:
    """The report without violations whose statements with a bit in holds
    (bit k for LEMMA_TAGS[k]) hold and whose other statements are vacuous."""
    row = [_HOLDS if holds >> k & 1 else _VACUOUS for k, _ in enumerate(LEMMA_TAGS)]
    return LemmaReport(tuple(zip(LEMMA_TAGS, row)), (MAIN_RESULT_NOTE,))


def verify_lemma_suite(u: Universe) -> LemmaReport:
    """Exhaustively evaluate the whole lemma suite over one universe."""
    names, masks, facts = u.names, u.masks, u.facts
    self_, nonself = facts.self_mask, facts.nonself_mask
    lowers, uppers = facts.lower_mask, facts.upper_mask
    # One pass.  s_*: elements x with a unique successor y, and those among
    # them where y == x, ext(y) != ext(x), x is in y and y is a lower; p_*:
    # likewise with a unique predecessor y, and where y is in x and y is an
    # upper.  *_ends: the endpoints of a link (two distinct elements, one a
    # member of the other) between lowers, or between uppers.
    s_pair = s_same = s_moved = s_x_in = s_lower = 0
    p_pair = p_same = p_moved = p_x_in = p_y_in = p_upper = 0
    lower_ends = upper_ends = 0
    for x, (mask, y, z) in enumerate(zip(masks, facts.successor, facts.predecessor)):
        bit = 1 << x
        if y is not None:
            s_pair |= bit
            if y == x:
                s_same |= bit
            if masks[y] != mask:
                s_moved |= bit
            if masks[y] & bit:
                s_x_in |= bit
            if lowers >> y & 1:
                s_lower |= bit
        if z is not None:
            p_pair |= bit
            if z == x:
                p_same |= bit
            if masks[z] != mask:
                p_moved |= bit
            if masks[z] & bit:
                p_x_in |= bit
            if mask >> z & 1:
                p_y_in |= bit
            if uppers >> z & 1:
                p_upper |= bit
        if lowers & bit and mask & lowers & ~bit:
            lower_ends |= mask & lowers | bit
        if uppers & bit and mask & uppers & ~bit:
            upper_ends |= mask & uppers | bit
    lower_succ, upper_succ = lowers & s_pair, uppers & s_pair
    lower_pred, upper_pred = lowers & p_pair, uppers & p_pair

    # Per part of _PARTS, the elements meeting its hypotheses where its
    # conclusion fails.
    bad = (
        lowers & self_, uppers & nonself, lowers & uppers,
        lower_pred & p_moved, upper_succ & s_moved,
        p_x_in, s_pair & ~s_x_in,
        lower_succ & s_same, lower_succ & ~s_lower,
        upper_pred & p_same, upper_pred & ~p_upper, upper_pred & ~p_y_in,
        lower_ends & upper_ends,
        lower_succ & (s_same | ~s_x_in | ~s_lower),
        upper_pred & (p_same | ~p_y_in | ~p_upper),
        # A Russell set is a lower and an upper at once, so restated fails
        # on exactly C-not-both's elements and has no case of its own.
        lowers & uppers,
    )
    # A statement holds if any of its parts has a case: per statement, in
    # LEMMA_TAGS order, a value that is true when one does.  Link
    # disjointness needs both kinds of link, and restated has no case.  The
    # bits are distinct, so their sum is their OR.
    cases = (
        lowers, uppers, masks, lower_pred | upper_succ, p_pair, s_pair,
        lower_succ, lower_succ, upper_pred, upper_pred, upper_pred,
        lower_succ | upper_pred | (lower_ends and upper_ends), 0,
    )
    holds = sum(compress(_TAG_BITS, cases))
    if not any(bad):
        return _clean_report(holds)

    # A statement is violated by its first part with a bad element.
    verdicts = dict(_clean_report(holds).per_lemma)
    for (tag, which), part in zip(_PARTS, bad):
        if part and verdicts[tag].status != VIOLATED:
            # The witness: the first bad element in canonical order, then
            # the element that the part's table pairs it with.
            i = (part & -part).bit_length() - 1
            witness = (names[i],) if which is None else (
                names[i], names[getattr(facts, which)[i]]
            )
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
