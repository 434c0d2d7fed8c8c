"""The lemma suite as five separate loops, kept as a reference.

This is the evaluator that ``audit.verify_lemma_suite`` replaced with one
pass over the universe's masks: two loops pair each element with its
successor and with its predecessor, two more collect the endpoints of the
links between lowers and between uppers, and a table of parts is built per
call.  It reads the same ``Universe.facts`` and builds the same reports, so
the two must agree on every universe, including one whose facts have been
tampered with.
"""

from __future__ import annotations

from setlab.audit import (
    HOLDS,
    LEMMA_TAGS,
    MAIN_RESULT_NOTE,
    VACUOUS,
    VIOLATED,
    LemmaReport,
    Verdict,
)


def _pair_masks(masks, table, kind):
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


def _link_endpoints(masks, group):
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


def reference_lemma_suite(u):
    names, masks, facts = u.names, u.masks, u.facts
    self_, nonself = facts.self_mask, facts.nonself_mask
    lowers, uppers = facts.lower_mask, facts.upper_mask
    succ, pred = facts.successor, facts.predecessor
    s_pair, s_same, s_moved, s_x_in, _, s_lower = _pair_masks(masks, succ, lowers)
    p_pair, p_same, p_moved, p_x_in, p_y_in, p_upper = _pair_masks(masks, pred, uppers)
    lower_succ, upper_succ = lowers & s_pair, uppers & s_pair
    lower_pred, upper_pred = lowers & p_pair, uppers & p_pair
    lower_ends = _link_endpoints(masks, lowers)
    upper_ends = _link_endpoints(masks, uppers)

    # Per part: its statement, the table whose entry follows the bad element
    # in a witness, the elements meeting its hypotheses and those among them
    # where its conclusion fails.
    parts = (
        ("L-lower-not-self", None, lowers, lowers & self_),
        ("L-upper-self", None, uppers, uppers & nonself),
        ("C-not-both", None, u.all_mask, lowers & uppers),
        ("C-stoppage", pred, lower_pred, lower_pred & p_moved),
        ("C-stoppage", succ, upper_succ, upper_succ & s_moved),
        ("L-pred-not-self", pred, p_pair, p_x_in),
        ("L-succ-self", succ, s_pair, s_pair & ~s_x_in),
        ("A", succ, lower_succ, lower_succ & s_same),
        ("B", succ, lower_succ, lower_succ & ~s_lower),
        ("C2", pred, upper_pred, upper_pred & p_same),
        ("D", pred, upper_pred, upper_pred & ~p_upper),
        ("E", pred, upper_pred, upper_pred & ~p_y_in),
        ("main-result", None, lower_ends and upper_ends, lower_ends & upper_ends),
        ("main-result", succ, lower_succ, lower_succ & (s_same | ~s_x_in | ~s_lower)),
        ("main-result", pred, upper_pred, upper_pred & (p_same | ~p_y_in | ~p_upper)),
        # A Russell set is a lower and an upper: restated has no case of its
        # own and fails where C-not-both does.
        ("restated", None, 0, lowers & uppers),
    )
    holds = {tag for tag, _, cases, _ in parts if cases}
    verdicts = {
        tag: Verdict(HOLDS) if tag in holds else Verdict(VACUOUS) for tag in LEMMA_TAGS
    }
    for tag, table, _, bad in parts:
        if bad and verdicts[tag].status != VIOLATED:
            i = (bad & -bad).bit_length() - 1
            witness = (names[i],) if table is None else (names[i], names[table[i]])
            verdicts[tag] = Verdict(VIOLATED, witness)
    return LemmaReport(tuple(verdicts.items()), (MAIN_RESULT_NOTE,))
