"""Derive the pinned sweep counts in pins.json from the naive oracle.

The sweep workloads check setlab's per-universe results against counts that
setlab did not compute: every universe of size 4 is rebuilt as a plain dict
and evaluated with the reference semantics in tests/oracle.py, and each
lemma is restated here straight from its definition.  Takes a few seconds;
run it only when the lemma suite or the enumeration contract changes:

    python3 perfbench/derive_pins.py > perfbench/pins.json
"""

from __future__ import annotations

import itertools
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

import oracle  # noqa: E402

N = 4
HOLDS, VACUOUS, VIOLATED = "holds", "vacuous", "violated"
LEMMAS = (
    "L-lower-not-self", "L-upper-self", "C-not-both", "C-stoppage",
    "L-pred-not-self", "L-succ-self", "A", "B", "C2", "D", "E",
    "main-result", "restated",
)


def universe(code: int) -> dict[str, set[str]]:
    """Bit i*N+j of code set means e<j> is a member of e<i>."""
    return {
        f"e{i}": {f"e{j}" for j in range(N) if code >> (i * N + j) & 1}
        for i in range(N)
    }


def verdict(cases) -> str:
    """cases: one bool per element meeting the hypotheses."""
    cases = list(cases)
    if not cases:
        return VACUOUS
    return HOLDS if all(cases) else VIOLATED


def unique(found: list[str]) -> str | None:
    return found[0] if len(found) == 1 else None


def lemma_verdicts(d) -> dict[str, str]:
    lowers = [x for x in d if oracle.is_lower(d, x)]
    uppers = [x for x in d if oracle.is_upper(d, x)]
    succ = {x: unique(oracle.successors(d, x)) for x in d}
    pred = {x: unique(oracle.predecessors(d, x)) for x in d}
    low_succ = [(x, succ[x]) for x in lowers if succ[x] is not None]
    up_pred = [(x, pred[x]) for x in uppers if pred[x] is not None]
    nonself = {z for z in d if not oracle.self_membered(d, z)}

    def link_ends(group):
        return {
            e
            for x, y in itertools.permutations(group, 2)
            if oracle.is_member(d, y, x)
            for e in (x, y)
        }

    lower_ends, upper_ends = link_ends(lowers), link_ends(uppers)
    if not lower_ends or not upper_ends:
        links = VACUOUS
    else:
        links = VIOLATED if lower_ends & upper_ends else HOLDS
    parts = [
        links,
        verdict(
            y != x and oracle.is_member(d, x, y) and oracle.is_lower(d, y)
            for x, y in low_succ
        ),
        verdict(
            y != x and oracle.is_member(d, y, x) and oracle.is_upper(d, y)
            for x, y in up_pred
        ),
    ]
    if VIOLATED in parts:
        main = VIOLATED
    elif all(p == VACUOUS for p in parts):
        main = VACUOUS
    else:
        main = HOLDS

    return {
        "L-lower-not-self": verdict(not oracle.self_membered(d, x) for x in lowers),
        "L-upper-self": verdict(oracle.self_membered(d, x) for x in uppers),
        "C-not-both": verdict(
            not oracle.is_strictly_russellian(d, x) for x in d
        ),
        "C-stoppage": verdict(
            [oracle.coextensive(d, x, pred[x]) for x in lowers if pred[x]]
            + [oracle.coextensive(d, x, succ[x]) for x in uppers if succ[x]]
        ),
        "L-pred-not-self": verdict(
            not oracle.is_member(d, x, y) for x, y in pred.items() if y
        ),
        "L-succ-self": verdict(
            oracle.is_member(d, x, y) for x, y in succ.items() if y
        ),
        "A": verdict(y != x for x, y in low_succ),
        "B": verdict(oracle.is_lower(d, y) for _, y in low_succ),
        "C2": verdict(y != x for x, y in up_pred),
        "D": verdict(oracle.is_upper(d, y) for _, y in up_pred),
        "E": verdict(oracle.is_member(d, y, x) for x, y in up_pred),
        "main-result": main,
        # A Russell set x would need x in ext(x) and x not in ext(x).
        "restated": verdict(
            (x in d[x]) and (x not in d[x]) for x in d if d[x] == nonself
        ),
    }


def is_canonical(code: int) -> bool:
    """True iff code is the least matrix integer over all relabellings."""
    rows = [code >> (i * N) & ((1 << N) - 1) for i in range(N)]
    for perm in itertools.permutations(range(N)):
        relabelled = 0
        for i_new, i_old in enumerate(perm):
            for j_new, j_old in enumerate(perm):
                if rows[i_old] >> j_old & 1:
                    relabelled |= 1 << (i_new * N + j_new)
        if relabelled < code:
            return False
    return True


def tally(codes) -> dict:
    verdicts = {tag: Counter() for tag in LEMMAS}
    counts = Counter()
    for code in codes:
        d = universe(code)
        counts["universes"] += 1
        counts["lowers"] += sum(oracle.is_lower(d, x) for x in d)
        counts["uppers"] += sum(oracle.is_upper(d, x) for x in d)
        counts["russell_witnesses"] += bool(oracle.russell_candidates(d))
        succ_ok = oracle.satisfies_successor(d)
        pred_ok = oracle.satisfies_predecessor(d)
        counts["satisfies_successor"] += succ_ok
        counts["satisfies_predecessor"] += pred_ok
        counts["satisfies_both"] += succ_ok and pred_ok
        for tag, status in lemma_verdicts(d).items():
            verdicts[tag][status] += 1
    return {
        "counts": dict(sorted(counts.items())),
        "lemmas": {
            tag: {s: verdicts[tag][s] for s in (HOLDS, VACUOUS, VIOLATED)}
            for tag in LEMMAS
        },
    }


def main() -> None:
    codes = range(1 << (N * N))
    pins = {
        "n": N,
        "sweep-n4": tally(codes),
        "dedupe-n4": tally(c for c in codes if is_canonical(c)),
    }
    print(json.dumps(pins, indent=2))


if __name__ == "__main__":
    main()
