"""Checks of setlab's outputs against references that setlab did not compute.

The sweeps are checked against pins.json (see derive_pins.py).  The file
workloads are checked against what their generator planted and against the
naive semantics of tests/oracle.py, restated here over frozensets with a
by-extension index so that a 2,000-element universe checks in well under a
second.  Each check returns a list of (step label, problem) pairs; an empty list
means the output is correct.
"""

from __future__ import annotations

import json
from collections import defaultdict


def check_sweep(summary: dict, pins: dict) -> list[tuple[str, str]]:
    problems = []
    for key, want in pins["counts"].items():
        got = summary["counts"].get(key)
        if got != want:
            problems.append(("sweep", f"count {key}: got {got}, want {want}"))
    for tag, want in pins["lemmas"].items():
        got = summary["lemmas"].get(tag)
        if got != want:
            problems.append(("sweep", f"lemma {tag}: got {got}, want {want}"))
    return problems


class Semantics:
    """Naive membership semantics over name -> frozenset of member names."""

    def __init__(self, extensions: dict[str, list[str]]):
        self.ext = {x: frozenset(members) for x, members in extensions.items()}
        self.names = sorted(self.ext)
        self.by_ext: dict[frozenset, list[str]] = defaultdict(list)
        for x in self.names:
            self.by_ext[self.ext[x]].append(x)
        selfs = {x for x in self.names if x in self.ext[x]}
        self.selfs = selfs
        self.nonself = frozenset(self.names) - selfs

    def lower(self, x: str) -> bool:
        return not (self.ext[x] & self.selfs)

    def upper(self, x: str) -> bool:
        return self.nonself <= self.ext[x]

    def successors(self, x: str) -> list[tuple[str, str]]:
        return self.by_ext.get(self.ext[x] | {x}, [])

    def predecessors(self, x: str) -> list[tuple[str, str]]:
        return self.by_ext.get(self.ext[x] - {x}, [])


def _lookup_json(found: list[str]) -> dict:
    if not found:
        return {"kind": "absent"}
    if len(found) == 1:
        return {"kind": "unique", "id": found[0]}
    return {"kind": "multiple", "ids": found}


def _load(outputs: dict, label: str, problems: list):
    code, text = outputs[label]
    if code != 0:
        problems.append((label, f"exit code {code}"))
    try:
        return json.loads(text)
    except ValueError:
        problems.append((label, "output is not JSON"))
        return None


def check_large_sparse(outputs: dict, expect: dict) -> list[tuple[str, str]]:
    """outputs: label -> (exit code, stdout) for one pass."""
    problems: list[tuple[str, str]] = []
    sem = Semantics(expect["extensions"])

    doc = _load(outputs, "check", problems)
    if doc is not None:
        lookups = {"successor": sem.successors, "predecessor": sem.predecessors}
        for report in doc["axioms"]:
            lookup = lookups[report["axiom"]]
            rows = report["per_element"]
            if [row["element"] for row in rows] != sem.names:
                problems.append(("check", f"{report['axiom']}: wrong element order"))
                continue
            want_all = True
            for row in rows:
                found = lookup(row["element"])
                want_all = want_all and len(found) == 1
                if row["result"] != _lookup_json(found):
                    problems.append((
                        "check",
                        f"{report['axiom']} {row['element']}: "
                        f"got {row['result']}, want {_lookup_json(found)}",
                    ))
                    break
            if report["satisfied"] != want_all:
                problems.append(("check", f"{report['axiom']}: wrong 'satisfied'"))

    doc = _load(outputs, "classify", problems)
    if doc is not None:
        want = [
            {
                "element": x,
                "lower": sem.lower(x),
                "upper": sem.upper(x),
                "self_membered": x in sem.selfs,
                "strictly_russellian": False,
            }
            for x in sem.names
        ]
        if doc["elements"] != want:
            problems.append(("classify", "element rows differ from the reference"))
        if doc["russell_witness"] is not None:
            problems.append(("classify", "found a Russell witness"))
        if sorted(x for x in sem.names if sem.upper(x)) != expect["uppers"]:
            problems.append(("classify", "uppers are not the planted chain"))

    doc = _load(outputs, "verify", problems)
    if doc is not None:
        for lemma in doc["lemmas"]:
            want = "vacuous" if lemma["tag"] == "restated" else "holds"
            if lemma["status"] != want:
                problems.append(
                    ("verify", f"{lemma['tag']}: got {lemma['status']}, want {want}")
                )
        if doc["ok"] is not True:
            problems.append(("verify", "not ok"))

    for label, start, nodes in (
        ("chains-asc", expect["asc_start"], expect["asc_nodes"]),
        ("chains-desc", expect["desc_start"], expect["desc_nodes"]),
    ):
        doc = _load(outputs, label, problems)
        if doc is None:
            continue
        if (doc["from"], doc["nodes"], doc["terminated_by"]) != (start, nodes, "absent"):
            problems.append((
                label,
                f"got {doc['nodes']} ({doc['terminated_by']}), want {nodes} (absent)",
            ))
    return problems


def check_interp_dense(outputs: dict, expect: dict) -> list[tuple[str, str]]:
    problems: list[tuple[str, str]] = []
    doc = _load(outputs, "upperchain", problems)
    if doc is not None:
        if doc["ok"] is not True:
            problems.append(("upperchain", "not ok"))
        if doc["universal"] != expect["universal"]:
            problems.append(("upperchain", "wrong universal set"))
        if doc["nodes"] != expect["chain_nodes"]:
            problems.append(("upperchain", "chain is not the first untagged urelements"))
    doc = _load(outputs, "forster", problems)
    if doc is not None:
        if doc["ok"] is not True:
            problems.append(("forster", "not ok"))
        want = (expect["universal"], expect["forster_n"], expect["forster_m"])
        if (doc["universal"], doc["n"], doc["m"]) != want:
            problems.append(("forster", f"got the wrong pair, want {want}"))
    return problems


CHECKS = {"large-sparse": check_large_sparse, "interp-dense": check_interp_dense}
