"""Layer-boundary spans around setlab's public functions.

The tracer replaces each public function of the traced modules, in every
setlab namespace that holds it, with a wrapper that opens a span when the
call enters the function's layer from another layer (or from the
benchmark).  Calls that stay inside one layer run unwrapped, so a span's
self time is the time its layer was busy on behalf of the caller.

Universe accessors (index, members_mask, is_member, ...) are left alone:
a sweep calls them millions of times and a span would cost more than they
do.  Only the lookups and construction are spanned there.

Spans are kept in memory as (id, name, start, end, parent id) and written
out once the run ends, together with per-name totals for every traced pass.
A sweep opens millions of spans a pass, so it keeps only the outermost ones
and the totals.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import time
from collections import Counter

LAYERS = ("dsl", "universe", "classifier", "audit", "enumerator", "interp", "cli")

# Universe methods that get spans; everything else on the class is an
# accessor (see the module docstring).
UNIVERSE_METHODS = ("successor_in", "predecessor_in", "from_extensions", "__post_init__")


class Tracer:
    """Per-name call counts, inclusive and self time, plus optional spans."""

    def __init__(self, workload: str, span_depth: int | None):
        """span_depth: keep the spans at most this deep (None keeps all)."""
        self.workload = workload
        self.span_depth = span_depth
        self.stats: dict[str, list] = {}
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.totals: list[dict] = []
        self._ids = itertools.count(1)
        # Frame: [layer, time covered by child spans, span id].
        self._stack: list[list] = [[None, 0.0, 0]]
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, fn, name: str, layer: str, on_result=None):
        """Return fn wrapped in a span named name in the given layer.

        on_result, when given, is called with every result, spanned or not.
        """
        stack = self._stack
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter
        ids = self._ids
        spans = self.spans
        depth = self.span_depth if self.span_depth is not None else float("inf")

        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == layer:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            frame = [layer, 0.0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                if len(stack) <= depth:
                    spans.append((frame[2], name, start, end, parent[2]))
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_calls(self, fn, key: str):
        """Return fn wrapped so that each call adds one to counts[key]."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def reset(self) -> None:
        """Save the per-name totals of the pass just traced, then zero them;
        recorded spans are kept."""
        self.totals.append(
            {
                "pass": len(self.totals),
                "calls": {n: s[0] for n, s in self.stats.items() if s[0]},
                "total_s": {n: s[1] for n, s in self.stats.items() if s[0]},
                "self_s": {n: s[2] for n, s in self.stats.items() if s[0]},
                "counts": dict(self.counts),
                "workload": self.workload,
            }
        )
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.counts.clear()

    # -- installing into setlab ----------------------------------------------

    def install(self, hooks: dict, counted: dict) -> None:
        """Wrap every public function of the traced setlab modules.

        hooks maps a span name to an on_result callback; counted maps a span
        name to a counter key for functions that are counted, not spanned.
        """
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "setlab" or name.startswith("setlab.")
        }
        replacements = {}
        for layer in LAYERS:
            mod = modules[f"setlab.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in counted:
                    replacements[obj] = self.count_calls(obj, counted[name])
                else:
                    replacements[obj] = self.wrap(obj, name, layer, hooks.get(name))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    self._patch(mod, attr, replacements[obj])

        universe_cls = modules["setlab.universe"].Universe
        for attr in UNIVERSE_METHODS:
            raw = universe_cls.__dict__[attr]
            name = f"universe.Universe.{attr}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(raw.__func__, name, "universe"))
            else:
                wrapped = self.wrap(raw, name, "universe", hooks.get(name))
            self._patch(universe_cls, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reading back --------------------------------------------------------

    def total(self, *names: str) -> float:
        """Inclusive time of the spans with the given names."""
        return sum(self.stats[n][1] for n in names if n in self.stats)

    def calls(self, *names: str) -> int:
        return sum(self.stats[n][0] for n in names if n in self.stats)

    def self_time(self, layer: str) -> float:
        return sum(
            s[2] for n, s in self.stats.items() if n.split(".", 1)[0] == layer
        )

    def write_spans(self, path) -> None:
        """Write the recorded spans, then the per-pass totals, one JSON
        object a line."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, start, end, parent in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "workload": self.workload,
                        }
                    )
                    + "\n"
                )
            for totals in self.totals:
                out.write(json.dumps({"totals": totals}) + "\n")
