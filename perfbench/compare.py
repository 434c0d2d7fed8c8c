"""Summarise one set of benchmark runs, or compare two.

    python3 perfbench/compare.py spread DIR
    python3 perfbench/compare.py diff BASE_DIR NEW_DIR

DIR holds the saved standard output of runs (series.py writes them), one
file per run.  'spread' prints, per workload and metric, the median, the
quartiles and the quartile distance as a share of the median, next to the
metric's bound.  'diff' pairs the runs of the two sets by seed and gives
each metric on each workload a verdict:

* better: the new side wins at least nine tenths of the pairs (ties count
  for neither) and the medians differ by more than the base side's
  quartile distance, or every new run beats every base run;
* worse: the new median is worse than the base median by more than the
  metric's bound (for metrics without a bound: the mirror of 'better');
* unresolved: not better, and the run-to-run spread of either side is
  wider than the bound (without a bound: the medians differ by more than
  the base side's quartile distance);
* unchanged: otherwise.

'diff' exits 1 when an end-to-end metric is worse or unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """(workload, trace) -> seed -> result line of each run in directory."""
    runs: dict = defaultdict(dict)
    for path in sorted(directory.iterdir()):
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        if len(lines) < 2:
            print(f"skipping {path}: no result", file=sys.stderr)
            continue
        record = json.loads(lines[-2])["record"]
        runs[(record["workload"], record["trace"])][record["seed"]] = json.loads(lines[-1])
    return runs


def metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    found = {}
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            found[m["name"]] = dict(m, kind=kind)
    return found


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], statistics.median(values), values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def values_of(results: dict, name: str) -> dict[int, float]:
    return {seed: r["metrics"][name]["value"] for seed, r in results.items() if name in r["metrics"]}


def verdict(base: dict, new: dict, better: str, bound: float | None) -> tuple[str, str]:
    sign = 1 if better == "lower" else -1  # sign * (new - base) > 0 is worse
    b_q1, b_med, b_q3 = quartiles(list(base.values()))
    n_q1, n_med, n_q3 = quartiles(list(new.values()))
    b_iqr = b_q3 - b_q1
    pairs = [(base[s], new[s]) for s in sorted(base.keys() & new.keys())]
    wins = sum(sign * (n - b) < 0 for b, n in pairs)
    losses = sum(sign * (n - b) > 0 for b, n in pairs)
    worse_by = sign * (n_med - b_med)
    tally = f"{wins}/{len(pairs)}"
    if (pairs and wins >= 0.9 * len(pairs) and -worse_by > b_iqr) or all(
        sign * (n - b) < 0 for n in new.values() for b in base.values()
    ):
        return "better", tally
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and worse_by > b_iqr:
            return "worse", tally
        return ("unchanged" if abs(worse_by) <= b_iqr else "unresolved"), tally
    if b_med and worse_by > bound * b_med:
        return "worse", tally
    spreads = [(b_q3 - b_q1) / b_med if b_med else 0.0, (n_q3 - n_q1) / n_med if n_med else 0.0]
    if max(spreads) > bound:
        return "unresolved", tally
    return "unchanged", tally


def cmd_spread(directory: Path) -> int:
    specs = metric_specs()
    for (workload, trace), results in sorted(load(directory).items()):
        wrong = [seed for seed, r in results.items() if not r["correct"] or r["failed"]]
        print(f"{workload} (trace {trace}): {len(results)} runs"
              + (f", INCORRECT at seeds {wrong}" if wrong else ", all correct"))
        names = sorted({n for r in results.values() for n in r["metrics"]})
        for name in names:
            values = list(values_of(results, name).values())
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = specs.get(name, {}).get("bound")
            note = ""
            if bound is not None:
                note = f"bound {bound:.2f} " + (
                    "ok" if spread < bound / 3 else "within bound" if spread <= bound else "TOO WIDE"
                )
            print(f"  {name:32s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {spread:7.2%}  {note}")
    return 0


def cmd_diff(base_dir: Path, new_dir: Path) -> int:
    specs = metric_specs()
    base_runs, new_runs = load(base_dir), load(new_dir)
    status = 0
    for key in sorted(base_runs.keys() & new_runs.keys()):
        workload, trace = key
        print(f"{workload} (trace {trace})")
        base, new = base_runs[key], new_runs[key]
        names = sorted({n for r in base.values() for n in r["metrics"]})
        for name in names:
            b, n = values_of(base, name), values_of(new, name)
            if not b or not n:
                continue
            spec = specs.get(name, {"better": "lower"})
            result, tally = verdict(b, n, spec["better"], spec.get("bound"))
            b_q1, b_med, b_q3 = quartiles(list(b.values()))
            n_q1, n_med, n_q3 = quartiles(list(n.values()))
            change = (n_med - b_med) / b_med if b_med else 0.0
            print(f"  {name:32s} base {b_med:11.6g} [{b_q1:.6g}, {b_q3:.6g}]"
                  f"  new {n_med:11.6g} [{n_q1:.6g}, {n_q3:.6g}]"
                  f"  {change:+7.2%}  wins {tally:>5s}  {result}")
            if spec.get("kind") == "end_to_end" and result in ("worse", "unresolved"):
                status = 1
    return status


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "spread":
        return cmd_spread(Path(argv[1]))
    if len(argv) == 3 and argv[0] == "diff":
        return cmd_diff(Path(argv[1]), Path(argv[2]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
