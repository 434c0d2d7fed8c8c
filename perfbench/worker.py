"""Timed passes of one workload, in a fresh interpreter.

run.py starts this script once per run and waits for it; the peak RSS it
reports is therefore this process's own.  Usage:

    python3 perfbench/worker.py WORKLOAD INPUT SECONDS TRACE WORKDIR

It repeats whole passes of the workload until the next one would overrun
SECONDS, then writes WORKDIR/result.json.  The first pass's CLI outputs go
to WORKDIR/<step>.out for run.py to check; later passes must reproduce them
byte for byte.  With TRACE=1 the passes alternate untraced and traced, and
the traced ones give the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import setlab.cli  # noqa: E402
from setlab import audit, classifier, enumerator  # noqa: E402
from setlab.universe import Unique  # noqa: E402

from inputs import ASC_START, CHAIN_K, DESC_START  # noqa: E402
from probe import burst, corrected  # noqa: E402
from spans import Tracer  # noqa: E402

clock = time.perf_counter

SWEEP_N = 4
COMMANDS = ("check", "classify", "verify", "chains", "upperchain", "forster")
LOOKUPS = ("universe.Universe.successor_in", "universe.Universe.predecessor_in")
BUILDS = ("universe.Universe.from_extensions", "universe.Universe.__post_init__")
PARSES = ("dsl.parse_universe", "dsl.parse_document")
# Probes per speed reading around a CLI call: its only readings are at its
# two ends, so each is the median of a few.
CLI_BURST = 3


class Sweep:
    """Every n=4 universe (or one per isomorphism class) through the audit.

    Every mark_every visits the pass ends a segment and probes the machine's
    speed; segments are the same work on every pass (see pass_seconds).
    """

    def __init__(self, dedupe: bool, mark_every: int):
        self.spec = enumerator.EnumSpec(n=SWEEP_N, dedupe=dedupe)
        self.mark_every = mark_every

    def run(self, tracer: Tracer | None) -> dict:
        # Looked up here so that a traced pass calls the wrapped functions.
        check_axiom = audit.check_axiom
        classify_all = classifier.classify_all
        russell_witness = classifier.russell_witness
        verify_lemma_suite = audit.verify_lemma_suite
        successor, predecessor = audit.SUCCESSOR, audit.PREDECESSOR
        every = self.mark_every
        starts: list[float] = []
        ends: list[float] = []
        probes: list[float] = []
        speed = [burst(1, probes)]
        tally: Counter = Counter()
        tags: list[str] = []
        visited = 0
        raised = 0

        def visit(u):
            nonlocal visited, raised
            try:
                succ = check_axiom(u, successor)
                pred = check_axiom(u, predecessor)
                rows = classify_all(u)
                witness = russell_witness(u)
                report = verify_lemma_suite(u)
            except Exception:  # counted as a failed operation
                raised += 1
            else:
                if not tags:
                    tags.extend(tag for tag, _ in report.per_lemma)
                tally[
                    (
                        succ.satisfied,
                        pred.satisfied,
                        sum([row.lower for row in rows]),
                        sum([row.upper for row in rows]),
                        witness is not None,
                        tuple([verdict.status for _, verdict in report.per_lemma]),
                    )
                ] += 1
            visited += 1
            if visited % every == 0:
                ends.append(clock())
                speed.append(burst(1, probes))
                starts.append(clock())

        if tracer is not None:
            visit = tracer.wrap(visit, "bench.visit", "bench")
        start = clock()
        starts.append(start)
        stats = enumerator.enumerate_universes(self.spec, visit=visit)
        end = clock()
        ends.append(end)
        speed.append(burst(1, probes))
        return {
            "segments": [
                (e - s, speed[i], speed[i + 1])
                for i, (s, e) in enumerate(zip(starts, ends))
            ],
            "probes": probes,
            "wall": end - start,
            "ops": stats.total,
            "raised": raised,
            "summary": _summarize(tally, tags),
            "steps": [],
        }


def _summarize(tally: Counter, tags: list[str]) -> dict:
    counts = Counter()
    lemmas = {tag: Counter() for tag in tags}
    for (succ, pred, lowers, uppers, witness, statuses), k in tally.items():
        counts["universes"] += k
        counts["lowers"] += lowers * k
        counts["uppers"] += uppers * k
        counts["russell_witnesses"] += witness * k
        counts["satisfies_successor"] += succ * k
        counts["satisfies_predecessor"] += pred * k
        counts["satisfies_both"] += (succ and pred) * k
        for tag, status in zip(tags, statuses):
            lemmas[tag][status] += k
    return {
        "counts": dict(counts),
        "lemmas": {
            tag: {s: c[s] for s in ("holds", "vacuous", "violated")}
            for tag, c in lemmas.items()
        },
    }


class Cli:
    """A fixed list of in-process CLI calls; steps: (label, command, argv,
    timed).  Only timed steps count towards pass_s."""

    def __init__(self, steps: list[tuple[str, str, list[str], bool]]):
        self.steps = steps

    def run(self, tracer: Tracer | None) -> dict:
        main = setlab.cli.main
        cli_stat = tracer.stats.setdefault("cli.main", [0, 0.0, 0.0]) if tracer else None
        steps = []
        probes: list[float] = []
        speed = [burst(CLI_BURST, probes)]
        start = clock()
        for label, command, argv, timed in self.steps:
            out, err = io.StringIO(), io.StringIO()
            self_before = cli_stat[2] if cli_stat else 0.0
            with redirect_stdout(out), redirect_stderr(err):
                t0 = clock()
                try:
                    code = main(argv)
                except Exception:  # a crash is a failed step, not a failed run
                    code = -1
                    err.write(traceback.format_exc())
                t1 = clock()
            speed.append(burst(CLI_BURST, probes))
            text = out.getvalue()
            steps.append(
                {
                    "label": label,
                    "command": command,
                    "timed": timed,
                    "seconds": t1 - t0,
                    "speed": speed[-2:],
                    "code": code,
                    "text": text,
                    "stderr": err.getvalue()[-2000:],
                    "bytes": len(text.encode()),
                    "sha256": hashlib.sha256(text.encode()).hexdigest(),
                    "cli_self": (cli_stat[2] - self_before) if cli_stat else 0.0,
                }
            )
        end = clock()
        return {
            "segments": [(s["seconds"], *s["speed"]) for s in steps if s["timed"]],
            "probes": probes,
            "wall": end - start,
            "ops": len(steps),
            "steps": steps,
        }


def build(workload: str, path: str):
    if workload == "sweep-n4":
        return Sweep(dedupe=False, mark_every=1024)
    if workload == "dedupe-n4":
        return Sweep(dedupe=True, mark_every=64)
    fmt = ["--format", "json"]
    if workload == "large-sparse":
        return Cli(
            [
                ("check", "check", ["check", path, *fmt], True),
                ("classify", "classify", ["classify", path, *fmt], True),
                ("verify", "verify", ["verify", path, *fmt], True),
                ("chains-asc", "chains", ["chains", path, "--from", ASC_START, "--dir", "asc", *fmt], True),
                ("chains-desc", "chains", ["chains", path, "--from", DESC_START, "--dir", "desc", *fmt], True),
            ]
        )
    if workload == "interp-dense":
        model = ["interp", "--model", path]
        return Cli(
            [
                ("upperchain", "upperchain", [*model, "--demo", "upperchain", "--k", str(CHAIN_K), *fmt], True),
                ("forster", "forster", [*model, "--demo", "forster", *fmt], False),
            ]
        )
    raise ValueError(f"unknown workload {workload!r}")


# -- per-layer metrics of one traced pass ------------------------------------


def _hooks(counts: Counter) -> dict:
    def verdicts(report):
        counts["verdicts"] += len(report.per_lemma)
        counts["holds"] += sum(v.status == audit.HOLDS for _, v in report.per_lemma)

    def chain(result):
        counts["chain_steps"] += len(result.nodes) - 1

    def lookup(result):
        counts["unique_lookups"] += type(result) is Unique

    return {
        "audit.verify_lemma_suite": verdicts,
        "audit.trace_chain": chain,
        LOOKUPS[0]: lookup,
        LOOKUPS[1]: lookup,
    }


def layer_metrics(tr: Tracer, done: dict, input_bytes: int) -> dict:
    total, calls = tr.total, tr.calls

    def ratio(a, b):
        return a / b if b else 0.0

    counts = tr.counts
    parse_s = tr.self_time("dsl")
    lookups = calls(*LOOKUPS)
    visited = calls("bench.visit")
    m = {
        "dsl.parse_s": parse_s,
        "dsl.parse_mb_per_s": ratio(calls(*PARSES) * input_bytes / 1e6, parse_s),
        "universe.build_s": total(*BUILDS),
        "universe.lookup_s": total(*LOOKUPS),
        "universe.lookups": lookups,
        "universe.unique_ratio": ratio(counts["unique_lookups"], lookups),
        "classifier.self_s": tr.self_time("classifier"),
        "classifier.classify_all_s": total("classifier.classify_all"),
        "classifier.russell_witness_s": total("classifier.russell_witness"),
        "classifier.is_lower_s": total("classifier.is_lower"),
        "classifier.is_upper_s": total("classifier.is_upper"),
        "audit.self_s": tr.self_time("audit"),
        "audit.check_axiom_s": total("audit.check_axiom"),
        "audit.verify_suite_s": total("audit.verify_lemma_suite"),
        "audit.holds_ratio": ratio(counts["holds"], counts["verdicts"]),
        "audit.trace_chain_s": total("audit.trace_chain"),
        "audit.chain_steps": counts["chain_steps"],
        "enumerator.self_s": tr.self_time("enumerator"),
        "enumerator.visited": visited,
        "enumerator.kept_ratio": visited / 2 ** (SWEEP_N * SWEEP_N),
        "interp.self_s": tr.self_time("interp"),
        "interp.model_s": total("interp.parse_model"),
        "interp.upper_chain_s": total("interp.upper_chain_interp"),
        "interp.materialize_s": total("interp.materialize"),
        "interp.member_queries": counts["member_queries"],
        "interp.forster_s": total("interp.verify_forster_counterexample"),
        "trace.spans": sum(stat[0] for stat in tr.stats.values()),
    }
    for command in COMMANDS:
        steps = [s for s in done["steps"] if s["command"] == command]
        m[f"cli.self_s.{command}"] = sum(s["cli_self"] for s in steps)
        m[f"cli.output_bytes.{command}"] = sum(s["bytes"] for s in steps)
    return m


# -- running the passes ------------------------------------------------------


def pass_seconds(passes: list[dict], fastest: float) -> float:
    """Time of one complete pass at the run's full machine speed.

    Segments are the same work on every pass (one CLI call, or a fixed run
    of visits).  Each reading is corrected by the speed probes on either side
    of it (see probe.py); the median corrected reading of every segment is
    summed.
    """
    return sum(
        statistics.median(corrected(t, (a, b), fastest) for t, a, b in readings)
        for readings in zip(*(p["segments"] for p in passes))
    )


def corrected_total(p: dict, fastest: float) -> float:
    return sum(corrected(t, (a, b), fastest) for t, a, b in p["segments"])


def run(workload: str, path: str, seconds: float, trace: bool, workdir: Path) -> dict:
    plan = build(workload, path)
    input_bytes = Path(path).stat().st_size if path else 0
    # A sweep keeps the pass and enumerate_universes spans, not the visits.
    tracer = Tracer(workload, None if isinstance(plan, Cli) else 2) if trace else None
    passes: list[dict] = []
    first_sha: dict[str, str] = {}
    outputs: dict[str, int] = {}
    began = clock()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.install(hooks=_hooks(tracer.counts),
                           counted={"interp.member_interp": "member_queries"})
            try:
                done = tracer.wrap(plan.run, "bench.pass", "bench")(tracer)
            finally:
                tracer.uninstall()
            done["layer"] = layer_metrics(tracer, done, input_bytes)
            tracer.reset()
        else:
            done = plan.run(None)
        done["traced"] = traced
        done["failed"] = 0
        for step in done["steps"]:
            text = step.pop("text")
            if step["label"] not in first_sha:
                first_sha[step["label"]] = step["sha256"]
                (workdir / f"{step['label']}.out").write_text(text, encoding="utf-8")
                outputs[step["label"]] = step["code"]
            elif step["code"] != 0 or step["sha256"] != first_sha[step["label"]]:
                done["failed"] += 1
        passes.append(done)
        del done
        elapsed = clock() - began
        longest = max(p["wall"] for p in passes)
        if len(passes) >= (2 if trace else 1) and elapsed + longest > seconds:
            break

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    plain = [p for p in passes if not p["traced"]]
    fastest = min(x for p in passes for x in p["probes"])
    metrics = {"pass_s": pass_seconds(plain, fastest), "peak_rss_mb": peak_kb / 1024}
    for command in COMMANDS:
        metrics[f"cli.main_s.{command}"] = statistics.median(
            sum(
                corrected(s["seconds"], s["speed"], fastest)
                for s in p["steps"]
                if s["command"] == command
            )
            for p in plain
        )
    spans_file = None
    if trace:
        traced_passes = [p for p in passes if p["traced"]]
        for p in traced_passes:
            # Layer times are corrected by the pass's median probe.
            scale = fastest / statistics.median(p["probes"])
            for name, value in p["layer"].items():
                if name.endswith("_s"):
                    p["layer"][name] = value * scale
        for name in traced_passes[0]["layer"]:
            metrics[name] = statistics.median(p["layer"][name] for p in traced_passes)
        metrics["trace.overhead_ratio"] = statistics.median(
            corrected_total(p, fastest) for p in traced_passes
        ) / statistics.median(corrected_total(p, fastest) for p in plain)
        spans_file = str(workdir / "spans.jsonl")
        tracer.write_spans(spans_file)
    return {
        "passes": passes,
        "outputs": outputs,
        "metrics": metrics,
        "spans_file": spans_file,
    }


def main(argv: list[str]) -> int:
    workload, path, seconds, trace, workdir = argv
    workdir = Path(workdir)
    result = run(workload, path, float(seconds), trace == "1", workdir)
    (workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
