"""setlab benchmark runner (standard library only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The runner

1. generates the workload's input from the seed (file workloads only) and
   records its SHA-256;
2. times SETUP_SAMPLES fresh interpreters that import setlab and
   setlab.cli (setup_s is their median wall time, corrected for machine
   speed as described in probe.py);
3. starts worker.py in one more fresh interpreter, which repeats whole
   passes of the workload for S seconds and reports its peak RSS;
4. checks every output against a reference that setlab did not compute
   (reference.py), and
5. prints a record line, then the result line: with --trace 0 every
   end-to-end metric of BENCHMARK.json, with --trace 1 every per-layer one.

Child processes run one at a time.  Everything the run writes goes under
perfbench/_work/, and a traced run leaves its spans there as JSON lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from inputs import GENERATORS  # noqa: E402
from probe import burst, corrected  # noqa: E402
from reference import CHECKS, check_sweep  # noqa: E402

WORKLOADS = ("sweep-n4", "dedupe-n4", "large-sparse", "interp-dense")
SETUP_SAMPLES = 15
SETUP_BURST = 3
# A run must end within 180 s; keep some of that for checking and output.
RUN_LIMIT_S = 170

SETUP_CODE = """\
import time
t0 = time.perf_counter()
import sys
sys.path.insert(0, {src!r})
import setlab, setlab.cli
print(time.perf_counter() - t0)
"""


def measure_setup() -> tuple[float, float]:
    """Median wall time of a fresh interpreter that imports setlab and
    setlab.cli, and median import time as measured inside it, both corrected
    by speed probes taken around each interpreter (see probe.py).  The first
    interpreter only fills the bytecode cache and is not counted."""
    argv = [sys.executable, "-c", SETUP_CODE.format(src=str(SRC))]
    samples = []
    probes: list[float] = []
    speed = [burst(SETUP_BURST, probes)]
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        done = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
        wall = time.perf_counter() - start
        speed.append(burst(SETUP_BURST, probes))
        if i:
            samples.append((wall, float(done.stdout), speed[-2:]))
    fastest = min(probes)
    return (
        statistics.median(corrected(w, around, fastest) for w, _, around in samples),
        statistics.median(corrected(t, around, fastest) for _, t, around in samples),
    )


def make_input(workload: str, seed: int, workdir: Path) -> dict:
    if workload not in GENERATORS:
        return {"path": "", "sha256": None, "bytes": 0, "expect": None}
    text, expect = GENERATORS[workload](seed)
    data = text.encode("utf-8")
    path = workdir / f"{workload}.setlab"
    path.write_bytes(data)
    return {
        "path": str(path),
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "expect": expect,
    }


def check(workload: str, result: dict, made: dict, workdir: Path) -> tuple[int, list, dict]:
    """Failed operation count, problems and lemma verdicts of a run."""
    passes = result["passes"]
    failed = sum(p["failed"] for p in passes)
    problems: list = []
    if workload in CHECKS:
        outputs = {
            label: (code, (workdir / f"{label}.out").read_text(encoding="utf-8"))
            for label, code in result["outputs"].items()
        }
        problems = CHECKS[workload](outputs, made["expect"])
        failed += len({label for label, _ in problems})
        verdicts = {}
        if "verify" in outputs and outputs["verify"][0] == 0:
            verdicts = {
                row["tag"]: row["status"]
                for row in json.loads(outputs["verify"][1])["lemmas"]
            }
        for label in ("upperchain", "forster"):
            if label in outputs and outputs[label][0] == 0:
                verdicts[label] = "ok" if json.loads(outputs[label][1])["ok"] else "FAIL"
        return failed, problems, verdicts
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))[workload]
    for p in passes:
        found = check_sweep(p["summary"], pins)
        if p["raised"]:
            found.append(("sweep", f"{p['raised']} universes raised"))
        if found:
            failed += p["ops"]
            problems.extend(found)
    return failed, problems, passes[0]["summary"]["lemmas"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    began = time.perf_counter()

    if not (SRC / "setlab" / "__init__.py").is_file():
        print(f"error: no setlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = HERE / "_work"
    workdir = work / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        made = make_input(args.workload, args.seed, workdir)
        setup_s, import_s = measure_setup()
        done = subprocess.run(
            [
                sys.executable,
                str(HERE / "worker.py"),
                args.workload,
                made["path"],
                str(args.seconds),
                str(args.trace),
                str(workdir),
            ],
            stdout=sys.stderr,
            timeout=max(1.0, RUN_LIMIT_S - (time.perf_counter() - began)),
        )
        if done.returncode != 0:
            print(f"error: worker exited with code {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
        failed, problems, verdicts = check(args.workload, result, made, workdir)
        spans = None
        if result["spans_file"]:
            spans = work / f"spans-{args.workload}-seed{args.seed}.jsonl"
            shutil.move(result["spans_file"], spans)
    except subprocess.TimeoutExpired:
        print("error: the worker did not finish in time", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = dict(result["metrics"], setup_s=setup_s)
    metrics["cli.import_s"] = import_s
    passes = result["passes"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_sha256": made["sha256"],
        "input_bytes": made["bytes"],
        "passes": len(passes),
        "traced_passes": sum(p["traced"] for p in passes),
        "verdicts": verdicts,
        "problems": [f"{label}: {text}"[:300] for label, text in problems[:20]],
        "spans_file": str(spans.relative_to(ROOT)) if spans else None,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": sum(p["ops"] for p in passes),
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
