"""Run the benchmark over several seeds and keep every run's output.

    python3 perfbench/series.py --out DIR [--workloads a,b] [--seeds 1-10]
                                [--trace 0|1] [--seconds S]

Runs one at a time, workload by workload, and writes each run's standard
output to DIR/<workload>-seed<N>-trace<T>.out; compare.py reads those files.
Seconds default to run_seconds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10", type=seed_range)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    parser.add_argument("--seconds", default=spec["run_seconds"], type=int)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    status = 0
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            path = args.out / f"{workload}-seed{seed}-trace{args.trace}.out"
            done = subprocess.run(
                [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                ],
                cwd=ROOT,
                stdout=subprocess.PIPE,
                text=True,
            )
            path.write_text(done.stdout, encoding="utf-8")
            last = done.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{workload} seed {seed}: exit {done.returncode} {last[0][:160]}", flush=True)
            status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
