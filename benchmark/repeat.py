"""Run one workload on several seeds and summarise each metric's spread.

    python3 benchmark/repeat.py --workload search --seeds 1-10

Prints one Markdown row per metric: the median of the per-run values, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
distance between them as a share of the median, the spread each bound in
``BENCHMARK.json`` is derived from.  It also prints the share of failed
operations of every run.  Each run is ``run.py --trace 0`` for
``BENCHMARK.json``'s ``run_seconds`` unless ``--seconds`` says otherwise.
Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", default=str(json.loads(
        (HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]))
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']}"
              f" ({result['failed'] / result['attempted']:.6f})", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"\n| metric | unit | median | Q1 | Q3 | (Q3-Q1)/median |\n|---|---|---|---|---|---|")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"| {name} | {units[name]} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
