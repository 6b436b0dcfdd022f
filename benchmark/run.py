"""Run one benchmark workload and print its result as one JSON line.

    python3 benchmark/run.py --workload search --seed 1 --seconds 15 --trace 0

Workloads: ``pipeline`` (the ``vkg`` CLI stages as processes), ``search``
(a long-lived store answering composite queries) and ``graph_rw`` (a
model-free graph under graph-only queries and updates).  Every output is
checked against the oracles in ``oracles.py``; a wrong result counts as a
failed operation and makes the exit code 1.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the workload runs again with spans around every call into ``vkg`` and the
metrics are the per-layer ones; the spans go to
``.benchwork/traces/<workload>-<seed>.json`` and the tracing overhead to
stderr.  Work files live under ``.benchwork/`` in the checkout and are
removed when the run ends.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("pipeline", "search", "graph_rw")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    common.WORK = common.ROOT / ".benchwork" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = spans.Tracer() if args.trace else None
    try:
        oracles.self_check()
        module = importlib.import_module(args.workload)
        ledger, e2e, layer, info = module.run(args.seed, args.seconds, tracer)
    except (common.SetupError, common.CheckFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(common.WORK, ignore_errors=True)

    print(f"{args.workload} seed {args.seed}: {info}", file=sys.stderr)
    for error in ledger.errors:
        print(f"failed: {error}", file=sys.stderr)
    metrics = e2e
    if tracer is not None:
        overhead = layer.pop("_overhead")
        path = common.ROOT / ".benchwork" / "traces" / f"{args.workload}-{args.seed}.json"
        spans.write_json(path, {"workload": args.workload, "seed": args.seed,
                                "tracing_overhead": overhead, "per_layer": layer},
                        tracer.spans)
        print(f"tracing overhead {overhead}; spans in {path}", file=sys.stderr)
        metrics = layer
    correct = ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
