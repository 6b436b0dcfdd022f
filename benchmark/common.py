"""Pieces every workload shares: paths, the operation ledger, statistics."""

from __future__ import annotations

import gc
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".benchwork"


class SetupError(RuntimeError):
    """The checkout lacks what the benchmark drives (no ``src/vkg``)."""


def import_vkg():
    """Import ``vkg`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "vkg" / "__init__.py").is_file():
        raise SetupError(f"no vkg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import vkg
    if Path(vkg.__file__).resolve().parent != (SRC / "vkg").resolve():
        raise SetupError(f"vkg imported from {vkg.__file__}, not from {SRC}")
    return vkg


def child_env() -> dict[str, str]:
    """Environment for ``python -m vkg.cli`` children: this checkout's sources,
    and no ``VKG_SEED`` to override the workspace's training seed."""
    env = {k: v for k, v in os.environ.items() if k != "VKG_SEED"}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(args: list[str], cwd: Path | None = None) -> tuple[float, str]:
    """Run one ``vkg`` subcommand as a process; (wall seconds, stdout)."""
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "vkg.cli", *args], cwd=cwd,
                          env=child_env(), capture_output=True, text=True,
                          timeout=120)
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        raise CheckFailed(f"vkg {' '.join(args[:3])} exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-300:]}")
    return elapsed, proc.stdout


def key_values(stdout: str) -> dict[str, str]:
    """The ``key value`` lines of a subcommand's stdout."""
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        out[key] = value
    return out


class CheckFailed(AssertionError):
    """An output differs from the independent computation."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Ledger:
    """Attempted and failed operations, plus latency samples by kind."""

    attempted: int = 0
    failed: int = 0
    samples: dict[str, list[float]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    tracer: object = None    # a spans.Tracer in a traced run

    def run(self, kind: str | None, op, verify=None):
        """Time ``op()``, then check its result with ``verify``; a raised
        error or a failed check counts the operation as failed."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = f"{kind}:{self.attempted}"
        try:
            started = time.perf_counter()
            result = op()
            elapsed = time.perf_counter() - started
            if verify is not None:
                verify(result)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            self.fail(f"{kind or 'op'}: {type(exc).__name__}: {exc}")
            return None
        if kind is not None:
            self.samples.setdefault(kind, []).append(elapsed)
        return result

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def run_rounds(seconds: float, round_fn) -> int:
    """Call ``round_fn(r)`` for whole rounds until ``seconds`` have passed.

    Everything alive when the phase starts -- the store and the oracles --
    is frozen out of the cyclic collector, as a long-lived server would do,
    so a collection inside an operation scans only what the run allocated.
    """
    gc.collect()
    gc.freeze()
    started = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - started < seconds:
        round_fn(rounds)
        rounds += 1
    return rounds


def median(values: list[float]) -> float:
    return statistics.median(values)


P95_WINDOW = 100


def p95(values: list[float]) -> float:
    """Median over windows of P95_WINDOW consecutive samples (the last takes
    the remainder) of each window's 95th percentile, linear between closest
    ranks.  A slow spell of the machine lasting a few seconds moves the tail
    of a few windows, not the result."""
    n = max(1, len(values) // P95_WINDOW)
    windows = [values[i * P95_WINDOW:(i + 1) * P95_WINDOW] for i in range(n - 1)]
    windows.append(values[(n - 1) * P95_WINDOW:])
    return median([statistics.quantiles(w, n=20, method="inclusive")[18]
                   for w in windows])


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure_store(ledger: Ledger, tracer, seconds: float, one_round, setup,
                  traced_extra=None):
    """The timed phase of a library workload: whole rounds for ``seconds``.

    In a traced run the first half of the time runs untraced, for the
    overhead; then every ``vkg`` layer is wrapped and one set-up, the second
    half of the rounds and ``traced_extra`` run traced.  Returns (rounds,
    tracing overhead per operation kind or None).
    """
    if tracer is None:
        return run_rounds(seconds, one_round), None
    import spans

    rounds = run_rounds(seconds / 2, one_round)
    base, ledger.samples = ledger.samples, {}
    ledger.tracer = tracer
    restore = spans.instrument(tracer)
    try:
        setup()
        rounds += run_rounds(seconds / 2, one_round)
        if traced_extra is not None:
            traced_extra()
    finally:
        restore()
        ledger.tracer = None
    overhead = {kind: median(ledger.samples[kind]) / median(base[kind]) - 1
                for kind in ("query", "write", "eval")}
    return rounds, overhead


def store_metrics(samples: dict[str, list[float]], peak_mb: float) -> dict:
    """The end-to-end metrics from a run's latency samples."""
    return {
        "setup_s": metric(median(samples["setup"]), "s"),
        "query_p50_ms": metric(median(samples["query"]) * 1e3, "ms"),
        "query_p95_ms": metric(p95(samples["query"]) * 1e3, "ms"),
        "write_p50_ms": metric(median(samples["write"]) * 1e3, "ms"),
        "write_p95_ms": metric(p95(samples["write"]) * 1e3, "ms"),
        "eval_s": metric(median(samples["eval"]), "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
