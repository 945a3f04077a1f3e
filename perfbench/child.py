"""One benchmark job in a fresh process: set up, run once, check, report.

    python3 perfbench/child.py <workload> <seed> <traced 0|1>

Prints one JSON object as the last line of standard output.  ``setup_end``
is ``time.monotonic()`` at the moment the job is called, so the parent can
take set-up time from the moment it started this process.  A job that
raises, a result that breaks ``decoded + losses == generated`` and a row
that differs from the pinned digest each count as failed scenarios.
"""

from __future__ import annotations

import json
import resource
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
PINNED = HERE / "pinned.json"
sys.path.insert(0, str(HERE.parent / "src"))

import numpy  # noqa: E402,F401  (imported here so set-up time includes it)

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def failed_rows(results: list, rows: list[str], pinned: list[str] | None,
                expected: int) -> int:
    """Scenarios whose result is not conserved or whose row is not the pinned one."""
    if len(rows) != expected or len(results) != expected:
        return expected
    bad = {i for i, r in enumerate(results) if not workloads.conserved(r)}
    if pinned is not None:
        if len(pinned) != expected:
            return expected
        bad |= {i for i, (row, pin) in enumerate(zip(rows, pinned))
                if workloads.digest(row) != pin}
    return len(bad)


def main(argv: list[str]) -> dict:
    name, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    workload = workloads.WORKLOADS[name]
    pinned = json.loads(PINNED.read_text()).get(name, {}).get(str(seed))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=OUT) as workdir:
        job = workload(seed, Path(workdir))
        tracer = Tracer()
        if traced:
            layers.instrument(tracer)
            if tracer.missing:   # their layer metrics read 0
                print(f"not traced, no such function: {', '.join(tracer.missing)}",
                      file=sys.stderr)
        record: dict = {"setup_end": time.monotonic(), "error": None}
        start = time.perf_counter()
        try:
            job()
        except Exception as exc:  # a failing job is a counted failure, not a crash
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["job_s"] = time.perf_counter() - start
        record["restored"] = tracer.restore()
        results, rows = [], []
        if record["error"] is None:
            try:
                results, rows = job.output()
            except (OSError, ValueError) as exc:
                record["error"] = f"{type(exc).__name__}: {exc}"
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["scenarios"] = workload.scenarios
    record["failed"] = failed_rows(results, rows, pinned, workload.scenarios)
    record["packets"] = sum(r.generated_packets for r in results)
    record["rows"] = rows
    record["pinned"] = pinned is not None
    if traced:
        record["layers"] = layers.metrics(tracer)
        tracer.write(OUT / f"{name}-seed{seed}.spans.jsonl")
    return record


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
