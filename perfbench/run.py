"""lorae-sim benchmark: one workload, jobs run one at a time in fresh processes.

    python3 perfbench/run.py --workload lorae_peak --seed 0 --seconds 40 --trace 0

A closed loop with concurrency 1: each job runs in its own single-threaded
Python process (``child.py``), and the next starts when it has ended if
it is expected to end within ``--seconds`` (but at least three jobs, or
two traced pairs, always run).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs pairs of
an untraced and a traced job and reports the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object.  Any
failed check makes ``correct`` false; a job process that crashes, or a
checkout without ``src/lorae_sim``, ends the run with exit code 2 and no
result.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lorae_peak", "lora_sweep", "us915_dense")
MIN_JOBS = 3
MIN_TRACED_PAIRS = 2
BUDGET_S = 170   # a run must end within 180 s
EXACT_COUNTS = ("engine.slots_calls", "engine.emissions", "traffic.packets",
                "hopping.hashes", "params.airtime_calls")


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    """Run one job in a fresh process and return its record."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload, str(seed), str(int(traced))],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} job did not end within the run's time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} job process exited with {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record.pop("setup_end") - started
    if record["error"]:
        print(f"job failed: {record['error']}", file=sys.stderr)
    return record


def mismatches(records: list[dict]) -> int:
    """Scenarios whose rows differ from the first job's (same seed, same inputs)."""
    first = records[0]["rows"]
    bad = 0
    for rec in records[1:]:
        if len(rec["rows"]) != len(first):
            bad += rec["scenarios"]
        else:
            bad += sum(a != b for a, b in zip(rec["rows"], first))
    return bad


def end_to_end(records: list[dict]) -> dict[str, tuple[float, str]]:
    times = [r["job_s"] for r in records]
    q1, med, q3 = statistics.quantiles(times, n=4)
    print(f"job_s median {med:.4f} s, quartiles {q1:.4f} .. {q3:.4f} s, n={len(times)}")
    return {
        "job_s": (med, "s"),
        "packets_per_s": (statistics.median(r["packets"] / r["job_s"] for r in records), "1/s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in records), "MB"),
        "setup_s": (statistics.median(r["setup_s"] for r in records), "s"),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, bool]:
    """Median of each layer metric over traced jobs, plus tracing overhead
    (the median over pairs of traced minus untraced ``job_s``)."""
    repeat = True
    for name in EXACT_COUNTS:
        values = {rec["layers"][name][0] for rec in traced}
        if len(values) != 1:
            print(f"count {name} differs between traced runs: {sorted(values)}")
            repeat = False
    out = {}
    for name, (_, unit) in traced[0]["layers"].items():
        # median_low keeps a count a whole number
        pick = statistics.median if unit in ("s", "ns") else statistics.median_low
        out[name] = (pick(rec["layers"][name][0] for rec in traced), unit)
    print(f"job_s median traced {statistics.median(r['job_s'] for r in traced):.4f} s, "
          f"untraced {statistics.median(r['job_s'] for r in untraced):.4f} s, "
          f"{len(traced)} pairs")
    # Per pair: the two jobs ran back to back, so host speed drifts cancel.
    out["trace.overhead_s"] = (statistics.median(
        t["job_s"] - u["job_s"] for u, t in zip(untraced, traced)), "s")
    return out, repeat


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lorae_sim" / "__init__.py").is_file():
        print(f"error: no lorae_sim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    stop, deadline = start + args.seconds, start + BUDGET_S
    untraced: list[dict] = []
    traced: list[dict] = []
    try:
        while True:
            began = time.monotonic()
            # Traced and untraced jobs take turns going first in a pair, so
            # that neither side always follows the other.
            order = (False, True) if len(untraced) % 2 == 0 else (True, False)
            for traced_job in order if args.trace else (False,):
                record = spawn(args.workload, args.seed, traced_job, deadline)
                (traced if traced_job else untraced).append(record)
            enough = (len(traced) >= MIN_TRACED_PAIRS if args.trace
                      else len(untraced) >= MIN_JOBS)
            now = time.monotonic()
            if enough and now + (now - began) > stop:   # the next one would overrun
                break
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    records = untraced + traced
    attempted = sum(r["scenarios"] for r in records)
    failed = sum(r["failed"] for r in records)
    differ = mismatches(records)
    if differ:
        print(f"{differ} scenario rows differ between jobs of one seed"
              + (" (traced vs untraced)" if traced else ""))
    failed = min(attempted, failed + differ)
    restored = all(r["restored"] for r in records)
    if not restored:
        print("a traced job left a wrapped attribute in place")
    pinned = "checked against pinned digests" if records[0]["pinned"] else "no pinned digest"
    print(f"workload {args.workload} seed {args.seed}: {len(records)} jobs, "
          f"{attempted} scenarios, {failed} failed, failed_frac {failed / attempted:.4f} "
          f"({pinned})")

    if args.trace:
        metrics, repeat = per_layer(untraced, traced)
    else:
        metrics, repeat = end_to_end(untraced), True
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    print(json.dumps({
        "correct": failed == 0 and restored and repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
