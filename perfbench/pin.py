"""Pin the result-row digests of every workload for seeds 0 to 9.

    python3 perfbench/pin.py

Runs each job in this process and rewrites pinned.json.  Run it only for a
change that is meant to alter results, and review the diff with the change.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from child import OUT, PINNED  # puts src/ on sys.path
import workloads

SEEDS = range(10)


def main() -> None:
    OUT.mkdir(exist_ok=True)
    pinned: dict[str, dict[str, list[str]]] = {}
    for name, workload in workloads.WORKLOADS.items():
        pinned[name] = {}
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=OUT) as workdir:
                job = workload(seed, Path(workdir))
                job()
                results, rows = job.output()
            if len(rows) != workload.scenarios or not all(map(workloads.conserved, results)):
                raise SystemExit(f"{name} seed {seed}: refusing to pin a failing result")
            pinned[name][str(seed)] = [workloads.digest(row) for row in rows]
            print(f"{name} seed {seed}: {len(rows)} rows")
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
