"""The benchmark's workloads: inputs made from a seed, one job, result rows.

The seed reaches lorae_sim only as the ``SweepSpec``/``Scenario`` master
seed (or the CLI's ``--seed``).  A job object is built during set-up;
calling it is the timed part, and :meth:`output` turns what it produced
into one row string per scenario, which is what gets pinned.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from lorae_sim import cli, engine, experiments
from lorae_sim.engine import ScenarioResult
from lorae_sim.params import dr_profile, regional_plan
from lorae_sim.traffic import DeviceConfig

HOUR_MS = 3_600_000
PAYLOAD = 10


def result_row(r: ScenarioResult) -> str:
    """Every field of a result, floats at the CSV's 3 decimals."""
    losses = ";".join(f"{k.value}={v}" for k, v in
                      sorted(r.loss_breakdown.items(), key=lambda kv: kv[0].value) if v)
    return (f"{r.device_count},{r.dr_label},{r.payload_label},{r.master_seed},"
            f"{r.horizon_ms},{r.generated_packets},{r.decoded_packets},"
            f"{r.offered_load_packets_per_hour:.3f},{r.throughput_packets_per_hour:.3f},"
            f"{r.goodput_bytes_per_hour:.3f},{losses}")


def conserved(r: ScenarioResult) -> bool:
    return r.decoded_packets + sum(r.loss_breakdown.values()) == r.generated_packets


def digest(row: str) -> str:
    return hashlib.sha256(row.encode()).hexdigest()[:16]


class LoraePeak:
    """``experiments.sweep`` at the EU868 LoRa-E goodput peaks, 1 h, 1 replication."""

    POINTS = (("DR8", 9_000), ("DR9", 5_000))
    scenarios = len(POINTS)

    def __init__(self, seed: int, workdir: Path, horizon_ms: int = HOUR_MS) -> None:
        self.specs = [experiments.SweepSpec(
            region="EU868", dr_aliases=(dr,), payload_bytes=(PAYLOAD,),
            device_counts=(devices,), horizon_ms=horizon_ms, replications=1,
            master_seed=seed) for dr, devices in self.POINTS]

    def __call__(self) -> None:
        self.results = [r for spec in self.specs for r in experiments.sweep(spec)]

    def output(self) -> tuple[list[ScenarioResult], list[str]]:
        return self.results, [result_row(r) for r in self.results]


class LoraSweep:
    """``lorae-sim sweep`` over EU868 DR0..DR5 on the criterion-3 device grid."""

    DRS = ("DR0", "DR1", "DR2", "DR3", "DR4", "DR5")
    DEVICES = (18, 35, 50, 55, 60, 70, 100)
    REPLICATIONS = 3
    scenarios = len(DRS) * len(DEVICES) * REPLICATIONS

    def __init__(self, seed: int, workdir: Path, horizon_ms: int = 4 * HOUR_MS) -> None:
        self.out = workdir / "rows.csv"
        self.aggregate_out = workdir / "aggregate.csv"
        self.argv = ["sweep", "--region", "EU868", "--dr", ",".join(self.DRS),
                     "--payload", str(PAYLOAD),
                     "--devices", ",".join(map(str, self.DEVICES)),
                     "--horizon-ms", str(horizon_ms),
                     "--replications", str(self.REPLICATIONS), "--seed", str(seed),
                     "--out", str(self.out), "--aggregate-out", str(self.aggregate_out)]

    def __call__(self) -> None:
        # The CSV lacks generated-packet counts, so keep the ScenarioResults
        # the CLI's sweep returns for the conservation check and the rows.
        results: list[ScenarioResult] = []
        sweep = cli.sweep

        def recording(spec: experiments.SweepSpec) -> list[ScenarioResult]:
            out = sweep(spec)
            results.extend(out)
            return out

        cli.sweep = recording
        try:
            code = cli.main(self.argv)
        finally:
            cli.sweep = sweep
        if code != 0:
            raise RuntimeError(f"lorae-sim sweep exited with {code}")
        self.results = results

    def output(self) -> tuple[list[ScenarioResult], list[str]]:
        rows = _data_lines(self.out)
        points = {",".join(line.split(",")[:3]): line
                  for line in _data_lines(self.aggregate_out)}
        if len(rows) != len(self.results):
            raise ValueError(f"{len(rows)} CSV rows for {len(self.results)} results")
        return self.results, [
            f"{result_row(r)}|{row}|{points.get(','.join(row.split(',')[:3]), '')}"
            for r, row in zip(self.results, rows)]


class Us915Dense:
    """``engine.run`` of 200 US915 DR5 devices for 1 h (duty 1.0)."""

    DEVICES = 200
    scenarios = 1

    def __init__(self, seed: int, workdir: Path, horizon_ms: int = HOUR_MS) -> None:
        profile, plan = dr_profile("US915", "DR5"), regional_plan("US915", "DR5")
        self.scenario = engine.Scenario(
            devices=tuple(DeviceConfig(i, profile, PAYLOAD, plan)
                          for i in range(self.DEVICES)),
            horizon_ms=horizon_ms, master_seed=seed)

    def __call__(self) -> None:
        self.results = [engine.run(self.scenario)]

    def output(self) -> tuple[list[ScenarioResult], list[str]]:
        return self.results, [result_row(r) for r in self.results]


WORKLOADS = {"lorae_peak": LoraePeak, "lora_sweep": LoraSweep, "us915_dense": Us915Dense}


def _data_lines(path: Path) -> list[str]:
    """CSV rows without `#` comments and without the header row."""
    lines = [line for line in path.read_text(encoding="ascii").splitlines()
             if line and not line.startswith("#")]
    return lines[1:]
