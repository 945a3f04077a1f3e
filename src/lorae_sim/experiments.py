"""Experiment campaigns: device-count sweeps, crossover search, capacity.

A sweep simulates every (data rate, payload, device count, replication)
combination on one shared channel and aggregates replications into mean
and sample standard deviation per point.  Each point derives its own seed
from the master seed and the point coordinates, so results are independent
of sweep composition and order, and points can run in worker processes, one
per CPU the process may use, with results identical to an in-process run.

Crossovers compare LoRa against LoRa-E goodput as functions of offered
load (generated packets per hour, device count x duty-cycle-max rate) and
locate where the LoRa-E curve first rises above the LoRa curve.  Any LoRa
rate of a region can meet any LoRa-E rate of it; ``lorae-sim params``
lists each rate's family.  Aggregate capacity scales a measured
per-channel peak load by the number of channels (and data rates, for
LoRa, which gets one scenario per DR).
"""

from __future__ import annotations

import itertools
import os
import sys
import zlib
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from statistics import mean, stdev
from typing import Iterable, Sequence

import numpy as np

from . import engine, params, traffic
from .engine import Outcome, Scenario, ScenarioResult, run
from .params import LORA, LORA_DR_COUNT_EU, LORA_E, dr_profile, regional_plan
from .traffic import DeviceConfig

DEFAULT_HORIZON_MS = 4 * 3_600_000   # 4 simulated hours


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """Parameter grid for one campaign on one region."""

    region: str
    dr_aliases: tuple[str, ...]
    payload_bytes: tuple[int, ...]
    device_counts: tuple[int, ...]
    horizon_ms: int = DEFAULT_HORIZON_MS
    replications: int = 3
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if not self.device_counts or min(self.device_counts) < 1:
            raise ValueError("device_counts must be non-empty and positive")
        if not self.dr_aliases or not self.payload_bytes:
            raise ValueError("dr_aliases and payload_bytes must be non-empty")
        if self.horizon_ms <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon_ms}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed}")
        for name, values in (("dr_aliases", self.dr_aliases),
                             ("payload_bytes", self.payload_bytes),
                             ("device_counts", self.device_counts)):
            repeats = [v for i, v in enumerate(values) if v in values[:i]]
            if repeats:   # a repeated point would count as an independent replication
                raise ValueError(f"{name} lists {repeats[0]!r} more than once")


@dataclass(frozen=True, slots=True)
class AggregatePoint:
    """Replication average of one sweep point."""

    dr: str
    payload_bytes: int
    devices: int
    offered_pkts_per_hour: float
    mean_goodput_bytes_per_hour: float
    std_goodput_bytes_per_hour: float
    mean_decoded_pkts_per_hour: float
    std_decoded_pkts_per_hour: float
    replications: int


class CrossoverNotFound(RuntimeError):
    """No sign change brackets a crossover on the swept load range."""


def point_seed(master_seed: int, region: str, dr: str, payload_bytes: int,
               devices: int, replication: int) -> int:
    """Deterministic per-point seed, independent of sweep composition."""
    entropy = (master_seed, zlib.crc32(region.encode()), zlib.crc32(dr.encode()),
               payload_bytes, devices, replication)
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def build_scenario(region: str, dr: str, payload_bytes: int, devices: int,
                   horizon_ms: int, seed: int) -> Scenario:
    profile = dr_profile(region, dr)
    plan = regional_plan(region, dr)
    configs = tuple(DeviceConfig(i, profile, payload_bytes, plan) for i in range(devices))
    return Scenario(devices=configs, horizon_ms=horizon_ms, master_seed=seed)


def _run_point(spec: SweepSpec, dr: str, payload_bytes: int, devices: int,
              replication: int) -> ScenarioResult:
    """Simulate one sweep point; its result depends on its coordinates alone."""
    seed = point_seed(spec.master_seed, spec.region, dr, payload_bytes, devices,
                      replication)
    return run(build_scenario(spec.region, dr, payload_bytes, devices,
                              spec.horizon_ms, seed))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _point_namespace() -> dict[tuple[str, str], object]:
    """Every function and class a sweep point can look up, by module and name."""
    return {(module.__name__, name): value
            for module in (engine, params, traffic, sys.modules[__name__])
            for name, value in vars(module).items() if callable(value)}


def _pool_size(spec: SweepSpec, points: int) -> int:
    """Worker processes for a sweep's points; 1 runs them in this process.

    One per usable CPU, but no more than there are points, and no more
    than physical memory holds at once by ``run``'s own estimate for the
    largest point.  That estimate is checked for every sweep of several
    points, so a point too large for memory stops the sweep before any
    point runs; ``run`` checks a lone point itself.  Also 1 when a
    function a point looks up is no longer the one defined at import (a
    tracer or a mock put another in its place): what a replacement
    records in a worker never reaches this process.  Only a replaced
    function does this; ``cProfile`` replaces none, so a profiled sweep
    still starts a pool.  Profile one under ``taskset -c 0``, which leaves
    one usable CPU.
    """
    if points == 1:
        return 1
    fit = min(engine.check_memory(build_scenario(spec.region, dr, payload,
                                                 max(spec.device_counts),
                                                 spec.horizon_ms, 0))
              for dr in spec.dr_aliases for payload in spec.payload_bytes)
    if _point_namespace() != _AS_DEFINED:
        return 1
    return min(points, _usable_cpus(), fit)


def sweep(spec: SweepSpec) -> list[ScenarioResult]:
    """One ScenarioResult per (dr, payload, devices, replication), sorted.

    Points run in a pool of ``_pool_size`` worker processes, or in this
    process when that is 1.  Each point's seed comes from its own
    coordinates, so the results are the same either way.  The first point
    that raises cancels the points not yet started, and its exception
    propagates; a worker process that dies raises ``ChildProcessError``.
    """
    points = list(itertools.product(spec.dr_aliases, spec.payload_bytes,
                                    spec.device_counts, range(spec.replications)))
    workers = _pool_size(spec, len(points))
    if workers == 1:
        return [_run_point(spec, *point) for point in points]
    # Imported here to keep them out of the package's import time.  Forked
    # workers inherit the imported modules instead of importing them again.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    context = (multiprocessing.get_context("fork")
               if "fork" in multiprocessing.get_all_start_methods() else None)
    try:
        with ProcessPoolExecutor(workers, context) as pool:
            return list(pool.map(partial(_run_point, spec), *zip(*points)))
    except BrokenProcessPool as exc:
        raise ChildProcessError(f"a sweep worker process died: {exc}") from exc


def aggregate(results: Iterable[ScenarioResult]) -> list[AggregatePoint]:
    """Group sweep rows by (dr, payload, devices); mean and sample stddev."""
    groups: dict[tuple[str, int, int], list[ScenarioResult]] = {}
    for r in results:
        groups.setdefault((r.dr_label, int(r.payload_label), r.device_count), []).append(r)
    points = []
    for (dr, payload, devices), rows in sorted(groups.items()):
        goodputs = [r.goodput_bytes_per_hour for r in rows]
        rates = [r.throughput_packets_per_hour for r in rows]
        points.append(AggregatePoint(
            dr=dr,
            payload_bytes=payload,
            devices=devices,
            offered_pkts_per_hour=rows[0].offered_load_packets_per_hour,
            mean_goodput_bytes_per_hour=mean(goodputs),
            std_goodput_bytes_per_hour=stdev(goodputs) if len(goodputs) > 1 else 0.0,
            mean_decoded_pkts_per_hour=mean(rates),
            std_decoded_pkts_per_hour=stdev(rates) if len(rates) > 1 else 0.0,
            replications=len(rows),
        ))
    return points


def crossover_load(label: str,
                   lora_curve: tuple[np.ndarray, np.ndarray],
                   lorae_curve: tuple[np.ndarray, np.ndarray]) -> float:
    """First load where the LoRa-E goodput curve rises above the LoRa one.

    The two curves live on different load grids; their difference is
    evaluated on the merged grid inside the overlapping range, and the
    first LoRa-ahead to LoRa-E-ahead transition is located by linear
    interpolation.  A crossover must be bracketed: the range has to start
    with LoRa ahead (or tied) and end with LoRa-E ahead somewhere.
    ``label`` names the comparison in ``CrossoverNotFound``'s message.
    """
    lora_loads, lora_g = lora_curve
    lorae_loads, lorae_g = lorae_curve
    lo = max(lora_loads.min(), lorae_loads.min())
    hi = min(lora_loads.max(), lorae_loads.max())
    grid = np.unique(np.concatenate([lora_loads, lorae_loads]))
    grid = grid[(grid >= lo) & (grid <= hi)]
    g_lora = np.interp(grid, lora_loads, lora_g)
    g_lorae = np.interp(grid, lorae_loads, lorae_g)
    diff = g_lorae - g_lora
    if grid.size == 0 or diff[0] > 0 or not (diff > 0).any():
        ends = (f"load [{grid[0]:.0f}, {grid[-1]:.0f}] pkt/h: "
                f"LoRa goodput [{g_lora[0]:.0f}, {g_lora[-1]:.0f}], "
                f"LoRa-E goodput [{g_lorae[0]:.0f}, {g_lorae[-1]:.0f}] B/h"
                if grid.size else "empty load range")
        raise CrossoverNotFound(
            f"no LoRa/LoRa-E goodput crossover bracketed for {label}; {ends}")
    i = int(np.argmax(diff > 0))          # first point strictly ahead
    x0, x1 = grid[i - 1], grid[i]
    d0, d1 = diff[i - 1], diff[i]
    return float(x0 + (x1 - x0) * (0.0 - d0) / (d1 - d0))


def find_crossover(spec: SweepSpec) -> float:
    """Smallest load (pkt/h) at which LoRa-E mean goodput exceeds LoRa's.

    ``spec`` lists a LoRa rate of its region, then a LoRa-E one, and one
    payload.  Both run in one sweep of ``spec.device_counts``; each curve
    is its DR's (offered load, mean goodput) points in device order.
    """
    families = [dr_profile(spec.region, dr).family for dr in spec.dr_aliases]
    if families != [LORA, LORA_E] or len(spec.payload_bytes) != 1:
        raise ValueError(f"a crossover needs a LoRa then a LoRa-E rate of {spec.region} "
                         f"and one payload, got rates {', '.join(spec.dr_aliases)} "
                         f"and payloads {', '.join(map(str, spec.payload_bytes))} B")
    points = aggregate(sweep(spec))

    def curve(dr: str) -> tuple[np.ndarray, np.ndarray]:
        rows = [p for p in points if p.dr == dr]   # aggregate sorts by devices
        return (np.array([p.offered_pkts_per_hour for p in rows]),
                np.array([p.mean_goodput_bytes_per_hour for p in rows]))

    lora_dr, lorae_dr = spec.dr_aliases
    return crossover_load(f"{lora_dr} vs {lorae_dr} at {spec.payload_bytes[0]} B",
                          curve(lora_dr), curve(lorae_dr))


def aggregate_capacity(region: str, dr: str, per_channel_peak_pkts_per_hour: float) -> float:
    """Network-wide capacity: per-channel peak load scaled by channel count.

    Legacy LoRa additionally multiplies by its 6 DR configurations, each of
    which runs as an independent network on the same 8 channels.
    """
    plan = regional_plan(region, dr)
    profile = dr_profile(region, dr)
    dr_configs = LORA_DR_COUNT_EU if profile.family == LORA else 1
    return per_channel_peak_pkts_per_hour * plan.num_ocw_channels * dr_configs


def peak_point(points: Sequence[AggregatePoint]) -> AggregatePoint:
    """Sweep point with the highest mean goodput."""
    if not points:
        raise ValueError("no sweep points to take a peak over")
    return max(points, key=lambda p: p.mean_goodput_bytes_per_hour)


RESULT_COLUMNS = ["devices", "dr", "payload", "offered_pkts_h", "decoded_pkts_h",
                  "goodput_B_h", "loss_header", "loss_payload", "loss_collision", "seed"]


def csv_row(result: ScenarioResult) -> list[object]:
    """One result as a row under :data:`RESULT_COLUMNS`."""
    return [
        result.device_count,
        result.dr_label,
        result.payload_label,
        round(result.offered_load_packets_per_hour, 3),
        round(result.throughput_packets_per_hour, 3),
        round(result.goodput_bytes_per_hour, 3),
        result.loss_breakdown.get(Outcome.LOST_HEADER, 0),
        result.loss_breakdown.get(Outcome.LOST_PAYLOAD, 0),
        result.loss_breakdown.get(Outcome.LOST_COLLISION, 0),
        result.master_seed,
    ]

AGGREGATE_COLUMNS = ["devices", "dr", "payload", "offered_pkts_h",
                     "goodput_B_h_mean", "goodput_B_h_std",
                     "decoded_pkts_h_mean", "decoded_pkts_h_std", "replications"]

# Plot hints for the aggregate table: goodput against a log device axis.
AGGREGATE_COMMENTS = ["xscale: log", "x: devices", "y: goodput_B_h_mean"]


def aggregate_row(point: AggregatePoint) -> list[object]:
    """One aggregate point as a row under :data:`AGGREGATE_COLUMNS`."""
    return [point.devices, point.dr, point.payload_bytes,
            round(point.offered_pkts_per_hour, 3),
            round(point.mean_goodput_bytes_per_hour, 3),
            round(point.std_goodput_bytes_per_hour, 3),
            round(point.mean_decoded_pkts_per_hour, 3),
            round(point.std_decoded_pkts_per_hour, 3),
            point.replications]


def csv_text(header: Sequence[str], rows: Iterable[Sequence[object]],
             comments: Sequence[str] = ()) -> str:
    """A deterministic CSV table; metadata comments precede the header row."""
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    lines.extend(",".join(str(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def emit(path: str | Path, header: Sequence[str], rows: Sequence[Sequence[object]],
         comments: Sequence[str] = ()) -> None:
    """Write :func:`csv_text` to ``path``; an empty table is an error."""
    if not rows:
        raise ValueError("refusing to write an empty table")
    Path(path).write_text(csv_text(header, rows, comments), encoding="ascii")


def emit_results(results: Sequence[ScenarioResult], path: str | Path) -> None:
    emit(path, RESULT_COLUMNS, [csv_row(r) for r in results])


def emit_aggregate(points: Sequence[AggregatePoint], path: str | Path) -> None:
    emit(path, AGGREGATE_COLUMNS, [aggregate_row(p) for p in points], AGGREGATE_COMMENTS)


def log_spaced_counts(lo: int, hi: int, n: int) -> tuple[int, ...]:
    """At most n distinct log-spaced integers from lo to hi inclusive (rounding
    merges some); n = 1 gives lo alone."""
    if lo < 1 or hi < lo or n < 1:
        raise ValueError(f"need 1 <= lo <= hi and n >= 1, got {lo}, {hi}, {n}")
    raw = np.geomspace(lo, hi, n)
    counts = sorted({int(round(x)) for x in raw})
    return tuple(counts)


def default_capacity_counts(region: str, dr: str) -> tuple[int, ...]:
    """Device grid bracketing a goodput peak: dense near it, sparse flanks.

    LoRa peaks where offered load x collision survival is maximal: pure
    Aloha peaks at half a packet per 2 x ToA vulnerable window, and each
    device fills its duty cycle, so at 1 / (2 x duty) devices whatever the
    DR and payload (50 under the EU 1% rule).  LoRa-E peaks are found
    empirically, so its grid is log-spaced over a wide range.
    """
    profile = dr_profile(region, dr)
    if profile.family == LORA:
        n = 1 / (2 * regional_plan(region, dr).duty_cycle)
        base = {round(n * f) for f in (0.35, 0.7, 1.0, 1.1, 1.2, 1.4, 2.0)}
        return tuple(sorted(max(1, c) for c in base))
    return log_spaced_counts(500, 32_000, 13)


# Taken last, once every name above is bound.
_AS_DEFINED = _point_namespace()
