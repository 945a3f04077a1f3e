"""Per-device Poisson packet arrival schedules.

Every device transmits at the maximum average rate its duty cycle allows,
so the mean inter-arrival time is ``time_on_air / duty_cycle`` (100 x ToA
under the EU 1% rule).  Arrivals are a pure Poisson process: the rate is
duty-cycle-limited but no hard per-packet silent period is enforced.
Gaps are drawn 256 at a time and turned into arrival times by one running
sum per block, so no per-arrival Python step remains.

Each device owns an independent RNG stream spawned from the master seed by
device index, so adding devices to a scenario never perturbs the schedules
of existing ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import DataRateProfile, RegionalPlan, time_on_air

_BLOCK = 256   # exponential draws are taken in fixed-size blocks


@dataclass(frozen=True, slots=True)
class DeviceConfig:
    """One end-device: identity, data rate and fixed payload size."""

    device_id: int
    profile: DataRateProfile
    payload_bytes: int
    plan: RegionalPlan

    def __post_init__(self) -> None:
        if not 1 <= self.payload_bytes <= self.profile.max_payload_bytes:
            raise ValueError(
                f"payload {self.payload_bytes} B outside [1, "
                f"{self.profile.max_payload_bytes}] for {self.profile.alias}")

    @property
    def time_on_air_ms(self) -> float:
        return time_on_air(self.profile, self.payload_bytes)

    @property
    def mean_interarrival_ms(self) -> float:
        return self.time_on_air_ms / self.plan.duty_cycle


@dataclass(frozen=True, slots=True, eq=False)
class ArrivalSchedule:
    """Strictly increasing packet start times (ms) for one device.

    ``generate_schedule`` hands ``start_times`` over as a read-only int64
    array.  Equality is identity, so ``==`` never compares arrays by element.
    """

    device_id: int
    start_times: np.ndarray

    def __post_init__(self) -> None:
        if np.any(np.diff(self.start_times) <= 0):
            raise ValueError("start times must be strictly increasing")


def device_stream(master_seed: int, device_index: int) -> np.random.Generator:
    """Independent per-device RNG stream spawned from the master seed."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(master_seed, spawn_key=(device_index,))))


def generate_schedule(cfg: DeviceConfig, horizon_ms: int,
                      rng: np.random.Generator) -> ArrivalSchedule:
    """Poisson arrivals on [0, horizon); a packet may finish past the horizon.

    Gaps are drawn in fixed-size blocks and rounded up to whole ms.  Each
    block's arrivals are its running sum from the last arrival so far, cut
    at the horizon; drawing stops after the first block that the horizon
    cuts.  So the stream consumed is a deterministic function of the
    arrival count alone.
    """
    if horizon_ms <= 0:
        raise ValueError(f"horizon must be positive, got {horizon_ms}")
    mean = cfg.mean_interarrival_ms
    blocks: list[np.ndarray] = []
    t = 0
    while True:
        gaps = np.maximum(1, np.ceil(rng.exponential(mean, size=_BLOCK))).astype(np.int64)
        times = t + np.cumsum(gaps)
        kept = int(np.searchsorted(times, horizon_ms))
        blocks.append(times[:kept])
        if kept < _BLOCK:
            break
        t = int(times[-1])
    start_times = np.concatenate(blocks)
    start_times.flags.writeable = False
    return ArrivalSchedule(cfg.device_id, start_times)
