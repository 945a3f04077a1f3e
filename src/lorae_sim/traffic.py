"""Poisson packet arrival schedules, drawn for a block of devices at once.

Every device transmits at the maximum average rate its duty cycle allows,
so the mean inter-arrival time is ``time_on_air / duty_cycle`` (100 x ToA
under the EU 1% rule).  Arrivals are a pure Poisson process: the rate is
duty-cycle-limited but no hard per-packet silent period is enforced.

Each device owns an independent RNG stream spawned from the master seed by
device index, so adding devices to a scenario never perturbs the schedules
of existing ones.  A device's gaps are drawn from its stream 256 at a time,
and a block is drawn only while every arrival so far fell inside the
horizon.  ``generate_schedule`` runs these draws in rounds over many
devices: each round fills one row per still-active device and turns all
rows into arrival times with one running sum, so the Python work per
device is one fill call per round.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .params import DataRateProfile, RegionalPlan, check_payload, time_on_air

_BLOCK = 256   # exponential draws are taken in fixed-size blocks


@dataclass(frozen=True, slots=True)
class DeviceConfig:
    """One end-device: identity, data rate and fixed payload size."""

    device_id: int
    profile: DataRateProfile
    payload_bytes: int
    plan: RegionalPlan

    def __post_init__(self) -> None:
        check_payload(self.profile, self.payload_bytes)

    @property
    def time_on_air_ms(self) -> float:
        return time_on_air(self.profile, self.payload_bytes)

    @property
    def mean_interarrival_ms(self) -> float:
        return self.time_on_air_ms / self.plan.duty_cycle


@dataclass(frozen=True, slots=True, eq=False)
class ArrivalSchedule:
    """Packet start times (ms) of many devices, device-major.

    ``counts[i]`` is the number of arrivals of device ``i``; its times are
    the ``i``-th segment of ``start_times`` and strictly increase.
    ``generate_schedule`` hands ``start_times`` over as a read-only int64
    array.  Equality is identity, so ``==`` never compares arrays by element.
    """

    start_times: np.ndarray
    counts: np.ndarray


def device_stream(master_seed: int, device_index: int) -> np.random.Generator:
    """Independent per-device RNG stream spawned from the master seed."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(master_seed, spawn_key=(device_index,))))


def generate_schedule(cfg: DeviceConfig, horizon_ms: int,
                      rngs: Sequence[np.random.Generator]) -> ArrivalSchedule:
    """Poisson arrivals on [0, horizon) of one device per generator in ``rngs``.

    Every device follows ``cfg``; a packet may finish past the horizon.  Each
    device takes its gaps from its own generator in blocks of 256,
    exponential with the mean inter-arrival time and rounded up to whole ms
    (at least 1); its arrivals are the running sum, cut at the horizon, and
    it draws another block only when the whole previous one fell inside.
    So each stream is consumed as a function of its own arrival count
    alone.  The devices' blocks are drawn in rounds: round ``r`` holds block
    ``r`` of every device still active, and one scatter per round places
    its kept arrivals at ``first[device] + 256 * r`` of the device-major
    result.
    """
    if horizon_ms <= 0:
        raise ValueError(f"horizon must be positive, got {horizon_ms}")
    mean = cfg.mean_interarrival_ms
    active = np.arange(len(rngs))
    carry = np.zeros(len(rngs), dtype=np.int64)
    counts = np.zeros(len(rngs), dtype=np.int64)
    buf = np.empty((len(rngs), _BLOCK))
    rounds: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    while active.size:
        draws = buf[:active.size]
        for row, device in zip(draws, active.tolist()):
            rngs[device].standard_exponential(out=row)
        draws *= mean                  # bitwise rng.exponential(mean)
        np.ceil(draws, out=draws)
        np.maximum(draws, 1, out=draws)
        times = draws.astype(np.int64)
        np.cumsum(times, axis=1, out=times)
        times += carry[:, None]
        inside = times < horizon_ms
        kept = np.count_nonzero(inside, axis=1)
        counts[active] += kept
        rounds.append((active, times, inside))
        full = kept == _BLOCK
        active, carry = active[full], times[full, -1]
    first = np.cumsum(counts) - counts
    start_times = np.empty(int(counts.sum()), dtype=np.int64)
    lane = np.arange(_BLOCK)
    for r, (devices, times, inside) in enumerate(rounds):
        at = (first[devices] + _BLOCK * r)[:, None] + lane
        start_times[at[inside]] = times[inside]
    start_times.flags.writeable = False
    return ArrivalSchedule(start_times, counts)
