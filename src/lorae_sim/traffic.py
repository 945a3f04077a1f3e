"""Poisson packet arrival schedules and hop draws, for a block of devices at once.

Every device transmits at the maximum average rate its duty cycle allows,
so the mean inter-arrival time is ``time_on_air / duty_cycle`` (100 x ToA
under the EU 1% rule).  Arrivals are a pure Poisson process: the rate is
duty-cycle-limited but no hard per-packet silent period is enforced.

Each device owns an independent RNG stream spawned from the master seed by
device index, so adding devices to a scenario never perturbs the schedules
of existing ones.  ``device_streams`` builds the streams of a block of
devices: numpy's ``SeedSequence(master)`` computes the master seed's pool,
and one pass of numpy arithmetic hashes each index of the block into it,
giving the words ``SeedSequence(master, spawn_key=(index,))`` seeds each
``PCG64`` with, without one ``SeedSequence`` per device.

A device's gaps are drawn from its stream 256 at a time, and a block is
drawn only while every arrival so far fell inside the horizon.
``generate_schedule`` runs these draws in rounds over many devices: each
round turns the next 64 gaps of every device still inside the horizon into
arrival times with one running sum, every fourth round first filling each
such device's next block with one call.  The rounds join into one devices x
gaps table, and the schedule is that table cut at the horizon.

A LoRa-E device then takes its packets' hopping seeds and grids from the
same stream.  ``hop_draws`` gets them from one ``random_raw(c)`` call per
device of ``c`` packets: the first c 32-bit halves of those words are its
seeds and the last c its grids, reduced for the whole block at once to
exactly the values ``Generator.integers`` would draw.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .params import SEED_COUNT, DataRateProfile, RegionalPlan, check_payload, time_on_air

_BLOCK = 256   # exponential draws are taken in fixed-size blocks
_ROUND = 64    # and turned into arrival times this many at a time

# numpy.random.SeedSequence's hash constants, and the number of uint64
# words PCG64 seeds itself with.
_STATE_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


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


def device_streams(master_seed: int, first: int, stop: int) -> list[np.random.Generator]:
    """The streams of devices ``first`` to ``stop - 1``, spawned from the master seed.

    Device ``i``'s stream is ``Generator(PCG64(SeedSequence(master_seed,
    spawn_key=(i,))))``, state for state: numpy computes the master seed's
    pool, and ``_seed_words`` hashes each device index into it to get the
    seed words.  Indices must lie in [0, 2**32).
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence   # first use loads numpy.random
    ISeedSequence.register(_SeedWords)
    words = _seed_words(master_seed, first, stop).view("<u8").astype(np.uint64, copy=False)
    return [Generator(PCG64(_SeedWords(row))) for row in words]


class _SeedWords:
    """A seed sequence whose ``PCG64`` seed words are already computed.

    ``PCG64`` seeds itself with one ``generate_state(4, np.uint64)`` call;
    any other request means numpy changed how it seeds and is refused.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if (n_words, dtype) != (_STATE_WORDS, np.uint64):
            raise ValueError(f"only generate_state({_STATE_WORDS}, uint64) is precomputed, "
                             f"got generate_state({n_words}, {np.dtype(dtype)})")
        return self.words


def _seed_words(master_seed: int, first: int, stop: int) -> np.ndarray:
    """Per index ``i`` in [first, stop), the 8 little-endian uint32 words of
    ``SeedSequence(master_seed, spawn_key=(i,)).generate_state(4, np.uint64)``.

    NumPy fixes SeedSequence's hash for stream compatibility (NEP 19).  Its
    pool before the spawn key is ``SeedSequence(master_seed).pool``, which
    depends on the master alone; the index is then mixed into each pool
    word, and the state words hash the pool in turn.  By then the hash's
    running constant has stepped 4 x max(4, the master's 32-bit word count)
    times: 4 for the pool words, 12 for mixing them pairwise and 4 for each
    master word past the fourth.  Every step is uint32 arithmetic, so each
    pool word is a 1-element array and broadcasts over the block's indices.
    An index of 2**32 or more has two words, so it raises ``ValueError``.
    """
    from numpy.random import SeedSequence
    if master_seed < 0:
        raise ValueError(f"master_seed must be non-negative, got {master_seed}")
    if not 0 <= first <= stop <= 2 ** 32:
        raise ValueError(f"device indices must lie in [0, 2**32), got [{first}, {stop})")
    steps = 4 * max(4, -(-master_seed.bit_length() // 32))
    hashmix = _hasher(_INIT_A * pow(_MULT_A, steps, 2 ** 32) & _MASK32, _MULT_A)
    index = np.arange(first, stop, dtype=np.int64).astype(np.uint32)
    pool = [_mix(word, hashmix(index)) for word in SeedSequence(master_seed).pool[:, None]]
    state = np.empty((stop - first, 2 * _STATE_WORDS), dtype="<u4")
    hash_state = _hasher(_INIT_B, _MULT_B)
    for column in range(state.shape[1]):
        state[:, column] = hash_state(pool[column % len(pool)])
    return state


def _hasher(hash_const: int, mult: int):
    """SeedSequence's hash with its running constant: each call xors in the
    constant, steps it by ``mult``, multiplies by it and xor-shifts by 16."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two uint32 words."""
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


def generate_schedule(cfg: DeviceConfig, horizon_ms: int,
                      rngs: Sequence[np.random.Generator]) -> ArrivalSchedule:
    """Poisson arrivals on [0, horizon) of one device per generator in ``rngs``.

    Every device follows ``cfg``; a packet may finish past the horizon.  Each
    device takes its gaps from its own generator in blocks of 256,
    exponential with the mean inter-arrival time and rounded up to whole ms
    (at least 1); its arrivals are the running sum, cut at the horizon, and
    it draws another block only when the whole previous one fell inside.
    So each stream is consumed as a function of its own arrival count
    alone.  Round ``r`` converts gaps ``64 r`` to ``64 r + 63`` of every
    device still inside the horizon, drawing its next block first when the
    round starts one.  The rounds' columns join into one devices x gaps
    table, the horizon standing in the rows of devices already done: the
    arrivals are its entries before the horizon, row by row.
    """
    if horizon_ms <= 0:
        raise ValueError(f"horizon must be positive, got {horizon_ms}")
    mean = cfg.mean_interarrival_ms
    active = np.arange(len(rngs))
    carry = np.zeros(len(rngs), dtype=np.int64)
    buf = np.empty((len(rngs), _BLOCK))
    rounds = [np.empty((len(rngs), 0), dtype=np.int64)]   # so that no rounds join too
    while active.size:
        lane = (len(rounds) - 1) * _ROUND % _BLOCK
        if lane == 0:
            for device in active.tolist():
                rngs[device].standard_exponential(out=buf[device])
        times = _arrival_times(buf[active, lane:lane + _ROUND], mean, carry)
        columns = np.full((len(rngs), _ROUND), horizon_ms, dtype=np.int64)
        columns[active] = times
        rounds.append(columns)
        full = times[:, -1] < horizon_ms
        active, carry = active[full], times[full, -1]
    del buf                    # the draws are freed before the table is built,
    table = np.concatenate(rounds, axis=1)
    rounds.clear()             # and the rounds before it is cut
    inside = table < horizon_ms
    start_times = table[inside]
    start_times.flags.writeable = False
    return ArrivalSchedule(start_times, np.count_nonzero(inside, axis=1))


def _arrival_times(draws: np.ndarray, mean: float, carry: np.ndarray) -> np.ndarray:
    """Arrival times of consecutive columns of standard exponential draws
    (scaled in place) after each row's ``carry``: every gap is its draw times
    ``mean`` (bitwise ``rng.exponential(mean)``) rounded up to whole ms,
    at least 1, and the times are their running sum."""
    draws *= mean
    np.ceil(draws, out=draws)
    np.maximum(draws, 1, out=draws)
    times = draws.astype(np.int64)
    np.cumsum(times, axis=1, out=times)
    times += carry[:, None]
    return times


def hop_draws(rngs: list[np.random.Generator], counts: np.ndarray, num_grids: int
              ) -> tuple[np.ndarray, np.ndarray]:
    """Per generator and its count ``c``: ``c`` seeds, then ``c`` grids.

    Equal to ``rng.integers(0, SEED_COUNT, c)`` then ``rng.integers(0,
    num_grids, c)`` (uint32) per generator, concatenated in order.  numpy
    draws each value in [0, n) from the next 32-bit half ``h`` of a PCG64
    word, low half first, by Lemire's multiply-shift ``(h * n) >> 32``, and
    draws again when ``(h * n) mod 2**32 < 2**32 mod n``.  Without a redraw
    a device's 2c values take the 2c halves of its next c words in order, so
    each device makes one ``random_raw(c)`` call: its first c halves land in
    its rows of the seeds and its last c in its rows of the grids, and the
    block is reduced in one pass.  A device with any rejected half is
    rewound by its c words and draws with ``integers`` itself; with 8, 52
    or 512 values that happens to at most 48 draws in 2**32.
    """
    if not 2 <= num_grids <= 2 ** 32:
        raise ValueError(f"draws need 2 to 2**32 values, got {num_grids}")
    ends = np.cumsum(counts)
    seeds = np.empty(int(counts.sum()), dtype=np.uint32)
    grids = np.empty_like(seeds)
    for rng, end, count in zip(rngs, ends.tolist(), counts.tolist()):
        halves = rng.bit_generator.random_raw(count).astype("<u8", copy=False).view("<u4")
        seeds[end - count:end] = halves[:count]
        grids[end - count:end] = halves[count:]
    rejected = []
    for values, high in ((seeds, SEED_COUNT), (grids, num_grids)):
        wide = values.astype(np.uint64)
        wide *= high
        rejected.append(np.flatnonzero(wide.astype(np.uint32) < 2 ** 32 % high))
        wide >>= 32
        values[:] = wide
    redrawn = np.searchsorted(ends, np.concatenate(rejected), side="right")
    for device in set(redrawn.tolist()):
        rng, end, count = rngs[device], int(ends[device]), int(counts[device])
        rng.bit_generator.advance(2 ** 128 - count)
        seeds[end - count:end] = rng.integers(0, SEED_COUNT, size=count, dtype=np.uint32)
        grids[end - count:end] = rng.integers(0, num_grids, size=count, dtype=np.uint32)
    return seeds, grids
