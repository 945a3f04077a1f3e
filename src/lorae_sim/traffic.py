"""Poisson packet arrival schedules and hop draws, for a block of devices at once.

Every device transmits at the maximum average rate its duty cycle allows,
so the mean inter-arrival time is ``time_on_air / duty_cycle`` (100 x ToA
under the EU 1% rule).  Arrivals are a pure Poisson process: the rate is
duty-cycle-limited but no hard per-packet silent period is enforced.

Each device owns an independent RNG stream spawned from the master seed by
device index, so adding devices to a scenario never perturbs the schedules
of existing ones.  ``device_streams`` builds the streams of a block of
devices: one pass of numpy arithmetic over the block's indices computes
the words ``SeedSequence(master, spawn_key=(index,))`` would seed each
``PCG64`` with, so the streams are those of the contract without one
``SeedSequence`` per device.

A device's gaps are drawn from its stream 256 at a time, and a block is
drawn only while every arrival so far fell inside the horizon.
``generate_schedule`` runs these draws in rounds over many devices: each
round fills one row per still-active device and turns all rows into
arrival times with one running sum, so the Python work per device is one
fill call per round.

A LoRa-E device then takes its packets' hopping seeds and grids from the
same stream.  ``hop_draws`` gets them from one ``random_raw`` call per
device, reduced for the whole block at once to exactly the values
``Generator.integers`` would draw.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .params import SEED_COUNT, DataRateProfile, RegionalPlan, check_payload, time_on_air

_BLOCK = 256   # exponential draws are taken in fixed-size blocks

# numpy.random.SeedSequence's hash: its pool size and constants, and the
# number of uint64 words PCG64 seeds itself with.
_POOL_WORDS = 4
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
    spawn_key=(i,))))``, state for state; its seed words come from
    ``_seed_words``.  Indices must lie in [0, 2**32).
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
    entropy is the master seed's 32-bit words, least significant first and
    zero-padded to the 4-word pool, then the index as one word.  The pool
    takes the first 4 words, mixes every word into every other, then mixes
    in each remaining word; the state words hash the pool in turn.  Every
    step is uint32 arithmetic, so the master's words are 1-element arrays
    and each step broadcasts over the block once the index has mixed in.
    An index of 2**32 or more has two words, so it raises ``ValueError``.
    """
    if master_seed < 0:
        raise ValueError(f"master_seed must be non-negative, got {master_seed}")
    if not 0 <= first <= stop <= 2 ** 32:
        raise ValueError(f"device indices must lie in [0, 2**32), got [{first}, {stop})")
    words = [master_seed >> shift & _MASK32
             for shift in range(0, max(master_seed.bit_length(), 1), 32)]
    entropy = [np.array([word], dtype=np.uint32)
               for word in words + [0] * (_POOL_WORDS - len(words))]
    entropy.append(np.arange(first, stop, dtype=np.int64).astype(np.uint32))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_WORDS]]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = _mix(pool[dst], hashmix(word))
    state = np.empty((stop - first, 2 * _STATE_WORDS), dtype="<u4")
    hash_state = _hasher(_INIT_B, _MULT_B)
    for column in range(state.shape[1]):
        state[:, column] = hash_state(pool[column % _POOL_WORDS])
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


def hop_draws(rngs: list[np.random.Generator], counts: np.ndarray, num_grids: int
              ) -> tuple[np.ndarray, np.ndarray]:
    """Per generator and its count ``c``: ``c`` seeds, then ``c`` grids.

    Equal to ``rng.integers(0, SEED_COUNT, c)`` then ``rng.integers(0,
    num_grids, c)`` (uint32) per generator, concatenated in order.  numpy
    draws each value in [0, n) from the next 32-bit half ``h`` of a PCG64
    word, low half first, by Lemire's multiply-shift ``(h * n) >> 32``, and
    draws again when ``(h * n) mod 2**32 < 2**32 mod n``.  Without a redraw
    a device's 2c values take the 2c halves of its next c words in order, so
    each device makes one ``random_raw(c)`` call and the block is reduced in
    one pass.  A device with any rejected half is rewound by its c words and
    draws with ``integers`` itself; with 8, 52 or 512 values that happens
    to at most 48 draws in 2**32.
    """
    if not 2 <= num_grids <= 2 ** 32:
        raise ValueError(f"draws need 2 to 2**32 values, got {num_grids}")
    seeds, grids = _raw_halves(rngs, counts)   # frees the raw words before widening
    seed_redraws = _multiply_shift(seeds, SEED_COUNT)
    grid_redraws = _multiply_shift(grids, num_grids)
    ends = np.cumsum(counts)
    redrawn = np.searchsorted(ends, np.concatenate((seed_redraws, grid_redraws)), side="right")
    for device in set(redrawn.tolist()):
        rng, end, count = rngs[device], int(ends[device]), int(counts[device])
        rng.bit_generator.advance(2 ** 128 - count)
        seeds[end - count:end] = rng.integers(0, SEED_COUNT, size=count, dtype=np.uint32)
        grids[end - count:end] = rng.integers(0, num_grids, size=count, dtype=np.uint32)
    return seeds, grids


def _raw_halves(rngs: list[np.random.Generator], counts: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """The 32-bit halves of each generator's next ``c`` raw words, low half
    first: every generator's first c halves, then every generator's last c."""
    words = np.empty(int(counts.sum()), dtype="<u8")
    end = 0
    for rng, count in zip(rngs, counts.tolist()):
        words[end:end + count] = rng.bit_generator.random_raw(count)
        end += count
    halves = words.view("<u4")
    first = np.repeat(np.tile([True, False], len(counts)), np.repeat(counts, 2))
    head = halves[first]
    return head, halves[np.logical_not(first, out=first)]


def _multiply_shift(halves: np.ndarray, high: int) -> np.ndarray:
    """Turn uint32 ``halves`` in place into ``(h * high) >> 32``; return the
    indices of the halves Lemire's method rejects."""
    wide = halves.astype(np.uint64)
    wide *= high
    rejected = np.flatnonzero(wide.astype(np.uint32) < 2 ** 32 % high)
    wide >>= 32
    halves[:] = wide
    return rejected
