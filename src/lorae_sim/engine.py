"""Collision engine: places emissions on a ms x sub-carrier grid and decodes.

A scenario is one shared radio channel: a single 125 kHz channel for LoRa,
or a single OCW channel (280/688/3120 sub-carriers) for LoRa-E.  Emissions
are integer-millisecond, half-open time intervals bound to one sub-carrier
(or to the whole channel for LoRa).  Two emissions collide iff they share
the carrier and their intervals intersect; any intersection destroys both.
There is no capture effect and no partial-overlap survival.

Every packet of a scenario follows one template (``_packet_template``): a
LoRa-E packet is its header replicas, then its fragments, and needs one
uncollided header and ``ceil(coding_rate x fragment_count)`` uncollided
fragments; a LoRa packet is one emission, its own header, with threshold 0.
The layout, the decoding and the memory estimate all read the template, on
one path for both families: LoRa is one grid of one carrier, and one hop.

``run`` works one grid at a time.  Grids share no sub-carrier, so
packets on different grids never collide: the packets are split by grid,
and each grid's emissions are laid out as one hop-major (hops x packets)
block, collided and decoded on their own.  A seed has only ``SEED_COUNT``
values, so a run takes every seed's hop slots once, as one narrow (hops x
seeds) ``slot_table``, and a grid gathers its packets' slot columns from
it.  An emission is (carrier key, start, length) from the template to the
collision kernel, each in the narrowest dtype that holds it.  Peak memory
is then the per-packet draws plus the busiest grid's emissions.  Before
drawing, ``run`` refuses a scenario whose expected packets would not fit
in physical memory (``check_memory``).

Draws: each device's stream gives its arrival schedule, then its packets'
hopping seeds, then their grids.  The streams of a block of devices are
seeded together, from one vectorised pass of SeedSequence's hash over the
block's indices.  The seeds and grids of a device come from one call for
raw PCG64 words, reduced for a whole block of devices at once to exactly
the values ``Generator.integers`` would draw.
"""

from __future__ import annotations

import enum
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .hopping import SEED_COUNT, slot_table
from .params import LORA, LORA_E, DataRateProfile, RegionalPlan, max_packet_rate
from .params import HEADER_MS, lorae_fragment_durations, lora_time_on_air
from .traffic import DeviceConfig, device_streams, generate_schedule

_DRAW_DEVICES = 1024                 # devices per block of streams, schedules and hop draws
_EMISSION_BYTES = 64                 # peak RSS per emission of the grid being collided
_HOP_DRAW_BYTES = 28                 # and per packet: its draws and their grid split
_Template = tuple[np.ndarray, np.ndarray, int, int]   # offsets, durations, n_head, threshold


class ScenarioConfigError(ValueError):
    """Scenario mixes incompatible devices, or needs more than physical memory."""


class Outcome(enum.Enum):
    DECODED = "decoded"
    LOST_HEADER = "lost_header"        # every header replica collided
    LOST_PAYLOAD = "lost_payload"      # too few clean fragments to rebuild
    LOST_COLLISION = "lost_collision"  # LoRa single-emission collision


@dataclass(frozen=True, slots=True)
class Scenario:
    """Device population sharing one channel over one simulated horizon."""

    devices: tuple[DeviceConfig, ...]
    horizon_ms: int
    master_seed: int

    def __post_init__(self) -> None:
        if not self.devices:
            raise ScenarioConfigError("scenario needs at least one device")
        if self.horizon_ms <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon_ms}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed}")
        shared = (self.profile, self.payload_bytes, self.plan)
        for d in self.devices:
            if (d.profile, d.payload_bytes, d.plan) != shared:
                raise ScenarioConfigError("all devices must share one data rate, payload and "
                                          f"plan; device {d.device_id} differs")
        if len({d.device_id for d in self.devices}) != len(self.devices):
            raise ScenarioConfigError("device ids must be unique")

    @property
    def profile(self) -> DataRateProfile:
        return self.devices[0].profile

    @property
    def payload_bytes(self) -> int:
        return self.devices[0].payload_bytes

    @property
    def plan(self) -> RegionalPlan:
        return self.devices[0].plan

    def offered_load_pkts_per_hour(self) -> float:
        # Summed term by term, not multiplied: equal to the per-device sum bit for bit.
        rate = max_packet_rate(self.plan, self.devices[0].time_on_air_ms)
        return sum(itertools.repeat(rate, len(self.devices)))


@dataclass(frozen=True, slots=True)
class ScenarioResult:
    """Aggregate counters of one run, normalised to per-hour rates."""

    device_count: int
    dr_label: str
    payload_label: str
    master_seed: int
    horizon_ms: int
    generated_packets: int
    decoded_packets: int
    offered_load_packets_per_hour: float
    throughput_packets_per_hour: float
    goodput_bytes_per_hour: float
    loss_breakdown: dict[Outcome, int]

    def __post_init__(self) -> None:
        losses = sum(self.loss_breakdown.values())
        if self.decoded_packets + losses != self.generated_packets:
            raise ValueError("decoded + losses must equal generated")


def _packet_template(profile: DataRateProfile, payload_bytes: int) -> _Template:
    """One packet's emissions: (offsets, durations, n_head, threshold).

    A LoRa packet is one emission of its airtime rounded up to the whole ms,
    its only header, with no fragments.  A LoRa-E packet sends its header
    replicas back to back, then its fragments.  Either decodes with a clean
    header and ``threshold = ceil(coding_rate x fragments)`` clean fragments.
    """
    n_head = profile.header_replicas
    if profile.family == LORA:
        durations = (math.ceil(lora_time_on_air(profile, payload_bytes)),)
    else:
        durations = (HEADER_MS,) * n_head + lorae_fragment_durations(profile, payload_bytes)
    durs = np.array(durations, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(durs[:-1])))
    return offsets, durs, n_head, math.ceil(profile.coding_rate * (len(durs) - n_head))


# ---------------------------------------------------------------------------
# Batched scenario layout

def _draw_packets(scenario: Scenario) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start ms, hopping seed and grid of every packet, devices in index order.

    Each device draws from its own stream: its arrival schedule first, then
    (LoRa-E only) one block of hopping seeds, then one block of grids, as
    ``Generator.integers`` would draw them (see ``_hop_draws``).  Streams,
    schedules and hop draws are made ``_DRAW_DEVICES`` devices at a time,
    which keeps the draw buffers small.  A LoRa packet draws neither: it
    gets seed 0 and grid 0, one read-only zero-stride view for both.
    """
    starts, seeds, grids = [], [], []
    lorae = scenario.profile.family == LORA_E
    n = len(scenario.devices)
    for first in range(0, n, _DRAW_DEVICES):
        rngs = device_streams(scenario.master_seed, first, min(first + _DRAW_DEVICES, n))
        schedule = generate_schedule(scenario.devices[first], scenario.horizon_ms, rngs)
        starts.append(schedule.start_times)
        if lorae:
            block_seeds, block_grids = _hop_draws(rngs, schedule.counts, scenario.plan.num_grids)
            seeds.append(block_seeds)
            grids.append(block_grids)
    start = np.concatenate(starts)
    if not lorae:
        zeros = np.broadcast_to(np.uint32(0), start.shape)
        return start, zeros, zeros
    return start, np.concatenate(seeds), np.concatenate(grids)


def _hop_draws(rngs: list[np.random.Generator], counts: np.ndarray, num_grids: int
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


def _collide_arrays(key: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Exact all-pairs overlap flags of (carrier key, start, length) emissions.

    Keys, starts and lengths are non-negative integers of any integer
    dtypes; emission i covers [start[i], start[i] + length[i]).  Each
    emission moves onto one number line at ``key * span + start`` with
    ``span = max(start) + max(length) + 1``, so emissions on different
    carriers never overlap there and "same carrier and overlapping" becomes
    plain interval overlap.  The emission index sits in the low bits of each
    line position, so one in-place sort of the packed values gives the
    stable (key, start) order; each line end is then its start plus its
    gathered length.  An emission overlaps an earlier one iff it starts
    before the furthest end seen so far, and a later one iff the next start
    falls before its end.

    Raises ``ValueError`` when the packed values would not fit in int64.
    """
    n = key.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    span = int(start.max()) + int(length.max()) + 1
    bits = n.bit_length()
    if (int(key.max()) + 1) * span << bits >= 2 ** 63:
        raise ValueError(f"{n} emissions over a {span} ms span do not pack into int64")
    order = np.arange(n, dtype=np.int64)
    packed = key.astype(np.int64)
    packed *= span
    packed += start
    packed <<= bits
    packed |= order
    packed.sort()
    np.bitwise_and(packed, (1 << bits) - 1, out=order)
    packed >>= bits                          # line starts, ascending
    line = np.add(packed, length[order], dtype=np.int64)   # line ends
    hit = np.empty(n, dtype=bool)
    np.less(packed[1:], line[:-1], out=hit[:-1])                  # overlaps the next emission
    hit[-1] = False
    np.maximum.accumulate(line, out=line)
    collided = np.empty(n, dtype=bool)
    hit[1:] |= np.less(packed[1:], line[:-1], out=collided[1:])   # overlaps an earlier one
    collided[order] = hit
    return collided


def decode(clean: np.ndarray, n_head: int, threshold: int) -> dict[Outcome, int]:
    """Outcome counts of packets of either family from their uncollided-emission flags.

    ``clean`` is hop-major: one row per template emission, header replicas
    first, and one column per packet.  A packet decodes with at least one
    clean header and ``threshold`` clean fragments.  A LoRa packet's one
    emission is its header, and its threshold is 0.
    """
    heard = clean[:n_head].any(axis=0)
    fragments = clean[n_head:].sum(axis=0, dtype=np.min_scalar_type(len(clean)))
    n_heard = int(np.count_nonzero(heard))
    n_decoded = int(np.count_nonzero(heard & (fragments >= threshold)))
    return {Outcome.DECODED: n_decoded, Outcome.LOST_HEADER: clean.shape[1] - n_heard,
            Outcome.LOST_PAYLOAD: n_heard - n_decoded}


def bytes_per_packet(scenario: Scenario) -> int:
    """Peak memory a run of ``scenario`` is expected to need per packet.

    A packet of K template emissions on one of G grids adds K / G emissions
    to the grid being collided, plus its share of the draws.  LoRa is the
    case K = G = 1.  The line was fitted to the peak RSS of EU868 DR8, DR9,
    DR0 and DR5 and of US915 DR5 runs, and every measured peak lies between
    half of it and it.
    """
    _, durations, _, _ = _packet_template(scenario.profile, scenario.payload_bytes)
    return math.ceil(_HOP_DRAW_BYTES + _EMISSION_BYTES * len(durations) / scenario.plan.num_grids)


def check_memory(scenario: Scenario) -> int:
    """How many runs of ``scenario`` physical memory holds at once, at least 1.

    Raises ``ScenarioConfigError`` when the expected packet count (offered
    load x horizon) would need more than the machine's physical memory.
    """
    packets = scenario.offered_load_pkts_per_hour() * scenario.horizon_ms / 3_600_000
    per_packet = bytes_per_packet(scenario)
    need = packets * per_packet
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > limit:
        raise ScenarioConfigError(
            f"about {packets:.4g} packets would need {need:.4g} B "
            f"at {per_packet} B a packet, over the {limit:.4g} B of physical memory")
    return int(limit // need)


def run(scenario: Scenario) -> ScenarioResult:
    """Simulate one scenario deterministically and return its counters.

    Raises ``check_memory``'s error before drawing anything.  Every packet
    drawn counts as generated, so outcomes that miss one fail the result's check.
    """
    check_memory(scenario)
    template = _packet_template(scenario.profile, scenario.payload_bytes)
    start, seeds, grids = _draw_packets(scenario)
    outcomes = _run_lorae(start, seeds, grids, template, scenario.plan.carriers_per_grid)
    if scenario.profile.family == LORA:   # its one emission is its header
        outcomes[Outcome.LOST_COLLISION] = outcomes.pop(Outcome.LOST_HEADER)
    per_hour = 3_600_000 / scenario.horizon_ms
    decoded = outcomes.pop(Outcome.DECODED)
    return ScenarioResult(
        device_count=len(scenario.devices),
        dr_label=scenario.profile.alias,
        payload_label=str(scenario.payload_bytes),
        master_seed=scenario.master_seed,
        horizon_ms=scenario.horizon_ms,
        generated_packets=start.size,
        decoded_packets=decoded,
        offered_load_packets_per_hour=scenario.offered_load_pkts_per_hour(),
        throughput_packets_per_hour=decoded * per_hour,
        goodput_bytes_per_hour=decoded * scenario.payload_bytes * per_hour,
        loss_breakdown={k: v for k, v in outcomes.items() if v},
    )


def _run_lorae(start: np.ndarray, seeds: np.ndarray, grids: np.ndarray, template: _Template,
               carriers_per_grid: int) -> dict[Outcome, int]:
    """Collide and decode the packets of either family, one grid at a time.

    Grids share no carrier, so a packet can only collide with packets of
    its own grid.  The hop slots of all ``SEED_COUNT`` seeds come from one
    ``slot_table`` call, a (hops, seeds) table in a narrow unsigned dtype;
    emission starts and lengths, and the grid numbers the packets are
    stably sorted by, take the narrowest dtype that holds their largest
    value.  The sort is skipped when every packet is on grid 0 (so always
    for LoRa: one grid of one carrier, one hop).  Each non-empty grid
    gathers its hop-major (hops, packets) keys from the table, makes one
    collision call with its starts and template lengths and is decoded on
    its own.  The outcome counts add up to those of the whole scenario.

    The gather raises ``IndexError`` for a seed outside [0, SEED_COUNT).
    """
    offsets, durs, n_head, threshold = template
    table = slot_table(len(durs), carriers_per_grid)
    time_dtype = np.min_scalar_type(int(start.max(initial=0)) + int(offsets[-1]))
    offsets, durs = offsets.astype(time_dtype), durs.astype(np.min_scalar_type(int(durs.max())))
    top = int(grids.max(initial=0))
    if top == 0:
        parts = [(start, seeds)]
    else:
        order = np.argsort(grids.astype(np.min_scalar_type(top)), kind="stable")
        parts = ((start[m], seeds[m]) for m in np.split(order, np.cumsum(np.bincount(grids))[:-1])
                 if m.size)
    outcomes = dict.fromkeys((Outcome.DECODED, Outcome.LOST_HEADER, Outcome.LOST_PAYLOAD), 0)
    for grid_start, grid_seeds in parts:
        key = table.take(grid_seeds, axis=1)
        grid_start = grid_start.astype(time_dtype)
        collided = _collide_arrays(key.ravel(), np.add.outer(offsets, grid_start).ravel(),
                                   np.repeat(durs, grid_start.size))
        for outcome, count in decode(~collided.reshape(key.shape), n_head, threshold).items():
            outcomes[outcome] += count
    return outcomes
