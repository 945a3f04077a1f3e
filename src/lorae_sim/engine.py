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

A run works grid by grid, in ``_run_lorae``.  Grids share no sub-carrier,
so packets on different grids never collide: the packets are grouped by
grid once, each keeping only its start and its seed, and the per-packet
draws, which only ``_run_lorae``'s own frame ever holds, are freed there,
on any Python and under any wrapper.  Each grid's emissions are laid
out as one hop-major (hops x packets) block, collided and decoded on their
own.  A seed has only ``SEED_COUNT`` values, so a run takes every seed's
hop slots once, as one narrow (hops x seeds) ``slot_table``, and a grid
gathers its packets' slot columns from it.  An emission is (carrier key,
start, length) from the template to the collision kernel, each in the
narrowest dtype that holds it, and the kernel works in a two-row int64
buffer.  The grids are shared among threads, each with its own buffers
for the busiest grid, allocated once a run; a thread beyond the first
runs only where the bytes the grouping frees pay for its buffers
(``_grid_threads``), so threads never raise a run's peak memory: the
larger of the per-packet draws and of the grouped packets plus the
threads' buffers.  Before drawing, ``run`` refuses a scenario whose
expected packets would not fit in physical memory (``check_memory``).

Draws: each packet's start, hopping seed and grid come from its device's
stream in ``traffic``, a block of devices at a time.
"""

from __future__ import annotations

import enum
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .params import LORA, LORA_E, DataRateProfile, RegionalPlan, max_packet_rate
from .params import HEADER_MS, SEED_COUNT, lorae_fragment_durations, lora_time_on_air
from .traffic import DeviceConfig, device_streams, generate_schedule, hop_draws

_DRAW_DEVICES = 1024                 # devices per block of streams, schedules and hop draws
_EMISSION_BYTES = 64                 # peak RSS per emission of the grid being collided
_HOP_DRAW_BYTES = 28                 # and per packet: its draws and their grid split
_Template = tuple[np.ndarray, np.ndarray, int, int]   # offsets, durations, n_head, threshold
_HOP_WORD_STRIDE = 0x10000

# Multiply constants for the xor-multiply avalanche mix of ``hop_hash_array``,
# fixed by an offline search for per-slot uniformity of the reduced values
# (every slot within 5% of the mean over all 512 seeds at 64 and 1024 hops,
# for grid sizes 35, 60 and 86).
_MIX_M1 = 0x45550FBF
_MIX_M2 = 0x6BF49967


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
    ``Generator.integers`` would draw them (see ``traffic.hop_draws``).  Streams,
    schedules and hop draws are made ``_DRAW_DEVICES`` devices at a time,
    which keeps the draw buffers small; a lone block's arrays are returned
    as drawn.  A LoRa packet draws neither: it gets seed 0 and grid 0, one
    read-only zero-stride view for both.
    """
    starts, seeds, grids = [], [], []
    lorae = scenario.profile.family == LORA_E
    n = len(scenario.devices)
    for first in range(0, n, _DRAW_DEVICES):
        rngs = device_streams(scenario.master_seed, first, min(first + _DRAW_DEVICES, n))
        schedule = generate_schedule(scenario.devices[first], scenario.horizon_ms, rngs)
        starts.append(schedule.start_times)
        if lorae:
            block_seeds, block_grids = hop_draws(rngs, schedule.counts, scenario.plan.num_grids)
            seeds.append(block_seeds)
            grids.append(block_grids)
    start = starts[0] if len(starts) == 1 else np.concatenate(starts)
    if not lorae:
        zeros = np.broadcast_to(np.uint32(0), start.shape)
        return start, zeros, zeros
    if len(starts) == 1:
        return start, seeds[0], grids[0]
    return start, np.concatenate(seeds), np.concatenate(grids)


def hop_hash_array(seeds: np.ndarray, hop_indices: np.ndarray) -> np.ndarray:
    """32-bit hash of (seed, hop index) over broadcastable uint32 arrays.

    Uniform after modulo reduction to a grid size.
    """
    x = (seeds.astype(np.uint32) + hop_indices.astype(np.uint32) * np.uint32(_HOP_WORD_STRIDE))
    x ^= x >> np.uint32(16)
    x *= np.uint32(_MIX_M1)
    x ^= x >> np.uint32(13)
    x *= np.uint32(_MIX_M2)
    x ^= x >> np.uint32(16)
    return x


def slot_table(n_hops: int, carriers_per_grid: int) -> np.ndarray:
    """Hop slots of every seed, a C-order ``(n_hops, SEED_COUNT)`` table.

    Column ``s`` is the hop sequence of seed ``s``: hop ``k`` is the hash
    of (s, k) modulo the grid size, and a slot equal to its (already
    bumped) predecessor is bumped by one, so the radio never dwells on a
    sub-carrier and successive hops lie at least one grid stride (the
    regulatory minimum separation) apart.  The dtype is the narrowest that
    holds ``carriers_per_grid``, so a bump never overflows before it wraps.
    A sequence of at most one hop never hops, so one slot is enough for it.
    """
    if carriers_per_grid < (2 if n_hops > 1 else 1):
        raise ValueError(f"{n_hops} hops need more than {carriers_per_grid} slots per grid")
    seeds = np.arange(SEED_COUNT, dtype=np.uint32)
    hops = np.arange(n_hops, dtype=np.uint32)
    slots = (hop_hash_array(seeds[None, :], hops[:, None]) % np.uint32(carriers_per_grid)
             ).astype(np.min_scalar_type(carriers_per_grid))
    for prev, row in zip(slots, slots[1:]):
        row += row == prev
        row[row == carriers_per_grid] = 0
    return slots


def _collide_arrays(key: np.ndarray, start: np.ndarray, length: np.ndarray, *,
                    work: np.ndarray | None = None) -> np.ndarray:
    """Exact all-pairs overlap flags of (carrier key, start, length) emissions.

    Keys, starts and lengths are non-negative integers of any integer
    dtypes; emission i covers [start[i], start[i] + length[i]).  Each
    emission moves onto one number line at ``key * span + start`` with
    ``span = max(start) + max(length) + 1``, so emissions on different
    carriers never overlap there and "same carrier and overlapping" becomes
    plain interval overlap.  The emission index sits in the low bits of each
    line position, ORed in from an index row of the narrowest signed dtype
    that holds it, so one in-place sort of the packed values gives the
    stable (key, start) order.  An emission overlaps an earlier one iff it
    starts before the furthest end seen so far, and a later one iff the
    next start falls before its end; a line end shifted up by the index
    bits compares with the packed starts as the end itself would.

    The kernel works in ``work``, an int64 buffer of at least ``(2, n)``
    for n emissions, allocated here when not given, and reads nothing past
    column n: row 0 holds the packed values, and row 1 in turn the sorted
    indices, the shifted line ends (then their running maximum) and the
    indices again for the final scatter.

    Raises ``ValueError`` when the packed values would not fit in int64.
    """
    n = key.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    span = int(start.max()) + int(length.max()) + 1
    bits = n.bit_length()
    if (int(key.max()) + 1) * span << bits >= 2 ** 63:
        raise ValueError(f"{n} emissions over a {span} ms span do not pack into int64")
    if work is None:
        work = np.empty((2, n), dtype=np.int64)
    packed, line = work[0, :n], work[1, :n]
    low = (1 << bits) - 1
    np.multiply(key, span, out=packed, dtype=np.int64)
    packed += start
    packed <<= bits
    packed |= np.arange(n, dtype=np.min_scalar_type(-n))
    packed.sort()
    np.bitwise_and(packed, low, out=line)             # sorted indices
    sorted_length = length[line]
    np.right_shift(packed, bits, out=line)            # line starts, ascending
    line += sorted_length
    line <<= bits                                     # line ends, shifted
    hit = np.empty(n, dtype=bool)
    np.less(packed[1:], line[:-1], out=hit[:-1])                  # overlaps the next emission
    hit[-1] = False
    np.maximum.accumulate(line, out=line)
    collided = np.empty(n, dtype=bool)
    hit[1:] |= np.less(packed[1:], line[:-1], out=collided[1:])   # overlaps an earlier one
    np.bitwise_and(packed, low, out=line)             # sorted indices again
    collided[line] = hit
    return collided


def decode(collided: np.ndarray, n_head: int, threshold: int) -> np.ndarray:
    """Decoded, lost-header and lost-payload counts of packets of either family.

    ``collided`` holds the collision flags hop-major: one row per template
    emission, header replicas first, and one column per packet.  A packet is
    heard unless every header replica collided, and decodes when at most
    ``fragments - threshold`` of its fragments collided.  A LoRa packet's one
    emission is its header, and its threshold is 0.
    """
    deaf = collided[:n_head].all(axis=0)
    lost = collided[n_head:].sum(axis=0, dtype=np.min_scalar_type(len(collided)))
    n_deaf = np.count_nonzero(deaf)
    n_decoded = np.count_nonzero(~deaf & (lost <= len(collided) - n_head - threshold))
    return np.array([n_decoded, n_deaf, deaf.size - n_deaf - n_decoded])


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
    drawn counts as generated, so outcomes that miss one fail the result's
    check.  The packet draws never reach this frame: ``_run_lorae`` draws
    them into its own and frees them before its grid phase.
    """
    check_memory(scenario)
    generated, decoded, lost_header, lost_payload = _run_lorae(scenario)
    header = Outcome.LOST_COLLISION if scenario.profile.family == LORA else Outcome.LOST_HEADER
    losses = {header: lost_header, Outcome.LOST_PAYLOAD: lost_payload}
    per_hour = 3_600_000 / scenario.horizon_ms
    return ScenarioResult(
        device_count=len(scenario.devices),
        dr_label=scenario.profile.alias,
        payload_label=str(scenario.payload_bytes),
        master_seed=scenario.master_seed,
        horizon_ms=scenario.horizon_ms,
        generated_packets=generated,
        decoded_packets=decoded,
        offered_load_packets_per_hour=scenario.offered_load_pkts_per_hour(),
        throughput_packets_per_hour=decoded * per_hour,
        goodput_bytes_per_hour=decoded * scenario.payload_bytes * per_hour,
        loss_breakdown={k: v for k, v in losses.items() if v},
    )


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _grid_threads(grids: int, freed: int, thread_bytes: int) -> int:
    """Threads that collide a run's ``grids`` non-empty grids.

    One per usable CPU, but no more than there are grids, and a thread
    beyond the first only where the ``freed`` bytes the grid phase lets go
    of pay for its ``thread_bytes`` of buffers, so that no thread raises
    the run's peak above its one-thread peak.
    """
    return max(1, min(_usable_cpus(), grids, 1 + freed // max(thread_bytes, 1)))


def _run_lorae(scenario: Scenario) -> tuple[int, int, int, int]:
    """Generated, decoded, lost-header and lost-payload counts of ``scenario``,
    either family: its packets drawn, collided and decoded grid by grid, on threads.

    Grids share no carrier, so a packet can only collide with packets of
    its own grid.  After the draws, the hop slots of all ``SEED_COUNT``
    seeds come from one ``slot_table`` call, a (hops, seeds) table in a
    narrow unsigned dtype; emission starts and lengths, and the grid
    numbers the packets are stably sorted by, take the narrowest dtype that
    holds their largest value.  The packets are grouped by grid once: each
    keeps its start, in that narrow dtype, and its seed, and the draws and
    the sort order are let go of.  Only this frame holds the draws, so they
    are freed before the grid phase on any Python and under any wrapper of
    this function.  The sort is skipped when every packet is on grid 0 (so
    always for LoRa: one grid of one carrier, one hop).

    Each non-empty grid lays out its hop-major (hops, packets) keys, starts
    and template lengths in a thread's buffers, makes one collision call in
    its int64 work buffer and is decoded on its own.  Every thread's
    buffers are sized for the busiest grid and allocated here, before any
    thread starts; ``_grid_threads`` sets how many threads there are, each
    taking the next grid not yet taken.  The grids' ``decode`` counts add up,
    in any order, to those of the whole scenario.

    The gather raises ``IndexError`` for a seed outside [0, SEED_COUNT).
    """
    offsets, durs, n_head, threshold = _packet_template(scenario.profile, scenario.payload_bytes)
    start, seeds, grids = _draw_packets(scenario)
    table = slot_table(len(durs), scenario.plan.carriers_per_grid)
    time_dtype = np.min_scalar_type(int(start.max(initial=0)) + int(offsets[-1]))
    offsets, durs = offsets.astype(time_dtype), durs.astype(np.min_scalar_type(int(durs.max())))
    held = start.nbytes + seeds.nbytes + grids.nbytes
    start = start.astype(time_dtype)
    top = int(grids.max(initial=0))
    if top == 0:
        per_grid = np.array([start.size])
    else:
        per_grid = np.bincount(grids)
        order = np.argsort(grids.astype(np.min_scalar_type(top)), kind="stable")
        held += order.nbytes
        del grids
        seeds, start = seeds[order], start[order]
        del order
    ends = np.cumsum(per_grid).tolist()
    bounds = iter([(end - count, end) for end, count in zip(ends, per_grid.tolist()) if count])
    emissions = int(per_grid.max()) * len(durs)

    def buffer_set() -> tuple[np.ndarray, ...]:
        return (np.empty((2, emissions), dtype=np.int64), np.empty(emissions, dtype=table.dtype),
                np.empty(emissions, dtype=time_dtype), np.empty(emissions, dtype=durs.dtype))

    def collide(buffers: tuple[np.ndarray, ...]) -> np.ndarray:
        work, key, em_start, length = buffers
        counts = np.zeros(3, dtype=np.int64)
        for first, stop in bounds:   # shared by the threads: each grid goes to one of them
            shape = (len(durs), stop - first)
            n = shape[0] * shape[1]
            table.take(seeds[first:stop], axis=1, out=key[:n].reshape(shape))
            np.add(offsets[:, None], start[first:stop], out=em_start[:n].reshape(shape))
            length[:n].reshape(shape)[:] = durs[:, None]
            collided = _collide_arrays(key[:n], em_start[:n], length[:n], work=work)
            counts += decode(collided.reshape(shape), n_head, threshold)
        return counts

    sets = [buffer_set()]
    threads = _grid_threads(np.count_nonzero(per_grid), held - start.nbytes - seeds.nbytes,
                            sum(b.nbytes for b in sets[0]))
    sets += [buffer_set() for _ in range(threads - 1)]
    if threads == 1:
        return (start.size, *collide(sets[0]).tolist())
    from concurrent.futures import ThreadPoolExecutor   # kept out of the package's import time
    with ThreadPoolExecutor(threads - 1) as pool:
        others = pool.map(collide, sets[1:])   # started before this thread takes its share
        return (start.size, *(collide(sets[0]) + sum(others)).tolist())
