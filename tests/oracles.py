"""Independent reference implementations used only to check the package.

Everything here is written from first principles with different machinery
than the production code (pure-int bit twiddling, Fraction arithmetic,
explicit bit enumeration, quadratic collision search, per-packet loops) so
agreement is meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, exp, prod

import numpy as np

from lorae_sim.engine import Outcome, Scenario, ScenarioResult, bytes_per_packet
from lorae_sim.params import (LORA, SEED_COUNT, RegionalPlan, dr_profile, lora_time_on_air,
                              lorae_fragment_durations, max_packet_rate, regional_plan,
                              time_on_air)
from lorae_sim.traffic import DeviceConfig

M32 = 2 ** 32
SCHEDULE_BLOCK = 256   # exponential gaps are drawn this many at a time


def mix32(word: int) -> int:
    """xor-shift/multiply avalanche hash, recomputed step by step."""
    v = word % M32
    v = v ^ (v // 2 ** 16)
    v = (v * 0x45550FBF) % M32
    v = v ^ (v // 2 ** 13)
    v = (v * 0x6BF49967) % M32
    v = v ^ (v // 2 ** 16)
    return v


def hop_value(seed: int, hop: int) -> int:
    return mix32((seed + hop * 65536) % M32)


def hop_slots(seed: int, n_hops: int, slots_per_grid: int) -> list[int]:
    """Slot sequence with the bump-on-repeat rule applied."""
    out: list[int] = []
    for k in range(n_hops):
        slot = hop_value(seed, k) % slots_per_grid
        if out and slot == out[-1]:
            slot = (slot + 1) % slots_per_grid
        out.append(slot)
    return out


def carrier_frequency(plan: RegionalPlan, ocw_channel: int, grid: int, slot: int,
                      channel_base_hz: int = 0) -> int:
    """Centre frequency offset (Hz) of one sub-carrier within its OCW channel.

    Grids are interleaved at OBW spacing and the slots of a grid sit one
    minimum hop separation apart.  Raises ``IndexError`` for a channel,
    grid or slot outside the plan, and ``ValueError`` for a plan without
    hopping carriers.
    """
    if plan.min_hop_separation_hz == 0:
        raise ValueError("a plan without hop separation has no hopping carriers")
    for name, index, size in (("OCW channel", ocw_channel, plan.num_ocw_channels),
                              ("grid", grid, plan.num_grids),
                              ("slot", slot, plan.carriers_per_grid)):
        if not 0 <= index < size:
            raise IndexError(f"{name} {index} outside [0, {size})")
    return channel_base_hz + grid * plan.obw_bandwidth_hz + slot * plan.min_hop_separation_hz


def lora_airtime_ms(sf: int, payload_bytes: int) -> Fraction:
    """Exact LoRa airtime: 125 kHz, CR 4/5, CRC, explicit header, 8-symbol
    preamble, low-data-rate optimisation for SF >= 11."""
    t_symbol = Fraction(2 ** sf * 1000, 125_000)
    ldro = 2 if sf >= 11 else 0
    bits_over_capacity = Fraction(8 * payload_bytes - 4 * sf + 28 + 16, 4 * (sf - ldro))
    payload_symbols = 8 + max(0, ceil(bits_over_capacity) * 5)
    return (8 + Fraction(17, 4) + payload_symbols) * t_symbol


def lorae_fragments(payload_bytes: int, cr: Fraction) -> list[int]:
    """Per-fragment durations (ms) by enumerating 24-bit coded groups.

    The coded stream is (payload + 2 B CRC) * 8 + 6 tail bits, expanded by
    the code rate; each full 24-bit group flies for 50 ms and the leftover
    group for a proportional ceil'ed tail.
    """
    info_bits = (payload_bytes + 2) * 8 + 6
    coded_bits = ceil(info_bits / cr)
    groups = []
    remaining = coded_bits
    while remaining > 0:
        take = min(24, remaining)
        groups.append(ceil(Fraction(take * 50, 24)))
        remaining -= take
    return groups


def lorae_header_replicas(cr: Fraction) -> int:
    """Header copies a LoRa-E packet sends: one extra at code rate 1/3."""
    return 3 if cr == Fraction(1, 3) else 2


def lorae_airtime_ms(payload_bytes: int, cr: Fraction) -> int:
    return lorae_header_replicas(cr) * 233 + sum(lorae_fragments(payload_bytes, cr))


def expected_decoded_pkts_per_hour(region: str, dr: str, payload_bytes: int,
                                   devices: int) -> float:
    """Decoded pkt/h of a LoRa-E scenario by a closed-form Poisson model.

    Each device offers duty x 1 h / T packets an hour, T the packet's
    airtime.  The other packets hit each carrier as Poisson traffic of rate
    rho = offered pkt/ms / (grids x carriers per grid), and a packet of K
    emissions puts each on a carrier of its grid.  So an emission of
    duration d meets none of theirs with probability exp(-rho (K d + T)),
    taken independent of the packet's other emissions.  A packet decodes
    with a clean header and at least ceil(cr x fragments) clean fragments,
    a Poisson-binomial count.  Under deep overload the model is too
    pessimistic, because it takes a packet's emissions as independent.
    """
    cr = dr_profile(region, dr).coding_rate
    plan = regional_plan(region, dr)
    fragments = lorae_fragments(payload_bytes, cr)
    headers = [233] * lorae_header_replicas(cr)
    airtime = lorae_airtime_ms(payload_bytes, cr)
    offered = devices * plan.duty_cycle * 3_600_000 / airtime
    rho = offered / 3_600_000 / (plan.num_grids * plan.carriers_per_grid)
    emissions = len(headers) + len(fragments)

    def clean(duration: int) -> float:
        return exp(-rho * (emissions * duration + airtime))

    header_lost = prod(1 - clean(d) for d in headers)
    clean_count = [1.0]   # probability of each count of clean fragments so far
    for d in fragments:
        q = clean(d)
        clean_count = [lost * (1 - q) + kept * q
                       for lost, kept in zip(clean_count + [0.0], [0.0] + clean_count)]
    payload_kept = sum(clean_count[ceil(cr * len(fragments)):])
    return offered * (1 - header_lost) * payload_kept


def per_device_rate(region: str, dr: str, payload_bytes: int) -> float:
    """Duty-cycle-max packets/hour for one device, from the package's own airtime."""
    toa = time_on_air(dr_profile(region, dr), payload_bytes)
    return max_packet_rate(regional_plan(region, dr), toa)


def brute_force_collisions(intervals: list[tuple[object, int, int]]) -> list[bool]:
    """All-pairs overlap check over (carrier, start, end) half-open rows."""
    n = len(intervals)
    hit = [False] * n
    for i in range(n):
        ci, si, ei = intervals[i]
        for j in range(i + 1, n):
            cj, sj, ej = intervals[j]
            if ci == cj and si < ej and sj < ei:
                hit[i] = True
                hit[j] = True
    return hit


def sweep_collisions(intervals: list[tuple[object, int, int]]) -> list[bool]:
    """Overlap flags over (carrier, start, end) half-open rows, per carrier.

    In start order an interval overlaps an earlier one iff it starts before
    the furthest end seen so far, and a later one iff the next start falls
    before its own end.
    """
    by_carrier: dict[object, list[int]] = {}
    for i, (carrier, _, _) in enumerate(intervals):
        by_carrier.setdefault(carrier, []).append(i)
    hit = [False] * len(intervals)
    for members in by_carrier.values():
        members.sort(key=lambda i: intervals[i][1])
        reach = -1
        for pos, i in enumerate(members):
            _, start, end = intervals[i]
            later = pos + 1 < len(members) and intervals[members[pos + 1]][1] < end
            hit[i] = start < reach or later
            reach = max(reach, end)
    return hit


def reference_schedule(cfg: DeviceConfig, horizon_ms: int,
                       rng: np.random.Generator) -> list[int]:
    """Arrival times on [0, horizon), stepped one gap at a time.

    Gaps come in blocks of ``SCHEDULE_BLOCK`` exponential draws, each rounded
    up to a whole ms and at least 1; the first arrival at or past the
    horizon ends the schedule, so a block is drawn only when every arrival
    of the previous one fell inside the horizon.
    """
    times: list[int] = []
    t = 0
    while True:
        draws = rng.exponential(cfg.mean_interarrival_ms, size=SCHEDULE_BLOCK)
        for draw in draws.tolist():
            t += max(1, ceil(draw))
            if t >= horizon_ms:
                return times
            times.append(t)


def reference_stream(master_seed: int, device_index: int) -> np.random.Generator:
    """The stream contract itself: device ``device_index``'s generator, seeded
    by numpy's own ``SeedSequence`` rather than the package's block hash."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(master_seed, spawn_key=(device_index,))))


def reference_draws(scenario: Scenario) -> list[tuple[list[int], list[int], list[int]]]:
    """Per device, in index order: its start times, hopping seeds and grids.

    Each device's own stream gives the arrival schedule, then (LoRa-E) one
    block of hopping seeds and one block of grids; LoRa devices get none.
    """
    plan = scenario.devices[0].plan
    draws = []
    for index, dev in enumerate(scenario.devices):
        rng = reference_stream(scenario.master_seed, index)
        starts = reference_schedule(dev, scenario.horizon_ms, rng)
        if dev.profile.family == LORA:
            draws.append((starts, [], []))
            continue
        seeds = rng.integers(0, SEED_COUNT, size=len(starts), dtype=np.uint32)
        grids = rng.integers(0, plan.num_grids, size=len(starts), dtype=np.uint32)
        draws.append((starts, seeds.tolist(), grids.tolist()))
    return draws


def reference_run(scenario: Scenario,
                  draws: list[tuple[list[int], list[int], list[int]]] | None = None
                  ) -> ScenarioResult:
    """The result of ``engine.run`` rebuilt one packet and one emission at a time.

    Packets come from ``draws`` (per device: start times, hopping seeds and
    grids), by default from ``reference_draws``.  Each LoRa-E packet sends its
    header replicas back to back, then its fragments; emission k hops to
    slot k of the packet's sequence.
    """
    device = scenario.devices[0]
    profile, plan, payload = device.profile, device.plan, device.payload_bytes
    if profile.family == LORA:
        durations = [ceil(lora_time_on_air(profile, payload))]
        n_head = 0
    else:
        n_head = profile.header_replicas
        durations = [233] * n_head + list(lorae_fragment_durations(profile, payload))
    intervals: list[tuple[object, int, int]] = []
    for starts, seeds, grids in reference_draws(scenario) if draws is None else draws:
        if profile.family == LORA:
            intervals.extend(("channel", t, t + durations[0]) for t in starts)
            continue
        for t, seed, grid in zip(starts, seeds, grids):
            slots = hop_slots(seed, len(durations), plan.carriers_per_grid)
            for slot, dur in zip(slots, durations):
                intervals.append(((grid, slot), t, t + dur))
                t += dur
    hit = sweep_collisions(intervals)

    counts = {outcome: 0 for outcome in Outcome}
    n_frag = len(durations) - n_head
    needed = ceil(profile.coding_rate * n_frag)
    for first in range(0, len(hit), len(durations)):
        flags = hit[first:first + len(durations)]
        if profile.family == LORA:
            counts[Outcome.LOST_COLLISION if flags[0] else Outcome.DECODED] += 1
        elif all(flags[:n_head]):
            counts[Outcome.LOST_HEADER] += 1
        elif flags[n_head:].count(False) < needed:
            counts[Outcome.LOST_PAYLOAD] += 1
        else:
            counts[Outcome.DECODED] += 1

    decoded = counts.pop(Outcome.DECODED)
    per_hour = 3_600_000 / scenario.horizon_ms
    return ScenarioResult(
        device_count=len(scenario.devices),
        dr_label=profile.alias,
        payload_label=str(payload),
        master_seed=scenario.master_seed,
        horizon_ms=scenario.horizon_ms,
        generated_packets=len(hit) // len(durations),
        decoded_packets=decoded,
        offered_load_packets_per_hour=scenario.offered_load_pkts_per_hour(),
        throughput_packets_per_hour=decoded * per_hour,
        goodput_bytes_per_hour=decoded * payload * per_hour,
        loss_breakdown={k: v for k, v in counts.items() if v},
    )


def expected_bytes(scenario: Scenario) -> float:
    """The bytes ``engine.check_memory`` weighs against physical memory:
    offered load x horizon x ``bytes_per_packet``."""
    packets = scenario.offered_load_pkts_per_hour() * scenario.horizon_ms / 3_600_000
    return packets * bytes_per_packet(scenario)
