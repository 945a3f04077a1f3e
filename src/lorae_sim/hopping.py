"""Deterministic frequency-hopping sequences for LoRa-E payload fragments.

A transmission picks a 9-bit hopping seed and one grid; the hop for
fragment ``k`` is a slot drawn from a 32-bit avalanche hash of
``seed + k * 0x10000`` reduced modulo the grid size.  Consecutive equal
slots are bumped by one so the radio never dwells on a sub-carrier, which
also keeps successive hops at least one grid stride (the regulatory
minimum separation) apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import RegionalPlan

SEED_BITS = 9
SEED_COUNT = 1 << SEED_BITS        # 512 distinct sequences per grid size
_HOP_WORD_STRIDE = 0x10000

# Multiply constants for the xor-multiply avalanche mix below, fixed by an
# offline search for per-slot uniformity of the reduced values (every slot
# within 5% of the mean over all 512 seeds at 64 and 1024 hops, for grid
# sizes 35, 60 and 86).
_MIX_M1 = 0x45550FBF
_MIX_M2 = 0x6BF49967


class CarrierIndexError(IndexError):
    """Grid or slot index outside the regional plan's carrier layout."""


@dataclass(frozen=True, slots=True)
class CarrierId:
    """Position of one sub-carrier: OCW channel, grid, slot within grid."""

    ocw_channel: int
    grid: int
    slot: int


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


def slot_matrix(seeds: np.ndarray, n_hops: int, carriers_per_grid: int) -> np.ndarray:
    """Hop slots for many seeds at once, shape ``(len(seeds), n_hops)``.

    Row ``i`` is the sequence of ``seeds[i]``: hop ``k`` reduces the hash of
    (seed, k) modulo the grid size, and a slot equal to its (already
    bumped) predecessor is bumped by one.
    """
    if carriers_per_grid < 2:
        raise ValueError(f"hopping needs at least 2 slots per grid, got {carriers_per_grid}")
    seeds = np.asarray(seeds, dtype=np.uint32)
    hops = np.arange(n_hops, dtype=np.uint32)
    slots = (hop_hash_array(seeds[:, None], hops[None, :]) % np.uint32(carriers_per_grid)
             ).astype(np.int64)
    for k in range(1, n_hops):
        same = slots[:, k] == slots[:, k - 1]
        slots[same, k] = (slots[same, k] + 1) % carriers_per_grid
    return slots


def carrier_frequency(plan: RegionalPlan, carrier: CarrierId, channel_base_hz: int = 0) -> int:
    """Centre frequency offset in Hz of a sub-carrier within its OCW channel.

    Grids are interleaved at OBW spacing and slots within a grid sit one
    minimum hop separation apart, so two consecutive hops (always on the
    same grid, never the same slot) are separated by at least the
    regulatory minimum.
    """
    if plan.min_hop_separation_hz == 0:
        raise ValueError(f"plan {plan.region_id} has no hopping carriers")
    if not 0 <= carrier.ocw_channel < plan.num_ocw_channels:
        raise CarrierIndexError(
            f"OCW channel {carrier.ocw_channel} outside [0, {plan.num_ocw_channels})")
    if not 0 <= carrier.grid < plan.num_grids:
        raise CarrierIndexError(f"grid {carrier.grid} outside [0, {plan.num_grids})")
    if not 0 <= carrier.slot < plan.carriers_per_grid:
        raise CarrierIndexError(f"slot {carrier.slot} outside [0, {plan.carriers_per_grid})")
    return (channel_base_hz
            + carrier.grid * plan.obw_bandwidth_hz
            + carrier.slot * plan.min_hop_separation_hz)
