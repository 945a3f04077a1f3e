"""Deterministic frequency-hopping sequences for LoRa-E payload fragments.

A transmission picks a 9-bit hopping seed and one grid; the hop for
fragment ``k`` is a slot drawn from a 32-bit avalanche hash of
``seed + k * 0x10000`` reduced modulo the grid size.  Consecutive equal
slots are bumped by one so the radio never dwells on a sub-carrier, which
also keeps successive hops at least one grid stride (the regulatory
minimum separation) apart.
"""

from __future__ import annotations

import numpy as np

SEED_COUNT = 512                   # 9-bit seeds: 512 distinct sequences per grid size
_HOP_WORD_STRIDE = 0x10000

# Multiply constants for the xor-multiply avalanche mix below, fixed by an
# offline search for per-slot uniformity of the reduced values (every slot
# within 5% of the mean over all 512 seeds at 64 and 1024 hops, for grid
# sizes 35, 60 and 86).
_MIX_M1 = 0x45550FBF
_MIX_M2 = 0x6BF49967


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

    Column ``s`` is the sequence of seed ``s``: hop ``k`` reduces the hash of
    (s, k) modulo the grid size, and a slot equal to its (already bumped)
    predecessor is bumped by one.  The dtype is the narrowest that holds
    ``carriers_per_grid``, so a bump never overflows before it wraps.  A
    sequence of at most one hop never hops, so one slot is enough for it.
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
