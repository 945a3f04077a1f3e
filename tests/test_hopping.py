"""Hopping hash, sequences, uniformity gates and the carrier geometry they serve."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
import pytest

from lorae_sim.engine import hop_hash_array, slot_table
from lorae_sim.params import EU868, SEED_COUNT, US915, regional_plan

import oracles
from oracles import carrier_frequency

DATA = Path(__file__).parent / "data"


def _load_hash_goldens() -> list[tuple[int, int, int]]:
    with open(DATA / "hash_goldens.csv", newline="") as f:
        return [(int(r["seed"]), int(r["hop"]), int(r["value"]))
                for r in csv.DictReader(f)]


def _load_sequence_goldens() -> dict[str, list[int]]:
    cases: dict[str, list[int]] = {}
    with open(DATA / "sequence_goldens.csv", newline="") as f:
        for r in csv.DictReader(f):
            cases.setdefault(r["case"], []).append(int(r["slot"]))
    return cases


# --- hash golden values and equivalences -----------------------------------

def test_hash_matches_frozen_goldens():
    seeds, hops, values = np.array(_load_hash_goldens(), dtype=np.int64).T
    assert hop_hash_array(seeds, hops).tolist() == values.tolist()


def test_hash_matches_independent_reimplementation():
    seeds = np.array([0, 1, 2, 17, 255, 300, 500, 511], dtype=np.uint32)
    hops = np.arange(200, dtype=np.uint32)
    values = hop_hash_array(seeds[:, None], hops[None, :])
    assert values.tolist() == [[oracles.hop_value(int(s), int(k)) for k in hops]
                               for s in seeds]


# --- sequences ---------------------------------------------------------------

def _sequence(seed: int, n_hops: int, cpg: int) -> list[int]:
    return slot_table(n_hops, cpg)[:, seed].tolist()


def test_sequence_matches_frozen_goldens():
    cases = _load_sequence_goldens()
    assert _sequence(17, 15, 35) == cases["seed17_grid3_cpg35"]
    assert _sequence(0, 8, 35) == cases["seed0_grid0_cpg35"]
    assert _sequence(511, 8, 86) == cases["seed511_grid7_cpg86"]
    assert _sequence(255, 8, 60) == cases["seed255_grid25_cpg60"]


def test_sequence_matches_oracle_and_matrix():
    for cpg in (35, 86, 60):
        table = slot_table(40, cpg)
        assert table.shape == (40, SEED_COUNT)
        assert table.flags.c_contiguous
        assert table.dtype == np.uint8
        for seed in (0, 3, 100, 511):
            assert table[:, seed].tolist() == oracles.hop_slots(seed, 40, cpg)


def test_no_consecutive_repeats_anywhere():
    for cpg in (35, 86, 60):
        table = slot_table(64, cpg)
        assert (table[1:] != table[:-1]).all()   # each column against its previous hop


def test_all_512_sequences_distinct():
    for cpg in (35, 86, 60):
        table = slot_table(16, cpg)
        assert len({tuple(column) for column in table.T}) == SEED_COUNT


def test_sequence_argument_validation():
    with pytest.raises(ValueError):
        slot_table(8, 1)
    # One hop never hops, so one carrier (LoRa's whole channel) is enough.
    assert (slot_table(1, 1) == 0).all()
    assert slot_table(0, 35).shape == (0, SEED_COUNT)


# --- uniformity gates -------------------------------------------------------

def _per_slot_deviation(matrix: np.ndarray, cpg: int) -> float:
    counts = np.bincount(matrix.ravel(), minlength=cpg)
    expected = matrix.size / cpg
    return float(np.abs(counts - expected).max() / expected)


@pytest.mark.parametrize("cpg, n_hops", [(35, 64), (35, 1024), (86, 1024), (60, 1024)])
def test_slot_usage_uniform_within_5_percent(cpg, n_hops):
    # Exhaustive over all 512 seeds: every slot within 5% of the mean,
    # both for raw hash reductions and after the repeat adjustment.
    seeds = np.arange(SEED_COUNT, dtype=np.uint32)
    hops = np.arange(n_hops, dtype=np.uint32)[:, None]
    raw = (hop_hash_array(seeds[None, :], hops) % np.uint32(cpg)).astype(np.int64)
    assert _per_slot_deviation(raw, cpg) <= 0.05
    adjusted = slot_table(n_hops, cpg)
    assert _per_slot_deviation(adjusted, cpg) <= 0.05


# --- carrier geometry -------------------------------------------------------

def test_consecutive_hop_separation_meets_regulatory_minimum():
    for region, dr, min_hop in [(EU868, "DR8", 3_900), (US915, "DR5", 25_400)]:
        plan = regional_plan(region, dr)
        # Widened first: uint8 slots would wrap in np.diff and overflow times min_hop.
        table = slot_table(64, plan.carriers_per_grid).astype(np.int64)
        freqs = table * min_hop   # same grid throughout a sequence
        gaps = np.abs(np.diff(freqs, axis=0))
        assert gaps.min() >= min_hop


def test_adjacent_grids_sit_one_obw_apart():
    plan = regional_plan(EU868, "DR8")
    same_slot_next_grid = (carrier_frequency(plan, 0, 1, 5)
                           - carrier_frequency(plan, 0, 0, 5))
    assert same_slot_next_grid == 488
    next_slot_same_grid = (carrier_frequency(plan, 0, 0, 6)
                           - carrier_frequency(plan, 0, 0, 5))
    assert next_slot_same_grid == 3_900


def test_carrier_frequency_layout():
    plan = regional_plan(EU868, "DR8")
    assert carrier_frequency(plan, 0, 0, 0) == 0
    assert carrier_frequency(plan, 0, 3, 7, channel_base_hz=868_100_000) \
        == 868_100_000 + 3 * 488 + 7 * 3_900


def test_carrier_bounds_checked():
    plan = regional_plan(EU868, "DR8")
    with pytest.raises(IndexError):
        carrier_frequency(plan, 0, 8, 0)
    with pytest.raises(IndexError):
        carrier_frequency(plan, 0, 0, 35)
    with pytest.raises(IndexError):
        carrier_frequency(plan, 7, 0, 0)
    with pytest.raises(ValueError):
        carrier_frequency(regional_plan(EU868, "DR0"), 0, 0, 0)
