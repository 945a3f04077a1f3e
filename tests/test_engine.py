"""Collision detection, adjudication and scenario orchestration."""

from __future__ import annotations

import dataclasses
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lorae_sim import engine, traffic
from lorae_sim.engine import (Outcome, Scenario, ScenarioConfigError, _collide_arrays,
                              _packet_template, decode, run)
from lorae_sim.experiments import RESULT_COLUMNS, build_scenario, csv_row
from lorae_sim.params import (EU868, US915, RegionalPlan, dr_profile, max_packet_rate,
                               regional_plan)
from lorae_sim.traffic import DeviceConfig, device_streams

import oracles


def _device(dr: str, payload: int, device_id: int = 0, region: str = EU868) -> DeviceConfig:
    return DeviceConfig(device_id, dr_profile(region, dr), payload,
                        regional_plan(region, dr))


def _scenario(dr: str, payload: int, devices: int, horizon_ms: int,
              seed: int, region: str = EU868) -> Scenario:
    return build_scenario(region, dr, payload, devices, horizon_ms, seed)


def _run_drawn(monkeypatch, scenario: Scenario, starts: list[int], seeds: list[int],
               grids: list[int]):
    """Run ``scenario`` on hand-set packet draws; return the result and one
    (key, start, length) triple per call of the collision sweep, copied
    because a run lays out every grid in the same buffers."""
    laid_out = []

    def collide(key, start, length, **kwargs):
        laid_out.append((key.copy(), start.copy(), length.copy()))
        return _collide_arrays(key, start, length, **kwargs)

    monkeypatch.setattr(engine, "_draw_packets", lambda _: (
        np.array(starts, dtype=np.int64), np.array(seeds, dtype=np.uint32),
        np.array(grids, dtype=np.uint32)))
    monkeypatch.setattr(engine, "_collide_arrays", collide)
    return run(scenario), laid_out


# --- packet draws ------------------------------------------------------------

def _assert_draws_equal_oracle(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    start, seeds, grids = engine._draw_packets(scenario)
    expected = oracles.reference_draws(scenario)
    assert start.tolist() == [t for starts, _, _ in expected for t in starts]
    assert seeds.tolist() == [s for _, dev_seeds, _ in expected for s in dev_seeds]
    assert grids.tolist() == [g for _, _, dev_grids in expected for g in dev_grids]
    return seeds, grids


@pytest.mark.parametrize("devices", [1023, 1024, 1025])
def test_draws_equal_per_device_oracle_across_device_blocks(devices):
    # Schedules are drawn in blocks of devices; the last device of one block
    # and the first of the next must still get their own streams in order.
    scenario = _scenario("DR8", 10, devices, 600_000, seed=5)
    seeds, grids = _assert_draws_equal_oracle(scenario)
    assert len(set(seeds.tolist())) > 1 and len(set(grids.tolist())) > 1


def _integers_draws(rngs, counts, num_seeds, num_grids):
    seeds, grids = [], []
    for rng, count in zip(rngs, counts):
        seeds.extend(rng.integers(0, num_seeds, size=count, dtype=np.uint32).tolist())
        grids.extend(rng.integers(0, num_grids, size=count, dtype=np.uint32).tolist())
    return seeds, grids


@pytest.mark.parametrize("high", [8, 52, 512, 3 << 30])
@pytest.mark.parametrize("count", [1, 27, 28, 40, 41])
def test_hop_draws_equal_integers(monkeypatch, high, count):
    # Odd counts carry a buffered half-word from the seeds into the grids;
    # at 3 << 30 a quarter of all draws are rejected and redrawn.
    counts = np.array([count, 0, count + 1, 2 * count, 3])
    for num_seeds, num_grids in ((high, high), (traffic.SEED_COUNT, high), (high, 8)):
        monkeypatch.setattr(traffic, "SEED_COUNT", num_seeds)
        rngs = device_streams(9, 0, len(counts))
        seeds, grids = traffic.hop_draws(rngs, counts, num_grids)
        assert seeds.dtype == grids.dtype == np.uint32
        rngs = device_streams(9, 0, len(counts))
        assert (seeds.tolist(), grids.tolist()) == _integers_draws(rngs, counts.tolist(),
                                                                   num_seeds, num_grids)


@pytest.mark.parametrize("high", [0, 1, 2 ** 32 + 1])
def test_hop_draws_need_2_to_2_32_values(high):
    # integers(0, 1) consumes no words, so no raw word can stand for its draw.
    with pytest.raises(ValueError, match="2 to 2\\*\\*32 values"):
        traffic.hop_draws(device_streams(0, 0, 1), np.array([3]), high)


def test_draws_equal_oracle_when_draws_are_rejected(monkeypatch):
    # With 3 << 30 seeds a quarter of the seed draws are rejected, so nearly
    # every device takes the rewind-and-redraw path.
    monkeypatch.setattr(traffic, "SEED_COUNT", 3 << 30)
    monkeypatch.setattr(oracles, "SEED_COUNT", 3 << 30)
    _assert_draws_equal_oracle(_scenario("DR8", 10, 40, 3_600_000, seed=2))


@pytest.mark.parametrize("seed", [0, 1])
def test_us915_draws_equal_oracle(seed):
    # 52 grids: the only plan where a draw can be rejected (48 in 2**32).
    _assert_draws_equal_oracle(_scenario("DR5", 10, 12, 3_600_000, seed=seed, region=US915))


# Traced peaks of ``_draw_packets`` and of the whole ``run`` per packet (B),
# as ``measure_live_draws`` measures them.  numpy reports its data buffers
# to ``tracemalloc``, so a peak counts the live arrays and nothing of the
# heap layout, and a few bytes a packet of regression show.
LIVE_DRAWS = [   # (region, dr, devices, hours, measured B a packet: draws, run)
    (EU868, "DR8", 2_000, 1, (70.10, 70.11)),
    (EU868, "DR9", 2_000, 1, (48.95, 48.95)),
    (EU868, "DR0", 100, 4, (36.76, 36.80)),
    (EU868, "DR5", 100, 4, (18.14, 35.02)),
    (US915, "DR5", 50, 1, (32.47, 32.48)),
]


def _live_scenario(region: str, dr: str, devices: int, hours: int) -> Scenario:
    return _scenario(dr, 10, devices, hours * 3_600_000, seed=1, region=region)


def _live_peaks(scenario: Scenario) -> tuple[float, float]:
    """Traced peaks per packet (B) of the draws and of the whole ``run`` of
    ``scenario``, after a warm-up run of its family (the first run loads
    ``numpy.random``)."""
    run(dataclasses.replace(scenario, devices=scenario.devices[:2], horizon_ms=60_000))
    peaks = []
    for call in (engine._draw_packets, run):
        tracemalloc.start()
        try:
            result = call(scenario)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks[0] / result.generated_packets, peaks[1] / result.generated_packets


# Traced peaks of the whole ``run`` per packet (B) at the goodput peaks,
# where the grid phase, not the draws' fixed cost per block, could set it.
LIVE_RUNS = [   # (region, dr, devices, hours, measured B a packet: draws, run)
    (EU868, "DR8", 9_000, 1, (34.52, 34.53)),
    (EU868, "DR9", 5_000, 1, (34.96, 34.96)),
    (US915, "DR5", 200, 1, (32.33, 32.34)),
]


def measure_live_draws() -> list[tuple[str, str, int, int, tuple[float, float]]]:
    """Each ``LIVE_DRAWS`` and ``LIVE_RUNS`` row with its draws' and its
    whole run's traced peaks remeasured at 10 B and seed 1.  Tier-1 does
    not call it; remeasure the rows with::

        PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
            import test_engine as t; print(*t.measure_live_draws(), sep='\\n')"
    """
    return [(*row[:4], tuple(round(peak, 2) for peak in _live_peaks(_live_scenario(*row[:4]))))
            for row in LIVE_DRAWS + LIVE_RUNS]


_LIVE_VARIANTS = ("", "-wrapped", "-8cpus")


@pytest.mark.parametrize("region, dr, devices, hours, measured, variant",
                         [(*row, v) for v in _LIVE_VARIANTS for row in LIVE_DRAWS],
                         ids=[f"{r}-{dr}-{n}{v}"
                              for v in _LIVE_VARIANTS for r, dr, n, _, _ in LIVE_DRAWS])
def test_draws_need_less_memory_than_bytes_per_packet(monkeypatch, region, dr, devices, hours,
                                                      measured, variant):
    # The draws are the first part of a run's peak: theirs and the whole
    # run's stay at their recorded values, and the whole run's fits in the
    # estimate.  Without the schedule's early release of its draw buffer
    # EU868 DR8, DR9 and DR0 exceed their draws' values, without that of
    # its rounds DR0 and DR5 do, and without its in-place conversion of
    # rounds where every device is active DR8 and DR0 do.  When anything
    # outside ``_run_lorae`` holds the draws through the grid phase, every
    # row exceeds its run's value, so the wrapped cases call it through an
    # ``*args`` wrapper, as the benchmark's tracer does: such a wrapper
    # would hold draws passed in as arguments.  With an int64 index row in
    # the collision kernel EU868 DR8 exceeds it.  On 8 CPUs the thread rule
    # must still count each thread's scratch besides its buffers: without
    # that, US915 DR5 gets a third thread and exceeds its run's value.
    if variant == "-wrapped":
        layout = engine._run_lorae
        monkeypatch.setattr(engine, "_run_lorae", lambda *args, **kwargs: layout(*args, **kwargs))
    if variant == "-8cpus":
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 8)
    scenario = _live_scenario(region, dr, devices, hours)
    draws, whole = _live_peaks(scenario)
    assert draws <= measured[0] + 1
    assert whole <= measured[1] + 1
    assert whole <= engine.bytes_per_packet(scenario)


@pytest.mark.parametrize("region, dr, devices, hours, measured, cpus",
                         [(*row, cpus) for cpus in (2, 8) for row in LIVE_RUNS],
                         ids=[f"{r}-{dr}-{n}-{cpus}cpus"
                              for cpus in (2, 8) for r, dr, n, _, _ in LIVE_RUNS])
def test_runs_at_the_goodput_peaks_hold_their_traced_peaks(monkeypatch, region, dr, devices,
                                                           hours, measured, cpus):
    # The draws set these peaks, on as many threads as the freed draws pay
    # for.  Were a thread's buffers sized for a whole grid (about 487 k
    # emissions for EU868 DR8's busiest), the grid phase would set them:
    # 62.8 B a packet on DR8 and 38.9 on DR9.
    monkeypatch.setattr(engine, "_usable_cpus", lambda: cpus)
    scenario = _live_scenario(region, dr, devices, hours)
    _, whole = _live_peaks(scenario)
    assert whole <= measured[1] + 1
    assert whole <= engine.bytes_per_packet(scenario)


def test_one_block_of_draws_is_returned_as_drawn(monkeypatch):
    # 1 024 devices are one block: its schedule and hop draws are not copied.
    hop = []
    monkeypatch.setattr(engine, "hop_draws",
                        lambda *args: hop.append(traffic.hop_draws(*args)) or hop[-1])
    start, seeds, grids = engine._draw_packets(_scenario("DR8", 10, 1024, 600_000, seed=2))
    assert not start.flags.writeable   # the schedule's own array
    assert seeds is hop[0][0] and grids is hop[0][1]


def test_lorae_run_needs_less_memory_than_its_emission_bytes(monkeypatch):
    # The layout, collision and decoding of one window at a time are the
    # rest of a run's peak: their own traced peak must fit in the estimate's
    # bytes for the busiest grid's emissions, which over-cover a window.
    # The draws are made before tracing and handed over as drawn.
    scenario = _scenario("DR8", 10, 1000, 3_600_000, seed=1)
    template = _packet_template(scenario.profile, 10)
    start, seeds, grids = engine._draw_packets(scenario)
    monkeypatch.setattr(engine, "_draw_packets", lambda _: (start, seeds, grids))
    engine._run_lorae(scenario)   # imports
    tracemalloc.start()
    try:
        engine._run_lorae(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < engine._EMISSION_BYTES * np.bincount(grids).max() * len(template[1])


# --- emission layout ---------------------------------------------------------

def test_dr8_emission_layout():
    offsets, durs, n_head, _ = _packet_template(dr_profile(EU868, "DR8"), 10)
    assert (n_head, len(durs)) == (3, 16)          # 3 header replicas, 13 fragments
    assert offsets[:4].tolist() == [0, 233, 466, 699]
    # Contiguous in sequence order; total span is the packet airtime.
    assert (offsets[1:] == offsets[:-1] + durs[:-1]).all()
    assert offsets[-1] + durs[-1] == 1337


def test_dr9_emission_layout():
    offsets, durs, n_head, _ = _packet_template(dr_profile(EU868, "DR9"), 10)
    assert (n_head, len(durs)) == (2, 9)           # 2 header replicas, 7 fragments
    assert offsets[-1] + durs[-1] == 785


def test_emission_slots_follow_hopping_sequence(monkeypatch):
    # One collision call per non-empty grid, in grid order: each lays out
    # its packets' emissions in hop order, keyed by slot, from their start.
    scenario = _scenario("DR8", 10, 1, 3_600_000, seed=0)
    _, calls = _run_drawn(monkeypatch, scenario, [1000, 5000],
                          seeds=[211, 17], grids=[4, 0])
    offsets, durs, _, _ = _packet_template(dr_profile(EU868, "DR8"), 10)
    (key0, start0, length0), (key4, start4, length4) = calls
    assert key0.tolist() == oracles.hop_slots(17, 16, 35)
    assert key4.tolist() == oracles.hop_slots(211, 16, 35)
    assert start0.tolist() == (5000 + offsets).tolist()
    assert start4.tolist() == (1000 + offsets).tolist()
    assert length0.tolist() == length4.tolist() == durs.tolist()


@pytest.mark.parametrize("region, dr", [(EU868, "DR8"), (EU868, "DR9"), (US915, "DR5")])
def test_slot_table_keys_equal_oracle_for_every_seed(monkeypatch, region, dr):
    # All 512 seeds, shuffled, on one grid: the keys a run gathers from its
    # slot table are each seed's own sequence, packet for packet.
    seeds = np.random.default_rng(3).permutation(engine.SEED_COUNT)
    scenario = _scenario(dr, 10, 1, 3_600_000, seed=0, region=region)
    _, [(key, _, _)] = _run_drawn(monkeypatch, scenario, [0] * seeds.size, seeds.tolist(),
                                  [1] * seeds.size)
    hops = len(_packet_template(scenario.profile, 10)[1])
    for seed, column in zip(seeds.tolist(), key.reshape(hops, seeds.size).T.tolist()):
        assert column == oracles.hop_slots(seed, hops, scenario.plan.carriers_per_grid)


@pytest.mark.parametrize("seed", [engine.SEED_COUNT, 2 ** 16])
def test_seed_outside_the_hopping_domain_raises(monkeypatch, seed):
    scenario = _scenario("DR8", 10, 1, 3_600_000, seed=0)
    with pytest.raises(IndexError, match=f"index {seed} is out of bounds"):
        _run_drawn(monkeypatch, scenario, [0, 10], seeds=[7, seed], grids=[0, 1])


def test_lora_emission_is_whole_channel(monkeypatch):
    _, [(key, start, length)] = _run_drawn(monkeypatch, _scenario("DR0", 10, 1, 3_600_000, 0),
                                           [50, 3000], seeds=[0, 0], grids=[0, 0])
    assert key.tolist() == [0, 0]
    assert start.tolist() == [50, 3000]
    assert length.tolist() == [992, 992]
    assert _packet_template(dr_profile(EU868, "DR0"), 10)[1].tolist() == [992]


# --- collision flags ---------------------------------------------------------

def _flags(rows: list[tuple[tuple[int, int], int, int]]) -> list[bool]:
    """Collision flags of ((grid, slot), start, end) rows on a 35-slot grid."""
    key = np.array([grid * 35 + slot for (grid, slot), _, _ in rows], dtype=np.int64)
    start = np.array([r[1] for r in rows], dtype=np.int64)
    end = np.array([r[2] for r in rows], dtype=np.int64)
    return _collide_arrays(key, start, end - start).tolist()


def test_overlap_on_same_carrier_collides():
    assert _flags([((0, 3), 0, 50), ((0, 3), 25, 75)]) == [True, True]


def test_half_open_intervals_do_not_collide_back_to_back():
    assert _flags([((0, 3), 0, 50), ((0, 3), 50, 100)]) == [False, False]


def test_same_slot_different_grid_is_clean():
    assert _flags([((0, 3), 0, 50), ((1, 3), 25, 75)]) == [False, False]


def test_flags_idempotent_and_symmetric():
    rows = [((2, 9), 0, 60), ((2, 9), 10, 20), ((2, 9), 100, 130)]
    for _ in range(2):
        assert _flags(rows) == [True, True, False]
    assert _flags(rows[::-1]) == [False, True, True]


def test_grid_isolation():
    # Flags of a single-grid population are unchanged by traffic on
    # another grid.
    rng = np.random.default_rng(5)
    local = [((0, int(s)), int(t), int(t) + 50)
             for s, t in zip(rng.integers(0, 35, 60), rng.integers(0, 2000, 60))]
    foreign = [((3, int(s)), int(t), int(t) + 50)
               for s, t in zip(rng.integers(0, 35, 60), rng.integers(0, 2000, 60))]
    assert _flags(local + foreign)[:len(local)] == _flags(local)


@pytest.mark.parametrize("trial", range(20))
def test_collision_flags_equal_brute_force(trial):
    # Random <= 100-emission scenarios: sweep flags match the quadratic
    # all-pairs oracle exactly.
    rng = np.random.default_rng(1000 + trial)
    n = int(rng.integers(2, 100))
    keys = rng.integers(0, 6, n)          # few carriers -> many overlaps
    starts = rng.integers(0, 400, n)
    lengths = rng.integers(1, 80, n)
    rows = [(int(k), int(s), int(s + d)) for k, s, d in zip(keys, starts, lengths)]
    expected = oracles.brute_force_collisions(rows)
    assert _flags([((0, k), s, e) for k, s, e in rows]) == expected
    assert oracles.sweep_collisions(rows) == expected


def _rows(key, start, end) -> list[tuple[int, int, int]]:
    return [(int(k), int(s), int(e)) for k, s, e in zip(key, start, end)]


def test_identical_emissions_all_collide():
    # Runs of equal (key, start) rows tie in the sort; every member of a run
    # overlaps the others, a lone row does not.
    key = np.array([4, 4, 4, 7, 4, 7, 9], dtype=np.int64)
    start = np.array([10, 10, 10, 30, 10, 30, 30], dtype=np.int64)
    end = start + 5
    flags = _collide_arrays(key, start, end - start).tolist()
    assert flags == oracles.brute_force_collisions(_rows(key, start, end))
    assert flags == [True, True, True, True, True, True, False]


def test_single_emission_is_clean():
    one = np.array([3], dtype=np.int64)
    assert _collide_arrays(one, np.array([0]), np.array([50])).tolist() == [False]


def test_unsorted_input_flags_stay_in_input_order():
    key = np.array([2, 0, 2, 1, 0, 2], dtype=np.int64)
    start = np.array([90, 40, 0, 5, 0, 60], dtype=np.int64)
    end = np.array([120, 45, 70, 9, 41, 95], dtype=np.int64)
    flags = _collide_arrays(key, start, end - start).tolist()
    assert flags == oracles.brute_force_collisions(_rows(key, start, end))
    assert flags == [True, True, True, False, True, True]


def test_carrier_keys_in_the_thousands():
    # US915 DR5/DR6 has 3 120 sub-carriers: keys span many line segments.
    rng = np.random.default_rng(77)
    key = rng.integers(0, 3120, 400)
    key[:40] = 3119
    start = rng.integers(0, 300, 400)
    end = start + rng.integers(1, 60, 400)
    expected = oracles.brute_force_collisions(_rows(key, start, end))
    assert _collide_arrays(key, start, end - start).tolist() == expected
    assert any(expected) and not all(expected)


@pytest.mark.parametrize("longest", [233, 992])   # a DR8 header; a DR0 airtime needs uint16
def test_uint8_keys_and_int32_times_equal_brute_force(longest):
    rng = np.random.default_rng(31)
    key = rng.integers(0, 35, 300).astype(np.uint8)
    start = rng.integers(0, 40 * longest, 300).astype(np.int32)
    length = rng.integers(1, longest + 1, 300).astype(np.int32)
    length[0] = longest
    end = start + length
    expected = oracles.brute_force_collisions(_rows(key, start, end))
    assert _collide_arrays(key, start, end - start).tolist() == expected
    assert any(expected) and not all(expected)


def test_large_random_case_equals_sweep_oracle():
    rng = np.random.default_rng(2024)
    key = rng.integers(0, 50, 5000)
    start = rng.integers(0, 200_000, 5000)
    end = start + rng.integers(1, 400, 5000)
    expected = oracles.sweep_collisions(_rows(key, start, end))
    assert _collide_arrays(key, start, end - start).tolist() == expected
    assert 0 < sum(expected) < len(expected)


def _brute_force_by_carrier(rows: list[tuple[int, int, int]]) -> list[bool]:
    """``oracles.brute_force_collisions`` carrier by carrier: only rows of one
    carrier can overlap, so the flags are the same and the pairs far fewer."""
    by_carrier: dict[int, list[int]] = {}
    for i, (carrier, _, _) in enumerate(rows):
        by_carrier.setdefault(carrier, []).append(i)
    flags = [False] * len(rows)
    for members in by_carrier.values():
        for i, hit in zip(members, oracles.brute_force_collisions([rows[i] for i in members])):
            flags[i] = hit
    return flags


@pytest.mark.parametrize("n", [128, 129, 32_768, 32_769])
def test_flags_equal_brute_force_across_index_dtype_boundaries(n):
    # The index row is int8 up to 128 emissions, int16 up to 32 768 and
    # int32 beyond: on each side of each step the flags are the oracle's.
    rng = np.random.default_rng(n)
    key = rng.integers(0, n // 16, n)
    start = rng.integers(0, 400, n)
    end = start + rng.integers(1, 40, n)
    expected = _brute_force_by_carrier(_rows(key, start, end))
    assert _collide_arrays(key, start, end - start).tolist() == expected
    assert 0 < sum(expected) < n


def test_kernel_in_a_callers_buffer_needs_under_5_bytes_an_emission():
    # A DR8 grid of about 740 000 emissions, in the dtypes a run passes:
    # with the two-row buffer given, what the kernel allocates is its index
    # row (4 B an emission as int32), the gathered lengths and two flag rows.
    rng = np.random.default_rng(8)
    n = 46_250 * 16
    key = rng.integers(0, 35, n).astype(np.uint8)
    start = rng.integers(0, 3_600_000, n).astype(np.uint32)
    length = rng.integers(50, 234, n).astype(np.uint8)
    work = np.empty((2, n), dtype=np.int64)
    tracemalloc.start()
    try:
        _collide_arrays(key, start, length, work=work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * n


def test_a_reused_work_buffer_leaks_nothing_between_calls():
    # A run collides every grid in one buffer sized for its busiest grid, so
    # a call must read only its own n columns, whatever a larger call left
    # in the rest.  The last row sits alone on the highest carrier: it sorts
    # last and is clean, so a stale value read past it would show.
    rng = np.random.default_rng(4242)
    work = np.empty((2, 1200), dtype=np.int64)
    for n in (1200, 300):
        key = rng.integers(0, 8, n)
        key[-1] = 8
        start = rng.integers(0, 40 * n, n)
        end = start + rng.integers(1, 200, n)
        expected = oracles.brute_force_collisions(_rows(key, start, end))
        assert _collide_arrays(key, start, end - start, work=work).tolist() == expected
        assert 0 < sum(expected) < n and not expected[-1]
    work[:] = 0   # a tail below every packed value: it would sort first
    assert _collide_arrays(key, start, end - start, work=work).tolist() == expected


def test_span_covers_a_long_emission_that_starts_early():
    # The 600 ms emission starts before the last start (900), so the packing
    # span, max(start) + max(length) + 1 = 1501, exceeds max(end) + 1 = 931;
    # a span of max(start) + 1 would put carrier 1 inside [900, 930).
    key = np.array([0, 0, 1, 0, 1], dtype=np.int64)
    start = np.array([0, 150, 10, 900, 15], dtype=np.int64)
    end = np.array([600, 160, 15, 930, 17], dtype=np.int64)
    flags = _collide_arrays(key, start, end - start).tolist()
    assert flags == oracles.brute_force_collisions(_rows(key, start, end))
    assert flags == [True, True, False, False, False]


_SPAN_EDGE = -(-2 ** 63 // (501 << 2)) - 1   # least top key that a 501 ms span overflows


@pytest.mark.parametrize("top, refused", [(_SPAN_EDGE - 1, False), (_SPAN_EDGE, True)])
def test_packing_refusal_follows_the_start_plus_length_span(top, refused):
    # Two emissions (2 index bits), span 300 + 200 + 1 = 501 although
    # max(end) = 320: the kernel refuses exactly when (top + 1) * 501 << 2
    # reaches 2**63.
    assert ((top + 1) * 501 << 2 >= 2 ** 63) == refused
    key = np.array([0, top], dtype=np.int64)
    start, end = np.array([0, 300]), np.array([200, 320])
    if refused:
        with pytest.raises(ValueError, match="2 emissions over a 501 ms span"):
            _collide_arrays(key, start, end - start)
    else:
        assert _collide_arrays(key, start, end - start).tolist() == [False, False]


def test_packing_overflow_raises():
    # (2**59 + 1) carriers x a 51 ms span do not fit in int64 with the index
    # bits; the guard fires before anything of that size is built.
    key = np.array([0, 2 ** 59], dtype=np.int64)
    with pytest.raises(ValueError, match="2 emissions over a 51 ms span"):
        _collide_arrays(key, np.array([0, 0]), np.array([50, 50]))


# --- adjudication ------------------------------------------------------------

def _outcome(dr: str, clean_headers: int, clean_fragments: int) -> Outcome:
    """Fate of one 10 B packet whose first headers and fragments are clean."""
    profile = dr_profile(EU868, dr)
    _, durs, n_head, threshold = _packet_template(profile, 10)
    n_frag = len(durs) - n_head
    column = np.concatenate([np.arange(n_head) < clean_headers,
                             np.arange(n_frag) < clean_fragments])
    counts = decode(~column[:, None], n_head, threshold)   # collision flags, one column
    assert sorted(counts.tolist()) == [0, 0, 1]
    return (Outcome.DECODED, Outcome.LOST_HEADER, Outcome.LOST_PAYLOAD)[counts.argmax()]


def test_threshold_is_coding_rate_share_of_fragments():
    # (fragments, threshold) of DR8 and DR9 at 10 B, and of DR9 at 8 B.
    for dr, payload, expected in (("DR8", 10, (13, 5)), ("DR9", 10, (7, 5)),
                                  ("DR9", 8, (6, 4))):
        _, durs, n_head, threshold = _packet_template(dr_profile(EU868, dr), payload)
        assert (len(durs) - n_head, threshold) == expected


def test_all_headers_lost_kills_packet():
    assert _outcome("DR8", clean_headers=0, clean_fragments=13) is Outcome.LOST_HEADER


def test_too_few_fragments_is_payload_loss():
    # needs 5 of 13
    assert _outcome("DR8", clean_headers=1, clean_fragments=4) is Outcome.LOST_PAYLOAD


def test_exact_threshold_decodes():
    assert _outcome("DR8", clean_headers=1, clean_fragments=5) is Outcome.DECODED
    assert _outcome("DR9", clean_headers=1, clean_fragments=5) is Outcome.DECODED  # 5 of 7
    assert _outcome("DR9", clean_headers=2, clean_fragments=4) is Outcome.LOST_PAYLOAD


def test_lora_adjudication_is_all_or_nothing(monkeypatch):
    # 992 ms packets: a 1 ms overlap destroys both, the third is untouched.
    result, _ = _run_drawn(monkeypatch, _scenario("DR0", 10, 1, 3_600_000, 0),
                           [0, 991, 5000], seeds=[0] * 3, grids=[0] * 3)
    assert result.decoded_packets == 1
    assert result.loss_breakdown == {Outcome.LOST_COLLISION: 2}


# --- scenario validation -----------------------------------------------------

def test_mixed_family_scenario_rejected():
    with pytest.raises(ScenarioConfigError):
        Scenario((_device("DR0", 10, 0), _device("DR8", 10, 1)), 3_600_000, 0)


def test_mixed_data_rate_or_payload_scenario_rejected():
    plan = regional_plan(US915, "DR5")
    assert regional_plan(US915, "DR6") == plan
    with pytest.raises(ScenarioConfigError):
        Scenario((DeviceConfig(0, dr_profile(US915, "DR5"), 10, plan),
                  DeviceConfig(1, dr_profile(US915, "DR6"), 10, plan)), 3_600_000, 0)
    with pytest.raises(ScenarioConfigError):
        Scenario((_device("DR8", 10, 0), _device("DR8", 50, 1)), 3_600_000, 0)


_US915_PLAN = regional_plan(US915, "DR5")


@pytest.mark.parametrize("profile, payload, plan", [
    (dr_profile(US915, "DR6"), 10, _US915_PLAN),
    (dr_profile(US915, "DR5"), 50, _US915_PLAN),
    (dr_profile(US915, "DR5"), 10, dataclasses.replace(_US915_PLAN, num_ocw_channels=1)),
], ids=["data_rate", "payload", "plan"])
def test_scenario_rejects_a_last_device_that_differs(profile, payload, plan):
    # Every device is checked, not only the second; the plan on its own counts.
    shared = build_scenario(US915, "DR5", 10, 4, 3_600_000, 0).devices
    with pytest.raises(ScenarioConfigError, match="device 4 differs"):
        Scenario((*shared, DeviceConfig(4, profile, payload, plan)), 3_600_000, 0)


def test_scenario_rejects_a_non_integer_horizon():
    devices = build_scenario(US915, "DR5", 10, 5, 200_000, 3).devices
    with pytest.raises(ValueError, match="horizon must be a positive integer of ms, got 200000.5"):
        Scenario(devices, 200_000.5, 3)
    assert run(Scenario(devices, np.int64(200_000), 3)) == run(Scenario(devices, 200_000, 3))


def test_scenario_accepts_equal_copies_of_profile_and_plan():
    # Devices share a data rate and plan by equality, not by object identity.
    shared = build_scenario(US915, "DR5", 10, 5, 30_000, 4)
    copies = tuple(DeviceConfig(d.device_id, dataclasses.replace(d.profile), 10,
                                dataclasses.replace(d.plan)) for d in shared.devices)
    assert copies[1].profile is not copies[0].profile and copies[1].plan is not copies[0].plan
    assert run(Scenario(copies, 30_000, 4)) == run(shared)


def test_empty_and_duplicate_devices_rejected():
    with pytest.raises(ScenarioConfigError):
        Scenario((), 3_600_000, 0)
    with pytest.raises(ScenarioConfigError):
        Scenario((_device("DR0", 10, 0), _device("DR0", 10, 0)), 3_600_000, 0)


def test_negative_master_seed_rejected(monkeypatch):
    def draw(_):
        raise AssertionError("packets drawn")

    monkeypatch.setattr(engine, "_draw_packets", draw)
    with pytest.raises(ValueError, match="master_seed must be non-negative, got -1"):
        run(Scenario((_device("DR8", 10),), 3_600_000, -1))


def test_single_device_all_decoded():
    result = run(_scenario("DR8", 10, 1, 14_400_000, seed=3))
    assert result.generated_packets > 0
    assert result.decoded_packets == result.generated_packets
    assert result.goodput_bytes_per_hour == pytest.approx(
        result.generated_packets * 10 * 3_600_000 / 14_400_000)
    assert result.loss_breakdown.get(Outcome.LOST_HEADER, 0) == 0


def test_runs_that_draw_no_packet():
    # Every gap is at least 1 ms, so a 1 ms horizon holds no arrival: the
    # layout is empty and every hop-draw count is 0.
    for region, dr in ((EU868, "DR8"), (EU868, "DR0"), (US915, "DR5")):
        result = run(_scenario(dr, 10, 3, 1, seed=4, region=region))
        assert (result.generated_packets, result.decoded_packets) == (0, 0)
        assert result.loss_breakdown == {}
    seeds, grids = traffic.hop_draws(device_streams(4, 0, 3), np.zeros(3, dtype=np.int64), 8)
    assert seeds.dtype == grids.dtype == np.uint32
    assert seeds.size == grids.size == 0


# --- batched engine vs per-packet reference ----------------------------------

@pytest.mark.parametrize("dr, payload, devices", [
    ("DR8", 10, 40), ("DR8", 58, 25), ("DR9", 10, 40), ("DR9", 123, 15),
    ("DR0", 10, 60), ("DR5", 50, 80),
    # 30 s of US915: a few dozen packets over 52 grids, so most grids are
    # empty or hold one packet.
    ("US915 DR5", 10, 1), ("US915 DR5", 10, 4),
])
def test_run_equals_reference(dr, payload, devices):
    region, _, dr = dr.rpartition(" ")
    horizon_ms = 30_000 if region else 3_600_000
    for seed in (0, 1, 2):
        scenario = _scenario(dr, payload, devices, horizon_ms, seed, region or EU868)
        assert run(scenario) == oracles.reference_run(scenario)


@pytest.mark.parametrize("region, dr, grids", [
    (EU868, "DR8", [3] * 80),                    # every packet on one grid
    (EU868, "DR9", [1, 2, 3, 4, 5, 6] * 12),     # grids 0 and 7 empty
    (US915, "DR5", [51] * 80),
    (US915, "DR5", list(range(1, 51, 7)) * 12),  # grids 0 and 51 empty
    (EU868, "DR8", [0] * 80),                    # every packet on grid 0: no partition
])
def test_lopsided_grids_equal_reference(monkeypatch, region, dr, grids):
    rng = np.random.default_rng(9)
    starts = rng.integers(0, 4_000, len(grids)).tolist()   # crowded: many collisions
    seeds = (rng.integers(0, 2 ** 16, len(grids)) % engine.SEED_COUNT).tolist()
    scenario = _scenario(dr, 10, 1, 3_600_000, seed=0, region=region)
    result, calls = _run_drawn(monkeypatch, scenario, starts, seeds, grids)
    assert len(calls) == len(set(grids))
    assert result == oracles.reference_run(scenario, [(starts, seeds, grids)])
    assert 0 < result.decoded_packets < result.generated_packets


def test_grids_beyond_16_bits_stay_apart(monkeypatch):
    # 70 000 grids of 2 carriers: grids 5 and 5 + 2**16 agree in their low 16 bits.
    plan = RegionalPlan(duty_cycle=1.0, ocw_bandwidth_hz=200_000, obw_bandwidth_hz=1,
                        min_hop_separation_hz=70_000, num_ocw_channels=1)
    assert (plan.num_grids, plan.carriers_per_grid) == (70_000, 2)
    device = DeviceConfig(0, dr_profile(EU868, "DR8"), 10, plan)
    scenario = Scenario(devices=(device,), horizon_ms=3_600_000, master_seed=0)
    rng = np.random.default_rng(9)
    starts = rng.integers(0, 40_000, 200).tolist()
    seeds = rng.integers(0, engine.SEED_COUNT, 200).tolist()
    grids = [5, 5 + 2 ** 16] * 100
    result, calls = _run_drawn(monkeypatch, scenario, starts, seeds, grids)
    assert len(calls) == 2
    assert result == oracles.reference_run(scenario, [(starts, seeds, grids)])
    assert 0 < result.decoded_packets < result.generated_packets


def test_each_collision_call_holds_one_grid(monkeypatch):
    # Memory bound: a call lays out one grid's packets x hops, start-sorted,
    # never more than the busiest grid, and the calls cover every emission
    # once.  Grids this small are one window each, with no halo.
    scenario = _scenario("DR5", 10, 3, 30_000, seed=4, region=US915)
    start, _, grids = engine._draw_packets(scenario)
    hops = len(_packet_template(scenario.profile, 10)[1])
    per_grid = np.bincount(grids, minlength=scenario.plan.num_grids)
    calls = []

    def collide(key, start, length, **kwargs):
        calls.append(start.copy())   # the run's buffer, overwritten by the next window
        return _collide_arrays(key, start, length, **kwargs)

    monkeypatch.setattr(engine, "_collide_arrays", collide)
    monkeypatch.setattr(engine, "_grid_threads", lambda *_: 1)   # calls in grid order
    result = run(scenario)
    busy = [g for g in range(scenario.plan.num_grids) if per_grid[g]]
    assert len(calls) == len(busy) < scenario.plan.num_grids
    for grid, em_start in zip(busy, calls):
        assert em_start.size == per_grid[grid] * hops
        # Hop-major: the first hop of each packet is the packet's start.
        assert em_start[:per_grid[grid]].tolist() == sorted(start[grids == grid].tolist())
    assert sum(c.size for c in calls) == start.size * hops == result.generated_packets * hops
    assert max(c.size for c in calls) == per_grid.max() * hops


def _record_windows(monkeypatch, scenario: Scenario, core: int) -> tuple[list, list]:
    """Make later runs take one thread and cores of ``core`` packets of
    ``scenario``'s template; return the lists that each collision call's
    packet starts and each ``decode`` call's flags are appended to."""
    hops = len(_packet_template(scenario.profile, scenario.payload_bytes)[1])
    starts, flags, kernel, adjudicate = [], [], engine._collide_arrays, engine.decode
    monkeypatch.setattr(engine, "_WINDOW_EMISSIONS", core * hops)
    monkeypatch.setattr(engine, "_grid_threads", lambda *_: 1)   # calls in window order
    monkeypatch.setattr(engine, "_collide_arrays", lambda key, start, length, **kwargs: (
        starts.append(start[:start.size // hops].tolist()) or kernel(key, start, length,
                                                                     **kwargs)))
    monkeypatch.setattr(engine, "decode", lambda collided, *args: (
        flags.append(collided.copy()) or adjudicate(collided, *args)))
    return starts, flags


@pytest.mark.parametrize("core", [1, 3, 16])
def test_each_collision_call_holds_a_core_run_and_its_halo(monkeypatch, core):
    # A grid of more than a core's packets is collided window by window: a
    # core run of its start-sorted packets, with the grid's packets that
    # start less than one airtime before the core's first start or after
    # its last as the halo.  Only the core is decoded, and the cores cover
    # every packet once.
    scenario = _scenario("DR5", 10, 20, 120_000, seed=4, region=US915)
    start, _, grids = engine._draw_packets(scenario)
    offsets, durs, _, _ = _packet_template(scenario.profile, 10)
    airtime = int(offsets[-1] + durs[-1])
    calls, flags = _record_windows(monkeypatch, scenario, core)
    result = run(scenario)
    expected = []
    for grid in sorted(set(grids.tolist())):
        packets = sorted(start[grids == grid].tolist())
        for a in range(0, len(packets), core):
            first, last = packets[a], packets[min(a + core, len(packets)) - 1]
            expected.append(([t for t in packets if first - airtime < t < last + airtime],
                             min(core, len(packets) - a)))
    assert [(c, f.shape) for c, f in zip(calls, flags)] == [
        (window, (len(durs), size)) for window, size in expected]
    assert sum(f.shape[1] for f in flags) == result.generated_packets == start.size
    assert sum(len(c) for c in calls) > start.size   # some halos are not empty


@pytest.mark.parametrize("region, dr, devices, hours", [
    (EU868, "DR8", 500, 1), (EU868, "DR9", 500, 1),
    (US915, "DR5", 5, 1),   # duty 1.0: a device's own packets overlap each other
    (EU868, "DR0", 50, 4),  # LoRa: one grid, one window
])
def test_windows_of_one_packet_give_the_whole_grid_result(monkeypatch, region, dr, devices,
                                                          hours):
    # One packet a core, so the halos are most of every window: the result
    # equals the default windows' (each grid here is one window), field for field.
    scenario = _scenario(dr, 10, devices, hours * 3_600_000, seed=2, region=region)
    default = dataclasses.asdict(run(scenario))
    calls, _ = _record_windows(monkeypatch, scenario, 1)
    assert dataclasses.asdict(run(scenario)) == default
    assert 0 < default["decoded_packets"] < default["generated_packets"]
    if dr != "DR0":
        assert len(calls) == default["generated_packets"]
        assert max(len(c) for c in calls) > 2


@pytest.mark.parametrize("core", [1, 2])
def test_packets_on_either_side_of_a_window_edge_collide_through_the_halo(monkeypatch, core):
    # Packet q starts one airtime less 1 ms after p, on grid 1, and hops
    # first to the carrier p hops to last: p's last fragment and q's first
    # header overlap by 1 ms.  Cores of one packet put them in different
    # windows, and only the halo lets each window see the other packet.
    scenario = _scenario("DR8", 10, 1, 3_600_000, seed=0)
    offsets, durs, _, _ = _packet_template(scenario.profile, 10)
    airtime = int(offsets[-1] + durs[-1])
    table = engine.slot_table(len(durs), scenario.plan.carriers_per_grid)
    p_seed = 5
    q_seed = int(np.flatnonzero(table[0] == table[-1, p_seed])[0])
    starts = [1_000, 1_000 + airtime - 1]
    _, flags = _record_windows(monkeypatch, scenario, core)
    result, _ = _run_drawn(monkeypatch, scenario, starts, [p_seed, q_seed], [1, 1])
    assert result == oracles.reference_run(scenario, [(starts, [p_seed, q_seed], [1, 1])])
    p, q = np.concatenate(flags, axis=1).T
    assert np.flatnonzero(p).tolist() == [len(durs) - 1] and np.flatnonzero(q).tolist() == [0]


@pytest.mark.parametrize("region, dr, devices, hours, cpus, threads", [
    (US915, "DR5", 200, 1, 2, 2),     # 16 emissions a packet on 52 grids
    (US915, "DR5", 200, 1, 1, 1),
    (US915, "DR5", 200, 1, 8, 5),     # a sixth thread's buffers and scratch outweigh the draws
    (EU868, "DR8", 9_000, 1, 2, 2),   # windows, not whole grids, size a thread's buffers
    (EU868, "DR9", 5_000, 1, 2, 2),
    (EU868, "DR0", 100, 4, 2, 1),     # LoRa: one grid
])
def test_grid_threads_are_paid_for_by_freed_draws(monkeypatch, region, dr, devices, hours,
                                                  cpus, threads):
    monkeypatch.setattr(engine, "_usable_cpus", lambda: cpus)
    counts, rule = [], engine._grid_threads
    monkeypatch.setattr(engine, "_grid_threads", lambda *args: counts.append(rule(*args))
                        or counts[-1])
    run(_scenario(dr, 10, devices, hours * 3_600_000, seed=1, region=region))
    assert counts == [threads]


def test_grid_threads_never_exceed_usable_cpus_or_grids(monkeypatch):
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 3)
    assert engine._grid_threads(52, 10 ** 9, 1) == 3
    assert engine._grid_threads(2, 10 ** 9, 1) == 2
    assert engine._grid_threads(52, 999, 1_000) == 1
    assert engine._grid_threads(52, 1_000, 1_000) == 2
    assert engine._grid_threads(0, 0, 0) == 1


@pytest.mark.parametrize("region, dr, devices, hours", [
    (EU868, "DR8", 500, 1), (EU868, "DR0", 50, 4), (US915, "DR5", 50, 1)])
def test_one_thread_and_several_give_equal_results(monkeypatch, region, dr, devices, hours):
    # The windows' counts add up in any order, so the thread count (forced
    # here, past what the rule allows and past the CPUs) changes no field
    # of the result, and every thread a run starts has ended when it
    # returns.  Cores of 1 024 emissions give LoRa-E runs dozens of windows
    # a grid, and a short switch interval interleaves the threads' takes of
    # them: a window lost or taken twice would change the counts.
    monkeypatch.setattr(engine, "_WINDOW_EMISSIONS", 2 ** 10)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for seed in (0, 1):
            scenario = _scenario(dr, 10, devices, hours * 3_600_000, seed, region)
            results = []
            for threads in (1, 2, 5):
                monkeypatch.setattr(engine, "_grid_threads", lambda *_: threads)
                before = threading.active_count()
                results.append(dataclasses.asdict(run(scenario)))
                assert threading.active_count() == before
            assert results[0] == results[1] == results[2]
            assert 0 < results[0]["decoded_packets"] < results[0]["generated_packets"]
    finally:
        sys.setswitchinterval(interval)


def test_a_one_thread_run_collides_on_the_calling_thread_alone(monkeypatch):
    # One grid thread takes the pool path too, and the pool starts no worker.
    alive, kernel = [], engine._collide_arrays
    monkeypatch.setattr(engine, "_collide_arrays", lambda *args, **kwargs: alive.append(
        (threading.current_thread(), threading.active_count())) or kernel(*args, **kwargs))
    monkeypatch.setattr(engine, "_grid_threads", lambda *_: 1)
    before = threading.active_count()
    run(_scenario("DR5", 10, 20, 600_000, seed=0, region=US915))
    assert len(alive) > 1
    assert set(alive) == {(threading.current_thread(), before)}


def test_an_error_in_any_grid_thread_reaches_the_caller(monkeypatch):
    # A seed outside the hopping domain on the last grid: whichever thread
    # takes that grid raises, and the run raises it once every thread ended.
    scenario = _scenario("DR5", 10, 1, 3_600_000, seed=0, region=US915)
    grids = list(range(52)) * 4
    seeds = [7] * (len(grids) - 1) + [engine.SEED_COUNT]
    monkeypatch.setattr(engine, "_grid_threads", lambda *_: 2)
    before = threading.active_count()
    with pytest.raises(IndexError, match=f"index {engine.SEED_COUNT} is out of bounds"):
        _run_drawn(monkeypatch, scenario, list(range(0, 1000 * len(grids), 1000)), seeds, grids)
    assert threading.active_count() == before


def test_memory_guard_refuses_before_drawing(monkeypatch):
    def draw(_):
        raise AssertionError("packets drawn")

    monkeypatch.setattr(engine, "_draw_packets", draw)
    scenario = _scenario("DR5", 10, 200, 10 ** 5 * 3_600_000, seed=0, region=US915)
    packets = scenario.offered_load_pkts_per_hour() * 10 ** 5
    with pytest.raises(ScenarioConfigError, match=re.escape(f"about {packets:.4g} packets")
                       + r" would need .* B at \d+ B a packet, over the .* B of physical memory"):
        run(scenario)


# --- run invariants -----------------------------------------------------------

def test_conservation_and_determinism():
    scenario = _scenario("DR8", 10, 200, 3_600_000, seed=11)
    first = run(scenario)
    second = run(scenario)
    assert first == second
    losses = sum(first.loss_breakdown.values())
    assert first.decoded_packets + losses == first.generated_packets


def test_a_packet_without_an_outcome_breaks_conservation(monkeypatch):
    # Generated counts the packets drawn, not the outcomes, so a decoder that
    # drops a packet (here each grid's first) cannot pass unnoticed.
    monkeypatch.setattr(engine, "decode", lambda clean, *rule: decode(clean[:, 1:], *rule))
    with pytest.raises(ValueError, match=r"decoded \+ losses must equal generated"):
        run(_scenario("DR8", 10, 50, 3_600_000, seed=1))


def test_monotone_degradation_with_device_count():
    # Mean decode probability never rises with device count (1% slack,
    # averaged over 10 seeds).
    counts = [200, 600, 1800]
    ratios = []
    for count in counts:
        probs = []
        for seed in range(10):
            r = run(_scenario("DR9", 10, count, 3_600_000, seed=seed))
            probs.append(r.decoded_packets / r.generated_packets)
        ratios.append(np.mean(probs))
    assert ratios[0] >= ratios[1] - 0.01
    assert ratios[1] >= ratios[2] - 0.01


def test_offered_load_matches_generated_rate():
    # Analytic offered load tracks the empirical generation rate within 2%
    # at a 4 h horizon.
    scenario = _scenario("DR8", 10, 300, 14_400_000, seed=21)
    result = run(scenario)
    empirical = result.generated_packets * 3_600_000 / scenario.horizon_ms
    assert result.offered_load_packets_per_hour == pytest.approx(empirical, rel=0.02)


def test_offered_load_is_the_per_device_sum_bit_for_bit():
    # The per-device sum, term by term; 300 x rate differs in the last bit.
    scenario = _scenario("DR8", 10, 300, 14_400_000, seed=21)
    per_device = sum(max_packet_rate(d.plan, d.time_on_air_ms) for d in scenario.devices)
    assert scenario.offered_load_pkts_per_hour() == per_device


@pytest.mark.parametrize("dr", ["DR0", "DR8"])
def test_both_families_take_one_layout_path(monkeypatch, dr):
    # One layout, collision and decode path: a LoRa run is its one-grid,
    # one-carrier, one-emission case, and makes the same single call.
    calls = []

    def run_lorae(*args):
        calls.append(args)
        return layout(*args)

    layout = engine._run_lorae
    monkeypatch.setattr(engine, "_run_lorae", run_lorae)
    scenario = _scenario(dr, 10, 20, 3_600_000, seed=3)
    result = run(scenario)
    assert calls == [(scenario,)] and result.generated_packets > 0


@pytest.mark.parametrize("dr", ["DR0", "DR8"])
def test_a_run_builds_its_packet_template_once(monkeypatch, dr):
    # The memory check and the layout read the one template the run builds.
    builds, build = [], engine._packet_template
    monkeypatch.setattr(engine, "_packet_template",
                        lambda *args: builds.append(args) or build(*args))
    scenario = _scenario(dr, 10, 20, 3_600_000, seed=3)
    assert run(scenario).generated_packets > 0
    assert builds == [(scenario.profile, 10)]


@pytest.mark.parametrize("dr", ["DR8", "DR0"])
def test_collision_calls_take_three_positional_arrays(monkeypatch, dr):
    # The benchmark's tracer (``perfbench/layers.py``, ``_on_collide``)
    # unpacks each call's positional arguments as exactly (key, start,
    # length) and forwards keywords, so anything more must be a keyword.
    calls, collide = [], engine._collide_arrays

    def traced(*args, **kwargs):
        key, start, length = args
        calls.append(key.size)
        return collide(*args, **kwargs)

    monkeypatch.setattr(engine, "_collide_arrays", traced)
    scenario = _scenario(dr, 10, 200, 3_600_000, seed=3)
    result = run(scenario)
    hops = len(_packet_template(scenario.profile, 10)[1])
    assert sum(calls) == result.generated_packets * hops > 0


def test_lora_scenario_loses_only_to_collisions():
    result = run(_scenario("DR0", 10, 80, 14_400_000, seed=2))
    assert set(result.loss_breakdown) <= {Outcome.LOST_COLLISION}
    assert result.decoded_packets < result.generated_packets   # busy channel


@pytest.mark.parametrize("dr, devices", [("DR8", 500), ("DR8", 5_000), ("DR8", 9_000),
                                         ("DR9", 500), ("DR9", 5_000)])
def test_decoded_rate_matches_closed_form_model(dr, devices):
    # Low load up to each rate's peak; past it the model is too pessimistic
    # (DR8 at 24 000 devices decodes 1.4 x the model), so that tail is not bounded.
    result = run(build_scenario(EU868, dr, 10, devices, 3_600_000, 1))
    model = oracles.expected_decoded_pkts_per_hour(EU868, dr, 10, devices)
    assert result.throughput_packets_per_hour == pytest.approx(model, rel=0.04)


def test_csv_row_order():
    result = run(_scenario("DR9", 10, 3, 3_600_000, seed=1))
    row = csv_row(result)
    assert RESULT_COLUMNS == ["devices", "dr", "payload", "offered_pkts_h",
                           "decoded_pkts_h", "goodput_B_h", "loss_header",
                           "loss_payload", "loss_collision", "seed"]
    assert row[0] == 3 and row[1] == "DR9" and row[2] == "10" and row[-1] == 1


def test_memory_guard_compares_bytes_with_physical_memory(monkeypatch):
    scenario = _scenario("DR5", 10, 3, 30_000, seed=4, region=US915)
    need = oracles.expected_bytes(scenario)
    for pages, fits in ((int(need) + 1, True), (int(need) - 1, False)):
        monkeypatch.setattr(engine.os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": pages}.get)
        if fits:
            assert run(scenario).generated_packets > 0
        else:
            with pytest.raises(ScenarioConfigError, match="physical memory"):
                run(scenario)


_HOUR = 3_600_000
# Peak RSS per packet as ``measure_peaks`` measures it.  The recorded rows
# predate the kernel taking emission lengths; ROADMAP item 19 holds later,
# lower runs, all but US915 DR5's below half of ``bytes_per_packet``.
PEAKS = [   # (region, dr, (devices, horizon ms) of each run, measured B a packet)
    (EU868, "DR8", ((20_000, _HOUR), (40_000, _HOUR)), (114.3, 122.4)),
    (EU868, "DR9", ((20_000, _HOUR), (40_000, _HOUR)), (75.6, 80.4)),
    (EU868, "DR0", ((100, 100 * _HOUR), (400, 100 * _HOUR)), (52.9, 67.4)),
    (EU868, "DR5", ((100, 10 * _HOUR), (200, 10 * _HOUR), (1_000, _HOUR)), (49.2, 54.8)),
    (US915, "DR5", ((400, _HOUR), (2_000, _HOUR)), (42.3, 43.7)),
]

_PEAK_PROBE = """
import resource, sys
from lorae_sim.engine import run
from lorae_sim.experiments import build_scenario
region, dr, devices, horizon = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
scenario = build_scenario(region, dr, 10, devices, horizon, 1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
packets = run(scenario).generated_packets
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * 1024 / packets)
"""


def measure_peaks(runs: int = 3) -> list[tuple[str, str, tuple[float, float]]]:
    """Each ``PEAKS`` row's measured peak RSS per generated packet (B), as in
    README "Memory": 10 B, seed 1, ``ru_maxrss`` (KiB on Linux) after
    ``run`` minus after ``build_scenario`` in a fresh process, and the
    least and the most over ``runs`` runs of each of the row's scenarios.
    Tier-1 does not call it; remeasure the rows with::

        PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
            import test_engine as t; print(*t.measure_peaks(), sep='\\n')"
    """
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    rows = []
    for region, dr, scenarios, _ in PEAKS:
        per_packet = [float(subprocess.run(
            [sys.executable, "-c", _PEAK_PROBE, region, dr, str(devices), str(horizon)],
            env=env, capture_output=True, text=True, check=True).stdout)
            for devices, horizon in scenarios for _ in range(runs)]
        rows.append((region, dr, (round(min(per_packet), 1), round(max(per_packet), 1))))
    return rows


@pytest.mark.parametrize("region, dr, measured", [(r, dr, m) for r, dr, _, m in PEAKS])
def test_bytes_per_packet_bounds_the_measured_peaks(region, dr, measured):
    per_packet = engine.bytes_per_packet(_scenario(dr, 10, 1, 3_600_000, seed=1, region=region))
    assert max(measured) <= per_packet <= 2 * min(measured)


def test_bytes_per_packet_grows_with_emissions_per_grid():
    # 16 emissions a packet on 8 grids (EU868 DR8) against on 52 (US915 DR5).
    eu = engine.bytes_per_packet(_scenario("DR8", 10, 1, 3_600_000, seed=1))
    us = engine.bytes_per_packet(_scenario("DR5", 10, 1, 3_600_000, seed=1, region=US915))
    assert eu > us
