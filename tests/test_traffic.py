"""Poisson arrival schedules, per-device streams and their independence."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from lorae_sim import traffic
from lorae_sim.engine import _DRAW_DEVICES
from lorae_sim.params import EU868, US915, dr_profile, regional_plan
from lorae_sim.traffic import DeviceConfig, device_streams, generate_schedule

import oracles


def _config(dr: str = "DR8", payload: int = 10, device_id: int = 0) -> DeviceConfig:
    return DeviceConfig(device_id, dr_profile(EU868, dr), payload,
                        regional_plan(EU868, dr))


def test_device_config_validates_payload():
    with pytest.raises(ValueError):
        _config("DR8", 59)
    cfg = _config("DR8", 10)
    assert cfg.time_on_air_ms == 1337
    assert cfg.mean_interarrival_ms == pytest.approx(133_700)


# --- device streams ----------------------------------------------------------

# SeedSequence's hash constant steps 4 times per pool word, or per master
# word past the pool's four.  2**128 - 1 is the largest master with four
# 32-bit words (16 steps); 2**128 + 3 has five, one more than the pool, so it
# is mixed in after the pool and the constant steps 20 times.
MASTERS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 128 - 1, 2 ** 128 + 3, 2 ** 200]


def _assert_streams_equal_reference(master: int, first: int, stop: int) -> None:
    streams = device_streams(master, first, stop)
    assert len(streams) == stop - first
    for index, rng in zip(range(first, stop), streams):
        ref = oracles.reference_stream(master, index)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(rng.standard_exponential(64), ref.standard_exponential(64))


@pytest.mark.parametrize("master", MASTERS)
@pytest.mark.parametrize("first, stop", [
    (0, 2),
    (_DRAW_DEVICES - 1, _DRAW_DEVICES + 1),      # 1023 and 1024
    (2 ** 31 - 1, 2 ** 31 + 1),
    (2 ** 32 - 2, 2 ** 32),                      # the last index with one word
])
def test_device_streams_equal_seed_sequence(master, first, stop):
    _assert_streams_equal_reference(master, first, stop)
    for index in range(first, stop):   # and a block of one device
        assert (device_streams(master, index, index + 1)[0].bit_generator.state
                == oracles.reference_stream(master, index).bit_generator.state)


@pytest.mark.parametrize("master", [0, 2 ** 128 + 3])
def test_device_streams_equal_seed_sequence_over_blocks(master):
    # A block longer than the engine's, straddling two of its boundaries.
    _assert_streams_equal_reference(master, _DRAW_DEVICES - 2, 2 * _DRAW_DEVICES + 2)


def test_empty_block_has_no_streams():
    assert device_streams(3, 7, 7) == []


@pytest.mark.parametrize("first, stop", [
    (2 ** 32, 2 ** 32 + 1), (2 ** 32 - 1, 2 ** 32 + 1), (-1, 1), (5, 4)])
def test_seed_words_refuse_indices_outside_one_word(first, stop):
    # SeedSequence would hash 2**32 as two words; the block hash has one per
    # index, so such an index is refused rather than hashed differently.
    with pytest.raises(ValueError, match="device indices"):
        traffic._seed_words(0, first, stop)


def test_seed_words_refuse_a_negative_master():
    with pytest.raises(ValueError, match="master_seed"):
        traffic._seed_words(-1, 0, 1)


@pytest.mark.parametrize("n_words, dtype", [
    (4, np.uint32), (8, np.uint32), (2, np.uint64), (8, np.uint64), (4, np.int64)])
def test_seed_words_serve_only_pcg64s_request(n_words, dtype):
    # PCG64 asks for generate_state(4, uint64); should numpy ever ask for
    # anything else, the precomputed words must fail loudly.
    words = np.arange(4, dtype=np.uint64)
    assert traffic._SeedWords(words).generate_state(4, np.uint64) is words
    with pytest.raises(ValueError, match="generate_state"):
        traffic._SeedWords(words).generate_state(n_words, dtype)


# --- arrival schedules -------------------------------------------------------

def test_schedule_deterministic_and_increasing():
    cfg = _config()
    a = generate_schedule(cfg, 36_000_000, device_streams(5, 1, 2))
    b = generate_schedule(cfg, 36_000_000, device_streams(5, 1, 2))
    assert np.array_equal(a.start_times, b.start_times)
    assert all(t2 > t1 for t1, t2 in zip(a.start_times, a.start_times[1:]))
    assert all(0 < t < 36_000_000 for t in a.start_times)


def test_start_times_are_read_only_int64():
    schedule = generate_schedule(_config(), 36_000_000,
                                 device_streams(5, 1, 3))
    times = schedule.start_times
    assert times.dtype == np.int64
    assert not times.flags.writeable
    with pytest.raises(ValueError):
        times[0] = 0


def _arrival(cfg: DeviceConfig, seed: int, index: int) -> int:
    """Time of arrival ``index`` of device 0's stream, from a horizon far past it."""
    horizon = int(cfg.mean_interarrival_ms * 4 * (index + 1))
    return oracles.reference_schedule(cfg, horizon, oracles.reference_stream(seed, 0))[index]


@pytest.mark.parametrize("dr, seed, horizon", [
    ("DR8", 0, 1),                        # empty: the first gap is past it
    ("DR8", 1, 36_000_000),
    ("DR0", 2, 14_400_000),
    ("DR5", 3, 3_600_000),
    ("DR9", 4, 500_000_000),              # several blocks
])
def test_schedule_equals_reference(dr, seed, horizon):
    cfg = _config(dr)
    (rng,), ref_rng = device_streams(seed, 0, 1), oracles.reference_stream(seed, 0)
    times = generate_schedule(cfg, horizon, [rng]).start_times
    assert times.tolist() == oracles.reference_schedule(cfg, horizon, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("index", [254, 255, 256, 511, 512])
@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_schedule_equals_reference_at_block_boundaries(index, shift):
    # Horizons one ms around arrival 255/256 (the last of block 1 and the
    # first of block 2) and 511/512: the cut lands on, before or after the
    # boundary, which decides whether one more block is drawn.
    cfg = _config("DR5")
    horizon = _arrival(cfg, 9, index) + shift
    (rng,), ref_rng = device_streams(9, 0, 1), oracles.reference_stream(9, 0)
    times = generate_schedule(cfg, horizon, [rng]).start_times
    assert times.tolist() == oracles.reference_schedule(cfg, horizon, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _equals_reference_per_device(cfg: DeviceConfig, horizon: int, seed: int,
                                 devices: int) -> list[int]:
    """Check one batched schedule of ``devices`` streams against the per-gap
    oracle run device by device; return the arrival counts."""
    rngs = device_streams(seed, 0, devices)
    ref_rngs = [oracles.reference_stream(seed, i) for i in range(devices)]
    schedule = generate_schedule(cfg, horizon, rngs)
    expected = [oracles.reference_schedule(cfg, horizon, r) for r in ref_rngs]
    assert schedule.counts.tolist() == [len(times) for times in expected]
    assert schedule.start_times.tolist() == [t for times in expected for t in times]
    assert ([r.bit_generator.state for r in rngs]
            == [r.bit_generator.state for r in ref_rngs])
    return schedule.counts.tolist()


@pytest.mark.parametrize("blocks", [1, 2])
def test_batched_schedule_equals_reference_across_rounds(blocks):
    # The mean count sits at the end of block 1 (or 2), so some devices stop
    # within it and others draw one or more further blocks.
    cfg = _config("DR5")
    horizon = int(cfg.mean_interarrival_ms * 256 * blocks)
    counts = _equals_reference_per_device(cfg, horizon, 8, 60)
    rounds = [c // 256 + 1 for c in counts]
    assert min(rounds) <= blocks < max(rounds)


def test_batched_schedule_with_no_arrivals():
    assert _equals_reference_per_device(_config(), 1, 3, 50) == [0] * 50


def test_schedule_of_an_empty_block():
    schedule = generate_schedule(_config(), 3_600_000, [])
    assert schedule.start_times.dtype == np.int64
    assert schedule.start_times.size == 0 and not schedule.start_times.flags.writeable
    assert schedule.counts.size == 0


def test_batched_schedule_of_one_device():
    cfg = _config("DR5")
    _equals_reference_per_device(cfg, int(cfg.mean_interarrival_ms * 600), 4, 1)


@pytest.mark.parametrize("width", [1, 8, 256])
@pytest.mark.parametrize("region, dr, devices, hours", [
    (EU868, "DR8", 1024, 1), (EU868, "DR9", 1024, 1), (EU868, "DR0", 100, 4),
    (US915, "DR5", 200, 1)])
def test_narrow_rounds_fall_back_to_the_whole_block(monkeypatch, width, region, dr,
                                                    devices, hours):
    # Rounds of any width that divides the 256-gap block give the same
    # schedules and consume the same draws: a device draws its next block
    # only on a round that starts one, and only while still inside.
    cfg = DeviceConfig(0, dr_profile(region, dr), 10, regional_plan(region, dr))
    rngs = device_streams(7, 0, devices)
    expected = generate_schedule(cfg, hours * 3_600_000, rngs)
    monkeypatch.setattr(traffic, "_ROUND", width)
    narrow_rngs = device_streams(7, 0, devices)
    narrow = generate_schedule(cfg, hours * 3_600_000, narrow_rngs)
    assert narrow.counts.tolist() == expected.counts.tolist()
    assert narrow.start_times.tolist() == expected.start_times.tolist()
    assert ([r.bit_generator.state for r in narrow_rngs]
            == [r.bit_generator.state for r in rngs])


def test_schedule_expected_count():
    # Gaps are exponentials rounded up to whole ms, so geometric: each ms
    # after 0 holds an arrival with p = 1 - exp(-1/m), independently, and the
    # count on [1, H) is Binomial(H - 1, p).  100 h at m = 133.7 s: about 2693.
    cfg = _config()
    horizon, seeds = 360_000_000, 40
    counts = [len(generate_schedule(cfg, horizon, device_streams(s, 0, 1)).start_times)
              for s in range(seeds)]
    p = -np.expm1(-1 / cfg.mean_interarrival_ms)
    se = np.sqrt((horizon - 1) * p * (1 - p) / seeds)
    assert abs(np.mean(counts) - (horizon - 1) * p) < 4 * se


def test_tiny_horizon_gives_empty_schedule():
    cfg = _config()
    assert generate_schedule(cfg, 1, device_streams(0, 0, 1)).start_times.size == 0
    with pytest.raises(ValueError):
        generate_schedule(cfg, 0, device_streams(0, 0, 1))


def test_adding_devices_leaves_existing_streams_alone():
    cfg0 = _config(device_id=0)
    alone = generate_schedule(cfg0, 72_000_000, device_streams(123, 0, 1))
    # Generating other devices' schedules first must not matter: streams
    # are keyed by device index, not drawn from one shared sequence.
    for other in (1, 2, 3):
        generate_schedule(_config(device_id=other), 72_000_000,
                          device_streams(123, other, other + 1))
    again = generate_schedule(cfg0, 72_000_000, device_streams(123, 0, 1))
    assert np.array_equal(alone.start_times, again.start_times)


def test_streams_differ_between_devices_and_seeds():
    cfg = _config()
    horizon = 72_000_000
    s00 = generate_schedule(cfg, horizon, device_streams(1, 0, 1)).start_times
    s01 = generate_schedule(cfg, horizon, device_streams(1, 1, 2)).start_times
    s10 = generate_schedule(cfg, horizon, device_streams(2, 0, 1)).start_times
    assert not np.array_equal(s00, s01)
    assert not np.array_equal(s00, s10)


def test_memorylessness_split_horizon():
    # Inter-arrival samples from one long run and from two concatenated
    # half-runs must be draws of the same distribution (KS at 1%).
    cfg = _config()
    horizon = 1_000_000_000
    whole = np.diff(generate_schedule(cfg, horizon, device_streams(31, 0, 1)).start_times)
    first = generate_schedule(cfg, horizon // 2, device_streams(32, 0, 1)).start_times
    second = generate_schedule(cfg, horizon // 2, device_streams(33, 0, 1)).start_times
    stitched = np.diff(np.concatenate([np.asarray(first),
                                       horizon // 2 + np.asarray(second)]))
    result = stats.ks_2samp(whole, stitched)
    assert result.pvalue > 0.01


def test_interarrivals_look_exponential():
    cfg = _config()
    gaps = np.diff(generate_schedule(cfg, 2_000_000_000,
                                     device_streams(17, 0, 1)).start_times)
    result = stats.kstest(gaps, "expon", args=(0, cfg.mean_interarrival_ms))
    assert result.pvalue > 0.01


def test_long_run_duty_cycle_converges():
    # Over >= 1000 packets the airtime fraction approaches the 1% duty
    # cycle within 5%.
    cfg = _config()
    horizon = 150_000_000       # ~1120 packets at one per 133.7 s
    total_toa = 0.0
    packets = 0
    for seed in range(25):
        schedule = generate_schedule(cfg, horizon, device_streams(seed, 0, 1))
        packets += len(schedule.start_times)
        total_toa += len(schedule.start_times) * cfg.time_on_air_ms
    assert packets >= 1000
    duty = total_toa / (25 * horizon)
    assert duty == pytest.approx(0.01, rel=0.05)
