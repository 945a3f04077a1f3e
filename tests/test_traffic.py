"""Poisson arrival schedules and per-device stream independence."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from lorae_sim.params import EU868, dr_profile, regional_plan, time_on_air
from lorae_sim.traffic import DeviceConfig, device_stream, generate_schedule

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


def test_schedule_deterministic_and_increasing():
    cfg = _config()
    a = generate_schedule(cfg, 36_000_000, [device_stream(5, 1)])
    b = generate_schedule(cfg, 36_000_000, [device_stream(5, 1)])
    assert np.array_equal(a.start_times, b.start_times)
    assert all(t2 > t1 for t1, t2 in zip(a.start_times, a.start_times[1:]))
    assert all(0 < t < 36_000_000 for t in a.start_times)


def test_start_times_are_read_only_int64():
    schedule = generate_schedule(_config(), 36_000_000,
                                 [device_stream(5, 1), device_stream(5, 2)])
    times = schedule.start_times
    assert times.dtype == np.int64
    assert not times.flags.writeable
    with pytest.raises(ValueError):
        times[0] = 0


def _arrival(cfg: DeviceConfig, seed: int, index: int) -> int:
    """Time of arrival ``index`` of device 0's stream, from a horizon far past it."""
    horizon = int(cfg.mean_interarrival_ms * 4 * (index + 1))
    return oracles.reference_schedule(cfg, horizon, device_stream(seed, 0))[index]


@pytest.mark.parametrize("dr, seed, horizon", [
    ("DR8", 0, 1),                        # empty: the first gap is past it
    ("DR8", 1, 36_000_000),
    ("DR0", 2, 14_400_000),
    ("DR5", 3, 3_600_000),
    ("DR9", 4, 500_000_000),              # several blocks
])
def test_schedule_equals_reference(dr, seed, horizon):
    cfg = _config(dr)
    rng, ref_rng = device_stream(seed, 0), device_stream(seed, 0)
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
    rng, ref_rng = device_stream(9, 0), device_stream(9, 0)
    times = generate_schedule(cfg, horizon, [rng]).start_times
    assert times.tolist() == oracles.reference_schedule(cfg, horizon, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _equals_reference_per_device(cfg: DeviceConfig, horizon: int, seed: int,
                                 devices: int) -> list[int]:
    """Check one batched schedule of ``devices`` streams against the per-gap
    oracle run device by device; return the arrival counts."""
    rngs = [device_stream(seed, i) for i in range(devices)]
    ref_rngs = [device_stream(seed, i) for i in range(devices)]
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


def test_batched_schedule_of_one_device():
    cfg = _config("DR5")
    _equals_reference_per_device(cfg, int(cfg.mean_interarrival_ms * 600), 4, 1)


def test_schedule_expected_count():
    # 100 h horizon at mean gap 133.7 s: about 2693 arrivals expected.
    cfg = _config()
    horizon = 360_000_000
    counts = [len(generate_schedule(cfg, horizon, [device_stream(s, 0)]).start_times)
              for s in range(40)]
    expected = horizon / cfg.mean_interarrival_ms
    assert np.mean(counts) == pytest.approx(expected, rel=0.02)


def test_tiny_horizon_gives_empty_schedule():
    cfg = _config()
    assert generate_schedule(cfg, 1, [device_stream(0, 0)]).start_times.size == 0
    with pytest.raises(ValueError):
        generate_schedule(cfg, 0, [device_stream(0, 0)])


def test_adding_devices_leaves_existing_streams_alone():
    cfg0 = _config(device_id=0)
    alone = generate_schedule(cfg0, 72_000_000, [device_stream(123, 0)])
    # Generating other devices' schedules first must not matter: streams
    # are keyed by device index, not drawn from one shared sequence.
    for other in (1, 2, 3):
        generate_schedule(_config(device_id=other), 72_000_000,
                          [device_stream(123, other)])
    again = generate_schedule(cfg0, 72_000_000, [device_stream(123, 0)])
    assert np.array_equal(alone.start_times, again.start_times)


def test_streams_differ_between_devices_and_seeds():
    cfg = _config()
    horizon = 72_000_000
    s00 = generate_schedule(cfg, horizon, [device_stream(1, 0)]).start_times
    s01 = generate_schedule(cfg, horizon, [device_stream(1, 1)]).start_times
    s10 = generate_schedule(cfg, horizon, [device_stream(2, 0)]).start_times
    assert not np.array_equal(s00, s01)
    assert not np.array_equal(s00, s10)


def test_memorylessness_split_horizon():
    # Inter-arrival samples from one long run and from two concatenated
    # half-runs must be draws of the same distribution (KS at 1%).
    cfg = _config()
    horizon = 1_000_000_000
    whole = np.diff(generate_schedule(cfg, horizon, [device_stream(31, 0)]).start_times)
    first = generate_schedule(cfg, horizon // 2, [device_stream(32, 0)]).start_times
    second = generate_schedule(cfg, horizon // 2, [device_stream(33, 0)]).start_times
    stitched = np.diff(np.concatenate([np.asarray(first),
                                       horizon // 2 + np.asarray(second)]))
    result = stats.ks_2samp(whole, stitched)
    assert result.pvalue > 0.01


def test_interarrivals_look_exponential():
    cfg = _config()
    gaps = np.diff(generate_schedule(cfg, 2_000_000_000,
                                     [device_stream(17, 0)]).start_times)
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
        schedule = generate_schedule(cfg, horizon, [device_stream(seed, 0)])
        packets += len(schedule.start_times)
        total_toa += len(schedule.start_times) * cfg.time_on_air_ms
    assert packets >= 1000
    duty = total_toa / (25 * horizon)
    assert duty == pytest.approx(0.01, rel=0.05)
