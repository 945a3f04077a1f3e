"""Acceptance gate: one test (one pass/fail line) per published target.

Tolerances are asserted exactly as stated; where the simulator's faithful
mechanics cannot reach a published number the test fails and says why.
Each criterion collects every mismatch before failing so a single line
carries the full diagnosis.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from lorae_sim.engine import _usable_cpus, hop_hash_array, run, slot_table
from lorae_sim.experiments import (CrossoverNotFound, SweepSpec, aggregate, aggregate_capacity,
                                   find_crossover, peak_point, sweep)
from lorae_sim.params import (EU868, SEED_COUNT, US915, dr_profile, lorae_fragment_count,
                              lorae_time_on_air, regional_plan)

import oracles
from test_engine import _scenario

LORA_DRS = ["DR0", "DR1", "DR2", "DR3", "DR4", "DR5"]
HOUR_MS = 3_600_000


def _check(failures: list[str], label: str, value: float, target: float,
           rel_tol: float) -> None:
    ok = abs(value - target) <= rel_tol * target
    mark = "ok" if ok else f"OUT OF TOLERANCE (|{value:.4g} - {target:.4g}| > {rel_tol:.0%})"
    print(f"  {label}: got {value:.4g}, target {target:.4g} +/- {rel_tol:.0%} -> {mark}")
    if not ok:
        failures.append(f"{label}: {value:.4g} vs {target:.4g} +/- {rel_tol:.0%}")


def _finish(criterion: str, failures: list[str]) -> None:
    if failures:
        pytest.fail(f"{criterion}: " + "; ".join(failures), pytrace=False)


# --- criterion 1: per-device duty-cycle-max rates ----------------------------

def test_criterion_1_per_device_rates():
    failures: list[str] = []
    for dr, payload, target, tol in [
        ("DR0", 10, 36.3, 0.01), ("DR0", 50, 15.6, 0.01),
        ("DR5", 10, 873.5, 0.01), ("DR5", 50, 369.1, 0.01),
        ("DR8", 10, 27.5, 0.03), ("DR8", 50, 10.7, 0.03),
        ("DR9", 10, 46.6, 0.03), ("DR9", 50, 20.1, 0.03),
    ]:
        _check(failures, f"{dr} {payload} B pkts/h",
               oracles.per_device_rate(EU868, dr, payload), target, tol)
    _finish("criterion 1 (per-device rates)", failures)


# --- criterion 2: LoRa-E timing at max payload --------------------------------

def test_criterion_2_table_timing():
    failures: list[str] = []
    cases = [            # (region, dr, header+payload seconds, max fragments)
        (EU868, "DR8", 0.70 + 3.06, 61),
        (EU868, "DR9", 0.47 + 3.19, 64),
        (US915, "DR5", 0.70 + 6.48, 130),
        (US915, "DR6", 0.47 + 3.24, 65),
    ]
    for region, dr, toa_s, frags in cases:
        profile = dr_profile(region, dr)
        payload = profile.max_payload_bytes
        _check(failures, f"{region} {dr} ToA ms",
               lorae_time_on_air(profile, payload), toa_s * 1000, 0.05)
        got = lorae_fragment_count(profile, payload)
        ok = abs(got - frags) <= 2
        print(f"  {region} {dr} fragments: got {got}, target {frags} +/- 2 -> "
              f"{'ok' if ok else 'OUT OF TOLERANCE'}")
        if not ok:
            failures.append(f"{region} {dr} fragments: {got} vs {frags} +/- 2")
    _finish("criterion 2 (Table 1 timing)", failures)


# --- criterion 3: LoRa saturation at ~50 devices per channel ------------------

def test_criterion_3_lora_saturation():
    t0 = time.monotonic()
    failures: list[str] = []
    spec = SweepSpec(region=EU868, dr_aliases=tuple(LORA_DRS), payload_bytes=(10,),
                     device_counts=(18, 35, 50, 55, 60, 70, 100),
                     horizon_ms=4 * HOUR_MS, replications=3, master_seed=101)
    points = aggregate(sweep(spec))
    for dr in LORA_DRS:
        peak = peak_point([p for p in points if p.dr == dr])
        ok = 35 <= peak.devices <= 65
        print(f"  {dr}: goodput max at {peak.devices} devices "
              f"({peak.mean_goodput_bytes_per_hour:.0f} B/h) -> "
              f"{'ok' if ok else 'OUT OF TOLERANCE (50 +/- 15)'}")
        if not ok:
            failures.append(f"{dr} peak at {peak.devices} devices vs 50 +/- 15")
    elapsed = time.monotonic() - t0
    print(f"  runtime {elapsed:.1f} s on {_usable_cpus()} CPUs (budget 60 s)")
    if elapsed > 60:
        failures.append(f"runtime {elapsed:.1f} s exceeds 60 s")
    _finish("criterion 3 (LoRa saturation)", failures)


# --- criterion 4: LoRa-E goodput peaks -----------------------------------------

@pytest.fixture(scope="module")
def lorae_peak_curves():
    t0 = time.monotonic()
    counts = (1_000, 2_000, 3_000, 4_000, 5_000, 6_000, 7_000, 8_000, 9_000,
              10_000, 12_000, 14_000, 16_000, 18_000, 20_000, 24_000)
    spec = SweepSpec(region=EU868, dr_aliases=("DR8", "DR9"), payload_bytes=(10,),
                     device_counts=counts, horizon_ms=HOUR_MS, replications=2,
                     master_seed=202)
    points = aggregate(sweep(spec))
    by_dr = {dr: sorted((p for p in points if p.dr == dr), key=lambda p: p.devices)
             for dr in ("DR8", "DR9")}
    return by_dr, time.monotonic() - t0


def test_criterion_4_lorae_peaks(lorae_peak_curves):
    by_dr, elapsed = lorae_peak_curves
    failures: list[str] = []
    peak8 = peak_point(by_dr["DR8"])
    peak9 = peak_point(by_dr["DR9"])
    _check(failures, "DR9 peak devices", peak9.devices, 8_000, 0.15)
    _check(failures, "DR9 offered at peak pkts/h", peak9.offered_pkts_per_hour,
           370_000, 0.15)
    _check(failures, "DR8 peak devices", peak8.devices, 18_000, 0.15)
    _check(failures, "DR8 offered at peak pkts/h", peak8.offered_pkts_per_hour,
           500_000, 0.15)
    # Device count from which the DR8 goodput curve stays above DR9's.
    g8 = np.array([p.mean_goodput_bytes_per_hour for p in by_dr["DR8"]])
    g9 = np.array([p.mean_goodput_bytes_per_hour for p in by_dr["DR9"]])
    devices = np.array([p.devices for p in by_dr["DR8"]])
    above = g8 > g9
    threshold = None
    for i in range(len(devices)):
        if above[i:].all():
            threshold = int(devices[i])
            break
    if threshold is None:
        failures.append("DR8 goodput never stays above DR9's")
        print("  DR8 never exceeds DR9 over the swept range")
    else:
        _check(failures, "DR8 exceeds DR9 from devices", threshold, 16_000, 0.15)
    print(f"  runtime {elapsed:.1f} s on {_usable_cpus()} CPUs (budget 900 s)")
    if elapsed > 900:
        failures.append(f"runtime {elapsed:.1f} s exceeds 900 s")
    _finish("criterion 4 (LoRa-E peaks)", failures)


# --- criterion 5: LoRa vs LoRa-E crossover loads --------------------------------

def test_criterion_5_crossovers():
    failures: list[str] = []
    cases = [    # (lora_dr, lorae_dr, payload, target pkt/h, device grid)
        ("DR0", "DR8", 10, 2_800, (2, 4, 8, 15, 30, 60, 110, 200, 280)),
        ("DR0", "DR8", 50, 1_400, (2, 4, 8, 15, 30, 60, 110, 200, 280)),
        ("DR0", "DR9", 10, 985, (2, 4, 8, 15, 30, 60, 110, 200, 280)),
        ("DR5", "DR8", 10, 68_000, (30, 60, 120, 240, 480, 960, 1_900, 3_800)),
        ("DR5", "DR9", 10, 23_000, (15, 30, 60, 120, 240, 480, 960, 1_900)),
    ]
    for lora_dr, lorae_dr, payload, target, counts in cases:
        spec = SweepSpec(region=EU868, dr_aliases=(lora_dr, lorae_dr),
                         payload_bytes=(payload,), device_counts=counts,
                         horizon_ms=HOUR_MS, replications=3, master_seed=303)
        label = f"{lorae_dr} vs {lora_dr} at {payload} B"
        try:
            load = find_crossover(spec)
        except CrossoverNotFound as exc:
            print(f"  {label}: NOT BRACKETED ({exc})")
            failures.append(f"{label}: no crossover bracketed "
                            f"(target {target} pkts/h)")
        else:
            _check(failures, f"{label} crossover pkts/h",
                   load, target, 0.15)
    _finish("criterion 5 (crossover loads)", failures)


# --- criterion 6: aggregate network capacity -------------------------------------

def test_criterion_6_aggregate_capacity(lorae_peak_curves):
    failures: list[str] = []
    spec = SweepSpec(region=EU868, dr_aliases=("DR0",), payload_bytes=(10,),
                     device_counts=(18, 35, 50, 55, 60, 70, 100),
                     horizon_ms=4 * HOUR_MS, replications=10, master_seed=404)
    lora_peak = peak_point(aggregate(sweep(spec)))
    lora_capacity = aggregate_capacity(EU868, "DR0", lora_peak.offered_pkts_per_hour)
    print(f"  LoRa per-channel peak {lora_peak.offered_pkts_per_hour:.0f} pkts/h "
          f"at {lora_peak.devices} devices")
    _check(failures, "LoRa capacity pkts/h (8 ch x 6 DR)", lora_capacity,
           96_000, 0.10)

    by_dr, _ = lorae_peak_curves
    peak8 = peak_point(by_dr["DR8"])
    peak9 = peak_point(by_dr["DR9"])
    cap8 = aggregate_capacity(EU868, "DR8", peak8.offered_pkts_per_hour)
    cap9 = aggregate_capacity(EU868, "DR9", peak9.offered_pkts_per_hour)
    _check(failures, "DR8 capacity pkts/h (7 ch)", cap8, 3_500_000, 0.10)
    _check(failures, "DR9 capacity pkts/h (4 ch)", cap9, 1_480_000, 0.10)
    _check(failures, "DR8/LoRa capacity ratio", cap8 / lora_capacity, 36, 0.10)
    _check(failures, "DR9/LoRa capacity ratio", cap9 / lora_capacity, 15, 0.10)
    _finish("criterion 6 (aggregate capacity)", failures)


# --- criterion 7: property suites --------------------------------------------------

def test_criterion_7_property_suites():
    failures: list[str] = []

    # Collision flags equal the quadratic oracle on small random scenarios.
    rng = np.random.default_rng(7)
    for _ in range(5):
        n = int(rng.integers(10, 100))
        rows = [(int(k), int(s), int(s + d)) for k, s, d in
                zip(rng.integers(0, 5, n), rng.integers(0, 300, n),
                    rng.integers(1, 60, n))]
        from lorae_sim.engine import _collide_arrays
        key = np.array([r[0] for r in rows])
        start = np.array([r[1] for r in rows])
        end = np.array([r[2] for r in rows])
        got = _collide_arrays(key, start, end - start).tolist()
        if got != oracles.brute_force_collisions(rows):
            failures.append("collision flags diverge from brute force")
            break
    print("  collision oracle equivalence: "
          f"{'ok' if not failures else failures[-1]}")

    # Exhaustive 512-seed slot usage within 5% of uniform, raw and adjusted.
    for cpg, n_hops in ((35, 64), (35, 1024), (86, 1024), (60, 1024)):
        seeds = np.arange(SEED_COUNT, dtype=np.uint32)
        hops = np.arange(n_hops, dtype=np.uint32)[:, None]
        raw = (hop_hash_array(seeds[None, :], hops) % np.uint32(cpg)).astype(np.int64)
        adjusted = slot_table(n_hops, cpg)
        for name, matrix in (("raw", raw), ("adjusted", adjusted)):
            counts = np.bincount(matrix.ravel(), minlength=cpg)
            dev = float(np.abs(counts - matrix.size / cpg).max() / (matrix.size / cpg))
            print(f"  uniformity cpg={cpg} hops={n_hops} {name}: "
                  f"max per-slot deviation {dev:.3%}")
            if dev > 0.05:
                failures.append(f"slot usage {name} cpg={cpg} deviates {dev:.1%} > 5%")

    # Consecutive hops keep the regulatory frequency separation.
    for region, dr, min_hop in ((EU868, "DR8", 3_900), (US915, "DR5", 25_400)):
        plan = regional_plan(region, dr)
        table = slot_table(64, plan.carriers_per_grid).astype(np.int64)   # uint8 would wrap
        gap = int(np.abs(np.diff(table * min_hop, axis=0)).min())
        print(f"  {region} {dr}: min consecutive-hop separation {gap} Hz "
              f"(floor {min_hop})")
        if gap < min_hop:
            failures.append(f"{region} {dr} hop separation {gap} < {min_hop} Hz")

    # Conservation and determinism on live runs.
    run_failures: list[str] = []
    for dr, devices in (("DR8", 150), ("DR0", 70)):
        scenario = _scenario(dr, 10, devices, HOUR_MS, seed=77)
        a = run(scenario)
        if a != run(scenario):
            run_failures.append(f"{dr} rerun not bit-identical")
        if a.decoded_packets + sum(a.loss_breakdown.values()) != a.generated_packets:
            run_failures.append(f"{dr} conservation violated")
    print(f"  conservation + determinism: {run_failures or 'ok'}")
    failures.extend(run_failures)
    _finish("criterion 7 (property suites)", failures)
