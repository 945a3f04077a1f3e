"""Channel plans, airtime arithmetic and packet-rate budgets."""

from __future__ import annotations

from fractions import Fraction

import pytest

from lorae_sim import params
from lorae_sim.experiments import csv_text
from lorae_sim.params import (EU868, LORA, LORA_E, US915, PayloadSizeError,
                              UnknownProfileError, dr_profile,
                              lora_time_on_air, lorae_coded_bits,
                              lorae_fragment_count, lorae_fragment_durations,
                              lorae_time_on_air, max_packet_rate, regional_plan)

import oracles

EU_LORA_E = ["DR8", "DR9", "DR10", "DR11"]


# --- channelisation tables -------------------------------------------------

@pytest.mark.parametrize("region, dr, ocw, grids, cpg, total, channels", [
    (EU868, "DR8", 137_000, 8, 35, 280, 7),
    (EU868, "DR9", 137_000, 8, 35, 280, 4),
    (EU868, "DR10", 336_000, 8, 86, 688, 7),
    (EU868, "DR11", 336_000, 8, 86, 688, 4),
    (US915, "DR5", 1_523_000, 52, 60, 3120, 8),
    (US915, "DR6", 1_523_000, 52, 60, 3120, 8),
])
def test_lorae_channel_layout(region, dr, ocw, grids, cpg, total, channels):
    plan = regional_plan(region, dr)
    assert plan.ocw_bandwidth_hz == ocw
    assert plan.obw_bandwidth_hz == 488
    assert plan.num_grids == grids
    assert plan.carriers_per_grid == cpg
    assert plan.total_carriers == total
    assert plan.num_ocw_channels == channels
    assert plan.num_grids * plan.carriers_per_grid == plan.total_carriers


def test_min_hop_separation_by_region():
    assert regional_plan(EU868, "DR8").min_hop_separation_hz == 3_900
    assert regional_plan(US915, "DR5").min_hop_separation_hz == 25_400


def test_lora_plan_is_single_carrier():
    plan = regional_plan(EU868, "DR0")
    assert (plan.total_carriers, plan.num_grids, plan.carriers_per_grid) == (1, 1, 1)
    assert plan.num_ocw_channels == 8
    assert plan.duty_cycle == 0.01


def test_unknown_profiles_rejected():
    with pytest.raises(UnknownProfileError):
        dr_profile(EU868, "DR7")
    with pytest.raises(UnknownProfileError):
        regional_plan(US915, "DR8")


# --- LoRa airtime ----------------------------------------------------------

@pytest.mark.parametrize("dr, sf", [("DR0", 12), ("DR1", 11), ("DR2", 10),
                                    ("DR3", 9), ("DR4", 8), ("DR5", 7)])
@pytest.mark.parametrize("payload", [1, 10, 23, 50, 51])
def test_lora_airtime_matches_oracle(dr, sf, payload):
    profile = dr_profile(EU868, dr)
    got = lora_time_on_air(profile, payload)
    want = oracles.lora_airtime_ms(sf, payload)
    assert got == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("dr, payload, expected_ms", [
    ("DR0", 10, 991.232),    # SF12
    ("DR0", 50, 2301.952),
    ("DR5", 10, 41.216),     # SF7
    ("DR5", 50, 97.536),
])
def test_lora_airtime_known_points(dr, payload, expected_ms):
    assert lora_time_on_air(dr_profile(EU868, dr), payload) == pytest.approx(expected_ms)


def test_lora_airtime_rejects_wrong_family_and_payload():
    with pytest.raises(ValueError):
        lora_time_on_air(dr_profile(EU868, "DR8"), 10)
    with pytest.raises(PayloadSizeError):
        lora_time_on_air(dr_profile(EU868, "DR0"), 52)
    with pytest.raises(PayloadSizeError):
        lora_time_on_air(dr_profile(EU868, "DR0"), 0)


# --- LoRa-E fragmentation --------------------------------------------------

@pytest.mark.parametrize("region, dr", [(EU868, "DR8"), (EU868, "DR9"),
                                        (EU868, "DR10"), (EU868, "DR11"),
                                        (US915, "DR5"), (US915, "DR6")])
@pytest.mark.parametrize("payload", [1, 10, 50, 58])
def test_lorae_fragments_match_oracle(region, dr, payload):
    profile = dr_profile(region, dr)
    want = oracles.lorae_fragments(payload, profile.coding_rate)
    assert lorae_fragment_count(profile, payload) == len(want)
    assert list(lorae_fragment_durations(profile, payload)) == want
    assert lorae_time_on_air(profile, payload) == oracles.lorae_airtime_ms(
        payload, profile.coding_rate)


@pytest.mark.parametrize("dr, payload, frags, toa_ms", [
    ("DR8", 10, 13, 1337),
    ("DR8", 50, 53, 3337),
    ("DR9", 10, 7, 785),
    ("DR9", 50, 27, 1785),
])
def test_lorae_timing_known_points(dr, payload, frags, toa_ms):
    profile = dr_profile(EU868, dr)
    assert lorae_fragment_count(profile, payload) == frags
    assert lorae_time_on_air(profile, payload) == toa_ms


def test_fragment_durations_sum_and_pitch():
    profile = dr_profile(EU868, "DR8")
    durations = lorae_fragment_durations(profile, 10)
    assert all(d == 50 for d in durations[:-1])
    assert 1 <= durations[-1] <= 50
    assert lorae_coded_bits(profile, 10) == (10 + 2) * 8 * 3 + 6 * 3


def test_lorae_payload_bounds():
    with pytest.raises(PayloadSizeError):
        lorae_fragment_count(dr_profile(EU868, "DR8"), 59)
    with pytest.raises(PayloadSizeError):
        lorae_fragment_count(dr_profile(EU868, "DR9"), 124)
    with pytest.raises(ValueError):
        lorae_fragment_count(dr_profile(EU868, "DR0"), 10)


def test_header_replicas_by_coding_rate():
    for region, dr in [(EU868, "DR8"), (EU868, "DR10"), (US915, "DR5")]:
        profile = dr_profile(region, dr)
        assert (profile.coding_rate, profile.header_replicas) == (Fraction(1, 3), 3)
    for region, dr in [(EU868, "DR9"), (EU868, "DR11"), (US915, "DR6")]:
        profile = dr_profile(region, dr)
        assert (profile.coding_rate, profile.header_replicas) == (Fraction(2, 3), 2)


# --- packet-rate budget ----------------------------------------------------

def test_max_packet_rate_duty_budget():
    plan = regional_plan(EU868, "DR0")
    assert max_packet_rate(plan, 36_000_000) == pytest.approx(0.001)
    assert max_packet_rate(plan, 992) == pytest.approx(36.29, abs=0.01)
    with pytest.raises(ValueError):
        max_packet_rate(plan, 0)


def test_us_plan_has_no_duty_ceiling():
    assert regional_plan(US915, "DR5").duty_cycle == 1.0


# --- provenance table ------------------------------------------------------

def test_provenance_csv_covers_all_profiles():
    text = csv_text(params.PROVENANCE_COLUMNS, params.provenance_rows())
    lines = text.strip().splitlines()
    assert lines[0].split(",") == params.PROVENANCE_COLUMNS
    assert len(lines) == 1 + 12   # 6 LoRa + 4 EU LoRa-E + 2 US LoRa-E
    dr8 = next(l for l in lines if l.startswith("EU868,DR8,"))
    fields = dict(zip(params.PROVENANCE_COLUMNS, dr8.split(",")))
    assert fields["fragments_max"] == "61"
    assert fields["toa_max_ms"] == "3737"
