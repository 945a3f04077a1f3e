"""Regional channel plans, data-rate profiles and airtime arithmetic.

Two uplink families are modelled:

* ``LORA``   - classic LoRa chirp modulation on a single 125 kHz channel.
* ``LORA_E`` - LoRa-E (LR-FHSS): GMSK at 488 bps on 488 Hz sub-carriers, the
  header sent as 233 ms replicas and the coded payload split into ~50 ms
  frequency-hopping fragments.

All durations are milliseconds.  LoRa airtimes are exact floats (the
sub-millisecond part matters for packet-rate budgets at SF7); LoRa-E airtimes
are integers because every hop is scheduled on a millisecond grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

EU868 = "EU868"
US915 = "US915"

LORA = "LORA"
LORA_E = "LORA_E"

OBW_HZ = 488                 # occupied bandwidth of one LR-FHSS sub-carrier
HEADER_MS = 233              # one PHY header replica (114 bits at 488 bps)
FRAGMENT_MS = 50             # nominal duration of one full payload hop
SEED_COUNT = 512             # 9-bit hopping seeds: 512 hop sequences per grid size
CODED_BITS_PER_FRAGMENT = 24  # coded bits carried by one full hop
PAYLOAD_CRC_BYTES = 2        # CRC appended to the MAC payload before coding
CONV_TAIL_BITS = 6           # convolutional-encoder flush bits

LORA_BW_HZ = 125_000
LORA_PREAMBLE_SYMBOLS = 8    # public-network default, plus 4.25 synch symbols
LORA_CHANNELS_EU = 8         # independent 125 kHz uplink channels
LORA_DR_COUNT_EU = 6         # DR0..DR5 (SF12..SF7)


class UnknownProfileError(LookupError):
    """No data-rate definition for the requested (region, alias) pair."""


class PayloadSizeError(ValueError):
    """MAC payload exceeds the maximum the data rate allows."""


@dataclass(frozen=True, slots=True)
class RegionalPlan:
    """Channelisation and regulatory limits for one region and DR family.

    A LoRa-E operating channel of ``ocw_bandwidth_hz`` is divided into
    ``total_carriers`` sub-carriers of ``obw_bandwidth_hz``.  Sub-carriers are
    organised as ``num_grids`` interleaved grids of ``carriers_per_grid``
    slots so that any two slots of one grid sit at least
    ``min_hop_separation_hz`` apart.  Classic LoRa uses a degenerate plan:
    one carrier per channel and no hopping (OCW = OBW, separation 0).
    """

    duty_cycle: float
    ocw_bandwidth_hz: int
    obw_bandwidth_hz: int
    min_hop_separation_hz: int
    num_ocw_channels: int

    def __post_init__(self) -> None:
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ValueError(f"duty cycle must be in (0, 1], got {self.duty_cycle}")

    @property
    def total_carriers(self) -> int:
        return self.ocw_bandwidth_hz // self.obw_bandwidth_hz

    @property
    def num_grids(self) -> int:
        return max(1, round(self.min_hop_separation_hz / self.obw_bandwidth_hz))

    @property
    def carriers_per_grid(self) -> int:
        return self.total_carriers // self.num_grids


@dataclass(frozen=True, slots=True)
class DataRateProfile:
    """One data-rate alias within a region: the table's inputs, the rest derived.

    A LoRa rate is fixed by its spreading factor; a LoRa-E rate (no spreading
    factor) by its coding rate.
    """

    alias: str
    coding_rate: Fraction
    max_payload_bytes: int
    lora_spreading_factor: int | None = None

    @property
    def family(self) -> str:
        return LORA_E if self.lora_spreading_factor is None else LORA

    @property
    def header_replicas(self) -> int:
        if self.family == LORA:
            return 1
        return 3 if self.coding_rate == Fraction(1, 3) else 2   # CR 1/3 sends one extra copy

    @property
    def phy_bit_rate_bps(self) -> int:
        if self.family == LORA_E:
            return int(OBW_HZ * self.coding_rate)
        sf = self.lora_spreading_factor
        return int(sf * LORA_BW_HZ / 2 ** sf)


# EU duty cycle is the binding 1% ETSI limit.  US915 is governed by dwell
# time rather than duty cycle, which this model does not enforce, so its
# plan carries no rate ceiling (duty 1.0).
_EU_DUTY = 0.01
_US_DUTY = 1.0

_LORA_CR = Fraction(4, 5)           # LoRaWAN uplink default

_LORA_PLAN_EU = RegionalPlan(
    duty_cycle=_EU_DUTY,
    ocw_bandwidth_hz=LORA_BW_HZ,
    obw_bandwidth_hz=LORA_BW_HZ,
    min_hop_separation_hz=0,
    num_ocw_channels=LORA_CHANNELS_EU,
)

# (region, DR) -> (profile, plan).  Profiles read: alias, coding rate, max
# payload, spreading factor (LoRa only).  LoRa-E plans read: duty cycle, OCW
# width, sub-carrier width, minimum hop separation, OCW channels.
_DATA_RATES: dict[tuple[str, str], tuple[DataRateProfile, RegionalPlan]] = {
    # EU868 classic LoRa, DR0..DR5 = SF12..SF7 at 125 kHz
    (EU868, "DR0"): (DataRateProfile("DR0", _LORA_CR, 51, 12), _LORA_PLAN_EU),
    (EU868, "DR1"): (DataRateProfile("DR1", _LORA_CR, 51, 11), _LORA_PLAN_EU),
    (EU868, "DR2"): (DataRateProfile("DR2", _LORA_CR, 51, 10), _LORA_PLAN_EU),
    (EU868, "DR3"): (DataRateProfile("DR3", _LORA_CR, 115, 9), _LORA_PLAN_EU),
    (EU868, "DR4"): (DataRateProfile("DR4", _LORA_CR, 222, 8), _LORA_PLAN_EU),
    (EU868, "DR5"): (DataRateProfile("DR5", _LORA_CR, 222, 7), _LORA_PLAN_EU),
    # EU868 LoRa-E, 137 kHz channels
    (EU868, "DR8"): (DataRateProfile("DR8", Fraction(1, 3), 58),
                     RegionalPlan(_EU_DUTY, 137_000, OBW_HZ, 3_900, 7)),
    (EU868, "DR9"): (DataRateProfile("DR9", Fraction(2, 3), 123),
                     RegionalPlan(_EU_DUTY, 137_000, OBW_HZ, 3_900, 4)),
    # EU868 LoRa-E, 336 kHz channels
    (EU868, "DR10"): (DataRateProfile("DR10", Fraction(1, 3), 58),
                      RegionalPlan(_EU_DUTY, 336_000, OBW_HZ, 3_900, 7)),
    (EU868, "DR11"): (DataRateProfile("DR11", Fraction(2, 3), 123),
                      RegionalPlan(_EU_DUTY, 336_000, OBW_HZ, 3_900, 4)),
    # US915 LoRa-E, 1.523 MHz channels
    (US915, "DR5"): (DataRateProfile("DR5", Fraction(1, 3), 125),
                     RegionalPlan(_US_DUTY, 1_523_000, OBW_HZ, 25_400, 8)),
    (US915, "DR6"): (DataRateProfile("DR6", Fraction(2, 3), 125),
                     RegionalPlan(_US_DUTY, 1_523_000, OBW_HZ, 25_400, 8)),
}


def _data_rate(region: str, alias: str) -> tuple[DataRateProfile, RegionalPlan]:
    try:
        return _DATA_RATES[(region, alias)]
    except KeyError:
        raise UnknownProfileError(f"no data rate {alias!r} in region {region!r}") from None


def dr_profile(region: str, alias: str) -> DataRateProfile:
    """Look up the data-rate profile for ``alias`` in ``region``."""
    return _data_rate(region, alias)[0]


def regional_plan(region: str, alias: str) -> RegionalPlan:
    """Look up the channel plan that ``alias`` transmits under in ``region``."""
    return _data_rate(region, alias)[1]


def check_payload(profile: DataRateProfile, payload_bytes: int) -> None:
    """Raise :class:`PayloadSizeError` unless 1 <= payload <= the DR's maximum."""
    if payload_bytes < 1:
        raise PayloadSizeError(f"payload must be at least 1 byte, got {payload_bytes}")
    if payload_bytes > profile.max_payload_bytes:
        raise PayloadSizeError(
            f"{profile.alias} carries at most {profile.max_payload_bytes} B, got {payload_bytes}")


def lora_time_on_air(profile: DataRateProfile, payload_bytes: int) -> float:
    """Airtime of one LoRa packet in ms (exact, not rounded).

    Standard LoRa airtime: 8 + 4.25 preamble symbols, explicit header, CRC
    on, the profile's coding rate (4/5), low-data-rate optimisation at
    SF11/SF12 on 125 kHz.
    """
    if profile.family != LORA:
        raise ValueError(f"{profile.alias} is not a LoRa profile")
    check_payload(profile, payload_bytes)
    sf = profile.lora_spreading_factor
    t_sym = (2 ** sf) / LORA_BW_HZ * 1000.0
    de = 1 if sf >= 11 else 0
    cr_code = profile.coding_rate.denominator - 4  # CR 4/(4 + cr_code)
    numer = 8 * payload_bytes - 4 * sf + 28 + 16   # explicit header, CRC on
    n_payload = 8 + max(math.ceil(numer / (4 * (sf - 2 * de))) * (cr_code + 4), 0)
    return (LORA_PREAMBLE_SYMBOLS + 4.25 + n_payload) * t_sym


def lorae_coded_bits(profile: DataRateProfile, payload_bytes: int) -> int:
    """Coded payload bits after CRC, tail bits and the convolutional code."""
    if profile.family != LORA_E:
        raise ValueError(f"{profile.alias} is not a LoRa-E profile")
    check_payload(profile, payload_bytes)
    info_bits = (payload_bytes + PAYLOAD_CRC_BYTES) * 8 + CONV_TAIL_BITS
    cr = profile.coding_rate
    return -(-info_bits * cr.denominator // cr.numerator)


def lorae_fragment_count(profile: DataRateProfile, payload_bytes: int) -> int:
    """Number of payload hops; each full hop carries 24 coded bits."""
    return len(lorae_fragment_durations(profile, payload_bytes))


def lorae_fragment_durations(profile: DataRateProfile, payload_bytes: int) -> tuple[int, ...]:
    """Per-hop durations in ms; the last hop only carries the leftover bits."""
    coded = lorae_coded_bits(profile, payload_bytes)
    count = -(-coded // CODED_BITS_PER_FRAGMENT)
    tail_bits = coded - CODED_BITS_PER_FRAGMENT * (count - 1)
    last_ms = -(-tail_bits * FRAGMENT_MS // CODED_BITS_PER_FRAGMENT)
    return (FRAGMENT_MS,) * (count - 1) + (last_ms,)


def lorae_time_on_air(profile: DataRateProfile, payload_bytes: int) -> int:
    """Airtime of one LoRa-E packet in ms: header replicas plus payload hops."""
    durations = lorae_fragment_durations(profile, payload_bytes)
    return profile.header_replicas * HEADER_MS + sum(durations)


def time_on_air(profile: DataRateProfile, payload_bytes: int) -> float:
    """Airtime in ms for either family."""
    if profile.family == LORA:
        return lora_time_on_air(profile, payload_bytes)
    return float(lorae_time_on_air(profile, payload_bytes))


def max_packet_rate(plan: RegionalPlan, toa_ms: float) -> float:
    """Packets per hour a device may send under the plan's duty cycle."""
    if toa_ms <= 0:
        raise ValueError(f"time on air must be positive, got {toa_ms}")
    return plan.duty_cycle * 3_600_000 / toa_ms


PROVENANCE_COLUMNS = [
    "region", "dr", "family", "coding_rate", "header_replicas", "bit_rate_bps",
    "max_payload_B", "fragments_max", "toa_max_ms", "ocw_hz", "obw_hz",
    "min_hop_hz", "grids", "carriers_per_grid", "total_carriers",
    "ocw_channels", "duty_cycle",
]


def provenance_rows() -> list[list[object]]:
    """One row per (region, DR) under :data:`PROVENANCE_COLUMNS`: every derived figure."""
    rows: list[list[object]] = []
    for (region, alias), (profile, plan) in sorted(_DATA_RATES.items()):
        if profile.family == LORA_E:
            frags = lorae_fragment_count(profile, profile.max_payload_bytes)
            toa = lorae_time_on_air(profile, profile.max_payload_bytes)
        else:
            frags = 0
            toa = round(lora_time_on_air(profile, profile.max_payload_bytes), 3)
        rows.append([
            region, alias, profile.family, str(profile.coding_rate),
            profile.header_replicas, profile.phy_bit_rate_bps,
            profile.max_payload_bytes, frags, toa,
            plan.ocw_bandwidth_hz, plan.obw_bandwidth_hz, plan.min_hop_separation_hz,
            plan.num_grids, plan.carriers_per_grid, plan.total_carriers,
            plan.num_ocw_channels, plan.duty_cycle,
        ])
    return rows
