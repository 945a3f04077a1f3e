"""Packet-level capacity simulator for LoRa and LoRa-E (LR-FHSS) uplinks."""

from .engine import Outcome, Scenario, ScenarioResult, run
from .experiments import (CrossoverNotFound, SweepSpec, aggregate, aggregate_capacity,
                          find_crossover, sweep)
from .params import (DataRateProfile, PayloadSizeError, RegionalPlan,
                     UnknownProfileError, dr_profile, lorae_fragment_count,
                     lorae_time_on_air, lora_time_on_air, max_packet_rate,
                     regional_plan, time_on_air)
from .traffic import ArrivalSchedule, DeviceConfig, generate_schedule

__version__ = "0.1.0"

__all__ = [
    "ArrivalSchedule", "CrossoverNotFound", "DataRateProfile", "DeviceConfig", "Outcome",
    "PayloadSizeError", "RegionalPlan", "Scenario", "ScenarioResult", "SweepSpec",
    "UnknownProfileError", "aggregate", "aggregate_capacity", "dr_profile",
    "find_crossover", "generate_schedule", "lora_time_on_air", "lorae_fragment_count",
    "lorae_time_on_air", "max_packet_rate", "regional_plan", "run", "sweep",
    "time_on_air", "__version__",
]
