"""Byte-for-byte gate on full scenario results.

``data/results_golden.csv`` holds every ``ScenarioResult`` field of a
fixed set of small scenarios, floats at the result CSV's 3 decimals.  A
refactor of the engine must leave it byte-identical; only an intended
model change may rewrite it, with::

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import test_results_golden as g; g.GOLDEN.write_text(g.golden_csv())"
"""

from __future__ import annotations

from pathlib import Path

from lorae_sim.engine import ScenarioResult, run
from lorae_sim.experiments import build_scenario

GOLDEN = Path(__file__).parent / "data" / "results_golden.csv"

CASES = [    # (region, dr, payload B, devices, horizon ms)
    ("EU868", "DR0", 10, 60, 14_400_000),
    ("EU868", "DR5", 50, 80, 3_600_000),
    ("EU868", "DR8", 10, 3_000, 3_600_000),
    ("EU868", "DR8", 58, 200, 3_600_000),
    ("EU868", "DR9", 10, 1_500, 3_600_000),
    ("EU868", "DR9", 123, 100, 3_600_000),
    ("US915", "DR5", 10, 30, 3_600_000),
]
SEEDS = (0, 1, 2)

COLUMNS = ["region", "devices", "dr", "payload", "seed", "horizon_ms", "generated",
           "decoded", "offered_pkts_h", "decoded_pkts_h", "goodput_B_h", "losses"]


def _row(region: str, r: ScenarioResult) -> str:
    losses = ";".join(f"{k.value}={v}" for k, v in
                      sorted(r.loss_breakdown.items(), key=lambda kv: kv[0].value))
    return (f"{region},{r.device_count},{r.dr_label},{r.payload_label},{r.master_seed},"
            f"{r.horizon_ms},{r.generated_packets},{r.decoded_packets},"
            f"{r.offered_load_packets_per_hour:.3f},{r.throughput_packets_per_hour:.3f},"
            f"{r.goodput_bytes_per_hour:.3f},{losses}")


def golden_csv() -> str:
    rows = [_row(region, run(build_scenario(region, dr, payload, devices, horizon, seed)))
            for region, dr, payload, devices, horizon in CASES for seed in SEEDS]
    return "\n".join([",".join(COLUMNS), *rows]) + "\n"


def test_results_match_golden_bytes():
    assert golden_csv() == GOLDEN.read_text(encoding="ascii")
