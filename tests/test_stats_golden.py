"""Statistical gate on the model's mean counts, which outlives a re-seed.

``data/stats_golden.csv`` holds, per case, the mean and standard error over
20 replications (seeds 100-119) of generated and decoded packets and of
each loss count that occurs.  Every recomputed mean must lie within ``z``
combined standard errors of the stored one, with ``z`` from Bonferroni at a
1 % family-wise false-alarm rate over all the comparisons.  A change of the
seed contract moves the means by noise only and passes; a model change of
a few tenths of a percent moves the dense cases by many standard errors
and fails.  Only an intended model change may rewrite the file, with::

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import test_stats_golden as g; g.GOLDEN.write_text(g.golden_csv())"
"""

from __future__ import annotations

import csv
import io
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from statistics import NormalDist, mean, stdev

from lorae_sim.engine import Outcome, _usable_cpus, run
from lorae_sim.experiments import build_scenario

from test_results_golden import CASES as BYTE_CASES

GOLDEN = Path(__file__).parent / "data" / "stats_golden.csv"

CASES = [*BYTE_CASES,   # (region, dr, payload B, devices, horizon ms)
         ("EU868", "DR8", 10, 9_000, 3_600_000),
         ("EU868", "DR9", 10, 5_000, 3_600_000),
         ("EU868", "DR0", 10, 55, 14_400_000)]
SEEDS = range(100, 120)
QUANTITIES = ("generated", "decoded", *(o.value for o in Outcome if o is not Outcome.DECODED))
FAMILY_WISE_ALPHA = 0.01
COLUMNS = ["region", "dr", "payload", "devices", "horizon_ms", "quantity", "mean", "se"]


def _counts(point: tuple) -> dict[str, int]:
    *case, seed = point
    r = run(build_scenario(*case, seed))
    return {"generated": r.generated_packets, "decoded": r.decoded_packets,
            **{o.value: n for o, n in r.loss_breakdown.items()}}


def case_stats() -> dict[tuple, dict[str, tuple[float, float]]]:
    """Per case, (mean, SE) of each quantity that is nonzero in some replication."""
    points = [(*case, seed) for case in CASES for seed in SEEDS]
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(_usable_cpus(), mp_context=spawn) as pool:
        counts = list(pool.map(_counts, points))
    stats = {}
    for i, case in enumerate(CASES):
        runs = counts[i * len(SEEDS):(i + 1) * len(SEEDS)]
        values = {q: [c.get(q, 0) for c in runs] for q in QUANTITIES}
        stats[case] = {q: (mean(v), stdev(v) / math.sqrt(len(v)))
                       for q, v in values.items() if any(v)}
    return stats


def golden_csv() -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(COLUMNS)
    for case, quantities in case_stats().items():
        for quantity, (m, se) in quantities.items():
            writer.writerow([*case, quantity, f"{m:.2f}", f"{se:.4g}"])
    return out.getvalue()


def _case(row: dict[str, str]) -> tuple:
    return (row["region"], row["dr"], int(row["payload"]), int(row["devices"]),
            int(row["horizon_ms"]))


def test_means_match_golden_within_bonferroni_bound():
    with open(GOLDEN, newline="", encoding="ascii") as f:
        stored = list(csv.DictReader(f))
    assert {_case(r) for r in stored} == set(CASES)
    z = NormalDist().inv_cdf(1 - FAMILY_WISE_ALPHA / (2 * len(stored)))
    stats = case_stats()
    failures = []
    for r in stored:
        case = _case(r)
        m, se = stats[case].get(r["quantity"], (0.0, 0.0))
        bound = z * math.hypot(se, float(r["se"]))
        if abs(m - float(r["mean"])) > bound:
            failures.append(f"{case} {r['quantity']}: mean {m:.2f} against stored "
                            f"{r['mean']}, bound {bound:.3g}")
    assert not failures, "\n".join(failures)
