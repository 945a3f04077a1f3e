"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests
"""

from types import SimpleNamespace

import pytest

import child
import layers
import workloads
from tracer import Tracer, self_times, totals

TINY_HORIZON_MS = 60_000


def test_self_time_subtracts_children():
    spans = [("a", 0, 100, -1), ("b", 10, 30, 0), ("c", 40, 70, 0), ("d", 50, 60, 2)]
    assert self_times(spans) == [50, 20, 20, 10]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [("a", 0, 100, -1), ("b", 10, 50, 0), ("c", 30, 60, 0), ("d", 90, 120, 0)]
    assert self_times(spans)[0] == 100 - 50 - 10


def test_totals_sum_by_name():
    spans = [("a", 0, 100, -1), ("b", 10, 30, 0), ("b", 40, 50, 0)]
    inclusive, own = totals(spans)
    assert inclusive == {"a": 100, "b": 30}
    assert own == {"a": 70, "b": 30}


def test_tracer_records_nesting_and_restores():
    module = SimpleNamespace(outer=None, inner=lambda x: x + 1, counted=lambda: 0)
    module.outer = lambda x: module.inner(x) * 2
    module.__name__ = "fake"
    originals = dict(vars(module))
    tracer = Tracer()
    tracer.span("outer", module, "outer")
    tracer.span("inner", module, "inner", lambda c, args, r: c.update(inner=r))
    tracer.count("calls", module, "counted")
    tracer.span("gone", module, "removed")
    assert module.outer(1) == 4
    module.counted()
    module.counted()
    assert tracer.restore()
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [("outer", -1), ("inner", 0)]
    assert tracer.counts == {"inner": 2, "calls": 2}
    assert tracer.missing == ["fake.removed"]
    assert vars(module) == originals


def _fake_result(generated=10, decoded=7, lost=3):
    return SimpleNamespace(generated_packets=generated, decoded_packets=decoded,
                           loss_breakdown={"lost": lost})


def test_failed_rows_catches_a_perturbed_row():
    rows = ["1,DR8,10", "2,DR8,10", "3,DR8,10"]
    pinned = [workloads.digest(r) for r in rows]
    results = [_fake_result()] * 3
    assert child.failed_rows(results, rows, pinned, 3) == 0
    perturbed = rows[:1] + ["2,DR8,11"] + rows[2:]
    assert child.failed_rows(results, perturbed, pinned, 3) == 1


def test_failed_rows_catches_broken_conservation_and_missing_rows():
    rows = ["1", "2"]
    assert child.failed_rows([_fake_result(), _fake_result(lost=2)], rows, None, 2) == 1
    assert child.failed_rows([_fake_result()], rows[:1], None, 2) == 2


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_completes_at_tiny_horizon(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    job = workload(3, tmp_path, horizon_ms=TINY_HORIZON_MS)
    job()
    results, rows = job.output()
    assert len(rows) == len(results) == workload.scenarios
    assert all(map(workloads.conserved, results))

    traced = workload(3, tmp_path, horizon_ms=TINY_HORIZON_MS)
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        traced()
    finally:
        assert tracer.restore()
    assert traced.output()[1] == rows
    metrics = layers.metrics(tracer)
    assert metrics["traffic.packets"][0] == sum(r.generated_packets for r in results)
    assert metrics["engine.emissions"][0] > 0
