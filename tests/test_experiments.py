"""Sweep runner, crossover search, capacity arithmetic and CSV emission."""

from __future__ import annotations

import concurrent.futures
import functools
import os
from dataclasses import replace

import numpy as np
import pytest

from lorae_sim import engine, experiments
from lorae_sim.cli import main
from lorae_sim.engine import ScenarioConfigError, run
from lorae_sim.experiments import (AGGREGATE_COLUMNS, CrossoverNotFound, SweepSpec,
                                   aggregate, aggregate_capacity, build_scenario,
                                   crossover_load, default_capacity_counts, emit,
                                   emit_aggregate, emit_results, find_crossover,
                                   log_spaced_counts, peak_point, point_seed, sweep)
from lorae_sim.params import dr_profile, time_on_air

from oracles import expected_bytes, per_device_rate


def _spec(**overrides) -> SweepSpec:
    base = dict(region="EU868", dr_aliases=("DR9",), payload_bytes=(10,),
                device_counts=(5, 20), horizon_ms=3_600_000, replications=2,
                master_seed=42)
    base.update(overrides)
    return SweepSpec(**base)


# --- spec validation ---------------------------------------------------------

def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        _spec(replications=0)
    with pytest.raises(ValueError):
        _spec(device_counts=())
    with pytest.raises(ValueError):
        _spec(device_counts=(0, 5))
    with pytest.raises(ValueError):
        _spec(payload_bytes=())
    with pytest.raises(ValueError, match="master_seed must be non-negative, got -1"):
        _spec(master_seed=-1)


def test_sweep_spec_rejects_a_non_integer_horizon():
    with pytest.raises(ValueError, match="horizon must be a positive integer of ms, got 200000.5"):
        _spec(horizon_ms=200_000.5)
    assert _spec(horizon_ms=np.int64(200_000)).horizon_ms == 200_000


@pytest.mark.parametrize("field, values, repeated", [
    ("dr_aliases", ("DR0", "DR0"), "'DR0'"),
    ("payload_bytes", (10, 20, 10), "10"),
    ("device_counts", (5, 5), "5"),
])
def test_sweep_spec_rejects_a_repeated_coordinate(field, values, repeated):
    # A repeated point would be counted as one more replication of itself.
    with pytest.raises(ValueError, match=f"{field} lists {repeated} more than once"):
        _spec(**{field: values})


# --- sweep and aggregation ----------------------------------------------------

def test_sweep_shape_and_determinism():
    spec = _spec()
    rows = sweep(spec)
    assert len(rows) == 2 * 2   # counts x replications
    assert rows == sweep(spec)
    points = aggregate(rows)
    assert [p.devices for p in points] == [5, 20]
    assert all(p.replications == 2 for p in points)


def test_point_seed_independent_of_sweep_composition():
    # The same point inside a larger campaign gets the same seed, so its
    # ScenarioResult is identical.
    small = sweep(_spec(device_counts=(20,)))
    large = sweep(_spec(device_counts=(5, 20), dr_aliases=("DR9", "DR8")))
    small_by_key = {(r.dr_label, r.device_count, r.master_seed) for r in small}
    large_by_key = {(r.dr_label, r.device_count, r.master_seed) for r in large}
    assert small_by_key <= large_by_key
    assert [r for r in large if r.dr_label == "DR9" and r.device_count == 20] == small


def test_point_seed_varies_with_coordinates():
    seeds = {point_seed(1, "EU868", "DR8", 10, 100, rep) for rep in range(5)}
    seeds |= {point_seed(1, "EU868", "DR8", 10, n, 0) for n in (1, 2, 3)}
    seeds |= {point_seed(1, "EU868", "DR9", 10, 100, 0),
              point_seed(1, "EU868", "DR8", 50, 100, 0),
              point_seed(1, "US915", "DR5", 10, 100, 0),
              point_seed(2, "EU868", "DR8", 10, 100, 0)}
    assert len(seeds) == 12


def test_aggregate_mean_and_std():
    spec = _spec(device_counts=(5,), replications=4)
    rows = sweep(spec)
    (point,) = aggregate(rows)
    goodputs = [r.goodput_bytes_per_hour for r in rows]
    assert point.mean_goodput_bytes_per_hour == pytest.approx(np.mean(goodputs))
    assert point.std_goodput_bytes_per_hour == pytest.approx(np.std(goodputs, ddof=1))


# --- worker pool ----------------------------------------------------------------

def _per_point_runs(spec: SweepSpec) -> list:
    """The sweep's expected results: one in-process run per point, in order."""
    return [run(build_scenario(spec.region, dr, payload, count, spec.horizon_ms,
                               point_seed(spec.master_seed, spec.region, dr,
                                          payload, count, rep)))
            for dr in spec.dr_aliases for payload in spec.payload_bytes
            for count in spec.device_counts for rep in range(spec.replications)]


def _refuse_pool(*args, **kwargs):
    raise AssertionError("sweep started a process pool")


class _RecordingPool(concurrent.futures.ProcessPoolExecutor):
    sizes: list[int] = []

    def __init__(self, workers, context=None, **kwargs):
        self.sizes.append(workers)
        super().__init__(workers, context, **kwargs)


def _set_cpus(monkeypatch, cpus: int) -> None:
    # Faked at the OS call: replacing a lorae_sim function would itself
    # keep the sweep in-process.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def _pool_sizes(monkeypatch, pool=_RecordingPool) -> list[int]:
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    return _RecordingPool.sizes


def test_usable_cpus_follows_affinity(monkeypatch):
    # One count for the sweep pool and a run's grid threads.
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert engine._usable_cpus() == 1
    monkeypatch.delattr(engine.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 6)
    assert engine._usable_cpus() == 6


def test_pooled_sweep_equals_per_point_runs(monkeypatch):
    _set_cpus(monkeypatch, 2)
    pools = _pool_sizes(monkeypatch)
    spec = _spec(dr_aliases=("DR0", "DR8"), device_counts=(3, 12), replications=2)
    got = sweep(spec)
    assert pools == [2]
    expected = _per_point_runs(spec)
    assert len(got) == len(expected) == 8
    for i, (a, b) in enumerate(zip(got, expected)):
        assert a == b, f"point {i}: {a} != {b}"
    assert len({r.master_seed for r in got}) == 8


@pytest.mark.parametrize("cpus, drs, counts, replications", [
    (1, ("DR0", "DR8"), (3, 12), 2),   # one usable CPU
    (2, ("DR8",), (3,), 1),            # one point
])
def test_sweep_stays_in_process(monkeypatch, cpus, drs, counts, replications):
    _set_cpus(monkeypatch, cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _refuse_pool)
    spec = _spec(dr_aliases=drs, device_counts=counts, replications=replications)
    assert sweep(spec) == _per_point_runs(spec)


def test_instrumented_sweep_stays_in_process(monkeypatch):
    # A wrapper put in place of a function a point calls sees every point.
    _set_cpus(monkeypatch, 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _refuse_pool)
    calls, collide = [], engine._collide_arrays

    @functools.wraps(collide)
    def counting(*args, **kwargs):
        calls.append(args[0].size)
        return collide(*args, **kwargs)

    monkeypatch.setattr(engine, "_collide_arrays", counting)
    spec = _spec(dr_aliases=("DR0", "DR8"), device_counts=(3, 12), replications=2)
    assert sweep(spec) == _per_point_runs(spec)
    monkeypatch.undo()
    assert len(calls) > 8 and experiments._point_namespace() == experiments._AS_DEFINED


def test_pool_size_fits_physical_memory(monkeypatch):
    # Workers x the largest point's expected bytes stay within memory.
    _set_cpus(monkeypatch, 2)
    pools = _pool_sizes(monkeypatch)
    spec = _spec(dr_aliases=("DR0", "DR8"), device_counts=(3, 12), replications=2)
    largest = max(expected_bytes(build_scenario("EU868", dr, 10, 12, spec.horizon_ms, 0))
                  for dr in ("DR0", "DR8"))
    for pages, size in ((int(2 * largest) - 1, 1), (int(2 * largest) + 1, 2)):
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": pages}.get)
        assert experiments._pool_size(spec, 8) == size
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1,
                                        "SC_PHYS_PAGES": int(largest) - 1}.get)
    with pytest.raises(ScenarioConfigError, match="physical memory"):
        experiments._pool_size(spec, 8)
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1,
                                        "SC_PHYS_PAGES": int(2 * largest) - 1}.get)
    assert sweep(spec) == _per_point_runs(spec)
    assert pools == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_sweep_refuses_a_point_too_large_for_memory_before_any_point_runs(monkeypatch, cpus):
    # Memory holds the 3-device points but not the 12-device ones.
    _set_cpus(monkeypatch, cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _refuse_pool)
    spec = _spec(dr_aliases=("DR8",), device_counts=(3, 12), replications=2)
    small, large = (expected_bytes(build_scenario("EU868", "DR8", 10, n, spec.horizon_ms, 0))
                    for n in spec.device_counts)
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1,
                                        "SC_PHYS_PAGES": int((small + large) / 2)}.get)
    ran = []
    monkeypatch.setattr(experiments, "run", ran.append)
    with pytest.raises(ScenarioConfigError, match="physical memory"):
        sweep(spec)
    assert ran == []


def _fail_points() -> None:
    """Pool initializer: every point run in this worker raises."""
    def fail(scenario):
        raise ValueError(f"point with seed {scenario.master_seed} failed")

    experiments.run = fail


class _FailingPool(_RecordingPool):
    def __init__(self, workers, context=None):
        super().__init__(workers, context, initializer=_fail_points)


def test_pooled_sweep_reraises_a_worker_error(monkeypatch):
    _set_cpus(monkeypatch, 2)
    pools = _pool_sizes(monkeypatch, _FailingPool)
    spec = _spec(dr_aliases=("DR0", "DR8"), device_counts=(3, 12), replications=2)
    with pytest.raises(ValueError, match=r"point with seed \d+ failed"):
        sweep(spec)
    assert pools == [2]
    assert experiments.run is run


def _kill_workers() -> None:
    """Pool initializer: the first point run in this worker ends its process."""
    experiments.run = lambda scenario: os._exit(1)


class _DyingPool(_RecordingPool):
    def __init__(self, workers, context=None):
        super().__init__(workers, context, initializer=_kill_workers)


def test_pooled_sweep_reports_a_dead_worker(monkeypatch, capsys):
    # Exit status 1 means no crossover was bracketed, so a dead worker must
    # not surface as an uncaught error: it is an OSError, and the CLI exits 2.
    _set_cpus(monkeypatch, 2)
    pools = _pool_sizes(monkeypatch, _DyingPool)
    spec = _spec(dr_aliases=("DR0", "DR8"), device_counts=(3, 12), replications=2)
    with pytest.raises(ChildProcessError, match="a sweep worker process died"):
        sweep(spec)
    assert main(["sweep", "--dr", "DR0,DR8", "--payload", "10", "--devices", "3,12",
                 "--horizon-ms", "3600000", "--replications", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: a sweep worker process died")
    assert pools == [2, 2]


def test_find_crossover_runs_one_sweep_with_both_curves(monkeypatch):
    # Each curve equals the aggregate of a sweep of its DR alone.
    spec = _spec(dr_aliases=("DR0", "DR8"), device_counts=(2, 8, 30))
    curves = {dr: aggregate(sweep(replace(spec, dr_aliases=(dr,)))) for dr in ("DR0", "DR8")}
    specs, seen = [], []

    def recording_sweep(one):
        specs.append(one)
        return sweep(one)

    def recording_crossover(label, lora, lorae):
        seen.extend([label, lora, lorae])
        return 1.0

    monkeypatch.setattr(experiments, "sweep", recording_sweep)
    monkeypatch.setattr(experiments, "crossover_load", recording_crossover)
    assert find_crossover(spec) == 1.0
    assert specs == [spec]
    assert seen[0] == "DR0 vs DR8 at 10 B"
    for (loads, goodputs), dr in zip(seen[1:], ("DR0", "DR8")):
        assert loads.tolist() == [p.offered_pkts_per_hour for p in curves[dr]]
        assert goodputs.tolist() == [p.mean_goodput_bytes_per_hour for p in curves[dr]]


def test_find_crossover_spec_validation(monkeypatch):
    # A LoRa rate of the region, then a LoRa-E one, and one payload; the
    # error names the region, the rates and the payloads before any sweep.
    def refuse(spec):
        raise AssertionError("find_crossover swept a spec it should refuse")

    monkeypatch.setattr(experiments, "sweep", refuse)
    for drs, payloads in ((("DR8", "DR0"), (10,)),          # LoRa-E first
                          (("DR0", "DR5"), (10,)),          # two LoRa rates
                          (("DR8", "DR9"), (10,)),          # two LoRa-E rates
                          (("DR0",), (10,)),                # one rate
                          (("DR0", "DR8", "DR9"), (10,)),   # three rates
                          (("DR0", "DR8"), (10, 50))):      # two payloads
        with pytest.raises(ValueError, match=(f"EU868 .* rates {', '.join(drs)} and "
                                              f"payloads {', '.join(map(str, payloads))} B")):
            find_crossover(_spec(dr_aliases=drs, payload_bytes=payloads))


# --- per-device rates ----------------------------------------------------------

@pytest.mark.parametrize("dr, payload, rate", [
    ("DR0", 10, 36.318), ("DR0", 50, 15.639),
    ("DR5", 10, 873.447), ("DR5", 50, 369.094),
    ("DR8", 10, 26.926), ("DR8", 50, 10.788),
    ("DR9", 10, 45.860), ("DR9", 50, 20.168),
])
def test_per_device_rates(dr, payload, rate):
    assert per_device_rate("EU868", dr, payload) == pytest.approx(rate, abs=0.001)


# --- crossover ------------------------------------------------------------------

_LABEL = "DR0 vs DR8 at 10 B"


def test_crossover_interpolates_between_grid_points():
    lora = (np.array([100.0, 200.0, 300.0]), np.array([900.0, 1000.0, 600.0]))
    lorae = (np.array([100.0, 200.0, 300.0]), np.array([700.0, 900.0, 1100.0]))
    # diff: -100 at 200, +500 at 300 -> zero at 200 + 100 * 100/600
    load = crossover_load(_LABEL, lora, lorae)
    assert load == pytest.approx(200 + 100 * 100 / 600)


def test_crossover_handles_disjoint_grids():
    lora = (np.array([100.0, 300.0]), np.array([1000.0, 400.0]))
    lorae = (np.array([150.0, 250.0]), np.array([500.0, 1000.0]))
    load = crossover_load(_LABEL, lora, lorae)
    assert 150 < load < 250


def test_crossover_not_found_reports_endpoints():
    lora = (np.array([100.0, 300.0]), np.array([1000.0, 900.0]))
    lorae_above = (np.array([100.0, 300.0]), np.array([1100.0, 1200.0]))
    with pytest.raises(CrossoverNotFound) as info:
        crossover_load(_LABEL, lora, lorae_above)
    assert str(info.value) == ("no LoRa/LoRa-E goodput crossover bracketed for DR0 vs DR8 "
                               "at 10 B; load [100, 300] pkt/h: LoRa goodput [1000, 900], "
                               "LoRa-E goodput [1100, 1200] B/h")
    lorae_below = (np.array([100.0, 300.0]), np.array([500.0, 600.0]))
    with pytest.raises(CrossoverNotFound):
        crossover_load(_LABEL, lora, lorae_below)


def test_crossover_not_found_on_disjoint_load_ranges():
    lora = (np.array([100.0, 200.0]), np.array([1000.0, 900.0]))
    lorae = (np.array([300.0, 400.0]), np.array([500.0, 1200.0]))
    with pytest.raises(CrossoverNotFound) as info:
        crossover_load(_LABEL, lora, lorae)
    assert str(info.value) == ("no LoRa/LoRa-E goodput crossover bracketed for DR0 vs DR8 "
                               "at 10 B; empty load range")


# --- capacity scaling -----------------------------------------------------------

def test_aggregate_capacity_scaling():
    assert aggregate_capacity("EU868", "DR0", 2_000.0) == pytest.approx(2_000 * 8 * 6)
    assert aggregate_capacity("EU868", "DR8", 500_000.0) == pytest.approx(3_500_000)
    assert aggregate_capacity("EU868", "DR9", 370_000.0) == pytest.approx(1_480_000)


def test_peak_point():
    points = aggregate(sweep(_spec(device_counts=(5, 20))))
    assert peak_point(points).devices == 20   # goodput still rising at 20 devices
    with pytest.raises(ValueError):
        peak_point([])


def test_default_capacity_counts_bracket_lora_peak():
    counts = default_capacity_counts("EU868", "DR0")
    assert 50 in counts
    assert min(counts) < 50 < max(counts)


@pytest.mark.parametrize("dr", [f"DR{i}" for i in range(6)])
@pytest.mark.parametrize("payload", [1, 10, 51])
def test_default_capacity_counts_centre_on_aloha_peak(dr, payload):
    # rate x ToA = duty x 1 h, so the Aloha peak is 1 / (2 x 1%) = 50
    # devices at every EU868 LoRa DR and payload: there they offer half a
    # packet per airtime.
    assert default_capacity_counts("EU868", dr) == (18, 35, 50, 55, 60, 70, 100)
    toa_h = time_on_air(dr_profile("EU868", dr), payload) / 3_600_000
    assert 50 * per_device_rate("EU868", dr, payload) * toa_h == pytest.approx(0.5)


def test_log_spaced_counts():
    counts = log_spaced_counts(10, 1000, 5)
    assert counts[0] == 10 and counts[-1] == 1000
    assert list(counts) == sorted(set(counts))
    assert log_spaced_counts(10, 1000, 1) == (10,)   # one count is lo alone
    assert log_spaced_counts(7, 7, 4) == (7,)
    with pytest.raises(ValueError):
        log_spaced_counts(0, 10, 3)


# --- emission to files ------------------------------------------------------------

def test_emit_results_deterministic_bytes(tmp_path):
    spec = _spec()
    rows = sweep(spec)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    emit_results(rows, a)
    emit_results(rows, b)
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == ("devices,dr,payload,offered_pkts_h,decoded_pkts_h,"
                      "goodput_B_h,loss_header,loss_payload,loss_collision,seed")


def test_emit_aggregate_has_scale_hint(tmp_path):
    spec = _spec()
    points = aggregate(sweep(spec))
    path = tmp_path / "agg.csv"
    emit_aggregate(points, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# xscale: log"
    assert lines[3] == ",".join(AGGREGATE_COLUMNS)
    assert lines[4].split(",")[0:3] == ["5", "DR9", "10"]


def test_emit_rejects_empty_table(tmp_path):
    path = tmp_path / "never.csv"
    with pytest.raises(ValueError):
        emit(path, ["a"], [])
    assert not path.exists()
