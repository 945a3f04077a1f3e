"""Where the traced run wraps lorae_sim, and the per-layer metrics it yields.

Each wrapped name is the one the *calling* module looks up, so a function
imported into another module's namespace is wrapped there.  Layers are the
modules of ``src/lorae_sim``: cli, experiments, engine, traffic, hopping
and params.
"""

from __future__ import annotations

from collections import Counter

from lorae_sim import cli, engine, experiments, traffic

from tracer import Tracer, totals

# Airtime functions of params, as the other layers call them.
AIRTIME = ((traffic, "time_on_air"), (engine, "lora_time_on_air"),
           (engine, "lorae_fragment_durations"), (experiments, "time_on_air"))


def _on_run(counts: Counter, args: tuple, result) -> None:
    counts["engine.generated"] += result.generated_packets
    counts["engine.decoded"] += result.decoded_packets


def _on_schedule(counts: Counter, args: tuple, result) -> None:
    counts["traffic.packets"] += len(result.start_times)


def _on_slots(counts: Counter, args: tuple, result) -> None:
    counts["engine.slots_calls"] += 1


def _on_hash(counts: Counter, args: tuple, result) -> None:
    counts["hopping.hashes"] += result.size


def _on_collide(counts: Counter, args: tuple, result) -> None:
    key, start, end = args
    counts["engine.emissions"] += key.size
    counts["engine.collided"] += int(result.sum())
    counts["engine.emission_bytes"] = max(counts["engine.emission_bytes"],
                                          key.nbytes + start.nbytes + end.nbytes)


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the three workloads cross."""
    tracer.span("cli.main", cli, "main")
    tracer.span("experiments.sweep", cli, "sweep")
    tracer.span("experiments.sweep", experiments, "sweep")
    tracer.span("experiments.aggregate", cli, "aggregate")
    tracer.span("experiments.emit", cli, "emit_results")
    tracer.span("experiments.emit", cli, "emit_aggregate")
    tracer.span("experiments.build_scenario", experiments, "build_scenario")
    tracer.span("engine.run", experiments, "run", _on_run)
    tracer.span("engine.run", engine, "run", _on_run)
    tracer.span("engine._draw_packets", engine, "_draw_packets")
    tracer.span("traffic.generate_schedule", engine, "generate_schedule", _on_schedule)
    tracer.span("traffic.device_stream", engine, "device_stream")
    tracer.span("engine._run_lora", engine, "_run_lora")
    tracer.span("engine._run_lorae", engine, "_run_lorae")
    tracer.span("engine._lorae_slots", engine, "_lorae_slots", _on_slots)
    tracer.span("hopping.hop_hash_array", engine, "hop_hash_array", _on_hash)
    tracer.span("engine._collide_arrays", engine, "_collide_arrays", _on_collide)
    for module, attr in AIRTIME:
        tracer.count("params.airtime_calls", module, attr)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced job: name -> (value, unit)."""
    inclusive, own = totals([s for s in tracer.spans if s is not None])
    c = tracer.counts

    def secs(table: dict[str, int], *names: str) -> float:
        return sum(table.get(n, 0) for n in names) / 1e9

    collide_s = secs(inclusive, "engine._collide_arrays")
    schedule_s = secs(inclusive, "traffic.generate_schedule")
    return {
        # slots_s includes hopping.hash_s, which runs inside _lorae_slots.
        "engine.slots_s": (secs(inclusive, "engine._lorae_slots"), "s"),
        "engine.slots_calls": (c["engine.slots_calls"], "count"),
        "hopping.hash_s": (secs(inclusive, "hopping.hop_hash_array"), "s"),
        "hopping.hashes": (c["hopping.hashes"], "count"),
        "engine.collide_s": (collide_s, "s"),
        "engine.emissions": (c["engine.emissions"], "count"),
        "engine.collide_ns_per_emission": (_ratio(collide_s * 1e9, c["engine.emissions"]), "ns"),
        # Largest (key, start, end) input to one _collide_arrays call, from
        # array sizes; computed, not a measured RSS.
        "engine.emission_bytes": (c["engine.emission_bytes"], "B-computed"),
        "traffic.schedule_s": (schedule_s, "s"),
        "traffic.stream_s": (secs(inclusive, "traffic.device_stream"), "s"),
        "traffic.packets": (c["traffic.packets"], "count"),
        "traffic.ns_per_packet": (_ratio(schedule_s * 1e9, c["traffic.packets"]), "ns"),
        "engine.draws_self_s": (secs(own, "engine._draw_packets"), "s"),
        "engine.layout_adjudicate_s": (secs(own, "engine._run_lora", "engine._run_lorae"), "s"),
        "experiments.sweep_self_s": (secs(own, "experiments.sweep"), "s"),
        "experiments.build_scenario_s": (secs(inclusive, "experiments.build_scenario"), "s"),
        "experiments.aggregate_s": (secs(inclusive, "experiments.aggregate"), "s"),
        "experiments.emit_s": (secs(inclusive, "experiments.emit"), "s"),
        "cli.self_s": (secs(own, "cli.main"), "s"),
        "params.airtime_calls": (c["params.airtime_calls"], "count"),
        "engine.decode_ratio": (_ratio(c["engine.decoded"], c["engine.generated"]), "ratio"),
        "engine.collided_frac": (_ratio(c["engine.collided"], c["engine.emissions"]), "ratio"),
    }
