"""Command-line front end.

Subcommands: ``params`` (channel-plan and timing table), ``toa`` (airtime
calculator), ``sweep`` (goodput vs device count), ``crossover`` (LoRa vs
LoRa-E goodput crossing load) and ``capacity`` (network-wide peak).

Every run option can also come from a flat ``key=value`` config file
(``--config``); command-line flags override file values.  Exit status is
nonzero on any error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from . import experiments, params
from .engine import DEFAULT_HORIZON_MS
from .experiments import (CrossoverNotFound, CrossoverQuery, SweepSpec, aggregate,
                          aggregate_capacity, default_capacity_counts, emit_aggregate,
                          emit_results, find_crossover, log_spaced_counts, peak_point,
                          per_device_rate, sweep)
from .params import dr_profile, regional_plan

_CONFIG_KEYS = {"region", "dr", "payload", "devices", "devices_log", "horizon_ms",
                "replications", "seed", "out", "aggregate_out", "lora_dr", "lorae_dr"}


class CliError(Exception):
    pass


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _resolve(args: argparse.Namespace, key: str, default: str | None = None) -> str | None:
    flag = getattr(args, key, None)
    if flag is not None:
        return str(flag)
    return args.config_values.get(key, default)


def _require(args: argparse.Namespace, key: str) -> str:
    value = _resolve(args, key)
    if value is None:
        raise CliError(f"missing required option --{key.replace('_', '-')}")
    return value


def _int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise CliError(f"{what} must be comma-separated integers, got {text!r}") from None
    if not values:
        raise CliError(f"{what} must not be empty")
    return values


def _device_counts(args: argparse.Namespace) -> tuple[int, ...]:
    log_range = _resolve(args, "devices_log")
    if log_range is not None:
        parts = log_range.split(":")
        if len(parts) != 3:
            raise CliError(f"--devices-log expects lo:hi:n, got {log_range!r}")
        lo, hi, n = (int(p) for p in parts)
        return log_spaced_counts(lo, hi, n)
    return _int_list(_require(args, "devices"), "devices")


def _sweep_spec(args: argparse.Namespace, dr_aliases: tuple[str, ...]) -> SweepSpec:
    return SweepSpec(
        region=_resolve(args, "region", "EU868"),
        dr_aliases=dr_aliases,
        payload_bytes=_int_list(_require(args, "payload"), "payload"),
        device_counts=_device_counts(args),
        horizon_ms=int(_resolve(args, "horizon_ms", str(DEFAULT_HORIZON_MS))),
        replications=int(_resolve(args, "replications", "3")),
        master_seed=int(_resolve(args, "seed", "0")),
    )


def _cmd_params(args: argparse.Namespace) -> int:
    rows = params.provenance_rows()
    region = _resolve(args, "region")
    if region is not None:
        rows = [r for r in rows if r["region"] == region]
        if not rows:
            raise CliError(f"unknown region {region!r}")
    out = _resolve(args, "out")
    if out is None:
        params.write_provenance_csv(sys.stdout, rows)
    else:
        with open(out, "w", encoding="ascii") as stream:
            params.write_provenance_csv(stream, rows)
    return 0


def _cmd_toa(args: argparse.Namespace) -> int:
    region = _resolve(args, "region", "EU868")
    dr = _require(args, "dr").upper()
    profile = dr_profile(region, dr)
    plan = regional_plan(region, dr)
    for payload in _int_list(_require(args, "payload"), "payload"):
        toa = params.time_on_air(profile, payload)
        frags = (params.lorae_fragment_count(profile, payload)
                 if profile.family == params.LORA_E else 0)
        rate = params.max_packet_rate(plan, toa)
        print(f"region={region} dr={dr} payload_B={payload} family={profile.family} "
              f"toa_ms={toa:.3f} fragments={frags} max_rate_pkts_h={rate:.3f}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    aliases = tuple(a.upper() for a in _require(args, "dr").split(","))
    spec = _sweep_spec(args, aliases)
    results = sweep(spec)
    points = aggregate(spec, results)
    out = _resolve(args, "out")
    if out is not None:
        emit_results(results, out)
        print(f"wrote {len(results)} rows to {out}")
    agg_out = _resolve(args, "aggregate_out")
    if agg_out is not None:
        emit_aggregate(points, agg_out)
        print(f"wrote {len(points)} aggregate points to {agg_out}")
    if out is None and agg_out is None:
        print(",".join(experiments.AGGREGATE_COLUMNS))
        for p in points:
            print(f"{p.devices},{p.dr},{p.payload_bytes},{p.offered_pkts_per_hour:.3f},"
                  f"{p.mean_goodput_bytes_per_hour:.3f},{p.std_goodput_bytes_per_hour:.3f},"
                  f"{p.mean_decoded_pkts_per_hour:.3f},{p.std_decoded_pkts_per_hour:.3f},"
                  f"{p.replications}")
    return 0


def _cmd_crossover(args: argparse.Namespace) -> int:
    query = CrossoverQuery(
        lora_dr=_require(args, "lora_dr").upper(),
        lorae_dr=_require(args, "lorae_dr").upper(),
        payload_bytes=int(_require(args, "payload")),
        region=_resolve(args, "region", "EU868"),
    )
    result = find_crossover(query, _sweep_spec(args, (query.lora_dr, query.lorae_dr)))
    print(f"crossover_pkts_h={result.load_pkts_per_hour:.1f} "
          f"lora_dr={query.lora_dr} lorae_dr={query.lorae_dr} "
          f"payload_B={query.payload_bytes}")
    return 0


def _cmd_capacity(args: argparse.Namespace) -> int:
    region = _resolve(args, "region", "EU868")
    dr = _require(args, "dr").upper()
    payload = int(_require(args, "payload"))
    if _resolve(args, "devices") is None and _resolve(args, "devices_log") is None:
        args.devices = ",".join(map(str, default_capacity_counts(region, dr, payload)))
    spec = _sweep_spec(args, (dr,))
    points = aggregate(spec, sweep(spec))
    peak = peak_point(points)
    capacity = aggregate_capacity(region, dr, peak.offered_pkts_per_hour)
    print(f"region={region} dr={dr} payload_B={payload} "
          f"peak_devices={peak.devices} "
          f"per_channel_peak_pkts_h={peak.offered_pkts_per_hour:.1f} "
          f"peak_goodput_B_h={peak.mean_goodput_bytes_per_hour:.1f} "
          f"aggregate_capacity_pkts_h={capacity:.1f}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--region", help="regulatory region (default EU868)")


def _add_sweep_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--devices", help="comma-separated device counts")
    parser.add_argument("--devices-log", dest="devices_log",
                        help="log-spaced device counts as lo:hi:n")
    parser.add_argument("--horizon-ms", dest="horizon_ms", type=int,
                        help="simulated horizon in ms (default 4 h)")
    parser.add_argument("--replications", type=int, help="seeds per point (default 3)")
    parser.add_argument("--seed", type=int, help="master seed (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorae-sim",
        description="LoRa / LoRa-E uplink capacity simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="dump channel plans and timing figures as CSV")
    _add_common(p)
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("toa", help="airtime, fragment count and max rate")
    _add_common(p)
    p.add_argument("--dr", help="data rate alias, e.g. DR8")
    p.add_argument("--payload", help="payload sizes in bytes, comma-separated")
    p.set_defaults(func=_cmd_toa)

    p = sub.add_parser("sweep", help="goodput vs device count campaign")
    _add_common(p)
    p.add_argument("--dr", help="data rate aliases, comma-separated")
    p.add_argument("--payload", help="payload sizes in bytes, comma-separated")
    _add_sweep_options(p)
    p.add_argument("--out", help="per-run results CSV path")
    p.add_argument("--aggregate-out", dest="aggregate_out", help="aggregate CSV path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("crossover", help="load where LoRa-E goodput passes LoRa")
    _add_common(p)
    p.add_argument("--lora-dr", dest="lora_dr", help="LoRa data rate (DR0..DR5)")
    p.add_argument("--lorae-dr", dest="lorae_dr", help="LoRa-E data rate (DR8 or DR9)")
    p.add_argument("--payload", help="payload size in bytes")
    _add_sweep_options(p)
    p.set_defaults(func=_cmd_crossover)

    p = sub.add_parser("capacity", help="network-wide peak capacity for one DR")
    _add_common(p)
    p.add_argument("--dr", help="data rate alias")
    p.add_argument("--payload", help="payload size in bytes")
    _add_sweep_options(p)
    p.set_defaults(func=_cmd_capacity)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.config_values = _read_config(args.config) if args.config else {}
        return args.func(args)
    except CrossoverNotFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CliError, ValueError, LookupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
