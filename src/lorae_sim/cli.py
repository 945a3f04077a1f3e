"""Command-line front end.

Subcommands: ``params`` (channel-plan and timing table), ``toa`` (airtime
calculator), ``sweep`` (goodput vs device count), ``crossover`` (LoRa vs
LoRa-E goodput crossing load) and ``capacity`` (network-wide peak).

Each option is declared once, with its type.  A flat ``key = value`` config
file (``--config``) names long options by key: each line becomes
``--key=value`` ahead of the command-line flags, so flags override file
values, and a key that only another subcommand takes is ignored.  The
file is read as UTF-8.  ``main`` alone sets the exit status: 1 when no
crossover is bracketed, 2 on any other error and 0 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path
from typing import NoReturn, Sequence

from . import params
from .experiments import (AGGREGATE_COLUMNS, CrossoverNotFound, SweepSpec,
                          aggregate, aggregate_capacity, aggregate_row, csv_text,
                          default_capacity_counts, emit, emit_aggregate, emit_results,
                          find_crossover, log_spaced_counts, peak_point, sweep)
from .params import dr_profile, regional_plan

# Run options whose defaults are SweepSpec's; only those given are passed on.
_RUN_OPTIONS = {"horizon_ms": ("--horizon-ms", "simulated horizon in ms"),
                "replications": ("--replications", "seeds per point"),
                "master_seed": ("--seed", "master seed")}


class _Parser(argparse.ArgumentParser):
    """Raises every usage error as ``ArgumentError`` instead of exiting.

    ``exit_on_error=False`` alone still exits on a missing required option
    or an unrecognised flag (Python 3.11), so ``error`` raises instead.
    """

    def error(self, message: str) -> NoReturn:
        raise argparse.ArgumentError(None, message)


def _split_list(text: str, what: str) -> list[str]:
    """The stripped, non-empty parts of a comma-separated option value."""
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}")
    return parts


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in _split_list(text, "integers"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _log_counts(text: str) -> tuple[int, ...]:
    try:
        lo, hi, n = (int(part) for part in text.split(":"))
        return log_spaced_counts(lo, hi, n)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected lo:hi:n with 1 <= lo <= hi and n >= 1, got {text!r}") from None


def _dr_list(text: str) -> tuple[str, ...]:
    return tuple(_split_list(text.upper(), "data rate aliases"))


def _sweep_spec(args: argparse.Namespace, dr_aliases: tuple[str, ...],
                payload_bytes: tuple[int, ...]) -> SweepSpec:
    if args.devices is None:
        raise ValueError("missing required option --devices or --devices-log")
    given = {dest: value for dest, value in vars(args).items() if dest in _RUN_OPTIONS}
    return SweepSpec(args.region, dr_aliases, payload_bytes, args.devices, **given)


def _cmd_params(args: argparse.Namespace) -> None:
    rows = params.provenance_rows()
    if args.region is not None:
        rows = [row for row in rows if row[0] == args.region]   # column 0: region
        if not rows:
            raise ValueError(f"unknown region {args.region!r}")
    if args.out is None:
        print(csv_text(params.PROVENANCE_COLUMNS, rows), end="")
    else:
        emit(args.out, params.PROVENANCE_COLUMNS, rows)


def _cmd_toa(args: argparse.Namespace) -> None:
    profile = dr_profile(args.region, args.dr)
    plan = regional_plan(args.region, args.dr)
    for payload in args.payload:
        toa = params.time_on_air(profile, payload)
        frags = (params.lorae_fragment_count(profile, payload)
                 if profile.family == params.LORA_E else 0)
        rate = params.max_packet_rate(plan, toa)
        print(f"region={args.region} dr={args.dr} payload_B={payload} family={profile.family} "
              f"toa_ms={toa:.3f} fragments={frags} max_rate_pkts_h={rate:.3f}")


def _cmd_sweep(args: argparse.Namespace) -> None:
    spec = _sweep_spec(args, args.dr, args.payload)
    results = sweep(spec)
    points = aggregate(results)
    if args.out is not None:
        emit_results(results, args.out)
        print(f"wrote {len(results)} rows to {args.out}")
    if args.aggregate_out is not None:
        emit_aggregate(points, args.aggregate_out)
        print(f"wrote {len(points)} aggregate points to {args.aggregate_out}")
    if args.out is None and args.aggregate_out is None:
        print(csv_text(AGGREGATE_COLUMNS, map(aggregate_row, points)), end="")


def _cmd_crossover(args: argparse.Namespace) -> None:
    load = find_crossover(_sweep_spec(args, (args.lora_dr, args.lorae_dr), (args.payload,)))
    print(f"crossover_pkts_h={load:.1f} "
          f"lora_dr={args.lora_dr} lorae_dr={args.lorae_dr} "
          f"payload_B={args.payload}")


def _cmd_capacity(args: argparse.Namespace) -> None:
    if args.devices is None:
        args.devices = default_capacity_counts(args.region, args.dr)
    spec = _sweep_spec(args, (args.dr,), (args.payload,))
    points = aggregate(sweep(spec))
    peak = peak_point(points)
    capacity = aggregate_capacity(args.region, args.dr, peak.offered_pkts_per_hour)
    print(f"region={args.region} dr={args.dr} payload_B={args.payload} "
          f"peak_devices={peak.devices} "
          f"per_channel_peak_pkts_h={peak.offered_pkts_per_hour:.1f} "
          f"peak_goodput_B_h={peak.mean_goodput_bytes_per_hour:.1f} "
          f"aggregate_capacity_pkts_h={capacity:.1f}")


def _add_sweep_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--devices", type=_int_list, help="comma-separated device counts")
    parser.add_argument("--devices-log", dest="devices", type=_log_counts,
                        metavar="LO:HI:N", help="log-spaced device counts")
    defaults = {field.name: field.default for field in fields(SweepSpec)}
    for dest, (flag, what) in _RUN_OPTIONS.items():
        parser.add_argument(flag, dest=dest, type=int, default=argparse.SUPPRESS,
                            metavar=flag[2:].upper(), help=f"{what} (default {defaults[dest]})")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The CLI parser and its subcommand parsers by name."""
    parser = _Parser(prog="lorae-sim",
                     description="LoRa / LoRa-E uplink capacity simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, func, region: str | None = params.EU868):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="flat key = value file of long options")
        p.add_argument("--region", type=str.upper, default=region,
                       help=f"regulatory region (default {region or 'all'})")
        p.set_defaults(func=func)
        return p

    p = command("params", "dump channel plans and timing figures as CSV", _cmd_params,
                region=None)
    p.add_argument("--out", help="output CSV path (default stdout)")

    p = command("toa", "airtime, fragment count and max rate", _cmd_toa)
    p.add_argument("--dr", type=str.upper, required=True, help="data rate alias, e.g. DR8")
    p.add_argument("--payload", type=_int_list, required=True,
                   help="payload sizes in bytes, comma-separated")

    p = command("sweep", "goodput vs device count campaign", _cmd_sweep)
    p.add_argument("--dr", type=_dr_list, required=True,
                   help="data rate aliases, comma-separated")
    p.add_argument("--payload", type=_int_list, required=True,
                   help="payload sizes in bytes, comma-separated")
    _add_sweep_options(p)
    p.add_argument("--out", help="per-run results CSV path")
    p.add_argument("--aggregate-out", help="aggregate CSV path")

    p = command("crossover", "load where LoRa-E goodput passes LoRa", _cmd_crossover)
    p.add_argument("--lora-dr", type=str.upper, required=True,
                   help="LoRa data rate alias of the region")
    p.add_argument("--lorae-dr", type=str.upper, required=True,
                   help="LoRa-E data rate alias of the region")
    p.add_argument("--payload", type=int, required=True, help="payload size in bytes")
    _add_sweep_options(p)

    p = command("capacity", "network-wide peak capacity for one DR", _cmd_capacity)
    p.add_argument("--dr", type=str.upper, required=True, help="data rate alias")
    p.add_argument("--payload", type=int, required=True, help="payload size in bytes")
    _add_sweep_options(p)
    return parser, sub.choices


def _config_keys(parser: argparse.ArgumentParser) -> set[str]:
    """Config keys a subcommand takes: its long value options but --config."""
    return {option[2:].replace("-", "_") for action in parser._actions
            if action.nargs != 0 and action.dest != "config"
            for option in action.option_strings if option.startswith("--")}


def _with_config(commands: dict[str, argparse.ArgumentParser], argv: list[str]) -> list[str]:
    """``argv`` with its --config file's lines as flags ahead of its own."""
    if not argv or argv[0] not in commands:
        return argv
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    takes = _config_keys(commands[argv[0]])
    known = set().union(*map(_config_keys, commands.values()))
    flags = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in takes:
            flags.append(f"--{key.replace('_', '-')}={value}")
    return [argv[0], *flags, *argv[1:]]


def main(argv: Sequence[str] | None = None) -> int:
    parser, commands = build_parser()
    try:
        args = parser.parse_args(
            _with_config(commands, list(sys.argv[1:] if argv is None else argv)))
        args.func(args)
        return 0
    except CrossoverNotFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (argparse.ArgumentError, ValueError, LookupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
