"""Command-line interface: subcommands, config files, exit codes."""

from __future__ import annotations

import pytest

from lorae_sim.cli import main


def test_params_subcommand(capsys):
    assert main(["params", "--region", "EU868"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("region,dr,family")
    assert len(lines) == 1 + 10   # 6 LoRa + 4 LoRa-E rows
    assert any(line.startswith("EU868,DR8,LORA_E") for line in lines)


def test_params_to_file(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["params", "--out", str(out)]) == 0
    assert out.read_text().count("\n") == 1 + 12


def test_params_stdout_equals_out_file(tmp_path, capsys):
    assert main(["params"]) == 0
    out = tmp_path / "table.csv"
    assert main(["params", "--out", str(out)]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_params_unknown_region_fails(capsys):
    assert main(["params", "--region", "MARS"]) == 2
    assert "error" in capsys.readouterr().err


def test_toa_subcommand(capsys):
    assert main(["toa", "--dr", "DR8", "--payload", "10,50"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "toa_ms=1337.000" in out[0] and "fragments=13" in out[0]
    assert "toa_ms=3337.000" in out[1] and "max_rate_pkts_h=10.788" in out[1]


def test_toa_missing_option_fails(capsys):
    assert main(["toa", "--dr", "DR8"]) == 2
    assert "--payload" in capsys.readouterr().err


def test_toa_bad_dr_fails(capsys):
    assert main(["toa", "--dr", "DR99", "--payload", "10"]) == 2
    assert "error" in capsys.readouterr().err


def test_sweep_stdout(capsys):
    assert main(["sweep", "--dr", "DR9", "--payload", "10", "--devices", "3,6",
                 "--horizon-ms", "3600000", "--replications", "2", "--seed", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("devices,dr,payload")
    assert len(lines) == 3
    assert lines[1].startswith("3,DR9,10,")


def test_sweep_outputs_and_config_override(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# campaign defaults\n"
        "region = EU868\n"
        "dr = DR9\n"
        "payload = 10\n"
        "devices = 3,6\n"
        "horizon_ms = 3600000\n"
        "replications = 1\n"
        "seed = 5\n")
    out = tmp_path / "rows.csv"
    agg = tmp_path / "agg.csv"
    assert main(["sweep", "--config", str(config), "--devices", "4",
                 "--out", str(out), "--aggregate-out", str(agg)]) == 0
    capsys.readouterr()
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 2                      # header + one point, one rep
    assert rows[1].startswith("4,DR9,10,")     # flag overrode devices=3,6
    assert agg.read_text().splitlines()[0] == "# xscale: log"


def test_sweep_stdout_equals_aggregate_csv_rows(tmp_path, capsys):
    argv = ["sweep", "--dr", "DR9", "--payload", "10", "--devices", "3,6",
            "--horizon-ms", "3600000", "--replications", "2", "--seed", "5"]
    assert main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    agg = tmp_path / "agg.csv"
    assert main(argv + ["--aggregate-out", str(agg)]) == 0
    table = [line for line in agg.read_text().splitlines() if not line.startswith("#")]
    assert printed == table
    assert len(table) == 3


def test_config_ignores_keys_of_other_subcommands(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("dr = DR9\npayload = 10\ndevices = 3\nlora_dr = DR0\n"
                      "horizon_ms = 600000\nreplications = 1\n")
    assert main(["sweep", "--config", str(config)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2 and lines[1].startswith("3,DR9,10,")


def test_config_bad_value_names_option(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("replications = x\n")
    assert main(["sweep", "--config", str(config), "--dr", "DR9",
                 "--payload", "10", "--devices", "3"]) == 2
    assert "--replications" in capsys.readouterr().err


def test_config_rejects_unknown_key(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("devise = 3\n")
    assert main(["sweep", "--config", str(config), "--dr", "DR9",
                 "--payload", "10"]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_config_rejects_malformed_line(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("devices\n")
    assert main(["sweep", "--config", str(config)]) == 2
    assert "key=value" in capsys.readouterr().err


def test_devices_log_range(capsys):
    assert main(["sweep", "--dr", "DR9", "--payload", "10", "--devices-log",
                 "2:8:3", "--horizon-ms", "1800000", "--replications", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["2", "4", "8"]


def test_crossover_not_found_exits_1(capsys):
    assert main(["crossover", "--lora-dr", "DR0", "--lorae-dr", "DR8",
                 "--payload", "10", "--devices", "20,60",
                 "--horizon-ms", "3600000", "--replications", "1"]) == 1
    assert "no LoRa/LoRa-E goodput crossover" in capsys.readouterr().err


def test_capacity_subcommand(capsys):
    assert main(["capacity", "--dr", "DR0", "--payload", "10", "--devices",
                 "30,50,70", "--horizon-ms", "7200000", "--replications", "2",
                 "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "aggregate_capacity_pkts_h=" in out
    assert "peak_devices=" in out


def test_invalid_devices_fails(capsys):
    assert main(["sweep", "--dr", "DR9", "--payload", "10",
                 "--devices", "a,b"]) == 2
    assert "integers" in capsys.readouterr().err
