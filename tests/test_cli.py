from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import traceback
from datetime import datetime, timezone
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridcarbon import cli, ingest, yamlscan
from gridcarbon.cli import CEF_TABLE_ENV, main
from gridcarbon.errors import GridCarbonError
from gridcarbon.fixtures import write_fixture_csvs
from gridcarbon.grid import GridMix
from gridcarbon.ingest import RegionDataset, load_region_csv

import reference_emit
import reference_labels
from test_scenarios import _BAD as YAML_BAD_SCALARS, yaml_documents

TOY_CSV = "timestamp,wind,coal\n2022-06-01T00:00:00Z,500,500\n"

SIGNAL_CSV = (
    "timestamp,ci_g_per_kwh\n"
    "2022-06-01T00:00:00Z,100\n"
    "2022-06-01T01:00:00Z,50\n"
    "2022-06-01T02:00:00Z,200\n"
)


@pytest.fixture()
def toy_csv(tmp_path: Path) -> Path:
    path = tmp_path / "toy.csv"
    path.write_text(TOY_CSV, encoding="utf-8")
    return path


def _run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def _records(output: str) -> list[dict]:
    return [json.loads(line) for line in output.splitlines()]


# --- ci ------------------------------------------------------------------------

def test_ci_toy_grid(capsys, toy_csv: Path) -> None:
    code, out = _run(capsys, "ci", "--mix", str(toy_csv))
    assert code == 0
    records = _records(out)
    assert records[0]["ci_g_per_kwh"] == 500.0
    assert records[0]["region"] == "toy"
    assert records[-1]["timestamp"] == "aggregate"
    assert records[-1]["ci_g_per_kwh"] == 500.0
    assert "residual_ci_g_per_kwh" not in records[0]


def test_ci_contracts_none_matches_default(capsys, toy_csv: Path) -> None:
    _, plain = _run(capsys, "ci", "--mix", str(toy_csv))
    _, none = _run(capsys, "ci", "--mix", str(toy_csv), "--contracts", "none")
    assert none == plain


def test_ci_all_solar_wind(capsys, toy_csv: Path) -> None:
    code, out = _run(capsys, "ci", "--mix", str(toy_csv), "--contracts", "all-solar-wind")
    assert code == 0
    records = _records(out)
    assert records[0]["residual_ci_g_per_kwh"] == 1000.0
    assert records[-1]["residual_ci_g_per_kwh"] == 1000.0


def test_ci_fractional_contracts(capsys, toy_csv: Path) -> None:
    code, out = _run(capsys, "ci", "--mix", str(toy_csv), "--contracts", "solar-wind:0.5")
    assert code == 0
    expected = float(format(500_000.0 / 750.0, ".6g"))
    assert _records(out)[0]["residual_ci_g_per_kwh"] == expected


def test_ci_contracts_yaml(capsys, tmp_path: Path, toy_csv: Path) -> None:
    contracts = tmp_path / "contracts.yaml"
    contracts.write_text(
        "- {id: w, buyer: c, kind: financial, source: wind, energy_mwh: 250}\n",
        encoding="utf-8",
    )
    code, out = _run(capsys, "ci", "--mix", str(toy_csv), "--contracts", str(contracts))
    assert code == 0
    expected = float(format(500_000.0 / 750.0, ".6g"))
    assert _records(out)[0]["residual_ci_g_per_kwh"] == expected


# --- output contract --------------------------------------------------------------

def test_reruns_are_byte_identical(capsys, toy_csv: Path) -> None:
    _, first = _run(capsys, "ci", "--mix", str(toy_csv), "--contracts", "solar-wind:0.3")
    _, second = _run(capsys, "ci", "--mix", str(toy_csv), "--contracts", "solar-wind:0.3")
    assert first == second
    _, first_csv = _run(capsys, "scenario", "residential-case-2", "--format", "csv")
    _, second_csv = _run(capsys, "scenario", "residential-case-2", "--format", "csv")
    assert first_csv == second_csv


def test_out_file_matches_stdout(capsys, tmp_path: Path, toy_csv: Path) -> None:
    _, stdout = _run(capsys, "ci", "--mix", str(toy_csv))
    out_path = tmp_path / "report.jsonl"
    code, _ = _run(capsys, "ci", "--mix", str(toy_csv), "--out", str(out_path))
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == stdout


def test_csv_format_parses(capsys, toy_csv: Path) -> None:
    code, out = _run(capsys, "ci", "--mix", str(toy_csv), "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["ci_g_per_kwh"] == "500"
    assert rows[-1]["timestamp"] == "aggregate"


def test_floats_are_six_significant_digits(capsys, toy_csv: Path) -> None:
    _, out = _run(capsys, "ci", "--mix", str(toy_csv), "--contracts", "solar-wind:0.7")
    value = _records(out)[0]["residual_ci_g_per_kwh"]
    assert value == 769.231  # 500000/650 shortened to 6 significant digits


# --- scenario / attribute -----------------------------------------------------------

def test_scenario_list(capsys) -> None:
    code, out = _run(capsys, "scenario", "--list")
    assert code == 0
    names = [r["name"] for r in _records(out)]
    assert names == sorted(names)
    assert len(names) == 6


def test_scenario_builtin_records(capsys) -> None:
    code, out = _run(capsys, "scenario", "residential-case-2")
    assert code == 0
    records = _records(out)
    by_kind = {}
    for record in records:
        by_kind.setdefault(record["record"], []).append(record)
    consumers = {r["id"]: r for r in by_kind["consumer"]}
    assert consumers["H1"]["location_cfe_kwh"] == 10.0002
    assert consumers["H2"]["market_cfe_kwh"] == 15.0
    assert by_kind["grid"][0]["double_counted_cfe_mwh"] == 0.01
    assert by_kind["region"][0]["ci_res_g_per_kwh"] == 500.0


def test_scenario_requires_name_or_file(capsys) -> None:
    code, _ = _run(capsys, "scenario")
    assert code == 1


def test_scenario_invalid_file_names_field(capsys, tmp_path: Path) -> None:
    bad = tmp_path / "bad.yaml"
    bad.write_text("regions: {}\nconsumers: []\n", encoding="utf-8")
    code = main(["scenario", "--file", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert "regions" in captured.err


def test_scenario_rejects_per_step_energy(capsys, tmp_path: Path) -> None:
    """A scenario covers one step; a list is not read at its first step."""
    scenario = tmp_path / "series.yaml"
    scenario.write_text(
        "regions: {r: {generation: {wind: 500, coal: 500}}}\n"
        "consumers: [{id: C1, region: r, demand_kwh: 100000}]\n"
        "contracts: [{id: k, buyer: C1, kind: financial, source: wind, region: r,"
        " energy_mwh: [10, 90, 50]}]\n",
        encoding="utf-8",
    )
    err = _single_error_line(capsys, "scenario", "--file", str(scenario))
    assert "contracts[0].energy_mwh: expected a number" in err


def test_scenario_rejects_infinite_energy(capsys, tmp_path: Path) -> None:
    """An infinite contract is a field error, not a NaN claim in the output."""
    scenario = tmp_path / "infinite.yaml"
    scenario.write_text(
        "regions: {r: {generation: {solar: 20, coal: 980}}}\n"
        "consumers: [{id: C1, region: r, demand_kwh: 20000, method: market_based}]\n"
        "contracts: [{id: k, buyer: C1, kind: financial, source: solar, region: r,"
        " energy_mwh: .inf}]\n",
        encoding="utf-8",
    )
    err = _single_error_line(capsys, "scenario", "--file", str(scenario))
    assert err == "error: contracts[0].energy_mwh: must not be NaN or infinite, got inf\n"


def test_attribute_declared_methods(capsys) -> None:
    code, out = _run(capsys, "attribute", "commercial-case-2")
    assert code == 0
    rows = {r["id"]: r for r in _records(out)}
    assert rows["C1"]["method"] == "market_based"
    assert rows["C1"]["ci_g_per_kwh"] == 0.0
    assert rows["H1"]["ci_g_per_kwh"] == 489.796


def test_attribute_forced_method(capsys) -> None:
    code, out = _run(capsys, "attribute", "commercial-case-2", "--method", "location_based")
    assert code == 0
    rows = {r["id"]: r for r in _records(out)}
    assert rows["C1"]["method"] == "location_based"
    assert rows["C1"]["ci_g_per_kwh"] == rows["H1"]["ci_g_per_kwh"]


def test_attribute_from_file(capsys, tmp_path: Path) -> None:
    scenario = tmp_path / "mine.yaml"
    scenario.write_text(
        "regions: {r: {generation: {wind: 50, coal: 50}}}\n"
        "consumers: [{id: a, region: r, demand_kwh: 10}]\n",
        encoding="utf-8",
    )
    code, out = _run(capsys, "attribute", "--file", str(scenario))
    assert code == 0
    assert _records(out)[0]["ci_g_per_kwh"] == 500.0


# --- penetration / inflation ----------------------------------------------------------

@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("fixtures")
    assert main(["fixtures", "export", "--dir", str(directory), "--out", "-"]) == 0
    return directory


def test_fixtures_export_and_list(capsys, fixture_dir: Path) -> None:
    capsys.readouterr()
    names = sorted(path.stem for path in fixture_dir.glob("*.csv"))
    assert names == ["aurora", "boreal", "cinder", "duck-curve", "south-australia"]
    code, out = _run(capsys, "fixtures", "list")
    assert code == 0
    records = _records(out)
    assert {r["record"] for r in records} == {"scenario", "dataset"}


def test_penetration_fleet_files(capsys, fixture_dir: Path) -> None:
    capsys.readouterr()
    code, out = _run(
        capsys,
        "penetration",
        "--data",
        str(fixture_dir / "aurora.csv"),
        str(fixture_dir / "boreal.csv"),
        str(fixture_dir / "cinder.csv"),
    )
    assert code == 0
    records = _records(out)
    shares = {r["region"]: r["solar_wind_pct"] for r in records if r["record"] == "region"}
    assert shares == {"aurora": 10.0, "boreal": 30.0, "cinder": 50.0}
    cdf = [(r["solar_wind_pct"], r["cumulative_fraction"]) for r in records if r["record"] == "cdf"]
    assert cdf[0][0] == 10.0
    assert cdf[-1][1] == 1.0


def test_penetration_directory(capsys, fixture_dir: Path) -> None:
    capsys.readouterr()
    code, out = _run(capsys, "penetration", "--data", str(fixture_dir))
    assert code == 0
    records = _records(out)
    fractions = [r["cumulative_fraction"] for r in records if r["record"] == "cdf"]
    assert fractions == sorted(fractions)
    assert fractions[-1] == 1.0


def test_inflation_aggregate_fixture(capsys, fixture_dir: Path) -> None:
    capsys.readouterr()
    code, out = _run(
        capsys,
        "inflation",
        "--mix",
        str(fixture_dir / "south-australia.csv"),
        "--fraction",
        "1.0",
    )
    assert code == 0
    record = _records(out)[0]
    assert record["ci_g_per_kwh"] == pytest.approx(125.67, rel=1e-6)
    assert record["residual_ci_g_per_kwh"] == pytest.approx(370.22, rel=0.01)
    assert record["inflation_pct"] == pytest.approx(194.0, abs=2.0)


@pytest.mark.parametrize(
    "argv",
    [
        ["residual", "--mix", "duck-curve.csv", "--fraction", "1"],
        ["inflation", "--mix", "duck-curve.csv", "--fraction", "1"],
        ["penetration", "--data", "."],
    ],
    ids=["residual", "inflation", "penetration"],
)
def test_unknown_category_is_an_error(capsys, fixture_dir: Path, argv) -> None:
    argv = [str(fixture_dir / arg) if arg in ("duck-curve.csv", ".") else arg for arg in argv]
    err = _single_error_line(capsys, *argv, "--categories", "sun")
    assert "unknown source category 'sun'" in err


# --- schedule ---------------------------------------------------------------------------

def test_schedule_bare_signal(capsys, tmp_path: Path) -> None:
    signal = tmp_path / "signal.csv"
    signal.write_text(SIGNAL_CSV, encoding="utf-8")
    code, out = _run(capsys, "schedule", "--signal", str(signal), "--duration", "1")
    assert code == 0
    record = _records(out)[0]
    assert record["hours"] == "1"
    assert record["reported_ci_avg_g_per_kwh"] == 50.0
    assert record["discrepancy_pct"] == 0.0


def test_schedule_mix_signal_reads_the_file_once(capsys, monkeypatch, fixture_dir: Path) -> None:
    """``schedule --signal <mix CSV>`` decides from the header line that the
    file is not a bare signal, so only the mix read takes its text."""
    reads = []
    read_text = ingest._read_text
    monkeypatch.setattr(ingest, "_read_text", lambda path: reads.append(path) or read_text(path))
    mix = fixture_dir / "duck-curve.csv"
    code, _ = _run(capsys, "schedule", "--signal", str(mix), "--duration", "1")
    assert code == 0
    assert reads == [mix]


def test_schedule_worst_policy_and_window(capsys, tmp_path: Path) -> None:
    signal = tmp_path / "signal.csv"
    signal.write_text(SIGNAL_CSV, encoding="utf-8")
    code, out = _run(
        capsys,
        "schedule", "--signal", str(signal), "--duration", "1",
        "--policy", "worst_window", "--window", "0:1",
    )
    assert code == 0
    assert _records(out)[0]["hours"] == "0"


def test_schedule_residual_fraction(capsys, fixture_dir: Path) -> None:
    code, out = _run(
        capsys,
        "schedule",
        "--signal", str(fixture_dir / "duck-curve.csv"),
        "--residual-fraction", "1.0",
        "--duration", "1",
        "--energy-per-hour", "7000",
    )
    assert code == 0
    record = _records(out)[0]
    assert record["hours"] == "12"
    assert record["reported_ci_avg_g_per_kwh"] == 121.0
    assert record["actual_ci_avg_g_per_kwh"] == 582.0


def test_schedule_two_signals(capsys, tmp_path: Path) -> None:
    reported = tmp_path / "reported.csv"
    reported.write_text(SIGNAL_CSV, encoding="utf-8")
    actual = tmp_path / "actual.csv"
    actual.write_text(
        "timestamp,ci_g_per_kwh\n"
        "2022-06-01T00:00:00Z,120\n"
        "2022-06-01T01:00:00Z,130\n"
        "2022-06-01T02:00:00Z,210\n",
        encoding="utf-8",
    )
    code, out = _run(
        capsys,
        "schedule", "--signal", str(reported), "--actual", str(actual), "--duration", "1",
    )
    assert code == 0
    record = _records(out)[0]
    assert record["actual_ci_avg_g_per_kwh"] == 130.0
    assert record["difference_g_per_kwh"] == 80.0


def test_schedule_actual_and_residual_fraction_conflict(capsys, tmp_path: Path) -> None:
    signal = tmp_path / "signal.csv"
    signal.write_text(SIGNAL_CSV, encoding="utf-8")
    err = _single_error_line(
        capsys,
        "schedule", "--signal", str(signal), "--actual", str(signal),
        "--residual-fraction", "0.5", "--duration", "1",
    )
    assert "--actual" in err and "--residual-fraction" in err


def test_schedule_residual_fraction_needs_mix_csv(capsys, tmp_path: Path) -> None:
    signal = tmp_path / "signal.csv"
    signal.write_text(SIGNAL_CSV, encoding="utf-8")
    err = _single_error_line(
        capsys, "schedule", "--signal", str(signal), "--residual-fraction", "0.5", "--duration", "1"
    )
    assert "--residual-fraction needs a mix CSV" in err


def test_schedule_residual_fraction_uses_cef_table(capsys, tmp_path: Path, fixture_dir: Path) -> None:
    table = tmp_path / "cef.yaml"
    table.write_text("gas: 900\n", encoding="utf-8")
    code, out = _run(
        capsys,
        "schedule",
        "--signal", str(fixture_dir / "duck-curve.csv"),
        "--residual-fraction", "1.0",
        "--duration", "1",
        "--cef", str(table),
    )
    assert code == 0
    record = _records(out)[0]
    assert record["hours"] == "12"
    assert record["reported_ci_avg_g_per_kwh"] == 190.864
    assert record["actual_ci_avg_g_per_kwh"] == 918.039


def test_schedule_residual_fraction_rejects_published_basis(capsys, fixture_dir: Path) -> None:
    err = _single_error_line(
        capsys,
        "schedule", "--signal", str(fixture_dir / "duck-curve.csv"),
        "--residual-fraction", "1.0", "--duration", "1", "--basis", "published",
    )
    assert "--residual-fraction prices on emission factors; use --basis cef" in err


@pytest.mark.parametrize("energy", ["nan", "inf"])
def test_schedule_rejects_non_finite_energy(capsys, tmp_path: Path, energy: str) -> None:
    signal = tmp_path / "signal.csv"
    signal.write_text(SIGNAL_CSV, encoding="utf-8")
    err = _single_error_line(
        capsys, "schedule", "--signal", str(signal), "--duration", "1", "--energy-per-hour", energy
    )
    assert "energy_per_hour_kwh must be a finite number >= 0" in err


def test_schedule_infinite_discrepancy_is_an_error(capsys, tmp_path: Path) -> None:
    """JSON has no Infinity: a zero reported average against a nonzero
    actual one is an error naming the field, not an invalid record."""
    reported = tmp_path / "reported.csv"
    reported.write_text("timestamp,ci_g_per_kwh\n2022-06-01T00:00:00Z,0\n", encoding="utf-8")
    actual = tmp_path / "actual.csv"
    actual.write_text("timestamp,ci_g_per_kwh\n2022-06-01T00:00:00Z,10\n", encoding="utf-8")
    err = _single_error_line(
        capsys, "schedule", "--signal", str(reported), "--actual", str(actual), "--duration", "1"
    )
    assert "discrepancy_pct is inf" in err


def test_csv_format_rejects_non_finite_like_json(capsys, tmp_path: Path) -> None:
    """CSV output has no inf either: both formats give the same error line."""
    reported = tmp_path / "reported.csv"
    reported.write_text("timestamp,ci_g_per_kwh\n2022-06-01T00:00:00Z,0\n", encoding="utf-8")
    actual = tmp_path / "actual.csv"
    actual.write_text("timestamp,ci_g_per_kwh\n2022-06-01T00:00:00Z,10\n", encoding="utf-8")
    argv = ("schedule", "--signal", str(reported), "--actual", str(actual), "--duration", "1")
    csv_err = _single_error_line(capsys, *argv, "--format", "csv")
    assert csv_err == _single_error_line(capsys, *argv, "--format", "json-records")
    assert "discrepancy_pct is inf" in csv_err
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("start", ["2", "-1"])
def test_schedule_fixed_start_outside_signal(capsys, tmp_path: Path, start: str) -> None:
    signal = tmp_path / "signal.csv"
    signal.write_text(SIGNAL_CSV, encoding="utf-8")
    err = _single_error_line(
        capsys, "schedule", "--signal", str(signal), "--duration", "2", "--policy", start
    )
    assert f"fixed start {start} with duration 2 exceeds signal length 3" in err


def test_schedule_fixed_start_outside_window(capsys, tmp_path: Path) -> None:
    signal = tmp_path / "signal.csv"
    signal.write_text(SIGNAL_CSV, encoding="utf-8")
    err = _single_error_line(
        capsys, "schedule", "--signal", str(signal), "--duration", "1",
        "--policy", "2", "--window", "0:1",
    )
    assert "fixed start 2 outside start window (0, 1)" in err
    code, out = _run(
        capsys, "schedule", "--signal", str(signal), "--duration", "1",
        "--policy", "1", "--window", "0:1",
    )
    assert code == 0
    assert _records(out)[0]["hours"] == "1"


def test_schedule_fixed_start_non_contiguous(capsys, tmp_path: Path) -> None:
    signal = tmp_path / "signal.csv"
    signal.write_text(SIGNAL_CSV, encoding="utf-8")
    err = _single_error_line(
        capsys, "schedule", "--signal", str(signal), "--duration", "1",
        "--policy", "0", "--non-contiguous",
    )
    assert "fixed start 0 needs a contiguous load" in err


@pytest.mark.parametrize(
    ("rows", "message"),
    [
        ("2022-06-01T00:00:00Z,100\n2022-06-01T01:00:00Z\n", "expected 2 cells, got 1 (row 3"),
        ("2022-06-01T00:00:00Z,nan\n", "NaN is not a valid value (row 2, column 'ci_g_per_kwh')"),
        ("2022-06-01T00:00:00Z,-5\n", "value must be >= 0.0, got -5.0 (row 2"),
        ("2022-06-01T00:00:00Z,inf\n", "value must be finite, got inf (row 2"),
        ("2022-06-01T00:00:00Z,abc\n", "invalid number 'abc' (row 2"),
        ("01/06/2022,100\n", "invalid timestamp '01/06/2022'"),
        ("2022-06-01T00:00:00Z,1\n2022-06-01T00:00:00Z,2\n", "duplicate timestamp"),
    ],
    ids=["short-row", "nan", "negative", "inf", "not-a-number", "timestamp", "duplicate"],
)
@pytest.mark.parametrize("option", ["--signal", "--actual"])
def test_schedule_bare_signal_rejects_bad_rows(
    capsys, tmp_path: Path, rows: str, message: str, option: str
) -> None:
    good = tmp_path / "good.csv"
    good.write_text(SIGNAL_CSV, encoding="utf-8")
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,ci_g_per_kwh\n" + rows, encoding="utf-8")
    files = {"--signal": good, "--actual": good, option: bad}
    err = _single_error_line(
        capsys, "schedule", "--signal", str(files["--signal"]),
        "--actual", str(files["--actual"]), "--duration", "1",
    )
    assert err.startswith(f"error: {bad}: ")
    assert message in err


def test_schedule_bare_signal_sorted_by_timestamp(capsys, tmp_path: Path) -> None:
    lines = SIGNAL_CSV.splitlines()
    signal = tmp_path / "signal.csv"
    signal.write_text("\n".join([lines[0], *reversed(lines[1:])]) + "\n", encoding="utf-8")
    code, out = _run(capsys, "schedule", "--signal", str(signal), "--duration", "1")
    assert code == 0
    assert _records(out)[0]["hours"] == "1"
    assert _records(out)[0]["reported_ci_avg_g_per_kwh"] == 50.0


@pytest.mark.parametrize("policy", ["cheapest", "--3", "-", "+3"])
def test_schedule_unknown_policy(capsys, tmp_path: Path, policy: str) -> None:
    signal = tmp_path / "signal.csv"
    signal.write_text(SIGNAL_CSV, encoding="utf-8")
    err = _single_error_line(
        capsys, "schedule", "--signal", str(signal), "--duration", "1", f"--policy={policy}"
    )
    assert "policy must be 'best_window', 'worst_window' or a start index" in err


@pytest.mark.parametrize("window", ["5", "1:2:3", "a:1", ":"])
def test_schedule_malformed_window_names_the_option(capsys, tmp_path: Path, window: str) -> None:
    signal = tmp_path / "signal.csv"
    signal.write_text(SIGNAL_CSV, encoding="utf-8")
    err = _single_error_line(
        capsys, "schedule", "--signal", str(signal), "--duration", "1", "--window", window
    )
    assert err == f"error: --window: expected LO:HI, two integer start indices, got {window!r}\n"


@pytest.mark.parametrize("fraction", ["x", "", "0.5:1"])
def test_ci_malformed_contract_fraction_names_the_option(capsys, toy_csv: Path, fraction: str) -> None:
    err = _single_error_line(
        capsys, "ci", "--mix", str(toy_csv), "--contracts", f"solar-wind:{fraction}"
    )
    assert err == f"error: --contracts: expected a number after 'solar-wind:', got {fraction!r}\n"


# --- CEF overrides ------------------------------------------------------------------------

def test_cef_flag(capsys, tmp_path: Path, toy_csv: Path) -> None:
    table = tmp_path / "cef.yaml"
    table.write_text("coal: 800\n", encoding="utf-8")
    code, out = _run(capsys, "ci", "--mix", str(toy_csv), "--cef", str(table))
    assert code == 0
    assert _records(out)[0]["ci_g_per_kwh"] == 400.0


def test_cef_env_var(capsys, tmp_path: Path, toy_csv: Path, monkeypatch) -> None:
    table = tmp_path / "cef.yaml"
    table.write_text("coal: 600\n", encoding="utf-8")
    monkeypatch.setenv(CEF_TABLE_ENV, str(table))
    code, out = _run(capsys, "ci", "--mix", str(toy_csv))
    assert code == 0
    assert _records(out)[0]["ci_g_per_kwh"] == 300.0


def test_cef_flag_beats_env(capsys, tmp_path: Path, toy_csv: Path, monkeypatch) -> None:
    env_table = tmp_path / "env.yaml"
    env_table.write_text("coal: 600\n", encoding="utf-8")
    flag_table = tmp_path / "flag.yaml"
    flag_table.write_text("coal: 800\n", encoding="utf-8")
    monkeypatch.setenv(CEF_TABLE_ENV, str(env_table))
    _, out = _run(capsys, "ci", "--mix", str(toy_csv), "--cef", str(flag_table))
    assert _records(out)[0]["ci_g_per_kwh"] == 400.0


@pytest.mark.parametrize(
    ("value", "shown"),
    [(".nan", "nan"), (".inf", "inf"), ("-.inf", "-inf"), pytest.param("9" * 400, "inf", id="big-int")],
)
def test_cef_table_rejects_non_finite(capsys, tmp_path: Path, toy_csv: Path, value, shown) -> None:
    """A NaN factor is not mistaken for a non-zero one ("'solar' is not carbon-free")."""
    table = tmp_path / "cef.yaml"
    table.write_text(f"solar: {value}\n", encoding="utf-8")
    err = _single_error_line(
        capsys, "ci", "--mix", str(toy_csv), "--cef", str(table), "--contracts", "all-solar-wind"
    )
    assert err == f"error: CEF table {table}: solar: must not be NaN or infinite, got {shown}\n"


@pytest.mark.parametrize(
    "argv",
    [["scenario", "commercial-case-1"], ["attribute", "commercial-case-1"], ["fixtures", "list"]],
)
def test_cef_only_on_csv_subcommands(capsys, argv) -> None:
    """Subcommands that read no CSV have no --cef to ignore."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--cef", "x.yaml"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cef" in capsys.readouterr().err


# --- exit codes ------------------------------------------------------------------------------

def test_validation_error_exits_1(capsys, toy_csv: Path) -> None:
    code = main(["residual", "--mix", str(toy_csv), "--fraction", "1.5"])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err


def test_missing_file_exits_2(capsys, tmp_path: Path) -> None:
    code = main(["ci", "--mix", str(tmp_path / "nope.csv")])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["scenario", "residential-case-1"], 0),
        (["scenario", "does-not-exist"], 1),
        (["scenario", "--file", "does-not-exist.yaml"], 2),
    ],
)
def test_main_restores_the_collector(capsys, monkeypatch, enabled, argv, code) -> None:
    seen = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda *a: (seen.append(gc.isenabled()), emit(*a)))
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(argv) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == ([False] if code == 0 else [])
    capsys.readouterr()


# --- record emission --------------------------------------------------------------------------

_KEYS = st.sampled_from(["timestamp", "region", "ci_g_per_kwh", 'q"k', "b\\s", "a,b", "{x}", "é"])
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, 1e16, 9.9999995e-5, 123456.5, 1e-7, 1.7976931348623157e308])
_NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_STRINGS = st.text(st.sampled_from('ab"\\,\n\r\t é€😀{}'), max_size=5) | st.text(max_size=5)
_OTHERS = st.integers() | st.booleans() | st.none() | st.just("")


@st.composite
def _output_blocks(draw) -> list[dict]:
    """Blocks as the commands return them: every key maps to a constant or
    to a column of one length, of floats, of strings or of mixed values."""
    floats = st.floats(allow_nan=False, allow_infinity=False) | _EDGE_FLOATS
    if draw(st.booleans()):
        floats |= _NONFINITE
    kinds = [floats, _STRINGS, floats | _STRINGS | _OTHERS]
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.integers(0, 4))
        block = {}
        for key in draw(st.lists(_KEYS, min_size=1, max_size=5, unique=True)):
            values = draw(st.sampled_from(kinds))
            if draw(st.booleans()):
                block[key] = draw(values)
            else:
                block[key] = draw(st.lists(values, min_size=size, max_size=size).map(draw(st.sampled_from([list, tuple]))))
        blocks.append(block)
    return blocks


def _one_record_each(blocks: list[dict]) -> list[dict]:
    records = []
    for block in blocks:
        columns = [value for value in block.values() if isinstance(value, (list, tuple))]
        for i in range(len(columns[0]) if columns else 1):
            records.append({k: v[i] if isinstance(v, (list, tuple)) else v for k, v in block.items()})
    return records


def _emitted(emit, records, fmt: str) -> str:
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            emit(records, fmt, "-")
    except GridCarbonError as exc:
        return f"error: {exc}"
    return buffer.getvalue()


@pytest.mark.differential
@settings(deadline=None)
@given(blocks=_output_blocks(), fmt=st.sampled_from(["json-records", "csv"]))
@example(blocks=[{"region": "r"}, {"ci": [1.0, math.nan], "ci_res": (math.inf, 2.0)}], fmt="csv")
def test_emit_differential(blocks: list[dict], fmt: str) -> None:
    """The columnar encoder writes what the per-record one wrote, byte for
    byte, and names the same key for the first non-finite value."""
    records = cli.Records(*blocks)
    expected = _one_record_each(blocks)
    assert len(records) == len(expected)
    assert _emitted(cli._emit, records, fmt) == _emitted(reference_emit._emit, expected, fmt)


def test_unknown_builtin_exits_1(capsys) -> None:
    code = main(["scenario", "does-not-exist"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def _single_error_line(capsys, *argv: str) -> str:
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    return err


@pytest.mark.parametrize("loader", [yaml.SafeLoader, yamlscan._loader()])
@pytest.mark.parametrize("command", ["scenario", "ci"])
def test_malformed_yaml_is_one_error_line(
    capsys, tmp_path: Path, toy_csv: Path, monkeypatch, command, loader
) -> None:
    monkeypatch.setattr(yamlscan, "_YAML_LOADER", loader)
    bad = tmp_path / "bad.yaml"
    bad.write_text("bad: [unclosed\n", encoding="utf-8")
    if command == "scenario":
        argv = ("scenario", "--file", str(bad))
    else:
        argv = ("ci", "--mix", str(toy_csv), "--contracts", str(bad))
    err = _single_error_line(capsys, *argv)
    assert "line 1, column 6" in err


@pytest.mark.parametrize(
    ("command", "text", "exception"),
    [
        ("scenario", "name: !!bool maybe\n", "KeyError: 'maybe'"),
        ("attribute", "name: !!timestamp x\n", "AttributeError: "),
        ("cef", 'coal: !!int ""\n', "IndexError: "),
        ("contracts", "- {source: wind, energy_mwh: !!bool maybe}\n", "KeyError: 'maybe'"),
    ],
)
def test_tagged_yaml_scalar_is_one_error_line(
    capsys, tmp_path: Path, toy_csv: Path, command, text, exception
) -> None:
    bad = tmp_path / "tagged.yaml"
    bad.write_text(text, encoding="utf-8")
    argv = {
        "scenario": ("scenario", "--file", str(bad)),
        "attribute": ("attribute", "--file", str(bad)),
        "cef": ("ci", "--mix", str(toy_csv), "--cef", str(bad)),
        "contracts": ("ci", "--mix", str(toy_csv), "--contracts", str(bad)),
    }[command]
    err = _single_error_line(capsys, *argv)
    assert f"{bad}: cannot decode a YAML value: {exception}" in err


def test_scenario_generation_overflow_names_the_input(capsys, tmp_path: Path) -> None:
    scenario = tmp_path / "huge.yaml"
    scenario.write_text(
        "regions: {r: {generation: {coal: 1.0e+308, wind: 1}}}\n"
        "consumers: [{id: H1, region: r, demand_kwh: 20}]\n",
        encoding="utf-8",
    )
    err = _single_error_line(capsys, "scenario", "--file", str(scenario))
    assert err == "error: regions.r.generation: total generation or its MWh times CEF overflows\n"


@pytest.mark.parametrize("row", ["500,0,1e308", "1e308,1e308,1"], ids=["emissions", "total"])
@pytest.mark.parametrize(
    "argv",
    [
        ("ci", "--mix"),
        ("residual", "--fraction", "0.5", "--mix"),
        ("inflation", "--fraction", "0.5", "--mix"),
        ("schedule", "--duration", "1", "--signal"),
    ],
    ids=lambda argv: argv[0],
)
def test_csv_overflow_names_the_input(capsys, tmp_path: Path, argv, row: str) -> None:
    """A row whose total generation or MWh times CEF overflows is named by
    region and timestamp, not later as an infinite output field."""
    mix = tmp_path / "huge.csv"
    mix.write_text(
        "timestamp,wind,solar,coal\n"
        "2022-06-01T00:00:00Z,500,0,500\n"
        f"2022-06-01T01:00:00Z,{row}\n",
        encoding="utf-8",
    )
    err = _single_error_line(capsys, *argv, str(mix))
    assert err == "error: region 'huge': total generation or its emissions overflow at 2022-06-01T01:00:00Z\n"


def test_scenario_consumer_emissions_overflow_names_the_demand(capsys, tmp_path: Path) -> None:
    scenario = tmp_path / "huge.yaml"
    scenario.write_text(
        "regions: {r: {generation: {coal: 500, wind: 500}}}\n"
        "consumers: [{id: H1, region: r, demand_kwh: 20}, {id: C1, region: r, demand_kwh: 1.0e+308}]\n",
        encoding="utf-8",
    )
    err = _single_error_line(capsys, "scenario", "--file", str(scenario))
    assert err == "error: consumers[1].demand_kwh: emissions of consumer 'C1' overflow\n"


def test_empty_region_is_an_error(capsys, toy_csv: Path) -> None:
    """``--region ""`` is not read as "use the file stem"."""
    err = _single_error_line(capsys, "ci", "--mix", str(toy_csv), "--region", "")
    assert err == "error: region must not be empty\n"


@pytest.mark.parametrize("key", ["coall", "1"])
def test_scenario_unknown_cef_override_is_an_error(capsys, tmp_path: Path, key: str) -> None:
    """A scenario override is checked like a ``--cef`` table: a key that is
    not a category is an error, not a run on the default factor."""
    scenario = tmp_path / "typo.yaml"
    scenario.write_text(
        "regions: {r: {generation: {coal: 500, wind: 500}}}\n"
        "consumers: [{id: H1, region: r, demand_kwh: 20}]\n"
        f"cef_g_per_kwh: {{{key}: 5}}\n",
        encoding="utf-8",
    )
    err = _single_error_line(capsys, "scenario", "--file", str(scenario))
    assert err == f"error: cef_g_per_kwh.{key}: unknown source category\n"


@pytest.mark.parametrize("command", ["ci", "schedule"])
def test_unreadable_csv_row_is_one_error_line(capsys, tmp_path: Path, command: str) -> None:
    """A field longer than the csv reader's limit is one ``error:`` line
    naming the row, not a ``_csv.Error`` traceback; a bad row before it
    still comes first."""
    limit = csv.field_size_limit()
    columns, cells = ("wind,coal", "500,{}") if command == "ci" else ("ci_g_per_kwh", "{}")
    argv = ("ci", "--mix") if command == "ci" else ("schedule", "--duration", "1", "--signal")
    data = tmp_path / "long.csv"
    for first, error in [("5", f"unreadable row: field larger than field limit ({limit}) (row 3)"),
                         ("x", f"invalid number 'x' (row 2, column '{columns.split(',')[-1]}')")]:
        data.write_text(
            f"timestamp,{columns}\n2022-06-01T00:00:00Z,{cells.format(first)}\n"
            f"2022-06-01T01:00:00Z,{cells.format('9' * (limit + 1))}\n",
            encoding="utf-8",
        )
        assert _single_error_line(capsys, *argv, str(data)) == f"error: {data}: {error}\n"


def _child_env() -> dict[str, str]:
    """The environment of a CLI child process: this package on its path,
    and no CEF table from the environment."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop(CEF_TABLE_ENV, None)
    return env


DEEP_YAML = {"flow-sequence": "[" * 30_000, "flow-mapping": "{a: " * 30_000, "block-sequence": "- " * 30_000 + "x\n"}


@pytest.mark.parametrize("shape", DEEP_YAML)
@pytest.mark.parametrize("option", ["--file", "--cef", "--contracts"])
def test_deeply_nested_yaml_is_one_error_line(tmp_path: Path, toy_csv: Path, shape: str, option: str) -> None:
    """libyaml's composer would overflow the C stack on these (SIGSEGV, no
    output); the pure-Python loader stops with one error. Run in a child
    process, so that a crash fails this test rather than the test run."""
    deep = tmp_path / "deep.yaml"
    deep.write_text(DEEP_YAML[shape], encoding="utf-8")
    argv = {
        "--file": ["scenario", "--file", str(deep)],
        "--cef": ["ci", "--mix", str(toy_csv), "--cef", str(deep)],
        "--contracts": ["ci", "--mix", str(toy_csv), "--contracts", str(deep)],
    }[option]
    run = subprocess.run(
        [sys.executable, "-m", "gridcarbon.cli", *argv], capture_output=True, text=True, env=_child_env(), timeout=120
    )
    name = f"CEF table {deep}" if option == "--cef" else str(deep)
    assert (run.returncode, run.stdout) == (1, ""), run.stderr
    assert run.stderr.startswith(f"error: {name}: cannot decode a YAML value: RecursionError: "), run.stderr
    assert run.stderr.count("\n") == 1


def test_penetration_overflow_names_the_input(capsys, tmp_path: Path) -> None:
    data = tmp_path / "huge.csv"
    data.write_text(
        "timestamp,wind,coal\n2022-06-01T00:00:00Z,1e308,0\n2022-06-01T01:00:00Z,1e308,0\n",
        encoding="utf-8",
    )
    err = _single_error_line(capsys, "penetration", "--data", str(data))
    assert err == "error: region 'huge': total generation or its emissions overflow at 2022-06-01T01:00:00Z\n"


def test_schedule_energy_overflow_names_the_option(capsys, tmp_path: Path) -> None:
    signal = tmp_path / "signal.csv"
    signal.write_text(SIGNAL_CSV, encoding="utf-8")
    err = _single_error_line(
        capsys, "schedule", "--signal", str(signal), "--duration", "1", "--energy-per-hour", "1e307"
    )
    assert err == "error: energy_per_hour_kwh: emissions of the load overflow\n"


def test_contracts_yaml_not_a_list(capsys, tmp_path: Path, toy_csv: Path) -> None:
    contracts = tmp_path / "contracts.yaml"
    contracts.write_text("source: wind\nenergy_mwh: 250\n", encoding="utf-8")
    err = _single_error_line(capsys, "ci", "--mix", str(toy_csv), "--contracts", str(contracts))
    assert err == f"error: {contracts}: expected a YAML list of contracts\n"


@pytest.mark.parametrize(
    ("files", "categories", "message"),
    [
        (("empty", "bad"), "solar,wind", "{bad}: invalid number 'x' (row 2, column 'wind')"),
        (("good", "bad"), "solar,bogus", "{bad}: invalid number 'x' (row 2, column 'wind')"),
        (("good", "empty"), "solar,bogus", "unknown source category 'bogus'"),
        (("empty", "good"), "solar,wind", "dataset for region 'empty' has no generation"),
    ],
    ids=["no-generation-then-unparsable", "unknown-category-then-unparsable", "unknown-category", "no-generation"],
)
def test_penetration_reports_a_load_error_before_a_stat_error(capsys, tmp_path: Path, files, categories, message) -> None:
    """Files load one at a time, but a region's stat error still waits for
    every later file to load, as when all loaded first."""
    cells = {"empty": "0,0", "bad": "x,0", "good": "5,5"}
    paths = []
    for name in files:
        paths.append(tmp_path / f"{name}.csv")
        paths[-1].write_text(f"timestamp,wind,coal\n2022-06-01T00:00:00Z,{cells[name]}\n", encoding="utf-8")
    err = _single_error_line(capsys, "penetration", "--data", *map(str, paths), "--categories", categories)
    assert err == f"error: {message.format(bad=tmp_path / 'bad.csv')}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["ci", "--mix", "{bad}"],
        ["residual", "--mix", "{bad}", "--fraction", "0.5"],
        ["inflation", "--mix", "{bad}", "--fraction", "0.5"],
        ["penetration", "--data", "{dir}"],
        ["schedule", "--signal", "{bad}", "--duration", "1"],
        ["schedule", "--signal", "{good}", "--actual", "{bad}", "--duration", "1"],
    ],
    ids=["ci", "residual", "inflation", "penetration-dir", "schedule-signal", "schedule-actual"],
)
def test_csv_parse_error_names_the_file(capsys, tmp_path: Path, argv: list[str]) -> None:
    """A malformed cell in any CSV the CLI loads is one error line that
    starts with the file's path, as a schema error does."""
    good, bad = tmp_path / "a-good.csv", tmp_path / "b-bad.csv"
    good.write_text(TOY_CSV, encoding="utf-8")
    bad.write_text("timestamp,wind,coal\n2022-06-01T00:00:00Z,x,0\n", encoding="utf-8")
    err = _single_error_line(capsys, *(arg.format(bad=bad, good=good, dir=tmp_path) for arg in argv))
    assert err == f"error: {bad}: invalid number 'x' (row 2, column 'wind')\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["ci", "--mix", "{bad}"],
        ["penetration", "--data", "{dir}"],
        ["schedule", "--signal", "{bad}", "--duration", "1"],
    ],
    ids=["ci", "penetration-dir", "schedule-signal"],
)
def test_undecodable_csv_names_the_file(capsys, tmp_path: Path, argv: list[str]) -> None:
    """A CSV that is not UTF-8 is one error line that starts with the file's
    path and gives the byte's offset in the file."""
    good, bad = tmp_path / "a-good.csv", tmp_path / "b-bad.csv"
    good.write_text(TOY_CSV, encoding="utf-8")
    bad.write_bytes(b"timestamp,wind,coal\n2022-06-01T00:00:00Z,\xff,0\n")
    err = _single_error_line(capsys, *(arg.format(bad=bad, dir=tmp_path) for arg in argv))
    reason = "'utf-8' codec can't decode byte 0xff in position 41: invalid start byte"
    assert err == f"error: {bad}: not UTF-8 text: {reason}\n"


def test_penetration_directory_without_csv(capsys, tmp_path: Path) -> None:
    err = _single_error_line(capsys, "penetration", "--data", str(tmp_path))
    assert err == "error: no CSV files found in the given paths\n"


@pytest.mark.parametrize(
    ("text", "reason"),
    [
        ("coall: 5\n", "coall: unknown source category"),
        ("gas: -5\n", "gas: must be >= 0.0, got -5.0"),
        ("gas: x\n", "gas: expected a number, got 'x'"),
        ("- gas\n", "<root>: expected a mapping of category to g/kWh"),
    ],
)
def test_cef_table_errors_read_like_scenario_overrides(capsys, tmp_path: Path, toy_csv: Path, text, reason) -> None:
    """A ``--cef`` table and a scenario's ``cef_g_per_kwh`` share one validator."""
    table = tmp_path / "cef.yaml"
    table.write_text(text, encoding="utf-8")
    err = _single_error_line(capsys, "ci", "--mix", str(toy_csv), "--cef", str(table))
    assert err == f"error: CEF table {table}: {reason}\n"


def test_contract_unknown_source_id(capsys, tmp_path: Path, toy_csv: Path) -> None:
    scenario = tmp_path / "typo.yaml"
    scenario.write_text(
        "regions: {r: {generation: {coal: 500, wind: 500}}}\n"
        "consumers: [{id: H1, region: r, demand_kwh: 20}]\n"
        "contracts: [{id: k, buyer: H1, kind: financial, source: sun, region: r, energy_mwh: 5}]\n",
        encoding="utf-8",
    )
    err = _single_error_line(capsys, "scenario", "--file", str(scenario))
    assert err == "error: contracts[0].source: unknown source id 'sun'\n"
    contracts = tmp_path / "contracts.yaml"
    contracts.write_text("- {source: sun, energy_mwh: 5}\n", encoding="utf-8")
    err = _single_error_line(capsys, "ci", "--mix", str(toy_csv), "--contracts", str(contracts))
    assert err == f"error: {contracts}: contracts[0].source: unknown source id 'sun'\n"


def test_scenario_consumer_not_a_mapping(capsys, tmp_path: Path) -> None:
    scenario = tmp_path / "consumer.yaml"
    scenario.write_text(
        "regions: {r: {generation: {coal: 500, wind: 500}}}\nconsumers: [H1]\n", encoding="utf-8"
    )
    err = _single_error_line(capsys, "scenario", "--file", str(scenario))
    assert err == "error: consumers[0]: expected a mapping\n"


@pytest.mark.parametrize("field", ["source", "energy_mwh"])
def test_contracts_yaml_missing_field(capsys, tmp_path: Path, toy_csv: Path, field) -> None:
    body = {"id": "w", "buyer": "c", "source": "wind", "energy_mwh": 250}
    del body[field]
    contracts = tmp_path / "contracts.yaml"
    contracts.write_text(
        "- {" + ", ".join(f"{k}: {v}" for k, v in body.items()) + "}\n", encoding="utf-8"
    )
    err = _single_error_line(capsys, "ci", "--mix", str(toy_csv), "--contracts", str(contracts))
    assert f"contracts[0].{field}: missing" in err


def test_ci_fully_contracted_aggregate_is_empty(capsys, tmp_path: Path) -> None:
    renewable = tmp_path / "renewable.csv"
    renewable.write_text(
        "timestamp,wind,solar\n2022-06-01T00:00:00Z,500,100\n2022-06-01T01:00:00Z,400,50\n",
        encoding="utf-8",
    )
    code, out = _run(capsys, "ci", "--mix", str(renewable), "--contracts", "all-solar-wind")
    assert code == 0
    records = _records(out)
    assert [r["residual_ci_g_per_kwh"] for r in records] == ["", "", ""]
    assert records[-1]["timestamp"] == "aggregate"


def test_ci_all_rows_dropped(capsys, tmp_path: Path) -> None:
    holes = tmp_path / "holes.csv"
    holes.write_text(
        "timestamp,wind,coal\n2022-06-01T00:00:00Z,,100\n2022-06-01T01:00:00Z,400,\n",
        encoding="utf-8",
    )
    err = _single_error_line(capsys, "ci", "--mix", str(holes))
    assert "no generation" in err


def test_inflation_zero_period_ci(capsys, tmp_path: Path) -> None:
    carbon_free = tmp_path / "carbon-free.csv"
    carbon_free.write_text(
        "timestamp,wind,hydro\n2022-06-01T00:00:00Z,500,100\n", encoding="utf-8"
    )
    err = _single_error_line(
        capsys, "inflation", "--mix", str(carbon_free), "--fraction", "0.5"
    )
    assert "period CI is zero" in err


@pytest.mark.parametrize(
    ("entry", "field", "reason"),
    [
        ("energy_mwh: 2022-01-01", "energy_mwh", "expected a number"),
        ('energy_mwh: "5"', "energy_mwh", "expected a number"),
        ("energy_mwh: .nan", "energy_mwh", "must not be NaN"),
        ("energy_mwh: .inf", "energy_mwh", "must not be NaN or infinite, got inf"),
        ("energy_mwh: [100, -.inf]", "energy_mwh[1]", "must not be NaN or infinite, got -inf"),
        pytest.param(
            "energy_mwh: 1" + "0" * 400, "energy_mwh", "must not be NaN or infinite, got inf",
            id="energy_mwh: int beyond float",
        ),
        ("energy_mwh: true", "energy_mwh", "expected a number"),
        ("energy_mwh: [100, -1]", "energy_mwh[1]", "must be >= 0"),
        ("energy_mwh: 100, region: elsewhere", "region", "'elsewhere' has no grid mix"),
        ("energy_mwh: 100, kind: barter", "kind", "expected one of"),
        ("energy_mwh: 100, id: 7", "id", "expected a non-empty string"),
    ],
)
def test_contracts_yaml_invalid_field(
    capsys, tmp_path: Path, toy_csv: Path, entry: str, field: str, reason: str
) -> None:
    contracts = tmp_path / "contracts.yaml"
    contracts.write_text("- {source: wind, " + entry + "}\n", encoding="utf-8")
    err = _single_error_line(capsys, "ci", "--mix", str(toy_csv), "--contracts", str(contracts))
    assert f"{contracts}: contracts[0].{field}: " in err
    assert reason in err


def test_contracts_yaml_source_must_be_carbon_free(capsys, tmp_path: Path, toy_csv: Path) -> None:
    contracts = tmp_path / "contracts.yaml"
    contracts.write_text("- {source: coal, energy_mwh: 100}\n", encoding="utf-8")
    err = _single_error_line(capsys, "ci", "--mix", str(toy_csv), "--contracts", str(contracts))
    assert "contracts[0].source: source 'coal' is not carbon-free" in err


def test_contracts_yaml_entry_must_be_mapping(capsys, tmp_path: Path, toy_csv: Path) -> None:
    contracts = tmp_path / "contracts.yaml"
    contracts.write_text("- 5\n", encoding="utf-8")
    err = _single_error_line(capsys, "ci", "--mix", str(toy_csv), "--contracts", str(contracts))
    assert "contracts[0]: expected a mapping" in err


def test_contracts_yaml_list_energy_is_per_step(capsys, tmp_path: Path) -> None:
    mix = tmp_path / "two.csv"
    mix.write_text(
        "timestamp,wind,coal\n2022-06-01T00:00:00Z,500,500\n2022-06-01T01:00:00Z,500,500\n",
        encoding="utf-8",
    )
    contracts = tmp_path / "contracts.yaml"
    contracts.write_text("- {source: wind, energy_mwh: [0, 250]}\n", encoding="utf-8")
    code, out = _run(capsys, "ci", "--mix", str(mix), "--contracts", str(contracts))
    assert code == 0
    residual = [r["residual_ci_g_per_kwh"] for r in _records(out)]
    assert residual == [500.0, float(format(500_000.0 / 750.0, ".6g")), 571.429]


def test_contracts_yaml_list_longer_than_kept_steps(capsys, tmp_path: Path) -> None:
    """A per-step list needs one entry per kept step: a dropped row makes
    three entries for two steps an error that counts the dropped row,
    rather than shifting the list onto the wrong hours."""
    mix = tmp_path / "three.csv"
    mix.write_text(
        "timestamp,wind,coal\n2022-06-01T00:00:00Z,,500\n"
        "2022-06-01T01:00:00Z,500,500\n2022-06-01T02:00:00Z,500,500\n",
        encoding="utf-8",
    )
    contracts = tmp_path / "contracts.yaml"
    contracts.write_text("- {source: wind, energy_mwh: [0, 250, 400]}\n", encoding="utf-8")
    err = _single_error_line(capsys, "ci", "--mix", str(mix), "--contracts", str(contracts))
    assert "contract 'contract-0' has 3 per-step energy_mwh values for a series of 2 steps" in err
    assert "rows dropped on load for a blank cell: 1" in err


def test_contracts_yaml_list_longer_than_series(capsys, tmp_path: Path) -> None:
    mix = tmp_path / "two.csv"
    mix.write_text(
        "timestamp,wind,coal\n2022-06-01T00:00:00Z,500,500\n2022-06-01T01:00:00Z,500,500\n",
        encoding="utf-8",
    )
    contracts = tmp_path / "contracts.yaml"
    contracts.write_text("- {source: wind, energy_mwh: [0, 250, 400]}\n", encoding="utf-8")
    err = _single_error_line(capsys, "ci", "--mix", str(mix), "--contracts", str(contracts))
    assert "has 3 per-step energy_mwh values for a series of 2 steps\n" in err


# --- error contract ---------------------------------------------------------------------

GOOD_CELL = st.sampled_from(["120", "7", "480", "0", "900", "55.5"])
BAD_CELL = st.sampled_from(["", "nan", "-5", "inf", "x"])
RARELY = st.sampled_from([False] * 9 + [True])
# Mostly good cells, with blank ones (dropped or zero-filled rows) more
# often than other bad ones.
CELL = st.one_of(*[GOOD_CELL] * 6, st.just(""), BAD_CELL)


@st.composite
def csv_texts(draw, columns: tuple[str, ...]) -> str:
    """A CSV with the given columns whose rows are mostly well formed, with
    the odd blank, NaN, negative, non-number, bad or repeated timestamp or
    short row."""
    lines = [",".join(("timestamp", *columns))]
    for hour in range(0 if draw(RARELY) else draw(st.integers(min_value=1, max_value=5))):
        timestamp = f"2022-06-01T{hour:02d}:00:00Z"
        if draw(RARELY):
            timestamp = draw(st.sampled_from(["", "yesterday", "2022-06-01T00:00:00Z"]))
        row = [timestamp, *(draw(CELL) for _ in columns)]
        if draw(RARELY):
            row = row[: draw(st.integers(min_value=1, max_value=len(row) - 1))]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


MIX_COLUMNS = st.sampled_from(
    [("wind", "coal"), ("solar", "wind", "gas"), ("wind",), ("wind", "coal", "ci_g_per_kwh")]
)
FRACTIONS = st.sampled_from(["0.5", "0", "0.8", "1", "1.5", "-0.25", "nan"])
# --categories: valid, empty, repeated, unknown or not carbon-free.
CATEGORIES = st.sampled_from(["solar,wind", "wind", "", "wind,wind", "sunshine", "coal"])


@st.composite
def list_contracts(draw) -> str:
    """A contracts YAML of per-step lists of random length, and the odd scalar."""
    lines = []
    for source in draw(st.lists(st.sampled_from(["wind", "solar"]), min_size=1, max_size=2)):
        energy = draw(st.lists(st.sampled_from(["0", "50", "250", "400"]), max_size=6))
        lines.append(f"- {{source: {source}, energy_mwh: [{', '.join(energy)}]}}")
    if draw(RARELY):
        lines.append("- {source: wind, energy_mwh: 100}")
    return "\n".join(lines) + "\n"


# Numbers for YAML values: mostly ordinary ones, some near or past the
# float limit, and tagged scalars that their constructor cannot build.
YAML_NUMBER = st.one_of(
    *[st.sampled_from(["0", "5", "20", "480", "500.5", "1e3"])] * 4,
    st.sampled_from(["1.0e+308", "-1.0e+308", "1.7976931348623157e+308", "1e309", "9" * 320]),
    st.sampled_from(YAML_BAD_SCALARS),
)


# Override keys: mostly a category, sometimes a misspelt one or an int.
CEF_KEYS = st.sampled_from(["gas", "gas", "gas", "coall", "1"])


@st.composite
def scenario_documents(draw) -> str:
    """A scenario-shaped YAML document whose names and numbers are drawn
    from ``YAML_NUMBER``, with a tagged or valid name and a valid or
    unknown override category."""
    def v() -> str:
        return draw(YAML_NUMBER)

    name = draw(st.sampled_from(["t", "t", "t", *YAML_BAD_SCALARS]))
    return (
        f"name: {name}\n"
        f"regions:\n"
        f"  a: {{generation: {{wind: {v()}, coal: {v()}, solar: {v()}}}, demand_mwh: {v()}}}\n"
        f"  b: {{generation: {{gas: {v()}, hydro: {v()}}}}}\n"
        f"consumers:\n"
        f"  - {{id: C1, region: a, demand_kwh: {v()}, method: market_based}}\n"
        f"  - {{id: H1, region: b, demand_kwh: {v()}}}\n"
        f"contracts:\n"
        f"  - {{id: k, buyer: C1, kind: financial, source: solar, region: a, energy_mwh: {v()}}}\n"
        f"cef_g_per_kwh: {{{draw(CEF_KEYS)}: {v()}}}\n"
    )


@st.composite
def cli_calls(draw) -> tuple[dict[str, str], list[str]]:
    """Files to write and the argv of one invocation of any subcommand over
    them, where "." is the directory that holds them and "exported" a new
    one in it; the CSV commands sometimes take a ``--cef`` table. Every
    YAML input is sometimes any document ``yaml_documents`` draws."""
    files = {
        "mix.csv": draw(csv_texts(draw(MIX_COLUMNS))),
        "bare.csv": draw(csv_texts(("ci_g_per_kwh",))),
        "actual.csv": draw(csv_texts(("ci_g_per_kwh",))),
    }
    command = draw(st.sampled_from(["schedule", "residual", "ci", "schedule", "residual", "ci",
                                    "scenario", "attribute", "penetration", "inflation", "fixtures"]))
    if command in ("scenario", "attribute"):
        files["scenario.yaml"] = draw(st.one_of(scenario_documents(), yaml_documents()))
        return files, [command, "--file", "scenario.yaml"]
    if command == "fixtures":
        action = draw(st.sampled_from(["list", "export"]))
        return files, ["fixtures", action, "--dir", draw(st.sampled_from(["exported", ".", "mix.csv"]))]
    cef = []
    if draw(st.integers(0, 3)) == 0:
        cef_table = st.builds("{{coal: {}, gas: {}}}\n".format, YAML_NUMBER, YAML_NUMBER)
        files["cef.yaml"] = draw(st.one_of(cef_table, yaml_documents()))
        cef = ["--cef", "cef.yaml"]
    if command == "residual":
        return files, ["residual", "--mix", "mix.csv", "--fraction", draw(FRACTIONS), *cef]
    if command == "inflation":
        basis = draw(st.sampled_from(["cef", "published"]))
        return files, ["inflation", "--mix", "mix.csv", "--fraction", draw(FRACTIONS),
                       "--categories", draw(CATEGORIES), "--basis", basis, *cef]
    if command == "penetration":
        if draw(st.booleans()):  # the directory then holds one CSV
            files = {name: text for name, text in files.items() if name == "mix.csv" or name.endswith(".yaml")}
        data = draw(st.lists(st.sampled_from(["mix.csv", "."]), min_size=1, max_size=3))
        policy = draw(st.sampled_from(["drop-row", "zero-fill"]))
        argv = ["penetration", "--data", *data, "--categories", draw(CATEGORIES), "--fill-policy", policy]
        return files, [*argv, *(["--per-hour-mean"] if draw(st.booleans()) else []), *cef]
    if command == "ci":
        fraction = FRACTIONS.map("solar-wind:{}".format)
        contracts = draw(
            st.one_of(st.sampled_from(["none", "all-solar-wind", "contracts.yaml"]), fraction)
        )
        tagged = st.builds("- {{source: wind, energy_mwh: {}}}\n".format, YAML_NUMBER)
        files["contracts.yaml"] = draw(
            st.one_of(*[list_contracts()] * 4, tagged, yaml_documents())
        )
        policy = draw(st.sampled_from(["drop-row", "zero-fill"]))
        return files, ["ci", "--mix", "mix.csv", "--contracts", contracts, "--fill-policy", policy, *cef]
    argv = ["schedule", "--signal", draw(st.sampled_from(["mix.csv", "bare.csv"])), *cef]
    argv += ["--duration", draw(st.sampled_from(["1", "2", "4", "0"]))]
    actual = draw(st.sampled_from([None, "actual", "fraction"]))
    if actual == "actual":
        argv += ["--actual", "actual.csv"]
    elif actual == "fraction":
        argv += ["--residual-fraction", draw(FRACTIONS)]
    if draw(st.booleans()):
        lo, hi = draw(st.integers(-1, 4)), draw(st.integers(-1, 4))
        argv.append("--window=" + draw(st.sampled_from([f"{lo}:{hi}", f"{lo}", "a:b"])))
    if draw(RARELY):
        argv.append("--non-contiguous")
    energy = draw(st.sampled_from([None, None, "nan", "inf"]))
    if energy:
        argv.append(f"--energy-per-hour={energy}")
    starts = st.integers(-1, 6).map(str)
    policy = draw(st.one_of(st.sampled_from(["best_window", "worst_window"]), starts))
    return files, [*argv, "--policy", policy]


@settings(max_examples=500, deadline=None)
@given(call=cli_calls())
def test_cli_error_contract(call) -> None:
    """Whatever the files and option values, the CLI exits 0, 1 or 2
    without a traceback, a failure prints exactly one ``error:`` line, and
    a success prints strict JSON, without NaN or Infinity. Every generated
    argv is well formed, so argparse never rejects it. Both output formats
    agree: the same exit code and error line, and on success the CSV cells
    equal the JSON values (both carry six significant digits)."""
    files, argv = call
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        argv = [str(Path(tmp, arg)) if arg in files or arg in (".", "exported") else arg for arg in argv]
        for fmt in ("json-records", "csv"):
            runs[fmt] = _run_captured([*argv, "--format", fmt])
    (code, out, stderr), (csv_code, csv_out, csv_stderr) = runs["json-records"], runs["csv"]
    assert "Traceback" not in stderr, stderr
    assert code in (0, 1, 2), (argv, stderr)
    assert (csv_code, csv_stderr) == (code, stderr), (argv, csv_stderr, stderr)
    if code != 0:
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, (argv, stderr)
        return
    records = [json.loads(line, parse_constant=_not_json) for line in out.splitlines()]
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert len(rows) == len(records), argv
    for record, row in zip(records, rows):
        for key, value in record.items():
            cell = row[key]
            if isinstance(value, float):
                assert float(cell) == value, (argv, key, cell, value)
            else:
                assert cell == str(value), (argv, key, cell, value)


def _run_captured(argv: list[str]) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the generated argv
            code = exc.code
        except Exception:  # what the console script would print
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


def _not_json(constant: str):
    raise AssertionError(f"{constant} is not valid JSON")


# --- start-up -------------------------------------------------------------------------------

# Runs the CLI on the given argv in this interpreter; prints the exit code and
# whether PyYAML was imported.
_RUN_AND_REPORT_YAML = (
    "import json, sys\n"
    "from gridcarbon.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps([code, 'yaml' in sys.modules]))\n"
)

CSV_COMMANDS = {
    "ci": ["ci", "--mix", "{mix}"],
    "ci-contracts": ["ci", "--mix", "{mix}", "--contracts", "all-solar-wind"],
    "residual": ["residual", "--mix", "{mix}", "--fraction", "0.5"],
    "inflation": ["inflation", "--mix", "{mix}", "--fraction", "0.5"],
    "schedule": ["schedule", "--signal", "{mix}", "--duration", "2"],
    "penetration": ["penetration", "--data", "{dir}"],
    "scenario-list": ["scenario", "--list"],
    "fixtures-list": ["fixtures", "list"],
}


@pytest.mark.parametrize("command", CSV_COMMANDS)
def test_csv_commands_never_import_yaml(tmp_path: Path, command: str) -> None:
    """A command that reads no YAML runs, in a fresh interpreter, without
    importing PyYAML."""
    data = tmp_path / "data"
    write_fixture_csvs(data)
    argv = [arg.format(mix=data / "duck-curve.csv", dir=data) for arg in CSV_COMMANDS[command]]
    run = subprocess.run(
        [sys.executable, "-c", _RUN_AND_REPORT_YAML, *argv, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    assert (run.returncode, run.stderr) == (0, ""), run.stderr
    assert json.loads(run.stdout) == [0, False]


# Runs the CLI on the given argv in this interpreter; prints the exit code and
# whether heapq, which only the scheduler's window search needs, was imported.
_RUN_AND_REPORT_HEAPQ = (
    "import json, sys\n"
    "from gridcarbon.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps([code, 'heapq' in sys.modules]))\n"
)


@pytest.mark.parametrize(
    "argv", [["ci", "--mix", "{mix}"], ["scenario", "commercial-case-1"]], ids=["ci", "scenario"]
)
def test_commands_without_a_search_never_import_heapq(tmp_path: Path, argv: list[str]) -> None:
    """A command that places no load runs, in a fresh interpreter, without
    importing heapq: the window search imports it when it runs."""
    data = tmp_path / "data"
    write_fixture_csvs(data)
    argv = [arg.format(mix=data / "duck-curve.csv") for arg in argv]
    run = subprocess.run(
        [sys.executable, "-c", _RUN_AND_REPORT_HEAPQ, *argv, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    assert (run.returncode, run.stderr) == (0, ""), run.stderr
    assert json.loads(run.stdout) == [0, False]


# Runs the CLI on the given argv in this interpreter; prints the exit code and
# the modules that importing gridcarbon.cli and running the command added to
# those the interpreter had loaded at start-up (site and any .pth files).
_RUN_AND_REPORT_MODULES = (
    "import json, sys\n"
    "before = set(sys.modules)\n"
    "from gridcarbon.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(set(sys.modules) - before)]))\n"
)

STARTUP_COMMANDS = {
    "ci": ["ci", "--mix", "{mix}"],
    "residual": ["residual", "--mix", "{mix}", "--fraction", "0.5"],
    "scenario-file": ["scenario", "--file", "{yaml}"],
    "attribute-builtin": ["attribute", "residential-case-2"],
}


@pytest.mark.parametrize("command", STARTUP_COMMANDS)
def test_commands_never_import_dataclasses(tmp_path: Path, command: str) -> None:
    """No command imports dataclasses, and only a bundled scenario may import
    inspect (importlib.resources does from Python 3.12)."""
    data = tmp_path / "data"
    write_fixture_csvs(data)
    (tmp_path / "input.yaml").write_text(SCANNED_YAML["scenario-file"][0], encoding="utf-8")
    paths = {"mix": data / "duck-curve.csv", "yaml": tmp_path / "input.yaml"}
    argv = [arg.format(**paths) for arg in STARTUP_COMMANDS[command]]
    run = subprocess.run(
        [sys.executable, "-c", _RUN_AND_REPORT_MODULES, *argv, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    assert (run.returncode, run.stderr) == (0, ""), run.stderr
    code, added = json.loads(run.stdout)
    assert code == 0
    assert "gridcarbon.cli" in added and "dataclasses" not in added
    assert "inspect" not in added or command.endswith("-builtin")


# Commands whose YAML is in the subset that gridcarbon.yamlscan reads, and
# for each file the same value with a quoted string, which only PyYAML reads.
SCANNED_YAML_COMMANDS = {
    "scenario-builtin": ["scenario", "commercial-case-1"],
    "attribute-builtin": ["attribute", "residential-case-2"],
    "scenario-file": ["scenario", "--file", "{yaml}"],
    "cef": ["ci", "--mix", "{mix}", "--cef", "{yaml}"],
    "contracts": ["ci", "--mix", "{mix}", "--contracts", "{yaml}"],
}
SCANNED_YAML = {
    "scenario-file": (
        "# A hand-written scenario, comments and all.\n"
        "name: commented\n"
        "description: >\n  Two homes on a half-wind grid; # is text here.\n"
        "regions:\n"
        "  local:\n"
        "    generation: {wind: 500, solar: 20, coal: 480}   # MWh per source\n"
        "    demand_mwh: 1000                                # optional\n"
        "consumers:\n"
        "  - {id: C1, region: local, demand_kwh: 20000, method: market_based}\n"
        "  - {id: H1, region: local, demand_kwh: 20, method: market_based}\n"
        "contracts:\n"
        "  - {id: ppa-1, buyer: C1, kind: physical_offsite,\n"
        "     source: solar, region: local, energy_mwh: 20}\n"
        "cef_g_per_kwh: {gas: 520}        # optional\n",
        ("name: commented", 'name: "commented"'),
    ),
    "cef": ("# g/kWh\ncoal: 800\ngas: 400.5  # per category\n", ("coal", '"coal"')),
    "contracts": (
        "- {id: ppa-1, buyer: C1, kind: financial, source: wind, energy_mwh: 250}\n"
        "- {source: solar, energy_mwh: 10}   # defaults for the rest\n",
        ("source: solar", "source: 'solar'"),
    ),
}


@pytest.mark.parametrize("command", SCANNED_YAML_COMMANDS)
def test_scanned_yaml_never_imports_yaml(tmp_path: Path, command: str) -> None:
    """A command whose YAML is in the scanned subset runs, in a fresh
    interpreter, without importing PyYAML; the same file with a quoted
    string goes to PyYAML and prints the same output."""
    data = tmp_path / "data"
    write_fixture_csvs(data)
    variants = [("", False)]  # a bundled scenario
    if command in SCANNED_YAML:
        text, (plain, quoted) = SCANNED_YAML[command]
        variants = [(text, False), (text.replace(plain, quoted, 1), True)]
    outputs = []
    for text, imports_yaml in variants:
        (tmp_path / "input.yaml").write_text(text, encoding="utf-8")
        paths = {"mix": data / "duck-curve.csv", "yaml": tmp_path / "input.yaml"}
        argv = [arg.format(**paths) for arg in SCANNED_YAML_COMMANDS[command]]
        run = subprocess.run(
            [sys.executable, "-c", _RUN_AND_REPORT_YAML, *argv], capture_output=True, text=True, env=_child_env(), timeout=120
        )
        assert run.stderr == "", run.stderr
        *records, report = run.stdout.splitlines()
        assert json.loads(report) == [0, imports_yaml]
        outputs.append(records)
    assert outputs[0] and outputs[0] == outputs[-1]


@pytest.mark.parametrize("option", ["--file", "--cef", "--contracts"])
def test_yaml_syntax_error_is_one_error_line_in_a_fresh_interpreter(tmp_path: Path, toy_csv: Path, option: str) -> None:
    """The YAML error ``main`` reports without importing PyYAML itself is
    still one ``error:`` line and exit 1."""
    broken = tmp_path / "broken.yaml"
    broken.write_text("a: [1, 2\n", encoding="utf-8")
    argv = {
        "--file": ["scenario", "--file", str(broken)],
        "--cef": ["ci", "--mix", str(toy_csv), "--cef", str(broken)],
        "--contracts": ["ci", "--mix", str(toy_csv), "--contracts", str(broken)],
    }[option]
    run = subprocess.run(
        [sys.executable, "-c", _RUN_AND_REPORT_YAML, *argv], capture_output=True, text=True, env=_child_env(), timeout=120
    )
    assert json.loads(run.stdout) == [1, True]
    assert run.stderr.startswith("error: while parsing a flow sequence"), run.stderr
    assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr


# --- timestamp labels -----------------------------------------------------------------------

# Whole seconds in years 0001-9999.
_MOMENTS = st.datetimes(
    min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59), timezones=st.just(timezone.utc)
).map(lambda moment: moment.replace(microsecond=0))
_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


@st.composite
def _stamp_texts(draw, moment: datetime) -> tuple[str, bool]:
    """A CSV cell that reads as ``moment``, and whether it has the canonical
    shape (once stripped): canonical, or with single-digit fields or a
    non-ASCII digit that only strptime reads, sometimes padded with blanks."""
    canonical = f"{moment.year:04d}-{moment:%m-%dT%H:%M:%S}Z"
    shape = draw(st.sampled_from(["canonical"] * 4 + ["single-digit", "non-ascii"]))
    text = canonical
    if shape == "single-digit":
        text = f"{canonical[:4]}-{moment.month}-{moment.day}T{moment.hour}:{moment.minute}:{moment.second}Z"
    elif shape == "non-ascii":
        text = canonical[:3] + canonical[3].translate(_ARABIC_INDIC) + canonical[4:]
    if draw(st.integers(0, 4)) == 0:
        text = draw(st.sampled_from([" ", "\t", "  "])) + text + draw(st.sampled_from(["", " "]))
    return text, text.strip() == canonical


@st.composite
def label_csvs(draw) -> tuple[str, str, bool]:
    """A CSV of distinct timestamps from years 0001-9999, in order or
    shuffled, some rows with a blank cell (dropped, or kept through the
    row checks by zero-fill); its fill policy; and whether ingest should
    keep its timestamp text."""
    moments = sorted(draw(st.lists(_MOMENTS, min_size=1, max_size=6, unique=True)))
    if draw(st.booleans()):
        moments = draw(st.permutations(moments))
    policy = draw(st.sampled_from(["drop-row", "zero-fill"]))
    lines, clean = ["timestamp,wind,coal"], []
    for moment in moments:
        text, canonical = draw(_stamp_texts(moment))
        blank = draw(st.integers(0, 5)) == 0
        lines.append(f"{text},{'' if blank else '5'},7")
        if not blank:
            clean.append((moment, canonical))
        elif policy == "zero-fill":
            clean.append((None, False))  # a kept row through the row checks
    kept = [moment for moment, _ in clean]
    keeps_text = (
        bool(clean)
        and all(canonical for _, canonical in clean)
        and kept == sorted(kept)
    )
    return "\n".join(lines) + "\n", policy, keeps_text


@pytest.mark.differential
@settings(deadline=None)
@given(table=label_csvs())
@example(table=("timestamp,wind,coal\n2022-06-01T00:00:00Z,5,7\n2022-06-01T01:00:00Z,,7\n", "zero-fill", False))
def test_label_differential(tmp_path_factory, table) -> None:
    """Labels from ingest's kept text equal the formatted ones, and ingest
    keeps the text exactly when the rows allow it."""
    text, policy, keeps_text = table
    path = tmp_path_factory.mktemp("labels") / "r.csv"
    path.write_text(text, encoding="utf-8")
    dataset = load_region_csv(path, fill_policy=policy)
    assert (dataset._timestamp_text is not None) == keeps_text
    assert cli._timestamp_labels(dataset) == reference_labels._timestamp_labels(dataset)


@given(moments=st.lists(_MOMENTS, max_size=4, unique=True).map(sorted))
def test_labels_of_datasets_built_in_code_are_formatted(moments) -> None:
    built = [
        RegionDataset("r", timestamps=moments, source_ids=("wind",), columns=([1.0] * len(moments),)),
        RegionDataset("r", mixes=[GridMix(region="r", generation={"wind": 1.0}, timestamp=t) for t in moments]),
    ]
    for dataset in built:
        assert dataset._timestamp_text is None
        assert cli._timestamp_labels(dataset) == reference_labels._timestamp_labels(dataset)
