from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import tempfile
import traceback
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcarbon import cli, factors
from gridcarbon.cli import CEF_TABLE_ENV, main

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
    assert message in err


def test_schedule_bare_signal_sorted_by_timestamp(capsys, tmp_path: Path) -> None:
    lines = SIGNAL_CSV.splitlines()
    signal = tmp_path / "signal.csv"
    signal.write_text("\n".join([lines[0], *reversed(lines[1:])]) + "\n", encoding="utf-8")
    code, out = _run(capsys, "schedule", "--signal", str(signal), "--duration", "1")
    assert code == 0
    assert _records(out)[0]["hours"] == "1"
    assert _records(out)[0]["reported_ci_avg_g_per_kwh"] == 50.0


def test_schedule_unknown_policy(capsys, tmp_path: Path) -> None:
    signal = tmp_path / "signal.csv"
    signal.write_text(SIGNAL_CSV, encoding="utf-8")
    err = _single_error_line(
        capsys, "schedule", "--signal", str(signal), "--duration", "1", "--policy", "cheapest"
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
    assert err == f"error: CEF table {table}: value for 'solar' must be finite, got {shown}\n"


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


@pytest.mark.parametrize("loader", [yaml.SafeLoader, factors._YAML_LOADER])
@pytest.mark.parametrize("command", ["scenario", "ci"])
def test_malformed_yaml_is_one_error_line(
    capsys, tmp_path: Path, toy_csv: Path, monkeypatch, command, loader
) -> None:
    monkeypatch.setattr(factors, "_YAML_LOADER", loader)
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


@st.composite
def scenario_documents(draw) -> str:
    """A scenario-shaped YAML document whose names and numbers are drawn
    from ``YAML_NUMBER``, with a tagged or valid name."""
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
        f"cef_g_per_kwh: {{gas: {v()}}}\n"
    )


@st.composite
def cli_calls(draw) -> tuple[dict[str, str], list[str]]:
    """Files to write and the argv of one ``schedule``, ``residual``, ``ci``,
    ``scenario --file`` or ``attribute --file`` invocation over them; the
    CSV commands sometimes take a ``--cef`` table. Every YAML input is
    sometimes any document ``yaml_documents`` draws."""
    files = {
        "mix.csv": draw(csv_texts(draw(MIX_COLUMNS))),
        "bare.csv": draw(csv_texts(("ci_g_per_kwh",))),
        "actual.csv": draw(csv_texts(("ci_g_per_kwh",))),
    }
    command = draw(st.sampled_from(["schedule", "residual", "ci", "schedule", "residual", "ci",
                                    "scenario", "attribute"]))
    if command in ("scenario", "attribute"):
        files["scenario.yaml"] = draw(st.one_of(scenario_documents(), yaml_documents()))
        return files, [command, "--file", "scenario.yaml"]
    cef = []
    if draw(st.integers(0, 3)) == 0:
        cef_table = st.builds("{{coal: {}, gas: {}}}\n".format, YAML_NUMBER, YAML_NUMBER)
        files["cef.yaml"] = draw(st.one_of(cef_table, yaml_documents()))
        cef = ["--cef", "cef.yaml"]
    if command == "residual":
        return files, ["residual", "--mix", "mix.csv", "--fraction", draw(FRACTIONS), *cef]
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
        argv = [str(Path(tmp, arg)) if arg in files else arg for arg in argv]
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
