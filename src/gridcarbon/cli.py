"""Command-line interface.

Every subcommand reads CSVs/YAML, computes with the library, and emits
machine-readable records as JSON lines (default) or CSV. Output is
deterministic: stable record ordering and floats at six significant
digits, so identical inputs produce byte-identical files.

Exit codes: 0 success, 1 validation/domain error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import os
import sys
from pathlib import Path

import yaml

from .contracts import _residual_dataset, contracts_for_fraction
from .errors import GridCarbonError, ScenarioInvalid
from .factors import _read_yaml, load_cef_table
from .fixtures import fixture_datasets, write_fixture_csvs
from .grid import SourceRegistry
from .ingest import BASES, FILL_POLICIES, TIMESTAMP_FORMAT, load_region_csv, load_signal_csv
from .scenarios import (
    builtin_scenario_names,
    load_builtin_scenario,
    load_scenario,
    parse_contract,
    run_scenario,
)
from .scheduler import (
    FlexibleLoad,
    _ci_steps,
    _policy_hours,
    evaluate_schedule,
    residual_signal,
    total_signal,
)
from .stats import (
    energy_weighted_ci,
    inflation_pct,
    penetration_fleet,
    period_ci,
    period_residual_ci,
)

CEF_TABLE_ENV = "GRIDCARBON_CEF_TABLE"


def _fmt(value):
    """Floats at 6 significant digits; everything else unchanged."""
    if isinstance(value, bool) or not isinstance(value, float):
        return value
    return float(format(value, ".6g"))


def _emit(records: list[dict], fmt: str, out: str) -> None:
    for record in records:
        for key, value in record.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise GridCarbonError(f"{key} is {value}, which the output cannot represent")
    buffer = io.StringIO()
    if fmt == "json-records":
        for record in records:
            buffer.write(json.dumps({k: _fmt(v) for k, v in record.items()}))
            buffer.write("\n")
    else:
        columns: list[str] = []
        for record in records:
            for key in record:
                if key not in columns:
                    columns.append(key)
        writer = csv.DictWriter(buffer, fieldnames=columns, restval="")
        writer.writeheader()
        for record in records:
            writer.writerow(
                {k: (format(v, ".6g") if isinstance(v, float) else v) for k, v in record.items()}
            )
    text = buffer.getvalue()
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _registry(args) -> SourceRegistry:
    path = args.cef or os.environ.get(CEF_TABLE_ENV)
    if not path:
        return SourceRegistry.default()
    return SourceRegistry.default(load_cef_table(path))


def _load_dataset(args, path=None):
    return load_region_csv(
        path or args.mix,
        region=getattr(args, "region", None),
        fill_policy=args.fill_policy,
        strict=args.strict,
    )


def _option(name: str, raw: str, parse, expected: str):
    """``parse(raw)``; a malformed value is one error naming the option."""
    try:
        return parse(raw)
    except ValueError:
        raise GridCarbonError(f"{name}: expected {expected}, got {raw!r}") from None


def _start_window(raw: str) -> tuple[int, int]:
    lo, hi = raw.split(":")
    return int(lo), int(hi)


def _parse_contracts_arg(spec: str, dataset, sources: SourceRegistry):
    """Parse --contracts (none | all-solar-wind | solar-wind:<f> | YAML path)
    into None or the dataset's contracts. YAML entries default to
    ``id: contract-<i>``, ``buyer: unnamed``, ``kind: financial`` and the
    dataset's region, and are validated like scenario contracts."""
    if spec == "none":
        return None
    if spec == "all-solar-wind" or spec.startswith("solar-wind:"):
        raw = "1.0" if spec == "all-solar-wind" else spec.partition(":")[2]
        fraction = _option("--contracts", raw, float, "a number after 'solar-wind:'")
        return contracts_for_fraction(dataset, fraction, sources=sources)
    with open(spec, encoding="utf-8") as handle:
        data = _read_yaml(handle, spec)
    if not isinstance(data, list):
        raise GridCarbonError(f"{spec}: expected a YAML list of contracts")
    defaults = {"buyer": "unnamed", "kind": "financial", "region": dataset.region}
    return tuple(
        parse_contract(
            {"id": f"contract-{i}", **defaults, **body} if isinstance(body, dict) else body,
            f"{spec}: contracts[{i}]",
            sources,
            (dataset.region,),
        )
        for i, body in enumerate(data)
    )


def _timestamp_labels(dataset) -> list[str]:
    """Each step's timestamp as TIMESTAMP_FORMAT writes it. From year 1000
    on, isoformat's first 19 characters are those fields, and cheaper (below
    it, strftime does not pad the year on every platform)."""
    return [
        t.isoformat()[:19] + "Z" if t.year >= 1000 else t.strftime(TIMESTAMP_FORMAT)
        for t in dataset.timestamps
    ]


def cmd_ci(args) -> list[dict]:
    sources = _registry(args)
    dataset = _load_dataset(args)
    contracts = _parse_contracts_arg(args.contracts, dataset, sources)
    records = [
        {"timestamp": label, "region": dataset.region, "ci_g_per_kwh": ci}
        for label, ci in zip(_timestamp_labels(dataset), total_signal(dataset, sources))
    ]
    aggregate = {
        "timestamp": "aggregate",
        "region": dataset.region,
        "ci_g_per_kwh": period_ci(dataset, sources),
    }
    if contracts is not None:
        residual = _residual_dataset(dataset, contracts, sources)
        for record, ci in zip(records, _ci_steps(residual, sources)):
            record["residual_ci_g_per_kwh"] = "" if ci is None else ci
        ci_res = energy_weighted_ci(residual, sources)
        aggregate["residual_ci_g_per_kwh"] = "" if ci_res is None else ci_res
    records.append(aggregate)
    return records


def cmd_residual(args) -> list[dict]:
    sources = _registry(args)
    dataset = _load_dataset(args)
    categories = args.categories.split(",")
    total = total_signal(dataset, sources)
    resid = residual_signal(dataset, args.fraction, categories, sources)
    return [
        {
            "timestamp": label,
            "region": dataset.region,
            "ci_g_per_kwh": ci,
            "residual_ci_g_per_kwh": ci_res,
        }
        for label, ci, ci_res in zip(_timestamp_labels(dataset), total, resid)
    ]


def _report_records(report) -> list[dict]:
    records = []
    for entry in report.consumers:
        records.append(
            {
                "record": "consumer",
                "id": entry.consumer_id,
                "region": entry.region,
                "method": entry.method,
                "demand_kwh": entry.demand_kwh,
                "cfe_claim_kwh": entry.cfe_claim_kwh,
                "over_claimed": entry.over_claimed,
                "location_cfe_kwh": entry.location_based.attributed_cfe_kwh,
                "location_ci_g_per_kwh": entry.location_based.ci_g_per_kwh,
                "location_emissions_g": entry.location_based.emissions_g,
                "market_cfe_kwh": entry.market_based.attributed_cfe_kwh,
                "market_ci_g_per_kwh": entry.market_based.ci_g_per_kwh,
                "market_emissions_g": entry.market_based.emissions_g,
            }
        )
    for summary in report.regions:
        records.append(
            {
                "record": "region",
                "id": summary.region,
                "region": summary.region,
                "ci_loc_g_per_kwh": summary.ci_loc_g_per_kwh,
                "ci_res_g_per_kwh": summary.ci_res_g_per_kwh,
                "total_energy_mwh": summary.total_energy_mwh,
                "carbon_free_energy_mwh": summary.carbon_free_energy_mwh,
                "contracted_cfe_mwh": summary.contracted_cfe_mwh,
                "over_contracted": ";".join(sorted(summary.over_contracted)),
            }
        )
    records.append(
        {"record": "grid", "double_counted_cfe_mwh": report.double_counted_cfe_mwh}
    )
    return records


def _scenario_from_args(args):
    if args.file:
        return load_scenario(args.file)
    if not args.name:
        raise ScenarioInvalid("name", "give a builtin scenario name or --file")
    return load_builtin_scenario(args.name)


def cmd_scenario(args) -> list[dict]:
    if args.list:
        return [{"record": "scenario", "name": name} for name in builtin_scenario_names()]
    scenario = _scenario_from_args(args)
    return _report_records(run_scenario(scenario))


def cmd_attribute(args) -> list[dict]:
    scenario = _scenario_from_args(args)
    report = run_scenario(scenario)
    records = []
    for entry in report.consumers:
        method = entry.method if args.method == "declared" else args.method
        result = entry.location_based if method == "location_based" else entry.market_based
        records.append(
            {
                "id": entry.consumer_id,
                "region": entry.region,
                "method": method,
                "demand_kwh": entry.demand_kwh,
                "attributed_cfe_kwh": result.attributed_cfe_kwh,
                "attributed_fossil_kwh": result.attributed_fossil_kwh,
                "ci_g_per_kwh": result.ci_g_per_kwh,
                "emissions_g": result.emissions_g,
            }
        )
    return records


def _data_paths(raw_paths: list[str]) -> list[Path]:
    paths = []
    for raw in raw_paths:
        path = Path(raw)
        if path.is_dir():
            paths.extend(sorted(path.glob("*.csv")))
        else:
            paths.append(path)
    if not paths:
        raise GridCarbonError("no CSV files found in the given paths")
    return paths


def cmd_penetration(args) -> list[dict]:
    sources = _registry(args)
    categories = args.categories.split(",")
    datasets = [_load_dataset(args, path) for path in _data_paths(args.data)]
    fleet = penetration_fleet(datasets, categories, sources, args.per_hour_mean)
    records = [
        {
            "record": "region",
            "region": stat.region,
            "total_generation_mwh": stat.total_generation_mwh,
            "solar_wind_mwh": stat.solar_wind_mwh,
            "solar_wind_pct": stat.solar_wind_pct,
        }
        for stat in fleet.stats
    ]
    records.extend(
        {"record": "cdf", "solar_wind_pct": value, "cumulative_fraction": fraction}
        for value, fraction in fleet.cdf
    )
    return records


def cmd_inflation(args) -> list[dict]:
    sources = _registry(args)
    dataset = _load_dataset(args)
    categories = args.categories.split(",")
    ci_loc = period_ci(dataset, sources, args.basis)
    ci_res = period_residual_ci(dataset, args.fraction, categories, sources, args.basis)
    return [
        {
            "region": dataset.region,
            "contract_fraction": args.fraction,
            "ci_g_per_kwh": ci_loc,
            "residual_ci_g_per_kwh": ci_res,
            "inflation_pct": inflation_pct(ci_loc, ci_res),
        }
    ]


def _load_signal(path: str, sources: SourceRegistry, basis: str):
    """A CI signal and its dataset from a mix CSV, or the signal and
    ``None`` from a bare (timestamp, ci) CSV."""
    signal = load_signal_csv(path)
    if signal is not None:
        return signal, None
    dataset = load_region_csv(path)
    return total_signal(dataset, sources, basis), dataset


def cmd_schedule(args) -> list[dict]:
    if args.actual and args.residual_fraction is not None:
        raise GridCarbonError("give either --actual or --residual-fraction, not both")
    if args.basis == "published" and args.residual_fraction is not None:
        raise GridCarbonError("--residual-fraction prices on emission factors; use --basis cef")
    sources = _registry(args)
    reported, dataset = _load_signal(args.signal, sources, args.basis)
    if args.actual:
        actual, _ = _load_signal(args.actual, sources, args.basis)
    elif args.residual_fraction is not None:
        if dataset is None:
            raise GridCarbonError(
                f"{args.signal}: --residual-fraction needs a mix CSV with source columns"
            )
        actual = residual_signal(dataset, args.residual_fraction, sources=sources)
    else:
        actual = reported
    window = None
    if args.window:
        window = _option("--window", args.window, _start_window, "LO:HI, two integer start indices")
    load = FlexibleLoad(
        energy_per_hour_kwh=args.energy_per_hour,
        duration_hours=args.duration,
        window=window,
        contiguous=not args.non_contiguous,
    )
    policy = int(args.policy) if args.policy.lstrip("-").isdecimal() else args.policy
    result = evaluate_schedule(_policy_hours(reported, load, policy), load, reported, actual)
    return [
        {
            "hours": ",".join(str(h) for h in result.hours),
            "reported_ci_avg_g_per_kwh": result.reported_ci_avg,
            "actual_ci_avg_g_per_kwh": result.actual_ci_avg,
            "reported_emissions_g": result.reported_emissions_g,
            "actual_emissions_g": result.actual_emissions_g,
            "difference_g_per_kwh": result.difference_g_per_kwh,
            "discrepancy_pct": result.discrepancy_pct,
        }
    ]


def cmd_fixtures(args) -> list[dict]:
    if args.action == "list":
        records = [
            {"record": "scenario", "name": name} for name in builtin_scenario_names()
        ]
        records.extend(
            {"record": "dataset", "name": name} for name in sorted(fixture_datasets())
        )
        return records
    paths = write_fixture_csvs(args.dir)
    return [{"record": "exported", "path": str(path)} for path in paths]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("json-records", "csv"),
        default="json-records",
        help="output format (default: json-records)",
    )
    parser.add_argument("--out", default="-", help="output path, '-' for stdout (default)")


def _add_ingest_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fill-policy", choices=FILL_POLICIES, default="drop-row")
    parser.add_argument("--strict", action="store_true", help="reject uneven timestamps")


def _add_dataset_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mix", required=True, help="region generation CSV")
    parser.add_argument("--region", default=None, help="region name (default: file stem)")
    _add_ingest_options(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridcarbon",
        description="Grid carbon intensity, residual-mix accounting, and scheduling tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ci", help="average CI per step and aggregate, optionally residual")
    _add_dataset_options(p)
    p.add_argument(
        "--contracts",
        default="none",
        help="none | all-solar-wind | solar-wind:<fraction> | contracts YAML path",
    )
    _add_common(p)
    p.set_defaults(handler=cmd_ci)

    p = sub.add_parser("residual", help="per-step residual CI for a contracted fraction")
    _add_dataset_options(p)
    p.add_argument("--fraction", type=float, required=True, help="contracted fraction in [0, 1]")
    p.add_argument("--categories", default="solar,wind")
    _add_common(p)
    p.set_defaults(handler=cmd_residual)

    p = sub.add_parser("scenario", help="run a bundled or user scenario, full dual report")
    p.add_argument("name", nargs="?", default=None, help="builtin scenario name")
    p.add_argument("--file", default=None, help="scenario YAML path")
    p.add_argument("--list", action="store_true", help="list builtin scenarios")
    _add_common(p)
    p.set_defaults(handler=cmd_scenario)

    p = sub.add_parser("attribute", help="flat per-consumer attribution for one method")
    p.add_argument("name", nargs="?", default=None, help="builtin scenario name")
    p.add_argument("--file", default=None, help="scenario YAML path")
    p.add_argument(
        "--method",
        choices=("declared", "location_based", "market_based"),
        default="declared",
    )
    _add_common(p)
    p.set_defaults(handler=cmd_attribute)

    p = sub.add_parser("penetration", help="solar+wind share per region plus fleet CDF")
    p.add_argument("--data", nargs="+", required=True, help="CSV files or directories")
    p.add_argument("--categories", default="solar,wind")
    p.add_argument("--per-hour-mean", action="store_true")
    _add_ingest_options(p)
    _add_common(p)
    p.set_defaults(handler=cmd_penetration)

    p = sub.add_parser("inflation", help="period CI increase when generation is contracted")
    _add_dataset_options(p)
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--categories", default="solar,wind")
    p.add_argument("--basis", choices=BASES, default="cef")
    _add_common(p)
    p.set_defaults(handler=cmd_inflation)

    p = sub.add_parser("schedule", help="place a flexible load and price it on two signals")
    p.add_argument("--signal", required=True, help="CI signal CSV or region mix CSV")
    p.add_argument("--actual", default=None, help="second signal CSV for the actual CI")
    p.add_argument(
        "--residual-fraction",
        type=float,
        default=None,
        help="derive the actual signal from --signal with this fraction contracted",
    )
    p.add_argument("--duration", type=int, required=True, help="hours the load runs")
    p.add_argument("--energy-per-hour", type=float, default=1.0, help="kWh drawn per hour")
    p.add_argument("--window", default=None, help="allowed start indices as LO:HI")
    p.add_argument("--non-contiguous", action="store_true")
    p.add_argument(
        "--policy",
        default="best_window",
        help="best_window | worst_window | fixed start index",
    )
    p.add_argument("--basis", choices=BASES, default="cef")
    _add_common(p)
    p.set_defaults(handler=cmd_schedule)

    p = sub.add_parser("fixtures", help="list or export the bundled fixtures")
    p.add_argument("action", choices=("list", "export"))
    p.add_argument("--dir", default="fixtures", help="export directory")
    _add_common(p)
    p.set_defaults(handler=cmd_fixtures)

    for name in ("ci", "residual", "penetration", "inflation", "schedule"):  # they read CSVs
        sub.choices[name].add_argument(
            "--cef",
            default=None,
            help=f"YAML table of per-category CEF overrides (default: ${CEF_TABLE_ENV})",
        )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A run builds large acyclic data (YAML nodes, 8760-row columns, output
    # records) that reference counting frees; the cyclic collector would
    # only walk it again and again as it grows.
    collecting = gc.isenabled()
    gc.disable()
    try:
        records = args.handler(args)
        _emit(records, args.format, args.out)
    except (GridCarbonError, ValueError, yaml.YAMLError) as exc:
        return _fail(exc, 1)
    except OSError as exc:
        return _fail(exc, 2)
    finally:
        if collecting:
            gc.enable()
    return 0


def _fail(exc: Exception, code: int) -> int:
    """Report an error as one ``error:`` line; YAML errors span several lines."""
    print("error: " + " ".join(line.strip() for line in str(exc).splitlines()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
