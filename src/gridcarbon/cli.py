"""Command-line interface.

Every subcommand reads CSVs/YAML, computes with the library, and emits
machine-readable records as JSON lines (default) or CSV. Output is
deterministic: stable record ordering and floats at six significant
digits, so identical inputs produce byte-identical files.

Exit codes: 0 success, 1 validation/domain error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from pathlib import Path

from .contracts import _residual_dataset, contracts_for_fraction
from .errors import GridCarbonError, ParseError, ScenarioInvalid
from .fixtures import fixture_datasets, write_fixture_csvs
from .grid import SourceRegistry
from .ingest import BASES, FILL_POLICIES, _timestamp_labels, load_region_csv, load_signal_csv
from .scenarios import (
    builtin_scenario_names,
    load_builtin_scenario,
    load_cef_table,
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
from .yamlscan import _read_yaml

CEF_TABLE_ENV = "GRIDCARBON_CEF_TABLE"


def _size(block: dict) -> int:
    """A block's record count: the length of its columns, or 1 without one."""
    return next((len(value) for value in block.values() if isinstance(value, (list, tuple))), 1)


class Records:
    """A command's output records as blocks of one shape each, in record
    order. A block maps each key to a column (a list or tuple, one value
    per record) or to a constant that all of its records share; a block
    with no column is one record. ``len()`` counts records."""

    def __init__(self, *blocks: dict) -> None:
        self.blocks = blocks

    def __len__(self) -> int:
        return sum(map(_size, self.blocks))


def _texts(values, kind: type | None, as_json: bool, lone: bool) -> tuple[str, list]:
    """``values``, all of type ``kind`` unless it is ``None``, as the format
    writes them, a column at a time: the template field one of them fills
    and the texts that fill it. Floats are at 6 significant digits: the
    ``%.6g`` text in CSV, in JSON the shortest repr of that value. CSV
    quotes as ``csv.writer`` does; ``lone`` marks a row of one field, where
    it quotes an empty one."""
    if kind is None:  # mixed types, one value at a time
        return "%s", [field % texts[0] for field, texts in (_texts((v,), type(v), as_json, lone) for v in values)]
    if issubclass(kind, float):
        lines = ("%.6g\n" * len(values)) % tuple(values)
        texts = lines.split()
        if not as_json:
            return "%s", texts
        if "e" in lines:  # repr writes 1e+06 as 1000000.0, 4.94066e-324 as 5e-324
            return "%s", list(map(float.__repr__, map(float, texts)))
        return "%s", [text if "." in text else text + ".0" for text in texts]
    if as_json:
        if not issubclass(kind, str):  # bool, int or None: no text holds ", "
            return "%s", json.dumps(list(values))[1:-1].split(", ")
        joined = "".join(values)
        if len(encode_basestring_ascii(joined)) == len(joined) + 2:  # nothing to escape
            return '"%s"', values
        return "%s", list(map(encode_basestring_ascii, values))
    texts = values if issubclass(kind, str) else ["" if value is None else str(value) for value in values]
    joined = "".join(texts)
    if any(char in joined for char in ',"\r\n') or lone and not all(texts):
        texts = [_csv_field(text, lone) for text in texts]
    return "%s", texts


def _csv_field(text: str, lone: bool) -> str:
    """``text`` as ``csv.writer`` writes a field: quoted, its quotes doubled,
    when it holds a delimiter, a quote or a line break, or when it is the
    empty field of a ``lone`` one-field row."""
    if any(char in text for char in ',"\r\n') or lone and not text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _first_nonfinite(values, kind: type | None) -> int | None:
    """The index of the first non-finite float among ``values``, or ``None``."""
    if kind is not None and (not issubclass(kind, float) or math.isfinite(sum(values))):
        return None
    return next((i for i, v in enumerate(values) if isinstance(v, float) and not math.isfinite(v)), None)


def _emit(records: Records, fmt: str, out: str) -> None:
    """Write the records as JSON lines or CSV a column at a time: each
    column becomes its texts, and a block's records are one ``%`` format of
    its record template repeated, with its constants in the template. CSV's
    header is the union of the keys in record order, with "" where a
    record lacks one. The first non-finite float in record order is an
    error naming its key."""
    as_json = fmt == "json-records"
    blocks = [(size, block) for block in records.blocks if (size := _size(block))]
    header = list(dict.fromkeys(key for _, block in blocks for key in block))
    lone = not as_json and len(header) == 1
    parts = [] if as_json else [",".join(_csv_field(key, lone) for key in header) + "\r\n"]
    for size, block in blocks:
        items, bad = [], []
        for key, value in block.items():
            values = value if isinstance(value, (list, tuple)) else (value,)
            kinds = set(map(type, values))
            kind = kinds.pop() if len(kinds) == 1 else None
            if (i := _first_nonfinite(values, kind)) is not None:
                bad.append((i, key, values[i]))
            items.append((key, values is value, values, kind))
        if bad:
            _, key, value = min(bad, key=itemgetter(0))
            raise GridCarbonError(f"{key} is {value}, which the output cannot represent")
        fields, columns = {}, {}
        for key, is_column, values, kind in items:
            field, texts = _texts(values, kind, as_json, lone)
            if is_column:
                fields[key], columns[key] = field, texts
            else:
                fields[key] = (field % texts[0]).replace("%", "%%")
        keys = fields if as_json else header
        if as_json:
            template = "{" + ", ".join(
                f"{encode_basestring_ascii(key).replace('%', '%%')}: {fields[key]}" for key in keys
            ) + "}\n"
        else:
            template = ",".join(fields.get(key, '""' if lone else "") for key in keys) + "\r\n"
        rows = zip(*(columns[key] for key in keys if key in columns))
        parts.append((template * size) % tuple(chain.from_iterable(rows)))
    text = "".join(parts)
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _registry(args) -> SourceRegistry:
    """The sources priced on the --cef table when one is given, else on
    $GRIDCARBON_CEF_TABLE when it is set and not empty, else the defaults."""
    if args.cef == "":
        raise GridCarbonError("--cef: expected a YAML table path, got ''")
    path = args.cef or os.environ.get(CEF_TABLE_ENV)
    if not path:
        return SourceRegistry.default()
    return SourceRegistry.default(load_cef_table(path))


def _load_csv(load, path, **options):
    """``load(path, **options)``, with a ParseError naming the file, as a
    SchemaError does."""
    try:
        return load(path, **options)
    except ParseError as exc:
        exc.args = (f"{Path(path)}: {exc}",)
        raise


def _load_dataset(args, path=None):
    return _load_csv(
        load_region_csv,
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


def _columns(items, **attributes: str) -> dict:
    """Columns of a block: each key's column holds that attribute (a dotted
    path, as ``attrgetter`` reads it) of every item."""
    return {key: list(map(attrgetter(name), items)) for key, name in attributes.items()}


def cmd_ci(args) -> Records:
    sources = _registry(args)
    dataset = _load_dataset(args)
    contracts = _parse_contracts_arg(args.contracts, dataset, sources)
    steps = {
        "timestamp": _timestamp_labels(dataset),
        "region": dataset.region,
        "ci_g_per_kwh": total_signal(dataset, sources),
    }
    aggregate = {
        "timestamp": "aggregate",
        "region": dataset.region,
        "ci_g_per_kwh": period_ci(dataset, sources),
    }
    if contracts is not None:
        residual = _residual_dataset(dataset, contracts, sources)
        steps["residual_ci_g_per_kwh"] = ["" if ci is None else ci for ci in _ci_steps(residual, sources, dataset)]
        ci_res = energy_weighted_ci(residual, sources)
        aggregate["residual_ci_g_per_kwh"] = "" if ci_res is None else ci_res
    return Records(steps, aggregate)


def cmd_residual(args) -> Records:
    sources = _registry(args)
    dataset = _load_dataset(args)
    categories = args.categories.split(",")
    total = total_signal(dataset, sources)
    resid = residual_signal(dataset, args.fraction, categories, sources)
    return Records(
        {
            "timestamp": _timestamp_labels(dataset),
            "region": dataset.region,
            "ci_g_per_kwh": total,
            "residual_ci_g_per_kwh": resid,
        }
    )


def _report_records(report) -> Records:
    consumers = _columns(
        report.consumers, id="consumer_id", region="region", method="method", demand_kwh="demand_kwh",
        cfe_claim_kwh="cfe_claim_kwh", over_claimed="over_claimed",
        location_cfe_kwh="location_based.attributed_cfe_kwh", location_ci_g_per_kwh="location_based.ci_g_per_kwh",
        location_emissions_g="location_based.emissions_g", market_cfe_kwh="market_based.attributed_cfe_kwh",
        market_ci_g_per_kwh="market_based.ci_g_per_kwh", market_emissions_g="market_based.emissions_g",
    )
    regions = _columns(
        report.regions, id="region", region="region", ci_loc_g_per_kwh="ci_loc_g_per_kwh",
        ci_res_g_per_kwh="ci_res_g_per_kwh", total_energy_mwh="total_energy_mwh",
        carbon_free_energy_mwh="carbon_free_energy_mwh", contracted_cfe_mwh="contracted_cfe_mwh",
    )
    regions["over_contracted"] = [";".join(sorted(summary.over_contracted)) for summary in report.regions]
    return Records(
        {"record": "consumer", **consumers},
        {"record": "region", **regions},
        {"record": "grid", "double_counted_cfe_mwh": report.double_counted_cfe_mwh},
    )


def _scenario_from_args(args):
    if args.name is not None and args.file is not None:
        raise GridCarbonError("give either a scenario name or --file, not both")
    if args.file:
        return load_scenario(args.file)
    if not args.name:
        raise ScenarioInvalid("name", "give a builtin scenario name or --file")
    return load_builtin_scenario(args.name)


def cmd_scenario(args) -> Records:
    if args.list:
        if args.name is not None or args.file is not None:
            raise GridCarbonError("--list takes no scenario name or --file")
        return Records({"record": "scenario", "name": builtin_scenario_names()})
    scenario = _scenario_from_args(args)
    return _report_records(run_scenario(scenario))


def cmd_attribute(args) -> Records:
    entries = run_scenario(_scenario_from_args(args)).consumers
    declared = args.method == "declared"
    results = [entry.selected if declared else getattr(entry, args.method) for entry in entries]
    return Records(
        {
            **_columns(entries, id="consumer_id", region="region"),
            "method": [entry.method for entry in entries] if declared else args.method,
            **_columns(entries, demand_kwh="demand_kwh"),
            **_columns(
                results, attributed_cfe_kwh="attributed_cfe_kwh", attributed_fossil_kwh="attributed_fossil_kwh",
                ci_g_per_kwh="ci_g_per_kwh", emissions_g="emissions_g",
            ),
        }
    )


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


def cmd_penetration(args) -> Records:
    if args.cef is not None:  # a share of generation reads each source's category, never its CEF
        _registry(args)  # an empty --cef gets the error every command gives it
        raise GridCarbonError("--cef: penetration prices nothing on emission factors")
    categories = args.categories.split(",")
    datasets = (_load_dataset(args, path) for path in _data_paths(args.data))
    fleet = penetration_fleet(datasets, categories, per_hour_mean=args.per_hour_mean)
    stats = _columns(
        fleet.stats, region="region", total_generation_mwh="total_generation_mwh",
        solar_wind_mwh="solar_wind_mwh", solar_wind_pct="solar_wind_pct",
    )
    values, fractions = zip(*fleet.cdf)
    return Records(
        {"record": "region", **stats},
        {"record": "cdf", "solar_wind_pct": values, "cumulative_fraction": fractions},
    )


def cmd_inflation(args) -> Records:
    sources = _registry(args)
    if args.cef and args.basis == "published":
        raise GridCarbonError("--cef prices a mix on --basis cef, not on --basis published")
    dataset = _load_dataset(args)
    categories = args.categories.split(",")
    ci_loc = period_ci(dataset, sources, args.basis)
    ci_res = period_residual_ci(dataset, args.fraction, categories, sources, args.basis)
    return Records(
        {
            "region": dataset.region,
            "contract_fraction": args.fraction,
            "ci_g_per_kwh": ci_loc,
            "residual_ci_g_per_kwh": ci_res,
            "inflation_pct": inflation_pct(ci_loc, ci_res),
        }
    )


def _load_signal(path: str, sources: SourceRegistry, basis: str):
    """A CI signal and its dataset from a mix CSV, or the signal and
    ``None`` from a bare (timestamp, ci) CSV."""
    signal = _load_csv(load_signal_csv, path)
    if signal is not None:
        return signal, None
    dataset = _load_csv(load_region_csv, path)
    return total_signal(dataset, sources, basis), dataset


def cmd_schedule(args) -> Records:
    if args.actual and args.residual_fraction is not None:
        raise GridCarbonError("give either --actual or --residual-fraction, not both")
    if args.basis == "published" and args.residual_fraction is not None:
        raise GridCarbonError("--residual-fraction prices on emission factors; use --basis cef")
    sources = _registry(args)
    loaded = [_load_signal(path, sources, args.basis or "cef") for path in (args.signal, args.actual) if path]
    bare = all(mix is None for _, mix in loaded)
    if args.cef and (args.basis == "published" or bare):
        raise GridCarbonError("--cef prices a mix CSV on --basis cef, and no signal here is one")
    if args.basis and bare:
        raise GridCarbonError("--basis prices a mix CSV, and no signal here is one")
    (reported, dataset), *given = loaded
    if args.residual_fraction is not None:
        if dataset is None:
            raise GridCarbonError(
                f"{args.signal}: --residual-fraction needs a mix CSV with source columns"
            )
        actual = residual_signal(dataset, args.residual_fraction, sources=sources)
    else:
        actual = given[0][0] if given else reported
    window = None
    if args.window:
        window = _option("--window", args.window, _start_window, "LO:HI, two integer start indices")
    load = FlexibleLoad(
        energy_per_hour_kwh=args.energy_per_hour,
        duration_hours=args.duration,
        window=window,
        contiguous=not args.non_contiguous,
    )
    policy = int(args.policy) if args.policy.removeprefix("-").isdecimal() else args.policy
    result = evaluate_schedule(_policy_hours(reported, load, policy), load, reported, actual)
    return Records(
        {
            "hours": ",".join(str(h) for h in result.hours),
            "reported_ci_avg_g_per_kwh": result.reported_ci_avg,
            "actual_ci_avg_g_per_kwh": result.actual_ci_avg,
            "reported_emissions_g": result.reported_emissions_g,
            "actual_emissions_g": result.actual_emissions_g,
            "difference_g_per_kwh": result.difference_g_per_kwh,
            "discrepancy_pct": result.discrepancy_pct,
        }
    )


def cmd_fixtures(args) -> Records:
    if args.action == "list":
        if args.dir is not None:
            raise GridCarbonError("fixtures list takes no --dir")
        return Records(
            {"record": "scenario", "name": builtin_scenario_names()},
            {"record": "dataset", "name": sorted(fixture_datasets())},
        )
    paths = write_fixture_csvs("fixtures" if args.dir is None else args.dir)
    return Records({"record": "exported", "path": [str(path) for path in paths]})


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
    p.add_argument("--basis", choices=BASES, default=None, help="for a mix CSV (default: cef)")
    _add_common(p)
    p.set_defaults(handler=cmd_schedule)

    p = sub.add_parser("fixtures", help="list or export the bundled fixtures")
    p.add_argument("action", choices=("list", "export"))
    p.add_argument("--dir", help="export directory (default: fixtures)")
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
    except (GridCarbonError, ValueError) as exc:
        return _fail(exc, 1)
    except OSError as exc:
        return _fail(exc, 2)
    except Exception as exc:
        yaml = sys.modules.get("yaml")  # only a run that read YAML imported it
        if yaml is None or not isinstance(exc, yaml.YAMLError):
            raise
        return _fail(exc, 1)
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
