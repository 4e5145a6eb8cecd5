"""Operations, inputs and output checks of the three benchmark workloads.

Each workload is a closed loop: one client sends one operation at a time
and the next only after the previous one has completed.

- ``year-cli``: one CLI subprocess per operation over a fleet of year-long
  hourly region CSVs. Ingest, per-step grid and fraction-contract work,
  period statistics and record emission do nearly all the work.
- ``attribution-scale``: the ``scenario`` and ``attribute`` commands on
  generated ten-region scenarios of 100, 300 and twice 1000 consumers and
  as many contracts, plus the six bundled scenarios by name. Contract
  allocation, attribution and YAML decoding do nearly all the work.
- ``schedule-queries``: in-process library calls. The CSVs are loaded and
  both signals computed once during set-up, then a seeded stream of
  scheduling queries runs against them, so the scheduler does nearly all
  the work.

An operation is built once as a JSON-able dict (``key``, ``argv``,
``items``, ``check``) so that the subprocess runner and the in-process
traced runner execute and check exactly the same operations.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import gen

WORKLOADS = ("year-cli", "attribution-scale", "schedule-queries")
DEFAULT_SEED = 1
YEAR_REGIONS = 6
SCHEDULE_REGIONS = 3
# Consumers (and contracts) of the generated scenarios. The largest size
# runs twice, with public_signal_adjusted false and true.
SCENARIO_SIZES = (100, 300, 1000, 1000)
SCENARIO_REGIONS = 10
FRACTION = "0.8"
SCHEDULE_DURATION = 24
BUNDLED_SCENARIOS = (
    "commercial-case-1",
    "commercial-case-2",
    "commercial-case-3",
    "residential-case-1",
    "residential-case-2",
    "residential-case-3",
)
# What the console script ``gridcarbon`` runs.
CLI_ENTRY = "import sys; from gridcarbon.cli import main; sys.exit(main())"
# The trivial invocation whose cost is the CLI workloads' set-up time.
SETUP_ARGV = ("scenario", "--list")
# One set-up invocation runs before every this many operations.
OPS_PER_SETUP = 3
# The schedule-queries digest covers this many queries of the default seed.
PINNED_QUERIES = 180
GOLDEN_PATH = Path(__file__).with_name("golden.json")


def _worst_window_avg(kept: tuple[tuple[float, ...], ...], duration: int) -> float:
    signal = [gen.average_ci(row) for row in kept]
    window = sum(signal[:duration])
    worst = window
    for start in range(1, len(signal) - duration + 1):
        window += signal[start + duration - 1] - signal[start - 1]
        worst = max(worst, window)
    return worst / duration


def _year_ops(files: list[gen.RegionFile], fleet_dir: str) -> list[list[dict]]:
    """Passes of nine operations; pass ``p`` starts at region ``p``.

    The two fleet-wide penetration operations, the slowest, are two ninths
    of a pass, so that op_ms.p90 falls inside them rather than at their edge.
    """
    kinds = (
        ("ci", ["ci"], {"kind": "ci", "residual": False, "format": "json"}),
        ("ci-all", ["ci", "--contracts", "all-solar-wind"], {"kind": "ci", "residual": True, "format": "json"}),
        (
            "ci-csv-half",
            ["ci", "--format", "csv", "--contracts", "solar-wind:0.5"],
            {"kind": "ci", "residual": True, "format": "csv"},
        ),
        ("residual", ["residual", "--fraction", FRACTION], {"kind": "residual"}),
        ("inflation-cef", ["inflation", "--fraction", FRACTION, "--basis", "cef"], {"kind": "inflation"}),
        (
            "inflation-published",
            ["inflation", "--fraction", FRACTION, "--basis", "published"],
            {"kind": "inflation"},
        ),
        (
            "schedule",
            ["schedule", "--residual-fraction", FRACTION, "--duration", str(SCHEDULE_DURATION)],
            {"kind": "schedule"},
        ),
    )
    worst = {f.region: _worst_window_avg(f.kept, SCHEDULE_DURATION) for f in files}
    passes = []
    for first in range(len(files)):
        ops = []
        for offset, (name, args, check) in enumerate(kinds):
            region = files[(first + offset) % len(files)]
            path = f"{fleet_dir}/{region.path.name}"
            flag = "--signal" if args[0] == "schedule" else "--mix"
            check = dict(check, rows=len(region.kept))
            if name == "schedule":
                check["worst_avg"] = worst[region.region]
            ops.append(
                {
                    "key": f"{name}@{region.region}",
                    "argv": [args[0], flag, path, *args[1:]],
                    "items": len(region.kept),
                    "check": check,
                }
            )
        for name, extra in (("penetration", []), ("penetration-hourly", ["--per-hour-mean"])):
            ops.append(
                {
                    "key": name,
                    "argv": ["penetration", "--data", fleet_dir, *extra],
                    "items": sum(len(f.kept) for f in files),
                    "check": {"kind": "penetration", "regions": len(files)},
                }
            )
        passes.append(ops)
    return passes


def _attribution_ops(work: Path, seed: int) -> list[list[dict]]:
    """Four passes of eight operations: one size-1000 operation, one of a
    smaller scenario and six bundled ones.

    The quick bundled operations are three quarters of every pass, so
    op_ms.p50 falls well inside them, and the size-1000 ones an eighth,
    so op_ms.p90 falls inside them. A pass takes a few seconds, so a run
    holds several of each.
    """
    generated = []
    for index, size in enumerate(SCENARIO_SIZES):
        scenario = gen.scenario_yaml(
            seed, size, size, SCENARIO_REGIONS, public_signal_adjusted=index % 2 == 1
        )
        name = f"scenario-{index}-{size}.yaml"
        (work / name).write_text(scenario.text, encoding="utf-8")
        check = {"consumers": size, "regions": SCENARIO_REGIONS, "full": sorted(scenario.fully_contracted)}
        generated += [
            {
                "key": f"scenario@{index}-{size}",
                "argv": ["scenario", "--file", name],
                "items": size,
                "check": dict(check, kind="report"),
            },
            {
                "key": f"attribute@{index}-{size}",
                "argv": ["attribute", "--file", name, "--method", "market_based"],
                "items": size,
                "check": dict(check, kind="attribute"),
            },
        ]
    bundled = []
    for name in BUNDLED_SCENARIOS:
        # Bundled outputs do not depend on the seed, so their pinned digests
        # are checked on every seed.
        for fmt, flags, tag in (("json", [], ""), ("csv", ["--format", "csv"], ":csv")):
            check = {"consumers": None, "regions": None, "full": [], "any_seed": True, "format": fmt}
            bundled += [
                {
                    "key": f"scenario@{name}{tag}",
                    "argv": ["scenario", name, *flags],
                    "items": None,
                    "check": dict(check, kind="report"),
                },
                {
                    "key": f"attribute@{name}{tag}",
                    "argv": ["attribute", name, "--method", "market_based", *flags],
                    "items": None,
                    "check": dict(check, kind="attribute"),
                },
            ]
    small, large = generated[:4], generated[4:]
    quick = len(bundled) // len(large)
    return [
        [large[i], small[i], *bundled[quick * i : quick * (i + 1)]] for i in range(len(large))
    ]


def prepare(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs under ``work`` and describe its operations.

    Paths in the operations are relative to ``work``, which is the
    working directory of every operation.
    """
    work.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"workload": workload, "seed": seed}
    if workload == "year-cli":
        files = gen.write_year_fleet(seed, work / "fleet", YEAR_REGIONS)
        manifest["passes"] = _year_ops(files, "fleet")
        manifest["traced"] = manifest["passes"][0]
    elif workload == "attribution-scale":
        manifest["passes"] = _attribution_ops(work, seed)
        manifest["traced"] = [op for ops in manifest["passes"] for op in ops]
    elif workload == "schedule-queries":
        files = gen.write_year_fleet(seed, work / "fleet", SCHEDULE_REGIONS)
        manifest["csvs"] = [f"fleet/{f.path.name}" for f in files]
        manifest["fraction"] = float(FRACTION)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return manifest


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _records(out: str, fmt: str) -> list[dict]:
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(out)))
    return [json.loads(line) for line in out.splitlines()]


def _number(value) -> float | None:
    return None if value == "" else float(value)


def _check_ci(check: dict, records: list[dict]) -> str | None:
    if len(records) != check["rows"] + 1:
        return f"{len(records)} records for {check['rows']} kept rows plus aggregate"
    if records[-1]["timestamp"] != "aggregate":
        return "last record is not the aggregate"
    if check["residual"]:
        for record in records:
            residual = _number(record["residual_ci_g_per_kwh"])
            if residual is not None and residual < float(record["ci_g_per_kwh"]):
                return f"residual CI below average CI at {record['timestamp']}"
    return None


def _check_report(check: dict, records: list[dict]) -> str | None:
    consumers = [r for r in records if r.get("record") == "consumer"]
    regions = [r for r in records if r.get("record") == "region"]
    if check["consumers"] is not None and len(consumers) != check["consumers"]:
        return f"{len(consumers)} consumer records, expected {check['consumers']}"
    if check["regions"] is not None and len(regions) != check["regions"]:
        return f"{len(regions)} region records, expected {check['regions']}"
    if not records or records[-1].get("record") != "grid":
        return "missing grid record"
    for region in regions:
        if float(region["ci_res_g_per_kwh"]) < float(region["ci_loc_g_per_kwh"]):
            return f"region {region['id']}: residual CI below location CI"
    full = set(check["full"])
    for consumer in consumers:
        if consumer["id"] in full and float(consumer["market_ci_g_per_kwh"]) != 0:
            return f"fully contracted buyer {consumer['id']} has market CI {consumer['market_ci_g_per_kwh']}"
    return None


def _check_attribute(check: dict, records: list[dict]) -> str | None:
    if check["consumers"] is not None and len(records) != check["consumers"]:
        return f"{len(records)} records, expected {check['consumers']}"
    full = set(check["full"])
    for record in records:
        if record["method"] != "market_based":
            return f"consumer {record['id']} reported under {record['method']}"
        if record["id"] in full and float(record["ci_g_per_kwh"]) != 0:
            return f"fully contracted buyer {record['id']} has market CI {record['ci_g_per_kwh']}"
    return None


def _check_records(check: dict, records: list[dict]) -> str | None:
    kind = check["kind"]
    if kind == "ci":
        return _check_ci(check, records)
    if kind == "residual":
        if len(records) != check["rows"]:
            return f"{len(records)} records for {check['rows']} kept rows"
        for record in records:
            if record["residual_ci_g_per_kwh"] < record["ci_g_per_kwh"]:
                return f"residual CI below average CI at {record['timestamp']}"
        return None
    if kind == "inflation":
        (record,) = records
        if record["inflation_pct"] < 0 or record["residual_ci_g_per_kwh"] < record["ci_g_per_kwh"]:
            return f"negative inflation: {record}"
        return None
    if kind == "schedule":
        (record,) = records
        if len(record["hours"].split(",")) != SCHEDULE_DURATION:
            return f"schedule has {record['hours']!r}"
        # Outputs carry six significant digits.
        if record["reported_ci_avg_g_per_kwh"] > check["worst_avg"] * (1 + 1e-5):
            return "best window costs more than the worst window"
        if record["actual_ci_avg_g_per_kwh"] < record["reported_ci_avg_g_per_kwh"]:
            return "residual signal below total signal on the chosen hours"
        return None
    if kind == "penetration":
        regions = [r for r in records if r["record"] == "region"]
        cdf = [r for r in records if r["record"] == "cdf"]
        if len(regions) != check["regions"] or not cdf or cdf[-1]["cumulative_fraction"] != 1.0:
            return "penetration records incomplete"
        if any(not 0 <= r["solar_wind_pct"] <= 100 for r in regions):
            return "penetration outside [0, 100]"
        return None
    if kind == "report":
        return _check_report(check, records)
    if kind == "attribute":
        return _check_attribute(check, records)
    raise ValueError(f"unknown check {kind!r}")


def check_op(op: dict, returncode: int, out: bytes, err: bytes, seed: int, golden: dict) -> str | None:
    """Why the operation failed, or None when its output is correct."""
    if returncode != 0:
        return f"exit code {returncode}: {err.decode(errors='replace')[-300:]}"
    if b"Traceback" in err:
        return "traceback on stderr"
    check = op["check"]
    if seed == DEFAULT_SEED or check.get("any_seed"):
        expected = golden.get(op["key"])
        if expected is None:
            return "no pinned output for this operation"
        if digest(out) != expected:
            return "stdout differs from the pinned output"
    try:
        return _check_records(check, _records(out.decode("utf-8"), check.get("format", "json")))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparseable output: {exc!r}"


def consumers_in(out: bytes, op: dict) -> int:
    """Consumers an attribution operation attributed (its items)."""
    check = op["check"]
    records = _records(out.decode("utf-8"), check.get("format", "json"))
    if check["kind"] == "attribute":
        return len(records)
    return sum(1 for record in records if record.get("record") == "consumer")


def run_query(api, signals: list[tuple[tuple[float, ...], tuple[float, ...]]], query) -> tuple:
    """One scheduling query: place the load on the total signal, price it
    on the residual signal, and compute the shift savings on both."""
    region, duration, contiguous, window = query
    total, residual = signals[region]
    load = api.FlexibleLoad(1000.0, duration, window, contiguous)
    hours = api.best_window(total, load)
    result = api.evaluate_schedule(hours, load, total, residual)
    return (
        result.hours,
        result.reported_ci_avg,
        result.actual_ci_avg,
        api.shift_savings(total, load),
        api.shift_savings(residual, load),
    )


def check_query(result: tuple) -> str | None:
    hours, reported, actual, saving_total, saving_residual = result
    if saving_total < 0 or saving_residual < 0:
        return "best window costs more than the worst window"
    if actual < reported:
        return "residual signal below total signal on the chosen hours"
    if any(math.isnan(v) for v in (reported, actual, saving_total, saving_residual)):
        return "NaN in query result"
    return None


def query_digest(results: list[tuple]) -> str:
    return digest(repr(results).encode("utf-8"))
