"""Float-exact pins on realistic data: one SHA-256 per result family.

The golden CLI digests are taken from output rounded to six significant
digits, on small inputs, so a change that moves the last bits of a result
passes them. These pins hash full-precision values (``float.hex``) of a
seeded year fleet and a 1000-consumer, 1000-contract scenario, so any such
change fails here. A pin changes only with an intended result change, named
in CHANGES.md.

The inputs come from this file's own stdlib generator, which draws only
``random.Random.random()`` from string seeds, so the same bytes are written
on every Python. Three of the six regions vary the text the loader reads: one
has CRLF line breaks, one has two rows out of order and one pads its
timestamps with spaces.
"""

from __future__ import annotations

import hashlib
import math
import random
from datetime import datetime, timedelta, timezone

import pytest

from gridcarbon import (
    Consumer,
    Contract,
    FlexibleLoad,
    GridMix,
    best_window,
    build_report,
    load_region_csv,
    penetration_fleet,
    period_ci,
    period_residual_ci,
    residual_signal,
    total_signal,
)

HOURS = 8760
REGIONS = 6
HEADER = ("timestamp", "solar", "wind", "hydro", "nuclear", "gas", "coal", "net_import_mwh", "ci_g_per_kwh")
CEF = {"gas": 490.0, "coal": 1000.0}
START = datetime(2023, 1, 1, tzinfo=timezone.utc)

# Each region has one column the loader ignores, with a warning.
pytestmark = pytest.mark.filterwarnings("ignore:.*ignoring unrecognized columns")


def _region_text(index: int) -> str:
    """One region's year CSV: a diurnal solar shape, a wandering wind, a few
    blank cells and a few hours without fossil generation."""
    rng = random.Random(f"pins:region:{index}")
    draw = rng.random
    solar_cap, wind_mean = 200.0 + 700.0 * draw(), 150.0 + 550.0 * draw()
    hydro_base, demand_base = 30.0 + 220.0 * draw(), 1500.0 + 1500.0 * draw()
    nuclear = 0.0 if draw() < 0.5 else 200.0 + 400.0 * draw()
    gas_share = 0.3 + 0.6 * draw()
    blank = {int(draw() * HOURS) for _ in range(24)}
    carbon_free = {int(draw() * HOURS) for _ in range(4)}
    wind = wind_mean
    lines = [",".join(HEADER)]
    for hour in range(HOURS):
        day, hod = divmod(hour, 24)
        season = 1.0 + 0.3 * math.cos(2.0 * math.pi * (day - 172) / 365.0)
        solar = solar_cap * max(0.0, math.sin(math.pi * (hod - 6) / 12.0)) * season * (0.4 + 0.6 * draw())
        wind = max(0.0, wind + 0.15 * (wind_mean - wind) + 0.2 * wind_mean * (draw() - 0.5))
        hydro = hydro_base * (1.0 + 0.2 * math.sin(2.0 * math.pi * day / 365.0))
        demand = demand_base * (1.0 + 0.15 * math.sin(math.pi * (hod - 9) / 12.0))
        if hour in carbon_free:
            fossil = 0.0
            hydro = max(hydro, demand - solar - wind - nuclear)
        else:
            fossil = max(0.05 * demand, demand - solar - wind - hydro - nuclear)
        generation = [solar, wind, hydro, nuclear, fossil * gas_share, fossil * (1.0 - gas_share)]
        ci = (generation[4] * CEF["gas"] + generation[5] * CEF["coal"]) / math.fsum(generation)
        stamp = (START + timedelta(hours=hour)).strftime("%Y-%m-%dT%H:%M:%SZ")
        if index == 5:
            stamp = f" {stamp} "
        cells = [stamp, *(f"{v:.3f}" for v in generation), f"{200.0 * draw() - 100.0:.1f}"]
        cells.append(f"{ci * (0.97 + 0.06 * draw()):.2f}")
        if hour in blank:
            cells[1 + int(draw() * (len(cells) - 1))] = ""
        lines.append(",".join(cells))
    if index == 4:
        lines[100], lines[101] = lines[101], lines[100]
    return ("\r\n" if index == 3 else "\n").join(lines) + "\n"


def _scenario(consumers: int, contracts: int, regions: int = 10):
    """Mixes of ``regions`` regions with fossil generation in each, and seeded
    consumers and carbon-free contracts; a few sources are over-contracted."""
    rng = random.Random(f"pins:scenario:{consumers}:{contracts}:{regions}")
    draw = rng.random
    names = [f"r{i}" for i in range(regions)]
    mixes = {
        name: GridMix(
            region=name,
            generation={
                source: round(scale * draw(), 3)
                for source, scale in (("solar", 900.0), ("wind", 900.0), ("hydro", 300.0), ("nuclear", 600.0))
            }
            | {"gas": round(100.0 + 900.0 * draw(), 3), "coal": round(50.0 + 500.0 * draw(), 3)},
        )
        for name in names
    }
    people = [
        Consumer(
            id=f"c{i}",
            region=names[int(draw() * regions)],
            demand_kwh=round(1_000.0 + 99_000.0 * draw(), 1),
            method="market_based" if draw() < 0.5 else "location_based",
        )
        for i in range(consumers)
    ]
    deals = []
    for i in range(contracts):
        region = names[int(draw() * regions)]
        source = ("solar", "wind", "hydro", "nuclear")[int(draw() * 4)]
        # About one contract in forty claims up to half its source's
        # generation, so some sources end up over-contracted.
        share = 0.5 if draw() < 0.025 else 0.02
        deals.append(
            Contract(
                id=f"k{i}",
                buyer=people[int(draw() * consumers)].id,
                kind="financial" if draw() < 0.5 else "rec",
                source_id=source,
                source_region=region,
                energy_mwh=round(share * mixes[region].generation[source] * draw(), 3),
            )
        )
    return mixes, deals, people


def _canon(value) -> str:
    """Exact text for a result: ``float.hex`` for floats, sorted sets, and a
    record as its class name and fields."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (bool, int, str)) or value is None:
        return repr(value)
    if isinstance(value, datetime):
        return value.isoformat()
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(map(_canon, value)) + ")"
    if isinstance(value, frozenset):
        return "{" + ",".join(sorted(map(_canon, value))) + "}"
    if isinstance(value, dict):
        return "{" + ",".join(f"{_canon(k)}:{_canon(v)}" for k, v in value.items()) + "}"
    fields = type(value).__match_args__
    return type(value).__name__ + _canon(tuple(getattr(value, name) for name in fields))


def _digest(value) -> str:
    return hashlib.sha256(_canon(value).encode()).hexdigest()


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """The paths of the year fleet's region CSVs."""
    directory = tmp_path_factory.mktemp("pins")
    paths = []
    for index in range(REGIONS):
        path = directory / f"region-{index}.csv"
        path.write_bytes(_region_text(index).encode("utf-8"))
        paths.append(path)
    return paths


@pytest.fixture(scope="module")
def datasets(fleet):
    return [load_region_csv(path) for path in fleet]


PINS = {
    "load drop-row": "e1651ee4b87d6e350d867ef016878c0881ecb6b85093dd296c903daa0b7e4c82",
    "load zero-fill": "f5d3232a15516e69cd5f8ea6cca058c657cf0eb99e6fa19ef98d50a90043e6fc",
    "total_signal cef": "97108ecc8918d3f7c3fb311edb0634681055d288682a4bd5b304f919ae189115",
    "total_signal published": "f84f277ab516f1826249767af21c3b02c4c5e67a04591c12cf2374d06ee7db1a",
    "residual_signal": "59cda48c44fff283b1275e55b6c13c82bf513a0c43ddb6ce9546793a9841308a",
    "period_ci": "7f60c5dd56aa535b5fc9cb4d2ed568c1e794d52bb910b3fef997a2f68c25cbd3",
    "period_residual_ci": "ee684940ef1dc597cc27fe9b21c2d21648ffa32eac73d1d38aa5fb6207ec181f",
    "penetration_fleet": "1462c58fa2655390caed8f751189ccc8423d12a7fbb146109ca6741b6bc06736",
    "best_window": "786ac7eec7992fce47514aa87c07721896b753dd5acb1e5fab3ab74cc4722afd",
    "report 1000x1000": "5b2b55f8889940bfa5465f3de471332ac8dd532b8d0cc187df50a8c0dd80cdbf",
}


def _load(path, policy):
    dataset = load_region_csv(path, fill_policy=policy)
    return (
        dataset.timestamps,
        dataset.source_ids,
        dataset.columns,
        dataset.published_ci,
        dataset.summary,
        dataset._timestamp_text,
    )


def _results(name, fleet, datasets):
    if name.startswith("load "):
        return [_load(path, name[5:]) for path in fleet]
    if name.startswith("total_signal "):
        return [total_signal(d, basis=name[13:]) for d in datasets]
    if name == "residual_signal":
        return [
            (residual_signal(d, 0.5), residual_signal(d, {"solar": 0.9, "hydro": 0.25, "nuclear": 1.0}))
            for d in datasets
        ]
    if name == "period_ci":
        return [(period_ci(d), period_ci(d, basis="published")) for d in datasets]
    if name == "period_residual_ci":
        return [
            (period_residual_ci(d, 0.5), period_residual_ci(d, {"solar": 0.9, "wind": 0.3}, basis="published"))
            for d in datasets
        ]
    if name == "penetration_fleet":
        return [
            penetration_fleet(datasets, per_hour_mean=False),
            penetration_fleet(datasets, ("solar", "wind", "hydro"), per_hour_mean=True),
        ]
    if name == "best_window":
        return [
            best_window(signal, FlexibleLoad(1.0, d, contiguous=contiguous))
            for signal in (total_signal(d) for d in datasets)
            for d in (1, 24, 168)
            for contiguous in (True, False)
        ]
    assert name == "report 1000x1000"
    return build_report(*_scenario(1000, 1000))


@pytest.mark.parametrize("name", list(PINS))
def test_full_precision_results_are_pinned(name, fleet, datasets) -> None:
    assert _digest(_results(name, fleet, datasets)) == PINS[name]


def test_pinned_fleet_covers_the_loader_paths(datasets) -> None:
    """The fleet drops rows, keeps the timestamp text only where the file
    holds it canonical and in order, and has hours without fossil energy."""
    assert all(d.summary.rows_read == HOURS and 0 < d.summary.rows_dropped < 30 for d in datasets)
    assert all(d.summary.ignored_columns == ("net_import_mwh",) for d in datasets)
    assert [d._timestamp_text is not None for d in datasets] == [True, True, True, True, False, True]
    assert all(0.0 in total_signal(d) for d in datasets)
