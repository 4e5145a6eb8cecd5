"""Seeded, stdlib-only input generators for the benchmark workloads.

Every input the benchmark feeds the program comes from here, so nothing
is downloaded and the same seed always writes the same bytes.

- :func:`write_year_fleet` writes one hourly generation CSV per region:
  8760 rows, six sources, the operator's published CI, and one column
  the loader does not recognise. Like real exports, the data has a
  diurnal solar shape, a few blank cells (rows the default drop-row
  policy discards) and a few fully carbon-free hours.
- :func:`scenario_yaml` writes an attribution scenario over several
  regions with location- and market-based consumers, buyers holding
  several contracts and consumers holding none, cross-region financial
  and REC contracts, deliberately over-contracted sources, and a few
  buyers whose contracts cover their whole demand.
- :func:`schedule_queries` yields the query stream of the in-process
  scheduling workload.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

HOURS_PER_YEAR = 8760
SOURCES = ("solar", "wind", "hydro", "nuclear", "gas", "coal")
CARBON_FREE = ("solar", "wind", "hydro", "nuclear")
UNRECOGNISED_COLUMN = "net_import_mwh"
PUBLISHED_COLUMN = "ci_g_per_kwh"
# The program's default factors for the two fossil sources, in g/kWh. The
# published CI column is the CI they give plus a few percent of noise.
FOSSIL_CEF = {"gas": 490.0, "coal": 1000.0}
_START = datetime(2023, 1, 1, tzinfo=timezone.utc)


@dataclass(frozen=True)
class RegionFile:
    """One generated region CSV and what a correct loader must keep from it."""

    region: str
    path: Path
    kept: tuple[tuple[float, ...], ...]  # per kept row, generation in SOURCES order


def average_ci(generation: tuple[float, ...] | list[float]) -> float:
    """Average CI of one hour's generation, given in ``SOURCES`` order."""
    emissions = generation[4] * FOSSIL_CEF["gas"] + generation[5] * FOSSIL_CEF["coal"]
    return emissions / sum(generation)


def _region_hours(rng: random.Random) -> list[tuple[list[float], float, float]]:
    """Hourly (generation per source, published CI, unrecognised value) rows."""
    solar_cap = rng.uniform(200.0, 900.0)
    wind_mean = rng.uniform(150.0, 700.0)
    hydro_base = rng.uniform(30.0, 250.0)
    nuclear = rng.choice((0.0, rng.uniform(200.0, 600.0)))
    demand_base = rng.uniform(1500.0, 3000.0)
    gas_share = rng.uniform(0.3, 0.9)
    carbon_free_hours = set(rng.sample(range(HOURS_PER_YEAR), 4))
    wind = wind_mean
    rows = []
    for hour in range(HOURS_PER_YEAR):
        day, hod = divmod(hour, 24)
        season = 1.0 + 0.3 * math.cos(2.0 * math.pi * (day - 172) / 365.0)
        daylight = max(0.0, math.sin(math.pi * (hod - 6) / 12.0))
        solar = solar_cap * daylight * season * rng.uniform(0.4, 1.0)
        wind = max(0.0, wind + 0.15 * (wind_mean - wind) + rng.gauss(0.0, 0.12 * wind_mean))
        hydro = hydro_base * (1.0 + 0.2 * math.sin(2.0 * math.pi * day / 365.0))
        demand = demand_base * (1.0 + 0.15 * math.sin(math.pi * (hod - 9) / 12.0))
        if hour in carbon_free_hours:
            fossil = 0.0
            hydro = max(hydro, demand - solar - wind - nuclear)
        else:
            fossil = max(0.05 * demand, demand - solar - wind - hydro - nuclear)
        gas = fossil * gas_share
        coal = fossil - gas
        generation = [round(v, 3) for v in (solar, wind, hydro, nuclear, gas, coal)]
        published = round(max(0.0, average_ci(generation) * (1.0 + rng.gauss(0.0, 0.03))), 2)
        rows.append((generation, published, round(rng.uniform(-100.0, 100.0), 1)))
    return rows


def write_year_fleet(seed: int, directory: Path, regions: int) -> list[RegionFile]:
    """Write ``regions`` hourly CSVs of one year each into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    header = ["timestamp", *SOURCES, UNRECOGNISED_COLUMN, PUBLISHED_COLUMN]
    files = []
    for index in range(regions):
        rng = random.Random(f"year-fleet:{seed}:{index}")
        region = f"region-{index}"
        blank_rows = set(rng.sample(range(HOURS_PER_YEAR), 24))
        lines = [",".join(header)]
        kept = []
        for hour, (generation, published, extra) in enumerate(_region_hours(rng)):
            stamp = (_START + timedelta(hours=hour)).strftime("%Y-%m-%dT%H:%M:%SZ")
            cells = [stamp, *(f"{v:.3f}" for v in generation), f"{extra:.1f}", f"{published:.2f}"]
            if hour in blank_rows:
                cells[rng.randrange(1, len(cells))] = ""
            if cells[-1] and all(cells[1 : 1 + len(SOURCES)]):
                kept.append(tuple(generation))
            lines.append(",".join(cells))
        path = directory / f"{region}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        files.append(RegionFile(region, path, tuple(kept)))
    return files


@dataclass(frozen=True)
class ScenarioInput:
    """A generated scenario and the facts the output check relies on."""

    text: str
    contracts: int
    fully_contracted: frozenset[str]


def _flow(mapping: dict) -> str:
    return "{" + ", ".join(f"{k}: {v}" for k, v in mapping.items()) + "}"


def scenario_yaml(
    seed: int,
    consumers: int,
    contracts: int,
    regions: int = 10,
    public_signal_adjusted: bool = False,
) -> ScenarioInput:
    """A scenario in the bundled files' flow style.

    Every region keeps fossil generation, so no residual mix is empty.
    Each region's carbon-free sources are sized from the claims against
    them, so the only over-contracted sources are the ones chosen here;
    the fully contracted buyers hold contracts on other sources only.
    """
    rng = random.Random(f"scenario:{seed}:{consumers}:{contracts}:{regions}:{public_signal_adjusted}")
    names = [f"r{i}" for i in range(regions)]
    over = sorted({(rng.choice(names), rng.choice(("solar", "wind"))) for _ in range(2)})

    people = []
    for i in range(consumers):
        people.append(
            {
                "id": f"c{i}",
                "region": rng.choice(names),
                "demand_kwh": round(rng.uniform(1_000.0, 100_000.0), 1),
                "method": rng.choice(("location_based", "market_based")),
            }
        )
    # About a third of consumers hold no contract; buyers draw contracts
    # with a skew, so some hold several.
    buyers = rng.sample(people, max(1, (2 * consumers) // 3))
    full_count = max(1, consumers // 50)
    full = buyers[:full_count]
    full_ids = {buyer["id"] for buyer in full}
    rows = []
    claims: dict[tuple[str, str], float] = {}

    def add(buyer: dict, kind: str, source: str, region: str, energy: float) -> None:
        rows.append(
            {
                "id": f"k{len(rows)}",
                "buyer": buyer["id"],
                "kind": kind,
                "source": source,
                "region": region,
                "energy_mwh": round(energy, 3),
            }
        )
        claims[(region, source)] = claims.get((region, source), 0.0) + round(energy, 3)

    for buyer in full:
        source = rng.choice(("hydro", "nuclear"))
        add(buyer, "physical_offsite", source, buyer["region"], buyer["demand_kwh"] / 1000.0 * 1.25)
    frequent = buyers[: max(1, len(buyers) // 3)]
    while len(rows) < contracts - len(over):
        buyer = rng.choice(frequent if rng.random() < 0.5 else buyers)
        kind = rng.choice(("physical_offsite", "physical_onsite", "financial", "rec"))
        region = buyer["region"] if kind.startswith("physical") else rng.choice(names)
        if buyer["id"] in full_ids:
            source = rng.choice(("hydro", "nuclear"))
        else:
            source = rng.choice(CARBON_FREE)
        add(buyer, kind, source, region, buyer["demand_kwh"] / 1000.0 * rng.uniform(0.05, 0.6))
    for region, source in over:
        add(rng.choice(buyers), "financial", source, region, 50.0)

    lines = [
        f"name: bench-{consumers}x{contracts}",
        f"description: generated for the benchmark, seed {seed}",
        "regions:",
    ]
    for name in names:
        generation = {}
        for source in CARBON_FREE:
            claimed = claims.get((name, source), 0.0)
            if (name, source) in over:
                generation[source] = round(claimed * 0.5, 3)
            else:
                generation[source] = round(claimed * rng.uniform(1.5, 4.0) + rng.uniform(5.0, 50.0), 3)
        carbon_free = sum(generation.values())
        fossil = carbon_free * rng.uniform(0.3, 1.5)
        generation["gas"] = round(fossil * rng.uniform(0.2, 0.8), 3)
        generation["coal"] = round(fossil - generation["gas"], 3)
        lines.append(f"  {name}:")
        lines.append(f"    generation: {_flow(generation)}")
        if rng.random() < 0.3:
            lines.append(f"    demand_mwh: {round(sum(generation.values()) * 1.02, 3)}")
    lines.append("consumers:")
    lines.extend(f"  - {_flow(person)}" for person in people)
    lines.append("contracts:")
    lines.extend(f"  - {_flow(row)}" for row in rows)
    lines.append(f"public_signal_adjusted: {'true' if public_signal_adjusted else 'false'}")
    return ScenarioInput(
        text="\n".join(lines) + "\n",
        contracts=len(rows),
        fully_contracted=frozenset(full_ids),
    )


QUERY_DURATIONS = (1, 24, 168)
QUERY_SPANS = (None, 720, 168)  # start window: the whole year, a month, a week


def schedule_queries(seed: int, regions: int, hours: int):
    """Endless stream of (region index, duration, contiguous, start window).

    Queries come in rounds that hold every (duration, contiguity, span)
    combination once, in a seeded order, so any whole number of rounds has
    the same mix of cheap and expensive queries.
    """
    rng = random.Random(f"schedule-queries:{seed}")
    kinds = [
        (duration, contiguous, span)
        for duration in QUERY_DURATIONS
        for contiguous in (True, False)
        for span in QUERY_SPANS
    ]
    while True:
        rng.shuffle(kinds)
        for duration, contiguous, span in kinds:
            region = rng.randrange(regions)
            if span is None:
                window = None
            else:
                lo = rng.randrange(hours - span + 1)
                window = (lo, lo + span - duration)
            yield region, duration, contiguous, window
