"""Bundled synthetic datasets for examples, tests, and CLI demos.

No licensed grid data ships with the package. Instead, each fixture is
constructed to hit documented aggregate targets:

- ``south_australia_fixture``: a 24-hour series loosely modeled on South
  Australia's high-renewables grid — solar+wind share 66.07% of 2400 MWh
  and an average CI of 125.67 g/kWh (gas sized as emissions / gas CEF,
  hydro absorbing the remainder). Contracting all solar and wind then
  yields a residual CI near 370 g/kWh, a roughly 194% inflation.
- ``duck_curve_fixture``: a 24-hour series whose total-mix CI sags
  midday (min 121 g/kWh at hour 12) and peaks in the evening
  (200 g/kWh at hour 19) while the all-renewables-contracted residual
  CI stays nearly flat (582–600 g/kWh). Shifting a one-hour load from
  the worst to the best hour looks like a 39.5% saving on the total
  signal but only 3% on the residual signal. Per hour, fossil energy is
  total_ci/residual_ci of the 1000 MWh hourly generation, and the
  gas/coal split is solved so the fossil-only CI equals the residual
  target.
- ``fleet_fixtures``: three small regions with integer-valued mixes
  whose solar+wind shares are exactly 10%, 30%, and 50%.

Every dataset carries its computed average CI as the published signal,
so ``basis="published"`` and ``basis="cef"`` agree on these fixtures.
"""

from __future__ import annotations

import math
from datetime import datetime, timezone
from pathlib import Path

from .factors import DEFAULT_CEF
from .grid import GridMix, SourceRegistry, compute_average_ci
from .ingest import RegionDataset, write_region_csv

_SOLAR_WEIGHTS = (0, 0, 0, 0, 0, 0, 1, 2, 4, 6, 8, 9, 9, 8, 6, 4, 2, 1, 0, 0, 0, 0, 0, 0)
_NIGHT_HEAVY_WEIGHTS = (3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3)

_DUCK_TOTAL_CI = (
    180.0, 178.0, 176.0, 174.0, 172.0, 170.0,
    165.0, 158.0, 150.0, 140.0, 132.0, 125.0,
    121.0, 123.0, 127.0, 134.0, 145.0, 160.0,
    185.0, 200.0, 196.0, 192.0, 188.0, 184.0,
)
_DUCK_RESIDUAL_CI = (
    594.0, 593.5, 593.0, 592.5, 592.0, 591.5,
    591.0, 590.0, 588.0, 586.0, 584.5, 583.0,
    582.0, 582.5, 583.5, 585.0, 587.0, 590.5,
    595.0, 600.0, 599.0, 598.0, 597.0, 596.0,
)


def _hour(h: int) -> datetime:
    return datetime(2022, 6, 1, h, tzinfo=timezone.utc)


def _dataset(region: str, generations: list[dict[str, float]]) -> RegionDataset:
    sources = SourceRegistry.default()
    mixes = tuple(
        GridMix(region=region, generation=generation, timestamp=_hour(h))
        for h, generation in enumerate(generations)
    )
    published = tuple(float(compute_average_ci(mix, sources)) for mix in mixes)
    return RegionDataset(region=region, mixes=mixes, published_ci=published)


def toy_mix() -> GridMix:
    """The half-wind, half-coal 1000 MWh example grid (CI 500 g/kWh)."""
    return GridMix(region="toy-grid", generation={"wind": 500.0, "coal": 500.0})


def south_australia_fixture() -> RegionDataset:
    """24-hour synthetic series hitting 66.07% solar+wind and CI 125.67."""
    total_mwh = 2400.0
    target_ci = 125.67
    solar_total = 585.68
    wind_total = 1000.0
    gas_total = target_ci * total_mwh / DEFAULT_CEF["gas"]
    hydro_total = total_mwh - solar_total - wind_total - gas_total

    solar_scale = sum(_SOLAR_WEIGHTS)
    night_scale = sum(_NIGHT_HEAVY_WEIGHTS)
    generations = []
    for h in range(24):
        generations.append(
            {
                "solar": solar_total * _SOLAR_WEIGHTS[h] / solar_scale,
                "wind": wind_total * _NIGHT_HEAVY_WEIGHTS[h] / night_scale,
                "gas": gas_total * _NIGHT_HEAVY_WEIGHTS[h] / night_scale,
                "hydro": hydro_total / 24.0,
            }
        )
    return _dataset("south-australia", generations)


def duck_curve_fixture() -> RegionDataset:
    """24-hour duck-curve series with engineered total and residual CI."""
    gas_cef = DEFAULT_CEF["gas"]
    coal_cef = DEFAULT_CEF["coal"]
    generations = []
    for h in range(24):
        total_ci = _DUCK_TOTAL_CI[h]
        residual_ci = _DUCK_RESIDUAL_CI[h]
        fossil = 1000.0 * total_ci / residual_ci
        gas_share = (coal_cef - residual_ci) / (coal_cef - gas_cef)
        gas = fossil * gas_share
        coal = fossil - gas
        renewable = 1000.0 - fossil
        daylight = max(0.0, math.sin(math.pi * (h - 6) / 12.0)) if 6 <= h <= 18 else 0.0
        solar = renewable * daylight * 0.8
        generations.append(
            {"solar": solar, "wind": renewable - solar, "gas": gas, "coal": coal}
        )
    return _dataset("duck-curve", generations)


def fleet_fixtures() -> list[RegionDataset]:
    """Three small regions with exact 10%, 30%, and 50% solar+wind shares."""
    return [
        _dataset(
            "aurora",
            [
                {"solar": 5.0, "wind": 5.0, "coal": 90.0},
                {"wind": 10.0, "gas": 90.0},
            ],
        ),
        _dataset(
            "boreal",
            [
                {"solar": 20.0, "wind": 10.0, "coal": 70.0},
                {"solar": 10.0, "wind": 20.0, "hydro": 40.0, "gas": 30.0},
            ],
        ),
        _dataset(
            "cinder",
            [
                {"solar": 30.0, "wind": 30.0, "gas": 40.0},
                {"solar": 10.0, "wind": 30.0, "coal": 60.0},
            ],
        ),
    ]


def fixture_datasets() -> dict[str, RegionDataset]:
    """All bundled datasets keyed by region name."""
    datasets = [south_australia_fixture(), duck_curve_fixture(), *fleet_fixtures()]
    return {dataset.region: dataset for dataset in datasets}


def write_fixture_csvs(directory: str | Path) -> list[Path]:
    """Export every bundled dataset as CSV into a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, dataset in sorted(fixture_datasets().items()):
        path = directory / f"{name}.csv"
        write_region_csv(dataset, path)
        paths.append(path)
    return paths
