"""Fleet statistics: renewable penetration and residual-CI inflation.

Period aggregates are energy-weighted (total over total) rather than
means of per-hour ratios, so splitting an hour into two half-hours with
halved energies changes nothing. A per-hour-mean variant of penetration
is available behind a flag for comparison. The inflation of a period's
residual CI is ``inflation_pct(period_ci(d), period_residual_ci(d, f))``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from itertools import accumulate, compress
from operator import mul

from ._record import _frozen
from .contracts import _fully_contracted, _residual_dataset, contracts_for_fraction
from .errors import EmptyFleet, EmptyMix, GridCarbonError, ZeroBaseline
from .factors import check_categories
from .grid import SourceRegistry, _cefs, _column_sums, _step_emissions, _sum
from .ingest import RegionDataset, check_basis, check_overflow

SOLAR_WIND = ("solar", "wind")


@_frozen
class PenetrationStat:
    """Share of selected categories in a region's total generation."""

    region: str
    total_generation_mwh: float
    solar_wind_mwh: float
    solar_wind_pct: float


@_frozen
class FleetPenetration:
    """Per-region penetration plus the empirical distribution across regions.

    ``cdf`` holds (percentage, cumulative fraction of regions) points,
    sorted by percentage with ties collapsed; the last fraction is 1.0.
    """

    stats: tuple[PenetrationStat, ...]
    cdf: tuple[tuple[float, float], ...]


def penetration(
    dataset: RegionDataset,
    categories: Sequence[str] = SOLAR_WIND,
    sources: SourceRegistry | None = None,
    per_hour_mean: bool = False,
) -> PenetrationStat:
    """Fraction of generation coming from the given categories.

    Default is energy-weighted over the whole series; with
    ``per_hour_mean`` the unweighted mean of per-hour percentages is
    returned instead (zero-generation hours are skipped).

    Raises:
        ValueError: if a category is unknown, or the total generation
            overflows (naming the region and the first step it overflows at).
        EmptyMix: if the dataset has no generation at all.
    """
    check_categories(categories)
    sources = SourceRegistry.default() if sources is None else sources
    wanted = set(categories)
    mask = tuple(sources.get(source_id).category in wanted for source_id in dataset.source_ids)
    totals = _column_sums(dataset.columns, len(dataset))
    selected_totals = _column_sums(compress(dataset.columns, mask), len(dataset))
    # Both sums start from the int 0; float() keeps the record's fields floats
    # when no column is selected.
    total = float(_sum(totals))
    selected = float(_sum(selected_totals))
    check_overflow(dataset, total, accumulate(totals))
    if total <= 0:
        raise EmptyMix(f"dataset for region {dataset.region!r} has no generation")
    if per_hour_mean:
        ratios = [part / whole for part, whole in zip(selected_totals, totals) if whole > 0]
        pct = 100.0 * _sum(ratios) / len(ratios)
    else:
        pct = 100.0 * selected / total
    return PenetrationStat(
        region=dataset.region,
        total_generation_mwh=total,
        solar_wind_mwh=selected,
        solar_wind_pct=pct,
    )


def penetration_fleet(
    datasets: Iterable[RegionDataset],
    categories: Sequence[str] = SOLAR_WIND,
    sources: SourceRegistry | None = None,
    per_hour_mean: bool = False,
) -> FleetPenetration:
    """Penetration for every region plus the empirical CDF across regions.

    ``datasets`` may be any iterable, such as a generator that loads each
    region: a dataset is reduced to its stat before the next one is drawn.
    The first error computing a stat is raised only once every dataset has
    been drawn, so an error drawing a later one comes first.

    Raises:
        EmptyFleet: if no datasets are given.
    """
    stats = []
    error = None
    for dataset in datasets:
        if error is None:
            try:
                stats.append(penetration(dataset, categories, sources, per_hour_mean))
            except (GridCarbonError, ValueError) as exc:
                error = exc
        del dataset  # not alive while the next one loads
    if error is not None:
        raise error
    if not stats:
        raise EmptyFleet("penetration_fleet needs at least one region dataset")
    values = sorted(stat.solar_wind_pct for stat in stats)
    n = len(values)
    cdf = []
    for i, value in enumerate(values):
        if i + 1 < n and values[i + 1] == value:
            continue  # collapse ties onto the highest cumulative fraction
        cdf.append((value, (i + 1) / n))
    return FleetPenetration(stats=tuple(stats), cdf=tuple(cdf))


def _weighted_ci(dataset: RegionDataset, emissions: Sequence[float], energy: Sequence[float]) -> float | None:
    """The one period reduction: total emissions over total energy of the dataset's steps
    (MWh · g/kWh, MWh), or ``None`` without energy; a ValueError names where one overflows."""
    total_emissions = _sum(emissions)
    total_energy = _sum(energy)
    running = map(max, accumulate(emissions), accumulate(energy))
    check_overflow(dataset, total_emissions + total_energy, running)
    return total_emissions / total_energy if total_energy > 0 else None


def energy_weighted_ci(
    dataset: RegionDataset, sources: SourceRegistry | None = None
) -> float | None:
    """Energy-weighted CI of a dataset from per-source factors, or ``None``
    when it holds no energy (a fully contracted residual)."""
    sources = SourceRegistry.default() if sources is None else sources
    cefs = _cefs(dataset.source_ids, sources)
    return _weighted_ci(dataset, *_step_emissions(dataset.columns, cefs, len(dataset)))


def _period(dataset: RegionDataset, ci: float | None) -> float:
    if ci is None:
        raise EmptyMix(f"dataset for region {dataset.region!r} has no generation")
    return ci


def period_ci(
    dataset: RegionDataset,
    sources: SourceRegistry | None = None,
    basis: str = "cef",
) -> float:
    """Energy-weighted average carbon intensity over a whole series, g/kWh.

    ``basis="cef"`` computes emissions from per-source factors;
    ``basis="published"`` trusts the dataset's published CI signal.
    """
    check_basis(dataset, basis)
    if basis == "cef":
        return _period(dataset, energy_weighted_ci(dataset, sources))
    totals = _column_sums(dataset.columns, len(dataset))
    emissions = tuple(map(mul, totals, dataset.published_ci))
    return _period(dataset, _weighted_ci(dataset, emissions, totals))


def period_residual_ci(
    dataset: RegionDataset,
    contract_fraction: float | Mapping[str, float],
    categories: Sequence[str] = SOLAR_WIND,
    sources: SourceRegistry | None = None,
    basis: str = "cef",
) -> float:
    """Energy-weighted residual CI, g/kWh, with a fraction of selected generation contracted.

    Under ``basis="published"`` residual emissions per step are taken as
    published CI times total energy — exact when everything removed is
    carbon-free, which contracting guarantees.

    Raises:
        EmptyResidual: if any step's generation is fully contracted.
    """
    sources = SourceRegistry.default() if sources is None else sources
    check_basis(dataset, basis)
    contracts = contracts_for_fraction(dataset, contract_fraction, categories, sources)
    residual = _residual_dataset(dataset, contracts, sources)
    if basis == "cef":
        cefs = _cefs(residual.source_ids, sources)
        emissions, energy = _step_emissions(residual.columns, cefs, len(residual))
    else:
        emissions = tuple(map(mul, _column_sums(dataset.columns, len(dataset)), dataset.published_ci))
        energy = _column_sums(residual.columns, len(residual))
    if min(energy, default=1.0) <= 0:
        for step, step_energy in enumerate(energy):
            if step_energy <= 0 and _sum(column[step] for column in dataset.columns) > 0:
                raise _fully_contracted(dataset.region, step)
    return _period(dataset, _weighted_ci(dataset, emissions, energy))


def inflation_pct(ci_loc: float, ci_res: float) -> float:
    """100 · (ci_res − ci_loc) / ci_loc; raises ZeroBaseline if ``ci_loc`` is zero."""
    if ci_loc <= 0:
        raise ZeroBaseline("period CI is zero; inflation undefined")
    return 100.0 * (ci_res - ci_loc) / ci_loc
