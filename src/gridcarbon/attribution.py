"""Per-consumer carbon attribution under location- and market-based methods.

Location-based accounting hands every consumer in a region the same
grid-average carbon intensity and carbon-free share. Market-based
accounting first honors contracted claims: buyers net their contracted
carbon-free energy off their demand, everyone's remaining demand is
priced at the residual carbon intensity of their own region, so

    CI_mkt = (D - D_cf) * CI_res / D

with demand D and contracted claim D_cf, both in kWh.

Both methods are computed side by side for every consumer (dual
reporting); which one a consumer *uses* only matters for the
double-counting analysis, where contracted energy claimed by a buyer is
counted again by location-based consumers reading an unadjusted public
grid signal.

Consumer demand is in kWh; grid quantities are in MWh.

:func:`build_report` works in one pass. It prices each region's mix once
(location CI and carbon-free share), makes one
:func:`~gridcarbon.contracts.allocate_contracts` call and derives every
claim, region summary and the double counting from them, so a report
costs O(regions + consumers + contracts) and 3 ``compute_average_ci``
calls per region. Two of them compute the residual CI: the market method
goes through :func:`attribute_market_based`, a call chain the benchmark's
tests name, and each region summary computes it again.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from math import inf, isfinite

from ._record import _frozen
from .contracts import Allocation, Contract, allocate_contracts, compute_residual_mix
from .errors import ClaimExceedsDemand, UnknownRegion, ZeroDemand
from .grid import KWH_PER_MWH, GridMix, SourceRegistry, compute_average_ci

LOCATION_BASED = "location_based"
MARKET_BASED = "market_based"
METHODS = frozenset({LOCATION_BASED, MARKET_BASED})


@_frozen
class Consumer:
    """An electricity consumer with a per-step demand in kWh."""

    id: str
    region: str
    demand_kwh: float
    method: str = LOCATION_BASED

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"consumer {self.id!r}: method must be one of {sorted(METHODS)}")
        if not 0 <= self.demand_kwh < inf:
            raise ValueError(f"consumer {self.id!r}: demand must be finite and >= 0")


@_frozen
class MethodResult:
    """Attribution of one consumer's demand under one accounting method."""

    attributed_cfe_kwh: float
    attributed_fossil_kwh: float
    ci_g_per_kwh: float
    emissions_g: float


@_frozen
class ConsumerAttribution:
    """Dual-reported attribution for one consumer."""

    consumer_id: str
    region: str
    demand_kwh: float
    method: str
    location_based: MethodResult
    market_based: MethodResult
    cfe_claim_kwh: float = 0.0
    over_claimed: bool = False

    @property
    def selected(self) -> MethodResult:
        """The result under the method this consumer reports with."""
        return self.location_based if self.method == LOCATION_BASED else self.market_based


@_frozen
class RegionSummary:
    """Grid-level quantities for one region."""

    region: str
    ci_loc_g_per_kwh: float
    ci_res_g_per_kwh: float
    total_energy_mwh: float
    carbon_free_energy_mwh: float
    contracted_cfe_mwh: float
    over_contracted: frozenset[str]


@_frozen
class AttributionReport:
    """Full per-consumer and per-region attribution output."""

    consumers: tuple[ConsumerAttribution, ...]
    regions: tuple[RegionSummary, ...]
    double_counted_cfe_mwh: float

    def consumer(self, consumer_id: str) -> ConsumerAttribution:
        for entry in self.consumers:
            if entry.consumer_id == consumer_id:
                return entry
        raise KeyError(consumer_id)

    def region(self, region: str) -> RegionSummary:
        for entry in self.regions:
            if entry.region == region:
                return entry
        raise KeyError(region)


def _cfe_fraction(mix: GridMix, sources: SourceRegistry, total_mwh: float | None = None) -> float:
    """Carbon-free fraction of a mix, optionally against a declared total.

    When a region's total demand is declared separately (toy grids state
    total demand while generation may slightly exceed it), the
    carbon-free share is quoted against that demand; surplus cannot push
    the fraction past 1.
    """
    denominator = mix.total_energy if total_mwh is None else total_mwh
    if denominator <= 0:
        raise ValueError("carbon-free fraction needs a positive energy total")
    return min(mix.carbon_free_energy(sources) / denominator, 1.0)


def compute_market_ci(
    demand_kwh: float,
    cfe_claim_kwh: float,
    ci_res: float,
) -> float:
    """Market-based carbon intensity for one consumer: (D - D_cf) * CI_res / D.

    Raises:
        ValueError: if a number is not finite, or the claim or the
            residual CI is negative.
        ZeroDemand: if demand is zero.
        ClaimExceedsDemand: if the claim exceeds demand; over-claims are
            rejected here so they stay visible (the scenario runner
            clamps and flags instead).
    """
    numbers = {"demand": demand_kwh, "carbon-free claim": cfe_claim_kwh, "residual CI": ci_res}
    for name, value in numbers.items():
        if not isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if demand_kwh <= 0:
        raise ZeroDemand("market-based carbon intensity is undefined for zero demand")
    if cfe_claim_kwh < 0:
        raise ValueError(f"carbon-free claim must be >= 0, got {cfe_claim_kwh}")
    if cfe_claim_kwh > demand_kwh:
        raise ClaimExceedsDemand(
            f"claim of {cfe_claim_kwh} kWh exceeds demand of {demand_kwh} kWh"
        )
    if ci_res < 0:
        raise ValueError(f"residual CI must be >= 0, got {ci_res}")
    return (demand_kwh - cfe_claim_kwh) * ci_res / demand_kwh


def attribute_market_based(
    mixes: GridMix | Mapping[str, GridMix],
    contracts: Sequence[Contract],
    consumers: Sequence[Consumer],
    sources: SourceRegistry | None = None,
    allocation: Allocation | None = None,
) -> dict[str, MethodResult]:
    """Market-based attribution across one or more regions.

    Every region's residual mix removes *all* contracts sourced there,
    including claims by buyers in other regions; each consumer's
    residual demand is then priced at their own region's residual CI.
    Claims above a consumer's demand are clamped to the demand (the
    over-claim is visible via :func:`build_report`).

    All claims come from one :func:`~gridcarbon.contracts.allocate_contracts`
    call, which allocates each region once, so the cost is
    O(regions + consumers + contracts). A caller that already holds that
    allocation for the same mixes, contracts and sources, made
    with ``require_residual=True``, passes it as ``allocation``.

    Raises:
        EmptyResidual: if a region's generation is fully contracted.
        UnknownRegion: if a consumer's region has no mix, or one of its
            contracts sources from a region with no mix.
        ValueError: if two consumers share an id (results and claims are keyed
            by it), or a consumer's emissions overflow (naming ``consumers[i].demand_kwh``).
    """
    sources = SourceRegistry.default() if sources is None else sources
    if isinstance(mixes, GridMix):
        mixes = {mixes.region: mixes}
    if allocation is None:
        allocation = allocate_contracts(mixes, contracts, sources, require_residual=True)

    residual_ci: dict[str, float] = {}
    residual_fraction: dict[str, float] = {}
    for region, residual in allocation.residuals.items():
        residual_ci[region] = compute_average_ci(residual.mix, sources)
        residual_fraction[region] = _cfe_fraction(residual.mix, sources)

    results: dict[str, MethodResult] = {}
    for i, consumer in enumerate(consumers):
        if consumer.id in results:
            raise ValueError(f"duplicate consumer id {consumer.id!r}")
        if consumer.region not in mixes:
            raise UnknownRegion(f"no mix provided for region {consumer.region!r}")
        claim_kwh = KWH_PER_MWH * allocation.claim_mwh(consumer.id)
        claim_kwh = min(claim_kwh, consumer.demand_kwh)
        residual_demand = consumer.demand_kwh - claim_kwh
        ci = residual_ci[consumer.region]
        # With no claim the formula collapses to the residual CI exactly; the
        # shortcut keeps that identity float-exact for any demand (and covers
        # zero demand, where the ratio form is undefined).
        if residual_demand != consumer.demand_kwh:
            ci = compute_market_ci(consumer.demand_kwh, claim_kwh, ci)
        emissions = consumer.demand_kwh * ci
        if not isfinite(emissions):
            raise ValueError(f"consumers[{i}].demand_kwh: emissions of consumer {consumer.id!r} overflow")
        cfe = claim_kwh + residual_demand * residual_fraction[consumer.region]
        results[consumer.id] = MethodResult(
            attributed_cfe_kwh=cfe,
            attributed_fossil_kwh=consumer.demand_kwh - cfe,
            ci_g_per_kwh=ci,
            emissions_g=emissions,
        )
    return results


def detect_double_counting(
    mix: GridMix,
    contracts: Sequence[Contract],
    consumers: Sequence[Consumer],
    public_signal_adjusted: bool,
    sources: SourceRegistry | None = None,
) -> float:
    """Carbon-free energy (MWh) counted both by contract buyers and the grid mix.

    When the public grid signal is *not* adjusted for contracts,
    location-based consumers in the region see contracted energy inside
    their grid mix even though a buyer already claimed it exclusively:
    every clamped contracted MWh in the region is counted twice. An
    adjusted signal (or the absence of location-based consumers reading
    it) eliminates the overlap.
    """
    if mix.region not in _counted_twice(consumers, public_signal_adjusted):
        return 0.0
    return compute_residual_mix(mix, contracts, sources).total_removed


def _counted_twice(consumers: Sequence[Consumer], public_signal_adjusted: bool) -> set[str]:
    """The double-counting rule: contracted MWh count twice in the regions
    whose unadjusted public signal a location-based consumer reads."""
    if public_signal_adjusted:
        return set()
    return {c.region for c in consumers if c.method == LOCATION_BASED}


def build_report(
    mixes: GridMix | Mapping[str, GridMix],
    contracts: Sequence[Contract],
    consumers: Sequence[Consumer],
    sources: SourceRegistry | None = None,
    grid_demand_mwh: Mapping[str, float] | None = None,
    public_signal_adjusted: bool = False,
) -> AttributionReport:
    """Run both accounting methods and assemble the full report.

    ``grid_demand_mwh`` optionally declares total grid demand per region
    to quote the location-based carbon-free share against.

    Raises:
        EmptyMix: if a region has zero generation.
        ValueError: if two consumers share an id, a declared demand is not positive,
            or a consumer's emissions overflow (naming ``consumers[i].demand_kwh``).
    """
    sources = SourceRegistry.default() if sources is None else sources
    if isinstance(mixes, GridMix):
        mixes = {mixes.region: mixes}
    grid_demand_mwh = grid_demand_mwh or {}
    # Every region is priced before the allocation, so its errors come first.
    location = {
        region: (
            compute_average_ci(mix, sources),
            _cfe_fraction(mix, sources, grid_demand_mwh.get(region)),
        )
        for region, mix in mixes.items()
    }
    allocation = allocate_contracts(mixes, contracts, sources, require_residual=True)
    market = attribute_market_based(mixes, contracts, consumers, sources, allocation=allocation)

    entries = []
    for i, consumer in enumerate(consumers):
        demand = consumer.demand_kwh
        ci_loc, fraction = location[consumer.region]
        if not isfinite(demand * ci_loc):  # attribute_market_based checks the market side
            raise ValueError(f"consumers[{i}].demand_kwh: emissions of consumer {consumer.id!r} overflow")
        cfe = demand * fraction
        claim_kwh = KWH_PER_MWH * allocation.claim_mwh(consumer.id)
        entries.append(
            ConsumerAttribution(
                consumer_id=consumer.id,
                region=consumer.region,
                demand_kwh=demand,
                method=consumer.method,
                location_based=MethodResult(
                    attributed_cfe_kwh=cfe,
                    attributed_fossil_kwh=demand - cfe,
                    ci_g_per_kwh=ci_loc,
                    emissions_g=demand * ci_loc,
                ),
                market_based=market[consumer.id],
                cfe_claim_kwh=min(claim_kwh, demand),
                over_claimed=claim_kwh > demand,
            )
        )

    counted_twice = _counted_twice(consumers, public_signal_adjusted)
    regions = []
    double_counted = 0.0
    for region, mix in sorted(mixes.items()):
        residual = allocation.residuals[region]
        regions.append(
            RegionSummary(
                region=region,
                ci_loc_g_per_kwh=location[region][0],
                ci_res_g_per_kwh=compute_average_ci(residual.mix, sources),
                total_energy_mwh=mix.total_energy,
                carbon_free_energy_mwh=mix.carbon_free_energy(sources),
                contracted_cfe_mwh=residual.total_removed,
                over_contracted=residual.over_contracted,
            )
        )
        if mix.region in counted_twice:
            double_counted += residual.total_removed

    return AttributionReport(
        consumers=tuple(entries),
        regions=tuple(regions),
        double_counted_cfe_mwh=double_counted,
    )
