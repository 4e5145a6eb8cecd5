from __future__ import annotations

import math
import re
import sys
from collections import Counter
from collections.abc import Mapping, Sequence

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridcarbon import (
    AttributionReport,
    ClaimExceedsDemand,
    Consumer,
    ConsumerAttribution,
    Contract,
    EmptyResidual,
    GridCarbonError,
    GridMix,
    MethodResult,
    RegionSummary,
    SourceRegistry,
    UnknownRegion,
    ZeroDemand,
    attribute_market_based,
    build_report,
    compute_average_ci,
    compute_market_ci,
    compute_residual_mix,
    detect_double_counting,
    total_emissions,
)
from gridcarbon import attribution as attribution_module
from gridcarbon import contracts as contracts_module
from gridcarbon.attribution import METHODS, _cfe_fraction
from gridcarbon.grid import KWH_PER_MWH

import reference_allocation


def _home(consumer_id: str, demand: float = 20.0, method: str = "location_based",
          region: str = "toy") -> Consumer:
    return Consumer(id=consumer_id, region=region, demand_kwh=demand, method=method)


def test_consumer_validation() -> None:
    for demand in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            Consumer(id="x", region="r", demand_kwh=demand)
    with pytest.raises(ValueError):
        Consumer(id="x", region="r", demand_kwh=1.0, method="vibes")


# --- location-based -------------------------------------------------------

def test_location_based_toy_grid(toy: GridMix) -> None:
    report = build_report(toy, [], [_home("H1"), _home("H2")])
    for result in (entry.location_based for entry in report.consumers):
        assert result.attributed_cfe_kwh == pytest.approx(10.0)
        assert result.attributed_fossil_kwh == pytest.approx(10.0)
        assert result.ci_g_per_kwh == 500.0
        assert result.emissions_g == pytest.approx(20.0 * 500.0)


def test_location_based_all_coal() -> None:
    mix = GridMix(region="r", generation={"coal": 100.0})
    result = build_report(mix, [], [_home("H1", region="r")]).consumer("H1").location_based
    assert result.attributed_cfe_kwh == 0.0
    assert result.ci_g_per_kwh == 1000.0


def test_location_based_share_uses_declared_grid_demand() -> None:
    # Rooftop surplus: generation 1000.01 MWh against 1000 MWh of demand.
    mix = GridMix(region="r", generation={"wind": 500.0, "solar": 0.01, "coal": 500.0})
    report = build_report(mix, [], [_home("H1", region="r")], grid_demand_mwh={"r": 1000.0})
    assert report.consumer("H1").location_based.attributed_cfe_kwh == pytest.approx(
        10.0002, rel=1e-12
    )


def test_location_based_identical_ci_for_everyone(toy: GridMix) -> None:
    report = build_report(toy, [], [_home("a", 5.0), _home("b", 50000.0)])
    a, b = (entry.location_based for entry in report.consumers)
    assert a.ci_g_per_kwh == b.ci_g_per_kwh


# --- market CI (per consumer) ---------------------------------------------

def test_market_ci_full_claim_is_zero() -> None:
    assert float(compute_market_ci(20_000.0, 20_000.0, 489.8)) == 0.0


def test_market_ci_no_claim_equals_residual() -> None:
    assert float(compute_market_ci(20.0, 0.0, 489.8)) == 489.8


def test_market_ci_half_claim() -> None:
    ci_res = 480_000.0 / 980.0
    assert float(compute_market_ci(20.0, 10.0, ci_res)) == pytest.approx(
        ci_res / 2.0, rel=1e-12
    )


def test_market_ci_rejects_over_claim() -> None:
    with pytest.raises(ClaimExceedsDemand):
        compute_market_ci(10.0, 10.5, 500.0)


def test_market_ci_rejects_zero_demand() -> None:
    with pytest.raises(ZeroDemand):
        compute_market_ci(0.0, 0.0, 500.0)


@pytest.mark.parametrize(
    ("demand", "claim", "ci_res", "message"),
    [
        (100.0, float("nan"), 100.0, "carbon-free claim must be finite, got nan"),
        (float("inf"), 1.0, 1.0, "demand must be finite, got inf"),
        (float("nan"), 0.0, 1.0, "demand must be finite, got nan"),
        (100.0, 10.0, float("inf"), "residual CI must be finite, got inf"),
        (100.0, 10.0, float("-inf"), "residual CI must be finite, got -inf"),
        (100.0, 10.0, -5.0, "residual CI must be >= 0, got -5.0"),
        (100.0, 0.0, -5.0, "residual CI must be >= 0, got -5.0"),
    ],
)
def test_market_ci_rejects_non_finite_numbers_and_a_negative_ci(demand, claim, ci_res, message) -> None:
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        compute_market_ci(demand, claim, ci_res)


def test_market_ci_rejects_a_negative_claim() -> None:
    with pytest.raises(ValueError, match=r"^carbon-free claim must be >= 0, got -1\.0$"):
        compute_market_ci(100.0, -1.0, 100.0)


# --- market-based attribution ---------------------------------------------

def _case2_mix() -> GridMix:
    return GridMix(region="local", generation={"wind": 500.0, "solar": 20.0, "coal": 480.0})


def _case2_contract() -> Contract:
    return Contract(id="ppa", buyer="C1", kind="physical_offsite",
                    source_id="solar", source_region="local", energy_mwh=20.0)


def test_market_based_contract_holder_and_bystander() -> None:
    consumers = [
        Consumer(id="C1", region="local", demand_kwh=20_000.0, method="market_based"),
        Consumer(id="H1", region="local", demand_kwh=20.0, method="market_based"),
    ]
    results = attribute_market_based(_case2_mix(), [_case2_contract()], consumers)
    assert results["C1"].ci_g_per_kwh == 0.0
    assert results["C1"].attributed_cfe_kwh == 20_000.0
    ci_res = 480_000.0 / 980.0
    assert results["H1"].ci_g_per_kwh == pytest.approx(ci_res, rel=1e-12)
    assert results["H1"].attributed_cfe_kwh == pytest.approx(20.0 * 500.0 / 980.0, rel=1e-12)


def test_market_based_cross_region_ppa() -> None:
    local = GridMix(region="local", generation={"wind": 500.0, "coal": 500.0})
    remote = GridMix(region="remote", generation={"solar": 20.0, "wind": 80.0, "coal": 400.0})
    ppa = Contract(id="fin", buyer="C1", kind="financial", source_id="solar",
                   source_region="remote", energy_mwh=20.0)
    consumers = [
        Consumer(id="C1", region="local", demand_kwh=20_000.0, method="market_based"),
        Consumer(id="H1", region="local", demand_kwh=20.0, method="market_based"),
        Consumer(id="R1", region="remote", demand_kwh=20.0, method="market_based"),
    ]
    results = attribute_market_based({"local": local, "remote": remote}, [ppa], consumers)
    assert results["C1"].ci_g_per_kwh == 0.0  # claim crosses regions
    assert results["H1"].ci_g_per_kwh == 500.0  # local mix untouched
    assert results["H1"].attributed_cfe_kwh == pytest.approx(10.0)
    assert results["R1"].ci_g_per_kwh == pytest.approx(400_000.0 / 480.0, rel=1e-12)


def test_market_based_clamps_over_claim() -> None:
    mix = GridMix(region="r", generation={"wind": 100.0, "coal": 100.0})
    greedy = Contract(id="big", buyer="C1", kind="financial", source_id="wind",
                      source_region="r", energy_mwh=50.0)  # 50 MWh against 10 kWh demand
    consumers = [Consumer(id="C1", region="r", demand_kwh=10.0, method="market_based")]
    results = attribute_market_based(mix, [greedy], consumers)
    assert results["C1"].ci_g_per_kwh == 0.0
    assert results["C1"].attributed_cfe_kwh == 10.0


def test_market_based_requires_consumer_region() -> None:
    consumers = [Consumer(id="C1", region="nowhere", demand_kwh=1.0, method="market_based")]
    with pytest.raises(UnknownRegion):
        attribute_market_based(GridMix(region="r", generation={"wind": 1.0}), [], consumers)


def test_market_based_fully_contracted_region() -> None:
    mix = GridMix(region="r", generation={"wind": 10.0})
    contract = Contract(id="all", buyer="C1", kind="financial", source_id="wind",
                        source_region="r", energy_mwh=10.0)
    consumers = [Consumer(id="C1", region="r", demand_kwh=10_000.0, method="market_based")]
    with pytest.raises(EmptyResidual):
        attribute_market_based(mix, [contract], consumers)


def test_build_report_names_a_consumer_whose_emissions_overflow() -> None:
    """Location emissions (500 g/kWh) fit a float, market emissions at the
    residual CI (1000 g/kWh, the wind is contracted) do not; and the other
    way round, for a buyer whose claim covers its demand."""
    mix = GridMix(region="r", generation={"wind": 500.0, "coal": 500.0})
    contract = Contract(id="all", buyer="B", kind="financial", source_id="wind",
                        source_region="r", energy_mwh=500.0)
    consumers = [_home("B", region="r"), _home("H1", demand=2e305, region="r")]
    with pytest.raises(ValueError, match=re.escape("consumers[1].demand_kwh: emissions of consumer 'H1'")):
        build_report(mix, [contract], consumers)
    mix = GridMix(region="r", generation={"wind": 1e303, "coal": 1e303})
    contract = Contract(id="all", buyer="B", kind="financial", source_id="wind",
                        source_region="r", energy_mwh=1e303)
    message = "^" + re.escape("consumers[0].demand_kwh: emissions of consumer 'B' overflow") + "$"
    with pytest.raises(ValueError, match=message):
        build_report(mix, [contract], [_home("B", demand=1e306, region="r")])


def test_market_based_names_a_consumer_whose_emissions_overflow() -> None:
    """attribute_market_based on its own raises build_report's error, rather
    than return infinite emissions at the residual CI."""
    mix = GridMix(region="r", generation={"wind": 500.0, "coal": 500.0})
    contract = Contract(id="all", buyer="B", kind="financial", source_id="wind",
                        source_region="r", energy_mwh=500.0)
    consumers = [_home("B", region="r"), _home("H1", demand=2e305, region="r")]
    message = "^" + re.escape("consumers[1].demand_kwh: emissions of consumer 'H1' overflow") + "$"
    with pytest.raises(ValueError, match=message):
        attribute_market_based(mix, [contract], consumers)


def test_build_report_rejects_a_zero_declared_grid_demand() -> None:
    mix = GridMix(region="r", generation={"wind": 500.0, "coal": 500.0})
    with pytest.raises(ValueError, match="^carbon-free fraction needs a positive energy total$"):
        build_report(mix, [], [_home("H1", region="r")], grid_demand_mwh={"r": 0.0})


# --- double counting -------------------------------------------------------

def test_double_counting_mixed_methods() -> None:
    mix = GridMix(region="r", generation={"wind": 500.0, "solar": 0.01, "coal": 500.0})
    contract = Contract(id="rooftop", buyer="H2", kind="physical_onsite",
                        source_id="solar", source_region="r", energy_mwh=0.01)
    consumers = [
        _home("H1", region="r", method="location_based"),
        _home("H2", region="r", method="market_based"),
    ]
    counted = detect_double_counting(mix, [contract], consumers, public_signal_adjusted=False)
    assert counted == 0.01  # MWh, i.e. the 10 kWh rooftop claim


def test_double_counting_zero_when_adjusted() -> None:
    mix = GridMix(region="r", generation={"wind": 500.0, "solar": 0.01, "coal": 500.0})
    contract = Contract(id="rooftop", buyer="H2", kind="physical_onsite",
                        source_id="solar", source_region="r", energy_mwh=0.01)
    consumers = [_home("H1", region="r"), _home("H2", region="r", method="market_based")]
    assert detect_double_counting(mix, [contract], consumers, True) == 0.0


def test_double_counting_zero_without_location_consumers() -> None:
    mix = GridMix(region="r", generation={"wind": 500.0, "solar": 0.01, "coal": 500.0})
    contract = Contract(id="rooftop", buyer="H2", kind="physical_onsite",
                        source_id="solar", source_region="r", energy_mwh=0.01)
    consumers = [_home("H2", region="r", method="market_based")]
    assert detect_double_counting(mix, [contract], consumers, False) == 0.0


def test_double_counting_zero_without_contracts(toy: GridMix) -> None:
    assert detect_double_counting(toy, [], [_home("H1")], False) == 0.0


# --- report level ----------------------------------------------------------

def test_report_shares_sum_to_demand(toy: GridMix) -> None:
    consumers = [_home("H1"), _home("H2", method="market_based")]
    report = build_report(toy, [], consumers)
    for entry in report.consumers:
        for result in (entry.location_based, entry.market_based):
            assert result.attributed_cfe_kwh + result.attributed_fossil_kwh == pytest.approx(
                entry.demand_kwh
            )
            assert result.emissions_g == pytest.approx(entry.demand_kwh * result.ci_g_per_kwh)


def test_report_flags_over_claim() -> None:
    mix = GridMix(region="r", generation={"wind": 100.0, "coal": 100.0})
    greedy = Contract(id="big", buyer="C1", kind="financial", source_id="wind",
                      source_region="r", energy_mwh=50.0)
    consumers = [Consumer(id="C1", region="r", demand_kwh=10.0, method="market_based")]
    report = build_report(mix, [greedy], consumers)
    entry = report.consumer("C1")
    assert entry.over_claimed
    assert entry.cfe_claim_kwh == 10.0
    assert report.region("r").over_contracted == frozenset()


def test_report_unknown_lookups(toy: GridMix) -> None:
    report = build_report(toy, [], [_home("H1")])
    with pytest.raises(KeyError):
        report.consumer("nope")
    with pytest.raises(KeyError):
        report.region("nope")


# --- cross-method invariants ------------------------------------------------

@given(
    wind=st.floats(min_value=1.0, max_value=1e4),
    coal=st.floats(min_value=1.0, max_value=1e4),
    demand_a=st.floats(min_value=0.0, max_value=1e5),
    demand_b=st.floats(min_value=0.0, max_value=1e5),
)
def test_methods_agree_without_contracts(wind, coal, demand_a, demand_b) -> None:
    mix = GridMix(region="r", generation={"wind": wind, "coal": coal})
    consumers = [
        Consumer(id="a", region="r", demand_kwh=demand_a),
        Consumer(id="b", region="r", demand_kwh=demand_b, method="market_based"),
    ]
    report = build_report(mix, [], consumers)
    for cid in ("a", "b"):
        entry = report.consumer(cid)
        assert entry.market_based.ci_g_per_kwh == pytest.approx(
            entry.location_based.ci_g_per_kwh, rel=1e-12
        )


@given(
    wind=st.floats(min_value=1.0, max_value=1e3),
    coal=st.floats(min_value=1.0, max_value=1e3),
    split=st.floats(min_value=0.0, max_value=1.0),
    claim_fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_market_emissions_conserved(wind, coal, split, claim_fraction) -> None:
    """Green claims move emissions between consumers, never destroy them."""
    mix = GridMix(region="r", generation={"wind": wind, "coal": coal})
    total_kwh = mix.total_energy * 1000.0
    demand_a = total_kwh * split
    demand_b = total_kwh - demand_a
    claim_mwh = min(wind * claim_fraction, demand_a / 1000.0)
    contracts = []
    if claim_mwh > 0:
        contracts = [Contract(id="w", buyer="a", kind="financial", source_id="wind",
                              source_region="r", energy_mwh=claim_mwh)]
    consumers = [
        Consumer(id="a", region="r", demand_kwh=demand_a, method="market_based"),
        Consumer(id="b", region="r", demand_kwh=demand_b, method="market_based"),
    ]
    try:
        results = attribute_market_based(mix, contracts, consumers)
    except EmptyResidual:
        return
    attributed = sum(r.emissions_g for r in results.values())
    assert attributed == pytest.approx(total_emissions(mix), rel=1e-6)


@given(
    wind=st.floats(min_value=1.0, max_value=1e4),
    coal=st.floats(min_value=1.0, max_value=1e4),
    claim=st.floats(min_value=0.1, max_value=0.9),
)
def test_adding_contract_never_helps_bystander(wind, coal, claim) -> None:
    mix = GridMix(region="r", generation={"wind": wind, "coal": coal})
    contract = Contract(id="w", buyer="a", kind="financial", source_id="wind",
                        source_region="r", energy_mwh=wind * claim)
    consumers = [
        Consumer(id="a", region="r", demand_kwh=1000.0, method="market_based"),
        Consumer(id="b", region="r", demand_kwh=1000.0, method="market_based"),
    ]
    before = attribute_market_based(mix, [], consumers)["b"].ci_g_per_kwh
    after = attribute_market_based(mix, [contract], consumers)["b"].ci_g_per_kwh
    assert after >= before - 1e-9


def test_ci_ordering_for_claimants() -> None:
    mix = _case2_mix()
    ci_res = compute_average_ci(compute_residual_mix(mix, [_case2_contract()]).mix)
    consumers = [
        Consumer(id="C1", region="local", demand_kwh=20_000.0, method="market_based"),
        Consumer(id="H1", region="local", demand_kwh=20.0, method="market_based"),
    ]
    results = attribute_market_based(mix, [_case2_contract()], consumers)
    assert results["C1"].ci_g_per_kwh < ci_res  # has a claim
    assert results["H1"].ci_g_per_kwh == pytest.approx(ci_res)  # no claim


# --- differential: build_report against the quadratic reference ------------
#
# The four functions below are verbatim copies of build_report and the three
# functions it called before allocation was shared, with their calls renamed
# to each other; the market-based one also has the library's duplicate-id
# guard, at the same point. They re-allocate every region for every consumer, twice, so
# they are the reference the linear build_report must match exactly: equal
# reports (bit-exact floats), or the same exception with the same message.
# They allocate through reference_allocation, the single-step allocation as
# it was before the kernel, so they do not share code with what they check.


def _reference_attribute_location_based(
    mix: GridMix,
    consumers: Sequence[Consumer],
    sources: SourceRegistry | None = None,
    grid_demand_mwh: float | None = None,
) -> dict[str, MethodResult]:
    """Location-based attribution: one CI and CFE share for everyone.

    Raises:
        EmptyMix: if the mix has zero generation.
    """
    sources = SourceRegistry.default() if sources is None else sources
    ci_loc = compute_average_ci(mix, sources)
    fraction = _cfe_fraction(mix, sources, grid_demand_mwh)
    results: dict[str, MethodResult] = {}
    for consumer in consumers:
        cfe = consumer.demand_kwh * fraction
        results[consumer.id] = MethodResult(
            attributed_cfe_kwh=cfe,
            attributed_fossil_kwh=consumer.demand_kwh - cfe,
            ci_g_per_kwh=ci_loc,
            emissions_g=consumer.demand_kwh * ci_loc,
        )
    return results


def _reference_contracted_cfe_for_buyer(
    contracts: Sequence[Contract],
    buyer: str,
    mixes: GridMix | Mapping[str, GridMix],
    sources: SourceRegistry | None = None,
    step: int = 0,
) -> float:
    """Carbon-free energy (MWh) deliverable to a buyer at one step.

    Sums the buyer's contracted energy across regions after the same
    per-source clamping and proration used for the residual mix, so a
    buyer competing for scarce generation only gets its pro-rata share.

    Raises:
        UnknownRegion: if one of the buyer's contracts sources energy
            from a region with no mix provided.
    """
    sources = sources or SourceRegistry.default()
    if isinstance(mixes, GridMix):
        mixes = {mixes.region: mixes}
    for contract in contracts:
        if contract.buyer == buyer and contract.source_region not in mixes:
            raise UnknownRegion(
                f"contract {contract.id!r} sources from region {contract.source_region!r}, "
                f"for which no mix was provided"
            )
    total = 0.0
    for mix in mixes.values():
        allocations, _, _ = reference_allocation._allocate(mix, contracts, sources, step)
        for contract in contracts:
            if contract.buyer == buyer and contract.source_region == mix.region:
                total += allocations.get(contract.id, 0.0)
    return total


def _reference_attribute_market_based(
    mixes: GridMix | Mapping[str, GridMix],
    contracts: Sequence[Contract],
    consumers: Sequence[Consumer],
    sources: SourceRegistry | None = None,
    step: int = 0,
) -> dict[str, MethodResult]:
    """Market-based attribution across one or more regions.

    Every region's residual mix removes *all* contracts sourced there,
    including claims by buyers in other regions; each consumer's
    residual demand is then priced at their own region's residual CI.
    Claims above a consumer's demand are clamped to the demand (the
    over-claim is visible via :func:`build_report`).

    Raises:
        EmptyResidual: if a region's generation is fully contracted.
        UnknownRegion: if a consumer's region has no mix.
    """
    sources = sources or SourceRegistry.default()
    if isinstance(mixes, GridMix):
        mixes = {mixes.region: mixes}

    residual_ci: dict[str, float] = {}
    residual_fraction: dict[str, float] = {}
    for region, mix in mixes.items():
        residual = reference_allocation.compute_residual_mix(mix, contracts, sources, step)
        if residual.total_energy <= 0:
            raise EmptyResidual(
                f"all generation in region {region!r} is under contract; residual mix is empty"
            )
        residual_ci[region] = float(compute_average_ci(residual.mix, sources))
        residual_fraction[region] = _cfe_fraction(residual.mix, sources)

    results: dict[str, MethodResult] = {}
    for consumer in consumers:
        if consumer.id in results:
            raise ValueError(f"duplicate consumer id {consumer.id!r}")
        if consumer.region not in mixes:
            raise UnknownRegion(f"no mix provided for region {consumer.region!r}")
        claim_kwh = KWH_PER_MWH * _reference_contracted_cfe_for_buyer(
            contracts, consumer.id, mixes, sources, step
        )
        claim_kwh = min(claim_kwh, consumer.demand_kwh)
        residual_demand = consumer.demand_kwh - claim_kwh
        ci_res = residual_ci[consumer.region]
        # With no claim the formula collapses to ci_res exactly; taking the
        # shortcut keeps that identity float-exact for any demand (and covers
        # zero demand, where the ratio form is undefined).
        if residual_demand == consumer.demand_kwh:
            ci = ci_res
        else:
            ci = residual_demand * ci_res / consumer.demand_kwh
        cfe = claim_kwh + residual_demand * residual_fraction[consumer.region]
        results[consumer.id] = MethodResult(
            attributed_cfe_kwh=cfe,
            attributed_fossil_kwh=consumer.demand_kwh - cfe,
            ci_g_per_kwh=ci,
            emissions_g=consumer.demand_kwh * ci,
        )
    return results


def _reference_build_report(
    mixes: GridMix | Mapping[str, GridMix],
    contracts: Sequence[Contract],
    consumers: Sequence[Consumer],
    sources: SourceRegistry | None = None,
    grid_demand_mwh: Mapping[str, float] | None = None,
    public_signal_adjusted: bool = False,
    step: int = 0,
) -> AttributionReport:
    """Run both accounting methods and assemble the full report.

    ``grid_demand_mwh`` optionally declares total grid demand per region
    for quoting the location-based carbon-free share (see
    :func:`_reference_attribute_location_based`).
    """
    sources = sources or SourceRegistry.default()
    if isinstance(mixes, GridMix):
        mixes = {mixes.region: mixes}
    grid_demand_mwh = dict(grid_demand_mwh or {})

    location: dict[str, MethodResult] = {}
    for region, mix in mixes.items():
        in_region = [c for c in consumers if c.region == region]
        location.update(
            _reference_attribute_location_based(mix, in_region, sources, grid_demand_mwh.get(region))
        )
    market = _reference_attribute_market_based(mixes, contracts, consumers, sources, step)

    entries = []
    for consumer in consumers:
        claim_kwh = KWH_PER_MWH * _reference_contracted_cfe_for_buyer(
            contracts, consumer.id, mixes, sources, step
        )
        entries.append(
            ConsumerAttribution(
                consumer_id=consumer.id,
                region=consumer.region,
                demand_kwh=consumer.demand_kwh,
                method=consumer.method,
                location_based=location[consumer.id],
                market_based=market[consumer.id],
                cfe_claim_kwh=min(claim_kwh, consumer.demand_kwh),
                over_claimed=claim_kwh > consumer.demand_kwh,
            )
        )

    regions = []
    double_counted = 0.0
    for region, mix in sorted(mixes.items()):
        residual = reference_allocation.compute_residual_mix(mix, contracts, sources, step)
        regions.append(
            RegionSummary(
                region=region,
                ci_loc_g_per_kwh=float(compute_average_ci(mix, sources)),
                ci_res_g_per_kwh=float(compute_average_ci(residual.mix, sources))
                if residual.total_energy > 0
                else 0.0,
                total_energy_mwh=mix.total_energy,
                carbon_free_energy_mwh=mix.carbon_free_energy(sources),
                contracted_cfe_mwh=residual.total_removed,
                over_contracted=residual.over_contracted,
            )
        )
        double_counted += detect_double_counting(
            mix, contracts, consumers, public_signal_adjusted, sources
        )

    return AttributionReport(
        consumers=tuple(entries),
        regions=tuple(regions),
        double_counted_cfe_mwh=double_counted,
    )


REGIONS = ("a", "b", "c")
GENERATION_SOURCES = ("solar", "wind", "hydro", "gas", "coal")
CONSUMER_IDS = ("c0", "c1", "c2", "c3", "c4")
# Rare cases stay rare: an unknown region or a coal contract fails the
# whole report, which would leave few successful ones to compare.
_RARELY = 8


@st.composite
def _attribution_inputs(draw):
    regions = draw(st.lists(st.sampled_from(REGIONS), min_size=1, max_size=3, unique=True))
    mixes = {
        region: GridMix(
            region=region,
            generation=draw(
                st.dictionaries(
                    st.sampled_from(GENERATION_SOURCES),
                    st.floats(min_value=0.0, max_value=100.0),
                    min_size=1,
                    max_size=5,
                )
            ),
        )
        for region in regions
    }
    # "z" has no mix: consumers there and contracts sourced there are errors.
    known_or_z = st.sampled_from((*regions * _RARELY, "z"))
    consumers = draw(
        st.lists(
            st.builds(
                Consumer,
                id=st.sampled_from(CONSUMER_IDS),
                region=known_or_z,
                demand_kwh=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5e4)),
                method=st.sampled_from(("location_based", "market_based")),
            ),
            max_size=6,
        )
    )
    contracts = draw(
        st.lists(
            st.builds(
                Contract,
                id=st.sampled_from(("k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7")),
                buyer=st.sampled_from((*CONSUMER_IDS, "outsider")),
                kind=st.just("financial"),
                source_id=st.sampled_from(("solar", "wind", "hydro") * _RARELY + ("coal",)),
                source_region=known_or_z,
                energy_mwh=st.floats(min_value=0.0, max_value=150.0),
            ),
            max_size=8,
        )
    )
    grid_demand = draw(
        st.dictionaries(st.sampled_from(regions), st.floats(min_value=1.0, max_value=500.0))
    )
    return mixes, contracts, consumers, grid_demand, draw(st.booleans())


def _outcome(func, *args):
    try:
        return func(*args)
    except (GridCarbonError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.differential
@given(_attribution_inputs())
def test_build_report_matches_quadratic_reference(inputs) -> None:
    mixes, contracts, consumers, grid_demand, adjusted = inputs
    sources = SourceRegistry.default()
    args = (mixes, contracts, consumers, sources, grid_demand, adjusted)
    assert _outcome(build_report, *args) == _outcome(_reference_build_report, *args)


def test_build_report_allocates_each_region_once(monkeypatch) -> None:
    regions = [f"r{i}" for i in range(10)]
    size = 10_000
    mixes = {
        region: GridMix(region=region, generation={"solar": 5e3, "wind": 5e3, "coal": 1e4})
        for region in regions
    }
    consumers = [
        Consumer(id=f"c{i}", region=regions[i % 10], demand_kwh=1000.0 + i,
                 method="market_based" if i % 2 else "location_based")
        for i in range(size)
    ]
    contracts = [
        Contract(id=f"k{i}", buyer=f"c{(7 * i) % size}", kind="financial",
                 source_id="solar" if i % 3 else "wind", source_region=regions[(3 * i) % 10],
                 energy_mwh=1.5)
        for i in range(size)
    ]
    calls = []
    allocate = contracts_module._remove_contracted

    def counting(*args, **kwargs):
        calls.append(args[0])
        return allocate(*args, **kwargs)

    monkeypatch.setattr(contracts_module, "_remove_contracted", counting)
    report = build_report(mixes, contracts, consumers)
    assert sorted(calls) == regions
    assert len(report.consumers) == size


def test_build_report_prices_each_region_once(monkeypatch) -> None:
    """A report computes a region's location CI once and its residual CI
    twice: in attribute_market_based and for the region summary."""
    mixes = {
        region: GridMix(region=region, generation={"solar": 50.0, "wind": 20.0, "coal": 50.0})
        for region in ("a", "b", "c")
    }
    consumers = [
        Consumer(id=f"{region}{i}", region=region, demand_kwh=10.0 + i,
                 method="market_based" if i % 2 else "location_based")
        for region in mixes
        for i in range(3)
    ]
    contracts = [
        Contract(id=f"k-{region}", buyer=f"{region}1", kind="financial", source_id="solar",
                 source_region=region, energy_mwh=5.0)
        for region in mixes
    ]
    calls = Counter()
    price = attribution_module.compute_average_ci

    def counting(mix, *args, **kwargs):
        calls[mix.region] += 1
        return price(mix, *args, **kwargs)

    monkeypatch.setattr(attribution_module, "compute_average_ci", counting)
    build_report(mixes, contracts, consumers)
    assert set(calls) == set(mixes)
    assert max(calls.values()) <= 3, calls


def test_duplicate_consumer_ids_rejected() -> None:
    """Results and claims are keyed by consumer id, so a repeated id would
    hand one consumer another's results; it is an error instead."""
    mixes = {
        "a": GridMix(region="a", generation={"solar": 50.0, "coal": 50.0}),
        "b": GridMix(region="b", generation={"coal": 100.0}),
    }
    consumers = [
        Consumer(id="c", region="a", demand_kwh=10.0),
        Consumer(id="c", region="b", demand_kwh=20.0, method="market_based"),
    ]
    for attribute in (build_report, attribute_market_based):
        with pytest.raises(ValueError, match="^duplicate consumer id 'c'$"):
            attribute(mixes, [], consumers)


# --- accounting closure: the report's emissions add up ----------------------
#
# Each identity below holds exactly in real arithmetic once the demand is
# laid out as it states. In floats each side is a sum of positive products,
# so it is off by a few roundings per term it sums (a product or quotient,
# then its place in a sum): the bound is CLOSURE_ROUNDINGS eps for each
# term. On 5000 examples of each test the largest error was 0.36 eps per
# term. The strategies build the preconditions in: fossil generation in
# every region (no EmptyResidual), at most two contracts of 0.01-0.49 of a
# source (no over-contracted source), and each buyer's demand its claim
# plus a share of the residual demand (no over-claim).

CLOSURE_ROUNDINGS = 4
_GENERATION = st.floats(min_value=1.0, max_value=1e4)
_WEIGHT = st.floats(min_value=0.1, max_value=1.0)


def _assert_closes(parts: Sequence[float], total: float, terms: int) -> None:
    bound = CLOSURE_ROUNDINGS * terms * sys.float_info.epsilon
    assert math.fsum(parts) == pytest.approx(total, rel=bound, abs=0.0)


@st.composite
def _closure_grids(draw, regions: int) -> dict[str, GridMix]:
    """``regions`` mixes of solar, wind, gas and coal, each source generating."""
    names = [f"r{i}" for i in range(regions)]
    sources = ("solar", "wind", "gas", "coal")
    return {name: GridMix(region=name, generation={s: draw(_GENERATION) for s in sources}) for name in names}


@st.composite
def _closure_contracts(draw, mixes: Mapping[str, GridMix], buyers: Sequence[str]) -> list[Contract]:
    """Up to two contracts on each carbon-free source, bought by any of ``buyers``."""
    contracts = []
    for region, mix in mixes.items():
        for source in ("solar", "wind"):
            for _ in range(draw(st.integers(0, 2))):
                share = draw(st.floats(min_value=0.01, max_value=0.49))
                contracts.append(
                    Contract(
                        id=f"k{len(contracts)}",
                        buyer=draw(st.sampled_from(buyers)),
                        kind="financial",
                        source_id=source,
                        source_region=region,
                        energy_mwh=share * mix.generation[source],
                    )
                )
    return contracts


def _split(draw, total_kwh: float, ids: Sequence[str], claims_kwh: Mapping[str, float]) -> dict[str, float]:
    """Each id's demand: its claim plus a weighted share of ``total_kwh``."""
    weights = [draw(_WEIGHT) for _ in ids]
    return {i: claims_kwh.get(i, 0.0) + total_kwh * w / math.fsum(weights) for i, w in zip(ids, weights)}


def _claims_kwh(contracts: Sequence[Contract]) -> dict[str, float]:
    claims = {}
    for contract in contracts:
        claims[contract.buyer] = claims.get(contract.buyer, 0.0) + KWH_PER_MWH * contract.energy_mwh
    return claims


def _check_preconditions(report: AttributionReport) -> None:
    assert not any(entry.over_claimed for entry in report.consumers)
    assert not any(region.over_contracted for region in report.regions)


@st.composite
def location_closure_cases(draw):
    """Mixes, contracts, and consumers whose demands in each region add up to its generation."""
    mixes = draw(_closure_grids(draw(st.integers(1, 3))))
    ids = {region: [f"{region}c{j}" for j in range(draw(st.integers(1, 3)))] for region in mixes}
    consumers = [
        Consumer(id=i, region=region, demand_kwh=demand, method=draw(st.sampled_from(sorted(METHODS))))
        for region, mix in mixes.items()
        for i, demand in _split(draw, KWH_PER_MWH * mix.total_energy, ids[region], {}).items()
    ]
    contracts = draw(_closure_contracts(mixes, [c.id for c in consumers]))
    return mixes, contracts, consumers


@pytest.mark.differential
@given(case=location_closure_cases())
def test_location_based_emissions_add_up_to_each_region(case) -> None:
    """Demand that adds up to a region's generation carries all of its
    emissions at the location CI, whatever the contracts claim."""
    mixes, contracts, consumers = case
    report = build_report(mixes, contracts, consumers)
    for region, mix in mixes.items():
        parts = [e.location_based.emissions_g for e in report.consumers if e.region == region]
        _assert_closes(parts, total_emissions(mix), len(parts) + len(mix.generation))


@st.composite
def market_closure_cases(draw):
    """Two or three regions, contracts bought across regions, and in each
    region consumer demand of generation minus the contracted MWh sourced
    there plus the contracted MWh bought there."""
    mixes = draw(_closure_grids(draw(st.integers(2, 3))))
    ids = {region: [f"{region}c{j}" for j in range(draw(st.integers(1, 3)))] for region in mixes}
    contracts = draw(_closure_contracts(mixes, [i for region in mixes for i in ids[region]]))
    claims = _claims_kwh(contracts)
    consumers = []
    for region, mix in mixes.items():
        sourced = math.fsum(c.energy_mwh for c in contracts if c.source_region == region)
        residual_kwh = KWH_PER_MWH * (mix.total_energy - sourced)
        consumers += [
            Consumer(id=i, region=region, demand_kwh=demand, method=draw(st.sampled_from(sorted(METHODS))))
            for i, demand in _split(draw, residual_kwh, ids[region], claims).items()
        ]
    return mixes, contracts, consumers


@pytest.mark.differential
@given(case=market_closure_cases())
def test_market_based_emissions_add_up_across_regions(case) -> None:
    """Claims move emissions between consumers and regions, never destroy
    them: the market-based emissions of all consumers are those of all regions."""
    mixes, contracts, consumers = case
    report = build_report(mixes, contracts, consumers)
    _check_preconditions(report)
    parts = [entry.market_based.emissions_g for entry in report.consumers]
    grids = [total_emissions(mix) for mix in mixes.values()]
    _assert_closes(parts, math.fsum(grids), len(parts) + len(contracts) + sum(len(m.generation) for m in mixes.values()))


@st.composite
def double_counting_cases(draw):
    """One region read through its unadjusted signal: location-based
    consumers with demand L, and market-based ones who buy every contract,
    each demanding its claim plus a share of the rest of generation G."""
    mix = draw(_closure_grids(1))["r0"]
    located = [f"l{j}" for j in range(draw(st.integers(1, 3)))]
    marketed = [f"m{j}" for j in range(draw(st.integers(1, 3)))]
    contracts = draw(_closure_contracts({"r0": mix}, marketed))
    free_kwh = KWH_PER_MWH * (mix.total_energy - math.fsum(c.energy_mwh for c in contracts))
    located_share = draw(st.floats(min_value=0.05, max_value=0.95))
    demands = _split(draw, located_share * free_kwh, located, {})
    demands |= _split(draw, (1.0 - located_share) * free_kwh, marketed, _claims_kwh(contracts))
    consumers = [
        Consumer(id=i, region="r0", demand_kwh=demand, method="location_based" if i in located else "market_based")
        for i, demand in demands.items()
    ]
    return mix, contracts, consumers


@pytest.mark.differential
@given(case=double_counting_cases())
def test_double_counting_gap_closes_the_emissions(case) -> None:
    """Each consumer priced by its own method, the reported emissions fall
    short of the grid's by the double-counted MWh at the residual CI, times
    the location-based share L / G of generation."""
    mix, contracts, consumers = case
    report = build_report(mix, contracts, consumers)
    _check_preconditions(report)
    (region,) = report.regions
    located_mwh = math.fsum(c.demand_kwh for c in consumers if c.method == "location_based") / KWH_PER_MWH
    gap = KWH_PER_MWH * report.double_counted_cfe_mwh * region.ci_res_g_per_kwh * located_mwh / mix.total_energy
    parts = [entry.selected.emissions_g for entry in report.consumers] + [gap]
    _assert_closes(parts, total_emissions(mix), len(parts) + len(contracts) + len(mix.generation))
