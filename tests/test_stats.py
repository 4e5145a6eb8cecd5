from __future__ import annotations

from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridcarbon import (
    EmptyFleet,
    EmptyMix,
    EmptyResidual,
    GridMix,
    RegionDataset,
    fleet_fixtures,
    penetration,
    penetration_fleet,
    period_ci,
    period_residual_ci,
    south_australia_fixture,
    total_signal,
)
from gridcarbon.stats import inflation_pct


def _dataset(generations: list[dict[str, float]], region: str = "r",
             published: tuple[float, ...] | None = None) -> RegionDataset:
    start = datetime(2022, 6, 1, tzinfo=timezone.utc)
    steps = tuple(
        GridMix(region=region, generation=g, timestamp=start + timedelta(hours=h))
        for h, g in enumerate(generations)
    )
    return RegionDataset(region=region, mixes=steps, published_ci=published)


# --- penetration -------------------------------------------------------------

def test_penetration_single_step() -> None:
    stat = penetration(_dataset([{"wind": 50.0, "coal": 50.0}]))
    assert stat.solar_wind_pct == pytest.approx(50.0, rel=1e-12)
    assert stat.total_generation_mwh == 100.0
    assert stat.solar_wind_mwh == 50.0


def test_penetration_is_energy_weighted() -> None:
    dataset = _dataset([{"solar": 50.0, "coal": 50.0}, {"coal": 300.0}])
    assert penetration(dataset).solar_wind_pct == pytest.approx(12.5, rel=1e-12)
    assert penetration(dataset, per_hour_mean=True).solar_wind_pct == pytest.approx(25.0)


def test_penetration_skips_dead_hours_in_mean() -> None:
    dataset = _dataset([{"solar": 50.0, "coal": 50.0}, {"coal": 0.0}])
    assert penetration(dataset, per_hour_mean=True).solar_wind_pct == pytest.approx(50.0)


def test_penetration_custom_categories() -> None:
    dataset = _dataset([{"solar": 10.0, "wind": 30.0, "hydro": 60.0}])
    assert penetration(dataset, categories=("solar",)).solar_wind_pct == pytest.approx(10.0)
    assert penetration(dataset, categories=("solar", "wind", "hydro")).solar_wind_pct == 100.0


def test_penetration_empty_dataset() -> None:
    with pytest.raises(EmptyMix):
        penetration(_dataset([{"wind": 0.0}]))


@given(
    solar=st.floats(min_value=0.0, max_value=1e4),
    coal=st.floats(min_value=1.0, max_value=1e4),
    split=st.floats(min_value=0.05, max_value=0.95),
)
def test_penetration_split_step_invariant(solar: float, coal: float, split: float) -> None:
    """Splitting one hour into two partial hours must not move the share."""
    whole = _dataset([{"solar": solar, "coal": coal}])
    halves = _dataset(
        [
            {"solar": solar * split, "coal": coal * split},
            {"solar": solar * (1 - split), "coal": coal * (1 - split)},
        ]
    )
    assert penetration(halves).solar_wind_pct == pytest.approx(
        penetration(whole).solar_wind_pct, rel=1e-9
    )


def test_fleet_two_regions() -> None:
    fleet = penetration_fleet(
        [
            _dataset([{"wind": 10.0, "coal": 90.0}], region="a"),
            _dataset([{"wind": 30.0, "coal": 70.0}], region="b"),
        ]
    )
    assert [s.region for s in fleet.stats] == ["a", "b"]
    assert fleet.cdf == ((pytest.approx(10.0), 0.5), (pytest.approx(30.0), 1.0))


def test_fleet_collapses_ties() -> None:
    fleet = penetration_fleet(
        [
            _dataset([{"wind": 10.0, "coal": 90.0}], region="a"),
            _dataset([{"wind": 10.0, "coal": 90.0}], region="b"),
            _dataset([{"wind": 30.0, "coal": 70.0}], region="c"),
        ]
    )
    assert fleet.cdf == ((pytest.approx(10.0), pytest.approx(2 / 3)), (pytest.approx(30.0), 1.0))


def test_fleet_requires_regions() -> None:
    with pytest.raises(EmptyFleet):
        penetration_fleet([])


def test_bundled_fleet_shares() -> None:
    fleet = penetration_fleet(fleet_fixtures())
    shares = {stat.region: stat.solar_wind_pct for stat in fleet.stats}
    assert shares["aurora"] == pytest.approx(10.0, rel=1e-9)
    assert shares["boreal"] == pytest.approx(30.0, rel=1e-9)
    assert shares["cinder"] == pytest.approx(50.0, rel=1e-9)
    assert fleet.cdf == (
        (pytest.approx(10.0), pytest.approx(1 / 3)),
        (pytest.approx(30.0), pytest.approx(2 / 3)),
        (pytest.approx(50.0), 1.0),
    )


# --- period aggregates ---------------------------------------------------------

def test_period_ci_energy_weighted() -> None:
    dataset = _dataset([{"coal": 100.0}, {"wind": 300.0}])
    assert float(period_ci(dataset)) == pytest.approx(250.0, rel=1e-12)


def test_period_ci_published_basis() -> None:
    dataset = _dataset(
        [{"coal": 100.0}, {"wind": 300.0}],
        published=(950.0, 10.0),
    )
    expected = (100.0 * 950.0 + 300.0 * 10.0) / 400.0
    assert float(period_ci(dataset, basis="published")) == pytest.approx(expected, rel=1e-12)


def test_period_ci_published_requires_signal() -> None:
    with pytest.raises(ValueError):
        period_ci(_dataset([{"wind": 1.0}]), basis="published")


def test_period_ci_bad_basis() -> None:
    with pytest.raises(ValueError):
        period_ci(_dataset([{"wind": 1.0}]), basis="vibes")


@pytest.mark.parametrize(
    "call",
    [
        lambda dataset, basis: period_ci(dataset, basis=basis),
        lambda dataset, basis: period_residual_ci(dataset, 0.5, basis=basis),
        lambda dataset, basis: total_signal(dataset, basis=basis),
    ],
    ids=["period_ci", "period_residual_ci", "total_signal"],
)
def test_basis_errors_are_shared(call) -> None:
    dataset = _dataset([{"wind": 1.0, "coal": 1.0}])
    with pytest.raises(ValueError, match="^basis must be 'cef' or 'published', got 'vibes'$"):
        call(dataset, "vibes")
    with pytest.raises(ValueError, match="^dataset for region 'r' has no published CI series$"):
        call(dataset, "published")


def test_period_ci_empty() -> None:
    with pytest.raises(EmptyMix):
        period_ci(_dataset([{"wind": 0.0}]))


def test_period_residual_known_value() -> None:
    # Contracting all wind leaves pure coal in both hours.
    dataset = _dataset([{"wind": 30.0, "coal": 20.0}, {"wind": 10.0, "coal": 40.0}])
    assert float(period_residual_ci(dataset, 1.0)) == pytest.approx(1000.0, rel=1e-12)


def test_period_residual_fully_contracted_step() -> None:
    with pytest.raises(EmptyResidual):
        period_residual_ci(_dataset([{"wind": 100.0}]), 1.0)


def test_period_residual_fraction_zero_is_period_ci() -> None:
    dataset = _dataset([{"wind": 60.0, "coal": 40.0}, {"wind": 20.0, "gas": 80.0}])
    assert float(period_residual_ci(dataset, 0.0)) == pytest.approx(
        float(period_ci(dataset)), rel=1e-12
    )


def test_period_residual_fraction_mapping() -> None:
    dataset = _dataset([{"solar": 20.0, "wind": 30.0, "coal": 50.0}])
    ci = period_residual_ci(dataset, {"solar": 1.0, "wind": 0.0})
    assert float(ci) == pytest.approx(50_000.0 / 80.0, rel=1e-12)


# --- inflation ------------------------------------------------------------------

def _inflation(dataset: RegionDataset, fraction: float) -> float:
    """The period CI's increase, in percent, with ``fraction`` of solar and wind contracted."""
    return inflation_pct(period_ci(dataset), period_residual_ci(dataset, fraction))


def test_inflation_half_green_fully_contracted() -> None:
    dataset = _dataset([{"wind": 50.0, "coal": 50.0}])
    assert _inflation(dataset, 1.0) == pytest.approx(100.0, rel=1e-9)


def test_inflation_zero_fraction() -> None:
    dataset = _dataset([{"wind": 50.0, "coal": 50.0}])
    assert _inflation(dataset, 0.0) == pytest.approx(0.0, abs=1e-12)


@given(
    wind=st.floats(min_value=1.0, max_value=1e4),
    coal=st.floats(min_value=1.0, max_value=1e4),
    fraction=st.floats(min_value=0.0, max_value=0.95),
)
def test_inflation_closed_form(wind: float, coal: float, fraction: float) -> None:
    """With share s contracted at fraction f: inflation = 100·f·s/(1−f·s)."""
    dataset = _dataset([{"wind": wind, "coal": coal}])
    share = wind / (wind + coal)
    expected = 100.0 * fraction * share / (1.0 - fraction * share)
    assert _inflation(dataset, fraction) == pytest.approx(expected, rel=1e-9, abs=1e-9)


@given(
    wind=st.floats(min_value=1.0, max_value=1e3),
    coal=st.floats(min_value=1.0, max_value=1e3),
    lo=st.floats(min_value=0.0, max_value=0.9),
    hi=st.floats(min_value=0.0, max_value=0.9),
)
def test_inflation_monotone_in_fraction(wind: float, coal: float, lo: float, hi: float) -> None:
    if lo > hi:
        lo, hi = hi, lo
    dataset = _dataset([{"wind": wind, "coal": coal}])
    assert _inflation(dataset, hi) >= _inflation(dataset, lo) - 1e-9


# --- high-renewables aggregate fixture -------------------------------------------

def test_aggregate_fixture_targets() -> None:
    dataset = south_australia_fixture()
    stat = penetration(dataset)
    assert stat.solar_wind_pct == pytest.approx(66.07, rel=1e-9)
    assert stat.total_generation_mwh == pytest.approx(2400.0, rel=1e-9)
    assert float(period_ci(dataset)) == pytest.approx(125.67, rel=1e-9)

    ci_res = float(period_residual_ci(dataset, 1.0))
    assert ci_res == pytest.approx(370.22, rel=0.01)
    inflation = _inflation(dataset, 1.0)
    assert inflation == pytest.approx(194.0, abs=2.0)


def test_aggregate_fixture_published_agrees() -> None:
    dataset = south_australia_fixture()
    assert float(period_ci(dataset, basis="published")) == pytest.approx(
        float(period_ci(dataset)), rel=1e-9
    )
    assert float(period_residual_ci(dataset, 1.0, basis="published")) == pytest.approx(
        float(period_residual_ci(dataset, 1.0)), rel=1e-9
    )
