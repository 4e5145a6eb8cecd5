from __future__ import annotations

from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridcarbon import (
    DEFAULT_CEF,
    EmptyMix,
    EnergySource,
    GridMix,
    RegionDataset,
    SourceRegistry,
    UnknownSource,
    compute_average_ci,
    duck_curve_fixture,
    toy_mix,
    total_emissions,
    total_signal,
)


def test_energy_source_rejects_unknown_category() -> None:
    with pytest.raises(ValueError):
        EnergySource(id="x", category="fusion", cef=0.0, carbon_free=True)


def test_energy_source_rejects_negative_cef() -> None:
    with pytest.raises(ValueError):
        EnergySource(id="x", category="coal", cef=-1.0, carbon_free=False)


@pytest.mark.parametrize("cef", [float("nan"), float("inf")])
def test_energy_source_rejects_non_finite_cef(cef: float) -> None:
    with pytest.raises(ValueError, match="cef must be a finite number >= 0"):
        EnergySource(id="x", category="coal", cef=cef, carbon_free=False)


def test_carbon_free_source_must_have_zero_cef() -> None:
    with pytest.raises(ValueError):
        EnergySource(id="x", category="wind", cef=12.0, carbon_free=True)


def test_default_registry_covers_all_categories(sources: SourceRegistry) -> None:
    assert len(sources) == len(DEFAULT_CEF)
    assert sources.get("coal").cef == 1000.0
    assert sources.get("gas").cef == 490.0
    assert sources.get("wind").carbon_free
    assert not sources.get("biomass").carbon_free


def test_registry_override_changes_cef() -> None:
    registry = SourceRegistry.default({"gas": 520.0})
    assert registry.get("gas").cef == 520.0
    assert registry.get("coal").cef == 1000.0


def test_registry_unknown_source() -> None:
    with pytest.raises(UnknownSource):
        SourceRegistry.default().get("diesel-farm")


def test_empty_registry_is_not_replaced_by_the_default() -> None:
    """Only ``sources=None`` means the default table; an empty one knows no source."""
    with pytest.raises(UnknownSource):
        compute_average_ci(toy_mix(), SourceRegistry([]))
    with pytest.raises(UnknownSource):
        total_signal(duck_curve_fixture(), SourceRegistry([]))


def test_registry_rejects_duplicate_ids() -> None:
    source = EnergySource(id="a", category="wind", cef=0.0, carbon_free=True)
    with pytest.raises(ValueError):
        SourceRegistry([source, source])


def test_grid_mix_rejects_negative_generation() -> None:
    with pytest.raises(ValueError):
        GridMix(region="r", generation={"wind": -1.0})


@pytest.mark.parametrize("mwh", [float("nan"), float("inf")])
def test_grid_mix_rejects_non_finite_generation(mwh: float) -> None:
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        GridMix(region="r", generation={"wind": mwh})


def test_grid_mix_totals(toy: GridMix, sources: SourceRegistry) -> None:
    assert toy.total_energy == 1000.0
    assert toy.carbon_free_energy(sources) == 500.0
    coal = (mwh for source_id, mwh in toy.generation.items() if sources.get(source_id).category == "coal")
    assert sum(coal) == 500.0


def test_average_ci_toy_grid(toy: GridMix, sources: SourceRegistry) -> None:
    assert float(compute_average_ci(toy, sources)) == 500.0


def test_average_ci_displaced_coal(displaced_coal_mix: GridMix, sources: SourceRegistry) -> None:
    # 480 MWh coal at 1000 g/kWh over 1000 MWh.
    assert float(compute_average_ci(displaced_coal_mix, sources)) == pytest.approx(480.0)


def test_average_ci_all_coal(sources: SourceRegistry) -> None:
    mix = GridMix(region="r", generation={"coal": 42.0})
    assert float(compute_average_ci(mix, sources)) == 1000.0


def test_average_ci_empty_mix(sources: SourceRegistry) -> None:
    with pytest.raises(EmptyMix):
        compute_average_ci(GridMix(region="r", generation={}), sources)
    with pytest.raises(EmptyMix):
        compute_average_ci(GridMix(region="r", generation={"wind": 0.0}), sources)


def test_average_ci_unknown_source(sources: SourceRegistry) -> None:
    with pytest.raises(UnknownSource):
        compute_average_ci(GridMix(region="r", generation={"diesel": 5.0}), sources)


def test_total_emissions_unit_conversion(toy: GridMix, sources: SourceRegistry) -> None:
    # 500 MWh of coal at 1000 g/kWh = 5e8 grams.
    assert total_emissions(toy, sources) == 500_000_000.0


def test_carbon_intensity_is_a_float(toy: GridMix) -> None:
    assert type(compute_average_ci(toy)) is float


def _series(hours: int, region: str = "r") -> RegionDataset:
    base = datetime(2022, 1, 1, tzinfo=timezone.utc)
    steps = tuple(
        GridMix(region=region, generation={"wind": 1.0}, timestamp=base + timedelta(hours=h))
        for h in range(hours)
    )
    return RegionDataset(region=region, mixes=steps)


def test_series_requires_increasing_timestamps() -> None:
    base = datetime(2022, 1, 1, tzinfo=timezone.utc)
    step = GridMix(region="r", generation={"wind": 1.0}, timestamp=base)
    with pytest.raises(ValueError):
        RegionDataset(region="r", mixes=(step, step))


def test_series_requires_matching_region() -> None:
    base = datetime(2022, 1, 1, tzinfo=timezone.utc)
    step = GridMix(region="other", generation={"wind": 1.0}, timestamp=base)
    with pytest.raises(ValueError):
        RegionDataset(region="r", mixes=(step,))


def test_series_requires_timestamps() -> None:
    with pytest.raises(ValueError):
        RegionDataset(region="r", mixes=(GridMix(region="r", generation={"wind": 1.0}),))


def test_series_uniformity() -> None:
    assert _series(3).is_uniform
    base = datetime(2022, 1, 1, tzinfo=timezone.utc)
    gappy = RegionDataset(
        region="r",
        mixes=(
            GridMix(region="r", generation={"wind": 1.0}, timestamp=base),
            GridMix(region="r", generation={"wind": 1.0}, timestamp=base + timedelta(hours=1)),
            GridMix(region="r", generation={"wind": 1.0}, timestamp=base + timedelta(hours=3)),
        ),
    )
    assert not gappy.is_uniform
    assert len(gappy) == 3


generation_maps = st.dictionaries(
    st.sampled_from(["wind", "solar", "coal", "gas", "hydro", "nuclear", "biomass"]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    min_size=1,
)


@given(generation_maps, st.floats(min_value=1e-3, max_value=1e3))
def test_average_ci_scale_invariant(generation: dict[str, float], factor: float) -> None:
    mix = GridMix(region="r", generation=generation)
    if mix.total_energy <= 0:
        return
    scaled = GridMix(region="r", generation={k: v * factor for k, v in generation.items()})
    if scaled.total_energy <= 0:
        return
    a = float(compute_average_ci(mix))
    b = float(compute_average_ci(scaled))
    assert b == pytest.approx(a, rel=1e-9)


@given(generation_maps)
def test_average_ci_bounded_by_factors(generation: dict[str, float]) -> None:
    mix = GridMix(region="r", generation=generation)
    if mix.total_energy <= 0:
        return
    cefs = [DEFAULT_CEF[s] for s, e in generation.items() if e > 0]
    ci = float(compute_average_ci(mix))
    assert min(cefs) - 1e-9 <= ci <= max(cefs) + 1e-9


@given(generation_maps)
def test_emissions_consistent_with_ci(generation: dict[str, float]) -> None:
    mix = GridMix(region="r", generation=generation)
    if mix.total_energy <= 0:
        return
    ci = float(compute_average_ci(mix))
    assert total_emissions(mix) == pytest.approx(ci * mix.total_energy * 1000.0, rel=1e-9)
