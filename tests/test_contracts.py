from __future__ import annotations

from datetime import datetime, timedelta, timezone
from functools import partial
from math import inf, nan

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcarbon import (
    Contract,
    ContractNotCarbonFree,
    EmptyResidual,
    EnergySource,
    GridCarbonError,
    GridMix,
    RegionDataset,
    ResidualMix,
    SourceRegistry,
    UnknownRegion,
    UnknownSource,
    allocate_contracts,
    compute_average_ci,
    compute_residual_mix,
    contracts_for_fraction,
    period_residual_ci,
    total_emissions,
)
from gridcarbon.contracts import _remove_contracted, _residual_dataset
from gridcarbon.fixtures import fixture_datasets, write_fixture_csvs
from gridcarbon.ingest import load_region_csv

import reference_allocation
from reference_sum import folded_sum


def _residual_ci(mix: GridMix, contracts: list[Contract]) -> float:
    return compute_average_ci(compute_residual_mix(mix, contracts).mix)


def _dataset(mixes) -> RegionDataset:
    """The dataset of one region's mixes, one hour apart."""
    start = datetime(2022, 6, 1, tzinfo=timezone.utc)
    return RegionDataset(
        region="r",
        mixes=[
            GridMix(region="r", generation=mix.generation, timestamp=start + timedelta(hours=h))
            for h, mix in enumerate(mixes)
        ],
    )


def _solar_contract(energy: float, buyer: str = "C1", contract_id: str = "ppa") -> Contract:
    return Contract(
        id=contract_id,
        buyer=buyer,
        kind="physical_offsite",
        source_id="solar",
        source_region="local",
        energy_mwh=energy,
    )


def test_contract_rejects_bad_kind() -> None:
    with pytest.raises(ValueError):
        Contract(id="x", buyer="b", kind="barter", source_id="solar",
                 source_region="r", energy_mwh=1.0)


def test_contract_rejects_negative_energy() -> None:
    with pytest.raises(ValueError):
        _solar_contract(-1.0)
    with pytest.raises(ValueError):
        Contract(id="x", buyer="b", kind="rec", source_id="solar",
                 source_region="r", energy_mwh=(1.0, -2.0))


@pytest.mark.parametrize("energy", [nan, inf, -inf, (1.0, nan), (2.0, 0.0, inf)])
def test_contract_rejects_non_finite_energy(energy) -> None:
    with pytest.raises(ValueError, match="energy must be finite"):
        Contract(id="x", buyer="b", kind="rec", source_id="solar",
                 source_region="r", energy_mwh=energy)


def test_contract_energy_series() -> None:
    contract = Contract(id="x", buyer="b", kind="rec", source_id="solar",
                        source_region="r", energy_mwh=[1, 2.5])
    assert contract.energy_mwh == (1.0, 2.5)
    assert all(type(energy) is float for energy in contract.energy_mwh)


def test_series_contract_needs_a_step() -> None:
    """A mix is a one-step series: a per-step contract of three values
    raises rather than being read at step 0, and one of one value
    allocates as its scalar does, bit for bit."""
    mix = GridMix(region="local", generation={"solar": 100.0, "coal": 100.0})
    series = Contract(id="ppa", buyer="C1", kind="rec", source_id="solar",
                      source_region="local", energy_mwh=(10.0, 90.0, 50.0))
    for call in (
        lambda: compute_residual_mix(mix, [series]),
        lambda: allocate_contracts(mix, [series]).claim_mwh("C1"),
    ):
        with pytest.raises(ValueError, match="has 3 per-step energy_mwh values for a series of 1 steps$"):
            call()
    one_value = Contract(id="ppa", buyer="C1", kind="rec", source_id="solar",
                         source_region="local", energy_mwh=(90.0,))
    assert _allocation_bits(compute_residual_mix, mix, [one_value]) == _allocation_bits(
        compute_residual_mix, mix, [_solar_contract(90.0)]
    )
    assert compute_residual_mix(mix, [one_value]).removed == {"solar": 90.0}


def test_scalar_contract_applies_at_every_step() -> None:
    mix = GridMix(region="r", generation={"solar": 10.0, "coal": 1.0})
    contract = Contract(id="ppa", buyer="C1", kind="physical_offsite", source_id="solar",
                        source_region="r", energy_mwh=3.0)
    residual = _residual_dataset(_dataset([mix] * 18), [contract], SourceRegistry.default())
    assert residual.column("solar") == (7.0,) * 18
    assert residual.column("coal") == (1.0,) * 18


def test_residual_mix_removes_contracted_solar(displaced_coal_mix: GridMix) -> None:
    residual = compute_residual_mix(displaced_coal_mix, [_solar_contract(20.0)])
    assert residual.generation == {"wind": 500.0, "solar": 0.0, "coal": 480.0}
    assert residual.removed == {"solar": 20.0}
    assert not residual.over_contracted


def test_residual_mix_no_contracts_is_identity(toy: GridMix) -> None:
    residual = compute_residual_mix(toy, [])
    assert residual.generation == toy.generation
    assert residual.removed == {}
    assert residual.total_removed == 0.0


def test_residual_mix_clamps_over_contracting() -> None:
    mix = GridMix(region="local", generation={"solar": 10.0})
    residual = compute_residual_mix(mix, [_solar_contract(15.0)])
    assert residual.generation == {"solar": 0.0}
    assert residual.removed == {"solar": 10.0}
    assert residual.over_contracted == {"solar"}


def test_residual_mix_ignores_other_regions(toy: GridMix) -> None:
    remote = Contract(id="x", buyer="b", kind="financial", source_id="wind",
                      source_region="elsewhere", energy_mwh=100.0)
    residual = compute_residual_mix(toy, [remote])
    assert residual.generation == toy.generation


def test_residual_mix_rejects_fossil_contract(toy: GridMix) -> None:
    coal = Contract(id="x", buyer="b", kind="financial", source_id="coal",
                    source_region="toy", energy_mwh=10.0)
    with pytest.raises(ContractNotCarbonFree):
        compute_residual_mix(toy, [coal])


def test_residual_ci_case_2(displaced_coal_mix: GridMix) -> None:
    ci = _residual_ci(displaced_coal_mix, [_solar_contract(20.0)])
    assert ci == pytest.approx(480_000.0 / 980.0, rel=1e-12)


def test_residual_ci_no_contracts_equals_average(toy: GridMix) -> None:
    assert _residual_ci(toy, []) == compute_average_ci(toy)


def test_residual_ci_fully_contracted() -> None:
    mix = GridMix(region="local", generation={"solar": 10.0})
    with pytest.raises(EmptyResidual):
        allocate_contracts(mix, [_solar_contract(10.0)], require_residual=True)


def test_contracted_cfe_simple(displaced_coal_mix: GridMix) -> None:
    assert allocate_contracts(displaced_coal_mix, [_solar_contract(20.0)]).claim_mwh("C1") == 20.0


def test_contracted_cfe_no_contracts(toy: GridMix) -> None:
    assert allocate_contracts(toy, []).claim_mwh("anyone") == 0.0


def test_contracted_cfe_pro_rata_split() -> None:
    mix = GridMix(region="local", generation={"solar": 10.0})
    contracts = [
        _solar_contract(10.0, buyer="A", contract_id="a"),
        _solar_contract(10.0, buyer="B", contract_id="b"),
    ]
    allocation = allocate_contracts(mix, contracts)
    assert allocation.claim_mwh("A") == pytest.approx(5.0)
    assert allocation.claim_mwh("B") == pytest.approx(5.0)


def test_contracted_cfe_requires_mix_for_region(toy: GridMix) -> None:
    remote = Contract(id="x", buyer="A", kind="financial", source_id="wind",
                      source_region="elsewhere", energy_mwh=1.0)
    with pytest.raises(UnknownRegion):
        allocate_contracts(toy, [remote]).claim_mwh("A")


def test_contracts_for_fraction(displaced_coal_mix: GridMix) -> None:
    contracts = contracts_for_fraction(displaced_coal_mix, 0.5)
    amounts = {c.source_id: c.energy_mwh for c in contracts}
    assert amounts == {"solar": 10.0, "wind": 250.0}


def test_contracts_for_fraction_mapping(displaced_coal_mix: GridMix) -> None:
    contracts = contracts_for_fraction(displaced_coal_mix, {"solar": 1.0})
    amounts = {c.source_id: c.energy_mwh for c in contracts}
    assert amounts == {"solar": 20.0}


def test_contracts_for_fraction_rejects_out_of_range(toy: GridMix) -> None:
    with pytest.raises(ValueError):
        contracts_for_fraction(toy, 1.5)
    with pytest.raises(ValueError, match="must be in"):
        contracts_for_fraction(RegionDataset(region="r"), 1.5)


def test_contracts_for_fraction_series() -> None:
    mixes = (
        GridMix(region="r", generation={"wind": 10.0, "coal": 5.0}),
        GridMix(region="r", generation={"solar": 4.0, "coal": 5.0}),
        GridMix(region="r", generation={"wind": 0.0, "solar": 2.0, "hydro": 0.0}),
    )
    contracts = contracts_for_fraction(_dataset(mixes), 0.5, ("solar", "wind", "hydro"))
    assert [(c.source_id, c.energy_mwh) for c in contracts] == [
        ("solar", (0.0, 2.0, 1.0)),
        ("wind", (5.0, 0.0, 0.0)),
    ]
    assert {c.source_region for c in contracts} == {"r"}
    with pytest.raises(TypeError, match="takes a GridMix or a RegionDataset"):
        contracts_for_fraction(mixes, 0.5)


EDGE_CELLS = (0.0, -0.0, 5e-324, 1e300)


@pytest.mark.parametrize("series", [True, False], ids=["dataset", "mix"])
@pytest.mark.parametrize("fraction", [0.0, 5e-324, 0.5, 1.0])
def test_contracts_for_fraction_are_what_the_checked_constructor_builds(series: bool, fraction: float) -> None:
    """``contracts_for_fraction`` skips ``Contract``'s checks; its contracts
    equal, energy by energy and by ``float.hex``, the ones the checked
    constructor builds from the same fields, and every energy is a float."""
    columns = {
        "solar": EDGE_CELLS,
        "wind": EDGE_CELLS[::-1],
        "hydro": EDGE_CELLS[1:] + EDGE_CELLS[:1],
        "coal": EDGE_CELLS[2:] + EDGE_CELLS[:2],
    }
    mixes = [GridMix(region="r", generation={s: c[i] for s, c in columns.items()}) for i in range(len(EDGE_CELLS))]
    built = 0
    for given_input in [_dataset(mixes)] if series else mixes:
        contracts = contracts_for_fraction(given_input, fraction, ("solar", "wind", "hydro"))
        built += len(contracts)
        for contract in contracts:
            checked = Contract(**{name: getattr(contract, name) for name in Contract.__match_args__})
            assert contract == checked
            energies = contract.energy_mwh if series else (contract.energy_mwh,)
            expected = checked.energy_mwh if series else (checked.energy_mwh,)
            assert [type(e) for e in energies] == [float] * len(energies)
            assert list(map(float.hex, energies)) == list(map(float.hex, expected))
    assert (built > 0) == (fraction > 0)


def test_contracts_for_fraction_zero_fraction_source_must_be_registered() -> None:
    """A source whose fraction is 0 gets no contract, but an unregistered
    one is still an error."""
    mix = GridMix(region="r", generation={"wind": 10.0, "coal": 5.0})
    wind_only = SourceRegistry([EnergySource(id="wind", category="wind", cef=0.0, carbon_free=True)])
    with pytest.raises(UnknownSource, match="coal"):
        contracts_for_fraction(mix, 0.5, sources=wind_only)
    assert contracts_for_fraction(mix, {"wind": 0.0, "coal": 0.0}) == ()


def test_residual_mixes_require_residual() -> None:
    """A series' residual may be empty where its generation is; a fully
    contracted step with generation stops the period aggregate there."""
    dataset = _dataset(
        (
            GridMix(region="r", generation={}),
            GridMix(region="r", generation={"wind": 5.0, "coal": 1.0}),
            GridMix(region="r", generation={"wind": 5.0}),
        )
    )
    contracts = contracts_for_fraction(dataset, 1.0)
    residual = _residual_dataset(dataset, contracts, SourceRegistry.default())
    assert [sum(row) for row in residual.rows()] == [0.0, 1.0, 0.0]
    with pytest.raises(EmptyResidual, match="step 2 of region 'r' is fully contracted"):
        period_residual_ci(dataset, 1.0)


def test_residual_mixes_need_one_entry_per_step() -> None:
    """A per-step contract on a series has exactly one entry per step."""
    mix = GridMix(region="r", generation={"wind": 5.0, "coal": 1.0})
    dataset = _dataset((mix, mix))
    for energy in ((1.0,), (1.0, 2.0, 3.0)):
        contract = Contract(id="w", buyer="b", kind="rec", source_id="wind",
                            source_region="r", energy_mwh=energy)
        message = f"has {len(energy)} per-step energy_mwh values for a series of 2 steps$"
        with pytest.raises(ValueError, match=message):
            _residual_dataset(dataset, [contract], SourceRegistry.default())


def test_residual_mixes_sum_claims_in_contract_order() -> None:
    """A source's claims add up as a left fold from 0 in contract order, as
    compute_residual_mix does, on every Python (the built-in ``sum``
    compensates from Python 3.12 on)."""
    mix = GridMix(region="r", generation={"wind": 10.0, "coal": 1.0})
    contracts = [
        Contract(id=f"c{i}", buyer="b", kind="rec", source_id="wind",
                 source_region="r", energy_mwh=e)
        for i, e in enumerate((0.1, 0.2, 0.3))
    ]
    (removed,) = _series_bits([mix], contracts)[0][1]
    assert removed == ("wind", folded_sum((0.1, 0.2, 0.3)).hex())
    assert (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
    assert [removed] == _bits(compute_residual_mix(mix, contracts))[1]


SERIES_SOURCES = ("solar", "wind", "hydro", "coal", "gas")
generation_value = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e4))


@st.composite
def fraction_specs(draw):
    """One fraction, or a mapping of categories to fractions (at most one
    of them not carbon-free), sometimes out of [0, 1]."""
    value = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))
    if draw(st.booleans()):
        fraction = draw(value)
    else:
        categories = st.sampled_from(("solar", "wind", "hydro", "coal"))
        fraction = {cat: draw(value) for cat in draw(st.lists(categories, unique=True))}
    if draw(st.sampled_from([False] * 9 + [True])):
        bad = draw(st.sampled_from([-0.25, 1.5]))
        fraction = {**fraction, "solar": bad} if isinstance(fraction, dict) else bad
    return fraction


def _outcome(compute):
    try:
        return compute()
    except (ValueError, ContractNotCarbonFree) as exc:
        return type(exc), str(exc)


def _bits(residual) -> tuple:
    return (
        [(source, value.hex()) for source, value in residual.generation.items()],
        [(source, value.hex()) for source, value in residual.removed.items()],
        residual.over_contracted,
    )


def _series_bits(mixes, contracts) -> list:
    """:func:`_bits` of each step's residual mix, from one
    ``_remove_contracted`` call over the dataset of the mixes."""
    dataset = _dataset(mixes)
    removals = _remove_contracted(
        dataset.region, len(dataset), dataset.column, contracts, SourceRegistry.default()
    )
    bits = []
    for step, mix in enumerate(mixes):
        generation = dict(mix.generation)
        removed = {}
        for source_id, removal in removals.items():
            if removal.removed[step] > 0:
                generation[source_id] = removal.residual[step]
                removed[source_id] = removal.removed[step]
        over = frozenset(s for s, r in removals.items() if r.claimed[step] > r.removed[step])
        bits.append(_bits(ResidualMix(GridMix(region="r", generation=generation), removed, over)))
    return bits


@pytest.mark.differential
# At least 300 examples; a profile that asks for more (``thorough``) gets them.
@settings(max_examples=max(300, settings.default.max_examples))
@given(
    steps=st.lists(
        st.dictionaries(st.sampled_from(SERIES_SOURCES), generation_value, max_size=5),
        min_size=1,
        max_size=6,
    ),
    fraction=fraction_specs(),
    categories=st.sampled_from([("solar", "wind"), ("wind",), ("hydro", "solar")]),
)
def test_series_contracts_match_per_step_contracts(steps, fraction, categories) -> None:
    """Contracting a series once gives bit-identical residual, removed and
    over-contracted MWh to contracting every step on its own, or the same
    error."""
    mixes = [GridMix(region="r", generation=generation) for generation in steps]

    def per_step():
        return [
            _bits(compute_residual_mix(mix, contracts_for_fraction(mix, fraction, categories)))
            for mix in mixes
        ]

    def series():
        return _series_bits(mixes, contracts_for_fraction(_dataset(mixes), fraction, categories))

    assert _outcome(series) == _outcome(per_step)


def _assert_residual_dataset_passes_the_checks(dataset, contracts) -> None:
    """``_residual_dataset`` builds its result without the constructor's
    checks; the constructor accepts it and builds an equal dataset."""
    residual = _residual_dataset(dataset, contracts, SourceRegistry.default())
    rebuilt = RegionDataset(
        residual.region,
        timestamps=residual.timestamps,
        source_ids=residual.source_ids,
        columns=residual.columns,
        published_ci=None,
        summary=residual.summary,
    )
    assert rebuilt == residual


@pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0, {"solar": 1.0, "hydro": 0.3}])
def test_residual_dataset_of_each_fixture_passes_the_checks(tmp_path, fraction) -> None:
    loaded = [load_region_csv(path) for path in write_fixture_csvs(tmp_path)]
    for dataset in [*fixture_datasets().values(), *loaded]:
        _assert_residual_dataset_passes_the_checks(dataset, contracts_for_fraction(dataset, fraction))


# Claims from none to far over any generation drawn here, scalar or per step.
series_claims = st.one_of(st.sampled_from([0.0, 0.1, 5.0, 1e6, 1e300]), st.floats(min_value=0.0, max_value=1e4))


@st.composite
def contracted_series(draw):
    """A dataset of 1-6 steps and contracts on it, some per step, some over
    the generation and some of another region."""
    steps = draw(st.lists(st.dictionaries(st.sampled_from(SERIES_SOURCES), generation_value, max_size=5),
                          min_size=1, max_size=6))
    contracts = [
        Contract(
            id=f"k{i}",
            buyer=draw(st.sampled_from(["a", "b"])),
            kind="financial",
            source_id=draw(st.sampled_from(("solar", "wind", "hydro"))),
            source_region=draw(st.sampled_from(("r", "r", "r", "elsewhere"))),
            energy_mwh=draw(st.one_of(series_claims, st.tuples(*[series_claims] * len(steps)))),
        )
        for i in range(draw(st.integers(min_value=0, max_value=5)))
    ]
    return _dataset([GridMix(region="r", generation=g) for g in steps]), contracts


@given(contracted_series())
def test_residual_dataset_passes_the_checks(inputs) -> None:
    _assert_residual_dataset_passes_the_checks(*inputs)



# --- the single-step allocation against its pre-kernel copy -----------------

# Rare cases stay rare: a coal or unregistered contract of the mix's region
# fails the whole call, which would leave few allocations to compare.
_RARELY = 12
step_claims = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.3, 5.0, 250.0]), st.floats(min_value=0.0, max_value=1e3)
)


@st.composite
def single_step_inputs(draw):
    """A mix and contracts on it, each with a scalar energy or a per-step
    energy of one value."""
    generation = draw(
        st.dictionaries(
            st.sampled_from(("solar", "wind", "hydro", "coal", "tidal")),
            st.one_of(st.just(0.0), st.sampled_from([0.3, 0.6, 10.0]), generation_value),
            max_size=5,
        )
    )
    contracts = []
    for i in range(draw(st.integers(min_value=0, max_value=6))):
        if draw(st.booleans()):
            energy = draw(step_claims)
        else:
            energy = (draw(step_claims),)
        contracts.append(
            Contract(
                id=draw(st.sampled_from([f"k{i}", "shared"])),
                buyer="b",
                kind="financial",
                source_id=draw(st.sampled_from(("solar", "wind", "hydro") * _RARELY + ("coal", "tidal"))),
                source_region=draw(st.sampled_from(("r",) * 4 + ("elsewhere",))),
                energy_mwh=energy,
            )
        )
    return GridMix(region="r", generation=generation), contracts


def _allocation_bits(compute, mix, contracts) -> tuple:
    try:
        residual = compute(mix, contracts, None)
    except (GridCarbonError, ValueError) as exc:
        return type(exc), str(exc)
    return (
        [(source, value.hex()) for source, value in residual.generation.items()],
        [(source, value.hex()) for source, value in residual.removed.items()],
        [(contract, value.hex()) for contract, value in residual.allocated.items()],
        residual.over_contracted,
    )


@pytest.mark.differential
# At least 500 examples; a profile that asks for more (``thorough``) gets them.
@settings(max_examples=max(500, settings.default.max_examples))
@given(single_step_inputs())
def test_residual_mix_matches_pre_kernel_allocation(inputs) -> None:
    """compute_residual_mix, the kernel's one-step series, gives the floats
    of the allocation it replaced, read at step 0, or raises the same first
    error."""
    mix, contracts = inputs
    assert _allocation_bits(compute_residual_mix, mix, contracts) == _allocation_bits(
        partial(reference_allocation.compute_residual_mix, step=0), mix, contracts
    )


# --- invariants -----------------------------------------------------------

dyadic = st.integers(min_value=0, max_value=2**20).map(lambda n: n / 1024.0)


@given(
    wind=dyadic, solar=dyadic, coal=dyadic, gas=dyadic,
    wind_claim=dyadic, solar_claim=dyadic,
)
def test_conservation_is_exact(wind, solar, coal, gas, wind_claim, solar_claim) -> None:
    """Residual energy plus removed energy equals the original, exactly.

    Dyadic-rational inputs keep every float operation exact, so the
    equality can be asserted without tolerance as long as no claim needs
    clamping.
    """
    mix = GridMix(region="r", generation={"wind": wind, "solar": solar,
                                          "coal": coal, "gas": gas})
    contracts = [
        Contract(id="w", buyer="A", kind="financial", source_id="wind",
                 source_region="r", energy_mwh=min(wind_claim, wind)),
        Contract(id="s", buyer="B", kind="financial", source_id="solar",
                 source_region="r", energy_mwh=min(solar_claim, solar)),
    ]
    residual = compute_residual_mix(mix, contracts)
    assert residual.total_energy + residual.total_removed == mix.total_energy
    assert not residual.over_contracted


@given(
    wind=st.floats(min_value=1.0, max_value=1e4),
    coal=st.floats(min_value=1.0, max_value=1e4),
    claim=st.floats(min_value=0.0, max_value=2e4),
)
def test_conservation_under_clamping(wind, coal, claim) -> None:
    mix = GridMix(region="r", generation={"wind": wind, "coal": coal})
    contract = Contract(id="w", buyer="A", kind="financial", source_id="wind",
                        source_region="r", energy_mwh=claim)
    residual = compute_residual_mix(mix, [contract])
    assert residual.total_energy + residual.total_removed == pytest.approx(
        mix.total_energy, rel=1e-12
    )
    assert all(value >= 0 for value in residual.generation.values())
    assert residual.removed.get("wind", 0.0) <= wind


@given(
    wind=st.floats(min_value=0.0, max_value=1e4),
    coal=st.floats(min_value=1.0, max_value=1e4),
    fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_residual_ci_monotone(wind, coal, fraction) -> None:
    mix = GridMix(region="r", generation={"wind": wind, "coal": coal})
    contracts = contracts_for_fraction(mix, fraction, categories=("wind",))
    ci_loc = compute_average_ci(mix)
    ci_res = _residual_ci(mix, contracts)
    assert ci_res >= ci_loc - 1e-9
    if not contracts:
        assert ci_res == ci_loc


@given(
    wind=st.floats(min_value=1.0, max_value=1e4),
    coal=st.floats(min_value=1.0, max_value=1e4),
    gas=st.floats(min_value=0.0, max_value=1e4),
    fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_emissions_preserved_under_cfe_contracting(wind, coal, gas, fraction) -> None:
    mix = GridMix(region="r", generation={"wind": wind, "coal": coal, "gas": gas})
    contracts = contracts_for_fraction(mix, fraction, categories=("wind",))
    residual = compute_residual_mix(mix, contracts)
    assert total_emissions(residual.mix) == pytest.approx(total_emissions(mix), rel=1e-12)


@given(
    wind=st.floats(min_value=1.0, max_value=1e4),
    coal=st.floats(min_value=1.0, max_value=1e4),
    fraction=st.floats(min_value=0.0, max_value=0.95),
)
def test_residual_ci_closed_form(wind, coal, fraction) -> None:
    """CI_res = CI_loc / (1 - f) when the removed energy is carbon-free."""
    mix = GridMix(region="r", generation={"wind": wind, "coal": coal})
    contracts = contracts_for_fraction(mix, fraction, categories=("wind",))
    removed = fraction * wind
    f = removed / mix.total_energy
    expected = float(compute_average_ci(mix)) / (1.0 - f)
    assert _residual_ci(mix, contracts) == pytest.approx(expected, rel=1e-9)


def test_residual_order_independent() -> None:
    contracts = [
        _solar_contract(6.0, buyer="A", contract_id="a"),
        _solar_contract(6.0, buyer="B", contract_id="b"),
        Contract(id="c", buyer="C", kind="rec", source_id="wind",
                 source_region="local", energy_mwh=4.0),
    ]
    mix = GridMix(region="local", generation={"solar": 8.0, "wind": 16.0})
    forward = compute_residual_mix(mix, contracts)
    backward = compute_residual_mix(mix, list(reversed(contracts)))
    assert forward.generation == backward.generation
    assert forward.removed == backward.removed
    assert forward.over_contracted == backward.over_contracted
    for buyer in ("A", "B", "C"):
        assert allocate_contracts(mix, contracts).claim_mwh(buyer) == allocate_contracts(
            mix, list(reversed(contracts))
        ).claim_mwh(buyer)
