"""The column code against verbatim copies of the per-mix code it replaced.

``RegionDataset`` stores one float tuple per source, and every per-step
quantity of a dataset is a loop over those columns. The ``_reference_*``
functions below are the per-``GridMix`` implementations they replaced,
copied as they were but for the built-in ``sum``, which is
``reference_sum.folded_sum`` (the sum() of Python 3.11, where they were
written), so they agree on every Python. On random datasets the two must agree bit for bit
(``float.hex``), or raise the same exception type with the same message.
"""

from __future__ import annotations

import contextlib
import csv
import io
import warnings
from collections.abc import Iterable, Mapping, Sequence
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from gridcarbon import (
    Contract,
    ContractNotCarbonFree,
    EmptyMix,
    EmptyResidual,
    GridCarbonError,
    GridMix,
    ParseError,
    RegionDataset,
    SourceRegistry,
    compute_average_ci,
    total_emissions,
)
from gridcarbon import grid
from gridcarbon.cli import main
from gridcarbon.contracts import _remove_contracted, _residual_dataset
from gridcarbon.errors import SchemaError
from gridcarbon.factors import SOURCE_CATEGORIES, check_categories
from gridcarbon.ingest import (
    PUBLISHED_CI_COLUMN,
    TIMESTAMP_COLUMN,
    TIMESTAMP_FORMAT,
    LoadSummary,
    _parse_cell,
    _parse_timestamp,
    _read_csv,
    _split_lines,
    check_basis,
)
from gridcarbon.scheduler import _ci_steps, residual_signal, total_signal
from gridcarbon.stats import energy_weighted_ci, penetration, period_ci, period_residual_ci

import reference_allocation
from reference_sum import folded_sum

# --- verbatim copies of the per-mix code ------------------------------------------


def _reference_parse_timestamp(raw: str, row: int) -> datetime:
    try:
        return datetime.strptime(raw, TIMESTAMP_FORMAT).replace(tzinfo=timezone.utc)
    except ValueError:
        raise ParseError(
            f"invalid timestamp {raw!r} (expected YYYY-MM-DDTHH:00:00Z)",
            row=row,
            column=TIMESTAMP_COLUMN,
        ) from None


def _reference_read_csv(path: Path, fill_policy: str, bare_signal: bool = False):
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: file is empty") from None
        header = [name.strip() for name in header]
        if bare_signal and not (
            PUBLISHED_CI_COLUMN in header
            and set(header) <= {TIMESTAMP_COLUMN, PUBLISHED_CI_COLUMN}
        ):
            return None
        if TIMESTAMP_COLUMN not in header:
            raise SchemaError(f"{path}: missing required column {TIMESTAMP_COLUMN!r}")
        if len(set(header)) != len(header):
            raise SchemaError(f"{path}: duplicate column names in header")
        source_columns = [name for name in header if name in SOURCE_CATEGORIES]
        ignored = tuple(
            name
            for name in header
            if name not in SOURCE_CATEGORIES and name not in (TIMESTAMP_COLUMN, PUBLISHED_CI_COLUMN)
        )
        if ignored:
            warnings.warn(
                f"{path}: ignoring unrecognized columns: {', '.join(ignored)}",
                stacklevel=3,
            )
        if not source_columns and not bare_signal:
            raise SchemaError(f"{path}: no recognized source columns in header")
        has_published = PUBLISHED_CI_COLUMN in header
        index = {name: i for i, name in enumerate(header)}

        rows = []
        rows_read = rows_dropped = cells_filled = 0
        for row_number, cells in enumerate(reader, start=2):
            if not cells or all(not cell.strip() for cell in cells):
                continue
            rows_read += 1
            if len(cells) != len(header):
                raise ParseError(
                    f"expected {len(header)} cells, got {len(cells)}", row=row_number
                )
            raw_timestamp = cells[index[TIMESTAMP_COLUMN]].strip()
            if not raw_timestamp:
                raise ParseError("missing timestamp", row=row_number, column=TIMESTAMP_COLUMN)
            timestamp = _reference_parse_timestamp(raw_timestamp, row_number)

            generation: dict[str, float] = {}
            dropped = False
            filled = 0
            for name in source_columns:
                raw = cells[index[name]].strip()
                if not raw:
                    if fill_policy == "zero-fill":
                        generation[name] = 0.0
                        filled += 1
                        continue
                    dropped = True
                    break
                generation[name] = _parse_cell(raw, row_number, name)
            if dropped:
                rows_dropped += 1
                continue

            published: float | None = None
            if has_published:
                raw = cells[index[PUBLISHED_CI_COLUMN]].strip()
                if not raw:
                    if fill_policy == "zero-fill":
                        published = 0.0
                        filled += 1
                    else:
                        rows_dropped += 1
                        continue
                else:
                    published = _parse_cell(raw, row_number, PUBLISHED_CI_COLUMN)
            cells_filled += filled
            rows.append((timestamp, generation, published))

    rows.sort(key=lambda item: item[0])
    for (first, _, _), (second, _, _) in zip(rows, rows[1:]):
        if first == second:
            raise ParseError(
                f"duplicate timestamp {first.strftime(TIMESTAMP_FORMAT)}",
                column=TIMESTAMP_COLUMN,
            )
    summary = LoadSummary(
        rows_read=rows_read,
        rows_kept=len(rows),
        rows_dropped=rows_dropped,
        cells_filled=cells_filled,
        ignored_columns=ignored,
    )
    return rows, has_published, summary


def _reference_contracts_for_fraction(
    mixes: GridMix | Sequence[GridMix],
    fraction: float | Mapping[str, float],
    categories: Sequence[str] = ("solar", "wind"),
    sources: SourceRegistry | None = None,
    buyer: str = "__contracted__",
) -> tuple[Contract, ...]:
    sources = sources or SourceRegistry.default()
    if isinstance(fraction, Mapping):
        per_category = {str(cat): float(f) for cat, f in fraction.items()}
    else:
        per_category = {str(cat): float(fraction) for cat in categories}
    check_categories(per_category)
    for cat, f in per_category.items():
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"contract fraction for {cat!r} must be in [0, 1], got {f}")
    series = not isinstance(mixes, GridMix)
    steps = tuple(mixes) if series else (mixes,)
    regions = {mix.region for mix in steps}
    if len(regions) > 1:
        raise ValueError(f"contracts_for_fraction needs one region's mixes, got {sorted(regions)}")
    contracts = []
    for source_id in sorted({source_id for mix in steps for source_id in mix.generation}):
        f = per_category.get(sources.get(source_id).category, 0.0)
        energy = tuple(mix.generation.get(source_id, 0.0) * f for mix in steps)
        if any(e > 0 for e in energy):
            contracts.append(
                Contract(
                    id=f"{buyer}:{source_id}",
                    buyer=buyer,
                    kind="financial",
                    source_id=source_id,
                    source_region=steps[0].region,
                    energy_mwh=energy if series else energy[0],
                )
            )
    return tuple(contracts)


def _reference_fraction_contracts(mixes, fraction, categories, sources) -> tuple[Contract, ...]:
    """The contracts of :func:`_reference_contracts_for_fraction`, or the
    error that ``contracts_for_fraction`` raises for the first of them whose
    source is not carbon-free: it names the fraction's category."""
    contracts = _reference_contracts_for_fraction(mixes, fraction, categories, sources)
    for contract in contracts:
        source = sources.get(contract.source_id)
        if not source.carbon_free:
            raise ContractNotCarbonFree(
                f"contract fraction for {source.category!r}: source {source.id!r} is not carbon-free"
            )
    return contracts


def _reference_residual_mixes(
    mixes: Iterable[GridMix],
    contracts: Sequence[Contract],
    sources: SourceRegistry | None = None,
    require_residual: bool = False,
):
    sources = sources or SourceRegistry.default()
    for step, mix in enumerate(mixes):
        residual = reference_allocation.compute_residual_mix(mix, contracts, sources, step)
        if require_residual and residual.total_energy <= 0 < mix.total_energy:
            raise EmptyResidual(f"step {step} of region {mix.region!r} is fully contracted")
        yield residual


def _reference_total_signal(dataset, sources=None, basis="cef"):
    check_basis(dataset, basis)
    if basis == "published":
        return dataset.published_ci
    sources = sources or SourceRegistry.default()
    return tuple(float(compute_average_ci(mix, sources)) for mix in dataset.mixes)


def _reference_residual_signal(dataset, contract_fraction, categories=("solar", "wind"), sources=None):
    sources = sources or SourceRegistry.default()
    contracts = _reference_fraction_contracts(dataset.mixes, contract_fraction, categories, sources)
    residuals = _reference_residual_mixes(dataset.mixes, contracts, sources, require_residual=True)
    return tuple(float(compute_average_ci(residual.mix, sources)) for residual in residuals)


def _reference_weighted_ci(steps: Iterable[tuple[float, float]]) -> float | None:
    emissions = 0.0
    energy = 0.0
    for step_emissions, step_energy in steps:
        emissions += step_emissions
        energy += step_energy
    return emissions / energy if energy > 0 else None


def _reference_energy_weighted_ci(mixes: Iterable[GridMix], sources=None) -> float | None:
    sources = sources or SourceRegistry.default()
    return _reference_weighted_ci(
        (total_emissions(mix, sources) / 1000.0, mix.total_energy) for mix in mixes
    )


def _reference_period(dataset, ci):
    if ci is None:
        raise EmptyMix(f"dataset for region {dataset.region!r} has no generation")
    return ci


def _reference_period_ci(dataset, sources=None, basis="cef"):
    check_basis(dataset, basis)
    if basis == "cef":
        return _reference_period(dataset, _reference_energy_weighted_ci(dataset.mixes, sources))
    published = zip(dataset.mixes, dataset.published_ci)
    return _reference_period(
        dataset, _reference_weighted_ci((m.total_energy * ci, m.total_energy) for m, ci in published)
    )


def _reference_period_residual_ci(
    dataset, contract_fraction, categories=("solar", "wind"), sources=None, basis="cef"
):
    sources = sources or SourceRegistry.default()
    check_basis(dataset, basis)
    contracts = _reference_fraction_contracts(dataset.mixes, contract_fraction, categories, sources)
    residuals = _reference_residual_mixes(dataset.mixes, contracts, sources, require_residual=True)
    if basis == "cef":
        return _reference_period(dataset, _reference_energy_weighted_ci((r.mix for r in residuals), sources))
    published = zip(dataset.mixes, residuals, dataset.published_ci)
    return _reference_period(
        dataset,
        _reference_weighted_ci((m.total_energy * ci, r.total_energy) for m, r, ci in published),
    )


def _reference_energy_for_categories(mix: GridMix, categories: Iterable[str], sources: SourceRegistry) -> float:
    """Generation from sources in the given categories, in MWh."""
    wanted = set(categories)
    return folded_sum(
        mwh
        for source_id, mwh in mix.generation.items()
        if sources.get(source_id).category in wanted
    )


def _reference_penetration(dataset, categories=("solar", "wind"), sources=None, per_hour_mean=False):
    check_categories(categories)
    sources = sources or SourceRegistry.default()
    total = 0.0
    selected = 0.0
    ratios = []
    for mix in dataset.mixes:
        step_total = mix.total_energy
        step_selected = _reference_energy_for_categories(mix, categories, sources)
        total += step_total
        selected += step_selected
        if step_total > 0:
            ratios.append(step_selected / step_total)
    if total <= 0:
        raise EmptyMix(f"dataset for region {dataset.region!r} has no generation")
    if per_hour_mean:
        pct = 100.0 * folded_sum(ratios) / len(ratios)
    else:
        pct = 100.0 * selected / total
    return (dataset.region, total, selected, pct)


def _reference_ci_residual_column(dataset, contracts, sources):
    """The residual part of ``cmd_ci``: the per-step column and the aggregate."""
    residuals = [r.mix for r in _reference_residual_mixes(dataset.mixes, contracts, sources)]
    column = [
        float(compute_average_ci(residual, sources)) if residual.total_energy > 0 else ""
        for residual in residuals
    ]
    ci_res = _reference_energy_weighted_ci(residuals, sources)
    return column, "" if ci_res is None else ci_res


# --- the column code, shaped like the references -------------------------------------


def _ci_residual_column(dataset, contracts, sources):
    residual = _residual_dataset(dataset, contracts, sources)
    column = ["" if ci is None else ci for ci in _ci_steps(residual, sources)]
    ci_res = energy_weighted_ci(residual, sources)
    return column, "" if ci_res is None else ci_res


def _penetration(dataset, categories=("solar", "wind"), sources=None, per_hour_mean=False):
    stat = penetration(dataset, categories, sources, per_hour_mean)
    return (stat.region, stat.total_generation_mwh, stat.solar_wind_mwh, stat.solar_wind_pct)


def _hex(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return tuple(_hex(v) for v in value)
    return value


def _outcome(compute, *args):
    try:
        return _hex(compute(*args))
    except (GridCarbonError, ValueError) as exc:
        return type(exc), str(exc)


# --- random datasets ---------------------------------------------------------------

START = datetime(2022, 6, 1, tzinfo=timezone.utc)
SOURCES = ("solar", "wind", "hydro", "coal", "gas")
energy = st.one_of(
    st.just(0.0), st.sampled_from([1.0, 250.0, 0.1]), st.floats(min_value=0.0, max_value=1e4)
)


@st.composite
def datasets(draw, uniform: bool = True) -> tuple[RegionDataset, tuple[GridMix, ...]]:
    """A dataset and the mixes it was built from.

    With ``uniform`` every step holds the same sources in the same order
    (a CSV's layout, possibly none at all); otherwise each step holds its
    own subset in its own order. Steps are often all carbon-free, so
    contracting them all leaves an empty residual."""
    steps = draw(st.integers(min_value=1, max_value=6))
    if uniform:
        names = draw(st.lists(st.sampled_from(SOURCES), unique=True, max_size=5))
        generations = [{name: draw(energy) for name in names} for _ in range(steps)]
    else:
        subsets = st.lists(st.sampled_from(SOURCES), unique=True, max_size=5)
        generations = [{name: draw(energy) for name in draw(subsets)} for _ in range(steps)]
    mixes = tuple(
        GridMix(region="r", generation=g, timestamp=START + timedelta(hours=h))
        for h, g in enumerate(generations)
    )
    published = None
    if draw(st.booleans()):
        published = tuple(draw(energy) for _ in range(steps))
    return RegionDataset(region="r", mixes=mixes, published_ci=published), mixes


fractions = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(min_value=0.0, max_value=1.0),
    st.dictionaries(
        st.sampled_from(("solar", "wind", "hydro", "coal")),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
        max_size=3,
    ),
)
categories = st.sampled_from([("solar", "wind"), ("wind",), ("hydro", "solar", "wind")])
bases = st.sampled_from(["cef", "published"])


class _Frozen:
    """A dataset view for the references: the mixes as given."""

    def __init__(self, dataset: RegionDataset, mixes: tuple[GridMix, ...]):
        self.region = dataset.region
        self.mixes = mixes
        self.published_ci = dataset.published_ci


def _reference_view(drawn, uniform: bool):
    """What the references read: the original mixes for a CSV-shaped
    dataset, the dataset's mixes view otherwise."""
    dataset, mixes = drawn
    return _Frozen(dataset, mixes) if uniform else dataset


@pytest.mark.parametrize("uniform", [True, False])
@settings(max_examples=200, deadline=None)
@given(data=st.data(), fraction=fractions, cats=categories, basis=bases)
def test_series_quantities_match_per_mix_code(uniform, data, fraction, cats, basis) -> None:
    drawn = data.draw(datasets(uniform))
    dataset = drawn[0]
    view = _reference_view(drawn, uniform)
    sources = SourceRegistry.default()
    pairs = [
        (total_signal, _reference_total_signal, (sources, basis)),
        (residual_signal, _reference_residual_signal, (fraction, cats, sources)),
        (period_ci, _reference_period_ci, (sources, basis)),
        (period_residual_ci, _reference_period_residual_ci, (fraction, cats, sources, basis)),
        (_penetration, _reference_penetration, (cats, sources, False)),
        (_penetration, _reference_penetration, (cats, sources, True)),
    ]
    for compute, reference, args in pairs:
        assert _outcome(compute, dataset, *args) == _outcome(reference, view, *args), compute


# Sums of 0.1, 0.2 and 0.3 depend on their order.
claims = st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.3, 250.0]), st.floats(min_value=0.0, max_value=1e3))


@st.composite
def yaml_contracts(draw, steps: int) -> list[Contract]:
    """Contracts as a ``--contracts`` YAML gives them: several per source,
    scalars or per-step lists of the series' length, often more than the
    generation."""
    contracts = []
    for i in range(draw(st.integers(min_value=0, max_value=6))):
        source = draw(st.sampled_from(("wind", "wind", "solar", "hydro")))
        if draw(st.booleans()):
            amount = draw(claims)
        else:
            amount = tuple(draw(claims) for _ in range(steps))
        contracts.append(
            Contract(
                id=draw(st.sampled_from([f"contract-{i}", "shared"])),
                buyer="unnamed",
                kind="financial",
                source_id=source,
                source_region="r",
                energy_mwh=amount,
            )
        )
    return contracts


# Cells whose product with a zero CEF is +0.0 or -0.0, tiny ones and ones
# near the float limit; registries with one or both fossil CEFs at 0, or all.
ZERO_CEF_CELLS = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.1, 3.0, 1e300, 1.5e300])
ZERO_CEF_OVERRIDES = st.sampled_from(
    [{"coal": 0.0}, {"gas": 0.0}, {"coal": 0.0, "gas": 0.0}, dict.fromkeys(SOURCE_CATEGORIES, 0.0)]
)


@st.composite
def zero_cef_datasets(draw) -> tuple[RegionDataset, tuple[GridMix, ...]]:
    """A CSV-shaped dataset of ``ZERO_CEF_CELLS`` and the mixes it was built from."""
    names = draw(st.lists(st.sampled_from(SOURCES), unique=True, min_size=1, max_size=5))
    mixes = tuple(
        GridMix(region="r", generation={n: draw(ZERO_CEF_CELLS) for n in names}, timestamp=START + timedelta(hours=h))
        for h in range(draw(st.integers(min_value=1, max_value=6)))
    )
    # A published CI near the float limit would overflow its emissions.
    published = tuple(draw(st.sampled_from([0.0, -0.0, 0.1, 450.0])) for _ in mixes) if draw(st.booleans()) else None
    return RegionDataset(region="r", mixes=mixes, published_ci=published), mixes


def _leaves(value) -> list:
    return [leaf for item in value for leaf in _leaves(item)] if isinstance(value, tuple) else [value]


@pytest.mark.differential
@settings(deadline=None)
@given(drawn=zero_cef_datasets(), overrides=ZERO_CEF_OVERRIDES, fraction=fractions, cats=categories, basis=bases)
def test_zero_cef_terms_left_out_exactly(drawn, overrides, fraction, cats, basis) -> None:
    """The column code leaves out the emission terms of a zero CEF; the per-mix
    code adds them. Every quantity is the same float, bit for bit, or raises
    the same error."""
    dataset, mixes = drawn
    view = _Frozen(dataset, mixes)
    sources = SourceRegistry.default(overrides)
    pairs = [
        (total_signal, _reference_total_signal, (sources, basis)),
        (residual_signal, _reference_residual_signal, (fraction, cats, sources)),
        (energy_weighted_ci, lambda d, s: _reference_energy_weighted_ci(d.mixes, s), (sources,)),
        (period_ci, _reference_period_ci, (sources, basis)),
        (period_residual_ci, _reference_period_residual_ci, (fraction, cats, sources, basis)),
        (_penetration, _reference_penetration, (cats, sources, False)),
        (_penetration, _reference_penetration, (cats, sources, True)),
    ]
    for compute, reference, args in pairs:
        new = _outcome(compute, dataset, *args)
        assert new == _outcome(reference, view, *args), compute
        if not (isinstance(new, tuple) and isinstance(new[0], type)):  # a result, not an error
            # Floats, as hex; energy_weighted_ci is None without energy.
            assert all(isinstance(leaf, str) or leaf is None for leaf in _leaves(new)), compute


@pytest.mark.parametrize("uniform", [True, False])
@settings(max_examples=200, deadline=None)
@given(data=st.data(), fraction=fractions)
def test_ci_residual_column_matches_per_mix_code(uniform, data, fraction) -> None:
    """The ``ci --contracts`` residual column and aggregate, for fraction
    contracts and for YAML-style ones."""
    drawn = data.draw(datasets(uniform))
    dataset = drawn[0]
    view = _reference_view(drawn, uniform)
    sources = SourceRegistry.default()
    try:
        fraction_contracts = list(_reference_contracts_for_fraction(view.mixes, fraction, sources=sources))
    except ValueError:
        fraction_contracts = []
    for contracts in (fraction_contracts, data.draw(yaml_contracts(len(dataset)))):
        assert _outcome(_ci_residual_column, dataset, contracts, sources) == _outcome(
            _reference_ci_residual_column, view, contracts, sources
        )
        assert _outcome(_kernel_bits, dataset, view.mixes, contracts) == _outcome(
            _residual_bits, view.mixes, contracts
        )


def _residual_bits(mixes, contracts) -> list:
    """Each step's residual, removed and over-contracted MWh, allocated one step at a time."""
    return [
        (
            [(source, value.hex()) for source, value in residual.generation.items()],
            [(source, value.hex()) for source, value in residual.removed.items()],
            residual.over_contracted,
        )
        for residual in _reference_residual_mixes(mixes, contracts)
    ]


def _kernel_bits(dataset, mixes, contracts) -> list:
    """:func:`_residual_bits` from one ``_remove_contracted`` call over the dataset."""
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
        bits.append(
            (
                [(source, value.hex()) for source, value in generation.items()],
                [(source, value.hex()) for source, value in removed.items()],
                frozenset(s for s, r in removals.items() if r.claimed[step] > r.removed[step]),
            )
        )
    return bits


# --- the timestamp fast path --------------------------------------------------------

ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


@st.composite
def timestamp_strings(draw) -> str:
    """Canonical timestamps and mutations of them."""
    moment = draw(st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31)))
    canonical = f"{moment.year:04d}-{moment:%m-%dT%H:%M:%S}Z"
    mutation = draw(
        st.sampled_from(
            [
                None,
                "single-digit",
                "hour-24",
                "feb-29",
                "lower-z",
                "offset",
                "fraction",
                "spaces",
                "non-ascii",
                "second-60",
            ]
        )
    )
    if mutation == "single-digit":
        return f"{moment.year}-{moment.month}-{moment.day}T{moment.hour}:{moment.minute}:{moment.second}Z"
    if mutation == "hour-24":
        return canonical[:11] + "24" + canonical[13:]
    if mutation == "feb-29":
        year = draw(st.sampled_from([1900, 2021, 2022, 2023, 2024, 2000]))
        return f"{year:04d}-02-29" + canonical[10:]
    if mutation == "lower-z":
        return canonical[:-1] + "z"
    if mutation == "offset":
        return canonical[:-1] + draw(st.sampled_from(["+00:00", "+0000", "+01:00"]))
    if mutation == "fraction":
        return canonical[:-1] + draw(st.sampled_from([".0", ".5", ".000000"])) + "Z"
    if mutation == "spaces":
        return draw(st.sampled_from([" ", "\t", "  "])) + canonical + draw(st.sampled_from(["", " "]))
    if mutation == "non-ascii":
        position = draw(st.integers(min_value=0, max_value=len(canonical) - 1))
        return canonical[:position] + canonical[position].translate(ARABIC_INDIC) + canonical[position + 1 :]
    if mutation == "second-60":
        return canonical[:17] + "60Z"
    return canonical


def _parsed(parse, raw):
    try:
        value = parse(raw, 7)
    except ParseError as exc:
        return ParseError, str(exc)
    assert value.tzinfo is timezone.utc
    return value


@settings(max_examples=1000)
@given(raw=timestamp_strings())
def test_timestamp_fast_path_matches_strptime(raw) -> None:
    assert _parsed(_parse_timestamp, raw) == _parsed(_reference_parse_timestamp, raw)


# --- CSV ingest ----------------------------------------------------------------------

CSV_CELLS = ["120", "0", "55.5", " 7 ", "1e3", "", " ", "nan", "-5", "inf", "x", "1_0"]


@st.composite
def csv_files(draw) -> str:
    """Small CSVs with shuffled, repeated, blank or bad timestamps, blank
    and bad cells, ragged rows and blank lines."""
    columns = st.lists(st.sampled_from(["wind", "coal", "solar", "ci_g_per_kwh", "x"]), unique=True)
    header = draw(st.permutations(["timestamp", *draw(columns)]))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        if draw(RARELY):
            lines.append(draw(st.sampled_from(["", " , ", ","])))
            continue
        hour = draw(st.integers(min_value=0, max_value=5))
        stamp = f"2022-06-01T{hour:02d}:00:00Z"
        if draw(RARELY):
            stamp = draw(
                st.sampled_from(["", "yesterday", f" {stamp} ", "2022-06-01T24:00:00Z", "2022-6-1T1:00:00Z"])
            )
        cells = [stamp if name == "timestamp" else draw(CELLS) for name in header]
        if draw(RARELY):
            cut = draw(st.integers(min_value=1, max_value=len(cells)))
            cells = cells[:cut] + draw(st.sampled_from([[], ["9"]]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


RARELY = st.sampled_from([False] * 7 + [True])
CELLS = st.one_of(*[st.sampled_from(CSV_CELLS[:5])] * 4, st.sampled_from(CSV_CELLS))


def _table(read):
    """A read CSV as comparable values: timestamps, columns as hex, published, summary.
    The column reader's kept timestamp text must equal the formatted timestamps."""
    def hexes(values):
        return tuple(value.hex() for value in values)

    if read is None:
        return None
    if len(read) == 3:  # the reference: sorted (timestamp, generation, published) rows
        rows, has_published, summary = read
        names = list(rows[0][1]) if rows else None
        return (
            [t for t, _, _ in rows],
            names,
            [hexes(generation[name] for _, generation, _ in rows) for name in names or ()],
            hexes(p for _, _, p in rows) if has_published else None,
            summary,
        )
    timestamps, source_ids, columns, published_ci, summary, text = read
    if text is not None:  # the timestamps' text, kept only when it is what the format writes
        assert text.split("\n") == [t.strftime(TIMESTAMP_FORMAT) for t in timestamps]
    return (
        list(timestamps),
        list(source_ids) if timestamps else None,
        [hexes(column) for column in columns] if timestamps else [],
        hexes(published_ci) if published_ci is not None else None,
        summary,
    )


@settings(max_examples=500, deadline=None)
@given(text=csv_files(), policy=st.sampled_from(["drop-row", "zero-fill"]), bare=st.booleans())
def test_read_csv_matches_row_by_row_reader(tmp_path_factory, text, policy, bare) -> None:
    """The column reader keeps the rows, values, summary and first error of
    the row-by-row one it replaced."""
    path = tmp_path_factory.mktemp("csv") / "r.csv"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        new = _outcome(lambda: _table(_read_csv(path, policy, bare)))
        old = _outcome(lambda: _table(_reference_read_csv(path, policy, bare)))
    assert new == old


# A lowered csv.field_size_limit() for the differential below: lines of
# csv_files() texts stay under it, so both tokenizer paths run, and a cell
# can be drawn at it or one over it.
FIELD_LIMIT = 64


@st.composite
def mutated_csv_files(draw) -> str:
    """csv_files() texts with what only csv.reader reads right: quoted
    cells, stray quotes, a NUL, cells at and over FIELD_LIMIT, CRLF or lone
    CR line breaks, and no final line break."""
    lines = draw(csv_files()).split("\n")[:-1]
    mutations = st.sampled_from(["quote", "quoted-comma", "stray-quote", "nul", "long"])
    for mutation in draw(st.lists(mutations, max_size=3)):
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        cells = lines[i].split(",")
        j = draw(st.integers(min_value=0, max_value=len(cells) - 1))
        if mutation == "quote":
            cells[j] = f'"{cells[j]}"'
        elif mutation == "quoted-comma":
            cells[j] = draw(st.sampled_from(['"a,b"', '"1,5"', '" , "']))
        elif mutation == "long":  # maybe the row's only cell, so the line is as long as the cell
            cells[j] = "9" * draw(st.sampled_from([FIELD_LIMIT, FIELD_LIMIT + 1]))
            cells = cells if draw(st.booleans()) else [cells[j]]
        else:
            at = draw(st.integers(min_value=0, max_value=len(cells[j])))
            cells[j] = cells[j][:at] + ('"' if mutation == "stray-quote" else "\x00") + cells[j][at:]
        lines[i] = ",".join(cells)
    breaks = st.sampled_from(["\n", "\r\n", "\r"])
    if draw(st.booleans()):  # one kind of line break throughout
        breaks = st.just(draw(breaks))
    text = "".join(line + draw(breaks) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _checked_table(path: Path, policy: str, bare: bool):
    """``_table`` of ``_read_csv``, whose columns must also pass the dataset
    constructor's checks: ``load_region_csv`` does not run them again."""
    read = _read_csv(path, policy, bare)
    if read is not None:
        timestamps, source_ids, columns, published_ci, summary, _ = read
        RegionDataset(
            "r", timestamps=timestamps, source_ids=source_ids, columns=columns, published_ci=published_ci
        )
    return _table(read)


def _reference_outcome(path: Path, policy: str, bare: bool):
    """The row-by-row reader's outcome, with the ``csv.Error`` it lets
    through as the ParseError the CSV layer documents: "unreadable row",
    on the row after the last one the reader read."""
    try:
        return _outcome(lambda: _table(_reference_read_csv(path, policy, bare)))
    except csv.Error as exc:
        with path.open(encoding="utf-8", newline="") as handle, contextlib.suppress(csv.Error):
            read = 0
            for _ in csv.reader(handle):
                read += 1
        return ParseError, str(ParseError(f"unreadable row: {exc}", row=read + 1))


@pytest.mark.differential
@settings(deadline=None)
@given(text=mutated_csv_files(), policy=st.sampled_from(["drop-row", "zero-fill"]), bare=st.booleans())
def test_read_csv_differential_on_text_only_csv_reader_reads(tmp_path_factory, text, policy, bare) -> None:
    """Whichever tokenizer reads a text, the values, summary and first
    error are those of the row-by-row reader over csv.reader."""
    path = tmp_path_factory.mktemp("csv") / "r.csv"
    path.write_bytes(text.encode("utf-8"))
    limit = csv.field_size_limit(FIELD_LIMIT)
    try:
        event("split" if _split_lines(text) is not None else "csv.reader")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            new = _outcome(_checked_table, path, policy, bare)
            old = _reference_outcome(path, policy, bare)
    finally:
        csv.field_size_limit(limit)
    assert new == old


# --- lines the one-split tokenizer must not misalign ----------------------------------


def _stamp_at(hour: int) -> str:
    return f"2022-06-01T{hour:02d}:00:00Z"


# Data lines for a header of two or three columns (``w`` cells); each case
# breaks the cell count of a line, or spaces or breaks lines unusually.
MISALIGNED_LINES = {
    # The extra cell of row 3 is a valid timestamp and row 4 lacks its own:
    # as one run of cells, the rows would still fill whole rows of cells.
    "extra-timestamp-cell-then-missing-timestamp": lambda w: [
        ",".join([_stamp_at(0), *["1"] * (w - 1)]),
        ",".join([_stamp_at(1), *["2"] * (w - 1), _stamp_at(2)]),
        ",".join(["3"] * (w - 1)),
        ",".join([_stamp_at(3), *["4"] * (w - 1)]),
    ],
    "two-rows-on-one-line-then-blank": lambda w: [
        ",".join([_stamp_at(0), *["1"] * (w - 1), _stamp_at(1), *["2"] * (w - 1)]),
        "",
        ",".join([_stamp_at(2), *["3"] * (w - 1)]),
    ],
    "only-commas": lambda w: [
        ",".join([_stamp_at(0), *["1"] * (w - 1)]),
        "," * (w - 1),
        "," * w,
        ",".join([_stamp_at(1), *["2"] * (w - 1)]),
    ],
    "padded-timestamps": lambda w: [
        ",".join([f" {_stamp_at(h)}  ", *[f" {h}.5"] * (w - 1)]) for h in (2, 0, 1)
    ],
    "crlf": lambda w: [",".join([_stamp_at(h), *(["", "7"] if h == 1 else [str(h)]) * (w - 1)][:w]) for h in range(3)],
}


@pytest.mark.parametrize("header", ["timestamp,wind,ci_g_per_kwh", "timestamp,ci_g_per_kwh"])
@pytest.mark.parametrize("case", list(MISALIGNED_LINES))
@pytest.mark.parametrize("policy", ["drop-row", "zero-fill"])
@pytest.mark.parametrize("bare", [False, True])
def test_read_csv_misaligned_lines_match_row_by_row_reader(tmp_path: Path, header, case, policy, bare) -> None:
    """Lines of another cell count never shift the cells of later lines:
    the rows, summary and first error are those of the row-by-row reader."""
    lines = [header, *MISALIGNED_LINES[case](len(header.split(",")))]
    text = ("\r\n" if case == "crlf" else "\n").join(lines) + "\n"
    assert _split_lines(text) is not None  # the tokenizer under test reads it
    path = tmp_path / "r.csv"
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        new = _outcome(lambda: _table(_read_csv(path, policy, bare)))
        old = _outcome(lambda: _table(_reference_read_csv(path, policy, bare)))
    assert new == old


# --- no GridMix per step on the CLI paths -------------------------------------------


def _region_csv(path: Path, hours: int) -> Path:
    lines = ["timestamp,solar,wind,gas,coal,ci_g_per_kwh"]
    for h in range(hours):
        stamp = (START + timedelta(hours=h)).strftime(TIMESTAMP_FORMAT)
        solar = "" if h == 3 else str(10 * (h % 7))
        lines.append(f"{stamp},{solar},{20 + h % 5},{30 + h % 3},{40},{300}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _gridmixes_built(monkeypatch, argv: list[str]) -> int:
    built = 0
    original = grid.GridMix.__post_init__

    def counting(self) -> None:
        nonlocal built
        built += 1
        original(self)

    monkeypatch.setattr(grid.GridMix, "__post_init__", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    monkeypatch.setattr(grid.GridMix, "__post_init__", original)
    return built


@pytest.mark.parametrize(
    "argv",
    [
        ["ci", "--mix", "{csv}", "--contracts", "all-solar-wind"],
        ["residual", "--mix", "{csv}", "--fraction", "0.8"],
        ["inflation", "--mix", "{csv}", "--fraction", "0.8"],
        ["schedule", "--signal", "{csv}", "--residual-fraction", "0.8", "--duration", "2"],
        ["penetration", "--data", "{csv}"],
    ],
    ids=["ci-contracts", "residual", "inflation", "schedule", "penetration"],
)
def test_cli_builds_no_gridmix_per_row(monkeypatch, tmp_path: Path, argv) -> None:
    counts = []
    for hours in (100, 200):
        path = _region_csv(tmp_path / f"r{hours}.csv", hours)
        counts.append(_gridmixes_built(monkeypatch, [a.format(csv=path) for a in argv]))
    assert counts[0] == counts[1]
