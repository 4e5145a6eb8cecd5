"""Core domain types for grid mixes and the average carbon intensity.

Units are fixed package-wide:

- generation energy in MWh,
- consumer demand in kWh (converted at the API edge where the two meet),
- carbon intensity and emission factors in g CO2-eq per kWh; a carbon
  intensity is a plain ``float``, from inputs checked where they enter,
- absolute emissions in grams.

All types are immutable values; all operations are pure functions, so
everything here is safe to evaluate concurrently across regions and time
steps.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from datetime import datetime
from functools import reduce
from itertools import repeat
from math import inf
from operator import add, mul, truediv

from ._record import _frozen
from .errors import EmptyMix, UnknownSource
from .factors import CARBON_FREE_CATEGORIES, DEFAULT_CEF, SOURCE_CATEGORIES, check_categories

KWH_PER_MWH = 1000.0


# The one summation rule: every sum of floats that reaches an output (MWh,
# contract claims, emissions, CI ratios) is a _sum or a _column_sums, here
# or in the modules that import them, so it is the same float on every Python.


def _sum(values: Iterable[float]) -> float:
    """``sum(values)`` as Python 3.11 adds floats, on every Python: a left
    fold in input order from the int ``0`` (from 3.12 on, the built-in
    ``sum`` compensates, which rounds some float sums differently)."""
    return reduce(add, values, 0)


def _column_sums(columns: Iterable[Iterable[float]], steps: int) -> tuple[float, ...]:
    """Per step, :func:`_sum` of the step's value in each column, in column
    order (the int ``0`` when there are no columns). The columns add in one
    pass of nested ``map``s; the partial totals are kept as a tuple every 16
    columns, so any number of columns adds without deep nesting."""
    totals: Iterable[float] = repeat(0, steps)
    for i, column in enumerate(columns, 1):
        totals = map(add, totals, column)
        if i % 16 == 0:
            totals = tuple(totals)
    return tuple(totals)


@_frozen
class EnergySource:
    """A generation source with its carbon emission factor.

    Attributes:
        id: short identifier, unique within a registry.
        category: one of :data:`gridcarbon.factors.SOURCE_CATEGORIES`.
        cef: carbon emission factor in g CO2-eq per kWh generated.
        carbon_free: whether this source counts as carbon-free energy.

    Under the operational-emissions model a carbon-free source must have
    a CEF of exactly zero; construction enforces that.
    """

    id: str
    category: str
    cef: float
    carbon_free: bool

    def __post_init__(self) -> None:
        if self.category not in SOURCE_CATEGORIES:
            raise ValueError(f"unknown source category {self.category!r}")
        if not 0 <= self.cef < inf:
            raise ValueError(f"source {self.id!r}: cef must be a finite number >= 0, got {self.cef}")
        if self.carbon_free and self.cef != 0:
            raise ValueError(
                f"source {self.id!r}: carbon-free sources must have cef = 0, got {self.cef}"
            )


class SourceRegistry:
    """Lookup table from source id to :class:`EnergySource`."""

    def __init__(self, sources: Iterable[EnergySource] = ()):
        self._sources: dict[str, EnergySource] = {}
        for source in sources:
            if source.id in self._sources:
                raise ValueError(f"duplicate source id {source.id!r}")
            self._sources[source.id] = source

    @classmethod
    def default(cls, cef_overrides: Mapping[str, float] | None = None) -> SourceRegistry:
        """One source per category, id = category name, CEFs from the default
        table with ``cef_overrides`` in place. A carbon-free category stays
        carbon-free only while its CEF is 0.

        Raises:
            ValueError: naming an override whose category is unknown, or
                whose CEF is not a finite number >= 0.
        """
        cefs = {**DEFAULT_CEF, **(cef_overrides or {})}
        check_categories(cefs)
        return cls(
            EnergySource(cat, cat, float(cefs[cat]), cat in CARBON_FREE_CATEGORIES and cefs[cat] == 0)
            for cat in sorted(SOURCE_CATEGORIES)
        )

    def get(self, source_id: str) -> EnergySource:
        try:
            return self._sources[source_id]
        except KeyError:
            raise UnknownSource(f"source id {source_id!r} is not registered") from None

    def __contains__(self, source_id: str) -> bool:
        return source_id in self._sources

    def __len__(self) -> int:
        return len(self._sources)


@_frozen
class GridMix:
    """Per-source generation for one region and one time step.

    ``generation`` maps source id to energy in MWh. Zero-generation
    sources may appear and are ignored by the carbon-intensity math.
    """

    region: str
    generation: Mapping[str, float]
    timestamp: datetime | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "generation", dict(self.generation))
        for source_id, mwh in self.generation.items():
            if not 0 <= mwh < inf:
                raise ValueError(f"generation for {source_id!r} must be finite and >= 0, got {mwh}")

    @property
    def total_energy(self) -> float:
        """Total generation in MWh."""
        return _sum(self.generation.values())

    def carbon_free_energy(self, sources: SourceRegistry) -> float:
        """Generation from carbon-free sources, in MWh."""
        return _sum(mwh for source_id, mwh in self.generation.items() if sources.get(source_id).carbon_free)


def total_emissions(mix: GridMix, sources: SourceRegistry | None = None) -> float:
    """Total emissions of a mix in grams CO2-eq.

    Generation is in MWh and CEFs in g/kWh, hence the factor of 1000.
    """
    sources = SourceRegistry.default() if sources is None else sources
    return _sum(mwh * sources.get(source_id).cef * KWH_PER_MWH for source_id, mwh in mix.generation.items())


def _weighted_mwh(mix: GridMix, sources: SourceRegistry) -> float:
    """Σ MWh · CEF of a mix (MWh · g/kWh), the numerator of :func:`compute_average_ci`."""
    return _sum(mwh * sources.get(source_id).cef for source_id, mwh in mix.generation.items())


def compute_average_ci(mix: GridMix, sources: SourceRegistry | None = None) -> float:
    """Generation-weighted average carbon intensity of a mix, g/kWh.

    This is the grid-level (location-based) carbon intensity when the mix
    is the full grid mix.

    Raises:
        EmptyMix: if the mix has zero total generation.
        UnknownSource: if a source id is not registered.
    """
    sources = SourceRegistry.default() if sources is None else sources
    total = mix.total_energy
    if total <= 0:
        raise EmptyMix(f"carbon intensity undefined for empty mix in region {mix.region!r}")
    return _weighted_mwh(mix, sources) / total


# Per-step helpers over generation columns: one float tuple per source id,
# all of the series' length. Each adds the per-mix expression's terms in
# column order with _column_sums, the one summation rule above, so a series
# computed on columns gives the same floats as the same mixes one by one.
# Emission sums leave out the terms of a zero CEF, exactly: such a term is
# ±0.0 (cells are finite and >= 0), and adding it to a partial sum that is
# the int 0, +0.0 or positive changes neither its value nor its sign.

_Row = tuple[float, ...]


def _rows(columns: Sequence[Iterable[float]], steps: int) -> Iterator[_Row]:
    """The per-step rows of generation columns (empty rows when there are none)."""
    return zip(*columns) if columns else repeat((), steps)


def _cefs(source_ids: Iterable[str], sources: SourceRegistry) -> _Row:
    """The emission factor of each source id, resolved once for a whole series."""
    return tuple(sources.get(source_id).cef for source_id in source_ids)


def _weighted(columns: Sequence[_Row], cefs: _Row, steps: int, scale: float | None = None) -> _Row:
    """Per step, the :func:`_column_sums` of mwh * cef, or of mwh * cef * scale,
    over the columns whose cef is not 0 (the int ``0`` when none is)."""
    terms = [map(mul, column, repeat(cef)) for column, cef in zip(columns, cefs) if cef]
    if scale is not None:
        terms = [map(mul, column, repeat(scale)) for column in terms]
    return _column_sums(terms, steps)


def _step_emissions(columns: Sequence[_Row], cefs: _Row, steps: int) -> tuple[_Row, _Row]:
    """Per step, :func:`total_emissions` over 1000 (MWh · g/kWh), and the total energy in MWh."""
    emissions = _weighted(columns, cefs, steps, KWH_PER_MWH)
    return (
        tuple(map(truediv, emissions, repeat(KWH_PER_MWH))),
        _column_sums(columns, steps),
    )
