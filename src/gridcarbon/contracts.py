"""Power purchase agreements, the residual grid mix, and residual carbon intensity.

A contract transfers the carbon-free attribute of some contracted
generation from the grid to a named buyer. Removing every contracted
MWh from the grid mix yields the *residual* mix; its average carbon
intensity is the residual carbon intensity, the signal that uncontracted
consumers should see under market-based accounting.

One rule allocates contracts, :func:`_remove_contracted`, over the steps
of one region's generation columns. Per source and step, the claims of
the contracts sourced there are summed in contract order and
min(claim, generation) is removed. Over-contracted claims (more than the
generation) are prorated by contracted amount and the source id is
flagged in ``over_contracted`` rather than raised, so the accounting
invariants stay intact.

A series is a :class:`RegionDataset`, whose residual columns feed the
residual CI signal and the period aggregates. A single mix is the rule's
one-step series, :func:`compute_residual_mix`, so a per-step contract
applies to it only with exactly one value. It alone reports each
contract's granted MWh; its residual CI is
``compute_average_ci(compute_residual_mix(mix, contracts).mix)``.
:func:`allocate_contracts` allocates each region once and sums every
buyer's grants; a contract sourced from a region with no mix is
unsourced. :func:`contracts_for_fraction` builds the contracts covering
a fraction of generation, one per source for a whole series.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from functools import partial
from itertools import repeat
from math import isfinite
from operator import gt, le, mul, sub
from typing import NamedTuple

from ._record import _Fresh, _frozen
from .errors import ContractNotCarbonFree, EmptyResidual, UnknownRegion
from .factors import check_categories
from .grid import GridMix, SourceRegistry, _column_sums, _sum
from .ingest import LoadSummary, RegionDataset

PHYSICAL_KINDS = frozenset({"physical_onsite", "physical_offsite"})
CONTRACT_KINDS = PHYSICAL_KINDS | {"financial", "rec"}


@_frozen
class Contract:
    """A PPA or REC purchase granting ``buyer`` a claim on contracted generation.

    ``energy_mwh`` is the contracted energy per time step, finite and
    >= 0: a scalar, or a sequence with one entry per step of a series.
    A REC purchase is accounting-wise identical to a financial PPA here;
    the kind tag is kept for reporting.
    """

    id: str
    buyer: str
    kind: str
    source_id: str
    source_region: str
    energy_mwh: float | tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind not in CONTRACT_KINDS:
            raise ValueError(
                f"contract {self.id!r}: kind must be one of {sorted(CONTRACT_KINDS)}, got {self.kind!r}"
            )
        if isinstance(self.energy_mwh, (int, float)):
            object.__setattr__(self, "energy_mwh", float(self.energy_mwh))
            energies, where = (self.energy_mwh,), ""
        else:
            object.__setattr__(self, "energy_mwh", tuple(map(float, self.energy_mwh)))
            energies, where = self.energy_mwh, " at every step"
        if not all(map(isfinite, energies)):
            raise ValueError(f"contract {self.id!r}: energy must be finite{where}")
        if any(map(partial(gt, 0.0), energies)):
            raise ValueError(f"contract {self.id!r}: energy must be >= 0{where}")


@_frozen
class ResidualMix:
    """A grid mix with contracted carbon-free energy removed.

    Attributes:
        mix: the residual mix itself (original minus removals).
        removed: MWh actually removed per source id, after clamping.
        over_contracted: source ids whose claims exceeded generation.
        allocated: MWh granted per contract id, after clamping and
            proration (contracts sharing an id share one entry).
    """

    mix: GridMix
    removed: Mapping[str, float]
    over_contracted: frozenset[str]
    allocated: Mapping[str, float] = _Fresh(dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "removed", dict(self.removed))
        object.__setattr__(self, "over_contracted", frozenset(self.over_contracted))
        object.__setattr__(self, "allocated", dict(self.allocated))

    @property
    def generation(self) -> Mapping[str, float]:
        return self.mix.generation

    @property
    def total_energy(self) -> float:
        return self.mix.total_energy

    @property
    def total_removed(self) -> float:
        return _sum(self.removed.values())


def compute_residual_mix(
    mix: GridMix,
    contracts: Sequence[Contract],
    sources: SourceRegistry | None = None,
) -> ResidualMix:
    """Remove all contracted carbon-free energy from a mix.

    Only contracts whose ``source_region`` matches the mix's region
    apply. The mix is the one-step series of :func:`_remove_contracted`:
    a contract's energy is its scalar, or the one value of its per-step
    energy. A contract is granted its energy, or at an over-contracted
    source its energy times removed / claimed; contracts sharing an id
    share one ``allocated`` entry.

    Raises:
        ContractNotCarbonFree: if an applicable contract targets a
            source with a nonzero emission factor.
        ValueError: if a contract's per-step energy has other than one value.
    """
    sources = SourceRegistry.default() if sources is None else sources
    removals = _remove_contracted(mix.region, 1, lambda s: (mix.generation.get(s, 0.0),), contracts, sources)
    generation = dict(mix.generation)
    removed: dict[str, float] = {}
    allocated: dict[str, float] = {}
    over_contracted = set()
    for source_id, removal in removals.items():
        (claimed,), (amount,) = removal.claimed, removal.removed
        over = claimed > amount
        if over:
            over_contracted.add(source_id)
        for contract, (energy,) in removal.claims:
            granted = energy * (amount / claimed) if over else energy
            allocated[contract.id] = allocated.get(contract.id, 0.0) + granted
        if amount > 0:
            removed[source_id] = amount
            generation[source_id] = removal.residual[0]
    return ResidualMix(
        mix=GridMix(region=mix.region, generation=generation, timestamp=mix.timestamp),
        removed=removed,
        over_contracted=frozenset(over_contracted),
        allocated=allocated,
    )


@_frozen
class Allocation:
    """Every contract allocated against the mixes of one step.

    Attributes:
        residuals: residual mix per region, keyed like the input mixes.
        claims_mwh: carbon-free MWh granted to each buyer, summed over
            regions; buyers without contracts are absent.
        unsourced: per buyer, its first contract (in input order) whose
            source region has no mix.
    """

    residuals: Mapping[str, ResidualMix]
    claims_mwh: Mapping[str, float]
    unsourced: Mapping[str, Contract]

    def claim_mwh(self, buyer: str) -> float:
        """The buyer's carbon-free MWh.

        Raises:
            UnknownRegion: if one of the buyer's contracts sources
                energy from a region with no mix.
        """
        contract = self.unsourced.get(buyer)
        if contract is not None:
            raise UnknownRegion(
                f"contract {contract.id!r} sources from region {contract.source_region!r}, "
                f"for which no mix was provided"
            )
        return self.claims_mwh.get(buyer, 0.0)


def allocate_contracts(
    mixes: GridMix | Mapping[str, GridMix],
    contracts: Sequence[Contract],
    sources: SourceRegistry | None = None,
    require_residual: bool = False,
) -> Allocation:
    """Allocate every contract against the mix of its source region.

    Contracts are indexed by ``source_region`` once, keeping input
    order, and each region's residual mix is computed once, so the cost
    is O(regions + contracts). A buyer's claim sums its allocations over
    the regions in ``mixes`` order and its contracts in input order.
    Contracts whose source region has no mix allocate nothing; they are
    listed in :attr:`Allocation.unsourced`.

    With ``require_residual``, a region whose generation is fully
    contracted stops the allocation there, before later regions are
    allocated, as market-based pricing needs a residual mix everywhere.

    Raises:
        ContractNotCarbonFree: if a contract targets a source with a
            nonzero emission factor in a region that has a mix.
        EmptyResidual: with ``require_residual``, if a region's
            generation is fully contracted.
    """
    sources = SourceRegistry.default() if sources is None else sources
    if isinstance(mixes, GridMix):
        mixes = {mixes.region: mixes}
    by_region: dict[str, list[Contract]] = {}
    unsourced: dict[str, Contract] = {}
    for contract in contracts:
        by_region.setdefault(contract.source_region, []).append(contract)
        if contract.source_region not in mixes:
            unsourced.setdefault(contract.buyer, contract)

    residuals: dict[str, ResidualMix] = {}
    claims: dict[str, float] = {}
    for region, mix in mixes.items():
        region_contracts = by_region.get(mix.region, ())
        residual = compute_residual_mix(mix, region_contracts, sources)
        if require_residual and residual.total_energy <= 0:
            raise EmptyResidual(
                f"all generation in region {region!r} is under contract; residual mix is empty"
            )
        residuals[region] = residual
        allocated = residual.allocated
        for contract in region_contracts:
            claims[contract.buyer] = claims.get(contract.buyer, 0.0) + allocated[contract.id]
    return Allocation(residuals=residuals, claims_mwh=claims, unsourced=unsourced)


def contracts_for_fraction(
    mixes: GridMix | RegionDataset,
    fraction: float | Mapping[str, float],
    categories: Sequence[str] = ("solar", "wind"),
    sources: SourceRegistry | None = None,
) -> tuple[Contract, ...]:
    """Synthesize contracts covering a fraction of selected generation.

    ``fraction`` is either one number applied to every listed category or
    a mapping from category to its own fraction (the mapping's keys then
    replace ``categories``). Fractions must lie in [0, 1]. Useful for
    what-if analyses such as "all solar and wind is contracted out".

    Given one mix, each contract's ``energy_mwh`` is a number. Given a
    dataset, each contract covers the whole series: its ``energy_mwh``
    holds ``generation * fraction`` per step. A source gets a contract
    when that energy is positive in at least one step.

    Raises:
        ValueError: if a category is unknown or a fraction is outside
            [0, 1] (both checked even for an empty dataset).
        ContractNotCarbonFree: if a source that would get a contract is
            not carbon-free.
        TypeError: if ``mixes`` is neither a mix nor a dataset.
    """
    sources = SourceRegistry.default() if sources is None else sources
    if isinstance(fraction, Mapping):
        per_category = {str(cat): float(f) for cat, f in fraction.items()}
    else:
        per_category = {str(cat): float(fraction) for cat in categories}
    check_categories(per_category)
    for cat, f in per_category.items():
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"contract fraction for {cat!r} must be in [0, 1], got {f}")
    series = isinstance(mixes, RegionDataset)
    if series:
        source_ids, columns = mixes.source_ids, mixes.columns
    elif isinstance(mixes, GridMix):
        source_ids, columns = tuple(mixes.generation), [(g,) for g in mixes.generation.values()]
    else:
        raise TypeError(f"contracts_for_fraction takes a GridMix or a RegionDataset, not {type(mixes).__name__}")
    contracts = []
    for source_id, column in sorted(zip(source_ids, columns)):
        source = sources.get(source_id)
        f = per_category.get(source.category, 0.0)
        if f == 0:  # generation is finite, so no step gets energy
            continue
        energy = tuple(map(mul, column, repeat(f)))
        if max(energy, default=0.0) > 0:
            if not source.carbon_free:
                raise ContractNotCarbonFree(
                    f"contract fraction for {source.category!r}: source {source_id!r} is not carbon-free"
                )
            # generation (checked) times f in [0, 1]: floats, finite and >= 0,
            # as Contract's checks would find them
            contracts.append(
                Contract._checked(
                    id=f"__contracted__:{source_id}",
                    buyer="__contracted__",
                    kind="financial",
                    source_id=source_id,
                    source_region=mixes.region,
                    energy_mwh=energy if series else energy[0],
                )
            )
    return tuple(contracts)


class _Removal(NamedTuple):
    """One contracted source along a series: its contracts in input order,
    each with its energy per step, and the MWh claimed, removed and left
    over at each step."""

    claims: list[tuple[Contract, tuple[float, ...]]]
    claimed: tuple[float, ...]
    removed: tuple[float, ...]
    residual: tuple[float, ...]


def _remove_contracted(
    region: str,
    steps: int,
    column: Callable[[str], Sequence[float]],
    contracts: Sequence[Contract],
    sources: SourceRegistry,
    summary: LoadSummary | None = None,
) -> dict[str, _Removal]:
    """Remove the contracts of ``region`` from its generation columns.

    This is the one allocation rule. ``column(source_id)`` is the source's
    generation per step, zeros for a source the series lacks. ``steps``
    is the series' length: a contract's energy is its scalar at every
    step, or its per-step series, one value per step. A mix is the
    series of one step (:func:`compute_residual_mix`).

    For each contracted source, in order of its first contract, the
    claim of a step is its contracts' energy added in contract order by
    the one summation rule, :func:`gridcarbon.grid._column_sums`.
    ``removed`` is the claim when it is at most the generation, and
    otherwise the generation: the source is over-contracted at that step
    (claimed > removed). The residual is ``g - removed``, which keeps
    ``g`` when nothing is removed.

    Raises:
        ContractNotCarbonFree: if a contract of the region targets a
            source with a nonzero emission factor.
        ValueError: if a contract's per-step energy does not have exactly
            one entry per step (the message gives the rows the load
            dropped, if any).
    """
    by_source: dict[str, list[tuple[Contract, tuple[float, ...]]]] = {}
    for contract in contracts:
        if contract.source_region != region:
            continue
        if not sources.get(contract.source_id).carbon_free:
            raise ContractNotCarbonFree(
                f"contract {contract.id!r} targets {contract.source_id!r}, which is not carbon-free"
            )
        energy = contract.energy_mwh
        if isinstance(energy, float):
            energy = (energy,) * steps
        elif len(energy) != steps:
            dropped = summary.rows_dropped if summary is not None else 0
            raise ValueError(
                f"contract {contract.id!r} has {len(energy)} per-step energy_mwh values "
                f"for a series of {steps} steps"
                + (f" (rows dropped on load for a blank cell: {dropped})" if dropped else "")
            )
        by_source.setdefault(contract.source_id, []).append((contract, energy))

    removals: dict[str, _Removal] = {}
    for source_id, claims in by_source.items():
        generation = column(source_id)
        claimed = _column_sums([energy for _, energy in claims], len(generation))
        removed = claimed if all(map(le, claimed, generation)) else tuple(map(min, claimed, generation))
        # max(g - removed, 0.0) is g - removed bit for bit, as removed <= g.
        residual = tuple(map(sub, generation, removed))
        removals[source_id] = _Removal(claims, claimed, removed, residual)
    return removals


def _residual_dataset(
    dataset: RegionDataset, contracts: Sequence[Contract], sources: SourceRegistry
) -> RegionDataset:
    """The dataset with each contracted source's column replaced by its
    residual column, and no published CI (it priced the whole mix). As every
    residual is finite and >= 0, the constructor's checks are not run again."""
    removals = _remove_contracted(
        dataset.region, len(dataset), dataset.column, contracts, sources, dataset.summary
    )
    columns = tuple(
        removals[source_id].residual if source_id in removals else column
        for source_id, column in zip(dataset.source_ids, dataset.columns)
    )
    return RegionDataset._checked(region=dataset.region, timestamps=dataset.timestamps, source_ids=dataset.source_ids,
                                  columns=columns, published_ci=None, summary=dataset.summary)


def _fully_contracted(region: str, step: int) -> EmptyResidual:
    """The error for a step with generation and an empty residual."""
    return EmptyResidual(f"step {step} of region {region!r} is fully contracted")
