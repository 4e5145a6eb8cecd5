"""The single-step contract allocation as it stood before it was folded into
``contracts._remove_contracted``: ``_allocate`` and ``compute_residual_mix``,
copied verbatim but for the built-in ``sum``, which is :func:`folded_sum`,
the sum() of Python 3.11 they were written on, so they read the same on
every Python.

``_energy_at`` is the ``Contract.energy_at`` method they read a contract's
energy through, copied verbatim as a function of the contract.

The ``_reference_*`` functions of the attribution and column tests allocate
through these copies, so they stay independent of the kernel they check,
and ``test_contracts`` pins ``compute_residual_mix`` to them bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence

from gridcarbon.contracts import Contract, ResidualMix
from gridcarbon.errors import ContractNotCarbonFree
from gridcarbon.grid import GridMix, SourceRegistry

from reference_sum import folded_sum


def _energy_at(contract: Contract, step: int | None = None) -> float:
    """Contracted energy in MWh at a series step; a scalar applies at every step."""
    if isinstance(contract.energy_mwh, float):
        return contract.energy_mwh
    if step is None:
        raise ValueError(f"contract {contract.id!r} has a per-step energy series; give a step")
    if not 0 <= step < len(contract.energy_mwh):
        raise ValueError(
            f"contract {contract.id!r}: step {step} outside contracted series of length {len(contract.energy_mwh)}"
        )
    return contract.energy_mwh[step]


def _allocate(
    mix: GridMix,
    contracts: Sequence[Contract],
    sources: SourceRegistry,
    step: int | None,
) -> tuple[dict[str, float], dict[str, float], set[str]]:
    """Allocate contracted energy against a mix's generation.

    Returns (per-contract allocations keyed by contract id, MWh removed
    per source id, over-contracted source ids). Claims beyond a source's
    generation are pro-rated by contracted amount; the removed total is
    exactly the available generation in that case, so an over-contracted
    source zeroes out of the residual with no float dust.
    """
    claims: dict[str, list[tuple[Contract, float]]] = {}
    for contract in contracts:
        if contract.source_region != mix.region:
            continue
        source = sources.get(contract.source_id)
        if not source.carbon_free:
            raise ContractNotCarbonFree(
                f"contract {contract.id!r} targets {contract.source_id!r}, which is not carbon-free"
            )
        claims.setdefault(contract.source_id, []).append((contract, _energy_at(contract, step)))

    allocations: dict[str, float] = {}
    removed: dict[str, float] = {}
    over_contracted: set[str] = set()
    for source_id, source_claims in claims.items():
        total_claim = folded_sum(amount for _, amount in source_claims)
        available = mix.generation.get(source_id, 0.0)
        if total_claim <= available:
            removed_amount = total_claim
            scale = 1.0
        else:  # total_claim > available >= 0, so total_claim > 0
            over_contracted.add(source_id)
            removed_amount = available
            scale = available / total_claim
        for contract, amount in source_claims:
            allocations[contract.id] = allocations.get(contract.id, 0.0) + amount * scale
        if removed_amount > 0:
            removed[source_id] = removed_amount
    return allocations, removed, over_contracted


def compute_residual_mix(
    mix: GridMix,
    contracts: Sequence[Contract],
    sources: SourceRegistry | None = None,
    step: int | None = None,
) -> ResidualMix:
    """Remove all contracted carbon-free energy from a mix.

    Only contracts whose ``source_region`` matches the mix's region
    apply. Removal per source is clamped at available generation.

    Raises:
        ContractNotCarbonFree: if an applicable contract targets a
            source with a nonzero emission factor.
        ValueError: if ``step`` does not index a contract's energy series.
    """
    sources = sources or SourceRegistry.default()
    allocated, removed, over_contracted = _allocate(mix, contracts, sources, step)
    generation = dict(mix.generation)
    for source_id, amount in removed.items():
        # max() only guards float dust; the allocation is already clamped.
        generation[source_id] = max(generation.get(source_id, 0.0) - amount, 0.0)
    residual = GridMix(region=mix.region, generation=generation, timestamp=mix.timestamp)
    return ResidualMix(
        mix=residual,
        removed=removed,
        over_contracted=frozenset(over_contracted),
        allocated=allocated,
    )
