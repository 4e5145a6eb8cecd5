"""Declarative attribution scenarios and the bundled example fixtures.

A scenario file (YAML) describes one or more regional grid mixes, the
consumers in them, and any contracts, then :func:`run_scenario` produces
the full dual-method :class:`~gridcarbon.attribution.AttributionReport`.

Schema::

    name: commercial-case-2
    description: optional free text
    regions:
      local:
        generation: {wind: 500, solar: 20, coal: 480}   # MWh per source id
        demand_mwh: 1000                                # optional declared grid demand
    consumers:
      - {id: C1, region: local, demand_kwh: 20000, method: market_based}
    contracts:
      - {id: ppa-1, buyer: C1, kind: physical_offsite,
         source: solar, region: local, energy_mwh: 20}
    cef_g_per_kwh: {gas: 520}          # optional per-category CEF overrides
    public_signal_adjusted: false      # optional, default false

Source ids in ``generation`` default to the built-in one-source-per-
category registry; ``cef_g_per_kwh`` can override category factors.
Validation failures raise :class:`ScenarioInvalid` carrying the exact
field path. The same validators check a ``--contracts`` YAML
(:func:`parse_contract`) and a ``--cef`` table (:func:`load_cef_table`).
"""

from __future__ import annotations

from collections.abc import Collection, Mapping, Sequence
from math import inf, isfinite
from pathlib import Path
from typing import Any, IO

from ._record import _Fresh, _frozen
from .attribution import METHODS, AttributionReport, Consumer, build_report
from .contracts import CONTRACT_KINDS, PHYSICAL_KINDS, Contract
from .errors import ScenarioInvalid, SchemaError
from .factors import SOURCE_CATEGORIES
from .grid import GridMix, SourceRegistry, _weighted_mwh
from .yamlscan import _read_yaml

_SCENARIO_DIR = "data/scenarios"


@_frozen
class Scenario:
    """A fully validated scenario, ready to run."""

    name: str
    mixes: Mapping[str, GridMix]
    consumers: tuple[Consumer, ...]
    contracts: tuple[Contract, ...]
    sources: SourceRegistry
    grid_demand_mwh: Mapping[str, float] = _Fresh(dict)
    public_signal_adjusted: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "mixes", dict(self.mixes))
        object.__setattr__(self, "grid_demand_mwh", dict(self.grid_demand_mwh))
        object.__setattr__(self, "consumers", tuple(self.consumers))
        object.__setattr__(self, "contracts", tuple(self.contracts))


def _fail(field_path: str, reason: str) -> None:
    raise ScenarioInvalid(field_path, reason)


def _number(value: Any, field_path: str, minimum: float | None = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(field_path, f"expected a number, got {value!r}")
    try:
        result = float(value)
    except OverflowError:  # an int beyond the float range
        result = inf if value > 0 else -inf
    if not isfinite(result):
        _fail(field_path, f"must not be NaN or infinite, got {result}")
    if minimum is not None and result < minimum:
        _fail(field_path, f"must be >= {minimum}, got {result}")
    return result


def _string(value: Any, field_path: str) -> str:
    if not isinstance(value, str) or not value:
        _fail(field_path, f"expected a non-empty string, got {value!r}")
    return value


def parse_contract(
    body: Any, prefix: str, sources: SourceRegistry, regions: Collection[str]
) -> Contract:
    """Validate one contract entry, wherever declared, and build its :class:`Contract`.

    ``energy_mwh`` is a number >= 0 or a per-step list of them; the
    source must be carbon-free and ``region`` one of ``regions``.
    Raises :class:`ScenarioInvalid` naming the field under ``prefix``.
    """
    if not isinstance(body, Mapping):
        _fail(prefix, "expected a mapping")
    for key in ("id", "buyer", "kind", "source", "region", "energy_mwh"):
        if body.get(key) is None:
            _fail(f"{prefix}.{key}", "missing")
    contract_id = _string(body["id"], f"{prefix}.id")
    buyer = _string(body["buyer"], f"{prefix}.buyer")
    kind = body["kind"]
    if kind not in CONTRACT_KINDS:
        _fail(f"{prefix}.kind", f"expected one of {sorted(CONTRACT_KINDS)}, got {kind!r}")
    source_id = _string(body["source"], f"{prefix}.source")
    if source_id not in sources:
        _fail(f"{prefix}.source", f"unknown source id {source_id!r}")
    if not sources.get(source_id).carbon_free:
        _fail(f"{prefix}.source", f"source {source_id!r} is not carbon-free")
    region = _string(body["region"], f"{prefix}.region")
    if region not in regions:
        _fail(f"{prefix}.region", f"region {region!r} has no grid mix")
    energy_raw = body["energy_mwh"]
    if isinstance(energy_raw, Sequence) and not isinstance(energy_raw, str):
        energy: float | tuple[float, ...] = tuple(
            _number(e, f"{prefix}.energy_mwh[{j}]", minimum=0.0)
            for j, e in enumerate(energy_raw)
        )
    else:
        energy = _number(energy_raw, f"{prefix}.energy_mwh", minimum=0.0)
    return Contract(
        id=contract_id,
        buyer=buyer,
        kind=kind,
        source_id=source_id,
        source_region=region,
        energy_mwh=energy,
    )


def parse_cef_overrides(raw: Any, prefix: str) -> dict[str, float]:
    """Validate CEF overrides, wherever declared: a mapping of source category
    to a finite g/kWh >= 0. Raises :class:`ScenarioInvalid` naming the field:
    ``<prefix>.<category>``, or the category alone for an empty ``prefix``
    (a whole document)."""
    if not isinstance(raw, Mapping):
        _fail(prefix or "<root>", "expected a mapping of category to g/kWh")
    overrides: dict[str, float] = {}
    for category, value in raw.items():
        field_path = f"{prefix}.{category}" if prefix else str(category)
        if category not in SOURCE_CATEGORIES:
            _fail(field_path, "unknown source category")
        overrides[category] = _number(value, field_path, minimum=0.0)
    return overrides


def load_cef_table(path: str | Path) -> dict[str, float]:
    """Load a ``--cef`` table, a YAML mapping of category -> g/kWh checked by
    :func:`parse_cef_overrides`; an error is a SchemaError reading
    ``CEF table <path>: <category>: <reason>``."""
    with open(path, encoding="utf-8") as handle:
        raw = _read_yaml(handle, f"CEF table {path}")
    try:
        return parse_cef_overrides(raw, "")
    except ScenarioInvalid as exc:
        raise SchemaError(f"CEF table {path}: {exc}") from None


def parse_scenario(data: Any, name_hint: str = "<scenario>") -> Scenario:
    """Validate a decoded scenario mapping and build a :class:`Scenario`.

    Raises:
        ScenarioInvalid: naming the offending field and the reason.
    """
    if not isinstance(data, Mapping):
        _fail("<root>", f"scenario must be a mapping, got {type(data).__name__}")
    known_keys = {
        "name",
        "description",
        "regions",
        "consumers",
        "contracts",
        "cef_g_per_kwh",
        "public_signal_adjusted",
    }
    for key in data:
        if key not in known_keys:
            _fail(str(key), "unknown scenario key")

    name = _string(data.get("name", name_hint), "name")
    description = data.get("description", "")
    if not isinstance(description, str):
        _fail("description", "expected a string")

    overrides = parse_cef_overrides(data.get("cef_g_per_kwh", {}), "cef_g_per_kwh")
    sources = SourceRegistry.default(overrides)

    regions_raw = data.get("regions")
    if not isinstance(regions_raw, Mapping) or not regions_raw:
        _fail("regions", "expected a non-empty mapping of region name to mix")
    mixes: dict[str, GridMix] = {}
    grid_demand: dict[str, float] = {}
    for region, body in regions_raw.items():
        region = _string(region, "regions")
        prefix = f"regions.{region}"
        if not isinstance(body, Mapping):
            _fail(prefix, "expected a mapping with a 'generation' key")
        generation_raw = body.get("generation")
        if not isinstance(generation_raw, Mapping) or not generation_raw:
            _fail(f"{prefix}.generation", "expected a non-empty mapping of source id to MWh")
        generation: dict[str, float] = {}
        for source_id, mwh in generation_raw.items():
            source_id = str(source_id)
            if source_id not in sources:
                _fail(f"{prefix}.generation.{source_id}", "unknown source id")
            generation[source_id] = _number(
                mwh, f"{prefix}.generation.{source_id}", minimum=0.0
            )
        mix = GridMix(region=region, generation=generation)
        if not isfinite(mix.total_energy) or not isfinite(_weighted_mwh(mix, sources)):
            _fail(f"{prefix}.generation", "total generation or its MWh times CEF overflows")
        mixes[region] = mix
        if "demand_mwh" in body:
            demand = _number(body["demand_mwh"], f"{prefix}.demand_mwh", minimum=0.0)
            if demand == 0:
                _fail(f"{prefix}.demand_mwh", "declared grid demand must be positive")
            grid_demand[region] = demand
        for key in body:
            if key not in {"generation", "demand_mwh"}:
                _fail(f"{prefix}.{key}", "unknown region key")

    consumers_raw = data.get("consumers")
    if not isinstance(consumers_raw, Sequence) or isinstance(consumers_raw, str) or not consumers_raw:
        _fail("consumers", "expected a non-empty list")
    consumers: list[Consumer] = []
    seen_consumers: set[str] = set()
    for i, body in enumerate(consumers_raw):
        prefix = f"consumers[{i}]"
        if not isinstance(body, Mapping):
            _fail(prefix, "expected a mapping")
        consumer_id = _string(body.get("id"), f"{prefix}.id")
        if consumer_id in seen_consumers:
            _fail(f"{prefix}.id", f"duplicate consumer id {consumer_id!r}")
        seen_consumers.add(consumer_id)
        region = _string(body.get("region"), f"{prefix}.region")
        if region not in mixes:
            _fail(f"{prefix}.region", f"region {region!r} is not defined under 'regions'")
        method = body.get("method", "location_based")
        if method not in METHODS:
            _fail(f"{prefix}.method", f"expected one of {sorted(METHODS)}, got {method!r}")
        demand = _number(body.get("demand_kwh"), f"{prefix}.demand_kwh", minimum=0.0)
        consumers.append(
            Consumer(id=consumer_id, region=region, demand_kwh=demand, method=method)
        )

    contracts_raw = data.get("contracts", [])
    if not isinstance(contracts_raw, Sequence) or isinstance(contracts_raw, str):
        _fail("contracts", "expected a list")
    contracts: list[Contract] = []
    seen_contracts: set[str] = set()
    consumer_regions = {c.id: c.region for c in consumers}
    for i, body in enumerate(contracts_raw):
        prefix = f"contracts[{i}]"
        contract = parse_contract(body, prefix, sources, mixes)
        if isinstance(contract.energy_mwh, tuple):
            _fail(f"{prefix}.energy_mwh", "expected a number: a scenario covers one step")
        if contract.id in seen_contracts:
            _fail(f"{prefix}.id", f"duplicate contract id {contract.id!r}")
        seen_contracts.add(contract.id)
        if contract.buyer not in consumer_regions:
            _fail(f"{prefix}.buyer", f"buyer {contract.buyer!r} is not a declared consumer")
        buyer_region = consumer_regions[contract.buyer]
        if contract.kind in PHYSICAL_KINDS and contract.source_region != buyer_region:
            _fail(
                f"{prefix}.region",
                f"physical contracts must source from the buyer's region "
                f"({buyer_region!r}), got {contract.source_region!r}",
            )
        contracts.append(contract)

    adjusted = data.get("public_signal_adjusted", False)
    if not isinstance(adjusted, bool):
        _fail("public_signal_adjusted", f"expected a boolean, got {adjusted!r}")

    return Scenario(
        name=name,
        description=description,
        mixes=mixes,
        consumers=tuple(consumers),
        contracts=tuple(contracts),
        sources=sources,
        grid_demand_mwh=grid_demand,
        public_signal_adjusted=adjusted,
    )


def load_scenario(source: str | Path | IO[str]) -> Scenario:
    """Load and validate a scenario from a YAML file path or open stream."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        with path.open("r", encoding="utf-8") as handle:
            data = _read_yaml(handle, str(path))
        return parse_scenario(data, name_hint=path.stem)
    return parse_scenario(_read_yaml(source, getattr(source, "name", "<stream>")))


def run_scenario(scenario: Scenario) -> AttributionReport:
    """Execute a scenario under both accounting methods."""
    return build_report(
        mixes=scenario.mixes,
        contracts=scenario.contracts,
        consumers=scenario.consumers,
        sources=scenario.sources,
        grid_demand_mwh=scenario.grid_demand_mwh,
        public_signal_adjusted=scenario.public_signal_adjusted,
    )


def builtin_scenario_names() -> list[str]:
    """Names of the bundled example scenarios, sorted."""
    from importlib import resources  # here, as from Python 3.12 it imports inspect (~20 ms)
    root = resources.files("gridcarbon").joinpath(_SCENARIO_DIR)
    return sorted(entry.name[: -len(".yaml")] for entry in root.iterdir() if entry.name.endswith(".yaml"))


def load_builtin_scenario(name: str) -> Scenario:
    """Load a bundled scenario by name (see :func:`builtin_scenario_names`)."""
    from importlib import resources
    root = resources.files("gridcarbon").joinpath(_SCENARIO_DIR)
    candidate = root.joinpath(f"{name}.yaml")
    if not candidate.is_file():
        raise ScenarioInvalid(
            "name", f"no builtin scenario {name!r}; available: {', '.join(builtin_scenario_names())}"
        )
    with candidate.open("r", encoding="utf-8") as handle:
        return parse_scenario(_read_yaml(handle, f"builtin scenario {name}"), name_hint=name)
