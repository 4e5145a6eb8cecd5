"""Source categories and default carbon emission factors.

The default CEF table maps each source category to grams of CO2-equivalent
per kWh of generation. Coal is pinned at 1000 g/kWh (the conventional
round number for a coal plant); the remaining non-zero values are typical
published figures for operational (combustion-only) emissions. They are
stand-ins, not ground truth: every value can be overridden per run via a
small YAML table (see :func:`load_cef_table`) or per source in a scenario
file.

Under the operational-emissions model used throughout this package,
renewables and nuclear are carbon-free (CEF exactly 0). Biomass burns
fuel, so it carries a non-zero factor and is not treated as carbon-free
even though it is often classed as renewable.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from math import inf, isfinite
from pathlib import Path

import yaml

from .errors import SchemaError

# Every category a source may declare; mirrors ElectricityMaps-style
# generation breakdowns.
SOURCE_CATEGORIES: frozenset[str] = frozenset(
    {
        "solar",
        "wind",
        "hydro",
        "nuclear",
        "coal",
        "gas",
        "oil",
        "biomass",
        "geothermal",
        "unknown",
        "other-renewable",
        "other-fossil",
    }
)

# Categories whose generation counts as carbon-free energy (CFE).
CARBON_FREE_CATEGORIES: frozenset[str] = frozenset(
    {"solar", "wind", "hydro", "nuclear", "geothermal", "other-renewable"}
)

# Default CEF per category, g CO2-eq per kWh. Overridable; see module docstring.
DEFAULT_CEF: dict[str, float] = {
    "solar": 0.0,
    "wind": 0.0,
    "hydro": 0.0,
    "nuclear": 0.0,
    "geothermal": 0.0,
    "other-renewable": 0.0,
    "coal": 1000.0,
    "gas": 490.0,
    "oil": 650.0,
    "biomass": 230.0,
    "other-fossil": 700.0,
    "unknown": 475.0,
}


# libyaml's parser with PyYAML's SafeConstructor and resolver: the same
# objects as yaml.SafeLoader, decoded several times faster.
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def _load_yaml(stream):
    """Decode one YAML document from a stream or string with the safe loader."""
    return yaml.load(stream, Loader=_YAML_LOADER)


def is_carbon_free_category(category: str) -> bool:
    return category in CARBON_FREE_CATEGORIES


def check_categories(categories: Iterable[str]) -> None:
    """Raise ValueError for a name that is not a source category."""
    for category in categories:
        if category not in SOURCE_CATEGORIES:
            raise ValueError(f"unknown source category {category!r}")


def _float(value: int | float) -> float:
    """``float(value)``, with an int beyond the float range read as infinite."""
    try:
        return float(value)
    except OverflowError:
        return inf if value > 0 else -inf


def load_cef_table(path: str | Path) -> dict[str, float]:
    """Load a CEF override table: a YAML mapping of category -> g/kWh.

    Unknown categories and non-numeric, non-finite or negative values are
    rejected so a typo in an override file cannot silently leave the
    default in place.
    """
    with open(path, encoding="utf-8") as fh:
        raw = _load_yaml(fh)
    if not isinstance(raw, Mapping):
        raise SchemaError(f"CEF table {path} must be a mapping of category -> g/kWh")
    table: dict[str, float] = {}
    for key, value in raw.items():
        if key not in SOURCE_CATEGORIES:
            raise SchemaError(f"CEF table {path}: unknown category {key!r}")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SchemaError(f"CEF table {path}: value for {key!r} must be a number")
        number = _float(value)
        if not isfinite(number):
            raise SchemaError(f"CEF table {path}: value for {key!r} must be finite, got {number}")
        if number < 0:
            raise SchemaError(f"CEF table {path}: value for {key!r} must be >= 0")
        table[key] = number
    return table
